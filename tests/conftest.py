import numpy as np
import pytest

from kcontact import example_charts, lie_closure
from kcontact.holonomy import holonomy_samples
from kcontact.transport import SamplerConfig

# algebra_cache routes and the holonomy_samples variant each one closes
ROUTES = {"schouten": "wagner", "annihilator": "annihilator", "adapted": "adapted"}


@pytest.fixture(scope="session")
def charts():
    return example_charts()


@pytest.fixture(scope="session")
def algebra_cache(charts):
    """Holonomy algebras per (chart, seed, route), computed once per session.

    One sampling pass per (chart, seed, n_paths) gives the samples of all
    three routes.
    """
    samples, cache = {}, {}

    def get(name, seed=0, route="schouten", n_paths=64, span_tol=1e-6):
        if route not in ROUTES:
            raise ValueError(route)
        key = (name, seed, route, n_paths, span_tol)
        if key not in cache:
            if (name, seed, n_paths) not in samples:
                chart = charts[name]
                samples[name, seed, n_paths] = holonomy_samples(
                    chart, np.zeros(chart.dim), SamplerConfig(n_paths=n_paths, seed=seed))
            cache[key] = lie_closure(samples[name, seed, n_paths][ROUTES[route]], span_tol)
        return cache[key]

    return get


def domain_points(chart, count, seed=0, margin=0.9):
    from kcontact import random_domain_points

    return random_domain_points(chart, count, np.random.default_rng(seed), margin=margin)
