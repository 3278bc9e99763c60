import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

from kcontact import chart_from_config, example_charts, lie_closure
from kcontact.holonomy import holonomy_samples
from kcontact.transport import SamplerConfig

# property sweeps draw the same examples on every run and keep no example
# database; a slow machine must not fail an example on time
settings.register_profile("kcontact", derandomize=True, database=None, deadline=None)
settings.load_profile("kcontact")
# hypothesis still caches the constants it mines from the source at
# collection; the cache goes to the system's temporary directory, not into
# the checkout
set_hypothesis_home_dir(Path(tempfile.gettempdir()) / "kcontact-hypothesis")

# algebra_cache routes and the holonomy_samples variant each one closes
ROUTES = {"schouten": "wagner", "annihilator": "annihilator", "adapted": "adapted"}
# the m = 3 factor mixes of the wide_products benchmark workload
WIDE_MIXES = {
    "disc3_b123": [{"kind": "poincare_disc", "b": b} for b in (1.0, 2.0, 3.0)],
    "ball2_disc": [{"kind": "bergman_ball", "complex_dim": 2}, {"kind": "poincare_disc"}],
    "perturbed_disc_disc_disc": [{"kind": "perturbed_disc", "epsilon": 0.3},
                                 {"kind": "poincare_disc"}, {"kind": "poincare_disc"}],
}


@pytest.fixture(scope="session")
def charts():
    return example_charts()


@pytest.fixture(scope="session")
def algebra_cache(charts):
    """Holonomy algebras per (chart, seed, route), computed once per session.

    A chart is a built-in one or a ``WIDE_MIXES`` product, by name.  One
    sampling pass per (chart, seed, n_paths) gives the samples of all
    three routes.
    """
    samples, cache = {}, {}

    def get(name, seed=0, route="schouten", n_paths=64, span_tol=1e-6):
        if route not in ROUTES:
            raise ValueError(route)
        key = (name, seed, route, n_paths, span_tol)
        if key not in cache:
            if (name, seed, n_paths) not in samples:
                chart = charts[name] if name in charts else chart_from_config(
                    {"type": "product", "factors": WIDE_MIXES[name]})
                samples[name, seed, n_paths] = holonomy_samples(
                    chart, np.zeros(chart.dim), SamplerConfig(n_paths=n_paths, seed=seed))[0]
            cache[key] = lie_closure(samples[name, seed, n_paths][ROUTES[route]], span_tol)
        return cache[key]

    return get


def domain_points(chart, count, seed=0, margin=0.9):
    from kcontact import random_domain_points

    return random_domain_points(chart, count, np.random.default_rng(seed), margin=margin)


def real_from_complex(U):
    """Real 2p x 2p matrix of a complex p x p matrix on interleaved coords.

    The complex coordinate z_j = x_j + i y_j occupies real slots
    (2j, 2j+1); anti-Hermitian input yields a skew output commuting with
    the standard complex structure.
    """
    U = np.asarray(U, dtype=complex)
    p = U.shape[0]
    out = np.zeros((2 * p, 2 * p))
    for j in range(p):
        for k in range(p):
            a, b = U[j, k].real, U[j, k].imag
            out[2 * j, 2 * k] = a
            out[2 * j + 1, 2 * k + 1] = a
            out[2 * j, 2 * k + 1] = -b
            out[2 * j + 1, 2 * k] = b
    return out
