"""The change-of-frame oracle: a built-in chart in a frame that rotates, as
t grows, in a frame plane mixing two factor blocks.

On every built-in chart, and on its pullbacks (``fd_oracles.rotated_chart``),
[xi, e_a] = 0 in the chart's frame.  The Reeb term ``w xi_coeffs`` of the
zero extension then multiplies exact zeros, and a transport that dropped or
flipped it would pass every check there.  The gauged chart
(``fd_oracles.gauged_chart``) keeps theta, xi and the sub-Riemannian
structure, and its [xi, e'_a] is eps times a rotation generator.  The
package must report the same manifold there, and a fault in the Reeb term
shows up in its answers.
"""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from kcontact import cli
from kcontact import transport as T
from kcontact.connection import frame_data
from kcontact.holonomy import holonomy_samples, lie_closure

from conftest import domain_points
from fd_oracles import gauged_chart, reeb_adapted_samples, structure_fd
from test_golden import _structure
from test_rotated_chart import WIDE_MIXES

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

EPS = 0.7
# frame plane (1, 2) mixes the factor blocks; a gauge inside one block
# commutes with the transports of the loop's circles and exposes nothing
PAIR = (1, 2)
EQUIVALENCE_TOL = 1e-4  # verify's transport_equivalence gate
# the built-in charts' (Wagner, adapted, annihilator) dims and codim at 8
# paths and seed 0
BUILT_IN_DIMS = {"disc_disc_12": (1, 2, 1, 1), "bergman": (3, 4, 3, 1),
                 "perturbed_disc_disc": (2, 2, 2, 0)}


def _gauge_resolved_charts(monkeypatch):
    """Patch ``cli._resolve_chart`` to gauge the chart it resolves."""
    resolve = cli._resolve_chart

    def gauged(cfg):
        chart, x0 = resolve(cfg)
        return gauged_chart(chart, PAIR, EPS), x0

    monkeypatch.setattr(cli, "_resolve_chart", gauged)


def _gauged_config(monkeypatch, name):
    """The shipped config ``name`` at 8 paths and seed 0, with
    ``cli._resolve_chart`` patched to gauge its chart."""
    cfg = cli.load_config(str(CONFIGS / f"{name}.json"))
    cfg.sampler = dataclasses.replace(cfg.sampler, n_paths=8, seed=0)
    _gauge_resolved_charts(monkeypatch)
    return cfg


def _drop_reeb_term(monkeypatch):
    rates = T._connection_rates
    monkeypatch.setattr(T, "_connection_rates", lambda data, u, w: rates(
        dataclasses.replace(data, xi_coeffs=None), u, w))


@pytest.mark.parametrize("name", ["bergman", "disc_disc_12"])
def test_gauged_reeb_brackets_match_finite_differences(charts, name):
    chart = gauged_chart(charts[name], PAIR, EPS)
    X = domain_points(chart, 4, seed=37)
    data = frame_data(chart, X, order=1)
    # [xi, e'_a] = e'_c (g^-1 dg/dt)_ca, eps times the generator of the plane
    generator = np.zeros((4, 4))
    generator[PAIR[1], PAIR[0]], generator[PAIR[0], PAIR[1]] = EPS, -EPS
    assert np.max(np.abs(data.xi_coeffs - generator)) < 1e-12
    for k, x in enumerate(X):
        assert np.max(np.abs(data.xi_coeffs[k] - structure_fd(chart, x)["dcoef"])) < 1e-6


def test_transport_equivalence_sees_the_reeb_term(charts, monkeypatch):
    # verify's equivalence check, on a loop sampled as verify samples it: with
    # the Reeb term the two transports agree to rounding, without it the
    # adapted transport around the loop is another matrix
    chart = gauged_chart(charts["bergman"], PAIR, EPS)
    loop = T.balanced_loop(chart, np.zeros(5), np.random.default_rng(2))
    sc = T.sample_curve(chart, loop, T.LOOP_STEP)
    assert T.transport_equivalence_check(chart, sc)[0] < EQUIVALENCE_TOL
    _drop_reeb_term(monkeypatch)
    assert T.transport_equivalence_check(chart, sc)[0] > EQUIVALENCE_TOL


@pytest.mark.parametrize("name", BUILT_IN_DIMS)
def test_gauged_holonomy_structure(monkeypatch, name):
    # a change of frame keeps the holonomy algebras: the report has the
    # built-in chart's dims, codim, blocks and spinor kernels
    cfg = _gauged_config(monkeypatch, name)
    report = cli.holonomy_report(cfg)
    assert report["manifold"].startswith("gauged[")
    cross = report["cross_variant"]["dims"]
    assert (cross["wagner"], report["dims"]["adapted"], cross["annihilator"],
            report["codim"]) == BUILT_IN_DIMS[name]
    monkeypatch.undo()
    assert _structure(report) == _structure(cli.holonomy_report(cfg))


@pytest.mark.parametrize("name", WIDE_MIXES)
def test_gauged_wide_mix_structure(monkeypatch, name):
    # at m = 3 the gauged chart, off normal form, takes the general route
    # of the sampling pass: the report keeps the built-in chart's dims,
    # codim, cross-variant dims, blocks and spinor kernels
    cfg = cli.RunConfig.from_dict({"manifold": {"type": "product", "factors": WIDE_MIXES[name]}})
    cfg.sampler = dataclasses.replace(cfg.sampler, n_paths=8, seed=0)
    built_in = _structure(cli.holonomy_report(cfg))
    _gauge_resolved_charts(monkeypatch)
    report = cli.holonomy_report(cfg)
    assert report["manifold"].startswith("gauged[")
    assert _structure(report) == built_in


@pytest.mark.parametrize("name", ["disc_disc_12", "bergman", "perturbed_disc_disc", "heisenberg"])
def test_gauged_verify_passes(monkeypatch, name):
    report = cli.verify_report(_gauged_config(monkeypatch, name))
    assert report["manifold"].startswith("gauged[")
    assert len(report["checks"]) == 18
    assert [k for k, c in report["checks"].items() if not c["pass"]] == []


def test_adapted_dims_see_the_reeb_term(monkeypatch):
    # along paths with Reeb controls (the oracle of the pass holonomy_samples
    # made off normal form) the adapted transports leave the algebra without
    # the Reeb term: the closure of the adapted samples fills so(4).  Along
    # the horizontal pass the term is multiplied by w = 0, so holonomy_samples
    # reads the same dim either way
    cfg = _gauged_config(monkeypatch, "disc_disc_12")

    def adapted_dims():
        chart, x0 = cli._resolve_chart(cfg)
        samples, _ = holonomy_samples(chart, x0, cfg.sampler)
        return tuple(lie_closure(s, cfg.span_tol).dim
                     for s in (reeb_adapted_samples(chart, x0, cfg.sampler), samples["adapted"]))

    assert adapted_dims() == (2, 2)
    _drop_reeb_term(monkeypatch)
    assert adapted_dims() == (6, 2)
