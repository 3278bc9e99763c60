"""The coordinate-change oracle: a built-in chart pulled back by a rotation
of one factor's plane through an angle proportional to t.

Every built-in chart has the Reeb field d/dt and moves its horizontal
coordinates linearly, so every ``dxi`` term meets exact zeros there.  The
pullback (``fd_oracles.rotated_chart``) describes the same manifold with
a point-dependent Reeb field and t-dependent coefficients; everything the
package computes about the manifold must come out the same.
"""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcontact import cli
from kcontact.connection import frame_data
from kcontact.manifolds import (
    BALL_RADIUS,
    FACTOR_KINDS,
    FactorSpec,
    chart_arrays,
    chart_invariant_residuals,
    product_construction,
)

from conftest import WIDE_MIXES, domain_points
from fd_oracles import fd_first, rotated_chart
from test_golden import _structure

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EPS = 0.7
# verify's gates on the chart invariants: upper bounds, then lower bounds
VERIFY_UPPER = {"theta_xi": 1e-10, "theta_frame": 1e-10, "reeb_interior": 1e-8,
                "lie_xi_g": 1e-7, "tau_plus_omega": 1e-7, "theta_xi_bracket": 1e-7}
VERIFY_LOWER = {"spd_min_eig": 0.0, "omega_sv_ratio_min": 1e-6}


def _check_jets(chart, arr, k, x):
    """The jets of ``arr`` at its point k, x, against central differences."""
    dth, dxi, dE, dG = fd_first(chart, x)
    # xi is linear in x, so central differences leave only rounding
    assert np.max(np.abs(arr.dxi[k] - dxi)) < 1e-10
    scale = 1.0 + np.abs(dG).max()
    for got, ref in zip((arr.dth[k], arr.dE[k], arr.dG[k]), (dth, dE, dG)):
        assert np.max(np.abs(got - ref)) < 1e-5 * scale


@pytest.mark.parametrize("name", ["disc_disc_12", "bergman"])
def test_rotated_jets_match_finite_differences(charts, name):
    chart = rotated_chart(charts[name], (0, 1), EPS)
    X = domain_points(chart, 6, seed=31, margin=0.9)
    arr = chart_arrays(chart, X, order=1)
    assert np.max(np.abs(arr.dxi)) >= 0.5
    for k, x in enumerate(X):
        _check_jets(chart, arr, k, x)


def _reals(lo, hi):
    return st.floats(lo, hi, allow_nan=False, allow_infinity=False)


@st.composite
def rotated_cases(draw):
    """A rotated product chart with m <= 3, a point of its domain and a
    velocity split (u, w)."""
    m = draw(st.integers(2, 3))
    factors = []
    while (used := sum(f.complex_dim for f in factors)) < m:
        kind = draw(st.sampled_from(FACTOR_KINDS))
        dim = draw(st.integers(1, m - used)) if kind == "bergman_ball" else 1
        b = draw(st.sampled_from([1.0, -1.0])) * draw(_reals(0.5, 3.0))
        curvature, eps = draw(_reals(0.5, 2.0)), draw(_reals(-0.5, 0.5))
        # only a perturbed disc takes epsilon; the draw stays, so the cases do
        factors.append(FactorSpec(kind, dim, b, curvature,
                                  eps if kind == "perturbed_disc" else 0.0))
    chart = product_construction(factors)
    # a rotation inside one factor's disc or ball leaves the domain unchanged
    blocks = chart.blocks  # the rotated chart has none
    block = draw(st.sampled_from(blocks))
    pair = draw(st.lists(st.sampled_from(block), min_size=2, max_size=2, unique=True))
    chart = rotated_chart(chart, tuple(pair), draw(_reals(-1.0, 1.0)))
    x = np.array(draw(st.lists(_reals(-1.0, 1.0), min_size=chart.dim, max_size=chart.dim)))
    for blk in map(list, blocks):
        x[blk] *= 0.9 * BALL_RADIUS / max(1.0, np.linalg.norm(x[blk]))
    x[-1] *= 3.6
    u = np.array(draw(st.lists(_reals(-1.0, 1.0), min_size=2 * m, max_size=2 * m)))
    return chart, x, u, draw(_reals(-1.0, 1.0))


@settings(max_examples=200)
@given(case=rotated_cases())
def test_rotated_product_sweep(case):
    # on rotated factor mixes the jets match central differences, the chart
    # invariants pass verify's gates, and theta(E u + w xi) = w holds to
    # rounding although xi is not d/dt: the identity by which the positions
    # pass of a control path integrates no theta
    chart, x, u, w = case
    arr = chart_arrays(chart, x[None], order=1)
    _check_jets(chart, arr, 0, x)
    res = chart_invariant_residuals(frame_data(chart, x[None], order=1))
    assert all(res[k] <= tol for k, tol in VERIFY_UPPER.items()), res
    assert all(res[k] > tol for k, tol in VERIFY_LOWER.items()), res
    th, xi, E = arr.th[0], arr.xi[0], arr.E[0]
    terms = np.abs(th) @ (np.abs(E) @ np.abs(u) + abs(w) * np.abs(xi))
    assert abs(th @ (E @ u + w * xi) - w) <= 8 * np.finfo(float).eps * terms


@pytest.mark.parametrize("name", ["disc_disc_12", "bergman", *WIDE_MIXES])
def test_rotated_holonomy_structure(monkeypatch, name):
    # the shipped configs rotate the pair (0, 1); the m = 3 mixes rotate
    # (2, 3), the second disc or the ball's second complex direction
    if name in WIDE_MIXES:
        raw = {"manifold": {"type": "product", "factors": WIDE_MIXES[name]}}
        cfg, pair = cli.RunConfig.from_dict(raw), (2, 3)
    else:
        cfg, pair = cli.load_config(str(CONFIGS / f"{name}.json")), (0, 1)
    cfg.sampler = replace(cfg.sampler, n_paths=8)
    plain = _structure(cli.holonomy_report(cfg))
    resolve = cli._resolve_chart

    def rotated(cfg):
        chart, x0 = resolve(cfg)
        return rotated_chart(chart, pair, EPS), x0

    monkeypatch.setattr(cli, "_resolve_chart", rotated)
    report = cli.holonomy_report(cfg)
    assert report["manifold"].startswith("rotated[")
    assert _structure(report) == plain
    assert report["cross_variant"]["residual"] <= cli.CROSS_VARIANT_TOL
