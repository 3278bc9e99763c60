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

from kcontact import cli
from kcontact.manifolds import chart_arrays

from conftest import domain_points
from fd_oracles import fd_first, rotated_chart
from test_golden import _structure

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EPS = 0.7


@pytest.mark.parametrize("name", ["disc_disc_12", "bergman"])
def test_rotated_jets_match_finite_differences(charts, name):
    chart = rotated_chart(charts[name], (0, 1), EPS)
    X = domain_points(chart, 6, seed=31, margin=0.9)
    arr = chart_arrays(chart, X, order=1)
    assert np.max(np.abs(arr.dxi)) >= 0.5
    for k, x in enumerate(X):
        dth, dxi, dE, dG = fd_first(chart, x)
        # xi is linear in x, so central differences leave only rounding
        assert np.max(np.abs(arr.dxi[k] - dxi)) < 1e-10
        scale = 1.0 + np.abs(dG).max()
        for got, ref in zip((arr.dth[k], arr.dE[k], arr.dG[k]), (dth, dE, dG)):
            assert np.max(np.abs(got - ref)) < 1e-5 * scale


@pytest.mark.parametrize("name", ["disc_disc_12", "bergman"])
def test_rotated_holonomy_structure(monkeypatch, name):
    cfg = cli.load_config(str(CONFIGS / f"{name}.json"))
    cfg.sampler = replace(cfg.sampler, n_paths=8)
    plain = _structure(cli.holonomy_report(cfg))
    resolve = cli._resolve_chart

    def rotated(cfg):
        chart, x0 = resolve(cfg)
        return rotated_chart(chart, (0, 1), EPS), x0

    monkeypatch.setattr(cli, "_resolve_chart", rotated)
    report = cli.holonomy_report(cfg)
    assert report["manifold"].startswith("rotated[")
    assert _structure(report) == plain
