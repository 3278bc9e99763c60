"""The change-of-frame oracle: a built-in chart in a frame that rotates, as
t grows, in a frame plane mixing two factor blocks.

On every built-in chart, and on its pullbacks (``fd_oracles.rotated_chart``),
[xi, e_a] = 0 in the chart's frame.  The Reeb term ``w xi_coeffs`` of the
zero extension then multiplies exact zeros, and a transport that dropped or
flipped it would pass every check there.  The gauged chart
(``fd_oracles.gauged_chart``) keeps theta, xi and the sub-Riemannian
structure, and its [xi, e'_a] is eps times a rotation generator.
"""

import dataclasses

import numpy as np
import pytest

from kcontact import transport as T
from kcontact.connection import frame_data

from conftest import domain_points
from fd_oracles import gauged_chart, structure_fd

EPS = 0.7
# frame plane (1, 2) mixes the factor blocks; a gauge inside one block
# commutes with the transports of the loop's circles and exposes nothing
PAIR = (1, 2)
EQUIVALENCE_TOL = 1e-4  # verify's transport_equivalence gate


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
    rates = T._connection_rates
    monkeypatch.setattr(T, "_connection_rates", lambda data, u, w: rates(
        dataclasses.replace(data, xi_coeffs=None), u, w))
    assert T.transport_equivalence_check(chart, sc)[0] > EQUIVALENCE_TOL
