import dataclasses
import tracemalloc
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from kcontact import connection as C
from kcontact import holonomy as H
from kcontact import manifolds as M
from kcontact import transport as T
from kcontact import transverse as TV
from kcontact.errors import ChartError

from conftest import domain_points
from fd_oracles import (
    annihilator_pairs_reference,
    commutator_map_reference,
    conjugated_samples_reference,
    curvature_fd,
    curvature_reference,
    frame_brackets_per_component,
    frame_brackets_reference,
    frame_rates_reference,
    frame_two_form_reference,
    gamma_fd,
    gauged_chart,
    inverse_derivative_reference,
    koszul_sum_moveaxis,
    koszul_sum_reference,
    ortho_curvature_reference,
    ortho_transports_reference,
    ortho_two_form_reference,
    orthonormal_ricci_reference,
    pair_samples_reference,
    reeb_brackets_per_component,
    reeb_brackets_reference,
    rotated_chart,
    sasaki_psi_check_reference,
    two_form_derivative_reference,
    wagner_nabla_N,
)


ALL = ["heisenberg", "disc_disc_11", "disc_disc_12", "bergman", "perturbed_disc_disc"]


def test_heisenberg_flat(charts):
    chart = charts["heisenberg"]
    pts = domain_points(chart, 10, seed=0)
    data = C.frame_data(chart, pts, order=2)
    assert np.max(np.abs(data.Gamma)) < 1e-13
    assert np.max(np.abs(data.R)) < 1e-13
    assert np.max(np.abs(data.N)) < 1e-13
    RW, RWxi = data.RW, -wagner_nabla_N(chart, pts)
    assert np.max(np.abs(RW)) < 1e-13
    assert np.max(np.abs(RWxi)) < 1e-10


def test_heisenberg_alpha_is_minus_two_omega(charts):
    # acceptance pins dtheta(alpha) = -4m, which forces alpha = 2 inv(omega);
    # on the flat chart that is -2 omega (the inverse itself is -omega)
    chart = charts["heisenberg"]
    data = C.frame_data(chart, np.zeros(5), order=2)
    om, al = data.omega[0], data.alpha[0]
    assert np.allclose(al, -2.0 * om, atol=1e-14)
    assert np.allclose(np.linalg.inv(om), -om, atol=1e-14)
    assert abs(C.form_on_bivector(om, al) + 8.0) < 1e-12


@pytest.mark.parametrize("name", ALL)
def test_connection_invariants(charts, name):
    chart = charts[name]
    pts = domain_points(chart, 50, seed=1, margin=0.97)
    res = C.connection_invariant_residuals(C.frame_data(chart, pts, order=2))
    assert res["torsion"] < 1e-7
    assert res["metric_compat"] < 1e-7
    assert res["g_skew"] < 1e-6
    assert res["bianchi"] < 1e-6
    assert res["wagner"] < 1e-6
    assert res["dtheta_pairing"] < 1e-9


# the gauged charts (frame plane (1, 2), eps 0.7) have [xi, e'_a] != 0: only
# they exercise the curvature's tau . xi_coeffs term (T6 of curvature_fd)
FD_CHARTS = ["disc_disc_12", "bergman", "perturbed_disc_disc", "gauged_bergman",
             "gauged_disc_disc_12"]


def _fd_chart(charts, name):
    base = name.removeprefix("gauged_")
    return charts[base] if base == name else gauged_chart(charts[base], (1, 2), 0.7)


@pytest.mark.parametrize("name", FD_CHARTS)
def test_gamma_against_finite_differences(charts, name):
    chart = _fd_chart(charts, name)
    pts = domain_points(chart, 5, seed=2, margin=0.85)
    Gam = C.frame_data(chart, pts, order=1).Gamma
    for k, x in enumerate(pts):
        ref = gamma_fd(chart, x)
        scale = np.max(np.abs(ref)) + 1.0
        assert np.max(np.abs(Gam[k] - ref)) < 1e-3 * scale


@pytest.mark.parametrize("name", FD_CHARTS)
def test_curvature_against_finite_differences(charts, name):
    chart = _fd_chart(charts, name)
    pts = domain_points(chart, 4, seed=3, margin=0.8)
    R = C.frame_data(chart, pts, order=2).R
    for k, x in enumerate(pts):
        ref = curvature_fd(chart, x)
        scale = np.max(np.abs(ref)) + 1.0
        assert np.max(np.abs(R[k] - ref)) < 1e-3 * scale


def test_disc_origin_gamma_vanishes(charts):
    chart = charts["disc_disc_11"]
    Gam = C.frame_data(chart, np.zeros(5), order=1).Gamma
    assert np.max(np.abs(Gam)) < 1e-12


def test_torsion_identity_is_structural(charts):
    chart = charts["bergman"]
    pts = domain_points(chart, 20, seed=4)
    data = C.frame_data(chart, pts, order=1)
    tors = data.Gamma - data.Gamma.swapaxes(-1, -2) - data.c
    assert np.max(np.abs(tors)) < 1e-12


def test_curvature_block_locality(charts):
    chart = charts["disc_disc_12"]
    pts = domain_points(chart, 20, seed=5)
    data = C.frame_data(chart, pts, order=2)
    b1 = [0, 1]
    b2 = [2, 3]
    assert np.max(np.abs(data.Gamma[np.ix_(range(len(pts)), b1, b2, b2)])) < 1e-7
    assert np.max(np.abs(data.Gamma[np.ix_(range(len(pts)), b2, b1, b1)])) < 1e-7
    # R(e_a, e_b) = 0 for a, b in different blocks
    assert np.max(np.abs(data.R[np.ix_(range(len(pts)), b1, b2)])) < 1e-7
    assert np.max(np.abs(data.N[np.ix_(range(len(pts)), b1, b2)])) < 1e-7
    assert np.max(np.abs(data.N[np.ix_(range(len(pts)), b2, b1)])) < 1e-7


def test_wagner_field_equal_discs_proportional_to_sum_of_rotations(charts):
    chart = charts["disc_disc_11"]
    pts = domain_points(chart, 10, seed=6)
    data = C.frame_data(chart, pts, order=2)
    P, Pinv = C.orthonormal_frame_change(data.G)
    No = np.einsum("...Ee,...ec,...cC->...EC", Pinv, data.N, P)
    J = np.array([[0, -1], [1, 0]], float)
    for k in range(len(pts)):
        blocks = [No[k][:2, :2], No[k][2:, 2:]]
        coeffs = [np.sum(B * J) / 2.0 for B in blocks]
        for B, c in zip(blocks, coeffs):
            assert np.max(np.abs(B - c * J)) < 1e-10
        # equal factors with equal weights get equal coefficients
        assert abs(coeffs[0] - coeffs[1]) < 1e-10
        assert abs(coeffs[0]) > 1e-3


def test_curvature_on_bivector_contract(charts):
    chart = charts["bergman"]
    x = domain_points(chart, 1, seed=7)[0]
    data = C.frame_data(chart, x[None], order=2)
    R = data.R[0]
    tm = 4
    assert np.max(np.abs(C.curvature_on_bivector(R, np.zeros((tm, tm))))) == 0.0
    for a, b in [(0, 1), (1, 3), (2, 3)]:
        beta = np.zeros((tm, tm))
        beta[a, b] = 1.0
        beta[b, a] = -1.0
        assert np.allclose(C.curvature_on_bivector(R, beta), 2.0 * R[a, b], atol=1e-12)
    rng = np.random.default_rng(0)
    b1 = rng.normal(size=(tm, tm))
    b1 = b1 - b1.T
    b2 = rng.normal(size=(tm, tm))
    b2 = b2 - b2.T
    lin = C.curvature_on_bivector(R, 2.0 * b1 - 0.5 * b2)
    assert np.allclose(
        lin,
        2.0 * C.curvature_on_bivector(R, b1) - 0.5 * C.curvature_on_bivector(R, b2),
        atol=1e-12,
    )
    assert np.max(np.abs(C.curvature_on_bivector(data.RW[0], data.alpha[0]))) < 1e-10


def test_wagner_condition_with_any_normalization(charts):
    # R^W annihilates the inverse bivector whatever chart and point
    for name in ["disc_disc_11", "bergman", "perturbed_disc_disc"]:
        chart = charts[name]
        pts = domain_points(chart, 10, seed=9)
        data = C.frame_data(chart, pts, order=2)
        val = C.curvature_on_bivector(data.RW, data.alpha)
        assert np.max(np.linalg.norm(val, axis=(-2, -1))) < 1e-6
        pair = C.form_on_bivector(data.omega, data.alpha)
        assert np.max(np.abs(pair + 4.0 * chart.m)) < 1e-9


def test_three_factor_chart_invariants():
    chart = M.product_construction([
        M.FactorSpec("poincare_disc", b=1.0),
        M.FactorSpec("poincare_disc", b=-2.0, curvature=2.0),
        M.FactorSpec("bergman_ball", complex_dim=1, b=0.5),
    ])
    assert chart.m == 3 and chart.dim == 7
    pts = domain_points(chart, 15, seed=11, margin=0.9)
    res = C.connection_invariant_residuals(C.frame_data(chart, pts, order=2))
    assert res["torsion"] < 1e-7
    assert res["bianchi"] < 1e-6
    assert res["wagner"] < 1e-6
    assert res["dtheta_pairing"] < 1e-9
    man = M.chart_invariant_residuals(C.frame_data(chart, pts, order=1))
    assert man["lie_xi_g"] < 1e-7


def test_order_two_frame_data_peak_memory(charts):
    # the second-order pass frees each temporary after its last use and
    # peaks at 3.05 MB; holding them all until it returns peaked near
    # 5.9 MB on these 128 points
    chart = charts["bergman"]
    pts = domain_points(chart, 128, seed=0, margin=0.95)
    C.frame_data(chart, pts, order=2)  # warm up caches outside the trace
    tracemalloc.start()
    try:
        C.frame_data(chart, pts, order=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0e6, peak


def _disc3():
    return M.product_construction([M.FactorSpec("poincare_disc", b=b) for b in (1.0, 2.0, 3.0)])


# charts for the second-order layouts: m = 2 and m = 3 products, a flat
# chart at m = 4, and a rotated chart, the only one whose dxi and dMinv are
# not zero (every built-in chart has dxi = 0)
ORDER_TWO_CHARTS = {
    "bergman": lambda charts: charts["bergman"],
    "disc_disc_12": lambda charts: charts["disc_disc_12"],
    "perturbed_disc_disc": lambda charts: charts["perturbed_disc_disc"],
    "disc3_b123": lambda charts: _disc3(),
    "heisenberg(4)": lambda charts: M.heisenberg(4),
    "rotated_disc_disc_12": lambda charts: rotated_chart(charts["disc_disc_12"], (0, 1), 0.7),
}


def _close(got, ref, rel=1e-12):
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= rel * np.max(np.abs(ref))


@pytest.mark.parametrize("name", list(ORDER_TWO_CHARTS))
def test_curvature_matches_reference(charts, name):
    # the batched-matmul layouts of the second-order pass against its
    # single-sum form, field by field
    chart = ORDER_TWO_CHARTS[name](charts)
    pts = domain_points(chart, 12, seed=13, margin=0.9)
    data = C.frame_data(chart, pts, order=2)
    ref = curvature_reference(chart, pts)
    for field in ("R", "RW", "N", "alpha", "domega"):
        _close(getattr(data, field), ref[field])


@pytest.mark.parametrize("name", list(ORDER_TWO_CHARTS))
def test_order_two_consumers_match_references(charts, name):
    chart = ORDER_TWO_CHARTS[name](charts)
    data = C.frame_data(chart, domain_points(chart, 12, seed=14, margin=0.9), order=2)
    for got, ref in zip(TV.orthonormal_ricci(data), orthonormal_ricci_reference(data),
                        strict=True):
        _close(got, ref)
    # the residuals vanish on Sasaki charts: rounding noise is compared absolutely
    res = TV.sasaki_psi_check(data)
    for key, ref in zip(("psi_sq_residual", "nabla_psi_residual"),
                        sasaki_psi_check_reference(data), strict=True):
        assert abs(res[key] - ref) <= 1e-12 * max(1.0, ref)


@pytest.mark.parametrize("tm", [4, 6, 8])
@pytest.mark.parametrize("batch", [(), (7,), (2, 3)], ids=str)
def test_ortho_two_form_matches_reference(tm, batch):
    rng = np.random.default_rng([tm, len(batch)])
    A = rng.standard_normal(batch + (tm, tm))
    P = C.orthonormal_frame_change(A @ np.swapaxes(A, -1, -2) + tm * np.eye(tm))[0]
    omega = rng.standard_normal(batch + (tm, tm))
    omega = omega - np.swapaxes(omega, -1, -2)
    _close(C.ortho_two_form(omega, P), ortho_two_form_reference(omega, P), 1e-13)


@pytest.mark.parametrize("tm", [4, 6, 8])
@pytest.mark.parametrize("paths", [1, 7])
def test_ortho_transports_match_reference(tm, paths):
    rng = np.random.default_rng([tm, paths])
    A = rng.standard_normal((paths + 1, tm, tm))
    P, Pinv = C.orthonormal_frame_change(A @ np.swapaxes(A, -1, -2) + tm * np.eye(tm))
    taus = np.eye(tm) + 0.3 * rng.standard_normal((paths, tm, tm))
    _close(C.ortho_transports(taus, Pinv[1:], P[0]),
           ortho_transports_reference(taus, Pinv[1:], P[0]), 1e-13)


@pytest.mark.parametrize("name", ["bergman", "disc3_b123", "rotated_disc_disc_12"])
def test_order_two_frame_data_makes_no_einsum_call(charts, name, monkeypatch):
    # connection and manifolds reach np.einsum through the numpy module; no
    # sum of two or more operands in the second-order pass goes through it
    chart = ORDER_TWO_CHARTS[name](charts)
    pts = domain_points(chart, 6, seed=15)
    operands = []
    einsum = np.einsum

    def recording_einsum(subscripts, *args, **kwargs):
        operands.append(len(args))
        return einsum(subscripts, *args, **kwargs)

    monkeypatch.setattr(np, "einsum", recording_einsum)
    data = C.frame_data(chart, pts, order=2)
    monkeypatch.setattr(np, "einsum", einsum)
    assert data.RW.shape == (6,) + (2 * chart.m,) * 4
    assert all(k < 2 for k in operands), operands


def test_order_two_frame_data_peak_memory_at_m3():
    # three discs (2m = 6) on 30 points: the order-2 batch of the transverse
    # checks of a wide report peaks at 2.77 MB; the single-sum pass peaked
    # at 3.24 MB
    chart = _disc3()
    pts = domain_points(chart, 30, seed=0, margin=0.95)
    C.frame_data(chart, pts, order=2)  # warm up caches outside the trace
    tracemalloc.start()
    try:
        C.frame_data(chart, pts, order=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.9e6, peak


def test_small_dtheta_is_not_degenerate():
    # det(omega) scales as b^(2m): at b = 0.001 on three discs it falls
    # below 1e-12 at points away from the origin, yet omega is well
    # conditioned at every point
    chart = M.product_construction([M.FactorSpec("poincare_disc", b=0.001)] * 3)
    pts = domain_points(chart, 10, seed=16)
    data = C.frame_data(chart, pts, order=2)
    assert np.min(np.abs(np.linalg.det(data.omega))) < 1e-12
    assert np.max(np.linalg.cond(data.omega)) < 100.0
    pairing = C.form_on_bivector(data.omega, data.alpha)
    assert np.max(np.abs(pairing + 4.0 * chart.m)) < 1e-9


def test_degenerate_dtheta_raises_chart_error_at_any_scale():
    # theta = dt + S sum_r (u_r . x) (w_r . dx) on the m = 3 Heisenberg frame:
    # dtheta = S sum_r du_r ^ dw_r has rank 4 < 2m = 6.  At S = 1e4 rounding
    # leaves |det omega| near 3e-10, above the old absolute cut-off of 1e-12
    U = [[0.3, -0.7, 0.5, 0.2, 0.9, -0.1], [0.6, 0.1, -0.4, 0.9, -0.3, 0.8]]
    W = [[-0.2, 0.5, 0.7, -0.6, 0.4, 0.3], [0.9, -0.8, 0.1, 0.2, 0.6, -0.5]]
    scale = 1e4

    def theta(x):
        comps = [0.0] * 6
        for u, w in zip(U, W):
            f = sum(ui * xi for ui, xi in zip(u, x[:6]))
            comps = [c + (scale * wi) * f for c, wi in zip(comps, w)]
        return comps + [1.0]

    chart = dataclasses.replace(M.heisenberg(3), theta=theta, name="rank-4 dtheta")
    pts = domain_points(chart, 4, seed=17, margin=0.2)
    omega = C.frame_data(chart, pts, order=1).omega
    assert np.linalg.matrix_rank(omega[0]) == 4
    assert np.min(np.abs(np.linalg.det(omega))) > 1e-12
    with pytest.raises(ChartError, match="degenerate dtheta"):
        C.frame_data(chart, pts, order=2)


def test_orthonormal_frame_change_properties(charts):
    chart = charts["bergman"]
    pts = domain_points(chart, 10, seed=10)
    data = C.frame_data(chart, pts, order=1)
    P, Pinv = C.orthonormal_frame_change(data.G)
    assert np.max(np.abs(np.einsum("...ab,...ac,...cd->...bd", P, data.G, P) - np.eye(4))) < 1e-10
    assert np.max(np.abs(np.matmul(Pinv, P) - np.eye(4))) < 1e-10


@pytest.mark.parametrize("tm", [2, 4, 6, 8])
@pytest.mark.parametrize("batch", [(), (7,), (2, 3)], ids=str)
def test_ortho_curvature_matches_reference(tm, batch):
    rng = np.random.default_rng(tm + 10 * len(batch))
    F = rng.standard_normal(batch + (tm,) * 4)
    A = rng.standard_normal(batch + (tm, tm))
    G = A @ np.swapaxes(A, -1, -2) + tm * np.eye(tm)
    P, Pinv = C.orthonormal_frame_change(G)
    ref = ortho_curvature_reference(F, P, Pinv)
    got = C.ortho_curvature(F, P, Pinv)
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_ortho_curvature_symmetries(charts):
    # R(e_a, e_b) is antisymmetric in the pair and g-skew, so in an
    # orthonormal frame it is antisymmetric in (A, B) and skew in (E, C)
    data = C.frame_data(charts["bergman"], domain_points(charts["bergman"], 5, seed=12), order=2)
    P, Pinv = C.orthonormal_frame_change(data.G)
    Ro = C.ortho_curvature(data.R, P, Pinv)
    assert np.max(np.abs(Ro)) > 0.1
    assert np.max(np.abs(Ro + Ro.swapaxes(-4, -3))) < 1e-12
    assert np.max(np.abs(Ro + Ro.swapaxes(-2, -1))) < 1e-12


def _generic_arrays(tm, batch, rng):
    """First-order chart arrays with generic entries (no chart behind them):
    a well-conditioned [E | xi], an SPD metric, dG symmetric in its pair."""
    n = tm + 1
    aug = np.eye(n) + 0.3 * rng.standard_normal(batch + (n, n))
    B = rng.standard_normal(batch + (tm, tm))
    dG = rng.standard_normal(batch + (tm, tm, n))
    return M.ChartArrays(
        np.zeros(batch + (n,)), 1,
        th=rng.standard_normal(batch + (n,)), xi=aug[..., tm], E=aug[..., :tm],
        G=B @ B.swapaxes(-1, -2) + tm * np.eye(tm),
        dth=rng.standard_normal(batch + (n, n)), dxi=rng.standard_normal(batch + (n, n)),
        dE=rng.standard_normal(batch + (n, tm, n)), dG=dG + dG.swapaxes(-3, -2),
    )


def _pairs_frame_brackets(arr, rng):
    return C.frame_brackets(arr), frame_brackets_reference(arr)


def _pairs_reeb_brackets(arr, rng):
    Minv = C.frame_brackets(arr)[1]
    return (C.reeb_brackets(arr, Minv),), (reeb_brackets_reference(arr, Minv),)


def _first_order_frame_data(arr):
    """``frame_data`` at order 1 on the arrays ``arr`` in place of a chart
    evaluation, on the general path: generic arrays are not in normal form."""
    chart = SimpleNamespace(m=arr.E.shape[-1] // 2, normal_form=False, blocks=())
    with mock.patch.object(C, "chart_arrays", lambda chart, X, order: arr):
        return C.frame_data(chart, arr.X)


def _pairs_frame_two_form(arr, rng):
    data = _first_order_frame_data(arr)
    return (data.omega,), (frame_two_form_reference(arr.E, data.A),)


def _pairs_koszul(arr, rng):
    # the one Koszul sum on a D[b, c, a] with no symmetry, and on a
    # derivative d_j D[b, c, a] into the [c, a, b, j] layout of the
    # curvature pass
    D = rng.standard_normal(arr.G.shape + arr.G.shape[-1:])
    dD = rng.standard_normal(D.shape + (D.shape[-1] + 1,))
    dK = np.einsum("...jabc->...cabj", koszul_sum_reference(np.moveaxis(dD, -1, -4)))
    return (C._koszul_sum(D), C._koszul_sum(dD, "cabj")), (koszul_sum_reference(D), dK)


def _pairs_inverse_derivative(arr, rng):
    Minv = C.frame_brackets(arr)[1]
    dM = rng.standard_normal(Minv.shape + Minv.shape[-1:])
    return (C.inverse_derivative(Minv, dM),), (inverse_derivative_reference(Minv, dM),)


def _pairs_two_form_derivative(arr, rng):
    A = _first_order_frame_data(arr).A
    dA = rng.standard_normal(A.shape + A.shape[-1:])
    dA = dA - dA.swapaxes(-3, -2)
    return ((C.two_form_derivative(arr.E, arr.dE, A, dA),),
            (two_form_derivative_reference(arr.E, arr.dE, A, dA),))


def _pairs_frame_rates(arr, rng):
    # the rates kernel on generic data: a D with no symmetry tells the
    # contracted slots apart, and its trailing slot is n wide, as dG's is on
    # normal form
    tm = arr.G.shape[-1]
    data = C.TransportData(np.linalg.inv(arr.G),
                           rng.standard_normal(arr.G.shape + (tm + 1,)))
    u = rng.standard_normal(arr.G.shape[:-1])
    return (data.rates(u),), (frame_rates_reference(data, u),)


# each rewritten kernel with its single-sum reference, on the same inputs
KERNELS = {
    "frame_brackets": _pairs_frame_brackets,
    "reeb_brackets": _pairs_reeb_brackets,
    "frame_two_form": _pairs_frame_two_form,
    "koszul": _pairs_koszul,
    "inverse_derivative": _pairs_inverse_derivative,
    "two_form_derivative": _pairs_two_form_derivative,
    "frame_rates": _pairs_frame_rates,
}


@pytest.mark.parametrize("name", list(KERNELS))
@pytest.mark.parametrize("tm", [4, 6, 8])
@pytest.mark.parametrize("batch", [(), (7,), (2, 3)], ids=str)
def test_contraction_kernels_match_references(name, tm, batch):
    rng = np.random.default_rng([tm, len(batch), len(name)])
    got, ref = KERNELS[name](_generic_arrays(tm, batch, rng), rng)
    for g, r in zip(got, ref, strict=True):
        assert g.shape == r.shape
        assert np.max(np.abs(g - r)) <= 1e-13 * np.max(np.abs(r))


@pytest.mark.parametrize("tm", [4, 6, 8])
@pytest.mark.parametrize("batch", [(), (7,), (2, 3)], ids=str)
def test_conjugated_samples_match_reference(tm, batch):
    # batch is (paths, matrices per path), padded with ones
    p, k = (batch + (1, 1))[:2]
    rng = np.random.default_rng([tm, len(batch)])
    taus = np.eye(tm) + 0.3 * rng.standard_normal((p, tm, tm))
    mats = rng.standard_normal((p, k, tm, tm))
    ref = conjugated_samples_reference(taus, mats)
    got = H._conjugated_samples(taus, np.linalg.inv(taus), mats)
    assert got.shape == ref.shape == (p * k, tm, tm)
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("name", ["bergman", "disc3_b123", "rotated_disc_disc_12"])
def test_annihilator_pairs_keep_the_bits(charts, name):
    # every frame-pair bivector projected and contracted in one batch gives
    # the bits of the per-pair loop
    chart = ORDER_TWO_CHARTS[name](charts)
    data = C.frame_data(chart, domain_points(chart, 8, seed=18), order=2)
    tm = 2 * chart.m
    got = H._variant_samples(data)["annihilator"]
    assert got.shape == (8, tm * (tm - 1) // 2, tm, tm)
    assert np.array_equal(got, annihilator_pairs_reference(data))


@pytest.mark.parametrize("name", ["bergman", "disc3_b123", "rotated_disc_disc_12"])
def test_variant_samples_keep_the_bits(charts, name):
    # one generator converting R, RW and dtheta once each gives the bits of
    # one generator per variant, each converting its own curvature (the
    # annihilator samples are checked in test_annihilator_pairs_keep_the_bits)
    chart = ORDER_TWO_CHARTS[name](charts)
    data = C.frame_data(chart, domain_points(chart, 8, seed=18), order=2)
    got = H._variant_samples(data)
    assert list(got) == ["wagner", "annihilator", "adapted"]
    for variant, field in (("wagner", "RW"), ("adapted", "R")):
        assert np.array_equal(got[variant], pair_samples_reference(data, field)), variant


@pytest.mark.parametrize("name", ["bergman", "disc3_b123", "rotated_disc_disc_12"])
def test_commutator_map_keeps_the_bits(charts, name, monkeypatch):
    # the broadcast commutators of _commutator_rank and compare_subalgebras
    # give the bits of one commutator per pair, on the skew and symmetric
    # bases (commutants) and on an algebra's own basis (its center), for
    # the Wagner and the adapted closure of an 8-path pass
    chart = ORDER_TWO_CHARTS[name](charts)
    samples, _ = H.holonomy_samples(chart, np.zeros(chart.dim), T.SamplerConfig(n_paths=8))
    h, h0 = (H.lie_closure(samples[v]) for v in ("wagner", "adapted"))
    assert h.dim and h0.dim
    rows, rank = [], H.numerical_rank
    monkeypatch.setattr(H, "numerical_rank", lambda L, *a, **k: rows.append(L) or rank(L, *a, **k))
    tm = 2 * chart.m
    for alg in (h, h0):
        for mats in (H.matrix_basis(tm, True), H.matrix_basis(tm, False), alg.basis):
            rows.clear()
            H._commutator_rank(alg, mats, 1e-8)
            assert np.array_equal(rows[0], commutator_map_reference(alg, mats))
    rows.clear()
    H.compare_subalgebras(h, h0)
    brackets = commutator_map_reference(h, h0.basis).T.reshape(-1, tm * tm)
    assert np.array_equal(rows[1], np.concatenate([h.basis.reshape(h.dim, -1), brackets]))


@pytest.mark.parametrize("name", list(ORDER_TWO_CHARTS))
def test_frame_data_carries_its_orthonormal_frame(charts, name):
    # P and Pinv are the frame change of G at either order, and the same at
    # both, since orders 1 and 2 evaluate the chart to the same bits
    chart = ORDER_TWO_CHARTS[name](charts)
    pts = domain_points(chart, 6, seed=19)
    one, two = (C.frame_data(chart, pts, order=k) for k in (1, 2))
    for data in (one, two):
        P, Pinv = C.orthonormal_frame_change(data.G)
        assert np.array_equal(data.P, P) and np.array_equal(data.Pinv, Pinv)
    assert np.array_equal(one.P, two.P) and np.array_equal(one.Pinv, two.Pinv)


@pytest.mark.parametrize("contiguous", [False, True], ids=["views", "contiguous"])
@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("batch", [(), (7,), (2, 3)], ids=str)
def test_bracket_and_koszul_layouts_keep_the_bits(m, batch, contiguous):
    # the flattened bracket matmuls and the transposed views of the Koszul
    # sum give the bits of the per-component matmuls and the np.moveaxis
    # permutations, both on strided views (E and xi of _generic_arrays) and
    # on the C-contiguous arrays chart_arrays returns
    rng = np.random.default_rng([m, len(batch), contiguous])
    arr = _generic_arrays(2 * m, batch, rng)
    if contiguous:
        for name in ("E", "xi", "G", "dE", "dxi", "dG"):
            setattr(arr, name, np.ascontiguousarray(getattr(arr, name)))
    got = C.frame_brackets(arr)
    want = frame_brackets_per_component(arr)
    Minv = got[1]
    got += (C.reeb_brackets(arr, Minv),)
    want += (reeb_brackets_per_component(arr, Minv),)
    # the sum of the general path's D, and of the strided view of dG that
    # the normal form reads as D
    D = C._transport_data(arr, SimpleNamespace(normal_form=False, blocks=()),
                          got[2], got[3]).D
    got += tuple(C._koszul_sum(x) for x in (D, arr.dG[..., : 2 * m]))
    want += tuple(koszul_sum_moveaxis(x) for x in (D, arr.dG[..., : 2 * m]))
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape
        assert g.tobytes() == w.tobytes()
