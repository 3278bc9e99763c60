import numpy as np
import pytest

from kcontact import connection as C
from kcontact import holonomy as H
from kcontact import manifolds as M
from kcontact import transverse as TV
from kcontact.errors import ChartError

from conftest import domain_points


def ortho_ricci(chart, pts):
    """``(ric, omega_o)`` at the points, as the regression and Einstein checks take them."""
    return TV.orthonormal_ricci(C.frame_data(chart, pts, order=2))


def test_ricci_heisenberg_zero(charts):
    ric = TV.transverse_ricci(charts["heisenberg"], domain_points(charts["heisenberg"], 10))
    assert np.max(np.abs(ric)) < 1e-12


def test_ricci_disc_blocks_einstein(charts):
    chart = charts["disc_disc_11"]
    pts = domain_points(chart, 20, seed=1)
    ric = TV.transverse_ricci(chart, pts)
    # curvature -1 factor: Ric = -g, identity in orthonormal frames
    assert np.max(np.abs(ric + np.eye(4))) < 1e-10
    assert np.max(np.abs(ric - ric.swapaxes(-1, -2))) < 1e-10


def test_ricci_disc_curvature_scale():
    chart = M.product_construction(
        [M.FactorSpec("poincare_disc", b=1.0, curvature=2.0),
         M.FactorSpec("poincare_disc", b=1.0, curvature=0.5)]
    )
    pts = domain_points(chart, 15, seed=2)
    ric = TV.transverse_ricci(chart, pts)
    lam = np.diag([-2.0, -2.0, -0.5, -0.5])
    assert np.max(np.abs(ric - lam)) < 1e-9


def test_ricci_bergman_einstein(charts):
    chart = charts["bergman"]
    pts = domain_points(chart, 20, seed=3)
    ric = TV.transverse_ricci(chart, pts)
    assert np.max(np.abs(ric + 3.0 * np.eye(4))) < 1e-9


def test_ricci_form_contract(charts):
    chart = charts["disc_disc_11"]
    pts = domain_points(chart, 10, seed=4)
    J = np.zeros((4, 4))
    J[:2, :2] = [[0, -1], [1, 0]]
    J[2:, 2:] = [[0, -1], [1, 0]]
    rho = TV.ricci_form(chart, pts, J)
    assert np.max(np.abs(rho + rho.swapaxes(-1, -2))) < 1e-10
    assert np.allclose(TV.ricci_form(chart, pts, -J), -rho)
    # zero curvature gives the zero form
    hz = charts["heisenberg"]
    rho0 = TV.ricci_form(hz, domain_points(hz, 5), np.kron(np.eye(2), [[0, -1], [1, 0]]))
    assert np.max(np.abs(rho0)) < 1e-12
    with pytest.raises(ChartError):
        TV.ricci_form(chart, pts, 0.5 * J)


def test_split_distribution_cases(charts, algebra_cache):
    h0 = algebra_cache("disc_disc_12", 0, "adapted")
    split = TV.split_distribution(h0)
    assert split.blocks == [(0, 1), (2, 3)]
    assert split.trivial == ()
    hb = algebra_cache("bergman", 0, "adapted")
    split_b = TV.split_distribution(hb)
    assert split_b.blocks == [(0, 1, 2, 3)]
    assert split_b.trivial == ()
    trivial = TV.split_distribution(H.lie_closure([]), size=4)
    assert trivial.blocks == [] and trivial.trivial == (0, 1, 2, 3)


def test_split_invariance_postcondition(charts, algebra_cache):
    for name in ["disc_disc_11", "bergman"]:
        h0 = algebra_cache(name, 0, "adapted")
        split = TV.split_distribution(h0)
        for B in h0.basis:
            for blk in split.blocks:
                other = [i for i in range(4) if i not in blk]
                if other:
                    assert np.max(np.abs(B[np.ix_(list(blk), other)])) < 1e-6


def test_factor_split_complex_structures(charts, algebra_cache):
    chart = charts["disc_disc_12"]
    h0 = algebra_cache("disc_disc_12", 0, "adapted")
    split = TV.factor_split(chart, np.zeros(5), h0)
    assert len(split.J_blocks) == 2
    data = C.frame_data(chart, np.zeros(5)[None], order=1)
    P, _ = C.orthonormal_frame_change(data.G)
    omega_o = np.einsum("...aA,...ab,...bB->...AB", P, data.omega, P)[0]
    for blk, J in zip(split.blocks, split.J_blocks):
        ix = np.array(blk)
        Jb = J[np.ix_(ix, ix)]
        assert np.allclose(Jb @ Jb, -np.eye(len(blk)), atol=1e-10)
        assert np.sum(Jb * omega_o[np.ix_(ix, ix)]) > 0
    # blocks are omega-orthogonal
    assert np.max(np.abs(omega_o[:2, 2:])) < 1e-7


def test_regression_recovers_coefficients(charts, algebra_cache):
    chart = charts["disc_disc_12"]
    split = TV.factor_split(chart, np.zeros(5), algebra_cache("disc_disc_12", 0, "adapted"))
    pts = domain_points(chart, 30, seed=5, margin=0.85)
    reg = TV.dtheta_regression(*ortho_ricci(chart, pts), split)
    assert np.allclose(reg["b"], [1.0, 2.0], atol=1e-4)
    assert reg["residual"] < 1e-5


def test_regression_single_factor(charts, algebra_cache):
    chart = charts["bergman"]
    split = TV.factor_split(chart, np.zeros(5), algebra_cache("bergman", 0, "adapted"))
    pts = domain_points(chart, 25, seed=6, margin=0.85)
    reg = TV.dtheta_regression(*ortho_ricci(chart, pts), split)
    assert np.allclose(reg["b"], [1.0], atol=1e-4)
    assert reg["residual"] < 1e-5


def test_regression_perturbed_branch(charts, algebra_cache):
    chart = charts["perturbed_disc_disc"]
    h0 = algebra_cache("perturbed_disc_disc", 0, "adapted")
    split = TV.factor_split(chart, np.zeros(5), h0)
    pts = domain_points(chart, 30, seed=7, margin=0.85)
    ric, omega_o = ortho_ricci(chart, pts)
    reg = TV.dtheta_regression(ric, omega_o, split)
    assert reg["residual"] > 1e-2
    eins = TV.einstein_check(ric, split)
    by_block = {e["block"]: e for e in eins}
    assert by_block[(0, 1)]["einstein_residual"] > 1e-2
    assert by_block[(2, 3)]["einstein_residual"] < 1e-5


def test_einstein_regression_chain(charts, algebra_cache):
    # Einstein residual small <=> regression residual small, on both branches
    for name, clean in [("disc_disc_11", True), ("perturbed_disc_disc", False)]:
        chart = charts[name]
        split = TV.factor_split(chart, np.zeros(5), algebra_cache(name, 0, "adapted"))
        pts = domain_points(chart, 25, seed=8, margin=0.85)
        ric, omega_o = ortho_ricci(chart, pts)
        reg = TV.dtheta_regression(ric, omega_o, split)
        eins = TV.einstein_check(ric, split)
        worst = max(e["einstein_residual"] for e in eins)
        if clean:
            assert reg["residual"] < 1e-5 and worst < 1e-5
        else:
            assert reg["residual"] > 1e-2 and worst > 1e-2


def test_regression_requires_blocks_and_points(charts, algebra_cache):
    chart = charts["heisenberg"]
    split = TV.split_distribution(algebra_cache("heisenberg", 0, "adapted"), size=4)
    pts = domain_points(chart, 12, seed=9)
    with pytest.raises(ChartError):
        TV.dtheta_regression(*ortho_ricci(chart, pts), split)
    chart2 = charts["disc_disc_11"]
    split2 = TV.factor_split(chart2, np.zeros(5), algebra_cache("disc_disc_11", 0, "adapted"))
    with pytest.raises(ValueError):
        TV.dtheta_regression(*ortho_ricci(chart2, domain_points(chart2, 5, seed=9)), split2)


def test_einstein_constants(charts, algebra_cache):
    chart = charts["bergman"]
    split = TV.factor_split(chart, np.zeros(5), algebra_cache("bergman", 0, "adapted"))
    eins = TV.einstein_check(TV.transverse_ricci(chart, domain_points(chart, 20, seed=10)), split)
    assert len(eins) == 1
    assert abs(eins[0]["einstein_lambda"] + 3.0) < 1e-6
    assert eins[0]["einstein_residual"] < 1e-5


def test_sasaki_criterion_branches(charts):
    # flat chart: psi is the standard rotation, parallel and square -1
    hz = charts["heisenberg"]
    out = TV.sasaki_psi_check(C.frame_data(hz, domain_points(hz, 15, seed=11), order=2))
    assert out["is_sasaki_candidate"]
    assert out["psi_sq_residual"] < 1e-12 and out["nabla_psi_residual"] < 1e-12
    # aligned product: b * curvature scale = 1 makes psi a complex structure
    ch = charts["disc_disc_11"]
    out = TV.sasaki_psi_check(C.frame_data(ch, domain_points(ch, 15, seed=12), order=2))
    assert out["is_sasaki_candidate"]
    assert out["psi_sq_residual"] < 1e-6 and out["nabla_psi_residual"] < 1e-6
    # generic scaling destroys psi^2 = -1 but keeps it parallel
    ch2 = charts["disc_disc_12"]
    out = TV.sasaki_psi_check(C.frame_data(ch2, domain_points(ch2, 15, seed=13), order=2))
    assert not out["is_sasaki_candidate"]
    assert out["psi_sq_residual"] > 0.1
    assert out["nabla_psi_residual"] < 1e-10


def test_ricci_form_closed_by_finite_differences(charts, algebra_cache):
    # d(rho^i) = 0: finite-difference exterior derivative of the pullback
    # of each factor Ricci form to coordinate components
    chart = charts["disc_disc_12"]
    split = TV.factor_split(chart, np.zeros(5), algebra_cache("disc_disc_12", 0, "adapted"))

    def rho_coords(x, which):
        data = C.frame_data(chart, np.atleast_2d(x), order=2)
        P, Pinv = C.orthonormal_frame_change(data.G)
        rhos = TV._block_ricci_forms(TV.orthonormal_ricci(data)[0], split)
        rho_o = rhos[0, which]
        # coordinate vectors -> horizontal components in the ortho frame
        aug = np.concatenate([data.E, data.xi[..., :, None]], axis=-1)[0]
        coeff = np.linalg.solve(aug, np.eye(chart.dim))[: 2 * chart.m]
        U = np.linalg.inv(P[0]) @ coeff  # ortho components of projected coords
        return U.T @ rho_o @ U

    rng = np.random.default_rng(14)
    h = 1e-3
    for which in (0, 1):
        x = np.append(rng.uniform(-0.3, 0.3, 4), 0.0)
        worst = 0.0
        for i, j, k in [(0, 1, 2), (0, 2, 3), (1, 3, 4), (0, 1, 4)]:
            def d(which_idx, a, b):
                e = np.zeros(chart.dim)
                e[which_idx] = h
                return (rho_coords(x + e, which)[a, b] - rho_coords(x - e, which)[a, b]) / (2 * h)

            val = d(i, j, k) - d(j, i, k) + d(k, i, j)
            worst = max(worst, abs(val))
        assert worst < 1e-4


R_TO_ORTHO = "...aA,...bB,...Ee,...abec,...cC->...ABEC"


def test_holonomy_report_evaluates_transverse_points_once(monkeypatch):
    # one order-2 frame_data on the 30 transverse points, and one R -> so(2m)
    # conversion for the Einstein check and the regression together: the
    # other 6 conversions are the Wagner, annihilator and adapted pair samples
    # at the base point and at the path ends
    from kcontact import cli
    from kcontact import holonomy as H
    from kcontact import transport as T
    from kcontact.manifolds import random_domain_points

    raw = {"manifold": {"type": "product", "factors": [
        {"kind": "poincare_disc", "b": 1.0}, {"kind": "poincare_disc", "b": 2.0}]},
        "sampler": {"n_paths": 2, "seed": 5}}
    cfg = cli.RunConfig.from_dict(raw)
    chart, x0 = cli._resolve_chart(cfg)
    pts = random_domain_points(chart, 30, np.random.default_rng(5 + 1000), margin=0.85)
    calls = {"pts_order2": 0, "r_to_ortho": 0}
    frame_data, einsum = C.frame_data, np.einsum

    def counting_frame_data(chart, X, order=1):
        if order >= 2 and np.shape(X) == pts.shape and np.array_equal(X, pts):
            calls["pts_order2"] += 1
        return frame_data(chart, X, order=order)

    def counting_einsum(subscripts, *operands, **kwargs):
        if subscripts == R_TO_ORTHO:
            calls["r_to_ortho"] += 1
        return einsum(subscripts, *operands, **kwargs)

    for mod in (C, cli, H, T, TV):
        if getattr(mod, "frame_data", None) is frame_data:
            monkeypatch.setattr(mod, "frame_data", counting_frame_data)
    monkeypatch.setattr(np, "einsum", counting_einsum)
    report = cli.holonomy_report(cfg)
    assert report["dims"]["adapted"] > 0 and "regression" in report
    assert calls == {"pts_order2": 1, "r_to_ortho": 7}


def test_factor_split_converts_no_curvature(charts, algebra_cache, monkeypatch):
    # the sign alignment needs only dtheta at x: first-order frame data, no R
    orders, conversions = [], []
    frame_data, einsum = C.frame_data, np.einsum

    def counting_frame_data(chart, X, order=1):
        orders.append(order)
        return frame_data(chart, X, order=order)

    def counting_einsum(subscripts, *operands, **kwargs):
        conversions.append(subscripts == R_TO_ORTHO)
        return einsum(subscripts, *operands, **kwargs)

    h0 = algebra_cache("disc_disc_12", 0, "adapted")
    monkeypatch.setattr(TV, "frame_data", counting_frame_data)
    monkeypatch.setattr(np, "einsum", counting_einsum)
    split = TV.factor_split(charts["disc_disc_12"], np.zeros(5), h0)
    assert len(split.J_blocks) == 2
    assert orders == [1] and not any(conversions)
