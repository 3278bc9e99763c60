import numpy as np
import pytest

from kcontact import connection as C
from kcontact import holonomy as H
from kcontact import manifolds as M
from kcontact import transport as T
from kcontact import transverse as TV
from kcontact.errors import ChartError, NumericsError

from conftest import domain_points


def ortho_ricci(chart, pts):
    """``(ric, omega_o)`` at the points, as the regression and Einstein checks take them."""
    return TV.orthonormal_ricci(C.frame_data(chart, pts, order=2))


def ricci_form(chart, pts, J):
    """Ricci form rho(X, Y) = Ric(JX, Y), as one block spanning the whole plane."""
    ric, _ = ortho_ricci(chart, pts)
    split = TV.FactorSplit(blocks=[tuple(range(len(J)))], J_blocks=[J])
    return TV._block_ricci_forms(ric, split)[..., 0, :, :]


def test_ricci_heisenberg_zero(charts):
    ric, _ = ortho_ricci(charts["heisenberg"], domain_points(charts["heisenberg"], 10))
    assert np.max(np.abs(ric)) < 1e-12


def test_ricci_disc_blocks_einstein(charts):
    chart = charts["disc_disc_11"]
    pts = domain_points(chart, 20, seed=1)
    ric, _ = ortho_ricci(chart, pts)
    # curvature -1 factor: Ric = -g, identity in orthonormal frames
    assert np.max(np.abs(ric + np.eye(4))) < 1e-10
    assert np.max(np.abs(ric - ric.swapaxes(-1, -2))) < 1e-10


def test_ricci_disc_curvature_scale():
    chart = M.product_construction(
        [M.FactorSpec("poincare_disc", b=1.0, curvature=2.0),
         M.FactorSpec("poincare_disc", b=1.0, curvature=0.5)]
    )
    pts = domain_points(chart, 15, seed=2)
    ric, _ = ortho_ricci(chart, pts)
    lam = np.diag([-2.0, -2.0, -0.5, -0.5])
    assert np.max(np.abs(ric - lam)) < 1e-9


def test_ricci_bergman_einstein(charts):
    chart = charts["bergman"]
    pts = domain_points(chart, 20, seed=3)
    ric, _ = ortho_ricci(chart, pts)
    assert np.max(np.abs(ric + 3.0 * np.eye(4))) < 1e-9


def test_ricci_form_contract(charts):
    chart = charts["disc_disc_11"]
    pts = domain_points(chart, 10, seed=4)
    J = np.zeros((4, 4))
    J[:2, :2] = [[0, -1], [1, 0]]
    J[2:, 2:] = [[0, -1], [1, 0]]
    rho = ricci_form(chart, pts, J)
    assert np.max(np.abs(rho + rho.swapaxes(-1, -2))) < 1e-10
    assert np.allclose(ricci_form(chart, pts, -J), -rho)
    # zero curvature gives the zero form
    hz = charts["heisenberg"]
    rho0 = ricci_form(hz, domain_points(hz, 5), np.kron(np.eye(2), [[0, -1], [1, 0]]))
    assert np.max(np.abs(rho0)) < 1e-12


def test_split_distribution_cases(charts, algebra_cache):
    h0 = algebra_cache("disc_disc_12", 0, "adapted")
    split = TV.split_distribution(h0)
    assert split.blocks == [(0, 1), (2, 3)]
    assert split.trivial == ()
    hb = algebra_cache("bergman", 0, "adapted")
    split_b = TV.split_distribution(hb)
    assert split_b.blocks == [(0, 1, 2, 3)]
    assert split_b.trivial == ()
    trivial = TV.split_distribution(H.lie_closure(np.zeros((0, 4, 4))))
    assert trivial.blocks == [] and trivial.trivial == (0, 1, 2, 3)


def test_split_refuses_blocks_across_frame_indices():
    # a rotation of the plane spanned by (e0 + e2)/sqrt2 and (e1 + e3)/sqrt2
    # is invariant on that plane, which no group of frame indices spans
    p = np.array([1.0, 0.0, 1.0, 0.0]) / np.sqrt(2.0)
    q = np.array([0.0, 1.0, 0.0, 1.0]) / np.sqrt(2.0)
    h = H.lie_closure((np.outer(p, q) - np.outer(q, p))[None])
    with pytest.raises(NumericsError, match="do not align with frame indices"):
        TV.split_distribution(h)


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
    data = C.frame_data(chart, np.zeros(5)[None], order=1)
    split = TV.factor_split(data, h0, 1e-6)
    assert len(split.J_blocks) == 2
    P, _ = C.orthonormal_frame_change(data.G)
    omega_o = np.einsum("...aA,...ab,...bB->...AB", P, data.omega, P)[0]
    for blk, J in zip(split.blocks, split.J_blocks):
        ix = np.array(blk)
        Jb = J[np.ix_(ix, ix)]
        assert np.allclose(Jb @ Jb, -np.eye(len(blk)), atol=1e-10)
        assert np.sum(Jb * omega_o[np.ix_(ix, ix)]) > 0
    # blocks are omega-orthogonal
    assert np.max(np.abs(omega_o[:2, 2:])) < 1e-7
    # so(3) on three frame directions leaves an odd block, which carries no
    # complex structure
    so3 = np.zeros((3, 4, 4))
    for k, (a, b) in enumerate([(0, 1), (0, 2), (1, 2)]):
        so3[k, a, b], so3[k, b, a] = 1.0, -1.0
    with pytest.raises(ChartError,
                       match=r"block \(0, 1, 2\) carries no invariant complex structure"):
        TV.factor_split(data, H.lie_closure(list(so3), 1e-8), 1e-6)


@pytest.mark.parametrize("span_tol, block_tol", [(1e-5, 1e-5), (1e-10, 1e-8)])
def test_factor_split_closes_blocks_at_the_span_tol(charts, algebra_cache, monkeypatch,
                                                    span_tol, block_tol):
    # each block's restriction is closed at the span_tol that closed the
    # algebra, never finer than 1e-8
    tols, lie_closure = [], H.lie_closure

    def recording(mats, tol=1e-6):
        tols.append(tol)
        return lie_closure(mats, tol)

    monkeypatch.setattr(TV, "lie_closure", recording)
    split = TV.factor_split(C.frame_data(charts["disc_disc_12"], np.zeros(5)),
                            algebra_cache("disc_disc_12", 0, "adapted"), span_tol)
    assert len(split.blocks) == 2
    assert tols == [block_tol, block_tol]


def test_regression_recovers_coefficients(charts, algebra_cache):
    chart = charts["disc_disc_12"]
    split = TV.factor_split(C.frame_data(chart, np.zeros(5)),
                            algebra_cache("disc_disc_12", 0, "adapted"), 1e-6)
    pts = domain_points(chart, 30, seed=5, margin=0.85)
    reg = TV.dtheta_regression(*ortho_ricci(chart, pts), split)
    assert np.allclose(reg["b"], [1.0, 2.0], atol=1e-4)
    assert reg["residual"] < 1e-5


def test_regression_single_factor(charts, algebra_cache):
    chart = charts["bergman"]
    split = TV.factor_split(C.frame_data(chart, np.zeros(5)),
                            algebra_cache("bergman", 0, "adapted"), 1e-6)
    pts = domain_points(chart, 25, seed=6, margin=0.85)
    reg = TV.dtheta_regression(*ortho_ricci(chart, pts), split)
    assert np.allclose(reg["b"], [1.0], atol=1e-4)
    assert reg["residual"] < 1e-5


def test_regression_perturbed_branch(charts, algebra_cache):
    chart = charts["perturbed_disc_disc"]
    h0 = algebra_cache("perturbed_disc_disc", 0, "adapted")
    split = TV.factor_split(C.frame_data(chart, np.zeros(5)), h0, 1e-6)
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
        split = TV.factor_split(C.frame_data(chart, np.zeros(5)),
                                algebra_cache(name, 0, "adapted"), 1e-6)
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
    split = TV.split_distribution(algebra_cache("heisenberg", 0, "adapted"))
    pts = domain_points(chart, 12, seed=9)
    with pytest.raises(ChartError):
        TV.dtheta_regression(*ortho_ricci(chart, pts), split)
    chart2 = charts["disc_disc_11"]
    split2 = TV.factor_split(C.frame_data(chart2, np.zeros(5)),
                             algebra_cache("disc_disc_11", 0, "adapted"), 1e-6)
    with pytest.raises(ValueError):
        TV.dtheta_regression(*ortho_ricci(chart2, domain_points(chart2, 5, seed=9)), split2)


def test_regression_refuses_a_vanishing_factor_ricci_form(charts, algebra_cache):
    # a Ricci tensor that vanishes on one block gives that factor no Ricci
    # form, and the normal equations no solution
    chart = charts["disc_disc_11"]
    split = TV.factor_split(C.frame_data(chart, np.zeros(5)),
                            algebra_cache("disc_disc_11", 0, "adapted"), 1e-6)
    assert split.blocks == [(0, 1), (2, 3)]
    ric, omega_o = ortho_ricci(chart, domain_points(chart, 12, seed=9))
    ric[..., 2:, :] = ric[..., :, 2:] = 0.0
    with pytest.raises(ChartError, match="rank-deficient regression"):
        TV.dtheta_regression(ric, omega_o, split)


def test_einstein_constants(charts, algebra_cache):
    chart = charts["bergman"]
    split = TV.factor_split(C.frame_data(chart, np.zeros(5)),
                            algebra_cache("bergman", 0, "adapted"), 1e-6)
    eins = TV.einstein_check(ortho_ricci(chart, domain_points(chart, 20, seed=10))[0], split)
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
    split = TV.factor_split(C.frame_data(chart, np.zeros(5)),
                            algebra_cache("disc_disc_12", 0, "adapted"), 1e-6)

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


def test_holonomy_report_evaluates_transverse_points_once(monkeypatch):
    # one order-2 frame_data on the 30 transverse points, and no R -> so(2m)
    # conversion for the Einstein check and the regression (the Ricci trace
    # is taken in the chart frame): the 2 conversions are those of RW and
    # R, each at the base point and the path ends together; the Wagner
    # samples read RW, and the annihilator and adapted samples share R.
    # The sampling pass evaluates x0 at order 2 once, as row 0 of one
    # call with the n_paths path ends, and the splitting reads that row; the
    # transport pass evaluates its shared start x0 as one point, at orders 0
    # (G) and 1.
    from kcontact import cli
    from kcontact.manifolds import random_domain_points

    raw = {"manifold": {"type": "product", "factors": [
        {"kind": "poincare_disc", "b": 1.0}, {"kind": "poincare_disc", "b": 2.0}]},
        "sampler": {"n_paths": 2, "seed": 5}}
    cfg = cli.RunConfig.from_dict(raw)
    chart, x0 = cli._resolve_chart(cfg)
    pts = random_domain_points(chart, 30, np.random.default_rng(5 + 1000), margin=0.85)
    calls = {"pts_order2": 0, "r_to_ortho": 0, "x0_orders": [], "x0_with_ends": 0}
    frame_data, ortho_curvature, chart_arrays = C.frame_data, C.ortho_curvature, M.chart_arrays

    def counting_frame_data(chart, X, order=1):
        if order >= 2 and np.shape(X) == pts.shape and np.array_equal(X, pts):
            calls["pts_order2"] += 1
        if order >= 2 and ends and np.array_equal(X, np.concatenate([x0[None], ends[0]])):
            calls["x0_with_ends"] += 1
        return frame_data(chart, X, order=order)

    def counting_ortho_curvature(F, P, Pinv):
        calls["r_to_ortho"] += 1
        return ortho_curvature(F, P, Pinv)

    def counting_chart_arrays(chart, X, order=1, **kwargs):
        if np.array_equal(np.reshape(X, (-1, chart.dim)), x0[None]):
            calls["x0_orders"].append(order)
        return chart_arrays(chart, X, order, **kwargs)

    ends, sampled_path_transports = [], H.sampled_path_transports

    def recording_pass(chart, x0, sampler):
        out = sampled_path_transports(chart, x0, sampler)
        ends.append(out[1])
        return out

    for mod in (M, C, T):
        monkeypatch.setattr(mod, "chart_arrays", counting_chart_arrays)
    monkeypatch.setattr(H, "sampled_path_transports", recording_pass)
    for mod in (C, cli, H, T, TV):
        if getattr(mod, "frame_data", None) is frame_data:
            monkeypatch.setattr(mod, "frame_data", counting_frame_data)
    for mod in (H, TV):
        monkeypatch.setattr(mod, "ortho_curvature", counting_ortho_curvature, raising=False)
    report = cli.holonomy_report(cfg)
    assert report["dims"]["adapted"] > 0 and "regression" in report
    assert calls == {"pts_order2": 1, "r_to_ortho": 2, "x0_orders": [0, 1], "x0_with_ends": 1}


def test_factor_split_converts_no_curvature(charts, algebra_cache, monkeypatch):
    # the sign alignment reads dtheta from the base data it is given: no
    # chart evaluation, and no R converted even when the data carries it
    evaluations, conversions = [], []
    chart_arrays, ortho_curvature = M.chart_arrays, C.ortho_curvature
    base = C.frame_data(charts["disc_disc_12"], np.zeros(5), order=2)

    def counting_chart_arrays(*args, **kwargs):
        evaluations.append(args[1])
        return chart_arrays(*args, **kwargs)

    def counting_ortho_curvature(F, P, Pinv):
        conversions.append(F.shape)
        return ortho_curvature(F, P, Pinv)

    h0 = algebra_cache("disc_disc_12", 0, "adapted")
    ends, sampled_path_transports = [], H.sampled_path_transports

    def recording_pass(chart, x0, sampler):
        out = sampled_path_transports(chart, x0, sampler)
        ends.append(out[1])
        return out

    for mod in (M, C, T):
        monkeypatch.setattr(mod, "chart_arrays", counting_chart_arrays)
    monkeypatch.setattr(H, "sampled_path_transports", recording_pass)
    for mod in (H, TV):
        monkeypatch.setattr(mod, "ortho_curvature", counting_ortho_curvature, raising=False)
    split = TV.factor_split(base, h0, 1e-6)
    assert len(split.J_blocks) == 2
    assert evaluations == [] and conversions == []


@pytest.mark.parametrize("name", list(M.EXAMPLES))
def test_factor_split_is_the_same_on_order_one_and_two_base_data(charts, algebra_cache, name):
    # a report passes the sampling pass's order-2 data at x0; the order-1
    # data once evaluated for the split has the same omega and P bits, so
    # the blocks and complex structures are the same bits too
    chart = charts[name]
    h0 = algebra_cache(name, 0, "adapted")
    one, two = (TV.factor_split(C.frame_data(chart, np.zeros(5), order=k), h0, 1e-6)
                for k in (1, 2))
    assert one.blocks == two.blocks and one.trivial == two.trivial
    assert len(one.J_blocks) == len(two.J_blocks) == len(one.blocks)
    for J1, J2 in zip(one.J_blocks, two.J_blocks):
        assert J1.tobytes() == J2.tobytes()
