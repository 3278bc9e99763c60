"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one PASS/FAIL line (visible under ``pytest -s``) and
asserts the criterion.  Expected holonomy dimensions, span directions and
regression targets are the independently derived values for the built-in
charts; nothing here is tuned to the implementation.
"""

import numpy as np
import pytest

from kcontact import connection as C
from kcontact import manifolds as M
from kcontact import spinor as S
from kcontact import transport as T
from kcontact import transverse as TV
from kcontact.holonomy import compare_subalgebras, t_complement

from conftest import domain_points, real_from_complex
from fd_oracles import reeb_sampled_path_transports, rotated_chart

ALL_CHARTS = ["heisenberg", "disc_disc_11", "disc_disc_12", "bergman",
              "perturbed_disc_disc"]
SEEDS = [0, 1, 2, 3, 4]
N_PATHS = 64
SPAN_TOL = 1e-6


def emit(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_structural_residuals(charts):
    worst = {}
    for name in ALL_CHARTS:
        chart = charts[name]
        pts = domain_points(chart, 50, seed=101, margin=0.97)
        man = M.chart_invariant_residuals(C.frame_data(chart, pts, order=1))
        con = C.connection_invariant_residuals(C.frame_data(chart, pts, order=2))
        for key, val in [
            ("torsion", con["torsion"]),
            ("bianchi", con["bianchi"]),
            ("metric_compat", con["metric_compat"]),
            ("reeb_interior", man["reeb_interior"]),
            ("lie_xi_g", man["lie_xi_g"]),
        ]:
            worst[key] = max(worst.get(key, 0.0), val)
    ok = all(v < 1e-6 for v in worst.values())
    emit("criterion-1 structural residuals",
         ok, ", ".join(f"{k}={v:.2e}" for k, v in worst.items()))


def test_criterion_2_inverse_bivector_pairing(charts):
    worst = 0.0
    for name in ALL_CHARTS:
        chart = charts[name]
        pts = domain_points(chart, 50, seed=102, margin=0.97)
        data = C.frame_data(chart, pts, order=2)
        pair = C.form_on_bivector(data.omega, data.alpha)
        worst = max(worst, float(np.max(np.abs(pair + 4.0 * chart.m))))
    emit("criterion-2 dtheta(inverse bivector) = -4m", worst < 1e-9,
         f"max |dtheta(alpha) + 4m| = {worst:.2e}")


def test_criterion_3_wagner_condition(charts):
    worst = 0.0
    for name in ALL_CHARTS:
        chart = charts[name]
        pts = domain_points(chart, 50, seed=103, margin=0.97)
        data = C.frame_data(chart, pts, order=2)
        val = C.curvature_on_bivector(data.RW, data.alpha)
        worst = max(worst, float(np.max(np.linalg.norm(val, axis=(-2, -1)))))
    emit("criterion-3 Wagner curvature annihilates the inverse bivector",
         worst < 1e-6, f"max Frobenius norm = {worst:.2e}")


def test_criterion_4_scalar_transport(charts):
    worst = 0.0
    count = 0
    positive = True
    for name in ["heisenberg", "disc_disc_11", "disc_disc_12", "bergman",
                 "perturbed_disc_disc"]:
        chart = charts[name]
        sampler = T.SamplerConfig(n_paths=4, segments=4, horizon=1.0, magnitude=0.35,
                                  step=0.02, seed=104)
        paths, _, _ = reeb_sampled_path_transports(chart, np.zeros(chart.dim), sampler, 0.4)
        for path in paths:
            sc = T.sample_curve(chart, path, 0.005)
            fq = T.transport_theta(chart, sc, "quadrature")
            fo = T.transport_theta(chart, sc, "ode")
            positive &= fq > 0 and fo > 0
            worst = max(worst, abs(fq - fo) / abs(fq))
            count += 1
    emit("criterion-4 scalar transport analytic vs ODE",
         worst < 1e-6 and positive and count == 20,
         f"{count} curves, worst relative error {worst:.2e}, all factors > 0")


def test_criterion_5_horizontalization_equivalence(charts):
    worst_h = 0.0
    worst_eq = 0.0
    rng = np.random.default_rng(105)
    for name in ALL_CHARTS:
        chart = charts[name]
        x0 = np.zeros(chart.dim)
        for _ in range(10):
            loop = T.balanced_loop(chart, x0, rng)
            sc = T.sample_curve(chart, loop, 4e-3)
            resid, tilde = T.transport_equivalence_check(chart, sc)
            worst_h = max(worst_h, float(np.max(np.abs(tilde.theta_dot))))
            worst_eq = max(worst_eq, resid)
    emit("criterion-5 horizontalization and transport equivalence",
         worst_h < 1e-6 and worst_eq < 1e-4,
         f"50 loops, horizontality {worst_h:.2e}, equivalence {worst_eq:.2e}")


@pytest.mark.parametrize("name", ["bergman", "disc_disc_12"])
def test_criterion_5_on_rotated_charts(charts, name):
    # on the built-in charts dxi vanishes and the Reeb flow's pushforward is
    # the identity; the rotated chart's point-dependent Reeb field is not
    chart = rotated_chart(charts[name], (0, 1), 0.7)
    rng = np.random.default_rng(205)
    worst_h = worst_eq = 0.0
    for _ in range(2):
        loop = T.balanced_loop(chart, np.zeros(chart.dim), rng)
        resid, tilde = T.transport_equivalence_check(chart, T.sample_curve(chart, loop, 4e-3))
        worst_h = max(worst_h, float(np.max(np.abs(tilde.theta_dot))))
        worst_eq = max(worst_eq, resid)
    emit(f"criterion-5 on {chart.name}",
         worst_h < 1e-6 and worst_eq < 1e-4,
         f"2 loops, horizontality {worst_h:.2e}, equivalence {worst_eq:.2e}")


EXPECTED_DIMS = {
    "heisenberg": (0, 0, 0),
    "disc_disc_11": (1, 2, 1),
    "disc_disc_12": (1, 2, 1),
    "bergman": (3, 4, 1),
    "perturbed_disc_disc": (2, 2, 0),
}


def test_criterion_6_holonomy_dimensions(charts, algebra_cache):
    lines = []
    ok = True
    for name in ALL_CHARTS:
        d_exp, d0_exp, codim_exp = EXPECTED_DIMS[name]
        for seed in SEEDS:
            h = algebra_cache(name, seed, "schouten", N_PATHS, SPAN_TOL)
            h0 = algebra_cache(name, seed, "adapted", N_PATHS, SPAN_TOL)
            cmpres = compare_subalgebras(h, h0)
            good = (
                h.dim == d_exp
                and h0.dim == d0_exp
                and cmpres["codim"] == codim_exp
                and cmpres["contained"]
                and (codim_exp == 0 or cmpres["ideal"])
            )
            ok &= good
        lines.append(f"{name}: dims ({h.dim}, {h0.dim}) codim {cmpres['codim']}")
    # branch-specific structure at seed 0
    chart = charts["disc_disc_11"]
    h = algebra_cache("disc_disc_11", 0, "schouten", N_PATHS, SPAN_TOL)
    h0 = algebra_cache("disc_disc_11", 0, "adapted", N_PATHS, SPAN_TOL)
    split = TV.factor_split(C.frame_data(chart, np.zeros(5)), h0, SPAN_TOL)
    t_alg, _ = t_complement(h0, h)
    coeffs = np.array([
        float(np.sum(t_alg.basis[0] * J) / np.sum(J * J)) for J in split.J_blocks
    ])
    unit = coeffs / np.linalg.norm(coeffs)
    target = np.array([1.0, 1.0]) / np.sqrt(2.0)
    angle = np.arccos(min(1.0, abs(float(unit @ target))))
    ok &= angle < 1e-3
    lines.append(f"t-direction angle to J1+J2: {angle:.2e} rad")
    chart12 = charts["disc_disc_12"]
    h0_12 = algebra_cache("disc_disc_12", 0, "adapted", N_PATHS, SPAN_TOL)
    split12 = TV.factor_split(C.frame_data(chart12, np.zeros(5)), h0_12, SPAN_TOL)
    reg = TV.dtheta_regression(*TV.orthonormal_ricci(C.frame_data(
        chart12, domain_points(chart12, 30, seed=106, margin=0.85), order=2)), split12)
    ok &= bool(np.allclose(reg["b"], [1.0, 2.0], atol=1e-4)) and reg["residual"] < 1e-5
    lines.append(f"regressed b = {np.round(reg['b'], 6).tolist()}, "
                 f"residual {reg['residual']:.2e}")
    chart_p = charts["perturbed_disc_disc"]
    h0_p = algebra_cache("perturbed_disc_disc", 0, "adapted", N_PATHS, SPAN_TOL)
    split_p = TV.factor_split(C.frame_data(chart_p, np.zeros(5)), h0_p, SPAN_TOL)
    reg_p = TV.dtheta_regression(*TV.orthonormal_ricci(C.frame_data(
        chart_p, domain_points(chart_p, 30, seed=107, margin=0.85), order=2)), split_p)
    ok &= reg_p["residual"] > 1e-2
    lines.append(f"perturbed regression residual {reg_p['residual']:.2e}")
    emit("criterion-6 holonomy dimensions (5 seeds)", ok, "; ".join(lines))


def test_criterion_7_sampling_routes_agree(charts, algebra_cache):
    worst = 0.0
    for name in ALL_CHARTS:
        hw = algebra_cache(name, 0, "schouten", N_PATHS, SPAN_TOL)
        ha = algebra_cache(name, 0, "annihilator", N_PATHS, SPAN_TOL)
        res = 0.0
        for B in hw.basis:
            res = max(res, ha.span_residual(B))
        for B in ha.basis:
            res = max(res, hw.span_residual(B))
        worst = max(worst, res)
        assert hw.dim == ha.dim, name
    emit("criterion-7 Wagner vs annihilator sampling routes",
         worst < 1e-4, f"mutual containment residual {worst:.2e}")


def test_criterion_8_spinor_suite(charts, algebra_cache):
    rep = S.build_spin_rep(2)
    cl = 0.0
    for p in range(4):
        for q in range(4):
            anti = rep.gamma[p] @ rep.gamma[q] + rep.gamma[q] @ rep.gamma[p]
            target = -2.0 * np.eye(4) if p == q else 0.0
            cl = max(cl, float(np.max(np.abs(anti - target))))
    rng = np.random.default_rng(108)
    hom = 0.0
    for _ in range(10):
        A = rng.normal(size=(4, 4))
        A = A - A.T
        B = rng.normal(size=(4, 4))
        B = B - B.T
        lhs = S.spin_lift(rep, A @ B - B @ A)
        rhs = S.spin_lift(rep, A) @ S.spin_lift(rep, B) \
            - S.spin_lift(rep, B) @ S.spin_lift(rep, A)
        hom = max(hom, float(np.max(np.abs(lhs - rhs))))
    sig = S.spin_lift(rep, S.standard_complex_structure(2))
    prop = max(
        abs(sig[i, i] - S.LIFT_LEVEL_CONSTANT * (2 - 2 * rep.grading(i)) * 1j)
        for i in range(4)
    )
    pauli = [np.array([[0, 1], [1, 0]], complex),
             np.array([[0, -1j], [1j, 0]], complex),
             np.array([[1, 0], [0, -1]], complex)]
    su2 = [real_from_complex(1j * p) for p in pauli]
    u2 = su2 + [real_from_complex(1j * np.eye(2))]
    kernels_ok = (
        S.parallel_spinor_dim(rep, su2) == 2
        and S.parallel_spinor_dim(rep, u2) == 0
        and S.parallel_spinor_dim(rep, []) == 4
    )
    # cross-validation on the ball: a positive kernel goes with dtheta = b rho
    h_ball = algebra_cache("bergman", 0, "schouten", N_PATHS, SPAN_TOL)
    kb = S.parallel_spinor_dim(rep, h_ball)
    chart = charts["bergman"]
    h0_ball = algebra_cache("bergman", 0, "adapted", N_PATHS, SPAN_TOL)
    split = TV.factor_split(C.frame_data(chart, np.zeros(5)), h0_ball, SPAN_TOL)
    reg = TV.dtheta_regression(*TV.orthonormal_ricci(C.frame_data(
        chart, domain_points(chart, 25, seed=109, margin=0.85), order=2)), split)
    ball_ok = kb == 2 and reg["residual"] < 1e-5
    # and on the unequal-weight product: unsatisfiable ratios, zero kernel
    h_12 = algebra_cache("disc_disc_12", 0, "schouten", N_PATHS, SPAN_TOL)
    h0_12 = algebra_cache("disc_disc_12", 0, "adapted", N_PATHS, SPAN_TOL)
    chart12 = charts["disc_disc_12"]
    split12 = TV.factor_split(C.frame_data(chart12, np.zeros(5)), h0_12, SPAN_TOL)
    t_alg, _ = t_complement(h0_12, h_12)
    coeffs = [float(np.sum(t_alg.basis[0] * J) / np.sum(J * J))
              for J in split12.J_blocks]
    ratio = S.ratio_condition([1, 1], coeffs)
    k12 = S.parallel_spinor_dim(rep, h_12)
    prod_ok = (not ratio["satisfiable"]) and k12 == 0
    ok = (cl < 1e-12 and hom < 1e-10 and prop < 1e-10 and kernels_ok
          and ball_ok and prod_ok)
    emit("criterion-8 spinor suite",
         ok,
         f"clifford {cl:.1e}, homomorphism {hom:.1e}, rotation lift {prop:.1e}, "
         f"kernels (su2,u2,0)=({S.parallel_spinor_dim(rep, su2)},"
         f"{S.parallel_spinor_dim(rep, u2)},{S.parallel_spinor_dim(rep, [])}), "
         f"ball kernel {kb} with regression residual {reg['residual']:.1e}, "
         f"unequal-weight kernel {k12} with ratios unsatisfiable")


@pytest.mark.parametrize("case", [("disc_disc_11", None, 110), ("disc_disc_12", None, 15),
                                  ("disc_disc_12", 0.7, 110)],
                         ids=["disc_disc_11", "disc_disc_12", "rotated_disc_disc_12"])
def test_criterion_9_integrator_order(charts, case):
    # the rotated chart's Reeb field and t-dependent coefficients put the
    # Hermite midpoints of the transport pass to the test
    name, eps, seed = case
    chart = charts[name] if eps is None else rotated_chart(charts[name], (0, 1), eps)
    rng = np.random.default_rng(seed)
    controls = rng.normal(0, 0.5, (3, 4))
    h0 = 0.12

    def tau(step):
        path = T.ControlPath(np.zeros(5), controls, horizon=1.2, step=step)
        return T.transport(chart, path, "schouten").tau

    ref = tau(h0 / 8)
    e1 = float(np.linalg.norm(tau(h0) - ref))
    e2 = float(np.linalg.norm(tau(h0 / 2) - ref))
    ratio = e1 / e2
    emit(f"criterion-9 integrator order ({chart.name})",
         11.0 < ratio < 22.0,
         f"error {e1:.2e} -> {e2:.2e}, ratio {ratio:.1f} (expect ~16)")
