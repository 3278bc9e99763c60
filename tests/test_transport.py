import dataclasses
import inspect
import math
import tracemalloc

import numpy as np
import pytest

from kcontact import connection as C
from kcontact import transport as T
from kcontact.errors import ChartError, ConfigError, DomainError, SamplingError
from kcontact.manifolds import ContactChart, Domain, FactorSpec, product_construction

from conftest import domain_points
from fd_oracles import (
    connection_rates_reference,
    coupled_transport_reference,
    cumulative_theta_integral_loop,
    draw_path,
    integrate_sampled_reference,
    reeb_flow_jacobian_reference,
    reeb_sampled_path_transports,
    rhs_reference,
    rotated_chart,
    theta_integral_loop,
    transport_positions_per_step,
)

# one curved chart for each 2m in {4, 6, 8}
RHS_FACTORS = {
    2: [FactorSpec("bergman_ball", complex_dim=2)],
    3: [FactorSpec("poincare_disc", b=b) for b in (1.0, 2.0, 3.0)],
    4: [FactorSpec("bergman_ball", complex_dim=2), FactorSpec("perturbed_disc", epsilon=0.3),
        FactorSpec("poincare_disc", b=2.0)],
}


def reeb_flow(chart, x, s):
    """Point of the Reeb flow from x after time s."""
    y, _ = T._reeb_flow_batch(chart, x[None], np.array([s]), vectors=np.zeros((1, len(x))))
    return y[0]


def ortho_tau(chart, res):
    P0, L0t = C.orthonormal_frame_change(C.frame_data(chart, res.start[None], order=1).G)
    P1, L1t = C.orthonormal_frame_change(C.frame_data(chart, res.end[None], order=1).G)
    return L1t[0] @ res.tau @ np.linalg.inv(L0t[0])


def draw_paths(chart, x0, n_paths, segments, horizon, magnitude, seed, step=0.02,
               vertical=0.0, max_attempts=T.MAX_ATTEMPTS):
    """The accepted paths of one sampling pass, with Reeb controls at
    ``vertical`` (0: the horizontal pass)."""
    sampler = T.SamplerConfig(n_paths, segments, horizon, magnitude, step, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(T, "MAX_ATTEMPTS", max_attempts)
        paths, _, _ = reeb_sampled_path_transports(chart, x0, sampler, vertical)
    return paths


def test_zero_controls_constant_curve(charts):
    chart = charts["disc_disc_11"]
    x0 = np.array([0.1, -0.2, 0.05, 0.0, 0.3])
    path = T.ControlPath(x0, np.zeros((3, 4)), horizon=1.0)
    sc = T.sample_curve(chart, path)
    assert np.max(np.abs(sc.xs - x0)) < 1e-14
    res = T.transport(chart, path, "schouten")
    assert np.allclose(res.tau, np.eye(4), atol=1e-14)


def test_heisenberg_square_loop_area(charts):
    chart = charts["heisenberg"]
    s = 0.4
    controls = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [-1, 0, 0, 0], [0, -1, 0, 0]], float)
    path = T.ControlPath(np.zeros(5), controls, horizon=4 * s, step=0.005)
    sc = T.sample_curve(chart, path)
    # oracle: the t-displacement is minus the signed area enclosed in (x1, y1)
    xs, ys = sc.xs[:, 0], sc.xs[:, 1]
    area = 0.5 * np.sum((xs[:-1] * ys[1:] - xs[1:] * ys[:-1]))
    end = sc.xs[-1]
    assert np.max(np.abs(end[:4])) < 1e-12
    assert abs(end[4] - (-area)) < 1e-9
    assert abs(end[4] + s * s) < 1e-9
    assert np.max(np.abs(sc.theta_dot)) < 1e-12
    # flat connection: the loop transport is the identity
    res = T.transport(chart, path, "schouten")
    assert np.allclose(res.tau, np.eye(4), atol=1e-12)


def test_reversed_controls_retrace(charts):
    chart = charts["bergman"]
    rng = np.random.default_rng(0)
    path = draw_paths(chart, np.zeros(5), 1, 4, 1.0, 0.4, seed=5)[0]
    both = T.ControlPath(
        path.x0,
        np.vstack([path.controls, path.reversed().controls]),
        2 * path.horizon,
        path.step,
    )
    sc = T.sample_curve(chart, both)
    assert np.max(np.abs(sc.xs[-1] - path.x0)) < 1e-6


@pytest.mark.parametrize("kind", ["schouten", "adapted"])
def test_transport_isometry(charts, kind):
    chart = charts["disc_disc_12"]
    x0 = np.zeros(5)
    vertical = 0.0 if kind == "schouten" else 0.3
    paths = draw_paths(chart, x0, 6, 4, 1.2, 0.45, seed=2, vertical=vertical)
    for path in paths:
        res = T.transport(chart, path, kind)
        to = ortho_tau(chart, res)
        assert np.max(np.abs(to.T @ to - np.eye(4))) < 1e-7


def test_two_kinds_coincide_on_horizontal_curves(charts):
    # on a horizontal curve the zero extension adds 0 * xi_coeffs: both the
    # control-path and the sampled route give the Schouten bits
    chart = charts["bergman"]
    assert T.TRANSPORT_KINDS == ("schouten", "adapted")
    paths = draw_paths(chart, np.zeros(5), 4, 4, 1.2, 0.45, seed=3)
    for path in paths:
        schouten, adapted = (T.transport(chart, path, k).tau for k in T.TRANSPORT_KINDS)
        assert np.array_equal(schouten, adapted)
        sc = T.sample_curve(chart, path)
        assert np.array_equal(T._transport_sampled(chart, sc, "schouten"),
                              T._transport_sampled(chart, sc, "adapted"))


def test_disc_product_transport_block_diagonal(charts):
    chart = charts["disc_disc_11"]
    path = draw_paths(chart, np.zeros(5), 1, 4, 1.2, 0.5, seed=4)[0]
    tau = T.transport(chart, path, "schouten").tau
    assert np.max(np.abs(tau[:2, 2:])) < 1e-9
    assert np.max(np.abs(tau[2:, :2])) < 1e-9


def test_schouten_rejects_non_horizontal(charts):
    chart = charts["disc_disc_11"]
    path = T.ControlPath(np.zeros(5), np.zeros((2, 4)), 1.0, vertical=np.array([1.0, 0.5]))
    with pytest.raises(ChartError):
        T.transport(chart, path, "schouten")


def test_transport_theta_contract(charts):
    chart = charts["disc_disc_12"]
    x0 = np.zeros(5)
    # horizontal curve: factor 1
    hor = draw_paths(chart, x0, 1, 3, 1.0, 0.4, seed=6)[0]
    assert abs(T.transport_theta(chart, hor) - 1.0) < 1e-10
    # Reeb segment for time s: factor e^{-s}
    s = 0.8
    reeb = T.ControlPath(x0, np.zeros((1, 4)), horizon=s, vertical=np.array([1.0]))
    assert abs(T.transport_theta(chart, reeb) - np.exp(-s)) < 1e-9
    # concatenation multiplies the factors
    p1 = T.ControlPath(x0, np.array([[0.2, 0, 0.1, 0]]), 0.5, vertical=np.array([0.7]))
    sc1 = T.sample_curve(chart, p1)
    end1 = sc1.xs[-1]
    p2 = T.ControlPath(end1, np.array([[0, 0.1, 0, -0.2]]), 0.5, vertical=np.array([-0.4]))
    both = T.ControlPath(
        x0,
        np.vstack([p1.controls, p2.controls]),
        1.0,
        vertical=np.concatenate([p1.vertical, p2.vertical]),
    )
    f1 = T.transport_theta(chart, p1)
    f2 = T.transport_theta(chart, p2)
    fb = T.transport_theta(chart, both)
    assert abs(fb - f1 * f2) < 1e-9 * abs(fb)


def test_transport_theta_ode_agreement(charts):
    count = 0
    for name in ["heisenberg", "disc_disc_11", "bergman", "perturbed_disc_disc"]:
        chart = charts[name]
        x0 = np.zeros(chart.dim)
        paths = draw_paths(chart, x0, 5, 4, 1.0, 0.35, seed=7, vertical=0.4)
        for path in paths:
            sc = T.sample_curve(chart, path, 0.005)
            fq = T.transport_theta(chart, sc, "quadrature")
            fo = T.transport_theta(chart, sc, "ode")
            assert fq > 0 and fo > 0
            assert abs(fq - fo) < 1e-6 * abs(fq)
            count += 1
    assert count == 20


def test_reeb_flow_contract(charts):
    chart = charts["disc_disc_11"]
    x = np.array([0.1, 0.2, -0.1, 0.05, 0.4])
    assert np.allclose(reeb_flow(chart, x, 0.0), x, atol=1e-14)
    a = reeb_flow(chart, reeb_flow(chart, x, 0.3), 0.5)
    b = reeb_flow(chart, x, 0.8)
    assert np.max(np.abs(a - b)) < 1e-7
    # the flow translates the vertical coordinate
    y = reeb_flow(chart, x, 0.7)
    assert np.allclose(y[:4], x[:4], atol=1e-12)
    assert abs(y[4] - (x[4] + 0.7)) < 1e-12
    hx = charts["heisenberg"]
    z = reeb_flow(hx, np.zeros(5), -0.3)
    assert abs(z[4] + 0.3) < 1e-12


def test_reeb_flow_evaluates_only_xi(charts):
    # on the general path the flow and its pushforward read xi and dxi from
    # one order-1 evaluation per RK4 stage; theta, frame and metric jets
    # would be built and thrown away
    calls = {"theta": 0, "xi": 0, "frame": 0, "metric": 0}
    widths = set()

    def counted(name):
        fn = getattr(charts["bergman"], name)

        def wrapper(x):
            calls[name] += 1
            widths.update(c.grad.shape[-1] for c in x if hasattr(c, "grad"))
            return fn(x)

        return wrapper

    chart = dataclasses.replace(charts["bergman"], **{k: counted(k) for k in calls})
    X = np.array([[0.1, -0.2, 0.05, 0.3, 0.0], [0.0, 0.1, -0.3, 0.2, 0.5]])
    _, z = T._reeb_flow_batch(chart, X, np.array([0.4, -0.2]), vectors=X[::-1])
    assert z.shape == (2, 5)
    # four RK4 stages per step, 0.4 / REEB_STEP = 40 steps for the longest time
    assert calls == {"theta": 0, "xi": 160, "frame": 0, "metric": 0}
    assert widths == {5}


# every built-in chart has dxi = 0 and t-independent coefficients; the
# rotated charts have neither
ORACLE_CHARTS = [(name, None) for name in
                 ("heisenberg", "disc_disc_11", "disc_disc_12", "bergman", "perturbed_disc_disc")
                 ] + [("bergman", 0.7), ("disc_disc_12", 0.7)]


def _oracle_chart(charts, name, eps):
    return charts[name] if eps is None else rotated_chart(charts[name], (0, 1), eps)


@pytest.mark.parametrize("name,eps", ORACLE_CHARTS)
def test_sampled_transports_match_stage_walk(charts, name, eps):
    chart = _oracle_chart(charts, name, eps)
    x0 = np.zeros(chart.dim)
    eye = np.eye(2 * chart.m)
    for kind, vertical in (("schouten", 0.0), ("adapted", 0.4)):
        path = draw_paths(chart, x0, 1, 3, 1.0, 0.35, seed=13, vertical=vertical)[0]
        sc = T.sample_curve(chart, path)
        A = -T._connection_rates(C.transport_data(chart, sc.xs, vertical=vertical > 0),
                                 sc.us, sc.ws)
        (ref,) = integrate_sampled_reference(sc, lambda i, y: (A[i] @ y[0],), (eye,))
        assert np.max(np.abs(T._transport_sampled(chart, sc, kind) - ref)) < 1e-13, kind
        sc = T.sample_curve(chart, path, T.THETA_STEP)
        g = -sc.theta_dot
        (lam,) = integrate_sampled_reference(sc, lambda i, y: (g[i] * y[0],), (1.0,))
        assert abs(T.transport_theta(chart, sc, "ode") - lam) < 1e-13, kind


@pytest.mark.parametrize("name", ["bergman", "disc_disc_12"])
def test_reeb_pushforward_matches_jacobian(charts, name):
    # only a chart with dxi != 0 moves the pushed-forward vectors at all
    chart = rotated_chart(charts[name], (0, 1), 0.7)
    rng = np.random.default_rng(14)
    X = domain_points(chart, 12, seed=14, margin=0.6)
    times, V = rng.uniform(-0.5, 0.5, 12), rng.normal(size=(12, 5))
    y, z = T._reeb_flow_batch(chart, X, times, vectors=V)
    y_ref, J = reeb_flow_jacobian_reference(chart, X, times)
    assert np.array_equal(y, y_ref)
    assert np.max(np.abs(z - V)) > 1e-2
    assert np.max(np.abs(z - (J @ V[..., None])[..., 0])) < 1e-13


@pytest.mark.parametrize("name,eps", ORACLE_CHARTS)
def test_theta_integrals_match_loops_bitwise(charts, name, eps):
    chart = _oracle_chart(charts, name, eps)
    x0 = np.zeros(chart.dim)
    rng = np.random.default_rng(15)
    curves = [draw_paths(chart, x0, 1, 4, 1.0, 0.35, seed=15, vertical=0.4)[0]]
    for _ in range(2):
        r1, r2, ph1, ph2 = rng.uniform(0.05, 0.15, 2).tolist() + rng.uniform(0, 6, 2).tolist()
        curves.append(T.ParametricCurve([
            T._circle_piece(x0, (0, 1), r1, ph1, 1.0, 1.0, 0.1, chart.dim - 1),
            T._circle_piece(x0, (2, 3), r2, ph2, -1.0, 1.0, 0.1, chart.dim - 1)]))
    for curve in curves:
        for step in (2e-3, 4e-3):
            sc = T.sample_curve(chart, curve, step)
            assert len(sc.piece_slices) > 1
            assert np.asarray(T._theta_integral(sc)).tobytes() == \
                np.asarray(theta_integral_loop(sc)).tobytes()
            assert T._cumulative_theta_integral(sc).tobytes() == \
                cumulative_theta_integral_loop(sc).tobytes()
            if isinstance(curve, T.ParametricCurve):
                # the loop builder's theta-only samples keep every bit
                theta_only = T._sample_parametric(chart, curve, step, split=False)
                assert np.asarray(T._theta_integral(theta_only)).tobytes() \
                    == np.asarray(T._theta_integral(sc)).tobytes()
                if step == T.LOOP_STEP:
                    assert np.asarray(T._loop_theta_integral(chart, curve.pieces)).tobytes() \
                        == np.asarray(T._theta_integral(sc)).tobytes()


def test_balanced_loop_splits_no_velocity(charts, monkeypatch):
    # the root-finding probes and the final check read theta alone; the
    # frame split of every sample, one solve each, would be thrown away
    calls = []
    split = T._split_velocities
    monkeypatch.setattr(T, "_split_velocities", lambda *a: calls.append(1) or split(*a))
    chart = charts["bergman"]
    loop = T.balanced_loop(chart, np.zeros(5), np.random.default_rng(1))
    assert calls == []
    assert 0.0 < T.transport_theta(chart, loop) < 2.0
    assert calls == []
    T.sample_curve(chart, loop)
    assert calls == [1]


def test_horizontalize_fixed_points(charts):
    chart = charts["bergman"]
    x0 = np.zeros(5)
    # horizontal input is unchanged
    hor = draw_paths(chart, x0, 1, 3, 1.0, 0.4, seed=8)[0]
    sc = T.sample_curve(chart, hor)
    tilde = T.horizontalize(chart, sc)
    assert np.max(np.abs(tilde.xs - sc.xs)) < 1e-9
    # a pure Reeb segment horizontalizes to a constant curve
    reeb = T.ControlPath(x0, np.zeros((1, 4)), horizon=0.6, vertical=np.array([1.0]))
    tilde2 = T.horizontalize(chart, T.sample_curve(chart, reeb))
    assert np.max(np.abs(tilde2.xs - x0)) < 1e-8


def test_horizontalize_endpoint_relation(charts):
    chart = charts["disc_disc_12"]
    x0 = np.zeros(5)
    path = draw_paths(chart, x0, 1, 4, 1.0, 0.3, seed=9, vertical=0.5)[0]
    sc = T.sample_curve(chart, path)
    tilde = T.horizontalize(chart, sc)
    total = T.transport_theta(chart, sc)  # exp(-integral)
    target = reeb_flow(chart, sc.xs[-1], np.log(total))
    assert np.max(np.abs(tilde.xs[-1] - target)) < 1e-7
    assert np.max(np.abs(tilde.theta_dot)) < 1e-6


def test_balanced_loops_horizontalization(charts):
    rng = np.random.default_rng(10)
    for name in ["heisenberg", "disc_disc_11", "bergman"]:
        chart = charts[name]
        x0 = np.zeros(chart.dim)
        for _ in range(4):
            loop = T.balanced_loop(chart, x0, rng)
            sc = T.sample_curve(chart, loop, 2e-3)
            assert np.max(np.abs(sc.xs[0] - sc.xs[-1])) < 1e-10
            assert abs(T._theta_integral(sc)) < 1e-10
            assert np.max(np.abs(sc.theta_dot)) > 1e-3  # genuinely non-horizontal
            tilde = T.horizontalize(chart, sc)
            assert np.max(np.abs(tilde.theta_dot)) < 1e-6
            assert np.max(np.abs(tilde.xs[-1] - tilde.xs[0])) < 1e-8


def test_transport_equivalence_on_balanced_loops(charts):
    rng = np.random.default_rng(11)
    for name in ["heisenberg", "disc_disc_11", "disc_disc_12", "bergman"]:
        chart = charts[name]
        loop = T.balanced_loop(chart, np.zeros(chart.dim), rng)
        resid, _ = T.transport_equivalence_check(chart, loop)
        assert resid < 1e-4, name


def test_transport_equivalence_trivial_cases(charts):
    chart = charts["heisenberg"]
    rng = np.random.default_rng(12)
    loop = T.balanced_loop(chart, np.zeros(5), rng)
    sc = T.sample_curve(chart, loop, 2e-3)
    # flat chart: both transports are the identity
    tau0 = T._transport_sampled(chart, sc, "adapted")
    assert np.max(np.abs(tau0 - np.eye(4))) < 1e-9
    assert T.transport_equivalence_check(chart, sc)[0] < 1e-9
    # a path that does not return to its start is not a loop (a closed
    # unbalanced one is refused in test_curve_api_refusals)
    bad = T.ControlPath(np.zeros(5), np.zeros((1, 4)), 0.5, vertical=np.array([1.0]))
    with pytest.raises(ChartError, match="transport_equivalence_check needs a loop"):
        T.transport_equivalence_check(chart, bad)


def test_balanced_loop_on_a_chart_without_blocks(charts):
    # a built-in chart changed by replace has blocks=() and takes the
    # general path; its loops take the same coordinate pairs (2k, 2k + 1),
    # so the loop is the built-in chart's, bit for bit
    chart = charts["bergman"]
    bare = dataclasses.replace(chart)
    loop = T.balanced_loop(bare, np.zeros(5), np.random.default_rng(4))
    same = T.balanced_loop(chart, np.zeros(5), np.random.default_rng(4))
    assert T.sample_curve(bare, loop).xs.tobytes() == T.sample_curve(chart, same).xs.tobytes()
    resid, tilde = T.transport_equivalence_check(bare, loop)
    assert resid < 1e-4
    assert np.max(np.abs(tilde.theta_dot)) < 1e-6


# closed-form root finds over a bracket; the last one does not converge in
# 100 steps, at the loop builder's tolerances or at scipy's defaults
BRENT_CASES = [
    (lambda x: x * x - 1.0, 0.0, 2.0),
    (lambda x: math.cos(x) - x, 0.0, 1.0),
    (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    (lambda x: math.exp(x) - 2.0, -1.0, 3.0),
    (lambda x: math.sin(x), 3.0, 4.0),
    (lambda x: math.tanh(50.0 * (x - 0.123)), -1.0, 1.0),
    (lambda x: (x - 0.3) ** 5, 0.0, 1.0),
]
# the loop builder's (xtol, rtol), and scipy's defaults
BRENT_TOLS = [(1e-13, 1e-15), (2e-12, 4 * np.finfo(float).eps)]


def _scipy_root(optimize, f, a, b, xtol, rtol, maxiter=100):
    """scipy's brentq read as the port reports: the root, or None."""
    try:
        root, res = optimize.brentq(f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter,
                                    full_output=True, disp=False)
    except ValueError:  # f(a) and f(b) have the same sign
        return None
    return root if res.converged else None


def _same_root(got, want):
    return got is None if want is None else got is not None and float(got).hex() == want.hex()


def test_brentq_contract():
    # where scipy's brentq raises RuntimeError, the port returns None
    assert T._brentq(lambda x: (x - 0.3) ** 5, 0.0, 1.0, 1e-13, 1e-15) is None
    calls = []
    assert T._brentq(lambda x: calls.append(x) or 1.0 + x * x, -1.0, 2.0, 1e-13, 1e-15) is None
    assert calls == [-1.0, 2.0]
    assert T._brentq(lambda x: x - 0.5, 0.5, 2.0, 1e-13, 1e-15) == 0.5
    assert T._brentq(lambda x: x - 2.0, 0.5, 2.0, 1e-13, 1e-15) == 2.0


@pytest.mark.parametrize("tols", BRENT_TOLS)
@pytest.mark.parametrize("case", range(len(BRENT_CASES)))
def test_brentq_matches_scipy_on_closed_forms(case, tols):
    optimize = pytest.importorskip("scipy.optimize")
    f, a, b = BRENT_CASES[case]
    assert _same_root(T._brentq(f, a, b, *tols), _scipy_root(optimize, f, a, b, *tols))


def test_brentq_matches_scipy_on_loop_functions(charts, monkeypatch):
    # every root find of the loop builder on the shipped charts, loop seeds
    # 1-5, gives scipy's float bit for bit
    optimize = pytest.importorskip("scipy.optimize")
    port, finds = T._brentq, []

    def both(f, a, b, xtol, rtol, maxiter=100):
        finds.append((port(f, a, b, xtol, rtol, maxiter),
                      _scipy_root(optimize, f, a, b, xtol, rtol, maxiter)))
        return finds[-1][0]

    monkeypatch.setattr(T, "_brentq", both)
    for chart in charts.values():
        for seed in range(1, 6):
            T.balanced_loop(chart, chart.origin(), np.random.default_rng(seed))
    assert len(finds) >= 25 and all(want is not None for _, want in finds)
    assert all(_same_root(got, want) for got, want in finds)


def _segment(a, b):
    """The straight parametric piece from a to b, of unit duration."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return (1.0, lambda s: a + s[:, None] * (b - a), lambda s: np.tile(b - a, (len(s), 1)))


def test_transport_of_parametric_and_sampled_curves(charts):
    # transport() of a ParametricCurve samples it at the default step, and
    # of a SampledCurve reads it as it is: the two equivalence routes give
    # the residual that transport_equivalence_check returns (nonzero off
    # normal form)
    chart = rotated_chart(charts["bergman"], (0, 1), 0.7)
    loop = T.balanced_loop(chart, np.zeros(5), np.random.default_rng(2))
    sc = T.sample_curve(chart, loop)
    resid, tilde = T.transport_equivalence_check(chart, loop)
    adapted = T.transport(chart, sc, "adapted")
    assert adapted.tau.tobytes() == T.transport(chart, loop, "adapted").tau.tobytes()
    assert np.array_equal(adapted.start, sc.xs[0]) and np.array_equal(adapted.end, sc.xs[-1])
    schouten = T.transport(chart, tilde, "schouten")
    assert float(np.linalg.norm(adapted.tau - schouten.tau)) == resid
    assert 0.0 < resid < 1e-4


def test_curve_api_refusals(charts):
    chart = charts["heisenberg"]
    loop = T.balanced_loop(chart, np.zeros(5), np.random.default_rng(3))
    with pytest.raises(ChartError, match="schouten transport requires a horizontal curve"):
        T.transport(chart, loop, "schouten")
    with pytest.raises(ValueError, match="unknown transport kind 'wagner'"):
        T.transport(chart, loop, "wagner")
    with pytest.raises(TypeError, match="not a curve"):
        T.sample_curve(chart, np.zeros((3, 5)))
    apart = T.ParametricCurve([_segment(np.zeros(5), [0.3, 0, 0, 0, 0]),
                               _segment([0.3, 0.1, 0, 0, 0], [0.3, 0.3, 0, 0, 0])])
    with pytest.raises(ChartError, match="pieces do not join continuously"):
        T.sample_curve(chart, apart)
    with pytest.raises(ValueError, match="unknown method 'trapezoid'"):
        T.transport_theta(chart, loop, "trapezoid")
    # a closed square in (x1, y1): theta = dt - y1 dx1 integrates to its area
    corners = [[0, 0, 0, 0, 0], [0.3, 0, 0, 0, 0], [0.3, 0.3, 0, 0, 0], [0, 0.3, 0, 0, 0]]
    square = T.ParametricCurve([_segment(a, b) for a, b in zip(corners, corners[1:] + corners[:1])])
    with pytest.raises(ChartError, match="loop is not balanced: integral of theta = 9.000e-02"):
        T.transport_equivalence_check(chart, square)
    # m = 1: theta = dt - y dx on the unit box has one coordinate pair
    one_pair = ContactChart(1, Domain(-np.ones(3), np.ones(3)),
                            lambda x: [-1.0 * x[1], 0.0, 1.0], lambda x: [0.0, 0.0, 1.0],
                            lambda x: [[1.0, 0.0], [0.0, 1.0], [x[1], 0.0]],
                            lambda x: [[1.0, 0.0], [0.0, 1.0]], name="one pair")
    with pytest.raises(ChartError, match="balanced loops need at least two coordinate pairs"):
        T.balanced_loop(one_pair, np.zeros(3), np.random.default_rng(3))


def test_transport_theta_checks_method_before_sampling(charts):
    # a curve that leaves the bergman ball: an unknown method is named
    # before the samples meet the boundary
    outward = T.ParametricCurve([_segment(np.zeros(5), [2.0, 0, 0, 0, 0])])
    with pytest.raises(ValueError, match="unknown method 'trapezoid'"):
        T.transport_theta(charts["bergman"], outward, "trapezoid")
    with pytest.raises(DomainError):
        T.transport_theta(charts["bergman"], outward, "ode")


def test_sampler_contract(charts):
    chart = charts["disc_disc_11"]
    x0 = np.zeros(5)
    assert draw_paths(chart, x0, 0, 4, 1.0, 0.4, seed=0) == []
    a = draw_paths(chart, x0, 6, 4, 1.0, 0.4, seed=13)
    b = draw_paths(chart, x0, 6, 4, 1.0, 0.4, seed=13)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.controls, pb.controls)
    c = draw_paths(chart, x0, 3, 4, 1.0, 0.0, seed=14)
    for p in c:
        assert np.max(np.abs(p.controls)) == 0.0
    with pytest.raises(DomainError):
        draw_paths(chart, np.array([2.0, 0, 0, 0, 0]), 2, 4, 1.0, 0.4, seed=0)
    with pytest.raises(ConfigError, match="segments"):
        draw_paths(chart, x0, 2, 0, 1.0, 0.4, seed=0)


def test_sampler_exhaustion(charts):
    chart = charts["heisenberg"]
    with pytest.raises(SamplingError):
        draw_paths(chart, np.zeros(5), 1, 2, 0.5, 200.0, seed=0, max_attempts=5)


# a bergman sampler whose pass escapes at indices 1 and 3, with or without
# Reeb controls;
# index 3 needs four redraws, so later redraw batches shrink
REDRAW_SAMPLER = T.SamplerConfig(n_paths=6, segments=2, horizon=0.6,
                                 magnitude=1.5, step=0.05, seed=1)


def _reference_pass(chart, x0, s, vertical):
    """Per-index, attempt-by-attempt reference for one pass:
    ``transport`` of each path on its own."""
    kind = "adapted" if vertical else "schouten"
    out = []
    for i in range(s.n_paths):
        for attempt in range(60):
            path = draw_path(chart, x0, s.segments, s.horizon, s.magnitude,
                             s.seed, s.step, vertical, i, attempt)
            try:
                res = T.transport(chart, path, kind)
            except DomainError:
                continue
            out.append((attempt, path, res.end, res.tau))
            break
    return out


def test_batched_redraws_match_per_index_reference(charts, monkeypatch):
    # a horizontal pass and a pass with Reeb controls, each integrated and
    # redrawn in batches, give bit for bit what each gives path by path
    chart = charts["bergman"]
    x0 = np.zeros(5)
    verticals = (0.0, REDRAW_SAMPLER.magnitude)
    refs = [_reference_pass(chart, x0, REDRAW_SAMPLER, v) for v in verticals]
    for ref in refs:
        assert sum(attempt > 0 for attempt, *_ in ref) >= 2
    draws, passes = [], []
    draw = T._draw_path
    signature = inspect.signature(draw)

    def recording_draw(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        draws.append((verticals[len(passes)], int(bound["i"]), int(bound["attempt"])))
        return draw(*args, **kwargs)

    monkeypatch.setattr(T, "_draw_path", recording_draw)
    for v in verticals:
        passes.append(reeb_sampled_path_transports(chart, x0, REDRAW_SAMPLER, v))
    expected_draws = {(v, i, a) for v, ref in zip(verticals, refs)
                      for i, (last, *_) in enumerate(ref) for a in range(last + 1)}
    assert len(draws) == len(expected_draws) and set(draws) == expected_draws
    for (paths, ends, taus), ref in zip(passes, refs):
        assert len(paths) == len(ref) == REDRAW_SAMPLER.n_paths
        for i, (_, path, end, tau) in enumerate(ref):
            assert np.array_equal(paths[i].controls, path.controls)
            assert np.array_equal(paths[i].vertical, path.vertical)
            assert np.array_equal(ends[i], end)
            assert np.array_equal(taus[i], tau)


@pytest.mark.parametrize("index, attempt", [(0, 0), (3, 0), (5, 2)])
def test_halves_share_draw_streams(charts, index, attempt):
    # the stream is keyed by (seed, index, attempt) alone: path i with Reeb
    # controls draws the horizontal controls of horizontal path i, then its
    # Reeb controls
    chart, s = charts["bergman"], T.SamplerConfig()
    horizontal, adapted = (
        draw_path(chart, np.zeros(5), s.segments, s.horizon, s.magnitude, s.seed, s.step,
                  vertical, index, attempt) for vertical in (0.0, s.magnitude))
    assert np.array_equal(horizontal.controls, adapted.controls)
    rng = np.random.default_rng([s.seed, index, attempt])
    rng.normal(0.0, 1.0, horizontal.controls.shape)
    assert np.array_equal(adapted.vertical, rng.normal(0.0, 1.0, s.segments) * s.magnitude)
    assert not np.any(horizontal.vertical) and np.all(adapted.vertical != 0.0)


def test_redraw_exhaustion_names_index(charts):
    chart = charts["bergman"]
    s = REDRAW_SAMPLER
    with pytest.raises(SamplingError, match=r"for index 3 after 3 attempts"):
        draw_paths(chart, np.zeros(5), s.n_paths, s.segments, s.horizon,
                   s.magnitude, s.seed, step=s.step, max_attempts=3)
    # with no redraws at all the first escaped index is named
    with pytest.raises(SamplingError, match=r"for index 1 after 1 attempts"):
        draw_paths(chart, np.zeros(5), s.n_paths, s.segments, s.horizon,
                   s.magnitude, s.seed, step=s.step, max_attempts=1)


def test_two_half_exhaustion_names_index_within_half(charts):
    # of the two kinds of path a holonomy pass off normal form draws, the
    # one with Reeb controls at magnitude 6 needs 14 draws for its index 3,
    # while the horizontal pass is complete after 5; the error names the
    # index within its own pass
    chart = charts["bergman"]
    s = REDRAW_SAMPLER
    assert len(draw_paths(chart, np.zeros(5), s.n_paths, s.segments, s.horizon, s.magnitude,
                          s.seed, step=s.step, max_attempts=5)) == s.n_paths
    with pytest.raises(SamplingError, match=r"for index 3 after 5 attempts"):
        draw_paths(chart, np.zeros(5), s.n_paths, s.segments, s.horizon,
                   s.magnitude, s.seed, step=s.step, vertical=6.0, max_attempts=5)
    assert len(draw_paths(chart, np.zeros(5), s.n_paths, s.segments, s.horizon, s.magnitude,
                          s.seed, step=s.step, vertical=6.0, max_attempts=14)) == s.n_paths


def _pass_and_reference(chart, sampler):
    """The largest differences of ends and transports between the
    horizontal and the Reeb sampling pass and the coupled reference on
    their paths."""
    worst = np.zeros(2)
    for vertical in (0.0, sampler.magnitude):
        paths, *got = reeb_sampled_path_transports(chart, np.zeros(chart.dim), sampler, vertical)
        for i, (g, r) in enumerate(zip(got, coupled_transport_reference(chart, paths))):
            worst[i] = max(worst[i], np.max(np.abs(g - r)))
    return worst


@pytest.mark.parametrize("name", ["heisenberg", "disc_disc_11", "disc_disc_12", "bergman",
                                  "perturbed_disc_disc"])
def test_transport_pass_matches_coupled_reference(charts, name):
    # every built-in chart moves its horizontal coordinates linearly and
    # has t-independent coefficients, so the Hermite midpoints and the
    # coupled stage positions read the same connection up to rounding
    worst = _pass_and_reference(charts[name], T.SamplerConfig(n_paths=6, seed=21))
    assert np.all(worst <= 1e-13), worst
    if name == "bergman":
        # the redraw sampler: later attempts replace escaped rows
        worst = _pass_and_reference(charts[name], REDRAW_SAMPLER)
        assert np.all(worst <= 1e-13), worst


def test_transport_pass_on_rotated_chart_matches_coupled_reference(charts):
    # on a rotated chart the Hermite midpoints and the coupled stage
    # positions read different connections: the transports differ by the
    # two schemes' O(h^4) truncation errors (measured 1.03e-8), while the
    # positions, integrated alike, agree to rounding (1.1e-16)
    chart = rotated_chart(charts["disc_disc_12"], (0, 1), 0.7)
    worst = _pass_and_reference(chart, T.SamplerConfig(n_paths=6, seed=21))
    assert worst[0] <= 1e-15, worst
    assert 1e-9 < worst[1] < 2e-8, worst


# (paths, step): one path in one block per segment; 10 paths in blocks of
# 12 + 4 steps; 16 paths at 60 steps per segment, whose 50th step, a
# reprojection, falls inside a block; 128 paths at one step per block
BLOCK_CASES = [(1, 0.02), (10, 0.02), (16, 0.005), (128, 0.02)]


@pytest.mark.parametrize("n_paths, step", BLOCK_CASES)
@pytest.mark.parametrize("vertical", [0.0, 0.45])
def test_transport_blocks_match_per_step_loop(charts, n_paths, step, vertical):
    # evaluating the connection over blocks of steps changes no bit of the
    # transports against one evaluation of the ends and one of the
    # midpoints per step; on the rotated chart the midpoints' t-coordinates
    # and the Reeb brackets enter the connection
    chart = rotated_chart(charts["disc_disc_12"], (0, 1), 0.7)
    x0 = np.zeros(chart.dim)
    paths = [draw_path(chart, x0, 4, 1.2, 0.45, 17, step, vertical, i, 0)
             for i in range(n_paths)]
    xs, _, h = T._integrate_positions(chart, paths, step)
    got = T._transport_positions(chart, xs, paths, h)
    assert got.tobytes() == transport_positions_per_step(chart, xs, paths, h).tobytes()


@pytest.mark.parametrize("rotated, n_paths, rows", [
    pytest.param(False, 64, 64, id="64-64"), pytest.param(False, 8, 8, id="8-8"),
    pytest.param(False, None, 1, id="None-1"),
    pytest.param(True, 128, 128, id="rotated-128-128"),
    pytest.param(True, 16, 16, id="rotated-16-16")])
def test_transport_pass_evaluates_blocks_of_steps(charts, monkeypatch, rotated, n_paths, rows):
    # a pass over P rows evaluates the connection over blocks of
    # max(1, ROWS // P) of a segment's 16 steps: on a normal-form chart one
    # call per block reads its ends and midpoints together; off normal form
    # (the rotated chart, whose Reeb controls enter the connection) the
    # midpoints need the ends' velocities, so a block takes two calls, and
    # a 128-path pass two per step; every pass evaluates its shared start
    # once and two samples per row and step, as the per-step loop does
    chart = rotated_chart(charts["disc_disc_12"], (0, 1), 0.7) if rotated else charts["heisenberg"]
    counts = {"calls": 0, "points": 0}
    evaluate = T.transport_data

    def counting(chart, X, vertical=False):
        counts["calls"] += 1
        counts["points"] += int(np.prod(np.shape(X)[:-1]))
        return evaluate(chart, X, vertical=vertical)

    monkeypatch.setattr(T, "transport_data", counting)
    if n_paths is None:
        path = T._draw_path(chart, np.zeros(chart.dim), 4, 1.2, 0.45, 0, 0.02, 0, 0)
        T.transport(chart, path, "schouten")
    else:
        sampler = T.SamplerConfig(n_paths=n_paths)
        reeb_sampled_path_transports(chart, np.zeros(chart.dim), sampler,
                                     sampler.magnitude if rotated else 0.0)
    block = max(1, T.ROWS // rows)
    per_block = 2 if rotated else 1
    assert counts == {"calls": 1 + per_block * 4 * -(-16 // block),
                      "points": 1 + rows * 2 * 4 * 16}


@pytest.mark.parametrize("rotated", [False, True])
def test_transport_pass_evaluates_its_shared_start_once(charts, monkeypatch, rotated):
    # every path of a pass starts at x0, so the pass's first connection
    # evaluation and the metric of its reprojections (64 steps: one falls
    # inside) read one row, which broadcasts over the paths with the bits
    # of the per-step loop's one row per path
    chart = charts["disc_disc_12"]
    chart = rotated_chart(chart, (0, 1), 0.7) if rotated else chart
    paths = [draw_path(chart, np.zeros(chart.dim), 4, 1.2, 0.45, 3, 0.02, v, i, 0)
             for v in (0.0, 0.45) for i in range(8)]
    xs, _, h = T._integrate_positions(chart, paths, 0.02, raise_on_exit=False)
    evaluate, shapes = T.transport_data, []

    def recording(chart, X, vertical=False):
        shapes.append(np.shape(X))
        return evaluate(chart, X, vertical=vertical)

    monkeypatch.setattr(T, "transport_data", recording)
    got = T._transport_positions(chart, xs, paths, h)
    monkeypatch.undo()
    assert shapes[0] == (1, 1, chart.dim)
    assert all(s[0] == len(paths) for s in shapes[1:])
    assert got.tobytes() == transport_positions_per_step(chart, xs, paths, h).tobytes()


def test_sampled_route_matches_transport_pass(charts):
    # the sampled-curve RK4 over a control path's samples (one step per two
    # sample intervals) against the positions-first pass
    plain = charts["disc_disc_12"]
    for chart in (plain, rotated_chart(plain, (0, 1), 0.7)):
        rng = np.random.default_rng(16)
        path = T.ControlPath(np.zeros(5), rng.normal(0, 0.3, (2, 4)), horizon=0.8,
                             step=0.005, vertical=np.array([0.5, -0.3]))
        tau = T.transport(chart, path, "adapted").tau
        sampled = T._transport_sampled(chart, T.sample_curve(chart, path), "adapted")
        assert np.max(np.abs(tau - sampled)) < 1e-6


def test_nonpositive_step_is_rejected(charts):
    # a zero step once asked for about 3e11 RK4 steps per segment; the
    # step count is checked first, so no integration starts at step 0
    for step in (0.0, -0.02, np.nan, np.inf):
        with pytest.raises(ValueError, match="step"):
            T._even_steps(0.6, step)
    chart = charts["disc_disc_11"]
    x0 = np.zeros(5)
    path = T.ControlPath(x0, np.zeros((2, 4)), horizon=1.0, step=0.0)
    with pytest.raises(ValueError):
        T.transport(chart, path, "schouten")
    # an explicit step 0 is not a request for the default step
    with pytest.raises(ValueError):
        T.sample_curve(chart, dataclasses.replace(path, step=0.02), step=0.0)
    # the sampler's step is checked when its config is built
    for step in (0.0, -0.02):
        with pytest.raises(ConfigError, match="sampler step must be > 0"):
            T.SamplerConfig(n_paths=2, step=step)


@pytest.mark.parametrize("field, value", [("magnitude", np.nan), ("magnitude", np.inf),
                                          ("horizon", np.nan)])
def test_non_finite_sampler_inputs_are_rejected(field, value):
    # a NaN or infinite magnitude once ran 60 redraw batches before raising
    # SamplingError, and a NaN horizon reached the RK4 step count
    with pytest.raises(ConfigError, match=f"sampler {field} must be finite"):
        T.SamplerConfig(n_paths=2, **{field: value})


def test_replaced_sampler_config_is_checked_again():
    # the CLI's --seed/--paths overrides and kbench's seed sweeps build
    # their samplers by replace()
    with pytest.raises(ConfigError, match="sampler n_paths must be >= 0, got -1"):
        dataclasses.replace(T.SamplerConfig(), n_paths=-1)
    with pytest.raises(ConfigError, match="sampler seed must be >= 0, got -3"):
        dataclasses.replace(T.SamplerConfig(), seed=-3)


def test_omitted_vertical_controls_are_zeros():
    path = T.ControlPath(np.zeros(5), np.ones((3, 4)), horizon=1.0)
    assert np.array_equal(path.vertical, np.zeros(3))
    assert np.array_equal(path.reversed().vertical, np.zeros(3))


def test_domain_exit_raises_with_position(charts):
    chart = charts["disc_disc_11"]
    path = T.ControlPath(np.zeros(5), np.full((1, 4), 3.0), horizon=1.0)
    with pytest.raises(DomainError) as exc:
        T.transport(chart, path, "schouten")
    assert exc.value.point is not None


def _rhs_inputs(m, batch, seed):
    chart = product_construction(RHS_FACTORS[m])
    rng = np.random.default_rng([m, len(batch), seed])
    x = domain_points(chart, max(1, int(np.prod(batch))), seed=seed).reshape(batch + (-1,))
    u = rng.standard_normal(batch + (2 * m,))
    w = 0.5 + rng.random(batch)
    return chart, x, u, w


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("batch", [(), (7,), (2, 3)], ids=str)
@pytest.mark.parametrize("part", ["transport", "positions"])
def test_rhs_matches_reference(m, batch, part):
    # "positions": the velocity; "transport": the connection matrix that
    # the transport pass contracts
    chart, x, u, w = _rhs_inputs(m, batch, seed=3)
    for uw in ((u, w), (u, np.zeros_like(w))):  # the adapted and the horizontal rates
        if part == "transport":
            data = C.transport_data(chart, x, vertical=bool(np.any(uw[1])))
            got, ref = T._connection_rates(data, *uw), connection_rates_reference(chart, x, *uw)
        else:
            got, ref = T._rhs(chart, x, *uw), rhs_reference(chart, x, *uw)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_rhs_makes_no_einsum_call(charts, monkeypatch):
    # connection, manifolds and transport reach np.einsum through the numpy
    # module; the position rates and the whole sampling pass, transport
    # included, are contracted by matmuls only
    calls = []
    einsum = np.einsum

    def counting_einsum(subscripts, *operands, **kwargs):
        calls.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    chart, x, u, w = _rhs_inputs(2, (8,), seed=4)
    monkeypatch.setattr(np, "einsum", counting_einsum)
    v = T._rhs(chart, x, u, w)
    sampler = T.SamplerConfig(n_paths=2, segments=2, horizon=0.2)
    passes = [reeb_sampled_path_transports(charts["bergman"], np.zeros(5), sampler, vertical)
              for vertical in (0.0, sampler.magnitude)]
    monkeypatch.setattr(np, "einsum", einsum)
    assert calls == []
    assert v.shape == (8, 5)
    assert [taus.shape for _, _, taus in passes] == [(2, 4, 4)] * 2


def test_wide_sampling_pass_memory_is_bounded():
    # a 16-path pass on three discs (2m = 6, normal form) evaluates the
    # connection over blocks of 8 steps, one call per block on its 128 ends
    # and 128 midpoints, and peaks at 2.3 MB (0.6 MB at one step per block,
    # 1.5 MB with the ends and midpoints in two calls, 4.4 MB at 256 ends
    # per block); the bound leaves about 40%
    chart = product_construction(RHS_FACTORS[3])
    sampler = T.SamplerConfig(n_paths=16)
    T.sampled_path_transports(chart, np.zeros(chart.dim), sampler)
    tracemalloc.start()
    try:
        T.sampled_path_transports(chart, np.zeros(chart.dim), sampler)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4e6, peak


def test_sampling_pass_memory_is_bounded(charts):
    # a 128-path bergman pass peaks at 1.3 MB: the positions plus one
    # transport evaluation on a step's 128 ends and 128 midpoints; Gamma
    # kept at every sample would take about 29 MB
    chart = charts["bergman"]
    sampler = T.SamplerConfig(n_paths=128)
    T.sampled_path_transports(chart, np.zeros(5), sampler)
    tracemalloc.start()
    try:
        T.sampled_path_transports(chart, np.zeros(5), sampler)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak


def test_segment_step_count_is_bounded():
    # 6250 / 0.0625 is exactly the bound: accepted without integrating
    assert T._even_steps(6250.0, 0.0625) == T.MAX_SEGMENT_STEPS
    for duration, step in ((6250.0, 0.0624), (0.3, 1e-9), (1e300, 1e-300)):
        with pytest.raises(ValueError, match="RK4 steps per segment"):
            T._even_steps(duration, step)
