import dataclasses

import numpy as np
import pytest

from kcontact import connection as C
from kcontact import transport as T
from kcontact.errors import ChartError, DomainError, SamplingError


def reeb_flow(chart, x, s):
    """Point of the Reeb flow from x after time s."""
    return T._reeb_flow_batch(chart, x[None], np.array([s]))[0]


def ortho_tau(chart, res):
    P0, L0t = C.orthonormal_frame_change(C.frame_data(chart, res.start[None], order=1).G)
    P1, L1t = C.orthonormal_frame_change(C.frame_data(chart, res.end[None], order=1).G)
    return L1t[0] @ res.tau @ np.linalg.inv(L0t[0])


def draw_paths(chart, x0, n_paths, segments, horizon, magnitude, seed, step=0.02,
               vertical=0.0, max_attempts=60):
    """The accepted paths of a one-half sampling pass."""
    ((paths, _, _, _),) = T._sample_and_integrate(
        chart, x0, n_paths, segments, horizon, magnitude, seed, step, [vertical],
        max_attempts=max_attempts)
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


@pytest.mark.parametrize("kind", ["schouten", "adapted", "wagner"])
def test_transport_isometry(charts, kind):
    chart = charts["disc_disc_12"]
    x0 = np.zeros(5)
    vertical = 0.0 if kind == "schouten" else 0.3
    paths = draw_paths(chart, x0, 6, 4, 1.2, 0.45, seed=2, vertical=vertical)
    for path in paths:
        res = T.transport(chart, path, kind)
        to = ortho_tau(chart, res)
        assert np.max(np.abs(to.T @ to - np.eye(4))) < 1e-7


def test_three_kinds_coincide_on_horizontal_curves(charts):
    chart = charts["bergman"]
    paths = draw_paths(chart, np.zeros(5), 4, 4, 1.2, 0.45, seed=3)
    for path in paths:
        taus = [T.transport(chart, path, k).tau for k in T.TRANSPORT_KINDS]
        assert np.max(np.abs(taus[0] - taus[1])) < 1e-6
        assert np.max(np.abs(taus[0] - taus[2])) < 1e-6


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
    # the flow and its Jacobian read xi and dxi; theta, frame and metric
    # jets would be built and thrown away at every RK4 stage
    calls = {"theta": 0, "xi": 0, "frame": 0, "metric": 0}

    def counted(name):
        fn = getattr(charts["bergman"], name)

        def wrapper(x):
            calls[name] += 1
            return fn(x)

        return wrapper

    chart = dataclasses.replace(charts["bergman"], **{k: counted(k) for k in calls})
    X = np.array([[0.1, -0.2, 0.05, 0.3, 0.0], [0.0, 0.1, -0.3, 0.2, 0.5]])
    _, J = T._reeb_flow_batch(chart, X, np.array([0.4, -0.2]), step=0.1, jacobian=True)
    assert J.shape == (2, 5, 5)
    # four RK4 stages per step, four steps for the longest time 0.4
    assert calls == {"theta": 0, "xi": 16, "frame": 0, "metric": 0}


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
    # an unbalanced loop is rejected
    bad = T.ControlPath(np.zeros(5), np.zeros((1, 4)), 0.5, vertical=np.array([1.0]))
    with pytest.raises(ChartError):
        T.transport_equivalence_check(chart, bad)


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
    with pytest.raises(ValueError):
        draw_paths(chart, x0, 2, 0, 1.0, 0.4, seed=0)


def test_sampler_exhaustion(charts):
    chart = charts["heisenberg"]
    with pytest.raises(SamplingError):
        draw_paths(chart, np.zeros(5), 1, 2, 0.5, 200.0, seed=0, max_attempts=5)


# a bergman sampler whose pass escapes at indices 1 and 3 of each half;
# index 3 needs four redraws, so later redraw batches shrink
REDRAW_SAMPLER = T.SamplerConfig(n_paths=6, segments=2, horizon=0.6,
                                 magnitude=1.5, step=0.05, seed=1)


def _reference_pass(chart, x0, s, vertical):
    """Per-index, attempt-by-attempt reference for one half of a pass."""
    kind = "adapted" if vertical else "schouten"
    out = []
    for i in range(s.n_paths):
        for attempt in range(60):
            path = T._draw_path(chart, x0, s.segments, s.horizon, s.magnitude,
                                s.seed, s.step, vertical, i, attempt)
            try:
                x, M, f, _, _, _, _ = T._integrate_controls(
                    chart, *T._path_arrays([path]), s.horizon, s.step, kind=kind)
            except DomainError:
                continue
            out.append((attempt, path, x[0], M[0], f[0]))
            break
    return out


def test_batched_redraws_match_per_index_reference(charts, monkeypatch):
    # the two halves of one pass, integrated and redrawn as one batch, give
    # each half bit for bit what that half gives path by path on its own
    chart = charts["bergman"]
    x0 = np.zeros(5)
    verticals = (0.0, REDRAW_SAMPLER.magnitude)
    refs = [_reference_pass(chart, x0, REDRAW_SAMPLER, v) for v in verticals]
    for ref in refs:
        assert sum(attempt > 0 for attempt, *_ in ref) >= 2
    draws = []
    draw = T._draw_path

    def recording_draw(*args):
        draws.append((args[7], int(args[8]), int(args[9])))
        return draw(*args)

    monkeypatch.setattr(T, "_draw_path", recording_draw)
    halves = T.sampled_path_transports(chart, x0, REDRAW_SAMPLER)
    assert len(halves) == 2
    expected_draws = {(v, i, a) for v, ref in zip(verticals, refs)
                      for i, (last, *_) in enumerate(ref) for a in range(last + 1)}
    assert len(draws) == len(expected_draws) and set(draws) == expected_draws
    for (paths, ends, taus, fs), ref in zip(halves, refs):
        assert len(paths) == len(ref) == REDRAW_SAMPLER.n_paths
        for i, (_, path, end, tau, f) in enumerate(ref):
            assert np.array_equal(paths[i].controls, path.controls)
            if path.vertical is None:
                assert paths[i].vertical is None
            else:
                assert np.array_equal(paths[i].vertical, path.vertical)
            assert np.array_equal(ends[i], end)
            assert np.array_equal(taus[i], tau)
            assert fs[i] == f


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
    # with Reeb controls at magnitude 6 the second half's index 3 (row 9 of
    # the batch) needs 14 draws, while the horizontal half is complete
    # after 5
    chart = charts["bergman"]
    s = REDRAW_SAMPLER
    args = (chart, np.zeros(5), s.n_paths, s.segments, s.horizon, s.magnitude,
            s.seed, s.step, [0.0, 6.0])
    with pytest.raises(SamplingError, match=r"for index 3 after 5 attempts"):
        T._sample_and_integrate(*args, max_attempts=5)
    horizontal, adapted = T._sample_and_integrate(*args, max_attempts=14)
    assert len(horizontal[0]) == len(adapted[0]) == s.n_paths


def test_integrator_fourth_order(charts):
    chart = charts["disc_disc_12"]
    rng = np.random.default_rng(15)
    controls = rng.normal(0, 0.5, (3, 4))
    h0 = 0.12

    def tau(step):
        path = T.ControlPath(np.zeros(5), controls, horizon=1.2, step=step)
        return T.transport(chart, path, "schouten").tau

    ref = tau(h0 / 8)
    e1 = np.linalg.norm(tau(h0) - ref)
    e2 = np.linalg.norm(tau(h0 / 2) - ref)
    ratio = e1 / e2
    assert 11.0 < ratio < 22.0, (e1, e2, ratio)


def test_sampled_route_matches_joint_route(charts):
    chart = charts["disc_disc_12"]
    rng = np.random.default_rng(16)
    controls = rng.normal(0, 0.3, (2, 4))
    vertical = np.array([0.5, -0.3])
    path = T.ControlPath(np.zeros(5), controls, horizon=0.8, step=0.005,
                         vertical=vertical)
    for kind in ("adapted", "wagner"):
        joint = T.transport(chart, path, kind).tau
        sampled = T._transport_sampled(chart, T.sample_curve(chart, path), kind)
        assert np.max(np.abs(joint - sampled)) < 1e-6, kind


def test_domain_exit_raises_with_position(charts):
    chart = charts["disc_disc_11"]
    path = T.ControlPath(np.zeros(5), np.full((1, 4), 3.0), horizon=1.0)
    with pytest.raises(DomainError) as exc:
        T.transport(chart, path, "schouten")
    assert exc.value.point is not None
