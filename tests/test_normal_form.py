"""Charts in normal form against the general path.

Every built-in chart is marked ``normal_form``: its Reeb field is d/dt, its
frame is e_a = d/dx_a + f_a d/dt, no coefficient function reads t, and its
metric is block diagonal over ``chart.blocks``.  The positions pass of
control paths, the Reeb flow (t alone) and the transport (``Gamma`` from
the metric alone and a zero Reeb term, at plain midpoints) take shortcuts
there with the same bits; the frame solve and the metric inverse take
closed forms, which agree with LAPACK's up to rounding.  Only the charts'
constructor sets the mark, so ``dataclasses.replace(chart)`` runs the same
chart on the general path.
"""

import dataclasses
import inspect
import warnings
from pathlib import Path

import numpy as np
import pytest

from kcontact import cli
from kcontact import connection as C
from kcontact import holonomy as H
from kcontact import manifolds as M
from kcontact import transport as T
from kcontact.errors import DomainError

from conftest import domain_points
from fd_oracles import (block_pairs_reference, draw_path, gauged_chart, horizontalize_reference,
                        outside_for_any_t_reference, reeb_adapted_samples, reeb_draws,
                        reeb_sampled_curves, reeb_sampled_path_transports, rotated_chart,
                        transport_data_reference, transport_positions_per_step)
from test_rotated_chart import WIDE_MIXES
from test_transport import BLOCK_CASES, block_pass

# the five examples and the three m = 3 mixes of the wide_products workload
CONFIGS = {**M.EXAMPLES,
           **{name: {"type": "product", "factors": mix} for name, mix in WIDE_MIXES.items()}}


def _chart(name):
    return M.chart_from_config(CONFIGS[name])


def _outcome(fn):
    """``fn()``, or the message and point of the :class:`DomainError` it raises."""
    try:
        return fn()
    except DomainError as exc:
        return str(exc), exc.point.tobytes()


def both_ways(chart, run):
    """``run(chart)`` on the normal-form path and on the general path, with
    every warning an error."""
    assert chart.normal_form
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return run(chart), run(dataclasses.replace(chart))


# a disc of b = 100 beside a unit disc: t moves 100 times faster along the
# first, so most rows leave through t alone
T_ONLY = {"type": "product", "factors": [{"kind": "poincare_disc", "b": 100.0},
                                         {"kind": "poincare_disc"}]}


def _first_exits(chart, xs, alive):
    """``(step, segment, through t alone, point)`` of each escaped row's
    first position outside the domain, in row order: its step along the
    path, its segment, whether its horizontal coordinates are still inside,
    and its bytes."""
    P_, K, per, n = xs.shape
    path = xs[:, :, 1:].reshape(P_, K * (per - 1), n)
    step = np.argmax(~chart.domain.contains(path), axis=1)
    return [(s, s // (per - 1), bool(chart.domain.contains(path[p, s, :-1])), path[p, s].tobytes())
            for p, s in zip(np.nonzero(~alive)[0], step[~alive])]


@pytest.mark.parametrize("name,t_frac", [(name, t_frac) for name in CONFIGS for t_frac in (0.0, 0.9)]
                         + [("disc_b100_disc", 0.0)])
def test_positions_pass_matches_general_path(name, t_frac):
    # 24 rows of 3 segments, and 24 of 6 segments over twice the horizon at
    # 0.6 of the magnitude; from t = 0 some rows leave the balls or the box,
    # those of 6 segments in segments 2 and 4 too, from t near the top of
    # the box many leave through t alone, whose velocity the chart gives,
    # and on T_ONLY most do from t = 0.  The normal-form pass evaluates such
    # a row on to its horizontal exit or the path's end and drops those
    # values; xs, alive and the exit that a raising pass names are the
    # general route's, and that exit is the earliest one, of the lowest row
    chart = M.chart_from_config(CONFIGS.get(name, T_ONLY))
    x0 = np.zeros(chart.dim)
    x0[-1] = t_frac * chart.domain.hi[-1]
    mag = 3.0 if name == "heisenberg" else 0.9
    exits = []
    for segments, horizon, scale in ((3, 1.2, 1.0), (6, 2.4, 0.6)):
        paths = [T._draw_path(chart, x0, segments, horizon, scale * mag, 7, 0.02, i, 0)
                 for i in range(24)]

        def run(c):
            xs, alive, h = T._integrate_positions(c, paths, 0.02, raise_on_exit=False)
            raised = _outcome(lambda: T._integrate_positions(c, paths, 0.02))
            return xs.tobytes(), alive.tobytes(), h, raised, xs, alive

        (*fast, xs, alive), (*slow, _, _) = both_ways(chart, run)
        assert fast == slow
        exits.append(_first_exits(chart, xs, alive))
        message, point = fast[3]
        assert message.startswith("curve left the chart domain at")
        assert point == min(exits[-1], key=lambda e: e[0])[3]
    assert 0 < len(exits[0]) < len(paths)
    if name == "disc_b100_disc" or t_frac > 0.0:
        assert any(t_alone for _, _, t_alone, _ in exits[0] + exits[1])
    else:
        assert {1, 3} <= {seg for _, seg, t_alone, _ in exits[1] if not t_alone}


def test_positions_pass_with_every_row_frozen_matches_general_path(charts):
    # every row escapes in an early segment; the later ones only copy them
    chart = charts["bergman"]
    paths = [T._draw_path(chart, np.zeros(5), 6, 3.0, 3.0, 1, 0.02, i, 0) for i in range(3)]

    def run(c):
        xs, alive, h = T._integrate_positions(c, paths, 0.02, raise_on_exit=False)
        return xs.tobytes(), alive.tobytes(), h, alive.any()

    fast, slow = both_ways(chart, run)
    assert fast == slow and not fast[-1]


def test_positions_pass_evaluates_no_step_past_an_exit(charts, monkeypatch):
    # a row is evaluated up to the step on which it leaves the balls, whose
    # start is inside, and not at the points it would reach afterwards
    chart = charts["bergman"]
    paths = [T._draw_path(chart, np.zeros(5), 3, 1.2, 0.9, 7, 0.02, i, 0) for i in range(12)]
    evaluate, starts = T.chart_arrays, []

    def recording(c, X, order=1, **kwargs):
        starts.append(X[:, 0])
        return evaluate(c, X, order, **kwargs)

    monkeypatch.setattr(T, "chart_arrays", recording)
    _, alive, _ = T._integrate_positions(chart, paths, 0.02, raise_on_exit=False)
    assert 0 < alive.sum() < len(paths)
    assert np.all(chart.domain.contains(np.concatenate(starts)))


@pytest.mark.parametrize("name", [*CONFIGS, "rotated_bergman"])
def test_contains_on_horizontal_coordinates_is_the_t_free_rule(name):
    # the positions pass masks its evaluations with Domain.contains on the
    # first 2m coordinates: the box on those and the balls among them decide,
    # as in the rule the pass applied on its own before, also at a point
    # exactly on lo, hi or a ball's radius and one float beyond
    chart = rotated_chart(_chart("bergman"), (0, 1), 0.7) if name.startswith("rotated") \
        else _chart(name)
    dom, tm = chart.domain, 2 * chart.m
    H = np.random.default_rng(7).uniform(1.2 * dom.lo[:tm], 1.2 * dom.hi[:tm], (4, 16, tm))
    # (coordinate, boundary value) pairs: lo, hi and minus each ball's radius
    edges = [(i, bound[i]) for i in range(tm) for bound in (dom.lo, dom.hi)]
    edges += [(idx[-1], -radius) for idx, radius in dom.balls]
    on, beyond = np.zeros((2, len(edges), tm))
    for k, (i, v) in enumerate(edges):
        on[k, i], beyond[k, i] = v, np.nextafter(v, np.copysign(np.inf, v))
    for X in (H, on, beyond):
        assert np.array_equal(dom.contains(X), ~outside_for_any_t_reference(dom, X))
    assert np.all(dom.contains(on)) and not np.any(dom.contains(beyond))
    assert 0 < np.count_nonzero(dom.contains(H)) < 64


@pytest.mark.parametrize("name", CONFIGS)
def test_reeb_flow_matches_general_path(name):
    chart = _chart(name)
    X = domain_points(chart, 40, seed=1, margin=0.8)
    rng = np.random.default_rng(2)
    times, V = rng.uniform(-0.5, 0.5, len(X)), rng.normal(size=X.shape)
    # zeros of both signs in durations, coordinates and vectors: the general
    # steps turn -0.0 + +0.0 into +0.0, and the normal-form route must too
    Z, W = X.copy(), V.copy()
    zero = rng.random(X.shape) < 0.4
    for A, signs in ((Z, (0.0, -0.0)), (W, (-0.0, 0.0))):
        A[0::2][zero[0::2]], A[1::2][zero[1::2]] = signs
    tz = times.copy()
    tz[:6], tz[6:12] = 0.0, -0.0
    # 0.02 * tz flows one step: a t of +-0.0 takes its increment unrounded,
    # so every bit of the increment shows
    # the last rows start near the top of the box and flow up out of it
    X_out = X[-3:].copy()
    X_out[:, -1] = chart.domain.hi[-1] - 0.05
    # rows that leave through the top and the bottom of t at different steps;
    # the first to leave is neither the first row nor the last to leave
    lo, hi = chart.domain.lo[-1], chart.domain.hi[-1]
    X_exit = X[-4:].copy()
    X_exit[:, -1] = hi - 0.2, lo + 0.3, lo + 0.05, 0.0
    t_exit = np.array([0.5, -0.5, -0.5, 0.1])

    def run(c):
        y, z = T._reeb_flow_batch(c, X, times, vectors=V)
        return (y.tobytes(), z.tobytes(),
                T._reeb_flow_batch(c, X, times, vectors=np.zeros_like(X))[0].tobytes(),
                *(a.tobytes() for d in (tz, 0.02 * tz)
                  for a in T._reeb_flow_batch(c, Z, d, vectors=W)),
                _outcome(lambda: T._reeb_flow_batch(c, X_exit, t_exit, vectors=W[:4])),
                _outcome(lambda: T._reeb_flow_batch(c, X_out, np.full(3, 0.5), vectors=V[:3])))

    fast, slow = both_ways(chart, run)
    assert fast == slow
    assert fast[-1][0].startswith("Reeb flow left the chart domain at")
    bad = np.frombuffer(fast[-2][1])
    assert bad[-1] < lo and np.array_equal(bad[:-1], X_exit[2, :-1])


def test_reeb_flow_on_normal_form_takes_no_rk4_step(charts, monkeypatch):
    # on normal form the flow is array arithmetic on t: no RK4 step and no
    # chart call, also when it leaves the domain; the general path takes both
    chart = charts["bergman"]
    X = domain_points(chart, 16, seed=1)
    calls = []
    for name in ("_rk4_step", "chart_arrays"):
        real = getattr(T, name)
        monkeypatch.setattr(T, name, lambda *a, _real=real, _name=name, **k:
                            calls.append(_name) or _real(*a, **k))
    T._reeb_flow_batch(chart, X, np.full(16, 0.3), vectors=X[::-1])
    with pytest.raises(DomainError):
        T._reeb_flow_batch(chart, X, np.full(16, -9.0), vectors=X)
    assert calls == []
    T._reeb_flow_batch(dataclasses.replace(chart), X, np.full(16, 0.3), vectors=X[::-1])
    assert set(calls) == {"_rk4_step", "chart_arrays"}


def test_long_horizon_pass_matches_general_path(charts, monkeypatch):
    # at horizon 4.8 most first draws escape: the pass redraws in many
    # batches, each with rows frozen at their escape
    sampler = T.SamplerConfig(n_paths=16, segments=16, horizon=4.8)
    integrate, batches = T._integrate_positions, []

    def recording(*args, **kwargs):
        xs, alive, h = integrate(*args, **kwargs)
        batches.append((xs.tobytes(), alive.tobytes(), h, int(np.sum(~alive))))
        return xs, alive, h

    monkeypatch.setattr(T, "_integrate_positions", recording)

    def run(c):
        batches.clear()
        paths, ends, taus = T.sampled_path_transports(c, np.zeros(5), sampler)
        return list(batches), np.stack([p.controls for p in paths]).tobytes(), ends.tobytes(), taus

    fast, slow = both_ways(charts["bergman"], run)
    # positions, alive flags, controls and ends keep their bits; the
    # transports read the closed-form Gamma, which moves by rounding only
    assert fast[:3] == slow[:3]
    assert _rel(fast[3], slow[3]) <= 1e-14
    frozen = [b[-1] for b in fast[0]]
    assert len(frozen) > 2 and frozen[0] > 0


@pytest.mark.parametrize("name", [*CONFIGS, "heisenberg(3)"])
def test_declared_normal_form_holds(name):
    chart = M.heisenberg(3) if name == "heisenberg(3)" else _chart(name)
    assert chart.normal_form
    arr = M.chart_arrays(chart, domain_points(chart, 64, seed=5), order=1)
    tm, n = 2 * chart.m, chart.dim
    assert np.array_equal(arr.E[:, :tm], np.broadcast_to(np.eye(tm), (64, tm, tm)))
    assert np.array_equal(arr.xi, np.broadcast_to(np.eye(n)[-1], (64, n)))
    for d in (arr.dth, arr.dxi, arr.dE, arr.dG):
        assert not np.any(d[..., -1])
    # G is exactly zero off the blocks and symmetric on each: the blocks
    # are what the metric inverse of a normal-form chart inverts
    on = np.zeros((tm, tm), dtype=bool)
    for blk in chart.blocks:
        ix = np.ix_(blk, blk)
        on[ix] = True
        assert np.array_equal(arr.G[(..., *ix)], arr.G[(..., *ix)].swapaxes(-1, -2))
    assert sorted(i for blk in chart.blocks for i in blk) == list(range(tm))
    assert not np.any(arr.G[:, ~on])


def test_only_the_constructor_marks_the_form():
    # no caller can mark a chart that does not hold the form
    chart = _chart("bergman")
    parts = (chart.m, chart.domain, chart.theta, chart.xi, chart.frame, chart.metric)
    with pytest.raises(TypeError):
        M.ContactChart(*parts, normal_form=True)
    with pytest.raises(TypeError):
        M.ContactChart(*parts, blocks=chart.blocks)
    with pytest.raises(ValueError):
        dataclasses.replace(chart, blocks=chart.blocks)
    bare = M.ContactChart(*parts)
    assert (bare.normal_form, bare.blocks) == (False, ())


@pytest.mark.parametrize("name", CONFIGS)
def test_replaced_chart_is_unmarked(name):
    # replace runs __init__, which leaves the mark and the blocks unset; the
    # loop builder's pairs (2k, 2k + 1) are those the blocks gave
    chart = _chart(name)
    bare = dataclasses.replace(chart)
    assert chart.normal_form and not bare.normal_form
    assert bare.blocks == ()
    assert block_pairs_reference(chart) == [(2 * k, 2 * k + 1) for k in range(chart.m)]


def test_rotated_chart_is_not_declared_normal(charts):
    # the coordinate-change oracle leaves the form: its Reeb field and
    # frame move with the point and t
    chart = rotated_chart(charts["disc_disc_12"], (0, 1), 0.7)
    assert not chart.normal_form
    arr = M.chart_arrays(chart, domain_points(chart, 8, seed=5), order=1)
    assert np.any(arr.dE[..., -1]) and np.any(arr.dxi)


def test_normal_form_passes_make_few_chart_calls(charts, monkeypatch):
    # a positions pass of 64 paths makes one order-0 evaluation per ROWS
    # steps (three stage points per step and row), not four per step, and
    # the Reeb flow makes none
    chart = charts["heisenberg"]  # these paths never escape
    paths = [T._draw_path(chart, np.zeros(5), 4, 1.2, 0.45, 0, 0.02, i, 0) for i in range(64)]
    evaluate, calls = T.chart_arrays, []

    def counted(c, X, order=1, **kwargs):
        calls.append((order, X.shape))
        return evaluate(c, X, order, **kwargs)

    monkeypatch.setattr(T, "chart_arrays", counted)
    xs, alive, _ = T._integrate_positions(chart, paths, 0.02)
    steps, chunk = xs.shape[2] - 1, T.ROWS
    assert alive.all() and 64 * steps % chunk == 0
    assert calls == [(0, (chunk, 3, 5))] * (4 * 64 * steps // chunk)
    calls.clear()
    T._integrate_positions(dataclasses.replace(chart), paths, 0.02)
    assert len(calls) == 4 * 4 * steps
    calls.clear()
    X = domain_points(chart, 16, seed=1)
    T._reeb_flow_batch(chart, X, np.full(16, 0.3), vectors=X[::-1])
    T._reeb_flow_batch(chart, X, np.full(16, -0.3), vectors=X)
    assert calls == []


def _rel(got, ref):
    """Largest difference relative to ``max(1, |ref|)``: the closed forms
    give exact zeros where LAPACK leaves rounding noise."""
    return float(np.max(np.abs(got - ref), initial=0.0) / max(1.0, np.max(np.abs(ref), initial=0.0)))


@pytest.mark.parametrize("name", [*CONFIGS, "heisenberg(3)"])
def test_closed_form_solve_matches_general_path(name):
    # the closed-form [E | xi]^-1 and block G^-1 move the transport rates,
    # Gamma, the curvature and the velocity split by rounding only; the
    # normal form has no Reeb term, the general path's is zero to rounding
    chart = M.heisenberg(3) if name == "heisenberg(3)" else _chart(name)
    X = domain_points(chart, 32, seed=6)
    V = np.random.default_rng(7).normal(size=X.shape)

    def run(c):
        lean = C.transport_data(c, X)
        xi = lean.xi_coeffs
        data = C.frame_data(c, X, order=2)
        return ([lean.rates(V[:, :-1], w) for w in (None, V[:, -1])]
                + [np.zeros_like(lean[1].Ginv) if xi is None else xi]
                + [getattr(data, f.name) for f in dataclasses.fields(data)
                   if isinstance(getattr(data, f.name), np.ndarray)]
                + list(T._split_velocities(c, X, V)))

    fast, slow = both_ways(chart, run)
    assert len(fast) == len(slow) == 27
    assert max(_rel(g, r) for g, r in zip(fast, slow, strict=True)) <= 1e-14


def _signed_zero_points(n, count=40):
    """Fixed points of an n-dimensional chart inside every built-in domain,
    with coordinates of +0.0 and -0.0: those of ``report_digests.chart_points``,
    a script that pins BLAS threads in ``os.environ`` when imported."""
    X = np.random.default_rng(11).uniform(-0.4, 0.4, (count, n))
    X[0], X[1] = 0.0, -0.0
    for i in range(2, count):
        X[i, i % n] = 0.0 if i % 2 else -0.0
    return X


@pytest.mark.parametrize("name", [*CONFIGS, "heisenberg(3)"])
def test_transport_data_bits_do_not_depend_on_the_batch(name):
    # a normal-form transport pass evaluates a block's ends and midpoints
    # in one call: each row's data have the bits of the separate calls on
    # the ends and on the midpoints, and of one row alone; no call has a
    # Reeb term
    chart = M.heisenberg(3) if name == "heisenberg(3)" else _chart(name)
    X = _signed_zero_points(chart.dim).reshape(4, 10, chart.dim)
    A, B = X[:, :7], X[:, 7:]
    joint = C.transport_data(chart, np.concatenate([A, B], axis=1))
    parts = [C.transport_data(chart, Y) for Y in (A, B)]
    rows = [C.transport_data(chart, X[:1, j:j + 1]) for j in range(10)]
    for f in ("Ginv", "D"):
        got = getattr(joint, f)
        split = np.concatenate([getattr(d, f) for d in parts], axis=1)
        assert got.tobytes() == split.tobytes(), f
        alone = np.concatenate([getattr(d, f) for d in rows], axis=1)
        assert got[:1].tobytes() == alone.tobytes(), f
    assert joint.xi_coeffs is None


def test_transport_data_makes_no_lapack_inverse(charts, monkeypatch):
    # the frame solve and the width-2 G blocks of disc_disc_12 are closed
    # forms, and the velocity split solves nothing; the general path solves
    # [E | xi] against I and inverts G
    chart = charts["disc_disc_12"]
    X = domain_points(chart, 16, seed=8)
    calls = []
    for name in ("inv", "solve"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name,
                            lambda *a, _real=real, _name=name: calls.append(_name) or _real(*a))
    C.transport_data(chart, X)
    T._split_velocities(chart, X, X)
    assert calls == []
    C.transport_data(dataclasses.replace(chart), X)
    assert calls == ["solve", "inv"]


@pytest.mark.parametrize("name", [*CONFIGS, "heisenberg(3)"])
def test_horizontal_transport_data_is_the_koszul_assembly(name):
    # the horizontal route reads dG alone; contracted with one u, its rates
    # have the bits of the brackets, the frame solve, the frame derivatives
    # and the bracket terms, also at coordinates of +0.0 and -0.0; those
    # bits read neither t nor the sign of a zero, so the pass may drop the
    # Hermite midpoint's horizontal 0 and its t part; the data have no Reeb
    # term: their rates with a Reeb velocity w have the bits of the full
    # assembly's, whose Reeb term is +0.0
    chart = M.heisenberg(3) if name == "heisenberg(3)" else _chart(name)
    X = domain_points(chart, 48, seed=10)
    zero = np.random.default_rng(11).random(X.shape) < 0.4
    X[:16][zero[:16]] = 0.0
    X[16:32][zero[16:32]] = -0.0
    u = np.random.default_rng(12).normal(size=(48, 2 * chart.m))
    w = np.random.default_rng(13).normal(size=48)

    def rates(data, w=None):
        return data.rates(u, w).tobytes()

    got = C.transport_data(chart, X)
    assert got.xi_coeffs is None
    assert rates(got) == rates(transport_data_reference(chart, X))
    moved = X.copy()
    moved[:32][zero[:32]] *= -1.0  # +0.0 <-> -0.0
    moved[:, -1] = X[::-1, -1]
    assert rates(C.transport_data(chart, moved)) == rates(got)
    ref = transport_data_reference(chart, X)
    assert not np.any(ref.xi_coeffs)
    assert rates(got, w) == rates(ref, w)


@pytest.mark.parametrize("name", [*CONFIGS, "heisenberg(3)"])
def test_normal_form_curvature_pass_is_the_full_assembly(name):
    # on normal form the second-order pass skips the bracket terms, which
    # are exact zeros there ([e_a, e_b] is vertical, [xi, e_a] = 0, G reads
    # no t); its curvature fields keep the bits of the full assembly, also
    # at the origin and at coordinates of +0.0 and -0.0; both read the
    # Koszul sum of the general path's D
    chart = M.heisenberg(3) if name == "heisenberg(3)" else _chart(name)
    X = domain_points(chart, 40, seed=13)
    zero = np.random.default_rng(14).random(X.shape) < 0.4
    X[2:20][zero[2:20]] = 0.0
    X[20:][zero[20:]] = -0.0
    X[0], X[1] = 0.0, -0.0
    arr = M.chart_arrays(chart, X, order=2)
    Br, Minv, cfull = C.frame_brackets(arr, True)
    D = C._transport_data(arr, dataclasses.replace(chart), cfull, C.reeb_brackets(arr, Minv)).D
    fields = ("R", "RW", "N", "alpha", "domega")
    out = []
    for normal_form in (True, False):
        data = C.frame_data(chart, X, order=1)
        C._curvature_inplace(arr, Br, Minv, C._koszul_sum(D), data, normal_form)
        out.append([np.ascontiguousarray(getattr(data, f)).tobytes() for f in fields])
    for f, lean, full in zip(fields, *out):
        assert lean == full, f


def test_horizontal_transport_data_reads_the_metric_alone(charts, monkeypatch):
    # on normal form a transport, of control paths or of a sampled curve,
    # evaluates G alone, also on the Reeb route; the general path evaluates
    # xi, E and G
    chart = charts["bergman"]
    evaluate, calls = C.chart_arrays, []

    def recording(c, X, order=1, fields=M.CHART_FIELDS):
        calls.append(fields)
        return evaluate(c, X, order, fields=fields)

    monkeypatch.setattr(C, "chart_arrays", recording)
    path = T._draw_path(chart, np.zeros(5), 4, 1.2, 0.45, 0, 0.02, 0, 0)
    T.sampled_path_transports(chart, np.zeros(5), T.SamplerConfig(n_paths=4))
    T.transport(chart, path, "schouten")
    T._transport_sampled(chart, T.sample_curve(chart, path), "schouten")
    assert len(calls) > 3 and set(calls) == {("G",)}
    calls.clear()
    X = domain_points(chart, 8, seed=12)
    C.transport_data(chart, X)
    C.transport_data(dataclasses.replace(chart), X)
    assert calls == [("G",), ("xi", "E", "G")]


@pytest.mark.parametrize("name", CONFIGS)
def test_adapted_transports_have_the_bits_of_the_full_assembly(name, monkeypatch):
    # the Reeb route reads G alone and takes plain midpoints; along control
    # paths, single or in a batch, and along curves with a Reeb component (a
    # path with Reeb controls sampled by the oracle, a balanced loop), the
    # adapted transports keep the bits of the brackets, the frame solve and
    # the full Koszul sum at Hermite midpoints
    chart = _chart(name)
    x0 = np.zeros(chart.dim)
    path, w = draw_path(chart, x0, 4, 1.2, 0.45, 3, 0.02, 0.45, 0, 0)
    (reeb,) = reeb_sampled_curves(chart, [path], w[None])
    loop = T.sample_curve(chart, T.balanced_loop(chart, x0, np.random.default_rng(4)),
                          T.LOOP_STEP)
    assert np.all(reeb.ws != 0.0)

    def run():
        _, _, taus = T.sampled_path_transports(chart, x0, T.SamplerConfig(n_paths=16, seed=3))
        return (taus.tobytes(), T.transport(chart, path, "adapted").tau.tobytes(),
                *(T._transport_sampled(chart, sc, "adapted").tobytes() for sc in (reeb, loop)))

    fast = run()
    monkeypatch.setattr(T, "transport_data", transport_data_reference)
    assert fast == run()


def _equivalence_cases():
    """(config, how its chart or loop is changed, evaluations of the loop)."""
    cases = [(name, None, 1) for name in M.EXAMPLES]
    cases += [("bergman", kind, 2) for kind in ("rotated", "gauged", "replaced", "negative_zeros")]
    return [pytest.param(name, kind, calls, id=f"{kind}_{name}" if kind else name)
            for name, kind, calls in cases]


def _negative_zeros(curve):
    """``curve`` with every +0.0 among its horizontal coordinates as -0.0."""
    def flipped(s, pos):
        x = pos(s)
        x[:, :-1] = np.where(x[:, :-1] == 0.0, -0.0, x[:, :-1])
        return x
    return T.ParametricCurve([(d, lambda s, p=p: flipped(s, p), v) for d, p, v in curve.pieces])


@pytest.mark.parametrize("name, kind, calls", _equivalence_cases())
def test_equivalence_check_evaluates_a_normal_form_loop_once(name, kind, calls, monkeypatch):
    # on normal form the Reeb flow moves t alone and no coefficient reads t,
    # so one transport_data call on the loop serves the adapted and the
    # Schouten route, and one order-0 chart evaluation both velocity splits
    # of horizontalize; every other chart evaluates the flowed loop again
    # (its Reeb flow also evaluates xi at order 1 on every RK4 stage), and
    # so does a normal-form loop whose -0.0 the flow turns into +0.0.
    # The residual and the flowed curve are the bits of the two public
    # routes on a flowed loop split at its own points
    change = {"rotated": lambda c: rotated_chart(c, (0, 1), 0.7),
              "gauged": lambda c: gauged_chart(c, (1, 2), 0.7),
              "replaced": dataclasses.replace}
    chart = change.get(kind, lambda c: c)(_chart(name))
    loop = T.balanced_loop(chart, np.zeros(chart.dim), np.random.default_rng(2))
    if kind == "negative_zeros":
        loop = _negative_zeros(loop)
    sc = T.sample_curve(chart, loop, T.LOOP_STEP)
    assert np.any(sc.xs[:, :-1] == 0.0)
    tilde_ref = horizontalize_reference(chart, sc)
    ref = float(np.linalg.norm(T.transport(chart, sc, "adapted").tau
                               - T.transport(chart, tilde_ref, "schouten").tau))
    seen = []
    evaluate, connect = T.chart_arrays, T.transport_data

    def evaluated(c, X, order=1, **kwargs):
        seen.extend([("chart_arrays", len(X))] if order == 0 else [])
        return evaluate(c, X, order, **kwargs)

    def connected(c, X):
        seen.append(("transport_data", len(X)))
        return connect(c, X)

    monkeypatch.setattr(T, "chart_arrays", evaluated)
    monkeypatch.setattr(T, "transport_data", connected)
    resid, tilde = T.transport_equivalence_check(chart, sc)
    n = len(sc.xs)
    assert sorted(seen) == [("chart_arrays", n)] * calls + [("transport_data", n)] * calls
    assert resid.hex() == ref.hex() and (resid == 0.0 or not chart.normal_form)
    assert kind == "negative_zeros" or chart.normal_form == (calls == 1)
    for field in ("ts", "xs", "us", "ws", "theta_dot"):
        assert getattr(tilde, field).tobytes() == getattr(tilde_ref, field).tobytes()
    assert tilde.piece_slices == sc.piece_slices


def _pass_cases():
    """(config, paths, step, Reeb flow time of the start) over every block
    shape of ``BLOCK_CASES``; the 10-path case from x0 keeps the config's
    id."""
    return [pytest.param(name, n_paths, step, reeb,
                         id=name if (n_paths, step, reeb) == (10, 0.02, 0.0)
                         else f"{name}-{n_paths}-{step}-{reeb}")
            for name in CONFIGS for n_paths, step in BLOCK_CASES for reeb in (0.0, 0.45)]


@pytest.mark.parametrize("name, n_paths, step, reeb", _pass_cases())
def test_horizontal_pass_matches_hermite_midpoints(name, n_paths, step, reeb):
    # the pass reads the connection at the midpoints (x0 + x1)/2, in one
    # call per block with the block's ends, the per-step loop at the
    # Hermite midpoints, whose t differs: the transports have the same
    # bits, in blocks of one step, of part of a segment with a reprojection
    # inside, and of a whole segment.  With reeb > 0 the pass starts at x0
    # moved by the Reeb flow for that time, which moves t alone here: the
    # transports are those from x0, bit for bit
    chart = _chart(name)
    x0 = np.zeros(chart.dim)
    paths, xs, h, got = block_pass(chart, x0, n_paths, step)
    if reeb:
        moved, _ = T._reeb_flow_batch(chart, x0[None], np.array([reeb]), vectors=x0[None])
        assert np.array_equal(moved[0, :-1], x0[:-1]) and moved[0, -1] > 0.4
        assert block_pass(chart, moved[0], n_paths, step)[-1].tobytes() == got.tobytes()
    else:
        assert got.tobytes() == transport_positions_per_step(chart, xs, paths, h).tobytes()


def test_general_frame_solve_is_the_lapack_inverse(charts):
    # off normal form the frame solve of I is np.linalg.inv([E | xi]) bit
    # for bit, so the general path's Minv did not move when the solve
    # replaced the inverse
    chart = rotated_chart(charts["disc_disc_12"], (0, 1), 0.7)
    arr = M.chart_arrays(chart, domain_points(chart, 64, seed=9), order=0, fields=("xi", "E"))
    n = chart.dim
    got = C.frame_solve(arr, np.broadcast_to(np.eye(n), (64, n, n)), False)
    ref = np.linalg.inv(np.concatenate([arr.E, arr.xi[..., :, None]], axis=-1))
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("block, singular", [
    ([[1.0, 2.0], [2.0, 4.0]], True), ([[0.0, 0.0], [0.0, 1.0]], True),
    ([[0.0, 1.0], [1.0, 0.0]], False), ([[2.0, 1.0], [1.0, 3.0]], False),
], ids=["singular", "singular_zero_pivot", "zero_pivot", "regular"])
def test_metric_inverse_fails_where_lapack_does(block, singular):
    # a 2x2 block raises np.linalg.LinAlgError exactly when np.linalg.inv
    # does; an invertible block with a zero pivot goes to LAPACK
    G = np.tile(np.diag([1.0, 1.0, 2.0, 3.0]), (3, 1, 1))
    G[1, 2:, 2:] = block
    blocks = ((0, 1), (2, 3))
    if singular:
        for inverse in (np.linalg.inv, lambda G: C.metric_inverse(G, blocks)):
            with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
                inverse(G)
    else:
        assert np.max(np.abs(C.metric_inverse(G, blocks) - np.linalg.inv(G))) <= 1e-15


def test_singular_metric_block_exits_5(monkeypatch, capsys):
    # a disc metric that is singular everywhere: the run stops with the
    # message np.linalg.inv gives, not with a traceback
    monkeypatch.setattr(M, "_disc_metric", lambda spec, w, rad: [[1.0, 2.0], [2.0, 4.0]])
    cfg = Path(__file__).resolve().parent.parent / "configs" / "disc_disc_12.json"
    assert cli.main(["verify", "--config", str(cfg), "--seed", "0"]) == 5
    assert capsys.readouterr().err == "numerical failure: Singular matrix\n"


def _accepted_draws(chart, sampler, monkeypatch, run=reeb_sampled_path_transports):
    """The oracle's passes (or their draws alone, ``run=reeb_draws``)
    without and with Reeb controls at the sampler's magnitude, and the path
    indices whose accepted draw (the last) has the same attempt in both."""
    draw = T._draw_path
    signature = inspect.signature(draw)
    accepted, passes = {}, []

    def recording(*args, **kwargs):
        bound = signature.bind(*args, **kwargs).arguments
        accepted[len(passes) > 0, bound["i"]] = bound["attempt"]
        return draw(*args, **kwargs)

    monkeypatch.setattr(T, "_draw_path", recording)
    for vertical in (0.0, sampler.magnitude):
        passes.append(run(chart, np.zeros(chart.dim), sampler, vertical))
    monkeypatch.undo()
    same = [i for i in range(sampler.n_paths) if accepted[False, i] == accepted[True, i]]
    return passes, same


@pytest.mark.parametrize("name", CONFIGS)
def test_adapted_half_repeats_the_horizontal_half(name, monkeypatch):
    # on a normal-form chart [xi, e_a] = 0 and no coefficient reads t, so
    # Reeb controls move only t: where the oracle's two passes accept the
    # same attempt of path i, the paths with Reeb controls, transported with
    # their Reeb brackets, give the horizontal transports bit for bit, the
    # ends differ in t alone and their order-2 frame data do not differ at
    # all.  So there the adapted samples along the horizontal pass, which
    # holonomy_samples takes on every chart, are those along the Reeb paths
    # bit for bit
    chart = _chart(name)
    sampler = T.SamplerConfig(n_paths=16)
    ((h_paths, h_w, h_ends, h_taus), (a_paths, a_w, a_ends, a_taus)), same = _accepted_draws(
        chart, sampler, monkeypatch)
    assert len(same) >= sampler.n_paths // 2
    assert all(np.array_equal(a_paths[i].controls, h_paths[i].controls) for i in same)
    assert not np.any(h_w) and np.all(a_w[same] != 0.0)
    assert a_taus[same].tobytes() == h_taus[same].tobytes()
    assert a_ends[same, :-1].tobytes() == h_ends[same, :-1].tobytes()
    assert np.all(a_ends[same, -1] != h_ends[same, -1])
    h_data, a_data = (C.frame_data(chart, ends[same], order=2) for ends in (h_ends, a_ends))
    for field in dataclasses.fields(h_data):
        if field.name != "x" and isinstance(getattr(h_data, field.name), np.ndarray):
            assert getattr(a_data, field.name).tobytes() == getattr(h_data, field.name).tobytes()


def test_adapted_half_differs_off_normal_form(charts, monkeypatch):
    # on the rotated chart the Reeb brackets do not vanish, so the same
    # draw transports differently in the two passes
    sampler = T.SamplerConfig(n_paths=16)
    ((*_, h_taus), (*_, a_taus)), same = _accepted_draws(
        rotated_chart(charts["disc_disc_12"], (0, 1), 0.7), sampler, monkeypatch)
    assert len(same) >= sampler.n_paths // 2
    assert all(np.any(a_taus[i] != h_taus[i]) for i in same)


@pytest.mark.parametrize("name", ["bergman", "disc_disc_12", "perturbed_disc_disc",
                                  "gauged_bergman", "gauged_disc_disc_12"])
def test_adapted_samples_are_those_of_the_adapted_half(name):
    # the Wagner samples are the Wagner curvature RW at the horizontal
    # pass's ends, conjugated by its transports; the adapted samples are
    # the zero-extension curvature R at the same ends, conjugated by the
    # same transports, on every chart: the Reeb flow preserves the zero
    # extension, so paths with Reeb controls add no direction to its
    # algebra (test_reeb_and_horizontal_routes_span_one_adapted_algebra)
    gauged = name.startswith("gauged_")
    chart = gauged_chart(_chart(name[7:]), (1, 2), 0.7) if gauged else _chart(name)
    x0 = np.zeros(5)
    sampler = T.SamplerConfig(n_paths=16, seed=4)
    got = H.holonomy_samples(chart, x0, sampler)[0]
    _, ends, taus = T.sampled_path_transports(chart, x0, sampler)
    base = C.frame_data(chart, x0[None], order=2)
    data = C.frame_data(chart, ends, order=2)
    taus_o = C.ortho_transports(taus, data.Pinv, base.P[0])
    a, b = np.triu_indices(4, 1)
    for variant, field in (("wagner", "RW"), ("adapted", "R")):
        F0 = C.ortho_curvature(getattr(base, field), base.P, base.Pinv)[0, a, b]
        F = C.ortho_curvature(getattr(data, field), data.P, data.Pinv)[:, a, b]
        want = np.linalg.inv(taus_o)[:, None] @ F @ taus_o[:, None]
        want = np.concatenate([F0, 0.5 * (want - want.swapaxes(-1, -2)).reshape(-1, 4, 4)])
        assert got[variant].shape == want.shape == (6 * 17, 4, 4)
        assert np.max(np.abs(got[variant] - want)) <= 1e-13 * np.max(np.abs(want)), variant


def test_normal_form_pass_has_the_horizontal_half_alone(charts, monkeypatch):
    # every chart makes one horizontal pass, with nothing past the sampler:
    # the normal-form charts and, off normal form, the rotated and gauged
    # ones, whose adapted samples take its transports too
    passes = []
    sample_pass = H.sampled_path_transports

    def recording(*args, **kwargs):
        passes.append((args[3:], kwargs))
        return sample_pass(*args, **kwargs)

    monkeypatch.setattr(H, "sampled_path_transports", recording)
    sampler = T.SamplerConfig(n_paths=2)
    off_normal_form = [rotated_chart(charts["disc_disc_12"], (0, 1), 0.7),
                       gauged_chart(charts["bergman"], (1, 2), 0.7),
                       gauged_chart(charts["disc_disc_12"], (1, 2), 0.7)]
    for chart in [_chart(name) for name in CONFIGS] + off_normal_form:
        H.holonomy_samples(chart, np.zeros(chart.dim), sampler)
    assert passes == [((), {})] * (len(CONFIGS) + len(off_normal_form))


def _route_cases():
    """(chart, sampler) pairs on which the two routes to the adapted
    algebra are compared: gauged and rotated charts, and the bergman case
    of test_unmatched_draws_keep_the_structure, whose two passes accept
    different draws for one path."""
    charts = [(f"gauged_{name}", gauged_chart(_chart(name), (1, 2), 0.7))
              for name in ("bergman", "disc_disc_12", "perturbed_disc_disc")]
    charts += [(f"rotated_{name}", rotated_chart(_chart(name), (0, 1), 0.7))
               for name in ("disc_disc_12", "bergman")]
    cases = [pytest.param(chart, T.SamplerConfig(n_paths=n, seed=seed), id=f"{name}-{n}-{seed}")
             for name, chart in charts for n, seed in ((8, 0), (16, 3), (64, 5))]
    unmatched = T.SamplerConfig(n_paths=8, horizon=2.4, seed=3)
    return cases + [pytest.param(_chart("bergman"), unmatched, id="bergman-unmatched")]


@pytest.mark.parametrize("chart, sampler", _route_cases())
def test_reeb_and_horizontal_routes_span_one_adapted_algebra(chart, sampler):
    # the Reeb flow preserves the zero extension and its curvature, so the
    # adapted samples along paths with Reeb controls (the oracle of the
    # pass holonomy_samples made off normal form) and along the horizontal
    # pass close to one algebra, which holds the horizontal one: equal
    # dims and a mutual span residual of at most 1e-7 (measured 3.5e-9 on
    # the gauged charts, 9.3e-16 on the rotated ones and bergman)
    x0 = np.zeros(chart.dim)
    samples, _ = H.holonomy_samples(chart, x0, sampler)
    horizontal = H.lie_closure(samples["adapted"])
    reeb = H.lie_closure(reeb_adapted_samples(chart, x0, sampler))
    wagner = H.lie_closure(samples["wagner"])
    assert horizontal.dim == reeb.dim
    assert max(b.span_residual(B) for a, b in ((horizontal, reeb), (reeb, horizontal))
               for B in a.basis) <= 1e-7
    for h0 in (horizontal, reeb):
        assert H.compare_subalgebras(wagner, h0)["contained"]


def test_unmatched_draws_keep_the_structure():
    # bergman at horizon 2.4, seed 3, 8 paths: path 4 accepts attempt 6 in
    # the horizontal pass and attempt 5 in the oracle's pass with Reeb
    # controls, so the adapted samples along the horizontal path 4 are not
    # those along the Reeb path 4 (the two routes' algebras are compared in
    # test_reeb_and_horizontal_routes_span_one_adapted_algebra).  The
    # normal-form route and the general route, each taking the horizontal
    # pass, find the same structure
    cfg = cli.load_config(str(Path(__file__).resolve().parent.parent / "configs" / "bergman.json"))
    cfg.sampler = dataclasses.replace(cfg.sampler, n_paths=8, horizon=2.4, seed=3)
    chart, x0 = cli._resolve_chart(cfg)
    with pytest.MonkeyPatch.context() as mp:
        assert _accepted_draws(chart, cfg.sampler, mp, reeb_draws)[1] == [0, 1, 2, 3, 5, 6, 7]
    fields = ("dims", "codim", "contained", "ideal", "spinor_kernel")
    normal_form = cli.holonomy_report(cfg)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_resolve_chart", lambda cfg: (dataclasses.replace(chart), x0))
        general = cli.holonomy_report(cfg)
    assert {k: normal_form[k] for k in fields} == {k: general[k] for k in fields}
