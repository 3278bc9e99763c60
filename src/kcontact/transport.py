"""Curves and parallel-transport ODEs for the horizontal (Schouten)
connection along horizontal curves and its zero extension along arbitrary
ones, the scalar line-bundle transport, the Reeb flow, and the
horizontalization of arbitrary curves.  The Wagner extension enters only
through its curvature (``connection.frame_data``).

Curves come in two forms: :class:`ControlPath` (piecewise-constant
frame controls) and :class:`ParametricCurve` (explicit coordinate curves
with exact tangents).  Both reduce to a :class:`SampledCurve`, dense
samples with frame-split velocities, on which the sampled-coefficient RK4
transport operates.  A control path is horizontal, and is transported
positions first: one RK4 pass integrates the positions alone and settles
escapes, then one RK4 pass transports the frame, reading the connection
at each step's end and at its cubic-Hermite midpoint, in one call per
block of steps on every chart, ends first.  On a chart in normal form
(``ContactChart.normal_form``: xi = d/dt, frame d/dx_a + f_a d/dt, no
coefficient reading t) the horizontal coordinates of a whole path are one
running sum of its segments' RK4 increments, t needs one order-0
evaluation per ``ROWS`` steps of the batch, a
transport reads ``G`` alone at plain midpoints, the Reeb flow is array
arithmetic on t, and the equivalence check evaluates its loop once for
both of its transports; the bits are those of the general path.  Both
routes read the connection through ``connection.transport_data`` and
contract the velocity into its Koszul sum (``TransportData.rates``), one
kernel for control paths, sampled curves and every chart; no transport
builds a Christoffel tensor.  The holonomy sampler's one pass draws random
control paths, integrates their positions as one lockstep batch, redraws
escaped paths, and transports the accepted ones.  Path i draws its
controls from one (seed, i, attempt) stream.

One classical RK4 step, :func:`_rk4_step` on a tuple state, serves control
paths, the Reeb flow with the pushforward of vectors, and sampled curves:
their frame and theta transports take it once, on the identity, to build
every step propagator in one batch (:func:`_sampled_propagator`).
One running sum of composite-Simpson steps (:func:`_simpson_sums`) gives
every theta-integral: the total, and the cumulative one that adds each
step's Newton-Cotes midpoint.  Theta-integrals of parametric curves (the
loop builder's probes) evaluate theta alone, without the frame split.
The loop builder finds the radius of its second circle with
:func:`_brentq`, the package's own bracketed root finder (Brent's method),
whose probes share one sampled grid of the circle's radius-free parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connection import frame_solve, ortho_transports, orthonormal_frame_change, transport_data
from .errors import ChartError, ConfigError, DomainError, SamplingError
from .manifolds import chart_arrays

__all__ = [
    "ControlPath",
    "ParametricCurve",
    "SampledCurve",
    "TransportResult",
    "SamplerConfig",
    "transport",
    "transport_theta",
    "horizontalize",
    "transport_equivalence_check",
    "sampled_path_transports",
    "sample_curve",
    "balanced_loop",
]

TRANSPORT_KINDS = ("schouten", "adapted")
HORIZONTAL_TOL = 1e-6
THETA_STEP = 0.005  # sampling step of transport_theta for unsampled curves
REEB_STEP = 0.01  # largest RK4 step of the Reeb flow, in flow time
LOOP_RADIUS = 0.12  # base circle radius of balanced_loop
LOOP_T_AMP = 0.1  # amplitude of its closed t-wiggles
LOOP_TRIES = 8
LOOP_STEP = 2e-3  # sampling step of a balanced loop: its check and verify's sampled loop
MAX_SEGMENT_STEPS = 100_000  # RK4 steps per segment and per sampled path (default: 16, 64)
MAX_ATTEMPTS = 60  # draws of one sampled path before the sampler gives up


@dataclass
class ControlPath:
    """A horizontal path u^a e_a: frame controls u constant on K segments of [0, T]."""

    x0: np.ndarray
    controls: np.ndarray  # (K, 2m)
    horizon: float
    step: float = 0.02

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        self.controls = np.atleast_2d(np.asarray(self.controls, dtype=float))

    @property
    def segments(self):
        return self.controls.shape[0]

    def reversed(self):
        return ControlPath(self.x0, -self.controls[::-1], self.horizon, self.step)


@dataclass
class ParametricCurve:
    """Piecewise-smooth coordinate curve with exact tangents.

    Each piece is ``(duration, pos, vel)`` with ``pos(s)`` and ``vel(s)``
    vectorized over the local parameter ``s`` in [0, 1]; ``vel`` is the
    derivative with respect to ``s`` (global velocity = vel / duration).
    """

    pieces: list


@dataclass
class SampledCurve:
    """Dense samples of a curve with frame-split velocities.

    ``us`` are the frame components of the velocity, ``ws`` its Reeb
    component, ``theta_dot`` the value of theta on the velocity.  Each
    entry of ``piece_slices`` is an inclusive index pair (i0, i1) covering
    one smooth piece with an even number of intervals.  Pieces do not
    share samples: a breakpoint position appears once per adjacent piece,
    each copy carrying that piece's one-sided velocity.
    """

    ts: np.ndarray
    xs: np.ndarray
    us: np.ndarray
    ws: np.ndarray
    theta_dot: np.ndarray
    piece_slices: list


@dataclass
class TransportResult:
    """Parallel transport along a curve: the frame-to-frame matrix and its ends."""

    tau: np.ndarray
    start: np.ndarray
    end: np.ndarray


@dataclass(frozen=True)
class SamplerConfig:
    """Parameters of the horizontal path sampler, checked on construction.

    ``n_paths`` and ``seed`` are >= 0, ``magnitude`` is finite and >= 0,
    ``segments`` is > 0, ``horizon`` and ``step`` are finite and > 0.  A
    segment takes horizon / segments / step RK4 steps, at least 2; neither
    a segment nor a whole path may take more than ``MAX_SEGMENT_STEPS``
    (``n_paths`` is not bounded).  A violation raises :class:`ConfigError`
    naming the field, also from ``dataclasses.replace``.
    """

    n_paths: int = 64
    segments: int = 4
    horizon: float = 1.2
    magnitude: float = 0.45
    step: float = 0.02
    seed: int = 0

    def __post_init__(self):
        for name, need in (("n_paths", ">="), ("magnitude", ">="), ("seed", ">="),
                           ("segments", ">"), ("horizon", ">"), ("step", ">")):
            value = getattr(self, name)
            if not abs(value) < math.inf:
                raise ConfigError(f"sampler {name} must be finite, got {value}")
            if not (value >= 0 if need == ">=" else value > 0):
                raise ConfigError(f"sampler {name} must be {need} 0, got {value}")
        steps = self.horizon / self.segments / self.step
        path_steps = self.segments * max(2.0, steps)  # a segment takes at least 2
        for what, count, per in (("horizon / segments / step", steps, "segment"),
                                 ("segments * steps per segment", path_steps, "path")):
            if count > MAX_SEGMENT_STEPS:
                raise ConfigError(f"sampler {what} must be <= {MAX_SEGMENT_STEPS} "
                                  f"RK4 steps per {per}, got {count:g}")


def _even_steps(duration, step):
    if not (step > 0 and np.isfinite(step)):
        raise ValueError(f"integration step must be positive and finite, got {step}")
    if not duration / step <= MAX_SEGMENT_STEPS:
        raise ValueError(f"{duration} / {step} asks for more than "
                         f"{MAX_SEGMENT_STEPS} RK4 steps per segment")
    k = int(round(duration / step))
    k = max(2, k + (k % 2))
    return k


# ---------------------------------------------------------------------------
# the RK4 step; control paths: positions first, then transport (batched)

REORTH_EVERY = 50  # steps between reprojections of the frame transports
# ends per block of the transport pass, at least one step, evaluated in one call with their
# midpoints; and steps per evaluation of a normal-form positions pass, 3 stage points each
ROWS = 256


def _rk4_step(rhs, y, h):
    """One classical RK4 step of size ``h`` for a tuple state.

    ``rhs(s, y)`` returns the tuple of derivatives, one array per entry of
    the state.  The stage index ``s`` is 0, 1, 1, 2 (start, midpoint twice,
    end), so coefficients sampled at half-step spacing are read at sample
    ``j + s``.
    """
    d1 = rhs(0, y)
    d2 = rhs(1, _stage(y, 0.5 * h, d1))
    d3 = rhs(1, _stage(y, 0.5 * h, d2))
    d4 = rhs(2, _stage(y, h, d3))
    return tuple(
        a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for a, k1, k2, k3, k4 in zip(y, d1, d2, d3, d4)
    )


def _stage(y, c, k):
    return tuple(a + c * b for a, b in zip(y, k))


def _horizontal_velocity(E, u):
    """The horizontal velocity u^a e_a, as one batched matmul."""
    return (E @ u[..., None])[..., 0]


def _velocity(E, xi, u, w):
    """The velocity u^a e_a + w xi of a sampled curve."""
    v = _horizontal_velocity(E, u)
    return v + w[..., None] * xi if np.any(w != 0.0) else v


def _rhs(chart, x, u):
    """The velocity u^a e_a of a position, from plain chart values."""
    return _horizontal_velocity(chart_arrays(chart, x, order=0, fields=("E",)).E, u)


def _reorthonormalize(chart, x, M, P0, L0t):
    P, Lt = orthonormal_frame_change(chart_arrays(chart, x, order=0, fields=("G",)).G)
    U, _, Vt = np.linalg.svd(Lt @ M @ P0)
    return P @ (U @ Vt) @ L0t


def _integrate_positions(chart, paths, step, raise_on_exit=True):
    """Lockstep RK4 of the positions of control paths that share a horizon
    and a segment count.

    Returns ``(xs, alive, h)``: ``xs[p, k, i]`` is the position after i
    steps of segment k (a segment's last sample is the next one's first).
    With ``raise_on_exit=False`` escaped paths freeze and are flagged in
    ``alive`` instead of raising.  On a chart in normal form the whole
    paths take :func:`_normal_form_positions` instead, in one batch, with
    the same bits.
    """
    x, controls = _path_arrays(paths)
    P_, K, _ = controls.shape
    seg = paths[0].horizon / K
    steps = _even_steps(seg, step)
    h = seg / steps
    if chart.normal_form:
        return (*_normal_form_positions(chart, x, controls, steps, h, raise_on_exit), h)
    xs = np.empty((P_, K, steps + 1, x.shape[-1]))
    alive = np.ones(P_, dtype=bool)
    for k in range(K):
        u = controls[:, k, :]
        xs[:, k, 0] = x
        for i in range(1, steps + 1):
            (xn,) = _rk4_step(lambda s, y: (_rhs(chart, y[0], u),), (x,), h)
            # escaped paths stay frozen just outside the boundary, where
            # the chart functions are still well conditioned
            x = np.where(alive[:, None], xn, x)
            xs[:, k, i] = x
            inside = chart.domain.contains(x)
            if not np.all(inside):
                if raise_on_exit:
                    _exit(x[~inside][0])
                alive &= inside
    return xs, alive, h


def _exit(bad, what="curve"):
    raise DomainError(f"{what} left the chart domain at {bad}", point=bad)


def _normal_form_positions(chart, x0, controls, steps, h, raise_on_exit):
    """``(xs, alive)`` of :func:`_integrate_positions` on a chart in normal
    form, for paths from ``x0`` with ``controls`` (K segments of ``steps``
    RK4 steps of size h), every segment of a path in one batch.

    The horizontal velocity is the control u itself, so every RK4 step of a
    segment moves the horizontal coordinates by the same increment, and
    along the path they are one running sum of the segments' increments.
    Only the t-velocity f_a u^a needs the chart, at three points per step:
    its start, its midpoint (both midpoint stages share it, since f does not
    read t) and its end.  Each row is evaluated up to its first step that
    ends outside the domain whatever t, or to the path's end, through
    :func:`_rhs`, one order-0 call per ``ROWS`` steps, whose stage points
    are built in the chunk; then t is one running sum, escapes are found,
    and escaped rows freeze at their first exit.  So a row that leaves
    through t alone is evaluated past that exit, and those values are
    dropped.  Sums and products are those of :func:`_rk4_step`.
    """
    P_, K, tm = controls.shape
    # X[:, i] is the position after i steps of the path; t is held until it is summed
    X = np.repeat(x0[:, None], K * steps + 1, axis=1)
    inc = (h / 6.0) * (controls + 2.0 * controls + 2.0 * controls + controls)
    X[:, 1:, :tm] = np.repeat(inc, steps, axis=1)
    X[..., :tm] = np.cumsum(X[..., :tm], axis=1)
    todo = np.ones((P_, K * steps), dtype=bool)
    todo[:, 1:] = np.logical_and.accumulate(chart.domain.contains(X[:, 1:-1, :tm]), axis=1)
    rows, at = np.nonzero(todo)
    vt = np.empty((len(rows), 3))
    for a in range(0, len(rows), ROWS):
        r, i = rows[a:a + ROWS], at[a:a + ROWS]
        u = controls[r, i // steps]
        pts = np.repeat(X[r, i, None], 3, axis=1)
        pts[:, 1, :tm] += (0.5 * h) * u
        pts[:, 2, :tm] += h * u
        vt[a:a + ROWS] = _rhs(chart, pts, u[:, None])[..., -1]
    dt = np.zeros(todo.shape)
    dt[todo] = (h / 6.0) * (vt[:, 0] + 2.0 * vt[:, 1] + 2.0 * vt[:, 1] + vt[:, 2])
    X[:, 1:, tm] = dt
    X[..., tm] = np.cumsum(X[..., tm], axis=1)
    out = ~chart.domain.contains(X[:, 1:])
    esc = np.nonzero(np.any(out, axis=1))[0]
    alive = np.ones(P_, dtype=bool)
    if len(esc):
        first = np.argmax(out, axis=1)
        if raise_on_exit:
            i = np.min(first[esc])
            _exit(X[np.nonzero(out[:, i])[0][0], i + 1])
        for r in esc:
            X[r, first[r] + 2:] = X[r, first[r] + 1]
        alive[esc] = False
    # segment k holds the path's samples k * steps, ..., (k + 1) * steps
    return X[:, np.arange(K)[:, None] * steps + np.arange(steps + 1)], alive


def _transport_positions(chart, xs, paths, h):
    """Frame transports along the positions ``xs`` of control paths.

    An RK4 step reads the connection at its start, at its end and at the
    cubic-Hermite midpoint (x0 + x1)/2 + h/8 (v0 - v1), O(h^4) accurate
    (Hairer, Norsett & Wanner, *Solving ODEs I*, II.6).  A segment's steps
    go in blocks of ``max(1, ROWS // P)`` for P paths; a block's ends and
    midpoints are evaluated in one ``transport_data`` call, ends first.  The
    velocities of the h/8 term are the order-0 ones of :func:`_rhs`, which
    the positions pass integrated, in one call over the block's positions;
    on a normal-form chart the midpoint is (x0 + x1)/2 with the same bits
    (the h/8 term moves only t, and the rates read neither t nor the sign of
    a zero coordinate), so the pass there needs no velocity.  Each
    evaluation is contracted at once by ``TransportData.rates`` to its
    negated rates, the ``-Om`` of the transport equation M' = -Om M, and
    only the data of the last end are kept: the next segment's first step
    contracts them with its own controls, with no chart call.  The paths'
    shared start is one row.  The transports are reprojected every
    ``REORTH_EVERY`` steps.
    """
    _, controls = _path_arrays(paths)
    P_, K, per, _ = xs.shape
    tm = controls.shape[-1]
    block = max(1, ROWS // P_)
    P0, L0t = orthonormal_frame_change(chart_arrays(chart, xs[:1, 0, 0], order=0, fields=("G",)).G)
    M = np.broadcast_to(np.eye(tm), (P_, tm, tm)).copy()
    start = transport_data(chart, xs[:1, 0, :1])[:, 0]
    total = 0
    for k in range(K):
        # a segment starts at the last evaluated end, under its own controls
        u = controls[:, k, None, :]
        Om1 = -start.rates(u[:, 0])
        for a in range(1, per, block):
            b = min(a + block, per)
            x = xs[:, k, a - 1:b]
            mid = 0.5 * (x[:, :-1] + x[:, 1:])
            if not chart.normal_form:  # the cubic-Hermite term, from order-0 velocities
                v = _rhs(chart, x, u)
                mid += (0.125 * h) * (v[:, :-1] - v[:, 1:])
            # ends and midpoints in one call, ends first
            end = transport_data(chart, np.concatenate([x[:, 1:], mid], axis=1))
            rates = -end.rates(u)
            Om_end, Om_mid = rates[:, :b - a], rates[:, b - a:]
            # the block's data are freed before the next block is evaluated
            start = end[:, b - a - 1]
            del end
            for j in range(b - a):
                Om = (Om1, Om_mid[:, j], Om_end[:, j])
                (M,) = _rk4_step(lambda s, y: (Om[s] @ y[0],), (M,), h)
                Om1 = Om_end[:, j]
                total += 1
                if total % REORTH_EVERY == 0:
                    M = _reorthonormalize(chart, xs[:, k, a + j], M, P0, L0t)
    return M


def _path_arrays(paths):
    return np.stack([p.x0 for p in paths]), np.stack([p.controls for p in paths])


# ---------------------------------------------------------------------------
# sampling curves


def sample_curve(chart, curve, step=None):
    """Densely sample a curve with frame-split velocities."""
    if isinstance(curve, SampledCurve):
        return curve
    if isinstance(curve, ControlPath):
        return _sample_control_path(chart, curve, curve.step if step is None else step)
    if isinstance(curve, ParametricCurve):
        return _sample_parametric(chart, curve, 0.01 if step is None else step)
    raise TypeError(f"not a curve: {curve!r}")


def _sample_control_path(chart, path, step):
    xs, _, h = _integrate_positions(chart, [path], step)
    _, K, per, n = xs.shape
    # each segment keeps its own copy of its two end samples
    ts = (np.arange(K)[:, None] * (per - 1) + np.arange(per)).ravel() * h
    us = np.repeat(path.controls, per, axis=0)
    xs = xs[0].reshape(-1, n)
    arr = chart_arrays(chart, xs, order=0, fields=("th", "E"))
    theta_dot = (arr.th[:, None, :] @ _horizontal_velocity(arr.E, us)[:, :, None])[:, 0, 0]
    return SampledCurve(ts, xs, us, np.zeros(len(xs)), theta_dot,
                        [(k * per, (k + 1) * per - 1) for k in range(K)])


def _sample_parametric(chart, curve, step, split=True):
    """Samples of a parametric curve; with ``split=False`` theta(velocity)
    alone, with the same bits (``us`` and ``ws`` are None)."""
    ts_all, xs_all, vs_all = [], [], []
    piece_slices = []
    t0 = 0.0
    offset = 0
    for idx, (dur, pos, vel) in enumerate(curve.pieces):
        k = _even_steps(dur, step)
        s = np.linspace(0.0, 1.0, k + 1)
        xs = np.asarray(pos(s), dtype=float)
        vs = np.asarray(vel(s), dtype=float) / dur
        if idx > 0 and not np.allclose(xs[0], xs_all[-1][-1], rtol=0.0, atol=1e-10):
            raise ChartError("parametric curve pieces do not join continuously")
        ts_all.append(t0 + s * dur)
        xs_all.append(xs)
        vs_all.append(vs)
        piece_slices.append((offset, offset + k))
        offset += k + 1
        t0 += dur
    return _parametric_samples(chart, np.concatenate(ts_all), np.concatenate(xs_all, axis=0),
                               np.concatenate(vs_all, axis=0), piece_slices, split)


def _parametric_samples(chart, ts, xs, vs, piece_slices, split=True):
    """The :class:`SampledCurve` of :func:`_sample_parametric` from its
    parameters ``ts``, positions ``xs`` and velocities ``vs``, after the
    domain check."""
    inside = chart.domain.contains(xs)
    if not np.all(inside):
        _exit(xs[~inside][0])
    if not split:
        th = chart_arrays(chart, xs, order=0, fields=("th",)).th
        return SampledCurve(ts, xs, None, None, np.einsum("...i,...i->...", th, vs), piece_slices)
    return SampledCurve(ts, xs, *_split_velocities(chart, xs, vs), piece_slices)


def _split_velocities(chart, xs, vs, arr=None):
    """Frame components, Reeb component and theta value of velocities at xs,
    through ``connection.frame_solve``: on a chart in normal form
    ``u = v_top`` and ``w = v_t - f u``.  ``arr`` holds the order-0
    ``th``, ``xi`` and ``E`` at xs, when the caller has them."""
    if arr is None:
        arr = chart_arrays(chart, xs, order=0, fields=("th", "xi", "E"))
    coeff = frame_solve(arr, vs[..., None], chart.normal_form)[..., 0]
    tm = 2 * chart.m
    return coeff[:, :tm], coeff[:, tm], np.einsum("...i,...i->...", arr.th, vs)


# ---------------------------------------------------------------------------
# transport over sampled curves


def _transport_sampled(chart, sc, kind, data=None):
    """Transport along a sampled curve, reading ``data``, the
    ``transport_data`` of its samples, when given.  The adapted kind passes
    its rates the Reeb velocity and so reads the Reeb term; the Schouten
    kind passes none and reads none, so both kinds read the same data."""
    if kind == "schouten" and np.max(np.abs(sc.theta_dot)) > HORIZONTAL_TOL:
        raise ChartError(
            "schouten transport requires a horizontal curve "
            f"(max |theta(v)| = {np.max(np.abs(sc.theta_dot)):.2e})"
        )
    if data is None:
        data = transport_data(chart, sc.xs)
    return _sampled_propagator(sc, -data.rates(sc.us, sc.ws if kind == "adapted" else None))


def _step_starts(sc):
    """First sample of each RK4 step of a sampled curve (two intervals each)."""
    return np.concatenate([np.arange(i0, i1, 2) for i0, i1 in sc.piece_slices])


def _sampled_propagator(sc, A):
    """RK4 transport matrix of y' = A y, ``A[i]`` read at sample i of a curve.

    The step from sample j to j + 2 is y -> S_j y, where S_j is one
    :func:`_rk4_step` applied to the identity, with its stages reading A at
    samples j, j + 1, j + 1 and j + 2.  All S_j are built in one batch and
    multiplied pairwise in step order, later steps on the left.
    """
    j = _step_starts(sc)
    h = (sc.ts[j + 2] - sc.ts[j])[:, None, None]
    eye = np.eye(A.shape[-1])
    As = (A[j], A[j + 1], A[j + 2])
    (S,) = _rk4_step(lambda s, y: (As[s] @ y[0],), (eye,), h)
    while len(S) > 1:
        if len(S) % 2:
            S = np.concatenate([S, eye[None]])
        S = S[1::2] @ S[0::2]
    return S[0]


def transport(chart, curve, kind):
    """Parallel transport along a curve for the chosen connection.

    ``kind='schouten'`` is the horizontal connection and demands a
    horizontal curve; ``kind='adapted'`` is its zero extension and accepts
    arbitrary curves via the split v = u^a e_a + w xi.  Along a horizontal
    curve, such as a :class:`ControlPath`, the two agree.  For another step
    than a curve's default, pass the :class:`SampledCurve` from
    :func:`sample_curve`.
    """
    if kind not in TRANSPORT_KINDS:
        raise ValueError(f"unknown transport kind {kind!r}")
    if isinstance(curve, ControlPath):
        xs, _, h = _integrate_positions(chart, [curve], curve.step)
        tau = _transport_positions(chart, xs, [curve], h)[0]
        return TransportResult(tau=tau, start=curve.x0, end=xs[0, -1, -1])
    sc = sample_curve(chart, curve)
    return TransportResult(
        tau=_transport_sampled(chart, sc, kind), start=sc.xs[0], end=sc.xs[-1]
    )


# ---------------------------------------------------------------------------
# the scalar connection on the Reeb line bundle


def _simpson_sums(sc):
    """Running composite-Simpson sums of theta(velocity) over the RK4 steps
    (two intervals each) of a sampled curve, left to right: returns
    ``(j, w, sums)``, the steps' first samples ``j``, their widths
    ``w = ts[j + 2] - ts[j]``, and ``sums``, 0 followed by the running sums
    of the steps ``(w/6)(g0 + 4 g1 + g2)``, the integral at each step's end."""
    j, g = _step_starts(sc), sc.theta_dot
    w = sc.ts[j + 2] - sc.ts[j]
    return j, w, np.cumsum(np.concatenate([[0.0], (w / 6.0) * (g[j] + 4.0 * g[j + 1] + g[j + 2])]))


def _theta_integral(sc):
    """Composite-Simpson integral of theta(velocity): the last of
    :func:`_simpson_sums`."""
    return _simpson_sums(sc)[2][-1]


def _cumulative_theta_integral(sc):
    """theta-integral at every sample, O(h^4), piecewise Newton-Cotes: the
    sums of :func:`_simpson_sums` at the steps' ends, and at each midpoint
    its step's start plus ``(w/24)(5 g0 + 8 g1 - g2)``.

    Duplicated breakpoint samples carry the accumulated value across
    pieces.
    """
    (j, w, sums), g = _simpson_sums(sc), sc.theta_dot
    out = np.empty(len(sc.ts))
    out[j], out[j + 2] = sums[:-1], sums[1:]
    out[j + 1] = sums[:-1] + (w / 24.0) * (5.0 * g[j] + 8.0 * g[j + 1] - g[j + 2])
    return out


def transport_theta(chart, curve, method="quadrature"):
    """Scalar transport factor exp(-integral of theta) along a curve.

    ``method='quadrature'`` integrates theta(velocity) by composite
    Simpson; ``method='ode'`` integrates the transport equation
    d(lambda)/dt = -lambda theta(velocity) with RK4 over the same samples.
    A curve that is not yet sampled is sampled at ``THETA_STEP``, finer
    than the transport default; the scalar integrand is cheap and the two
    routes must agree to 1e-6.  Neither route reads the frame split, so a
    parametric curve's samples evaluate theta alone.
    """
    if method not in ("quadrature", "ode"):
        raise ValueError(f"unknown method {method!r}")
    sc = (_sample_parametric(chart, curve, THETA_STEP, split=False)
          if isinstance(curve, ParametricCurve) else sample_curve(chart, curve, THETA_STEP))
    if method == "quadrature":
        return float(np.exp(-_theta_integral(sc)))
    return float(_sampled_propagator(sc, -sc.theta_dot[:, None, None])[0, 0])


# ---------------------------------------------------------------------------
# Reeb flow and horizontalization


def _reeb_flow_batch(chart, X, times, vectors):
    """Flow of the Reeb field for per-point durations (time-rescaled RK4,
    in steps of at most ``REEB_STEP`` of the longest duration), with the
    pushforward of ``vectors`` (one per point): returns
    ``(points, pushforwards)``.  The variational equation z' = t Dxi(y) z
    rides along the same steps, reading Dxi from an order-1 evaluation of
    xi.  On a chart in normal form xi = d/dt and Dxi = 0, so the flow moves
    t alone, with the bits of those steps and no chart call: t takes the
    running sums of one increment (h/6)(t + 2t + 2t + t), and the other
    columns and the pushforward add the signed zero (h/6)(k + 2k + 2k + k),
    k = t * 0.0, once.  The horizontal part is checked against the domain
    once (no ball of such a chart holds t) and t at every step; a
    :class:`DomainError` names the first row out at the first step where
    any row is out."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    t = np.atleast_1d(np.asarray(times, dtype=float))[:, None]
    tmax = float(np.max(np.abs(t))) if len(t) else 0.0
    steps = max(1, int(np.ceil(tmax / REEB_STEP)))
    h = 1.0 / steps
    if chart.normal_form:
        k = t * 0.0
        z0 = (h / 6.0) * (k + 2.0 * k + 2.0 * k + k)
        y = X + z0
        ts = np.empty((len(y), steps + 1))
        ts[:, :1], ts[:, 1:] = X[:, -1:], (h / 6.0) * (t + 2.0 * t + 2.0 * t + t)
        ts = np.cumsum(ts, axis=1)[:, 1:]
        y[:, -1] = ts[:, -1]
        dom = chart.domain
        out = ~(dom.contains(y[:, :-1])[:, None] & (ts >= dom.lo[-1]) & (ts <= dom.hi[-1]))
        if np.any(out):
            s = np.argmax(np.any(out, axis=0))
            r = np.argmax(out[:, s])
            _exit(np.append(y[r, :-1], ts[r, s]), "Reeb flow")
        return y, vectors + z0

    def rhs(s, state):
        y, z = state
        arr = chart_arrays(chart, y, order=1, fields=("xi",))
        return t * arr.xi, t * (arr.dxi @ z[..., None])[..., 0]

    y, z = X, vectors
    for _ in range(steps):
        y, z = _rk4_step(rhs, (y, z), h)
        if not np.all(chart.domain.contains(y)):
            _exit(y[~chart.domain.contains(y)][0], "Reeb flow")
    return y, z


def _same_chart_values(chart, xs, ys):
    """Whether the chart's values at the points ``ys`` are those at ``xs``:
    on a chart in normal form no coefficient reads t, so it suffices that
    their other coordinates are the same bytes (the Reeb flow may turn a
    -0.0 into +0.0, and then the points count as different)."""
    return chart.normal_form and xs[:, :-1].tobytes() == ys[:, :-1].tobytes()


def horizontalize(chart, curve):
    """Flow each curve point down the Reeb direction to kill theta(velocity).

    Returns the horizontal companion curve as a :class:`SampledCurve`
    (same parameter grid).  Its endpoint is the Reeb flow of the original
    endpoint for time minus the theta-integral of the curve.  All samples
    flow in one :func:`_reeb_flow_batch`, which on a chart in normal form
    moves their t alone; there the one order-0 evaluation of the curve's
    samples (``th``, ``xi`` and ``E``, on every chart) also splits the
    flowed velocities, since those read no t (:func:`_same_chart_values`).
    Any other chart evaluates the flowed points for the split.
    """
    sc = sample_curve(chart, curve)
    f = -_cumulative_theta_integral(sc)
    arr = chart_arrays(chart, sc.xs, order=0, fields=("th", "xi", "E"))
    v = _velocity(arr.E, arr.xi, sc.us, sc.ws)
    ys, vt = _reeb_flow_batch(chart, sc.xs, f, vectors=v - sc.theta_dot[:, None] * arr.xi)
    split = _split_velocities(chart, ys, vt, arr if _same_chart_values(chart, sc.xs, ys) else None)
    return SampledCurve(sc.ts.copy(), ys, *split, list(sc.piece_slices))


def transport_equivalence_check(chart, loop):
    """Compare zero-extension transport along a balanced loop with the
    horizontal transport along its horizontalization.

    The loop must close and have vanishing theta-integral (so the
    horizontalized curve is a loop as well).  Returns ``(residual, tilde)``:
    the Frobenius norm of the difference of the two transports, and the
    horizontal companion :class:`SampledCurve` from :func:`horizontalize`,
    so a caller can check its horizontality without flowing the loop again.

    The loop is flowed first, then its samples are evaluated by one
    ``transport_data`` call.  On a chart in normal form the flow moves t
    alone and the connection reads no t, so that one evaluation also serves
    the Schouten route, whose samples have the same horizontal coordinates
    (:func:`_same_chart_values`); both transports are still integrated and
    compared.  Any other chart evaluates the flowed samples on their own.
    """
    sc = sample_curve(chart, loop)
    if not np.allclose(sc.xs[0], sc.xs[-1], rtol=0.0, atol=1e-8):
        raise ChartError("transport_equivalence_check needs a loop")
    total = _theta_integral(sc)
    if abs(total) > 1e-8:
        raise ChartError(
            f"loop is not balanced: integral of theta = {total:.3e}; "
            "cancel it by construction before calling"
        )
    tilde = horizontalize(chart, sc)
    data = transport_data(chart, sc.xs)
    tau0 = _transport_sampled(chart, sc, "adapted", data)
    if not _same_chart_values(chart, sc.xs, tilde.xs):
        data = None
    tau_t = _transport_sampled(chart, tilde, "schouten", data)
    return float(np.linalg.norm(tau0 - tau_t)), tilde


# ---------------------------------------------------------------------------
# samplers and loop builders


def _draw_path(chart, x0, segments, horizon, magnitude, seed, step, i, attempt):
    rng = np.random.default_rng([int(seed), int(i), int(attempt)])
    controls = rng.normal(0.0, 1.0, (segments, 2 * chart.m)) * magnitude
    return ControlPath(x0, controls, horizon, step)


def sampled_path_transports(chart, x0, sampler: SamplerConfig):
    """Draw ``sampler.n_paths`` horizontal paths, integrate their positions
    in one batch, redraw the ones that escape, then transport all in one
    batch.

    Attempt k redraws every path still escaped after attempt k - 1, in one
    batch, up to ``MAX_ATTEMPTS`` draws per path.  Each draw comes from the
    (seed, path index, attempt) stream, so the accepted paths do not depend
    on how the batches are formed.  Returns ``(paths, endpoints, taus)``.
    """
    x0 = np.asarray(x0, dtype=float)
    if not chart.domain.contains(x0):
        raise DomainError(f"base point outside the chart domain: {x0}", point=x0)
    step = sampler.step

    def draw(i, attempt):
        # attempt by keyword: a tracer of _draw_path reads it by name
        return _draw_path(chart, x0, sampler.segments, sampler.horizon, sampler.magnitude,
                          sampler.seed, step, i, attempt=attempt)

    paths = [draw(i, 0) for i in range(sampler.n_paths)]
    if not paths:
        return [], np.zeros((0, chart.dim)), np.zeros((0, 2 * chart.m, 2 * chart.m))
    xs, alive, h = _integrate_positions(chart, paths, step, raise_on_exit=False)
    pending = np.nonzero(~alive)[0]
    for attempt in range(1, MAX_ATTEMPTS):
        if not len(pending):
            break
        cands = [draw(i, attempt) for i in pending]
        xr, ok, _ = _integrate_positions(chart, cands, step, raise_on_exit=False)
        for j in np.nonzero(ok)[0]:
            i = pending[j]
            paths[i] = cands[j]
            xs[i] = xr[j]
        pending = pending[~ok]
    if len(pending):
        raise SamplingError(
            f"could not sample an in-domain path for index {pending[0]} "
            f"after {MAX_ATTEMPTS} attempts"
        )
    return paths, xs[:, -1, -1], _transport_positions(chart, xs, paths, h)


def isometry_residual(chart, x0, sampler: SamplerConfig):
    """Worst deviation of sampled horizontal transports from metric isometries."""
    x0 = np.asarray(x0, dtype=float)
    _, ends, taus = sampled_path_transports(chart, x0, sampler)
    if not len(taus):
        return 0.0
    P0, _ = orthonormal_frame_change(chart_arrays(chart, x0[None], order=0, fields=("G",)).G)
    _, Pinv = orthonormal_frame_change(chart_arrays(chart, ends, order=0, fields=("G",)).G)
    taus_o = ortho_transports(taus, Pinv, P0[0])
    eye = np.eye(2 * chart.m)
    return float(np.max(np.abs(np.einsum("pji,pjk->pik", taus_o, taus_o) - eye)))


def _circle_grid(s, phase, orientation, t_amp):
    """The radius-free parts of a circle piece's samples at the parameters
    s: cos and sin of its angles, its t-wiggle and the wiggle's s-velocity."""
    ang = phase + orientation * 2.0 * np.pi * s
    return (np.cos(ang), np.sin(ang), t_amp * np.sin(2.0 * np.pi * s),
            t_amp * 2.0 * np.pi * np.cos(2.0 * np.pi * s))


def _circle_pos(x0, pair, radius, phase, grid, t_index):
    """Positions of a circle piece (:func:`_circle_piece`) on the ``grid``
    of :func:`_circle_grid`."""
    (i, j), (cos, sin, wiggle, _) = pair, grid
    out = np.tile(x0, (len(cos), 1))
    out[:, i] = x0[i] - radius * np.cos(phase) + radius * cos
    out[:, j] = x0[j] - radius * np.sin(phase) + radius * sin
    out[:, t_index] = x0[t_index] + wiggle
    return out


def _circle_vel(x0, pair, radius, orientation, grid, t_index):
    """s-velocities of a circle piece on the ``grid`` of :func:`_circle_grid`."""
    (i, j), (cos, sin, _, dwiggle) = pair, grid
    out = np.zeros((len(cos), len(x0)))
    out[:, i] = -radius * orientation * 2.0 * np.pi * sin
    out[:, j] = radius * orientation * 2.0 * np.pi * cos
    out[:, t_index] = dwiggle
    return out


def _circle_piece(x0, pair, radius, phase, orientation, duration, t_amp, t_index):
    """One full coordinate circle through x0 in the given coordinate pair,
    with a closed wiggle of amplitude ``t_amp`` in the coordinate ``t_index``."""

    def pos(s):
        return _circle_pos(x0, pair, radius, phase, _circle_grid(s, phase, orientation, t_amp),
                           t_index)

    def vel(s):
        return _circle_vel(x0, pair, radius, orientation,
                           _circle_grid(s, phase, orientation, t_amp), t_index)

    return (duration, pos, vel)


def _loop_theta_integral(chart, pieces):
    curve = ParametricCurve(pieces)
    return _theta_integral(_sample_parametric(chart, curve, LOOP_STEP, split=False))


def _circle_theta(chart, x0, pair, phase, orientation, t_amp, t_index):
    """The theta-integral of the unit-duration circle piece
    ``_circle_piece(x0, pair, r, phase, orientation, 1.0, t_amp, t_index)``
    as a function of its radius r, with the bits of
    :func:`_loop_theta_integral` on that one piece: its ``LOOP_STEP`` grid
    and the radius-free parts are sampled once, and each call forms the
    positions and velocities from them (the time ``0.0 + s * 1.0`` of
    :func:`_sample_parametric` is s itself, and so is ``vel(s) / 1.0``)."""
    k = _even_steps(1.0, LOOP_STEP)
    s = np.linspace(0.0, 1.0, k + 1)
    grid = _circle_grid(s, phase, orientation, t_amp)

    def theta(radius):
        xs = _circle_pos(x0, pair, radius, phase, grid, t_index)
        vs = _circle_vel(x0, pair, radius, orientation, grid, t_index)
        return _theta_integral(_parametric_samples(chart, s, xs, vs, [(0, k)], split=False))

    return theta


def _brentq(f, a, b, xtol, rtol, maxiter=100):
    """A root of f in [a, b] by Brent's method, or None when f(a) and f(b) have
    the same sign or ``maxiter`` steps do not converge.  Takes the steps of the
    classic ``brentq`` routine one for one (Brent 1973, ch. 4), with its tests
    and updates in its order, so its roots have the same bits."""
    xpre, xcur = float(a), float(b)
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0 or fcur == 0:
        return xpre if fpre == 0 else xcur
    if (fpre < 0) == (fcur < 0):
        return None
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk, spre, scur = xpre, fpre, xcur - xpre, xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk, fpre, fcur, fblk = xcur, xblk, xcur, fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # secant
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # inverse quadratic interpolation
                dpre, dblk = (fpre - fcur) / (xpre - xcur), (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
        if stry is not None and 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = f(xcur)
    return None


def balanced_loop(chart, x0, rng):
    """A non-horizontal coordinate loop at x0 with vanishing theta-integral.

    Concatenates a base circle in one coordinate pair with a reversed
    circle in another pair whose radius is root-found so the two
    theta-integrals cancel; closed t-wiggles make the loop non-horizontal
    without contributing to the integral.  The root-finding probes and the
    final check evaluate theta alone; the probes of one orientation share
    one sampled grid of the second circle's radius-free parts
    (:func:`_circle_theta`), and each forms only its positions and
    velocities.  The circles lie in the coordinate
    pairs ``(2k, 2k + 1)``, k < m.  A try ends when any of its circles
    leaves the chart; after ``LOOP_TRIES`` tries :class:`SamplingError`.
    """
    x0 = np.asarray(x0, dtype=float)
    pairs = [(2 * k, 2 * k + 1) for k in range(chart.m)]
    if len(pairs) < 2:
        raise ChartError("balanced loops need at least two coordinate pairs")
    tidx = chart.dim - 1
    lo, hi = 0.02 * LOOP_RADIUS, 2.2 * LOOP_RADIUS
    for _ in range(LOOP_TRIES):
        p1, p2 = [pairs[i] for i in rng.choice(len(pairs), size=2, replace=False)]
        r1 = LOOP_RADIUS * (0.7 + 0.6 * rng.random())
        ph1, ph2 = rng.uniform(0, 2 * np.pi, 2)
        amp = LOOP_T_AMP * (0.5 + rng.random())
        base = _circle_piece(x0, p1, r1, ph1, +1.0, 1.0, amp, tidx)
        try:
            base_val = _loop_theta_integral(chart, [base])
            for orient in (-1.0, +1.0):
                theta = _circle_theta(chart, x0, p2, ph2, orient, amp, tidx)
                r2 = _brentq(lambda r: base_val + theta(r), lo, hi, xtol=1e-13, rtol=1e-15)
                if r2 is None:
                    continue
                pieces = [base, _circle_piece(x0, p2, r2, ph2, orient, 1.0, amp, tidx)]
                if abs(_loop_theta_integral(chart, pieces)) < 1e-10:
                    return ParametricCurve(pieces)
        except DomainError:
            continue
    raise SamplingError("could not build a balanced loop at this base point")
