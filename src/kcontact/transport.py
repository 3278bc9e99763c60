"""Curves and parallel-transport ODEs for the horizontal connection and its
extensions, the scalar line-bundle transport, the Reeb flow, and the
horizontalization of arbitrary curves.

Curves come in two source forms: :class:`ControlPath` (piecewise-constant
frame controls, integrated with RK4) and :class:`ParametricCurve` (explicit
coordinate curves with exact tangents).  Both reduce to a
:class:`SampledCurve`, dense samples with frame-split velocities, on which
the sampled-coefficient RK4 transport operates.  Transport of a
ControlPath runs as a joint (position, frame-matrix) RK4 instead, which is
what the holonomy sampler uses in batch: one sampling pass draws a
horizontal half and an adapted half of random control paths and
integrates both halves as one lockstep batch, redrawing escaped paths,
each from its own (seed, index, attempt) stream.

One classical RK4 step, :func:`_rk4_step` on a tuple state, serves every
ODE here: the batched control-path integration, the sampled-curve frame
transport, the scalar theta-transport and the Reeb flow with its Jacobian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import frame_data, ortho_transports, orthonormal_frame_change, transport_data
from .errors import ChartError, DomainError, SamplingError
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

TRANSPORT_KINDS = ("schouten", "adapted", "wagner")
HALVES = ("horizontal", "adapted")  # the two halves of a sampling pass
HORIZONTAL_TOL = 1e-6


@dataclass
class ControlPath:
    """Piecewise-constant controls u(t) in the frame, K segments over [0, T]."""

    x0: np.ndarray
    controls: np.ndarray  # (K, 2m)
    horizon: float
    step: float = 0.02
    vertical: np.ndarray = None  # optional (K,) Reeb-direction controls

    def __post_init__(self):
        self.x0 = np.asarray(self.x0, dtype=float)
        self.controls = np.atleast_2d(np.asarray(self.controls, dtype=float))
        if self.vertical is not None:
            self.vertical = np.asarray(self.vertical, dtype=float)

    @property
    def segments(self):
        return self.controls.shape[0]

    def reversed(self):
        v = None if self.vertical is None else -self.vertical[::-1]
        return ControlPath(self.x0, -self.controls[::-1], self.horizon, self.step, v)


@dataclass
class ParametricCurve:
    """Piecewise-smooth coordinate curve with exact tangents.

    Each piece is ``(duration, pos, vel)`` with ``pos(s)`` and ``vel(s)``
    vectorized over the local parameter ``s`` in [0, 1]; ``vel`` is the
    derivative with respect to ``s`` (global velocity = vel / duration).
    """

    pieces: list

    @property
    def horizon(self):
        return sum(p[0] for p in self.pieces)

    def start(self):
        return np.asarray(self.pieces[0][1](np.zeros(1))[0], dtype=float)

    def end(self):
        return np.asarray(self.pieces[-1][1](np.ones(1))[0], dtype=float)


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

    @property
    def horizon(self):
        return float(self.ts[-1] - self.ts[0])


@dataclass
class TransportResult:
    """Parallel transport along a curve: the frame-to-frame matrix and its ends."""

    tau: np.ndarray
    start: np.ndarray
    end: np.ndarray


@dataclass(frozen=True)
class SamplerConfig:
    """Parameters of the horizontal path sampler."""

    n_paths: int = 64
    segments: int = 4
    horizon: float = 1.2
    magnitude: float = 0.45
    step: float = 0.02
    seed: int = 0


def _even_steps(duration, step):
    k = int(round(duration / max(step, 1e-12)))
    k = max(2, k + (k % 2))
    return k


# ---------------------------------------------------------------------------
# the RK4 step and the joint integration of control paths (batched)

REORTH_EVERY = 50  # steps between reprojections of the frame transports


def _rk4_step(rhs, y, h):
    """One classical RK4 step of size ``h`` for a tuple state.

    ``rhs(s, y)`` returns the tuple of derivatives; ``None`` entries of the
    state ride along unchanged.  The stage index ``s`` is 0, 1, 1, 2 (start,
    midpoint twice, end), so coefficients sampled at half-step spacing are
    read at sample ``j + s``.
    """
    d1 = rhs(0, y)
    d2 = rhs(1, _stage(y, 0.5 * h, d1))
    d3 = rhs(1, _stage(y, 0.5 * h, d2))
    d4 = rhs(2, _stage(y, h, d3))
    return tuple(
        None if a is None else a + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        for a, k1, k2, k3, k4 in zip(y, d1, d2, d3, d4)
    )


def _stage(y, c, k):
    return tuple(None if a is None else a + c * b for a, b in zip(y, k))


def _rhs(chart, kind, x, M, u, w):
    """Derivatives of (position, frame transport, theta integral); M may be None."""
    vertical = bool(np.any(w != 0.0))
    if M is None:
        # positions only: plain chart values, no derivatives, no metric
        arr = chart_arrays(chart, x, order=0, fields=("th", "xi", "E"))
        v = np.einsum("...ia,...a->...i", arr.E, u)
        if vertical:
            v = v + w[..., None] * arr.xi
        return v, None, np.einsum("...i,...i->...", arr.th, v)
    data = transport_data(chart, x, vertical=vertical, wagner=(kind == "wagner"))
    v = np.einsum("...ia,...a->...i", data.E, u)
    if vertical:
        v = v + w[..., None] * data.xi
    df = np.einsum("...i,...i->...", data.theta, v)
    Om = np.einsum("...cab,...a->...cb", data.Gamma, u)
    if kind in ("adapted", "wagner") and vertical:
        vert = data.xi_coeffs
        if kind == "wagner":
            vert = vert + data.N
        Om = Om + w[..., None, None] * vert
    return v, -np.matmul(Om, M), df


def _reorthonormalize(chart, x, M, L0t):
    P, Lt = orthonormal_frame_change(chart_arrays(chart, x, order=0, fields=("G",)).G)
    Mo = Lt @ M @ np.linalg.inv(L0t)
    U, _, Vt = np.linalg.svd(Mo)
    return P @ (U @ Vt) @ L0t


def _integrate_controls(
    chart,
    x0s,
    controls,
    verticals,
    horizon,
    step,
    kind="schouten",
    with_M=True,
    collect=False,
    raise_on_exit=True,
):
    """Lockstep RK4 over a batch of control paths; returns end state.

    When ``collect`` is true the per-step positions are recorded.  With
    ``raise_on_exit=False`` escaped paths are flagged in the returned
    ``alive`` mask instead of raising.
    """
    x = np.array(x0s, dtype=float)
    P_, K, tm = controls.shape
    M = np.broadcast_to(np.eye(tm), (P_, tm, tm)).copy() if with_M else None
    f = np.zeros(P_)
    alive = np.ones(P_, dtype=bool)
    seg = horizon / K
    steps = _even_steps(seg, step)
    h = seg / steps
    _, L0t = orthonormal_frame_change(chart_arrays(chart, x, order=0, fields=("G",)).G)
    history = [x.copy()] if collect else None
    total = 0
    for k in range(K):
        u = controls[:, k, :]
        w = verticals[:, k] if verticals is not None else np.zeros(P_)

        def rhs(s, y):
            return _rhs(chart, kind, y[0], y[1], u, w)

        for _ in range(steps):
            xn, Mn, fn = _rk4_step(rhs, (x, M, f), h)
            # escaped paths stay frozen just outside the boundary, where
            # the chart functions are still well conditioned
            live = alive[:, None]
            x = np.where(live, xn, x)
            f = np.where(alive, fn, f)
            if with_M:
                M = np.where(live[:, :, None], Mn, M)
            total += 1
            inside = chart.domain.contains(x)
            if not np.all(inside):
                if raise_on_exit:
                    bad = x[~inside][0]
                    raise DomainError(f"curve left the chart domain at {bad}", point=bad)
                alive &= inside
            if with_M and total % REORTH_EVERY == 0:
                M = _reorthonormalize(chart, x, M, L0t)
            if collect:
                history.append(x.copy())
    return x, M, f, alive, history, h, steps


def _path_arrays(paths):
    x0s = np.stack([p.x0 for p in paths])
    controls = np.stack([p.controls for p in paths])
    if any(p.vertical is not None for p in paths):
        verticals = np.stack(
            [
                p.vertical if p.vertical is not None else np.zeros(p.segments)
                for p in paths
            ]
        )
    else:
        verticals = None
    return x0s, controls, verticals


# ---------------------------------------------------------------------------
# sampling curves


def sample_curve(chart, curve, step=None):
    """Densely sample a curve with frame-split velocities."""
    if isinstance(curve, SampledCurve):
        return curve
    if isinstance(curve, ControlPath):
        return _sample_control_path(chart, curve, step or curve.step)
    if isinstance(curve, ParametricCurve):
        return _sample_parametric(chart, curve, step or 0.01)
    raise TypeError(f"not a curve: {curve!r}")


def _sample_control_path(chart, path, step):
    _, _, _, _, history, h, steps = _integrate_controls(
        chart, *_path_arrays([path]), path.horizon, step,
        kind="adapted", with_M=False, collect=True,
    )
    pos = np.concatenate(history, axis=0)  # (K*steps + 1, n)
    K = path.segments
    per = steps + 1
    # each segment keeps its own copy of its two end samples
    sel = (np.arange(K)[:, None] * steps + np.arange(per)).ravel()
    xs, ts = pos[sel], sel * h
    us = np.repeat(path.controls, per, axis=0)
    ws = np.zeros(K * per) if path.vertical is None else np.repeat(path.vertical, per)
    piece_slices = [(k * per, k * per + steps) for k in range(K)]
    arr = chart_arrays(chart, xs, order=0, fields=("th", "xi", "E"))
    v = np.einsum("...ia,...a->...i", arr.E, us) + ws[:, None] * arr.xi
    theta_dot = np.einsum("...i,...i->...", arr.th, v)
    return SampledCurve(ts, xs, us, ws, theta_dot, piece_slices)


def _sample_parametric(chart, curve, step):
    ts_all, xs_all, vs_all = [], [], []
    piece_slices = []
    t0 = 0.0
    offset = 0
    for idx, (dur, pos, vel) in enumerate(curve.pieces):
        k = _even_steps(dur, step)
        s = np.linspace(0.0, 1.0, k + 1)
        xs = np.asarray(pos(s), dtype=float)
        vs = np.asarray(vel(s), dtype=float) / dur
        if idx > 0 and not np.allclose(xs[0], xs_all[-1][-1], atol=1e-10):
            raise ChartError("parametric curve pieces do not join continuously")
        ts_all.append(t0 + s * dur)
        xs_all.append(xs)
        vs_all.append(vs)
        piece_slices.append((offset, offset + k))
        offset += k + 1
        t0 += dur
    ts = np.concatenate(ts_all)
    xs = np.concatenate(xs_all, axis=0)
    vs = np.concatenate(vs_all, axis=0)
    if not np.all(chart.domain.contains(xs)):
        bad = xs[~chart.domain.contains(xs)][0]
        raise DomainError(f"curve leaves the chart domain at {bad}", point=bad)
    return SampledCurve(ts, xs, *_split_velocities(chart, xs, vs), piece_slices)


def _split_velocities(chart, xs, vs):
    """Frame components, Reeb component and theta value of velocities at xs."""
    arr = chart_arrays(chart, xs, order=0, fields=("th", "xi", "E"))
    aug = np.concatenate([arr.E, arr.xi[..., :, None]], axis=-1)
    coeff = np.linalg.solve(aug, vs[..., None])[..., 0]
    tm = 2 * chart.m
    return coeff[:, :tm], coeff[:, tm], np.einsum("...i,...i->...", arr.th, vs)


# ---------------------------------------------------------------------------
# transport over sampled curves


def _sampled_coefficients(chart, sc, kind):
    order = 2 if (kind == "wagner" and np.max(np.abs(sc.ws)) > HORIZONTAL_TOL) else 1
    data = frame_data(chart, sc.xs, order=order)
    Om = np.einsum("...cab,...a->...cb", data.Gamma, sc.us)
    if kind in ("adapted", "wagner"):
        vert = data.xi_coeffs
        if kind == "wagner" and order == 2:
            vert = vert + data.N
        Om = Om + sc.ws[:, None, None] * vert
    return Om


def _transport_sampled(chart, sc, kind):
    if kind not in TRANSPORT_KINDS:
        raise ValueError(f"unknown transport kind {kind!r}")
    if kind == "schouten" and np.max(np.abs(sc.theta_dot)) > HORIZONTAL_TOL:
        raise ChartError(
            "schouten transport requires a horizontal curve "
            f"(max |theta(v)| = {np.max(np.abs(sc.theta_dot)):.2e})"
        )
    A = -_sampled_coefficients(chart, sc, kind)
    (M,) = _integrate_sampled(sc, lambda i, y: (A[i] @ y[0],), (np.eye(A.shape[-1]),))
    return M


def _integrate_sampled(sc, rhs, y):
    """RK4 over the samples of a curve; one step spans two sample intervals.

    ``rhs(i, y)`` evaluates the derivative with the coefficients at sample i.
    """
    for i0, i1 in sc.piece_slices:
        for j in range(i0, i1, 2):
            h2 = float(sc.ts[j + 2] - sc.ts[j])
            y = _rk4_step(lambda s, y: rhs(j + s, y), y, h2)
    return y


def transport(chart, curve, kind, step=None):
    """Parallel transport along a curve for the chosen connection.

    ``kind='schouten'`` demands a horizontal curve; the zero and Wagner
    extensions accept arbitrary curves via the split v = u^a e_a + w xi.
    """
    if kind not in TRANSPORT_KINDS:
        raise ValueError(f"unknown transport kind {kind!r}")
    if isinstance(curve, ControlPath):
        x0s, controls, verticals = _path_arrays([curve])
        if kind == "schouten" and verticals is not None and np.max(np.abs(verticals)) > 0:
            raise ChartError("schouten transport requires a horizontal curve")
        x, M, _, _, _, _, _ = _integrate_controls(
            chart, x0s, controls, verticals, curve.horizon, curve.step, kind=kind,
        )
        return TransportResult(tau=M[0], start=curve.x0, end=x[0])
    sc = sample_curve(chart, curve, step)
    return TransportResult(
        tau=_transport_sampled(chart, sc, kind), start=sc.xs[0], end=sc.xs[-1]
    )


# ---------------------------------------------------------------------------
# the scalar connection on the Reeb line bundle


def _theta_integral(sc):
    """Composite-Simpson integral of theta(velocity) over the samples."""
    total = 0.0
    for i0, i1 in sc.piece_slices:
        for j in range(i0, i1, 2):
            h2 = float(sc.ts[j + 2] - sc.ts[j])
            total += (h2 / 6.0) * (
                sc.theta_dot[j] + 4.0 * sc.theta_dot[j + 1] + sc.theta_dot[j + 2]
            )
    return total


def _cumulative_theta_integral(sc):
    """theta-integral at every sample, O(h^4), piecewise Newton-Cotes.

    Duplicated breakpoint samples carry the accumulated value across
    pieces.
    """
    out = np.zeros(len(sc.ts))
    carry = 0.0
    for i0, i1 in sc.piece_slices:
        out[i0] = carry
        for j in range(i0, i1, 2):
            h = float(sc.ts[j + 1] - sc.ts[j])
            g0, g1, g2 = sc.theta_dot[j], sc.theta_dot[j + 1], sc.theta_dot[j + 2]
            out[j + 1] = out[j] + (h / 12.0) * (5.0 * g0 + 8.0 * g1 - g2)
            out[j + 2] = out[j] + (h / 3.0) * (g0 + 4.0 * g1 + g2)
        carry = out[i1]
    return out


def transport_theta(chart, curve, method="quadrature", step=0.005):
    """Scalar transport factor exp(-integral of theta) along a curve.

    ``method='quadrature'`` integrates theta(velocity) by composite
    Simpson; ``method='ode'`` integrates the transport equation
    d(lambda)/dt = -lambda theta(velocity) with RK4 over the same samples.
    The default sampling step is finer than the transport default; the
    scalar integrand is cheap and the two routes must agree to 1e-6.
    """
    sc = sample_curve(chart, curve, step)
    if method == "quadrature":
        return float(np.exp(-_theta_integral(sc)))
    if method != "ode":
        raise ValueError(f"unknown method {method!r}")
    g = -sc.theta_dot
    (lam,) = _integrate_sampled(sc, lambda i, y: (g[i] * y[0],), (1.0,))
    return float(lam)


# ---------------------------------------------------------------------------
# Reeb flow and horizontalization


def _reeb_flow_batch(chart, X, times, step=0.01, jacobian=False):
    """Flow of the Reeb field for per-point durations (time-rescaled RK4)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    times = np.atleast_1d(np.asarray(times, dtype=float))
    n = chart.dim
    P = X.shape[0]
    J = np.broadcast_to(np.eye(n), (P, n, n)).copy() if jacobian else None
    tmax = float(np.max(np.abs(times))) if len(times) else 0.0
    steps = max(1, int(np.ceil(tmax / step)))
    h = 1.0 / steps

    def rhs(s, state):
        y, J = state
        arr = chart_arrays(chart, y, order=1 if jacobian else 0, fields=("xi",))
        v = times[:, None] * arr.xi
        dJ = None
        if jacobian:
            dJ = times[:, None, None] * (arr.dxi @ J)
        return v, dJ

    y = X
    for _ in range(steps):
        y, J = _rk4_step(rhs, (y, J), h)
        if not np.all(chart.domain.contains(y)):
            bad = y[~chart.domain.contains(y)][0]
            raise DomainError(f"Reeb flow left the chart domain at {bad}", point=bad)
    return (y, J) if jacobian else y


def horizontalize(chart, curve, step=None, flow_step=0.01):
    """Flow each curve point down the Reeb direction to kill theta(velocity).

    Returns the horizontal companion curve as a :class:`SampledCurve`
    (same parameter grid).  Its endpoint is the Reeb flow of the original
    endpoint for time minus the theta-integral of the curve.
    """
    sc = sample_curve(chart, curve, step)
    f = -_cumulative_theta_integral(sc)
    ys, J = _reeb_flow_batch(chart, sc.xs, f, step=flow_step, jacobian=True)
    arr = chart_arrays(chart, sc.xs, order=0, fields=("xi", "E"))
    v = np.einsum("...ia,...a->...i", arr.E, sc.us) + sc.ws[:, None] * arr.xi
    v_h = v - sc.theta_dot[:, None] * arr.xi
    vt = np.einsum("...kl,...l->...k", J, v_h)
    return SampledCurve(
        sc.ts.copy(), ys, *_split_velocities(chart, ys, vt), list(sc.piece_slices)
    )


def transport_equivalence_check(chart, loop, step=None):
    """Compare zero-extension transport along a balanced loop with the
    horizontal transport along its horizontalization.

    The loop must close and have vanishing theta-integral (so the
    horizontalized curve is a loop as well).  Returns ``(residual, tilde)``:
    the Frobenius norm of the difference of the two transports, and the
    horizontal companion :class:`SampledCurve` from :func:`horizontalize`,
    so a caller can check its horizontality without flowing the loop again.
    """
    sc = sample_curve(chart, loop, step)
    if not np.allclose(sc.xs[0], sc.xs[-1], atol=1e-8):
        raise ChartError("transport_equivalence_check needs a loop")
    total = _theta_integral(sc)
    if abs(total) > 1e-8:
        raise ChartError(
            f"loop is not balanced: integral of theta = {total:.3e}; "
            "cancel it by construction before calling"
        )
    tau0 = _transport_sampled(chart, sc, "adapted")
    tilde = horizontalize(chart, sc)
    tau_t = _transport_sampled(chart, tilde, "schouten")
    return float(np.linalg.norm(tau0 - tau_t)), tilde


# ---------------------------------------------------------------------------
# samplers and loop builders


def _draw_path(chart, x0, segments, horizon, magnitude, seed, step,
               vertical_magnitude, i, attempt):
    rng = np.random.default_rng([int(seed), int(i), int(attempt)])
    controls = rng.normal(0.0, 1.0, (segments, 2 * chart.m)) * magnitude
    vertical = None
    if vertical_magnitude > 0:
        vertical = rng.normal(0.0, 1.0, segments) * vertical_magnitude
    return ControlPath(x0, controls, horizon, step, vertical)


def _sample_and_integrate(
    chart, x0, n_paths, segments, horizon, magnitude, seed, step,
    vertical_magnitudes, max_attempts=60,
):
    """Draw the paths of every half, integrate them in one batch, redraw
    the ones that escape.

    Half k draws ``n_paths`` paths whose segments carry Reeb-direction
    controls at ``vertical_magnitudes[k]`` (0 draws horizontal paths); its
    rows follow those of half k - 1.  Attempt k redraws every row still
    escaped after attempt k - 1, of every half, all in one batch.  Each
    draw comes from its own (seed, path index, attempt) stream per half,
    so the accepted paths depend neither on how the batches are formed
    nor on the other halves.  Returns one ``(paths, endpoints,
    transports, theta_integrals)`` per half.
    """
    if n_paths < 0 or segments <= 0 or horizon <= 0 or magnitude < 0:
        raise ValueError("sampler needs n_paths >= 0, segments > 0, horizon > 0, magnitude >= 0")
    x0 = np.asarray(x0, dtype=float)
    if not chart.domain.contains(x0):
        raise DomainError(f"base point outside the chart domain: {x0}", point=x0)

    def draw(r, attempt):
        return _draw_path(chart, x0, segments, horizon, magnitude, seed, step,
                          vertical_magnitudes[r // n_paths], r % n_paths, attempt)

    paths = [draw(r, 0) for r in range(n_paths * len(vertical_magnitudes))]
    if not paths:
        tm = 2 * chart.m
        empty = ([], np.zeros((0, chart.dim)), np.zeros((0, tm, tm)), np.zeros(0))
        return [empty for _ in vertical_magnitudes]
    # horizontal rows add 0 * xi and 0 * xi_coeffs: their bits are those of
    # a Schouten integration
    x, M, f, alive, _, _, _ = _integrate_controls(
        chart, *_path_arrays(paths), horizon, step, kind="adapted", raise_on_exit=False,
    )
    pending = np.nonzero(~alive)[0]
    for attempt in range(1, max_attempts):
        if not len(pending):
            break
        cands = [draw(r, attempt) for r in pending]
        xr, Mr, fr, ok, _, _, _ = _integrate_controls(
            chart, *_path_arrays(cands), horizon, step, kind="adapted", raise_on_exit=False,
        )
        for j in np.nonzero(ok)[0]:
            r = pending[j]
            paths[r] = cands[j]
            x[r], M[r], f[r] = xr[j], Mr[j], fr[j]
        pending = pending[~ok]
    if len(pending):
        raise SamplingError(
            f"could not sample an in-domain path for index {pending[0] % n_paths} "
            f"after {max_attempts} attempts"
        )
    return [(paths[k:k + n_paths], x[k:k + n_paths], M[k:k + n_paths], f[k:k + n_paths])
            for k in range(0, len(paths), n_paths)]


def sampled_path_transports(chart, x0, sampler: SamplerConfig, halves=HALVES):
    """Sampled paths together with their transports, in one integration pass.

    Each requested half gets ``sampler.n_paths`` paths: the horizontal
    half draws horizontal paths, the adapted half also gives each segment
    a Reeb-direction control at the sampler's ``magnitude``.  Returns one
    ``(paths, endpoints, taus, theta_integrals)`` per half, in the order
    requested.
    """
    for half in halves:
        if half not in HALVES:
            raise ValueError(f"unknown sampling half {half!r}")
    return _sample_and_integrate(
        chart, x0, sampler.n_paths, sampler.segments, sampler.horizon,
        sampler.magnitude, sampler.seed, sampler.step,
        [sampler.magnitude if half == "adapted" else 0.0 for half in halves],
    )


def isometry_residual(chart, x0, sampler: SamplerConfig):
    """Worst deviation of sampled horizontal transports from metric isometries."""
    x0 = np.asarray(x0, dtype=float)
    ((_, ends, taus, _),) = sampled_path_transports(chart, x0, sampler, ("horizontal",))
    if not len(taus):
        return 0.0
    P0, _ = orthonormal_frame_change(chart_arrays(chart, x0[None], order=0, fields=("G",)).G)
    _, Pinv = orthonormal_frame_change(chart_arrays(chart, ends, order=0, fields=("G",)).G)
    taus_o = ortho_transports(taus, Pinv, P0[0])
    eye = np.eye(2 * chart.m)
    return float(np.max(np.abs(np.einsum("pji,pjk->pik", taus_o, taus_o) - eye)))


def _circle_piece(x0, pair, radius, phase, orientation, duration, t_amp=0.0, t_index=None):
    """One full coordinate circle through x0 in the given coordinate pair,
    with an optional closed wiggle in the t coordinate."""
    i, j = pair
    cx = x0[i] - radius * np.cos(phase)
    cy = x0[j] - radius * np.sin(phase)

    def pos(s):
        ang = phase + orientation * 2.0 * np.pi * s
        out = np.tile(x0, (len(s), 1))
        out[:, i] = cx + radius * np.cos(ang)
        out[:, j] = cy + radius * np.sin(ang)
        if t_amp:
            out[:, t_index] = x0[t_index] + t_amp * np.sin(2.0 * np.pi * s)
        return out

    def vel(s):
        ang = phase + orientation * 2.0 * np.pi * s
        out = np.zeros((len(s), len(x0)))
        out[:, i] = -radius * orientation * 2.0 * np.pi * np.sin(ang)
        out[:, j] = radius * orientation * 2.0 * np.pi * np.cos(ang)
        if t_amp:
            out[:, t_index] = t_amp * 2.0 * np.pi * np.cos(2.0 * np.pi * s)
        return out

    return (duration, pos, vel)


def _loop_theta_integral(chart, pieces, step=2e-3):
    return _theta_integral(_sample_parametric(chart, ParametricCurve(pieces), step))


def balanced_loop(chart, x0, rng, radius=0.12, t_amp=0.1, max_tries=8):
    """A non-horizontal coordinate loop at x0 with vanishing theta-integral.

    Concatenates a base circle in one coordinate pair with a reversed
    circle in another pair whose radius is root-found so the two
    theta-integrals cancel; closed t-wiggles make the loop non-horizontal
    without contributing to the integral.
    """
    from scipy.optimize import brentq

    x0 = np.asarray(x0, dtype=float)
    pairs = [(blk[2 * k], blk[2 * k + 1]) for blk in chart.blocks
             for k in range(len(blk) // 2)]
    if len(pairs) < 2:
        raise ChartError("balanced loops need at least two coordinate pairs")
    tidx = chart.dim - 1
    lo, hi = 0.02 * radius, 2.2 * radius
    for _ in range(max_tries):
        p1, p2 = [pairs[i] for i in rng.choice(len(pairs), size=2, replace=False)]
        r1 = radius * (0.7 + 0.6 * rng.random())
        ph1, ph2 = rng.uniform(0, 2 * np.pi, 2)
        amp = t_amp * (0.5 + rng.random())
        base = _circle_piece(x0, p1, r1, ph1, +1.0, 1.0, amp, tidx)
        base_val = _loop_theta_integral(chart, [base])
        for orient in (-1.0, +1.0):

            def total(r2, orient=orient):
                second = _circle_piece(x0, p2, r2, ph2, orient, 1.0, amp, tidx)
                return base_val + _loop_theta_integral(chart, [second])

            if total(lo) * total(hi) > 0:
                continue
            r2 = brentq(total, lo, hi, xtol=1e-13, rtol=1e-15)
            curve = ParametricCurve(
                [base, _circle_piece(x0, p2, r2, ph2, orient, 1.0, amp, tidx)]
            )
            try:
                sc = _sample_parametric(chart, curve, 2e-3)
            except DomainError:
                break
            if abs(_theta_integral(sc)) < 1e-10:
                return curve
    raise SamplingError("could not build a balanced loop at this base point")
