"""K-contact charts: domain types, built-in examples, pointwise evaluation.

A chart describes a (2m+1)-dimensional K-contact sub-Riemannian manifold in
a single coordinate patch through four coefficient functions: the contact
form ``theta``, the Reeb field ``xi``, a horizontal frame spanning
``ker(theta)``, and the metric expressed in that frame.  The functions take
a list of coordinate scalars and must evaluate on plain numbers and on the
forward-differentiation scalars from :mod:`kcontact.jets`; everything else
in the package is derived from them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import jets
from .errors import ChartError, ConfigError, DomainError

__all__ = [
    "Domain",
    "FactorSpec",
    "ContactChart",
    "heisenberg",
    "product_construction",
    "chart_from_config",
    "config_int",
    "example_charts",
    "eval_contact",
    "d_theta_frame",
    "structure_functions",
    "random_domain_points",
    "chart_invariant_residuals",
]

FACTOR_KINDS = ("poincare_disc", "bergman_ball", "perturbed_disc")
BALL_RADIUS = 0.9  # chart clipping radius for disc/ball factors


@dataclass(frozen=True)
class Domain:
    """Box constraint plus optional ball constraints on coordinate groups."""

    lo: np.ndarray
    hi: np.ndarray
    balls: tuple = ()  # tuple of (coordinate-index tuple, radius)

    def contains(self, X):
        X = np.asarray(X, dtype=float)
        ok = np.all((X >= self.lo) & (X <= self.hi), axis=-1)
        for idx, radius in self.balls:
            ok = ok & (np.sum(X[..., list(idx)] ** 2, axis=-1) <= radius**2)
        return ok


@dataclass(frozen=True)
class FactorSpec:
    """One Kahler factor of the product construction."""

    kind: str
    complex_dim: int = 1
    b: float = 1.0
    curvature: float = 1.0
    epsilon: float = 0.0
    bump_radius: float = 0.8  # support radius of the perturbation bump

    def __post_init__(self):
        if self.kind not in FACTOR_KINDS:
            raise ConfigError(f"unknown factor kind {self.kind!r}")
        for name in ("b", "curvature", "epsilon", "bump_radius"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"factor {name} must be finite, got {getattr(self, name)}")
        if self.b == 0.0:
            raise ConfigError("factor coefficient b must be nonzero")
        if self.complex_dim < 1:
            raise ConfigError("complex_dim must be >= 1")
        if self.kind in ("poincare_disc", "perturbed_disc") and self.complex_dim != 1:
            raise ConfigError(f"{self.kind} requires complex_dim == 1")
        if self.curvature <= 0.0:
            raise ConfigError("curvature scale must be positive")


@dataclass(frozen=True)
class ContactChart:
    """Single-chart description of a K-contact sub-Riemannian manifold."""

    m: int
    domain: Domain
    theta: Callable
    xi: Callable
    frame: Callable
    metric: Callable
    name: str = "chart"
    factors: tuple = ()
    blocks: tuple = ()  # frame-index blocks, one per factor

    @property
    def dim(self):
        return 2 * self.m + 1

    def origin(self):
        return np.zeros(self.dim)


# ---------------------------------------------------------------------------
# factor geometry


def _disc_scale(spec, u):
    """Conformal coefficient of a hyperbolic disc, optionally perturbed."""
    s = 1.0 - u
    lam = (4.0 / spec.curvature) / (s * s)
    if spec.kind == "perturbed_disc" and spec.epsilon != 0.0:
        lam = lam * jets.exp(spec.epsilon * _bump(u, spec.bump_radius**2))
    return lam


def _bump(u, support):
    """Smooth bump in u = |z|^2, identically zero for u >= support."""
    q = u / support
    inside = q < 0.995
    qc = jets.where(inside, q, 0.0)
    val = jets.exp(1.0 - 1.0 / (1.0 - qc))
    return jets.where(inside, val, 0.0)


def _disc_metric(spec, w):
    lam = _disc_scale(spec, w[0] * w[0] + w[1] * w[1])
    return [[lam, 0.0], [0.0, lam]]


def _disc_primitive(spec, w):
    # radial primitive of the Ricci form: f(r) d(phi), f(0) = 0
    x, y = w
    s = 1.0 - (x * x + y * y)
    return [2.0 * y / s, -2.0 * x / s]


def _ball_metric(spec, w):
    p = spec.complex_dim
    xs = w[0::2]
    ys = w[1::2]
    u = xs[0] * xs[0] + ys[0] * ys[0]
    for j in range(1, p):
        u = u + xs[j] * xs[j] + ys[j] * ys[j]
    s = 1.0 - u
    inv_s = 1.0 / s
    inv_s2 = inv_s * inv_s
    c = spec.curvature
    G = [[None] * (2 * p) for _ in range(2 * p)]
    for j in range(p):
        for k in range(p):
            re = (xs[j] * xs[k] + ys[j] * ys[k]) * inv_s2
            if j == k:
                re = re + inv_s
            im = (xs[j] * ys[k] - ys[j] * xs[k]) * inv_s2
            re = (2.0 / c) * re
            im = (2.0 / c) * im
            G[2 * j][2 * k] = re
            G[2 * j + 1][2 * k + 1] = re
            G[2 * j][2 * k + 1] = im
            G[2 * j + 1][2 * k] = -1.0 * im
    return G


def _ball_primitive(spec, w):
    p = spec.complex_dim
    u = w[0] * w[0] + w[1] * w[1]
    for j in range(1, p):
        u = u + w[2 * j] * w[2 * j] + w[2 * j + 1] * w[2 * j + 1]
    s = 1.0 - u
    comps = []
    for j in range(p):
        comps.append((p + 1.0) * w[2 * j + 1] / s)
        comps.append(-(p + 1.0) * w[2 * j] / s)
    return comps


def _factor_metric(spec, w):
    if spec.kind == "bergman_ball":
        return _ball_metric(spec, w)
    return _disc_metric(spec, w)


def _factor_primitive(spec, w):
    if spec.kind == "bergman_ball":
        return _ball_primitive(spec, w)
    return _disc_primitive(spec, w)


# ---------------------------------------------------------------------------
# built-in charts


def _vertical_reeb(n):
    """Reeb field d/dt along the last of n coordinates, as every built-in chart has."""
    return lambda x: [0.0] * (n - 1) + [1.0]


def heisenberg(m):
    """Flat test chart: coordinates (x1, y1, ..., xm, ym, t), theta = dt - sum yi dxi."""
    if m < 2:
        raise ChartError("heisenberg chart needs m >= 2")
    n = 2 * m + 1

    def theta(x):
        comps = [0.0] * n
        for i in range(m):
            comps[2 * i] = -1.0 * x[2 * i + 1]
        comps[n - 1] = 1.0
        return comps

    def frame(x):
        cols = [[0.0] * (2 * m) for _ in range(n)]
        for i in range(m):
            cols[2 * i][2 * i] = 1.0
            cols[n - 1][2 * i] = x[2 * i + 1]
            cols[2 * i + 1][2 * i + 1] = 1.0
        return cols

    def metric(x):
        return [[1.0 if a == b else 0.0 for b in range(2 * m)] for a in range(2 * m)]

    lo = -np.full(n, 3.0)
    hi = np.full(n, 3.0)
    lo[-1], hi[-1] = -6.0, 6.0
    blocks = tuple(tuple(range(2 * i, 2 * i + 2)) for i in range(m))
    return ContactChart(m, Domain(lo, hi), theta, _vertical_reeb(n), frame, metric,
                        name=f"heisenberg({m})", blocks=blocks)


def product_construction(factors: Sequence[FactorSpec]):
    """Chart on R x M1 x ... x Mr with theta = dt + sum bi theta^i.

    Each factor is a Kahler disc or ball whose Ricci form is exact with the
    shipped primitive theta^i; the horizontal frame lifts the factor
    coordinate fields into ker(theta).
    """
    factors = tuple(factors)
    if not factors:
        raise ChartError("product construction needs at least one factor")
    m = sum(f.complex_dim for f in factors)
    if m < 2:
        raise ChartError("total complex dimension must be >= 2 (dim M >= 5)")
    n = 2 * m + 1
    offs = []
    off = 0
    for f in factors:
        offs.append(off)
        off += 2 * f.complex_dim

    def theta(x):
        comps = [0.0] * n
        for f, o in zip(factors, offs):
            prim = _factor_primitive(f, x[o : o + 2 * f.complex_dim])
            for k, p in enumerate(prim):
                comps[o + k] = f.b * p
        comps[n - 1] = 1.0
        return comps

    def frame(x):
        cols = [[0.0] * (2 * m) for _ in range(n)]
        for f, o in zip(factors, offs):
            prim = _factor_primitive(f, x[o : o + 2 * f.complex_dim])
            for k in range(2 * f.complex_dim):
                cols[o + k][o + k] = 1.0
                cols[n - 1][o + k] = -f.b * prim[k]
        return cols

    def metric(x):
        G = [[0.0] * (2 * m) for _ in range(2 * m)]
        for f, o in zip(factors, offs):
            block = _factor_metric(f, x[o : o + 2 * f.complex_dim])
            for a in range(2 * f.complex_dim):
                for b in range(2 * f.complex_dim):
                    G[o + a][o + b] = block[a][b]
        return G

    lo = -np.full(n, BALL_RADIUS)
    hi = np.full(n, BALL_RADIUS)
    lo[-1], hi[-1] = -4.0, 4.0
    balls = tuple(
        (tuple(range(o, o + 2 * f.complex_dim)), BALL_RADIUS)
        for f, o in zip(factors, offs)
    )
    blocks = tuple(
        tuple(range(o, o + 2 * f.complex_dim)) for f, o in zip(factors, offs)
    )
    label = "x".join(f"{f.kind}(b={f.b:g})" for f in factors)
    return ContactChart(m, Domain(lo, hi, balls), theta, _vertical_reeb(n), frame, metric,
                        name=f"product[{label}]", factors=factors, blocks=blocks)


def config_int(value, what):
    """An integer configuration field: an int or an integral float.

    Booleans, fractions, non-finite values and non-numbers raise
    :class:`ConfigError` instead of being truncated by ``int()``.
    """
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise ConfigError(f"{what} must be an integer, got {value!r}")


def chart_from_config(cfg: dict):
    """Build a chart from the JSON configuration schema."""
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ConfigError("manifold config must be an object with a 'type' field")
    kind = cfg["type"]
    if kind == "heisenberg":
        m = config_int(cfg.get("m"), "heisenberg config 'm'")
        try:
            return heisenberg(m)
        except ChartError as exc:
            raise ConfigError(str(exc)) from exc
    if kind == "product":
        raw = cfg.get("factors")
        if not isinstance(raw, list) or not raw:
            raise ConfigError("product config needs a nonempty 'factors' list")
        specs = []
        for item in raw:
            try:
                specs.append(
                    FactorSpec(
                        kind=item["kind"],
                        complex_dim=config_int(item.get("complex_dim", 1), "complex_dim"),
                        b=float(item.get("b", 1.0)),
                        curvature=float(item.get("curvature", 1.0)),
                        epsilon=float(item.get("epsilon", 0.0)),
                    )
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise ConfigError(f"bad factor spec {item!r}") from exc
        try:
            return product_construction(specs)
        except ChartError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown manifold type {kind!r}")


def example_charts():
    """The standard laboratory charts used throughout the test-bench."""
    return {
        "heisenberg": heisenberg(2),
        "disc_disc_11": product_construction(
            [FactorSpec("poincare_disc", b=1.0), FactorSpec("poincare_disc", b=1.0)]
        ),
        "disc_disc_12": product_construction(
            [FactorSpec("poincare_disc", b=1.0), FactorSpec("poincare_disc", b=2.0)]
        ),
        "bergman": product_construction(
            [FactorSpec("bergman_ball", complex_dim=2, b=1.0)]
        ),
        "perturbed_disc_disc": product_construction(
            [
                FactorSpec("perturbed_disc", b=1.0, epsilon=0.3),
                FactorSpec("poincare_disc", b=1.0),
            ]
        ),
    }


# ---------------------------------------------------------------------------
# evaluation


CHART_FIELDS = ("th", "xi", "E", "G")


@dataclass
class ChartArrays:
    """Chart coefficient functions and their coordinate derivatives, batched.

    Derivative axes trail the component axes: ``dth[..., i, j]`` is the
    j-th partial of theta_i, ``d2G[..., a, b, i, j]`` the (i, j) second
    partial of the metric entry (a, b), and so on.  A field that was not
    requested from :func:`chart_arrays` is ``None`` at every order, as are
    the derivatives above the evaluated order.
    """

    X: np.ndarray
    order: int
    th: np.ndarray = None
    xi: np.ndarray = None
    E: np.ndarray = None
    G: np.ndarray = None
    dth: np.ndarray = None
    dxi: np.ndarray = None
    dE: np.ndarray = None
    dG: np.ndarray = None
    d2th: np.ndarray = None
    d2xi: np.ndarray = None
    d2E: np.ndarray = None
    d2G: np.ndarray = None


def chart_arrays(chart, X, order=1, *, fields=CHART_FIELDS):
    """Evaluate theta, xi, frame, metric (and derivatives) at points X (..., n).

    ``fields`` is a subset of ``("th", "xi", "E", "G")``: only those
    coefficient functions are called, and the other entries of the
    returned :class:`ChartArrays` stay ``None``.  A requested field has the
    same bits whatever else is requested.
    """
    unknown = set(fields) - set(CHART_FIELDS)
    if unknown:
        raise ValueError(f"unknown chart fields {sorted(unknown)}")
    X = np.asarray(X, dtype=float)
    n = chart.dim
    batch = X.shape[:-1]
    coords = jets.seed(X, order)
    out = ChartArrays(X, order)
    for name, fn in zip(CHART_FIELDS, (chart.theta, chart.xi, chart.frame, chart.metric)):
        if name in fields:
            val, d1, d2 = jets.stack_arrays(fn(coords), order, n, batch)
            setattr(out, name, val)
            setattr(out, "d" + name, d1)
            setattr(out, "d2" + name, d2)
    return out


def frame_brackets(arr):
    """Frame brackets and their coefficients in the basis [E | xi].

    Returns ``(Br, Minv, cfull)``: the coordinate components
    ``Br[..., k, a, b]`` of [e_a, e_b], the frame solve ``[E | xi]^-1``,
    and ``cfull = Minv Br``, whose first 2m rows are the coefficients of
    pi[e_a, e_b] and whose last row is theta([e_a, e_b]).
    """
    Br = np.einsum("...ia,...kbi->...kab", arr.E, arr.dE)
    Br = Br - Br.swapaxes(-1, -2)
    Minv = np.linalg.inv(np.concatenate([arr.E, arr.xi[..., :, None]], axis=-1))
    return Br, Minv, np.einsum("...ck,...kab->...cab", Minv, Br)


def reeb_brackets(arr, Minv):
    """Coefficients ``[..., c, a]`` of [xi, e_a] in the basis [E | xi]."""
    Bx = np.einsum("...i,...kai->...ka", arr.xi, arr.dE) - np.einsum(
        "...ia,...ki->...ka", arr.E, arr.dxi
    )
    return np.einsum("...ck,...ka->...ca", Minv, Bx)


def structure_pieces(arr):
    """First-order frame data: omega, brackets, structure functions.

    Returns a dict with omega (2m x 2m), the coefficients ``c`` of
    pi[e_a, e_b], ``tau`` = theta([e_a, e_b]), ``dcoef`` = frame
    coefficients of [xi, e_a], plus the frame solve matrix and raw pieces.
    """
    E = arr.E
    A = arr.dth.swapaxes(-1, -2) - arr.dth  # A_ij = d_i theta_j - d_j theta_i
    Br, Minv, cfull = frame_brackets(arr)
    dfull = reeb_brackets(arr, Minv)
    tm = E.shape[-1]
    return {
        "A": A,
        "omega": np.einsum("...ia,...ij,...jb->...ab", E, A, E),
        "Br": Br,
        "Minv": Minv,
        "c": cfull[..., :tm, :, :],
        "tau": cfull[..., tm, :, :],
        "dcoef": dfull[..., :tm, :],
        "dcoef_theta": dfull[..., tm, :],
    }


def _checked_arrays(chart, x, order):
    """Chart arrays at a validated point (as a batch of one) or batch."""
    x = np.asarray(x, dtype=float)
    ok = chart.domain.contains(x)
    if not np.all(ok):
        bad = x.reshape(-1, chart.dim)[~np.atleast_1d(ok)][0]
        raise DomainError(f"point outside chart domain: {bad}", point=bad)
    return chart_arrays(chart, x[None] if x.ndim == 1 else x, order=order)


def eval_contact(chart, x):
    """Evaluate (theta_x, xi_x, frame E_x, metric G_x) at a point, validated."""
    arr = _checked_arrays(chart, x, order=0)
    th, xi, E, G = arr.th, arr.xi, arr.E, arr.G
    eig = np.linalg.eigvalsh(G)
    if np.min(eig) <= 0.0:
        raise ChartError(f"metric not positive definite (min eig {np.min(eig):.3e})")
    if np.ndim(x) == 1:
        return th[0], xi[0], E[0], G[0]
    return th, xi, E, G


def d_theta_frame(chart, x):
    """Matrix of the contact 2-form in the frame: dtheta(e_a, e_b), no 1/2 factor."""
    omega = structure_pieces(_checked_arrays(chart, x, order=1))["omega"]
    if np.min(np.abs(np.linalg.det(omega))) < 1e-12:
        raise ChartError("degenerate dtheta: chart is not contact at this point")
    return omega[0] if np.ndim(x) == 1 else omega


def structure_functions(chart, x):
    """Structure functions (c, tau, d) of the frame at a point.

    pi[e_a, e_b] = c[c', a, b] e_c',  theta([e_a, e_b]) = tau[a, b],
    [xi, e_a] = d[b, a] e_b.
    """
    p = structure_pieces(_checked_arrays(chart, x, order=1))
    c, tau, d = p["c"], p["tau"], p["dcoef"]
    if np.ndim(x) == 1:
        return c[0], tau[0], d[0]
    return c, tau, d


def random_domain_points(chart, count, rng, margin=1.0):
    """Uniform points in the chart domain (rejection-sampled), deterministic."""
    dom = chart.domain
    n = chart.dim
    center = 0.5 * (dom.lo + dom.hi)
    half = 0.5 * (dom.hi - dom.lo) * margin
    pts = np.empty((0, n))
    while len(pts) < count:
        cand = center + (2.0 * rng.random((2 * count, n)) - 1.0) * half
        ok = dom.contains(cand)
        for idx, radius in dom.balls:
            ok = ok & (np.sum(cand[:, list(idx)] ** 2, axis=1) <= (radius * margin) ** 2)
        pts = np.vstack([pts, cand[ok]])
    return pts[:count]


def chart_invariant_residuals(chart, X):
    """Max residuals of the chart invariants over a batch of points."""
    arr = chart_arrays(chart, X, order=1)
    p = structure_pieces(arr)
    th, xi, E, G = arr.th, arr.xi, arr.E, arr.G
    res = {}
    res["theta_xi"] = float(np.max(np.abs(np.einsum("...i,...i->...", th, xi) - 1.0)))
    res["theta_frame"] = float(np.max(np.abs(np.einsum("...i,...ia->...a", th, E))))
    res["spd_min_eig"] = float(np.min(np.linalg.eigvalsh(G)))
    res["reeb_interior"] = float(
        np.max(np.abs(np.einsum("...i,...ij,...ja->...a", xi, p["A"], E)))
    )
    res["det_omega_min"] = float(np.min(np.abs(np.linalg.det(p["omega"]))))
    # Lie derivative of g along xi, evaluated on frame pairs
    xiG = np.einsum("...i,...abi->...ab", xi, arr.dG)
    d_low = np.einsum("...ca,...cb->...ab", p["dcoef"], G)
    lie = xiG - d_low - d_low.swapaxes(-1, -2)
    res["lie_xi_g"] = float(np.max(np.abs(lie)))
    res["tau_plus_omega"] = float(np.max(np.abs(p["tau"] + p["omega"])))
    res["theta_xi_bracket"] = float(np.max(np.abs(p["dcoef_theta"])))
    return res
