"""K-contact charts: domain types, built-in examples, pointwise evaluation.

A chart describes a (2m+1)-dimensional K-contact sub-Riemannian manifold in
a single coordinate patch through four coefficient functions: the contact
form ``theta``, the Reeb field ``xi``, a horizontal frame spanning
``ker(theta)``, and the metric expressed in that frame.  The functions take
a list of coordinate scalars and must evaluate on plain numbers and on the
forward-differentiation scalars from :mod:`kcontact.jets`; everything else
in the package is derived from them.  The built-in examples are JSON
configs (:data:`EXAMPLES`) built through :func:`chart_from_config`.

The chart invariant suite (:func:`chart_invariant_residuals`) reads the
frame data of :func:`kcontact.connection.frame_data` (which computes the
frame brackets too), as the connection suite does, so one evaluation of a
batch of points serves both.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields
from itertools import accumulate
from typing import Callable, Sequence, get_type_hints

import numpy as np

from . import jets
from .errors import ChartError, ConfigError

__all__ = [
    "Domain",
    "FactorSpec",
    "ContactChart",
    "heisenberg",
    "product_construction",
    "chart_from_config",
    "config_int",
    "config_float",
    "config_fields",
    "config_keys",
    "EXAMPLES",
    "example_charts",
    "random_domain_points",
    "chart_invariant_residuals",
]

FACTOR_KINDS = ("poincare_disc", "bergman_ball", "perturbed_disc")
BALL_RADIUS = 0.9  # chart clipping radius for disc/ball factors
BUMP_RADIUS = 0.8  # support radius of the perturbed disc's bump


@dataclass(frozen=True)
class Domain:
    """Box constraint plus optional ball constraints on coordinate groups."""

    lo: np.ndarray
    hi: np.ndarray
    balls: tuple = ()  # tuple of (coordinate-index tuple, radius)

    def contains(self, X):
        """Flags of the points ``X`` inside the domain.  Points given by their
        first k coordinates only are tested against the box on those and the
        balls among them: with k = 2m, whether some t puts them inside."""
        X = np.asarray(X, dtype=float)
        k = X.shape[-1]
        ok = np.all((X >= self.lo[:k]) & (X <= self.hi[:k]), axis=-1)
        for idx, radius in self.balls:
            if max(idx) < k:
                ok = ok & (np.sum(X[..., list(idx)] ** 2, axis=-1) <= radius**2)
        return ok


@dataclass(frozen=True)
class FactorSpec:
    """One Kahler factor of the product construction; ``epsilon``, the
    bump's amplitude, is read by ``perturbed_disc`` alone, and is 0 on the
    other kinds."""

    kind: str
    complex_dim: int = 1
    b: float = 1.0
    curvature: float = 1.0
    epsilon: float = 0.0

    def __post_init__(self):
        if self.kind not in FACTOR_KINDS:
            raise ConfigError(f"unknown factor kind {self.kind!r}")
        for name in ("b", "curvature", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"factor {name} must be finite, got {getattr(self, name)}")
        if self.epsilon != 0.0 and self.kind != "perturbed_disc":
            raise ConfigError(f"factor epsilon is read by perturbed_disc only, "
                              f"got {self.epsilon} on {self.kind}")
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
    """Single-chart description of a K-contact sub-Riemannian manifold.

    ``normal_form`` marks the form every built-in chart has: the Reeb field
    is ``d/dt`` along the last coordinate t, the frame is
    ``e_a = d/dx_a + f_a d/dt`` (the first 2m rows of ``E`` are the
    identity), no coefficient function reads t, and the metric ``G`` is
    block diagonal over ``blocks`` (exactly zero off them, symmetric on
    each).  Only the constructor of the built-in charts sets the two
    fields, from the f and the metric blocks it builds the chart from, so
    a chart holds the form it is marked with.  The positions pass of
    control paths and the Reeb flow then take shortcuts with the same bits
    (:mod:`kcontact.transport`), and the frame solve and ``G^-1`` take
    closed forms (:mod:`kcontact.connection`).  Any other chart, a built-in
    one changed by ``dataclasses.replace`` among them, has
    ``normal_form=False`` and ``blocks=()`` and takes the general path.
    """

    m: int
    domain: Domain
    theta: Callable
    xi: Callable
    frame: Callable
    metric: Callable
    name: str = "chart"
    factors: tuple = ()
    blocks: tuple = field(default=(), init=False)  # frame-index blocks, one per factor
    normal_form: bool = field(default=False, init=False)

    @property
    def dim(self):
        return 2 * self.m + 1

    def origin(self):
        return np.zeros(self.dim)


# ---------------------------------------------------------------------------
# factor geometry


def _radials(w):
    """A factor's coordinate squares, ``u = |w|^2`` and ``s = 1 - u``.

    The factor's primitive and its metric both read them (as ``rad``).
    ``u`` adds the squares in coordinate order; another order would move the
    last bits of every report.
    """
    sq = [c * c for c in w]
    u = sq[0] + sq[1]
    for j in range(2, len(w), 2):
        u = u + sq[j] + sq[j + 1]
    return sq, u, 1.0 - u


def _disc_scale(spec, u, s):
    """Conformal coefficient of a hyperbolic disc, optionally perturbed."""
    lam = (4.0 / spec.curvature) / (s * s)
    if spec.kind == "perturbed_disc" and spec.epsilon != 0.0:
        lam = lam * jets.exp(spec.epsilon * _bump(u, BUMP_RADIUS**2))
    return lam


def _bump(u, support):
    """Smooth bump in u = |z|^2, identically zero for u >= support."""
    q = u / support
    inside = q < 0.995
    qc = jets.where(inside, q, 0.0)
    val = jets.exp(1.0 - 1.0 / (1.0 - qc))
    return jets.where(inside, val, 0.0)


def _disc_metric(spec, w, rad):
    _, u, s = rad
    lam = _disc_scale(spec, u, s)
    return [[lam, 0.0], [0.0, lam]]


def _disc_primitive(spec, w, rad):
    # radial primitive of the Ricci form: f(r) d(phi), f(0) = 0
    x, y = w
    s = rad[2]
    return [2.0 * y / s, -2.0 * x / s]


def _ball_metric(spec, w, rad):
    p = spec.complex_dim
    xs = w[0::2]
    ys = w[1::2]
    sq, _, s = rad
    inv_s = 1.0 / s
    inv_s2 = inv_s * inv_s
    c = spec.curvature
    G = [[None] * (2 * p) for _ in range(2 * p)]
    for j in range(p):
        # A diagonal block is re times the identity: its im, x y - y x, is
        # identically +0.0, and the entry below it -0.0.
        re = (2.0 / c) * ((sq[2 * j] + sq[2 * j + 1]) * inv_s2 + inv_s)
        G[2 * j][2 * j] = G[2 * j + 1][2 * j + 1] = re
        G[2 * j][2 * j + 1] = 0.0
        G[2 * j + 1][2 * j] = -0.0
        for k in range(j + 1, p):
            # The (k, j) block is the (j, k) block transposed: re is symmetric
            # in j, k and im skew.  im_kj is formed from the shared products
            # rather than as -im, so that a vanishing im keeps the sign of
            # zero it has when computed for (k, j).
            re = (2.0 / c) * ((xs[j] * xs[k] + ys[j] * ys[k]) * inv_s2)
            xy = xs[j] * ys[k]
            yx = ys[j] * xs[k]
            im = (2.0 / c) * ((xy - yx) * inv_s2)
            im_kj = (2.0 / c) * ((yx - xy) * inv_s2)
            G[2 * j][2 * k] = G[2 * j + 1][2 * k + 1] = re
            G[2 * k][2 * j] = G[2 * k + 1][2 * j + 1] = re
            G[2 * j][2 * k + 1] = im
            G[2 * j + 1][2 * k] = -1.0 * im
            G[2 * k][2 * j + 1] = im_kj
            G[2 * k + 1][2 * j] = -1.0 * im_kj
    return G


def _ball_primitive(spec, w, rad):
    p = spec.complex_dim
    s = rad[2]
    comps = []
    for j in range(p):
        comps.append((p + 1.0) * w[2 * j + 1] / s)
        comps.append(-(p + 1.0) * w[2 * j] / s)
    return comps


def _factor_metric(spec, w, rad):
    if spec.kind == "bergman_ball":
        return _ball_metric(spec, w, rad)
    return _disc_metric(spec, w, rad)


def _factor_primitive(spec, w, rad):
    if spec.kind == "bergman_ball":
        return _ball_primitive(spec, w, rad)
    return _disc_primitive(spec, w, rad)


# ---------------------------------------------------------------------------
# built-in charts


def _memoized(x, key, build):
    """``build()`` once per :func:`chart_arrays` evaluation, whoever reads
    first: kept in the memo of the coordinates ``x``, which goes with them.
    Plain coordinates have no memo, and every reader builds its own."""
    memo = getattr(x, "memo", None)
    if memo is None:
        return build()
    if key not in memo:
        memo[key] = build()
    return memo[key]


def _normal_form_chart(m, f, blocks, domain, **fields):
    """The chart in normal form (``ContactChart.normal_form``) that ``f`` and
    ``blocks`` give; every built-in chart is built here.

    ``f(x)`` is the frame's t-row as the pairs ``(a, f_a)`` of its nonzero
    components, read once per evaluation by both theta = dt - f_a dx^a and
    the frame e_a = d/dx_a + f_a d/dt; xi = d/dt.  ``blocks`` holds the
    metric's blocks as pairs ``(indices, block)``: ``G`` is ``block(x)`` on
    each and exactly zero off them, and ``chart.blocks`` lists the indices.
    ``fields`` are the chart's other fields (name, factors).
    """
    n = 2 * m + 1

    def t_row(x):
        return _memoized(x, t_row, lambda: f(x))

    def theta(x):
        comps = [0.0] * n
        for a, fa in t_row(x):
            comps[a] = -fa
        comps[n - 1] = 1.0
        return comps

    def frame(x):
        cols = [[1.0 if i == a else 0.0 for a in range(2 * m)] for i in range(n)]
        for a, fa in t_row(x):
            cols[n - 1][a] = fa
        return cols

    def metric(x):
        G = [[0.0] * (2 * m) for _ in range(2 * m)]
        for idx, block in blocks:
            for row, a in zip(block(x), idx):
                for entry, b in zip(row, idx):
                    G[a][b] = entry
        return G

    chart = ContactChart(m, domain, theta, lambda x: [0.0] * (n - 1) + [1.0], frame, metric,
                         **fields)
    object.__setattr__(chart, "blocks", tuple(idx for idx, _ in blocks))
    object.__setattr__(chart, "normal_form", True)
    return chart


def heisenberg(m):
    """Flat test chart: coordinates (x1, y1, ..., xm, ym, t), theta = dt - sum yi dxi."""
    if m < 2:
        raise ChartError("heisenberg chart needs m >= 2")
    n = 2 * m + 1
    lo = -np.full(n, 3.0)
    hi = np.full(n, 3.0)
    lo[-1], hi[-1] = -6.0, 6.0
    return _normal_form_chart(m, lambda x: [(2 * i, x[2 * i + 1]) for i in range(m)],
                              [((2 * i, 2 * i + 1), lambda x: [[1.0, 0.0], [0.0, 1.0]])
                               for i in range(m)], Domain(lo, hi), name=f"heisenberg({m})")


def product_construction(factors: Sequence[FactorSpec]):
    """Chart on R x M1 x ... x Mr with theta = dt + sum bi theta^i.

    Each factor is a Kahler disc or ball whose Ricci form is exact with the
    shipped primitive theta^i; the horizontal frame lifts the factor
    coordinate fields into ker(theta), f = -bi theta^i.
    """
    factors = tuple(factors)
    if not factors:
        raise ChartError("product construction needs at least one factor")
    m = sum(f.complex_dim for f in factors)
    if m < 2:
        raise ChartError("total complex dimension must be >= 2 (dim M >= 5)")
    n = 2 * m + 1
    offs = list(accumulate((2 * f.complex_dim for f in factors), initial=0))
    idxs = [tuple(range(o, o + 2 * f.complex_dim)) for f, o in zip(factors, offs)]

    def radials(x):
        # one _radials per factor, read by its primitive and its metric
        return _memoized(x, radials, lambda: [
            _radials(x[o : o + 2 * f.complex_dim]) for f, o in zip(factors, offs)])

    def t_row(x):
        return [(o + k, -f.b * p) for f, o, rad in zip(factors, offs, radials(x))
                for k, p in enumerate(_factor_primitive(f, x[o : o + 2 * f.complex_dim], rad))]

    def block(k):
        f, o = factors[k], offs[k]
        return lambda x: _factor_metric(f, x[o : o + 2 * f.complex_dim], radials(x)[k])

    lo = -np.full(n, BALL_RADIUS)
    hi = np.full(n, BALL_RADIUS)
    lo[-1], hi[-1] = -4.0, 4.0
    label = "x".join(f"{f.kind}(b={f.b:g})" for f in factors)
    return _normal_form_chart(m, t_row, [(idx, block(k)) for k, idx in enumerate(idxs)],
                              Domain(lo, hi, tuple((idx, BALL_RADIUS) for idx in idxs)),
                              name=f"product[{label}]", factors=factors)


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


def config_float(value, what):
    """A real-valued configuration field: a finite int or float.

    Booleans, strings, non-finite values and non-numbers raise
    :class:`ConfigError` instead of being coerced by ``float()``.
    """
    if isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value):
        return float(value)
    raise ConfigError(f"{what} must be a finite number, got {value!r}")


def config_keys(raw, known, path):
    """Refuse a key of the JSON object ``raw`` that is not in ``known``: the
    :class:`ConfigError` names the key by its path below ``path`` (``""`` at
    the top level) and the closest known key, if ``difflib`` finds one."""
    for key in raw:
        if key not in known:
            import difflib  # only on the refusal path

            at = f"{path}." if path else ""
            close = difflib.get_close_matches(str(key), known, n=1)
            hint = (f"did you mean {at + close[0]!r}?" if close
                    else f"known keys: {', '.join(known)}")
            raise ConfigError(f"unknown key {at + str(key)!r}; {hint}")


def config_fields(cls, raw, what, path=None):
    """Keyword arguments for the dataclass ``cls``: the fields that the JSON
    object ``raw`` names, parsed by their annotated types (``int`` and
    ``float`` by the two functions above, others as they stand).  Absent
    fields keep the dataclass's defaults; any other key is refused by
    :func:`config_keys` under ``path`` (default ``what``)."""
    config_keys(raw, [f.name for f in fields(cls)], what if path is None else path)
    hints, parse = get_type_hints(cls), {int: config_int, float: config_float}
    return {f.name: parse.get(hints[f.name], lambda v, _: v)(raw[f.name], f"{what} {f.name}")
            for f in fields(cls) if f.name in raw}


def chart_from_config(cfg: dict):
    """Build a chart from the JSON configuration schema (the ``manifold``
    section of a config, whose keys :func:`config_keys` checks per type)."""
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise ConfigError("manifold config must be an object with a 'type' field")
    kind = cfg["type"]
    if kind == "heisenberg":
        config_keys(cfg, ["type", "m"], "manifold")
        m = config_int(cfg.get("m"), "heisenberg config 'm'")
        try:
            return heisenberg(m)
        except ChartError as exc:
            raise ConfigError(str(exc)) from exc
    if kind == "product":
        config_keys(cfg, ["type", "factors"], "manifold")
        raw = cfg.get("factors")
        if not isinstance(raw, list) or not raw:
            raise ConfigError("product config needs a nonempty 'factors' list")
        specs = []
        for i, item in enumerate(raw):
            if not isinstance(item, dict) or "kind" not in item:
                raise ConfigError(f"bad factor spec {item!r}")
            specs.append(FactorSpec(**config_fields(FactorSpec, item, "factor",
                                                    f"manifold.factors[{i}]")))
        try:
            return product_construction(specs)
        except ChartError as exc:
            raise ConfigError(str(exc)) from exc
    raise ConfigError(f"unknown manifold type {kind!r}")


# The standard laboratory charts, by name: the ``manifold`` section of each
# shipped ``configs/<name>.json``, and the catalogue of ``list-manifolds``.
EXAMPLES = {
    "heisenberg": {"type": "heisenberg", "m": 2},
    "disc_disc_11": {"type": "product", "factors": [
        {"kind": "poincare_disc", "complex_dim": 1, "b": 1.0, "curvature": 1.0},
        {"kind": "poincare_disc", "complex_dim": 1, "b": 1.0, "curvature": 1.0}]},
    "disc_disc_12": {"type": "product", "factors": [
        {"kind": "poincare_disc", "complex_dim": 1, "b": 1.0, "curvature": 1.0},
        {"kind": "poincare_disc", "complex_dim": 1, "b": 2.0, "curvature": 1.0}]},
    "bergman": {"type": "product", "factors": [
        {"kind": "bergman_ball", "complex_dim": 2, "b": 1.0, "curvature": 1.0}]},
    "perturbed_disc_disc": {"type": "product", "factors": [
        {"kind": "perturbed_disc", "complex_dim": 1, "b": 1.0, "curvature": 1.0, "epsilon": 0.3},
        {"kind": "poincare_disc", "complex_dim": 1, "b": 1.0, "curvature": 1.0}]},
}


def example_charts():
    """The charts of :data:`EXAMPLES`, by name."""
    return {name: chart_from_config(cfg) for name, cfg in EXAMPLES.items()}


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


class _Coords(list):
    """The seeded coordinates of one :func:`chart_arrays` evaluation.

    ``memo`` lets the coefficient functions of one chart share work within
    the evaluation (a product chart's factor radials feed both the factor's
    primitive and its metric, and a normal-form chart's frame t-row feeds
    both theta and the frame); it is dropped with the coordinates when the
    evaluation returns.  A plain list of coordinates has no memo, and each
    function then computes everything itself.
    """

    __slots__ = ("memo",)

    def __init__(self, coords):
        super().__init__(coords)
        self.memo = {}


def chart_arrays(chart, X, order=1, *, fields=CHART_FIELDS):
    """Evaluate theta, xi, frame, metric (and derivatives) at points X (..., n).

    ``fields`` is a subset of ``("th", "xi", "E", "G")``: only those
    coefficient functions are called, and the other entries of the
    returned :class:`ChartArrays` stay ``None``.  A requested field has the
    same bits whatever else is requested.

    Orders 1 and 2 give bit-identical values and first derivatives, so one
    order-2 evaluation serves first-order readers too.  Order-0 values can
    differ from them in the last bits, because a jet divides by multiplying
    with its reciprocal and a plain float divides directly: on 200 random
    points of each built-in product chart, ``th`` and ``E`` differ at most
    of them.
    """
    unknown = set(fields) - set(CHART_FIELDS)
    if unknown:
        raise ValueError(f"unknown chart fields {sorted(unknown)}")
    X = np.asarray(X, dtype=float)
    batch = X.shape[:-1]
    coords = _Coords(jets.seed(X, order))
    out = ChartArrays(X, order)
    for name, fn in zip(CHART_FIELDS, (chart.theta, chart.xi, chart.frame, chart.metric)):
        if name in fields:
            val, d1, d2 = jets.stack_arrays(fn(coords), order, chart.dim, batch)
            setattr(out, name, val)
            setattr(out, "d" + name, d1)
            setattr(out, "d2" + name, d2)
    return out


def random_domain_points(chart, count, rng, margin=1.0):
    """Uniform points in the chart domain, its box and ball radii shrunk by
    ``margin`` if below 1 (rejection-sampled), deterministic."""
    dom = chart.domain
    n = chart.dim
    center = 0.5 * (dom.lo + dom.hi)
    half = 0.5 * (dom.hi - dom.lo) * margin
    inner = Domain(dom.lo, dom.hi, tuple((idx, r * min(margin, 1.0)) for idx, r in dom.balls))
    pts = np.empty((0, n))
    while len(pts) < count:
        cand = center + (2.0 * rng.random((2 * count, n)) - 1.0) * half
        pts = np.vstack([pts, cand[inner.contains(cand)]])
    return pts[:count]


def chart_invariant_residuals(data):
    """Max residuals of the chart invariants over the points of one
    :class:`~kcontact.connection.FramePointData` (any order)."""
    th, xi, E, G = data.theta, data.xi, data.E, data.G
    res = {}
    res["theta_xi"] = float(np.max(np.abs(np.einsum("...i,...i->...", th, xi) - 1.0)))
    res["theta_frame"] = float(np.max(np.abs(np.einsum("...i,...ia->...a", th, E))))
    res["spd_min_eig"] = float(np.min(np.linalg.eigvalsh(G)))
    res["reeb_interior"] = float(
        np.max(np.abs(np.einsum("...i,...ij,...ja->...a", xi, data.A, E)))
    )
    # omega's singular-value ratio, as in frame_data's guard: det(omega)
    # would scale as the 2m-th power of dtheta
    sv = np.linalg.svd(data.omega, compute_uv=False)
    res["omega_sv_ratio_min"] = float(np.min(sv[..., -1] / sv[..., 0]))
    # Lie derivative of g along xi, evaluated on frame pairs
    xiG = np.einsum("...i,...abi->...ab", xi, data.dG)
    d_low = np.einsum("...ca,...cb->...ab", data.xi_coeffs, G)
    lie = xiG - d_low - d_low.swapaxes(-1, -2)
    res["lie_xi_g"] = float(np.max(np.abs(lie)))
    res["tau_plus_omega"] = float(np.max(np.abs(data.tau + data.omega)))
    res["theta_xi_bracket"] = float(np.max(np.abs(data.xi_theta)))
    return res
