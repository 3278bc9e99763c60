"""Forward-mode automatic differentiation scalars (first and second order).

A :class:`Jet` carries a value together with its gradient and, optionally,
its Hessian with respect to a fixed set of ``n`` seed directions.  Values
are numpy arrays, so a single jet evaluation differentiates a function at
a whole batch of points at once.  Chart coefficient functions are written
against plain arithmetic plus the dispatching helpers below (``exp``,
``sqrt``, ``where``, ...), which makes them evaluable with plain floats,
numpy arrays, and jets of either order.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Jet",
    "seed",
    "exp",
    "log",
    "sqrt",
    "sin",
    "cos",
    "where",
    "stack_arrays",
]


class Jet:
    """Truncated Taylor scalar: value, gradient and optional Hessian.

    ``val`` has an arbitrary (batch) shape ``S``; ``grad`` has shape
    ``S + (n,)`` and ``hess``, when present, ``S + (n, n)``.
    """

    __slots__ = ("val", "grad", "hess")

    # keep numpy from consuming us in mixed expressions
    __array_ufunc__ = None

    def __init__(self, val, grad, hess=None):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = None if hess is None else np.asarray(hess, dtype=float)

    @property
    def order(self):
        return 1 if self.hess is None else 2

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            h = None
            if self.hess is not None:
                h = self.hess + other.hess
            return Jet(self.val + other.val, self.grad + other.grad, h)
        return Jet(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        h = None if self.hess is None else -self.hess
        return Jet(-self.val, -self.grad, h)

    def __sub__(self, other):
        return self + (-other if isinstance(other, Jet) else -np.asarray(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = self, other
            val = a.val * b.val
            grad = a.val[..., None] * b.grad + b.val[..., None] * a.grad
            h = None
            if a.hess is not None:
                cross = a.grad[..., :, None] * b.grad[..., None, :]
                h = (
                    a.val[..., None, None] * b.hess
                    + b.val[..., None, None] * a.hess
                    + cross
                    + cross.swapaxes(-1, -2)
                )
            return Jet(val, grad, h)
        c = np.asarray(other, dtype=float)
        h = None if self.hess is None else c[..., None, None] * self.hess
        return Jet(c * self.val, c[..., None] * self.grad, h)

    __rmul__ = __mul__

    def _recip(self):
        v = self.val
        iv = 1.0 / v
        iv2 = iv * iv
        grad = -iv2[..., None] * self.grad
        h = None
        if self.hess is not None:
            outer = self.grad[..., :, None] * self.grad[..., None, :]
            h = (2.0 * iv2 * iv)[..., None, None] * outer - iv2[..., None, None] * self.hess
        return Jet(iv, grad, h)

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._recip()
        return self * (1.0 / np.asarray(other, dtype=float))

    def __rtruediv__(self, other):
        return self._recip() * other

    def __pow__(self, k):
        if not isinstance(k, (int, np.integer)):
            return _unary(self, self.val**k, k * self.val ** (k - 1), k * (k - 1) * self.val ** (k - 2))
        if k == 0:
            return Jet(np.ones_like(self.val), np.zeros_like(self.grad),
                       None if self.hess is None else np.zeros_like(self.hess))
        if k < 0:
            return (self ** (-k))._recip()
        out = self
        for _ in range(int(k) - 1):
            out = out * self
        return out

    # comparisons operate on values; used to build ``where`` masks
    def __lt__(self, other):
        return self.val < _value(other)

    def __le__(self, other):
        return self.val <= _value(other)

    def __gt__(self, other):
        return self.val > _value(other)

    def __ge__(self, other):
        return self.val >= _value(other)

    def __repr__(self):
        return f"Jet(order={self.order}, val={self.val!r})"


def _value(x):
    return x.val if isinstance(x, Jet) else np.asarray(x, dtype=float)


def _unary(x, f, f1, f2):
    grad = f1[..., None] * x.grad
    h = None
    if x.hess is not None:
        outer = x.grad[..., :, None] * x.grad[..., None, :]
        h = f1[..., None, None] * x.hess + f2[..., None, None] * outer
    return Jet(f, grad, h)


def exp(x):
    if isinstance(x, Jet):
        e = np.exp(x.val)
        return _unary(x, e, e, e)
    return np.exp(x)


def log(x):
    if isinstance(x, Jet):
        v = x.val
        return _unary(x, np.log(v), 1.0 / v, -1.0 / (v * v))
    return np.log(x)


def sqrt(x):
    if isinstance(x, Jet):
        s = np.sqrt(x.val)
        return _unary(x, s, 0.5 / s, -0.25 / (s * x.val))
    return np.sqrt(x)


def sin(x):
    if isinstance(x, Jet):
        return _unary(x, np.sin(x.val), np.cos(x.val), -np.sin(x.val))
    return np.sin(x)


def cos(x):
    if isinstance(x, Jet):
        return _unary(x, np.cos(x.val), -np.sin(x.val), -np.cos(x.val))
    return np.cos(x)


def where(cond, a, b):
    """Branchless select, jet-aware.  ``cond`` is a boolean array over values."""
    cond = np.asarray(cond)
    if not (isinstance(a, Jet) or isinstance(b, Jet)):
        return np.where(cond, a, b)
    ref = a if isinstance(a, Jet) else b
    a = _like(a, ref)
    b = _like(b, ref)
    h = None
    if a.hess is not None:
        h = np.where(cond[..., None, None], a.hess, b.hess)
    return Jet(
        np.where(cond, a.val, b.val),
        np.where(cond[..., None], a.grad, b.grad),
        h,
    )


def _like(x, ref):
    """Lift a constant to a zero-derivative jet shaped like ``ref``."""
    if isinstance(x, Jet):
        return x
    val = np.broadcast_to(np.asarray(x, dtype=float), ref.val.shape)
    grad = np.zeros(ref.grad.shape)
    h = None if ref.hess is None else np.zeros(ref.hess.shape)
    return Jet(val, grad, h)


def seed(X, order):
    """Seed coordinates of points ``X`` (shape ``(..., n)``) as jets.

    Returns a list of ``n`` scalars: plain arrays for ``order == 0``,
    jets carrying the identity gradient otherwise.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[-1]
    batch = X.shape[:-1]
    coords = []
    for i in range(n):
        if order == 0:
            coords.append(X[..., i].copy())
            continue
        grad = np.zeros(batch + (n,))
        grad[..., i] = 1.0
        hess = np.zeros(batch + (n, n)) if order >= 2 else None
        coords.append(Jet(X[..., i].copy(), grad, hess))
    return coords


def stack_arrays(nested, order, n, batch):
    """Stack a (possibly nested) list of scalars into dense arrays.

    Returns ``(val, grad, hess)`` where ``val`` has shape
    ``batch + lead`` (``lead`` = shape of the nested list), ``grad`` has
    the extra trailing axis ``(n,)`` and ``hess`` two of them.  Entries
    may be jets, arrays, or constants; missing derivative data is zero.
    """
    lead = _lead_shape(nested)
    val = np.zeros(batch + lead)
    grad = np.zeros(batch + lead + (n,)) if order >= 1 else None
    hess = np.zeros(batch + lead + (n, n)) if order >= 2 else None
    for idx, leaf in _walk(nested, ()):
        sl = (slice(None),) * len(batch) + idx
        if isinstance(leaf, Jet):
            val[sl] = leaf.val
            if order >= 1:
                grad[sl] = leaf.grad
            if order >= 2:
                hess[sl] = leaf.hess
        else:
            val[sl] = leaf
    return val, grad, hess


def _lead_shape(nested):
    shape = ()
    node = nested
    while isinstance(node, (list, tuple)):
        shape = shape + (len(node),)
        node = node[0]
    return shape


def _walk(node, idx):
    if isinstance(node, (list, tuple)):
        for i, child in enumerate(node):
            yield from _walk(child, idx + (i,))
    else:
        yield idx, node
