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

import math

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
    ``S + (n,)`` and ``hess``, when present, ``S + (n, n)``.  A jet's parts
    are never changed after it is built, so its reciprocal is computed once,
    on the first division by it, and kept in ``_inv``.
    """

    __slots__ = ("val", "grad", "hess", "_inv")

    # keep numpy from consuming us in mixed expressions
    __array_ufunc__ = None

    def __init__(self, val, grad, hess=None):
        self.val = np.asarray(val, dtype=float)
        self.grad = np.asarray(grad, dtype=float)
        self.hess = None if hess is None else np.asarray(hess, dtype=float)
        self._inv = None

    @classmethod
    def _make(cls, val, grad, hess):
        """A jet from parts that are already float arrays (or float scalars),
        as jet arithmetic produces them: no ``np.asarray`` conversions."""
        out = object.__new__(cls)
        out.val = val
        out.grad = grad
        out.hess = hess
        out._inv = None
        return out

    @property
    def order(self):
        return 1 if self.hess is None else 2

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            h = None
            if self.hess is not None:
                h = self.hess + other.hess
            return Jet._make(self.val + other.val, self.grad + other.grad, h)
        return Jet._make(self.val + other, self.grad, self.hess)

    __radd__ = __add__

    def __neg__(self):
        h = None if self.hess is None else -self.hess
        return Jet._make(-self.val, -self.grad, h)

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
            return Jet._make(val, grad, h)
        if isinstance(other, float):
            # a scalar constant broadcasts as is: same products, no conversion
            h = None if self.hess is None else other * self.hess
            return Jet._make(other * self.val, other * self.grad, h)
        c = np.asarray(other, dtype=float)
        h = None if self.hess is None else c[..., None, None] * self.hess
        return Jet._make(c * self.val, c[..., None] * self.grad, h)

    __rmul__ = __mul__

    def _recip(self):
        if self._inv is not None:
            return self._inv
        v = self.val
        iv = 1.0 / v
        iv2 = iv * iv
        grad = -iv2[..., None] * self.grad
        h = None
        if self.hess is not None:
            outer = self.grad[..., :, None] * self.grad[..., None, :]
            h = (2.0 * iv2 * iv)[..., None, None] * outer - iv2[..., None, None] * self.hess
        self._inv = Jet._make(iv, grad, h)
        return self._inv

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
            return Jet._make(np.ones_like(self.val), np.zeros_like(self.grad),
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
    return Jet._make(f, grad, h)


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
    """Branchless select, jet-aware.  ``cond`` is a boolean array over values.

    A constant branch is selected as it is, with the scalar ``0.0`` as its
    derivatives; no zero jet is built for it.
    """
    cond = np.asarray(cond)
    if not (isinstance(a, Jet) or isinstance(b, Jet)):
        return np.where(cond, a, b)
    ref = a if isinstance(a, Jet) else b
    va, ga, ha = _branch(a)
    vb, gb, hb = _branch(b)
    h = None if ref.hess is None else np.where(cond[..., None, None], ha, hb)
    return Jet._make(np.where(cond, va, vb), np.where(cond[..., None], ga, gb), h)


def _branch(x):
    """A ``where`` branch as (value, gradient, Hessian); a constant's are 0.0."""
    if isinstance(x, Jet):
        return x.val, x.grad, x.hess
    return x, 0.0, 0.0


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
    The output starts zero-filled, so ``+0.0`` constants are not written
    (``-0.0`` is, to keep its sign).
    """
    lead = ()
    leaves = [nested]
    while isinstance(leaves[0], (list, tuple)):
        lead = lead + (len(leaves[0]),)
        leaves = [leaf for row in leaves for leaf in row]
    size = math.prod(lead)
    val = np.zeros(batch + lead)
    grad = np.zeros(batch + lead + (n,)) if order >= 1 else None
    hess = np.zeros(batch + lead + (n, n)) if order >= 2 else None
    flat_val = val.reshape(batch + (size,))
    flat_grad = None if grad is None else grad.reshape(batch + (size, n))
    flat_hess = None if hess is None else hess.reshape(batch + (size, n, n))
    for i, leaf in enumerate(leaves):
        if isinstance(leaf, Jet):
            flat_val[..., i] = leaf.val
            if order >= 1:
                flat_grad[..., i, :] = leaf.grad
            if order >= 2:
                flat_hess[..., i, :, :] = leaf.hess
        elif isinstance(leaf, (float, int)) and leaf == 0 and math.copysign(1.0, leaf) > 0:
            continue  # +0.0 is already there
        else:
            flat_val[..., i] = leaf
    return val, grad, hess
