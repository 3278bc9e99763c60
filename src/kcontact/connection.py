"""Horizontal connection data at a point: coefficients, curvature, Wagner field.

Everything is computed in the chart frame from the jet-evaluated chart
functions.  First derivatives give the connection coefficients via the
Koszul formula; second derivatives propagate through an explicit chain
rule to the curvature.  One code path serves every chart, with four
closed forms on a chart in normal form (``ContactChart.normal_form``):
the frame solve ``[E | xi]^-1 = [[I, 0], [-f, 1]]`` (:func:`frame_solve`,
its one owner) and ``G^-1`` block by block over the chart's blocks
(:func:`metric_inverse`), which move the results by rounding only; the
data of :func:`transport_data`, which on normal form is ``G^-1`` and the
coordinate derivatives of ``G`` alone (``[e_a, e_b]`` is vertical,
``[xi, e_a] = 0`` and ``G`` reads no t), so the transport's hot path
makes no LAPACK inverse there; and the curvature pass of
:func:`frame_data` at order 2, which skips the terms that are exact zeros
there, with the bits of the full pass.  A finite-difference oracle in the
test suite checks the whole pipeline.  One bracket computation
(:func:`frame_brackets`, :func:`reeb_brackets`) and one first-order
assembly serve both :func:`frame_data` and the lean
:func:`transport_data`: :class:`TransportData` holds ``G^-1``, the frame
derivatives of the metric less the bracket terms in one layout ``D``, and,
off normal form, the Reeb bracket coefficients of the zero extension.  One
Koszul sum over ``D`` (:func:`_koszul_sum`) gives :func:`frame_data` its
full ``Gamma``, and its second-order pass the derivative of that sum; the
transport builds no ``Gamma`` and contracts the path's velocity into the
same sum first (:meth:`TransportData.rates`), adding the Reeb term exactly
when it passes a Reeb velocity.  The Wagner extension enters only
through its curvature ``RW``; no transport integrates it.  The
connection invariant suite (:func:`connection_invariant_residuals`) and
the chart one (``manifolds.chart_invariant_residuals``) both read one
second-order :class:`FramePointData`, so ``verify`` evaluates its points
once.

The first-order assembly and every sum of the second-order pass, the
two-operand ones included, are batched matmuls: the summed index is
brought next to the matrix axes, any spectator slots are flattened into
one, and ``@`` broadcasts over the batch; no ``np.einsum`` call is left
in :func:`frame_data`.  The ``np.einsum`` forms they replace are kept in
the test suite (``tests/fd_oracles.py``, ``*_reference``, the whole
second-order pass as ``curvature_reference``) as oracles for the index
layouts.  The bracket products flatten ``dE`` to ``[(k a), i]``, so each
is one matmul per point, and the Koszul sum, of ``D`` and of its
derivative, reads its slot permutations as transposed views; the test
suite keeps the per-component and ``np.moveaxis`` forms they replace and
checks that the bits are the same.

Conventions fixed here and used everywhere downstream:

* ``dtheta(X, Y) = X theta(Y) - Y theta(X) - theta([X, Y])`` (no 1/2);
* a bivector is a skew coefficient matrix ``beta`` paired with a 2-form by
  full contraction ``omega(beta) = sum_ab omega_ab beta_ab``, so the
  elementary bivector ``e_a ^ e_b`` (entries +-1) pairs to
  ``2 omega(e_a, e_b)``;
* the inverse bivector of ``dtheta`` is ``alpha = 2 * inv(omega)``, the
  normalization under which ``dtheta(alpha) = -4m`` and the curvature of
  the Wagner extension annihilates ``alpha`` exactly.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ChartError
from .manifolds import chart_arrays

__all__ = [
    "FramePointData",
    "frame_data",
    "curvature_on_bivector",
    "form_on_bivector",
    "orthonormal_frame_change",
    "connection_invariant_residuals",
]


@dataclass
class FramePointData:
    """Connection data in the chart frame at a batch of points.

    ``Gamma[..., c, a, b]`` are the coefficients of the horizontal
    Levi-Civita connection (``nabla_{e_a} e_b = Gamma[c,a,b] e_c``);
    ``xi_coeffs[..., c, b]`` the frame coefficients of ``[xi, e_b]`` used
    by the vertical part of the zero extension, and ``xi_theta[..., b]``
    its theta part ``theta([xi, e_b])``.  ``A`` is the coordinate matrix
    ``d_i theta_j - d_j theta_i`` and ``omega = E^T A E``.  ``(P, Pinv)``
    is the orthonormal frame change of ``G``
    (:func:`orthonormal_frame_change`), so the samplers and the transverse
    checks change frames without computing it again.  At second order,
    ``R[..., a, b, e, c]`` is the matrix of ``R(e_a, e_b)`` (slot ``c`` in,
    slot ``e`` out), ``N`` the Wagner endomorphism and ``RW`` the Wagner
    curvature on horizontal pairs.  The zero extension has curvature ``R``
    on horizontal pairs and none on mixed ones; the mixed Wagner curvature
    ``-nabla N`` needs third metric derivatives and is not computed here.
    """

    x: np.ndarray
    m: int
    theta: np.ndarray
    xi: np.ndarray
    E: np.ndarray
    G: np.ndarray
    Ginv: np.ndarray
    A: np.ndarray
    omega: np.ndarray
    c: np.ndarray
    tau: np.ndarray
    xi_coeffs: np.ndarray
    xi_theta: np.ndarray
    Gamma: np.ndarray
    P: np.ndarray
    Pinv: np.ndarray
    R: np.ndarray = None
    alpha: np.ndarray = None
    N: np.ndarray = None
    RW: np.ndarray = None
    dG: np.ndarray = None
    domega: np.ndarray = None


def frame_brackets(arr, normal_form=False):
    """Frame brackets and their coefficients in the basis [E | xi].

    Returns ``(Br, Minv, cfull)``: the coordinate components
    ``Br[..., k, a, b]`` of [e_a, e_b], the frame solve ``[E | xi]^-1``,
    and ``cfull = Minv Br``, whose first 2m rows are the coefficients of
    pi[e_a, e_b] and whose last row is theta([e_a, e_b]).  Both products
    are one batched matmul per point: ``dE`` flattened to ``[(k b), i]``
    times ``E`` gives ``e_a(E[k, b])`` in the ``[k, b, a]`` layout.
    ``Minv`` is :func:`frame_solve` of I; with ``normal_form``
    (``ContactChart.normal_form``) it is ``[[I, 0], [-f, 1]]``, so the
    first 2m rows of ``cfull`` are ``Br``'s and the last is
    ``Br_t - f Br_top``.  The batched matmul by ``Minv`` takes about half
    the time of applying the closed form to ``Br`` row by row.
    """
    *batch, n, tm, _ = arr.dE.shape
    Br = (arr.dE.reshape(*batch, n * tm, n) @ arr.E).reshape(*batch, n, tm, tm)
    Br = Br.swapaxes(-1, -2) - Br
    Minv = frame_solve(arr, np.broadcast_to(np.eye(n), (*batch, n, n)), normal_form)
    cfull = (Minv @ Br.reshape(*Br.shape[:-2], -1)).reshape(Br.shape)
    return Br, Minv, cfull


def frame_solve(arr, B, normal_form):
    """``[E | xi]^-1 B`` for ``B[..., k, j]`` and chart values ``arr``.

    In normal form ``xi = e_n`` and ``E = [I; f]`` with ``f = E[..., -1, :]``,
    so ``[E | xi]^-1 = [[I, 0], [-f, 1]]`` exactly: the first 2m rows of the
    solution are ``B``'s and the last is ``B_t - f B_top``.  No LAPACK call.
    Otherwise ``np.linalg.solve``, whose solve of I is ``np.linalg.inv``'s."""
    if not normal_form:
        return np.linalg.solve(np.concatenate([arr.E, arr.xi[..., :, None]], axis=-1), B)
    tm = arr.E.shape[-1]
    X = B.copy()
    X[..., tm, :] -= (arr.E[..., tm:, :] @ B[..., :tm, :])[..., 0, :]
    return X


def reeb_brackets(arr, Minv):
    """Coefficients ``[..., c, a]`` of [xi, e_a] in the basis [E | xi].

    ``xi(E)`` is ``dE`` flattened to ``[(k a), i]`` times ``xi``: one
    matmul per point.  ``Minv`` is the frame solve of
    :func:`frame_brackets`."""
    *batch, n, tm, _ = arr.dE.shape
    xiE = (arr.dE.reshape(*batch, n * tm, n) @ arr.xi[..., :, None]).reshape(*batch, n, tm)
    Bx = xiE - arr.dxi @ arr.E
    return Minv @ Bx


def _bracket_terms(c, G):
    """``W[..., a, b, c] = g(pi[e_a, e_b], e_c)`` from the coefficients
    ``c[..., d, a, b]`` of pi[e_a, e_b]: ``c`` flattened to ``[(a b), d]``
    times ``G``."""
    tm = G.shape[-1]
    return (c.reshape(*c.shape[:-3], tm, tm * tm).swapaxes(-1, -2) @ G).reshape(c.shape)


def metric_inverse(G, blocks=()):
    """``G^-1`` for a metric that is block diagonal over ``blocks``, the
    frame-index blocks of a chart in normal form (``()`` for any other).

    With fewer than two blocks this is ``np.linalg.inv(G)``.  Otherwise each
    block is inverted on its own and the rest of ``G^-1`` is exactly zero: a
    block of width 2 in closed form (:func:`_inverse_2x2`), a wider one, or
    one with a zero pivot, by ``np.linalg.inv``, which raises
    ``np.linalg.LinAlgError`` on a singular block.
    """
    if len(blocks) < 2:
        return np.linalg.inv(G)
    Ginv = np.zeros_like(G)
    for blk in blocks:
        if len(blk) != 2 or not _inverse_2x2(G, Ginv, *blk):
            ix = np.ix_(blk, blk)
            Ginv[(..., *ix)] = np.linalg.inv(G[(..., *ix)])
    return Ginv


def _inverse_2x2(G, Ginv, a, b):
    """Write the inverse of the symmetric block ``G[(a, b), (a, b)]`` into
    ``Ginv``, through the Schur complement ``d = g11 - g01 r`` with
    ``r = g01 / g00``, and return True; return False, writing nothing, where
    ``g00`` or ``d`` is zero.  Unlike the adjugate over the determinant it
    stays finite on a metric of scale 1e300."""
    g00, g01 = G[..., a, a], G[..., a, b]
    if not np.all(g00):
        return False
    r = g01 / g00
    d = G[..., b, b] - g01 * r
    if not np.all(d):
        return False
    s = r / d
    Ginv[..., a, a] = 1.0 / g00 + r * s
    Ginv[..., a, b] = Ginv[..., b, a] = -s
    Ginv[..., b, b] = 1.0 / d
    return True


def _koszul_sum(D, out="abc"):
    """``K[a, b, c] = D[b, c, a] + D[a, c, b] - D[a, b, c]``: the Koszul
    right-hand side ``2 g(nabla_{e_a} e_b, e_c)`` from
    ``D[b, c, a] = e_a g_bc - g(pi[e_b, e_c], e_a)``
    (:attr:`TransportData.D`), or its derivative from ``D``'s.

    ``out`` names the trailing axes of ``K`` in order: a, b, c and any
    spectator slots, which follow the three frame slots of ``D`` in the
    order they have in ``out`` (``"cabj"`` holds ``d_j K[a, b, c]`` at
    ``[c, a, b, j]`` from ``d_j D`` at ``[b, c, a, j]``).  The three terms
    are transposed views of ``D``, and ``K`` comes out C-ordered.
    """
    spec = "".join(s for s in out if s not in "abc")
    K = np.add(_view(D, "bca" + spec, out), _view(D, "acb" + spec, out), order="C")
    K -= _view(D, "abc" + spec, out)
    return K


@functools.cache
def _axes(ndim, src, dst):
    lead = ndim - len(src)
    return (*range(lead), *(lead + src.index(s) for s in dst))


def _view(x, src, dst):
    """The view of ``x`` whose trailing slots, named ``src`` in memory
    order (one letter each), read in the order ``dst``:
    ``_view(x, "bcaj", "jabc")[..., j, a, b, c] == x[..., b, c, a, j]``."""
    return x.transpose(_axes(x.ndim, src, dst))


def inverse_derivative(Minv, dM):
    """Coordinate derivatives ``[..., a, b, j]`` of an inverse matrix:
    ``-Minv (d_j M) Minv`` from ``Minv`` and ``dM[..., c, d, j]``, one batched
    matmul chain per derivative slot j."""
    dMj = _view(dM, "cdj", "jcd")
    return _view(-(Minv[..., None, :, :] @ dMj @ Minv[..., None, :, :]), "jab", "abj")


def two_form_derivative(E, dE, A, dA):
    """Coordinate derivatives ``[..., a, b, k]`` of the frame 2-form
    ``omega = E^T A E`` from the skew coordinate form ``A`` and the
    derivatives ``dE[..., i, a, k]``, ``dA[..., i, j, k]``.

    The two terms with a differentiated frame are transposes of each other
    up to sign (A is skew), so one matmul chain gives both.
    """
    dEk = _view(dE, "iak", "kia")
    Ek = E[..., None, :, :]
    T = dEk.swapaxes(-1, -2) @ (A @ E)[..., None, :, :]
    dom = T - T.swapaxes(-1, -2) + Ek.swapaxes(-1, -2) @ _view(dA, "ijk", "kij") @ Ek
    return _view(dom, "kab", "abk")


@dataclass(slots=True)
class TransportData:
    """Per-point transport data: what :meth:`rates` contracts with a
    velocity.  ``Ginv`` is ``G^-1``; ``D[..., b, c, a]`` is
    ``e_a g_bc - g(pi[e_b, e_c], e_a)``, the frame derivatives of the
    metric less the bracket terms, whose trailing slot may run past the 2m
    frame directions (there the rates read its first 2m entries).  On a
    normal-form call ``D`` is ``dG``, the coordinate derivatives with their
    t-slot last.  ``xi_coeffs[..., c, a]`` are the coefficients of
    pi[xi, e_a], the Reeb term of the zero extension, off normal form, and
    None on it, where that term is zero.  Indexing applies one batch index
    to every field and copies, so that the rest of the batch can be
    freed."""

    Ginv: np.ndarray
    D: np.ndarray
    xi_coeffs: np.ndarray = None

    def __getitem__(self, ix):
        return TransportData(*(None if f is None else f[ix].copy()
                               for f in (self.Ginv, self.D, self.xi_coeffs)))

    def rates(self, u, w=None):
        """The connection matrix ``Om[..., e, b] = Gamma[e, a, b] u[a]``
        along u^a e_a + w xi, plus the Reeb term ``w xi_coeffs`` when ``w``
        is given and the data have ``xi_coeffs`` (none otherwise), without
        ``Gamma``: u is contracted into the Koszul sum before ``1/2 G^-1``
        is applied, (2m)^2 numbers per point where ``Gamma`` has (2m)^3.

        With ``D[b, c, a]`` (the first 2m entries of its trailing slot),
        ``A = D u`` contracts the last slot and ``B = u D`` the first; since
        ``g`` is symmetric the Koszul sum contracted with u is
        ``K = A^T + B - B^T``, in the ``[c, b]`` layout that ``G^-1``
        multiplies.  On normal form ``A`` is ``d_u G`` and ``B[c, b]`` is
        ``d_b (G u)_c``.  Both contractions are one matmul per point.
        """
        D, tm = self.D, u.shape[-1]
        A = D[..., :tm].reshape(*D.shape[:-3], tm * tm, tm) @ u[..., :, None]
        B = u[..., None, :] @ D.reshape(*D.shape[:-3], tm, -1)
        A = A.reshape(*A.shape[:-2], tm, tm)
        B = B.reshape(*B.shape[:-2], tm, -1)[..., :tm]
        K = A.swapaxes(-1, -2) + B - B.swapaxes(-1, -2)
        Om = 0.5 * (self.Ginv @ K)
        return (Om if w is None or self.xi_coeffs is None
                else Om + w[..., None, None] * self.xi_coeffs)


def transport_data(chart, X):
    """Lean evaluation of the pieces the transport ODE needs, from first
    derivatives only: :class:`TransportData`, the hot path of the holonomy
    sampler.  No Christoffel tensor is built: the transport contracts the
    path's velocity into the Koszul sum, and adds the Reeb term exactly
    when it passes a Reeb velocity.  Every contraction on the way
    (brackets, frame solve, frame derivatives, bracket terms, Reeb
    brackets) is a batched matmul; none goes through ``np.einsum``.  On a
    chart in normal form ``[e_a, e_b]`` is vertical, ``[xi, e_a] = 0`` and
    ``G`` reads no t, so a call evaluates ``G`` alone: ``D`` is ``dG``, whose
    first 2m slots are the frame derivatives there, ``xi_coeffs`` is None,
    and no LAPACK call inverts width-2 blocks of ``G``.
    """
    if chart.normal_form:
        return _transport_data(chart_arrays(chart, X, order=1, fields=("G",)), chart)
    arr = chart_arrays(chart, X, order=1, fields=("xi", "E", "G"))
    _, Minv, cfull = frame_brackets(arr)
    return _transport_data(arr, chart, cfull, reeb_brackets(arr, Minv))


def _transport_data(arr, chart, cfull=None, xi_full=None):
    """The first-order connection data of both :func:`transport_data` and
    :func:`frame_data`, from the chart values ``arr`` and, off normal form,
    their brackets ``cfull`` (:func:`frame_brackets`) and Reeb brackets
    ``xi_full`` (:func:`reeb_brackets`); on normal form ``D`` is ``dG``."""
    Ginv = metric_inverse(arr.G, chart.blocks)
    if chart.normal_form:
        return TransportData(Ginv, arr.dG)
    tm = arr.G.shape[-1]
    # D[(b c), a] = e_a g_bc, dG flattened to [(b c), i] times E, less the bracket terms
    D = (arr.dG.reshape(*arr.G.shape[:-2], tm * tm, -1) @ arr.E).reshape(arr.G.shape + (tm,))
    D -= _bracket_terms(cfull[..., :tm, :, :], arr.G)
    return TransportData(Ginv, D, xi_full[..., :tm, :])


def frame_data(chart, X, order=1):
    """Compute :class:`FramePointData` at points ``X`` of shape (..., n).

    ``Gamma`` is ``1/2 G^-1 K``, ``G^-1`` times ``K`` flattened to
    ``[c, (a b)]``, with ``K`` the Koszul sum (:func:`_koszul_sum`) of the
    first-order data that :func:`transport_data` assembles too
    (:func:`_transport_data`).
    """
    X = np.asarray(X, dtype=float)
    Xb = X if X.ndim > 1 else X[None]
    arr = chart_arrays(chart, Xb, order=max(order, 1))
    E, tm = arr.E, arr.E.shape[-1]
    batch = E.shape[:-2]
    A = arr.dth.swapaxes(-1, -2) - arr.dth  # A_ij = d_i theta_j - d_j theta_i
    Br, Minv, cfull = frame_brackets(arr, chart.normal_form)
    xi_full = reeb_brackets(arr, Minv)
    first = _transport_data(arr, chart, cfull, xi_full)
    K = _koszul_sum(first.D[..., :tm])
    # halved before the reshape, so numpy halves the product in its own buffer
    Gam = 0.5 * (first.Ginv @ K.reshape(*batch, tm * tm, tm).swapaxes(-1, -2))
    P, Pinv = orthonormal_frame_change(arr.G)
    data = FramePointData(
        x=Xb,
        m=chart.m,
        theta=arr.th,
        xi=arr.xi,
        E=E,
        G=arr.G,
        Ginv=first.Ginv,
        A=A,
        omega=E.swapaxes(-1, -2) @ A @ E,
        c=cfull[..., :tm, :, :],
        tau=cfull[..., tm, :, :],
        xi_coeffs=xi_full[..., :tm, :],
        xi_theta=xi_full[..., tm, :],
        Gamma=Gam.reshape(*batch, tm, tm, tm),
        P=P,
        Pinv=Pinv,
        dG=arr.dG,
    )
    if order >= 2:
        _curvature_inplace(arr, Br, Minv, K, data, chart.normal_form)
    return data


def _curvature_inplace(arr, Br, Minv, K, data, normal_form):
    """Second-order pass: differentiate the Koszul output and assemble R.

    R(e_a, e_b) e_c = nabla_{e_a} nabla_{e_b} e_c - nabla_{e_b} nabla_{e_a} e_c
                      - nabla_{pi[e_a, e_b]} e_c - pi[ theta([e_a,e_b]) xi, e_c ]

    Every two-operand sum is a batched matmul, laid out as in
    :func:`frame_data`: the summed slot is brought next to the matrix axes,
    the spectator slots are flattened into one and ``@`` broadcasts over
    the batch.  Where the summed slot of ``d2E`` or ``d2G`` is the first of
    its Hessian pair, ``E^T`` multiplies each ``[i, j]`` block (the jets'
    Hessians are not exactly symmetric, so the pair is not swapped).  Each
    product keeps the slot order it comes out in, named in the comments as
    ``name[slots]``.  The derivatives carry their coordinate slot j last,
    so the sums of permuted terms run along unit strides; they read the
    permutations through :func:`_view`.  R is assembled in the
    ``[e, a, b, c]`` order of its last terms and returned as a view.
    ``tests/fd_oracles.py`` keeps the single-sum form of this pass as
    ``curvature_reference``.  ``(Br, Minv)`` are from :func:`frame_brackets`
    and ``K`` is the Koszul sum of :func:`frame_data`; the first-order
    fields are ``data``'s.  ``d_j K`` is the same sum (:func:`_koszul_sum`)
    of ``d_j D``, the derivative of :attr:`TransportData.D`.

    With ``normal_form`` (``ContactChart.normal_form``) the pass skips the
    terms that are exact zeros there: ``c`` and its derivative (the first
    2m rows of ``[e_a, e_b]`` are zero and those of the frame solve are
    ``[I, 0]``), ``d_t G`` and ``xi_coeffs``.  So ``d_j D`` is
    ``d_j d_a g_bc`` alone (``E^T d2G`` is ``d2G``'s first 2m rows)
    and R has no bracket terms; R, RW, N, alpha and domega keep the bits
    of the full pass.
    """
    E, dE, d2E = arr.E, arr.dE, arr.d2E
    dG, d2G = arr.dG, arr.d2G
    Ginv, Gam = data.Ginv, data.Gamma
    *batch, n, tm = E.shape
    Et = E.swapaxes(-1, -2)
    Et2 = Et[..., None, None, :, :]  # against each [i, j] block of d2E and d2G
    cT = data.c.reshape(*batch, tm, tm * tm).swapaxes(-1, -2)  # c[(a b), d]

    # Each temporary below is deleted right after its last use, so the pass
    # peaks at a few of them per point instead of holding all of them.

    # d_k A_ij, and the frame 2-form derivative d_k omega_ab
    dA = arr.d2th.swapaxes(-3, -2) - arr.d2th
    domega = two_form_derivative(E, dE, data.A, dA)
    del dA

    # dK[c, a, b, j] = d_j K[a, b, c], in the layout the Ginv product reads
    if normal_form:
        # [e_a, e_b] is vertical, so c = dc = 0, and G reads no t, so the
        # dG dE term is zero and E^T d2G is d2G's horizontal rows
        dK = _koszul_sum(d2G[..., :tm, :], "cabj")
    else:
        # Y[k, b, a, j] = d_j e_a(E[k, b]): dE flattened to [(k b), i] times dE
        # flattened to [i, (a j)], plus E^T d2E; dBr[k, a, b, j] = d_j [e_a, e_b]^k
        Y = (dE.reshape(*batch, n * tm, n) @ dE.reshape(*batch, n, tm * n)).reshape(
            *batch, n, tm, tm, n)
        Y += Et2 @ d2E
        dBr = np.subtract(Y.swapaxes(-3, -2), Y, order="C")
        del Y

        # d_j of the frame solve [E | xi]^{-1}: dMinv[c, k, j]
        dAug = np.concatenate([dE, arr.dxi[..., :, None, :]], axis=-2)
        dMinv = inverse_derivative(Minv, dAug)
        del dAug

        # dc[d, a, b, j] = d_j c[d, a, b] from the first 2m rows of the solve:
        # Minv times dBr flattened to [k, (a b j)], plus Br^T [(a b), k] times
        # each [k, j] block of dMinv
        BrT = Br.reshape(*batch, n, tm * tm).swapaxes(-1, -2)[..., None, :, :]
        dc = (Minv[..., :tm, :] @ dBr.reshape(*batch, n, tm * tm * n)
              + (BrT @ dMinv[..., :tm, :, :]).reshape(*batch, tm, tm * tm * n))
        del dBr, dMinv, BrT

        # dD[b, c, a, j] = d_j e_a(g_bc), less dW in the D layout below
        dD = (dG.reshape(*batch, tm * tm, n) @ dE.reshape(*batch, n, tm * n)).reshape(
            *batch, tm, tm, tm, n)
        dD += Et2 @ d2G
        # dW[c, a, b, j] = d_j g(pi[e_a, e_b], e_c): G^T dc plus c^T dG
        dW = (arr.G.swapaxes(-1, -2) @ dc).reshape(*batch, tm, tm, tm, n)
        del dc
        cdG = (cT @ dG.reshape(*batch, tm, tm * n)).reshape(*batch, tm, tm, tm, n)
        dW += _view(cdG, "abcj", "cabj")
        del cdG
        dD -= _view(dW, "cabj", "abcj")
        del dW
        dK = _koszul_sum(dD, "cabj")
        del dD

    # dGam[e, a, b, j] = d_j Gamma[e, a, b]: K[(a b), c] times each [c, j]
    # block of dGinv, plus Ginv times dK flattened to [c, (a b j)]
    dGinv = inverse_derivative(Ginv, dG)
    dGam = 0.5 * (
        (K.reshape(*batch, 1, tm * tm, tm) @ dGinv).reshape(*batch, tm, tm * tm * n)
        + Ginv @ dK.reshape(*batch, tm, tm * tm * n)
    )
    del dGinv, dK

    # S[e, a, b, c] = e_a(Gamma[e, b, c]) + Gamma[e, a, d] Gamma[d, b, c]: E^T
    # times each [j, (b c)] block of dGam, plus Gam[(e a), d] times Gam[d, (b c)]
    S = Et[..., None, :, :] @ dGam.reshape(*batch, tm, tm * tm, n).swapaxes(-1, -2)
    del dGam
    S = S.reshape(*batch, tm, tm, tm, tm)
    S += (Gam.reshape(*batch, tm * tm, tm) @ Gam.reshape(*batch, tm, tm * tm)).reshape(
        *batch, tm, tm, tm, tm)
    # Rm[e, a, b, c] = R[a, b, e, c]: S antisymmetrized in (a, b), minus
    # c[d, a, b] Gamma[e, d, c] and theta([e_a, e_b]) [xi, e_c]^e
    Rm = S - S.swapaxes(-3, -2)
    del S
    if not normal_form:  # c = 0 and [xi, e_c] = 0 on normal form
        Rm -= (cT[..., None, :, :] @ Gam).reshape(*batch, tm, tm, tm, tm)
        Rm -= data.xi_coeffs[..., :, None, None, :] * data.tau[..., None, :, :, None]

    omega = data.omega
    # a scale-free test: the singular-value ratio, not det(omega), which
    # scales as the 2m-th power of dtheta
    sv = np.linalg.svd(omega, compute_uv=False)
    if np.any(sv[..., -1] <= 1e-12 * sv[..., 0]):
        raise ChartError("degenerate dtheta: cannot invert the contact 2-form")
    alpha = 2.0 * np.linalg.inv(omega)
    # N[e, c] = R[a, b, e, c] alpha[a, b] / 4m: alpha flattened to [1, (a b)]
    # times each [(a b), c] block of Rm
    N = (alpha.reshape(*batch, 1, 1, tm * tm) @ Rm.reshape(*batch, tm, tm * tm, tm)).reshape(
        *batch, tm, tm) / (4.0 * data.m)
    RWm = Rm + N[..., :, None, None, :] * omega[..., None, :, :, None]

    data.R = _view(Rm, "eabc", "abec")
    data.alpha = alpha
    data.N = N
    data.RW = _view(RWm, "eabc", "abec")
    data.domega = domega


def curvature_on_bivector(R, beta):
    """Evaluate a matrix-valued curvature 2-form on a bivector matrix."""
    return np.einsum("...abec,...ab->...ec", R, beta)


def form_on_bivector(omega, beta):
    """Evaluate a scalar 2-form (matrix in the frame) on a bivector matrix."""
    return np.einsum("...ab,...ab->...", omega, beta)


def orthonormal_frame_change(G):
    """Basis change P with P^T G P = I (Gram-Schmidt of the frame columns).

    Components transform by ``v_ortho = Pinv v_frame``; endomorphism
    matrices by ``Pinv M P``.  Returns ``(P, Pinv)``.
    """
    L = np.linalg.cholesky(G)
    Lt = np.swapaxes(L, -1, -2)
    return np.linalg.inv(Lt), Lt


def ortho_curvature(F, P, Pinv):
    """A curvature field ``F[..., a, b, e, c]`` (the matrix of F(e_a, e_b)) in the
    orthonormal frame of ``(P, Pinv) = orthonormal_frame_change(G)``.

    ``P[a, A] P[b, B] Pinv[E, e] F[a, b, e, c] P[c, C]``, contracted one
    slot pair at a time as batched matmuls: (2m)^5 products per point
    instead of the (2m)^8 of a single five-operand sum.
    """
    tm = F.shape[-1]
    Pt = np.swapaxes(P, -1, -2)[..., None, :, :]
    Y = Pinv[..., None, None, :, :] @ F @ P[..., None, None, :, :]  # slots e, c
    Y = Pt @ Y.reshape(*F.shape[:-4], tm, tm, tm * tm)  # slot b
    Y = Pt @ np.swapaxes(Y, -3, -2)  # slot a
    return np.swapaxes(Y, -3, -2).reshape(F.shape)


def ortho_transports(taus, Pinv, P0):
    """Frame transports ``taus[p]`` from the base point to the end of path p,
    in the orthonormal frames ``Pinv[p]`` at the ends and ``P0`` at the base:
    ``Pinv[p] taus[p] P0``."""
    return Pinv @ taus @ P0


def ortho_two_form(omega, P):
    """A frame bilinear form ``omega[..., a, b]`` (dtheta, the Ricci tensor)
    in the orthonormal frame of P: ``P^T omega P``."""
    return np.swapaxes(P, -1, -2) @ omega @ P


def connection_invariant_residuals(data):
    """Max residuals of the connection-level invariants over the points of
    one second-order :class:`FramePointData`."""
    res = {}
    tors = data.Gamma - data.Gamma.swapaxes(-2, -1) - data.c
    res["torsion"] = float(np.max(np.abs(tors)))
    Dg = np.einsum("...ia,...bci->...abc", data.E, data.dG)
    lower = (np.einsum("...dab,...dc->...abc", data.Gamma, data.G),
             np.einsum("...dac,...bd->...abc", data.Gamma, data.G))
    res["metric_compat"] = _relative_residual(Dg - lower[0] - lower[1], data.G, Dg, *lower)
    GR = np.einsum("...ed,...abdc->...abec", data.G, data.R)
    res["g_skew"] = _relative_residual(GR + GR.swapaxes(-1, -2), data.G, GR)
    bianchi = (
        data.R
        + np.einsum("...bcea->...abec", data.R)
        + np.einsum("...caeb->...abec", data.R)
    )
    res["bianchi"] = float(np.max(np.abs(bianchi)))
    res["wagner"] = float(
        np.max(np.linalg.norm(curvature_on_bivector(data.RW, data.alpha), axis=(-2, -1)))
    )
    res["dtheta_pairing"] = float(
        np.max(np.abs(form_on_bivector(data.omega, data.alpha) + 4.0 * data.m))
    )
    return res


def _relative_residual(diff, *terms):
    """The largest ``|diff|`` at a point over the largest entry there of the
    ``terms`` it compares and of the metric, the first term, maximized over
    the points (the leading axis): a residual that does not scale with the
    metric.  The metric keeps the scale where the other terms vanish or are
    rounding noise, as a flat chart's curvature is."""
    def peak(a):
        return np.max(np.abs(a).reshape(len(a), -1), axis=1)

    return float(np.max(peak(diff) / np.max([peak(t) for t in terms], axis=0)))
