"""Horizontal connection data at a point: coefficients, curvature, Wagner field.

Everything is computed in the chart frame from the jet-evaluated chart
functions.  First derivatives give the connection coefficients via the
Koszul formula; second derivatives propagate through an explicit chain
rule to the curvature.  One code path serves every chart; a
finite-difference oracle in the test suite checks the whole pipeline.
One bracket computation (``manifolds.frame_brackets``) and one Koszul
assembly (:func:`_koszul`) serve both the full :func:`frame_data` and the
lean first-order :func:`transport_data` that the transport right-hand side
calls.  The Wagner extension enters only through its curvature ``RW``;
no transport integrates it.  The connection invariant suite
(:func:`connection_invariant_residuals`) and the chart one
(``manifolds.chart_invariant_residuals``) both read one second-order
:class:`FramePointData`, so ``verify`` evaluates its points once.

The first-order assembly and the three-operand sums of the second-order
pass are batched matmuls: the summed index is brought next to the matrix
axes, any spectator slots are flattened into one, and ``@`` broadcasts
over the batch.  The single-sum ``np.einsum`` forms they replace are
kept in the test suite (``tests/fd_oracles.py``, ``*_reference``) as
oracles for the index layouts.  The bracket products flatten ``dE`` to
``[(k a), i]``, so each is one matmul per point, and the Koszul sum reads
its cyclic slot permutations as ``swapaxes`` views; the test suite keeps
the per-component and ``np.moveaxis`` forms they replace and checks that
the bits are the same.

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

from dataclasses import dataclass

import numpy as np

from .errors import ChartError
from .manifolds import chart_arrays, frame_brackets, reeb_brackets, structure_pieces

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
    ``d_i theta_j - d_j theta_i`` and ``omega = E^T A E``.  At second order,
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
    R: np.ndarray = None
    alpha: np.ndarray = None
    N: np.ndarray = None
    RW: np.ndarray = None
    dG: np.ndarray = None
    domega: np.ndarray = None


def _koszul(E, G, dG, c):
    """Connection coefficients from metric first derivatives and brackets.

    2 g(nabla_{e_a} e_b, e_c) = e_a g_bc + e_b g_ca - e_c g_ab
                                + g(pi[e_a,e_b], e_c) - g(pi[e_b,e_c], e_a)
                                - g(pi[e_a,e_c], e_b)

    Returns ``(K, Ginv, Gamma)`` with ``K[..., a, b, c]`` the right-hand side.
    Each contraction is one batched matmul over flattened slot pairs:
    ``E^T`` times ``dG`` flattened to ``[i, (b c)]`` gives the frame
    derivatives ``Dg[a, b, c]``, ``c`` flattened to ``[(a b), d]`` times
    ``G`` the bracket terms, and ``Ginv`` times ``K`` flattened to
    ``[c, (a b)]`` gives Gamma.  Every product comes out C-ordered, so no
    reshape copies.
    """
    tm = E.shape[-1]
    batch = c.shape[:-3]
    Dg = E.swapaxes(-1, -2) @ dG.reshape(*batch, tm * tm, -1).swapaxes(-1, -2)
    Dg = Dg.reshape(*batch, tm, tm, tm)
    W = (c.reshape(*batch, tm, tm * tm).swapaxes(-1, -2) @ G).reshape(*batch, tm, tm, tm)
    # the cyclic slot permutations as views: [b, c, a] and [c, a, b]
    K = (
        Dg
        + Dg.swapaxes(-2, -1).swapaxes(-3, -2)
        - Dg.swapaxes(-3, -2).swapaxes(-2, -1)
        + W
        - W.swapaxes(-2, -1).swapaxes(-3, -2)
        - W.swapaxes(-2, -1)
    )
    Ginv = np.linalg.inv(G)
    # halved before the reshape, so numpy halves the product in its own buffer
    Gam = 0.5 * (Ginv @ K.reshape(*batch, tm * tm, tm).swapaxes(-1, -2))
    return K, Ginv, Gam.reshape(*batch, tm, tm, tm)


def inverse_derivative(Minv, dM):
    """Coordinate derivatives ``[..., a, b, j]`` of an inverse matrix:
    ``-Minv (d_j M) Minv`` from ``Minv`` and ``dM[..., c, d, j]``, one batched
    matmul chain per derivative slot j."""
    dMj = np.moveaxis(dM, -1, -3)
    return np.moveaxis(-(Minv[..., None, :, :] @ dMj @ Minv[..., None, :, :]), -3, -1)


def two_form_derivative(E, dE, A, dA):
    """Coordinate derivatives ``[..., a, b, k]`` of the frame 2-form
    ``omega = E^T A E`` from the skew coordinate form ``A`` and the
    derivatives ``dE[..., i, a, k]``, ``dA[..., i, j, k]``.

    The two terms with a differentiated frame are transposes of each other
    up to sign (A is skew), so one matmul chain gives both.
    """
    dEk = np.moveaxis(dE, -1, -3)
    Ek = E[..., None, :, :]
    T = dEk.swapaxes(-1, -2) @ (A @ E)[..., None, :, :]
    dom = T - T.swapaxes(-1, -2) + Ek.swapaxes(-1, -2) @ np.moveaxis(dA, -1, -3) @ Ek
    return np.moveaxis(dom, -3, -1)


@dataclass(slots=True)
class TransportData:
    """Minimal per-point data for the transport right-hand side."""

    E: np.ndarray
    xi: np.ndarray
    Gamma: np.ndarray
    xi_coeffs: np.ndarray = None


def transport_data(chart, X, vertical=False):
    """Lean evaluation of the pieces the transport ODE needs.

    Computes the connection coefficients ``Gamma[..., c, a, b]`` from first
    derivatives only and, for curves with Reeb-direction parts
    (``vertical``), the Reeb bracket coefficients ``xi_coeffs[..., c, a]``
    of the zero extension; the hot path of the holonomy sampler.  Every
    contraction on the way (brackets, frame solve, Koszul terms, Reeb
    brackets) is a batched matmul; none goes through ``np.einsum``.
    """
    arr = chart_arrays(chart, X, order=1, fields=("xi", "E", "G"))
    _, Minv, cfull = frame_brackets(arr)
    tm = arr.E.shape[-1]
    _, _, Gam = _koszul(arr.E, arr.G, arr.dG, cfull[..., :tm, :, :])
    xi_coeffs = reeb_brackets(arr, Minv)[..., :tm, :] if vertical else None
    return TransportData(arr.E, arr.xi, Gam, xi_coeffs)


def frame_data(chart, X, order=1):
    """Compute :class:`FramePointData` at points ``X`` of shape (..., n)."""
    X = np.asarray(X, dtype=float)
    Xb = X if X.ndim > 1 else X[None]
    arr = chart_arrays(chart, Xb, order=max(order, 1))
    p = structure_pieces(arr)
    K, Ginv, Gam = _koszul(arr.E, arr.G, arr.dG, p["c"])
    data = FramePointData(
        x=Xb,
        m=chart.m,
        theta=arr.th,
        xi=arr.xi,
        E=arr.E,
        G=arr.G,
        Ginv=Ginv,
        A=p["A"],
        omega=p["omega"],
        c=p["c"],
        tau=p["tau"],
        xi_coeffs=p["dcoef"],
        xi_theta=p["dcoef_theta"],
        Gamma=Gam,
        dG=arr.dG,
    )
    if order >= 2:
        _curvature_inplace(chart, arr, p, K, Ginv, Gam, data)
    return data


def _curvature_inplace(chart, arr, p, K, Ginv, Gam, data):
    """Second-order pass: differentiate the Koszul output and assemble R.

    R(e_a, e_b) e_c = nabla_{e_a} nabla_{e_b} e_c - nabla_{e_b} nabla_{e_a} e_c
                      - nabla_{pi[e_a, e_b]} e_c - pi[ theta([e_a,e_b]) xi, e_c ]
    """
    E, dE, d2E = arr.E, arr.dE, arr.d2E
    dG, d2G = arr.dG, arr.d2G
    tm = 2 * chart.m

    # Each temporary below is deleted right after its last use, so the pass
    # peaks at a few of them per point instead of holding all of them.

    # d_k A_ij, and the frame 2-form derivative d_k omega_ab
    dA = arr.d2th.swapaxes(-3, -2) - arr.d2th
    domega = two_form_derivative(E, dE, p["A"], dA)
    del dA

    # d_j [e_a, e_b]^k
    dBr = np.einsum("...iaj,...kbi->...kabj", dE, dE) + np.einsum(
        "...ia,...kbij->...kabj", E, d2E
    )
    dBr = dBr - dBr.swapaxes(-3, -2)

    # d_j of the frame solve [E | xi]^{-1}
    dAug = np.concatenate([dE, arr.dxi[..., :, None, :]], axis=-2)
    Minv = p["Minv"]
    dMinv = inverse_derivative(Minv, dAug)
    del dAug

    dcfull = np.einsum("...ckj,...kab->...cabj", dMinv, p["Br"]) + np.einsum(
        "...ck,...kabj->...cabj", Minv, dBr
    )
    del dMinv, dBr
    dc = dcfull[..., :tm, :, :, :]

    dDg = np.einsum("...iaj,...bci->...abcj", dE, dG) + np.einsum(
        "...ia,...bcij->...abcj", E, d2G
    )
    dK = (
        dDg
        + np.einsum("...bcaj->...abcj", dDg)
        - np.einsum("...cabj->...abcj", dDg)
        + np.einsum("...dabj,...dc->...abcj", dc, arr.G)
        + np.einsum("...dab,...dcj->...abcj", p["c"], dG)
        - np.einsum("...dbcj,...da->...abcj", dc, arr.G)
        - np.einsum("...dbc,...daj->...abcj", p["c"], dG)
        - np.einsum("...dacj,...db->...abcj", dc, arr.G)
        - np.einsum("...dac,...dbj->...abcj", p["c"], dG)
    )
    del dDg, dc, dcfull
    dGinv = inverse_derivative(Ginv, dG)
    dGam = 0.5 * (
        np.einsum("...ecj,...abc->...eabj", dGinv, K)
        + np.einsum("...ec,...abcj->...eabj", Ginv, dK)
    )
    del dGinv, dK
    DGam = np.einsum("...ja,...ebcj->...aebc", E, dGam)
    del dGam

    T1 = np.einsum("...aebc->...abec", DGam)
    R = T1 - T1.swapaxes(-4, -3)
    del T1, DGam
    T3 = np.einsum("...dbc,...ead->...abec", Gam, Gam)
    R += T3
    R -= T3.swapaxes(-4, -3)
    del T3
    R -= np.einsum("...dab,...edc->...abec", p["c"], Gam)  # T5
    R -= np.einsum("...ab,...ec->...abec", p["tau"], p["dcoef"])  # T6

    omega = p["omega"]
    if np.min(np.abs(np.linalg.det(omega))) < 1e-12:
        raise ChartError("degenerate dtheta: cannot invert the contact 2-form")
    alpha = 2.0 * np.linalg.inv(omega)
    N = np.einsum("...abec,...ab->...ec", R, alpha) / (4.0 * chart.m)
    RW = R + np.einsum("...ab,...ec->...abec", omega, N)

    data.R = R
    data.alpha = alpha
    data.N = N
    data.RW = RW
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
    in the orthonormal frames ``Pinv[p]`` at the ends and ``P0`` at the base."""
    return np.einsum("pij,pjk,kl->pil", Pinv, taus, P0)


def ortho_two_form(omega, P):
    """A frame 2-form ``omega[..., a, b]`` in the orthonormal frame of P."""
    return np.einsum("...aA,...ab,...bB->...AB", P, omega, P)


def connection_invariant_residuals(data):
    """Max residuals of the connection-level invariants over the points of
    one second-order :class:`FramePointData`."""
    res = {}
    tors = data.Gamma - data.Gamma.swapaxes(-2, -1) - data.c
    res["torsion"] = float(np.max(np.abs(tors)))
    Dg = np.einsum("...ia,...bci->...abc", data.E, data.dG)
    lower = np.einsum("...dab,...dc->...abc", data.Gamma, data.G) + np.einsum(
        "...dac,...bd->...abc", data.Gamma, data.G
    )
    res["metric_compat"] = float(np.max(np.abs(Dg - lower)))
    GR = np.einsum("...ed,...abdc->...abec", data.G, data.R)
    res["g_skew"] = float(np.max(np.abs(GR + GR.swapaxes(-1, -2))))
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
