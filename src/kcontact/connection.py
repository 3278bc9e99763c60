"""Horizontal connection data at a point: coefficients, curvature, Wagner field.

Everything is computed in the chart frame from the jet-evaluated chart
functions.  First derivatives give the connection coefficients via the
Koszul formula; second derivatives propagate through an explicit chain
rule to the curvature.  One code path serves every chart; a
finite-difference oracle in the test suite checks the whole pipeline.
One bracket computation (``manifolds.frame_brackets``) and one Koszul
assembly (:func:`_koszul`) serve both the full :func:`frame_data` and the
lean :func:`transport_data` that the transport right-hand side calls.

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
    "schouten_coeffs",
    "schouten_curvature",
    "dtheta_inverse_bivector",
    "wagner_N",
    "wagner_nabla_N",
    "extended_curvature",
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
    by the vertical part of the zero extension.  At second order,
    ``R[..., a, b, e, c]`` is the matrix of ``R(e_a, e_b)`` (slot ``c`` in,
    slot ``e`` out), ``N`` the Wagner endomorphism and ``RW`` the Wagner
    curvature on horizontal pairs; the mixed Wagner curvature ``-nabla N``
    comes from :func:`extended_curvature`.
    """

    x: np.ndarray
    m: int
    order: int
    theta: np.ndarray
    xi: np.ndarray
    E: np.ndarray
    G: np.ndarray
    Ginv: np.ndarray
    omega: np.ndarray
    c: np.ndarray
    tau: np.ndarray
    xi_coeffs: np.ndarray
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
    """
    Dg = np.einsum("...ia,...bci->...abc", E, dG)
    W = np.einsum("...dab,...dc->...abc", c, G)
    K = (
        Dg
        + np.moveaxis(Dg, [-3, -2, -1], [-2, -1, -3])
        - np.moveaxis(Dg, [-3, -2, -1], [-1, -3, -2])
        + W
        - np.moveaxis(W, [-3, -2, -1], [-2, -1, -3])
        - W.swapaxes(-2, -1)
    )
    Ginv = np.linalg.inv(G)
    return K, Ginv, 0.5 * np.einsum("...ec,...abc->...eab", Ginv, K)


@dataclass(slots=True)
class TransportData:
    """Minimal per-point data for the transport right-hand side."""

    E: np.ndarray
    xi: np.ndarray
    theta: np.ndarray
    Gamma: np.ndarray
    xi_coeffs: np.ndarray = None
    N: np.ndarray = None


def transport_data(chart, X, vertical=False, wagner=False):
    """Lean evaluation of the pieces the transport ODE needs.

    Computes the connection coefficients (and, for curves with vertical
    parts, the Reeb bracket coefficients and optionally the Wagner field)
    with as few contractions as possible; the hot path of the holonomy
    sampler.
    """
    if wagner and vertical:
        d = frame_data(chart, X, order=2)
        return TransportData(d.E, d.xi, d.theta, d.Gamma, d.xi_coeffs, d.N)
    arr = chart_arrays(chart, X, order=1)
    _, Minv, cfull = frame_brackets(arr)
    tm = arr.E.shape[-1]
    _, _, Gam = _koszul(arr.E, arr.G, arr.dG, cfull[..., :tm, :, :])
    xi_coeffs = reeb_brackets(arr, Minv)[..., :tm, :] if vertical else None
    return TransportData(arr.E, arr.xi, arr.th, Gam, xi_coeffs)


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
        order=order,
        theta=arr.th,
        xi=arr.xi,
        E=arr.E,
        G=arr.G,
        Ginv=Ginv,
        omega=p["omega"],
        c=p["c"],
        tau=p["tau"],
        xi_coeffs=p["dcoef"],
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
    A = arr.dth.swapaxes(-1, -2) - arr.dth

    # d_k A_ij, and the frame 2-form derivative d_k omega_ab
    dA = arr.d2th.swapaxes(-3, -2) - arr.d2th
    domega = (
        np.einsum("...iak,...ij,...jb->...abk", dE, A, E)
        + np.einsum("...ia,...ijk,...jb->...abk", E, dA, E)
        + np.einsum("...ia,...ij,...jbk->...abk", E, A, dE)
    )

    # d_j [e_a, e_b]^k
    dBr = np.einsum("...iaj,...kbi->...kabj", dE, dE) + np.einsum(
        "...ia,...kbij->...kabj", E, d2E
    )
    dBr = dBr - dBr.swapaxes(-3, -2)

    # d_j of the frame solve [E | xi]^{-1}
    dAug = np.concatenate([dE, arr.dxi[..., :, None, :]], axis=-2)
    Minv = p["Minv"]
    dMinv = -np.einsum("...ac,...cdj,...db->...abj", Minv, dAug, Minv)

    dcfull = np.einsum("...ckj,...kab->...cabj", dMinv, p["Br"]) + np.einsum(
        "...ck,...kabj->...cabj", Minv, dBr
    )
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
    dGinv = -np.einsum("...ac,...cdj,...db->...abj", Ginv, dG, Ginv)
    dGam = 0.5 * (
        np.einsum("...ecj,...abc->...eabj", dGinv, K)
        + np.einsum("...ec,...abcj->...eabj", Ginv, dK)
    )
    DGam = np.einsum("...ja,...ebcj->...aebc", E, dGam)

    T1 = np.einsum("...aebc->...abec", DGam)
    T3 = np.einsum("...dbc,...ead->...abec", Gam, Gam)
    T5 = np.einsum("...dab,...edc->...abec", p["c"], Gam)
    T6 = np.einsum("...ab,...ec->...abec", p["tau"], p["dcoef"])
    R = T1 - T1.swapaxes(-4, -3) + T3 - T3.swapaxes(-4, -3) - T5 - T6

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


def _single(chart, x, order):
    x = np.asarray(x, dtype=float)
    data = frame_data(chart, x[None] if x.ndim == 1 else x, order=order)
    return data, x.ndim == 1


def schouten_coeffs(chart, x):
    """Connection coefficients Gamma[c, a, b] at a point."""
    data, single = _single(chart, x, 1)
    return data.Gamma[0] if single else data.Gamma


def schouten_curvature(chart, x):
    """Curvature R[a, b, e, c]: the matrix of R(e_a, e_b) in the frame."""
    data, single = _single(chart, x, 2)
    return data.R[0] if single else data.R


def dtheta_inverse_bivector(chart, x):
    """The bivector alpha with dtheta(alpha) = -4m (skew coefficient matrix)."""
    data, single = _single(chart, x, 1)
    if np.min(np.abs(np.linalg.det(data.omega))) < 1e-12:
        raise ChartError("degenerate dtheta: cannot invert the contact 2-form")
    alpha = 2.0 * np.linalg.inv(data.omega)
    return alpha[0] if single else alpha


def wagner_N(chart, x):
    """Wagner endomorphism N = R(alpha) / 4m."""
    data, single = _single(chart, x, 2)
    return data.N[0] if single else data.N


def wagner_nabla_N(chart, x, step=1e-4):
    """Frame covariant derivative nabla_{e_a} N of the Wagner field.

    Central differences over the jet-computed N field: the entries of
    nabla N need third metric derivatives, beyond the order-2 jets.
    Returns an array ``[..., a, e, c]``.
    """
    data, single = _single(chart, x, 2)
    Xb, n = data.x, chart.dim
    dN = np.empty(Xb.shape[:-1] + (n,) + data.N.shape[-2:])
    for j in range(n):
        h = np.zeros(n)
        h[j] = step
        Np = frame_data(chart, Xb + h, order=2).N
        Nm = frame_data(chart, Xb - h, order=2).N
        dN[..., j, :, :] = (Np - Nm) / (2.0 * step)
    # nabla_a N^e_c = e_a(N^e_c) + Gamma^e_{ad} N^d_c - Gamma^d_{ac} N^e_d
    eN = np.einsum("...ja,...jec->...aec", data.E, dN)
    nabla = (
        eN
        + np.einsum("...ead,...dc->...aec", data.Gamma, data.N)
        - np.einsum("...dac,...ed->...aec", data.Gamma, data.N)
    )
    return nabla[0] if single else nabla


def extended_curvature(chart, x, N=None):
    """Curvature of the extension of the horizontal connection by a field N.

    ``N=None`` selects the zero extension (mixed curvature vanishes);
    ``N='wagner'`` selects the Wagner extension, whose mixed curvature is
    ``-nabla N``.  A raw matrix N yields the horizontal part only (a single
    matrix carries no field information), with ``RNxi=None``.
    Returns ``(RN, RNxi)``.
    """
    data, single = _single(chart, x, 2)
    if N is None:
        RN = data.R
        RNxi = np.zeros(data.R.shape[:-4] + data.R.shape[-3:])
    elif isinstance(N, str) and N == "wagner":
        RN = data.RW
        RNxi = -wagner_nabla_N(chart, data.x)
    else:
        Nb = np.asarray(N, dtype=float)
        RN = data.R + np.einsum("...ab,...ec->...abec", data.omega, Nb)
        RNxi = None
    if single:
        RN = RN[0]
        RNxi = None if RNxi is None else RNxi[0]
    return RN, RNxi


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
    orthonormal frame of ``(P, Pinv) = orthonormal_frame_change(G)``."""
    return np.einsum("...aA,...bB,...Ee,...abec,...cC->...ABEC", P, P, Pinv, F, P)


def ortho_two_form(omega, P):
    """A frame 2-form ``omega[..., a, b]`` in the orthonormal frame of P."""
    return np.einsum("...aA,...ab,...bB->...AB", P, omega, P)


def connection_invariant_residuals(chart, X):
    """Max residuals of the connection-level invariants over points X."""
    data = frame_data(chart, X, order=2)
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
        np.max(np.abs(form_on_bivector(data.omega, data.alpha) + 4.0 * chart.m))
    )
    return res
