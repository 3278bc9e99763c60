"""Finite-difference oracles for the connection pipeline.

Everything here except :func:`wagner_nabla_N` and the kernel forms
described below is computed from plain chart evaluations and central
differences only; no jet machinery is touched, so these values are an
independent route against which the forward-mode results are checked.
The ``*_reference`` functions are the plain ``np.einsum`` forms of the
kernels that the package contracts as batched matmuls: the same sums,
written once per index, against which the matmul layouts are checked.
:func:`stack_arrays_reference` is likewise the plain form of
``jets.stack_arrays``, a recursive walk that writes every leaf, and
:func:`ball_metric_reference` that of ``manifolds._ball_metric``, which
computes every block of the metric on its own.

Some kernels were rewritten to do less work with the same bits; their
earlier forms are kept here as bit-for-bit oracles:
:func:`frame_brackets_per_component` and :func:`reeb_brackets_per_component`
take one matmul per component of ``dE`` where the package flattens ``dE``
into one, :func:`koszul_moveaxis` permutes slots with ``np.moveaxis``,
:func:`annihilator_pairs_reference` projects and contracts one frame-pair
bivector at a time, :func:`recip_uncached` is ``Jet._recip`` without its cache and
:func:`where_reference` is ``jets.where`` lifting a constant branch to a
zero jet.

:func:`transport_data_reference` is ``connection.transport_data`` as it
ran on a chart in normal form before the horizontal route read the metric
alone: brackets, frame solve and the Koszul sum with its bracket terms,
a bit-for-bit oracle of that route's ``Gamma``.

:func:`coupled_transport_reference` is the transport of control paths
that the package ran before it integrated positions first: one RK4 on
(position, transport) that reads the connection at every stage position
and the velocity from plain chart values.
:func:`transport_positions_per_step` is the frame transport over
integrated positions as the package ran it before it evaluated the
connection over blocks of steps: one evaluation of the ends and one of the
Hermite midpoints per step, with the velocity from order-1 chart values
on every chart, a bit-for-bit oracle.
:func:`draw_path` and :func:`reeb_sampled_path_transports` are the draw
and the sampling pass of paths with Reeb-direction controls that
``holonomy_samples`` made off normal form before it took its adapted
samples along the horizontal pass: the oracle of that route, wrapped
around the package's horizontal draw and pass with the same bits.
:func:`reeb_adapted_samples` gives that route's adapted samples.
:func:`integrate_sampled_reference` is the stage-by-stage RK4 over sampled
coefficients that the sampled-curve transports ran before they became
products of step propagators, and :func:`reeb_flow_jacobian_reference`
the Reeb flow with its full Jacobian, which the package replaced by the
pushforward of the vectors it needs.  :func:`theta_integral_loop` and
:func:`cumulative_theta_integral_loop` are the per-step loops of the
Simpson theta-integrals, bit-for-bit oracles of the array forms.
:func:`outside_for_any_t_reference` is the t-free domain test that the
positions pass ran on its own before ``Domain.contains`` accepted points
given by their horizontal coordinates.
:func:`rotated_chart` is a coordinate-change oracle: a chart pulled back
by a t-dependent rotation of one factor's plane, on which ``dxi`` is not
zero and the coefficients depend on t.  :func:`gauged_chart` is a
change-of-frame oracle: the same structure in a frame rotated as t grows,
on which ``[xi, e_a]`` is not zero.
"""

import dataclasses

import numpy as np

from kcontact import holonomy as H
from kcontact import jets
from kcontact import transport as T
from kcontact.connection import (TransportData, _koszul, frame_brackets, frame_data,
                                 inverse_derivative, ortho_curvature, ortho_transports,
                                 ortho_two_form, orthonormal_frame_change, reeb_brackets,
                                 transport_data, two_form_derivative)
from kcontact.jets import Jet
from kcontact.manifolds import chart_arrays


def chart_values(chart, x):
    arr = chart_arrays(chart, np.asarray(x, dtype=float)[None], order=0)
    return arr.th[0], arr.xi[0], arr.E[0], arr.G[0]


def fd_first(chart, x, step=1e-5):
    """Central-difference first derivatives of (theta, xi, E, G).

    Returns arrays with the derivative index last, matching the jet layout.
    """
    n = chart.dim
    tm = 2 * chart.m
    dth = np.zeros((n, n))
    dxi = np.zeros((n, n))
    dE = np.zeros((n, tm, n))
    dG = np.zeros((tm, tm, n))
    for j in range(n):
        h = np.zeros(n)
        h[j] = step
        tp, xp, Ep, Gp = chart_values(chart, x + h)
        tmn, xmn, Em, Gm = chart_values(chart, x - h)
        dth[:, j] = (tp - tmn) / (2 * step)
        dxi[:, j] = (xp - xmn) / (2 * step)
        dE[:, :, j] = (Ep - Em) / (2 * step)
        dG[:, :, j] = (Gp - Gm) / (2 * step)
    return dth, dxi, dE, dG


def structure_fd(chart, x, step=1e-4):
    """Structure functions (omega, c, tau, dcoef) from finite differences."""
    th, xi, E, G = chart_values(chart, x)
    dth, dxi, dE, dG = fd_first(chart, x, step)
    A = dth.T - dth  # A_ij = d_i theta_j - d_j theta_i
    omega = E.T @ A @ E
    n = chart.dim
    tm = 2 * chart.m
    Br = np.einsum("ia,kbi->kab", E, dE)
    Br = Br - Br.swapaxes(-1, -2)
    Bx = np.einsum("i,kai->ka", xi, dE) - np.einsum("ia,ki->ka", E, dxi)
    Aug = np.concatenate([E, xi[:, None]], axis=1)
    Minv = np.linalg.inv(Aug)
    cfull = np.einsum("ck,kab->cab", Minv, Br)
    dfull = Minv @ Bx
    return {
        "omega": omega,
        "c": cfull[:tm],
        "tau": cfull[tm],
        "dcoef": dfull[:tm],
        "E": E,
        "G": G,
        "dG": dG,
    }


def gamma_fd(chart, x, step=1e-4):
    """Connection coefficients from the Koszul formula, all inputs by FD."""
    p = structure_fd(chart, x, step)
    E, G, dG, c = p["E"], p["G"], p["dG"], p["c"]
    Dg = np.einsum("ia,bci->abc", E, dG)
    K = (
        Dg
        + np.einsum("bca->abc", Dg)
        - np.einsum("cab->abc", Dg)
        + np.einsum("dab,dc->abc", c, G)
        - np.einsum("dbc,da->abc", c, G)
        - np.einsum("dac,db->abc", c, G)
    )
    return 0.5 * np.einsum("ec,abc->eab", np.linalg.inv(G), K)


def curvature_fd(chart, x, outer_step=1e-3, inner_step=1e-4):
    """Curvature by outer central differences of the FD connection."""
    n = chart.dim
    p = structure_fd(chart, x, inner_step)
    E, c, tau, dcoef = p["E"], p["c"], p["tau"], p["dcoef"]
    Gam = gamma_fd(chart, x, inner_step)
    dGam = np.zeros(Gam.shape + (n,))
    for j in range(n):
        h = np.zeros(n)
        h[j] = outer_step
        dGam[..., j] = (
            gamma_fd(chart, x + h, inner_step) - gamma_fd(chart, x - h, inner_step)
        ) / (2 * outer_step)
    DGam = np.einsum("ja,ebcj->aebc", E, dGam)
    T1 = np.einsum("aebc->abec", DGam)
    T3 = np.einsum("dbc,ead->abec", Gam, Gam)
    T5 = np.einsum("dab,edc->abec", c, Gam)
    T6 = np.einsum("ab,ec->abec", tau, dcoef)
    return T1 - T1.swapaxes(0, 1) + T3 - T3.swapaxes(0, 1) - T5 - T6


def wagner_nabla_N(chart, X, step=1e-4):
    """Frame covariant derivative nabla_{e_a} N of the Wagner field at points X.

    Central differences over the jet-computed N field: the entries of
    nabla N need third metric derivatives, beyond the order-2 jets.
    Returns an array ``[..., a, e, c]``.
    """
    data = frame_data(chart, X, order=2)
    n = chart.dim
    dN = np.empty(data.x.shape[:-1] + (n,) + data.N.shape[-2:])
    for j in range(n):
        h = np.zeros(n)
        h[j] = step
        Np = frame_data(chart, data.x + h, order=2).N
        Nm = frame_data(chart, data.x - h, order=2).N
        dN[..., j, :, :] = (Np - Nm) / (2.0 * step)
    # nabla_a N^e_c = e_a(N^e_c) + Gamma^e_{ad} N^d_c - Gamma^d_{ac} N^e_d
    eN = np.einsum("...ja,...jec->...aec", data.E, dN)
    return (
        eN
        + np.einsum("...ead,...dc->...aec", data.Gamma, data.N)
        - np.einsum("...dac,...ed->...aec", data.Gamma, data.N)
    )


def ortho_curvature_reference(F, P, Pinv):
    """``connection.ortho_curvature`` as one five-operand sum, (2m)^8 products
    per point: ``P[a, A] P[b, B] Pinv[E, e] F[a, b, e, c] P[c, C]``."""
    return np.einsum("...aA,...bB,...Ee,...abec,...cC->...ABEC", P, P, Pinv, F, P)


def curvature_reference(chart, X):
    """The second-order pass of ``connection.frame_data`` as single sums.

    The body of ``connection._curvature_inplace`` as it was before its sums
    became batched matmuls, less the non-degeneracy check of dtheta.
    Returns a dict of ``R``, ``alpha``, ``N``, ``RW`` and ``domega`` at the
    points ``X`` of shape (p, n).  The first-order pieces are those
    ``frame_data`` fills: the brackets of ``frame_brackets`` and
    ``reeb_brackets``, ``A`` and ``omega = E^T A E``.
    """
    arr = chart_arrays(chart, np.asarray(X, dtype=float), order=2)
    E, dE, d2E = arr.E, arr.dE, arr.d2E
    dG, d2G = arr.dG, arr.d2G
    tm = 2 * chart.m
    Br, Minv, cfull = frame_brackets(arr)
    c, tau = cfull[..., :tm, :, :], cfull[..., tm, :, :]
    dcoef = reeb_brackets(arr, Minv)[..., :tm, :]
    A = arr.dth.swapaxes(-1, -2) - arr.dth
    K, Ginv, Gam = _koszul(E, arr.G, arr.dG, c)

    # d_k A_ij, and the frame 2-form derivative d_k omega_ab
    dA = arr.d2th.swapaxes(-3, -2) - arr.d2th
    domega = two_form_derivative(E, dE, A, dA)
    del dA

    # d_j [e_a, e_b]^k
    dBr = np.einsum("...iaj,...kbi->...kabj", dE, dE) + np.einsum(
        "...ia,...kbij->...kabj", E, d2E
    )
    dBr = dBr - dBr.swapaxes(-3, -2)

    # d_j of the frame solve [E | xi]^{-1}
    dAug = np.concatenate([dE, arr.dxi[..., :, None, :]], axis=-2)
    dMinv = inverse_derivative(Minv, dAug)
    del dAug

    dcfull = np.einsum("...ckj,...kab->...cabj", dMinv, Br) + np.einsum(
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
        + np.einsum("...dab,...dcj->...abcj", c, dG)
        - np.einsum("...dbcj,...da->...abcj", dc, arr.G)
        - np.einsum("...dbc,...daj->...abcj", c, dG)
        - np.einsum("...dacj,...db->...abcj", dc, arr.G)
        - np.einsum("...dac,...dbj->...abcj", c, dG)
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
    R -= np.einsum("...dab,...edc->...abec", c, Gam)  # T5
    R -= np.einsum("...ab,...ec->...abec", tau, dcoef)  # T6

    omega = E.swapaxes(-1, -2) @ A @ E
    alpha = 2.0 * np.linalg.inv(omega)
    N = np.einsum("...abec,...ab->...ec", R, alpha) / (4.0 * chart.m)
    RW = R + np.einsum("...ab,...ec->...abec", omega, N)
    return {"R": R, "alpha": alpha, "N": N, "RW": RW, "domega": domega}


def sasaki_psi_check_reference(data):
    """The residuals of ``transverse.sasaki_psi_check`` with its sums as
    single einsums: ``(psi_sq_residual, nabla_psi_residual)``."""
    psi = np.einsum("...ea,...ac->...ec", data.Ginv, data.omega)
    tm = psi.shape[-1]
    sq = np.einsum("...ed,...dc->...ec", psi, psi) + np.eye(tm)
    dGinv = inverse_derivative(data.Ginv, data.dG)
    dpsi = np.einsum("...eaj,...ac->...ecj", dGinv, data.omega) + np.einsum(
        "...ea,...acj->...ecj", data.Ginv, data.domega
    )
    epsi = np.einsum("...ja,...ecj->...aec", data.E, dpsi)
    nabla = (
        epsi
        + np.einsum("...ead,...dc->...aec", data.Gamma, psi)
        - np.einsum("...dac,...ed->...aec", data.Gamma, psi)
    )
    return float(np.max(np.abs(sq))), float(np.max(np.abs(nabla)))


def orthonormal_ricci_reference(data):
    """``transverse.orthonormal_ricci``: the trace of the orthonormal-frame
    curvature as one einsum, and the 2-form by ``ortho_two_form_reference``."""
    P, Pinv = orthonormal_frame_change(data.G)
    ric = np.einsum("...kakb->...ab", ortho_curvature(data.R, P, Pinv))
    return ric, ortho_two_form_reference(data.omega, P)


def ortho_two_form_reference(omega, P):
    """``connection.ortho_two_form`` as one three-operand sum."""
    return np.einsum("...aA,...ab,...bB->...AB", P, omega, P)


def ortho_transports_reference(taus, Pinv, P0):
    """``connection.ortho_transports`` as one three-operand sum."""
    return np.einsum("pij,pjk,kl->pil", Pinv, taus, P0)


def frame_brackets_reference(arr):
    """``connection.frame_brackets`` as single sums: ``(Br, Minv, cfull)``."""
    Br = np.einsum("...ia,...kbi->...kab", arr.E, arr.dE)
    Br = Br - Br.swapaxes(-1, -2)
    Minv = np.linalg.inv(np.concatenate([arr.E, arr.xi[..., :, None]], axis=-1))
    return Br, Minv, np.einsum("...ck,...kab->...cab", Minv, Br)


def reeb_brackets_reference(arr, Minv):
    """``connection.reeb_brackets`` as single sums."""
    Bx = np.einsum("...i,...kai->...ka", arr.xi, arr.dE) - np.einsum(
        "...ia,...ki->...ka", arr.E, arr.dxi
    )
    return np.einsum("...ck,...ka->...ca", Minv, Bx)


def frame_two_form_reference(E, A):
    """The frame 2-form ``omega`` of ``connection.frame_data``: E^T A E."""
    return np.einsum("...ia,...ij,...jb->...ab", E, A, E)


def koszul_reference(E, G, dG, c):
    """``connection._koszul`` as single sums: ``(K, Ginv, Gamma)``."""
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


def transport_data_reference(chart, X, vertical=False):
    """``connection.transport_data`` through the brackets, the frame solve
    and the full Koszul sum on every chart, the assembly that the normal
    form's horizontal route replaced."""
    arr = chart_arrays(chart, X, order=1, fields=("xi", "E", "G"))
    _, Minv, cfull = frame_brackets(arr, chart.normal_form)
    tm = arr.E.shape[-1]
    _, _, Gam = _koszul(arr.E, arr.G, arr.dG, cfull[..., :tm, :, :], chart.blocks)
    xi_coeffs = reeb_brackets(arr, Minv)[..., :tm, :] if vertical else None
    return TransportData(arr.E, arr.xi, Gam, xi_coeffs)


def inverse_derivative_reference(Minv, dM):
    """``connection.inverse_derivative`` as one three-operand sum."""
    return -np.einsum("...ac,...cdj,...db->...abj", Minv, dM, Minv)


def two_form_derivative_reference(E, dE, A, dA):
    """``connection.two_form_derivative`` as three three-operand sums."""
    return (
        np.einsum("...iak,...ij,...jb->...abk", dE, A, E)
        + np.einsum("...ia,...ijk,...jb->...abk", E, dA, E)
        + np.einsum("...ia,...ij,...jbk->...abk", E, A, dE)
    )


def conjugated_samples_reference(taus_o, mats):
    """``holonomy._conjugated_samples`` with its conjugation as one sum."""
    inv = np.linalg.inv(taus_o)
    out = np.einsum("pij,pkjl,plq->pkiq", inv, mats, taus_o)
    out = 0.5 * (out - out.swapaxes(-1, -2))
    return out.reshape(-1, out.shape[-2], out.shape[-1])


def annihilator_pairs_reference(data):
    """``holonomy._annihilator_pairs`` as it ran before it projected every
    frame pair at once: one bivector, projection and contraction per pair."""
    omega_o = ortho_two_form(data.omega, data.P)
    R_o = ortho_curvature(data.R, data.P, data.Pinv)
    tm = omega_o.shape[-1]
    what = omega_o / np.linalg.norm(omega_o, axis=(-2, -1))[..., None, None]
    mats = []
    for a in range(tm):
        for b in range(a + 1, tm):
            beta = np.zeros(omega_o.shape)
            beta[..., a, b] = 1.0
            beta[..., b, a] = -1.0
            beta = beta - np.einsum("...ab,...ab->...", what, beta)[..., None, None] * what
            mats.append(np.einsum("...abec,...ab->...ec", R_o, beta))
    return np.stack(mats, axis=1)


def frame_rates_reference(Gamma, u):
    """The frame part of ``transport._connection_rates`` as one sum:
    Gamma[c, a, b] u[a]."""
    return np.einsum("...cab,...a->...cb", Gamma, u)


def rhs_reference(chart, x, u, w):
    """``transport._rhs``, the velocity, with its contraction as one sum."""
    arr = chart_arrays(chart, x, order=0, fields=("xi", "E"))
    v = np.einsum("...ia,...a->...i", arr.E, u)
    return v + w[..., None] * arr.xi if np.any(w != 0.0) else v


def connection_rates_reference(chart, x, u, w):
    """``transport._connection_rates`` of ``transport_data`` as single sums."""
    data = transport_data(chart, x, vertical=bool(np.any(w != 0.0)))
    Om = np.einsum("...cab,...a->...cb", data.Gamma, u)
    return Om if data.xi_coeffs is None else Om + w[..., None, None] * data.xi_coeffs


def coupled_transport_reference(chart, paths):
    """Transports of control paths by the coupled (position, transport)
    RK4, in which every stage reads the connection at its own stage
    position.

    The paths share horizon, step and segment count and must stay in the
    chart domain.  The transports are reprojected onto isometries every
    ``transport.REORTH_EVERY`` steps, as the package does.  Returns
    ``(ends, transports)``.
    """
    x = np.stack([p.x0 for p in paths])
    controls = np.stack([p.controls for p in paths])
    verticals = np.stack([p.vertical for p in paths])
    P, K, tm = controls.shape
    steps = T._even_steps(paths[0].horizon / K, paths[0].step)
    h = paths[0].horizon / K / steps
    M = np.broadcast_to(np.eye(tm), (P, tm, tm)).copy()
    _, L0t = orthonormal_frame_change(chart_arrays(chart, x, order=0, fields=("G",)).G)
    total = 0
    for k in range(K):
        u, w = controls[:, k], verticals[:, k]

        def rhs(s, y):
            return (rhs_reference(chart, y[0], u, w),
                    -np.matmul(connection_rates_reference(chart, y[0], u, w), y[1]))

        for _ in range(steps):
            x, M = T._rk4_step(rhs, (x, M), h)
            total += 1
            if total % T.REORTH_EVERY == 0:
                Pt, Lt = orthonormal_frame_change(
                    chart_arrays(chart, x, order=0, fields=("G",)).G)
                U, _, Vt = np.linalg.svd(Lt @ M @ np.linalg.inv(L0t))
                M = Pt @ (U @ Vt) @ L0t
    return x, M


def transport_positions_per_step(chart, xs, paths, h):
    """``transport._transport_positions`` with one connection evaluation of
    the ends and one of the midpoints per RK4 step, whatever the batch."""
    _, controls, verticals = T._path_arrays(paths)
    P_, K, per, _ = xs.shape
    tm = controls.shape[-1]
    vertical = bool(np.any(verticals != 0.0))
    P0, L0t = orthonormal_frame_change(chart_arrays(chart, xs[:, 0, 0], order=0, fields=("G",)).G)
    M = np.broadcast_to(np.eye(tm), (P_, tm, tm)).copy()
    total = 0
    for k in range(K):
        u, w = controls[:, k, :], verticals[:, k]
        x1 = xs[:, k, 0]
        v1 = _first_order_velocity(chart, x1, u, w)
        Om1 = T._connection_rates(transport_data(chart, x1, vertical=vertical), u, w)
        for i in range(1, per):
            x0, x1, v0, Om0 = x1, xs[:, k, i], v1, Om1
            v1 = _first_order_velocity(chart, x1, u, w)
            Om1 = T._connection_rates(transport_data(chart, x1, vertical=vertical), u, w)
            mid = transport_data(chart, 0.5 * (x0 + x1) + (0.125 * h) * (v0 - v1),
                                 vertical=vertical)
            Om = (Om0, T._connection_rates(mid, u, w), Om1)
            (M,) = T._rk4_step(lambda s, y: (-np.matmul(Om[s], y[0]),), (M,), h)
            total += 1
            if total % T.REORTH_EVERY == 0:
                M = T._reorthonormalize(chart, x1, M, P0, L0t)
    return M


def _with_reeb_controls(path, seed, i, attempt, vertical_magnitude):
    """``path`` with Reeb controls at ``vertical_magnitude`` (0: none),
    drawn after its horizontal controls from its (seed, i, attempt) stream."""
    if vertical_magnitude > 0:
        rng = np.random.default_rng([int(seed), int(i), int(attempt)])
        rng.normal(0.0, 1.0, path.controls.shape)
        path.vertical = rng.normal(0.0, 1.0, path.segments) * vertical_magnitude
    return path


def draw_path(chart, x0, segments, horizon, magnitude, seed, step, vertical_magnitude, i,
              attempt):
    """``transport._draw_path`` as it ran when the holonomy sampler also
    drew paths with Reeb controls: the horizontal draw of
    ``transport._draw_path``, then Reeb controls at ``vertical_magnitude``
    from the same stream."""
    path = T._draw_path(chart, x0, segments, horizon, magnitude, seed, step, i, attempt=attempt)
    return _with_reeb_controls(path, seed, i, attempt, vertical_magnitude)


def reeb_sampled_path_transports(chart, x0, sampler, vertical_magnitude):
    """The sampling pass of paths with Reeb controls at
    ``vertical_magnitude``, which ``holonomy_samples`` made off normal form
    for the adapted samples: ``transport.sampled_path_transports`` with
    each draw of ``transport._draw_path``, whatever it is at call time,
    given Reeb controls as :func:`draw_path` gives them."""
    horizontal = T._draw_path

    def draw(chart, x0, segments, horizon, magnitude, seed, step, i, attempt):
        path = horizontal(chart, x0, segments, horizon, magnitude, seed, step, i,
                          attempt=attempt)
        return _with_reeb_controls(path, seed, i, attempt, vertical_magnitude)

    T._draw_path = draw
    try:
        return T.sampled_path_transports(chart, x0, sampler)
    finally:
        T._draw_path = horizontal


def reeb_adapted_samples(chart, x, sampler):
    """The adapted samples of ``holonomy.holonomy_samples`` as it took them
    off normal form: the zero-extension curvature R on frame pairs at x,
    then at the ends of :func:`reeb_sampled_path_transports` at the
    sampler's magnitude, conjugated by its transports."""
    x = np.asarray(x, dtype=float)
    _, points, taus = reeb_sampled_path_transports(chart, x, sampler, sampler.magnitude)
    base = frame_data(chart, x[None], order=2)
    pairs = H._pair_matrices("R")
    if not sampler.n_paths:
        return pairs(base)[0]
    data = frame_data(chart, points, order=2)
    taus_o = ortho_transports(taus, data.Pinv, base.P[0])
    return np.concatenate([pairs(base)[0], H._conjugated_samples(
        taus_o, np.linalg.inv(taus_o), pairs(data))])


def _first_order_velocity(chart, x, u, w):
    """The velocity of ``transport._velocity`` from order-1 chart values,
    whose ``E`` the general route of ``transport_data`` reads (the order-0
    values of an oracle chart may differ from them in the last bit)."""
    arr = chart_arrays(chart, x, order=1, fields=("xi", "E"))
    return T._velocity(arr.E, arr.xi, u, w)


def integrate_sampled_reference(sc, rhs, y):
    """RK4 over the samples of a curve, one ``transport._rk4_step`` per step
    of two sample intervals; ``rhs(i, y)`` reads the coefficients at sample i."""
    for i0, i1 in sc.piece_slices:
        for j in range(i0, i1, 2):
            h2 = float(sc.ts[j + 2] - sc.ts[j])
            y = T._rk4_step(lambda s, y: rhs(j + s, y), y, h2)
    return y


def reeb_flow_jacobian_reference(chart, X, times):
    """The Reeb flow of ``transport._reeb_flow_batch`` together with its
    Jacobian J' = t Dxi(y) J, integrated by the same RK4 in the same
    ``transport.REEB_STEP`` steps.  Returns ``(y, J)``."""
    times = np.asarray(times, dtype=float)
    steps = max(1, int(np.ceil(float(np.max(np.abs(times))) / T.REEB_STEP)))

    def rhs(s, state):
        arr = chart_arrays(chart, state[0], order=1, fields=("xi",))
        return times[:, None] * arr.xi, times[:, None, None] * (arr.dxi @ state[1])

    y = (X, np.broadcast_to(np.eye(chart.dim), (len(X), chart.dim, chart.dim)).copy())
    for _ in range(steps):
        y = T._rk4_step(rhs, y, 1.0 / steps)
    return y


def theta_integral_loop(sc):
    """``transport._theta_integral`` as a loop over the Simpson steps."""
    total = 0.0
    for i0, i1 in sc.piece_slices:
        for j in range(i0, i1, 2):
            h2 = float(sc.ts[j + 2] - sc.ts[j])
            total += (h2 / 6.0) * (
                sc.theta_dot[j] + 4.0 * sc.theta_dot[j + 1] + sc.theta_dot[j + 2]
            )
    return total


def cumulative_theta_integral_loop(sc):
    """``transport._cumulative_theta_integral`` as a loop over the steps."""
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


def outside_for_any_t_reference(domain, H):
    """Flags of horizontal positions ``H`` that are outside ``domain`` for
    every t: outside the box, or outside a ball that leaves t out."""
    tm = H.shape[-1]
    out = np.any((H < domain.lo[:tm]) | (H > domain.hi[:tm]), axis=-1)
    for idx, radius in domain.balls:
        if max(idx) < tm:
            out |= np.sum(H[..., list(idx)] ** 2, axis=-1) > radius**2
    return out


def block_pairs_reference(chart):
    """The coordinate pairs of ``transport.balanced_loop`` as it derived them
    from ``chart.blocks``: consecutive pairs within each block, or within
    all 2m horizontal coordinates on a chart without blocks."""
    return [(blk[2 * k], blk[2 * k + 1]) for blk in chart.blocks or [range(2 * chart.m)]
            for k in range(len(blk) // 2)]


def rotated_chart(chart, pair, eps):
    """The pullback of ``chart`` by phi(x) = (R(eps t)(x_p, x_q), ..., t).

    ``pair = (p, q)`` are two coordinates of one disc or ball factor and t
    is the last coordinate, so the domain is unchanged.  theta pulls back
    by the Jacobian of phi, the frame and the Reeb field by its inverse,
    and the frame metric by composition.  On a chart with Reeb field d/dt
    the pulled-back Reeb field is d/dt + eps (x_q d/dx_p - x_p d/dx_q): it
    depends on the point, and the coefficients depend on t, so the
    pullback is not in normal form (``dataclasses.replace`` leaves it
    unmarked, with no blocks).
    """
    p, q = pair
    eps = float(eps)

    def phi(x):
        c, s = jets.cos(x[-1] * eps), jets.sin(x[-1] * eps)
        y = list(x)
        y[p], y[q] = c * x[p] - s * x[q], s * x[p] + c * x[q]
        return y, c, s

    def pull_vector(X, y, c, s):
        # the components w with D(phi) w = X: R(-eps t) after the t-column
        a = X[p] + eps * X[-1] * y[q]
        b = X[q] - eps * X[-1] * y[p]
        out = list(X)
        out[p], out[q] = c * a + s * b, c * b - s * a
        return out

    def theta(x):
        y, c, s = phi(x)
        th = chart.theta(y)
        out = list(th)
        out[p], out[q] = c * th[p] + s * th[q], c * th[q] - s * th[p]
        out[-1] = th[-1] + eps * (th[q] * y[p] - th[p] * y[q])
        return out

    def xi(x):
        y, c, s = phi(x)
        return pull_vector(chart.xi(y), y, c, s)

    def frame(x):
        y, c, s = phi(x)
        cols = chart.frame(y)
        pulled = [pull_vector([row[a] for row in cols], y, c, s) for a in range(2 * chart.m)]
        return [[col[i] for col in pulled] for i in range(chart.dim)]

    def metric(x):
        return chart.metric(phi(x)[0])

    return dataclasses.replace(chart, theta=theta, xi=xi, frame=frame, metric=metric,
                               name=f"rotated[{chart.name}, {pair}, {eps:g}]")


def gauged_chart(chart, pair, eps):
    """``chart`` in the frame e'_a = e_b g_ba, with g(t) the rotation by
    eps t in the frame plane ``pair = (p, q)``, and the metric G' = g^T G g.

    theta, xi and the sub-Riemannian structure are unchanged, but G' reads
    t and, on a chart with [xi, e_a] = 0, [xi, e'_a] = e'_c (g^-1 dg/dt)_ca
    is eps times the generator of the rotation: the Reeb term of the zero
    extension is not zero.  The metric is no longer block diagonal over
    ``chart.blocks``; like every chart that ``dataclasses.replace`` makes,
    the gauged chart has no blocks and is not in normal form.  A plane
    inside one block gives a gauge that commutes with the transports of the
    block-diagonal charts; take one that mixes blocks.
    """
    p, q = pair
    eps = float(eps)

    def gauge(rows, x):
        # rows @ g: only the columns p and q change
        c, s = jets.cos(x[-1] * eps), jets.sin(x[-1] * eps)
        out = [list(row) for row in rows]
        for row, new in zip(rows, out):
            new[p], new[q] = c * row[p] + s * row[q], c * row[q] - s * row[p]
        return out

    def frame(x):
        return gauge(chart.frame(x), x)

    def metric(x):
        # G g, transposed to g^T G, times g
        Gg = gauge(chart.metric(x), x)
        return [list(col) for col in zip(*gauge(list(zip(*Gg)), x))]

    return dataclasses.replace(chart, frame=frame, metric=metric,
                               name=f"gauged[{chart.name}, {pair}, {eps:g}]")


def stack_arrays_reference(nested, order, n, batch):
    """``jets.stack_arrays`` as a recursive walk that writes every leaf."""
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


def ball_metric_reference(spec, w):
    """``manifolds._ball_metric`` computing every (j, k) block on its own."""
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


def frame_brackets_per_component(arr):
    """``connection.frame_brackets`` with ``dE @ E`` as one matmul per
    component k of ``dE[..., k, b, i]``."""
    Br = arr.dE @ arr.E[..., None, :, :]
    Br = Br.swapaxes(-1, -2) - Br
    Minv = np.linalg.inv(np.concatenate([arr.E, arr.xi[..., :, None]], axis=-1))
    cfull = (Minv @ Br.reshape(*Br.shape[:-2], -1)).reshape(Br.shape)
    return Br, Minv, cfull


def reeb_brackets_per_component(arr, Minv):
    """``connection.reeb_brackets`` with ``xi(E)`` as one matmul per component."""
    Bx = (arr.dE @ arr.xi[..., None, :, None])[..., 0] - arr.dxi @ arr.E
    return Minv @ Bx


def koszul_moveaxis(E, G, dG, c):
    """``connection._koszul`` with its cyclic slot permutations by ``np.moveaxis``."""
    tm = E.shape[-1]
    batch = c.shape[:-3]
    Dg = E.swapaxes(-1, -2) @ dG.reshape(*batch, tm * tm, -1).swapaxes(-1, -2)
    Dg = Dg.reshape(*batch, tm, tm, tm)
    W = (c.reshape(*batch, tm, tm * tm).swapaxes(-1, -2) @ G).reshape(*batch, tm, tm, tm)
    K = (
        Dg
        + np.moveaxis(Dg, [-3, -2, -1], [-2, -1, -3])
        - np.moveaxis(Dg, [-3, -2, -1], [-1, -3, -2])
        + W
        - np.moveaxis(W, [-3, -2, -1], [-2, -1, -3])
        - W.swapaxes(-2, -1)
    )
    Ginv = np.linalg.inv(G)
    Gam = 0.5 * (Ginv @ K.reshape(*batch, tm * tm, tm).swapaxes(-1, -2))
    return K, Ginv, Gam.reshape(*batch, tm, tm, tm)


def recip_uncached(x):
    """``1 / x`` for a jet ``x``, computed afresh on every call."""
    iv = 1.0 / x.val
    iv2 = iv * iv
    grad = -iv2[..., None] * x.grad
    h = None
    if x.hess is not None:
        outer = x.grad[..., :, None] * x.grad[..., None, :]
        h = (2.0 * iv2 * iv)[..., None, None] * outer - iv2[..., None, None] * x.hess
    return Jet._make(iv, grad, h)


def where_reference(cond, a, b):
    """``jets.where`` lifting a constant branch to a zero-derivative jet."""
    cond = np.asarray(cond)
    if not (isinstance(a, Jet) or isinstance(b, Jet)):
        return np.where(cond, a, b)
    ref = a if isinstance(a, Jet) else b
    a = _like(a, ref)
    b = _like(b, ref)
    h = None
    if a.hess is not None:
        h = np.where(cond[..., None, None], a.hess, b.hess)
    return Jet._make(
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
