"""Transverse geometry of the Reeb foliation: Ricci tensor and form,
the decomposition of the contact plane into holonomy-irreducible blocks,
the regression of dtheta against per-factor Ricci forms, and the
Sasaki-structure criterion.

All tensors here live in the g-orthonormalized frame, where the metric is
the identity and complex structures are literal elements of so(2m).  The
point checks take order-2 frame data, or the Ricci tensor and dtheta that
:func:`orthonormal_ricci` takes from it, so one evaluation serves them all.
The splitting reads dtheta from the base point's frame data, evaluating no
chart; its draws are seeded, its thresholds fixed, and its one setting is
the span cut that closed the algebra (:func:`factor_split`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connection import FramePointData, inverse_derivative, ortho_two_form
from .errors import ChartError, NumericsError
from .holonomy import MatrixLieAlgebra, detect_complex_structure, lie_closure, matrix_basis

__all__ = [
    "FactorSplit",
    "orthonormal_ricci",
    "dtheta_regression",
    "split_distribution",
    "factor_split",
    "einstein_check",
    "sasaki_psi_check",
]


@dataclass
class FactorSplit:
    """Partition of the frame indices into holonomy-irreducible blocks.

    ``J_blocks`` holds one complex-structure matrix per block (full-size,
    supported on the block), sign-aligned so it pairs positively with
    dtheta.  ``trivial`` collects the indices the holonomy annihilates.
    """

    blocks: list
    J_blocks: list = field(default_factory=list)
    trivial: tuple = ()

    @property
    def r(self):
        return len(self.blocks)


def orthonormal_ricci(data):
    """``(ric, omega_o)`` of order-2 frame data, in the orthonormal frame:
    the transverse Ricci tensor Ric(X, Y) = sum_k g(R(e_k, X) Y, e_k) and
    the contact 2-form dtheta.

    The trace over k does not depend on the frame, so it is taken in the
    chart frame, ``sum_a R[a, b, a, c]``, and the result changed to the
    orthonormal frame as a bilinear form, ``P^T Ric P``.
    """
    ric = ortho_two_form(np.trace(data.R, axis1=-4, axis2=-2), data.P)
    return ric, ortho_two_form(data.omega, data.P)


# ---------------------------------------------------------------------------
# de Rham-style splitting


def _symmetric_commutant_element(h: MatrixLieAlgebra, tm):
    """A random symmetric matrix (seed 0) commuting with the algebra."""
    sym_basis = matrix_basis(tm, skew=False)
    comm = h.commutant(sym_basis)
    coef = np.random.default_rng(0).normal(size=len(comm)) @ comm
    C = np.einsum("k,kij->ij", coef, sym_basis)
    return C / max(np.linalg.norm(C), 1e-30)


def split_distribution(h: MatrixLieAlgebra, size):
    """Invariant orthogonal splitting of the contact plane, of dimension
    ``size``, under the algebra.

    Clusters the eigenspaces of the Casimir-type operator sum(B^T B),
    degeneracy-broken by a random symmetric commutant element, at a
    relative gap of 1e-6; blocks that the algebra annihilates are merged
    into the trivial part.  The blocks must align with frame-index groups
    (true for the built-in charts).
    """
    S = np.zeros((size, size))
    for B in h.basis:
        S += B.T @ B
    C = _symmetric_commutant_element(h, size)
    scale = 0.37 * (1.0 + np.linalg.norm(S))
    w, V = np.linalg.eigh(S + scale * C)
    order = np.argsort(w)
    w, V = w[order], V[:, order]
    clusters = []
    start = 0
    for i in range(1, size + 1):
        if i == size or w[i] - w[i - 1] > 1e-6 * max(1.0, np.max(np.abs(w))):
            clusters.append(V[:, start:i])
            start = i
    blocks = []
    n_trivial = 0
    for Vc in clusters:
        if not any(np.max(np.abs(B @ Vc)) > 1e-8 for B in h.basis):
            n_trivial += Vc.shape[1]
            continue
        support = tuple(int(i) for i in np.nonzero(np.linalg.norm(Vc, axis=1) > 1e-6)[0])
        if len(support) != Vc.shape[1]:
            raise NumericsError("invariant blocks do not align with frame indices")
        blocks.append(support)
    covered = set()
    for blk in blocks:
        if covered & set(blk):
            raise NumericsError("invariant blocks overlap")
        covered |= set(blk)
    trivial = tuple(sorted(set(range(size)) - covered))
    if len(trivial) != n_trivial:
        raise NumericsError("trivial part does not align with frame indices")
    return FactorSplit(blocks=sorted(blocks), trivial=trivial)


def _restricted_algebra(h: MatrixLieAlgebra, block, span_tol):
    """The closure of h restricted to a block, cut at span_tol but no finer than 1e-8."""
    ix = np.array(block)
    mats = [B[np.ix_(ix, ix)] for B in h.basis]
    return lie_closure(mats, tol=max(1e-8, span_tol))


def factor_split(base: FramePointData, h: MatrixLieAlgebra, span_tol):
    """Blocks plus per-block complex structures, sign-aligned with dtheta at
    the point of the frame data ``base`` (any order); each block's
    restriction of h is closed at ``span_tol``, h's span cut."""
    tm = 2 * base.m
    split = split_distribution(h, size=tm)
    omega_o = ortho_two_form(base.omega, base.P)[0]
    Js = []
    for block in split.blocks:
        ix = np.array(block)
        hb = _restricted_algebra(h, block, span_tol)
        Jb = detect_complex_structure(hb, size=len(block))
        if Jb is None:
            raise ChartError(f"block {block} carries no invariant complex structure")
        if np.sum(Jb * omega_o[np.ix_(ix, ix)]) < 0:
            Jb = -Jb
        J = np.zeros((tm, tm))
        J[np.ix_(ix, ix)] = Jb
        Js.append(J)
    split.J_blocks = Js
    return split


# ---------------------------------------------------------------------------
# the dtheta regression and Einstein checks


def _block_ricci_forms(ric, split: FactorSplit):
    """Per-factor Ricci forms ``[..., i, a, b]`` from the Ricci tensor."""
    rhos = []
    for block, J in zip(split.blocks, split.J_blocks):
        ix = np.array(block)
        rho = np.einsum("ca,...cb->...ab", J, ric)
        full = np.zeros_like(rho)
        full[..., ix[:, None], ix[None, :]] = rho[..., ix[:, None], ix[None, :]]
        rhos.append(full)
    return np.stack(rhos, axis=-3) if rhos else None


def dtheta_regression(ric, omega_o, split: FactorSplit):
    """Least-squares coefficients b with dtheta = sum_i b_i rho^i.

    ``ric`` and ``omega_o`` are the orthonormal-frame Ricci tensor and
    dtheta at the sample points (:func:`orthonormal_ricci`).  All frame
    components at all points are stacked into one overdetermined system,
    solved by normal equations; the residual is the worst pointwise
    relative misfit.  A near-singular system signals a Ricci-flat factor.
    """
    if np.ndim(ric) < 3 or len(ric) < 10:
        raise ValueError("dtheta_regression needs at least 10 sample points")
    if split.r == 0:
        raise ChartError("regression needs at least one factor block")
    rhos = _block_ricci_forms(ric, split)
    M = np.einsum("piab,pjab->ij", rhos, rhos)
    v = np.einsum("piab,pab->i", rhos, omega_o)
    norms = np.sqrt(np.diag(M))
    if np.min(norms) < 1e-10 * max(np.max(norms), 1.0):
        raise ChartError("rank-deficient regression: a factor Ricci form vanishes")
    b = np.linalg.solve(M, v)
    fit = np.einsum("i,...iab->...ab", b, rhos)
    num = np.linalg.norm(omega_o - fit, axis=(-2, -1))
    den = np.linalg.norm(omega_o, axis=(-2, -1))
    return {"b": b, "residual": float(np.max(num / den))}


def einstein_check(ric, split: FactorSplit):
    """Per-factor Einstein constant and relative residual over the points
    at which the orthonormal-frame Ricci tensor ``ric`` was evaluated."""
    out = []
    for block in split.blocks:
        ix = np.array(block)
        sub = ric[..., ix[:, None], ix[None, :]]
        lam = float(np.mean(np.trace(sub, axis1=-2, axis2=-1) / len(block)))
        dev = sub - lam * np.eye(len(block))
        residual = float(np.max(np.linalg.norm(dev, axis=(-2, -1))) / np.sqrt(len(block)))
        out.append({"block": tuple(int(i) for i in block),
                    "einstein_lambda": lam,
                    "einstein_residual": residual})
    return out


# ---------------------------------------------------------------------------
# Sasaki criterion


def sasaki_psi_check(data):
    """Residuals of psi^2 = -id and nabla psi = 0 for psi = g^{-1} dtheta.

    Both vanish exactly when the associated metric theta x theta + g is
    Sasaki; the residuals are reported over the points of the order-2
    frame data ``data``, and both below 1e-6 flag a Sasaki candidate.
    """
    psi = data.Ginv @ data.omega
    *batch, n, tm = data.E.shape
    sq = psi @ psi + np.eye(tm)
    psi_sq_residual = float(np.max(np.abs(sq)))
    # dpsi[j, e, c] = d_j psi[e, c], the coordinate slot j first
    dGinv = np.moveaxis(inverse_derivative(data.Ginv, data.dG), -1, -3)
    dpsi = (dGinv @ data.omega[..., None, :, :]
            + data.Ginv[..., None, :, :] @ np.moveaxis(data.domega, -1, -3))
    # nabla[e, a, c] = e_a(psi[e, c]) + Gamma[e, a, d] psi[d, c] - psi[e, d] Gamma[d, a, c],
    # e_a(psi) as E^T times dpsi flattened to [j, (e c)]
    Gam = data.Gamma
    epsi = (np.swapaxes(data.E, -1, -2) @ dpsi.reshape(*batch, n, tm * tm)).reshape(Gam.shape)
    nabla = (
        epsi.swapaxes(-3, -2)
        + (Gam.reshape(*batch, tm * tm, tm) @ psi).reshape(Gam.shape)
        - (psi @ Gam.reshape(*batch, tm, tm * tm)).reshape(Gam.shape)
    )
    nabla_psi_residual = float(np.max(np.abs(nabla)))
    return {
        "is_sasaki_candidate": bool(psi_sq_residual < 1e-6 and nabla_psi_residual < 1e-6),
        "psi_sq_residual": psi_sq_residual,
        "nabla_psi_residual": nabla_psi_residual,
    }
