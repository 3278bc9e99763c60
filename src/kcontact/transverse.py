"""Transverse geometry of the Reeb foliation: Ricci tensor and form,
the decomposition of the contact plane into holonomy-irreducible blocks,
the regression of dtheta against per-factor Ricci forms, and the
Sasaki-structure criterion.

All tensors here live in the g-orthonormalized frame, where the metric is
the identity and complex structures are literal elements of so(2m).  The
point checks take order-2 frame data, or the Ricci tensor and dtheta that
:func:`orthonormal_ricci` takes from it, so one evaluation serves them all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connection import frame_data, ortho_curvature, ortho_two_form, orthonormal_frame_change
from .errors import ChartError, NumericsError
from .holonomy import MatrixLieAlgebra, detect_complex_structure, lie_closure

__all__ = [
    "FactorSplit",
    "orthonormal_ricci",
    "transverse_ricci",
    "ricci_form",
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
    the contact 2-form dtheta."""
    P, Pinv = orthonormal_frame_change(data.G)
    ric = np.einsum("...kakb->...ab", ortho_curvature(data.R, P, Pinv))
    return ric, ortho_two_form(data.omega, P)


def transverse_ricci(chart, x):
    """Transverse Ricci tensor at a point or points, in the orthonormal frame."""
    x = np.asarray(x, dtype=float)
    ric, _ = orthonormal_ricci(frame_data(chart, np.atleast_2d(x), order=2))
    return ric[0] if x.ndim == 1 else ric


def ricci_form(chart, x, J):
    """Ricci form rho(X, Y) = Ric(JX, Y) for a compatible complex structure."""
    J = np.asarray(J, dtype=float)
    if np.max(np.abs(J.T @ J - np.eye(J.shape[0]))) > 1e-7:
        raise ChartError("complex structure is not compatible with the metric")
    return np.einsum("ca,...cb->...ab", J, transverse_ricci(chart, x))


# ---------------------------------------------------------------------------
# de Rham-style splitting


def _symmetric_commutant_element(h: MatrixLieAlgebra, tm, rng):
    """A random symmetric matrix commuting with the algebra."""
    sym_basis = []
    for a in range(tm):
        for b in range(a, tm):
            S = np.zeros((tm, tm))
            S[a, b] = S[b, a] = 1.0 if a == b else 1.0 / np.sqrt(2.0)
            sym_basis.append(S)
    sym_basis = np.array(sym_basis)
    comm = h.commutant(sym_basis)
    coef = rng.normal(size=len(comm)) @ comm
    C = np.einsum("k,kij->ij", coef, sym_basis)
    return C / max(np.linalg.norm(C), 1e-30)


def split_distribution(h: MatrixLieAlgebra, size=None, rng=None, gap=1e-6):
    """Invariant orthogonal splitting of the contact plane under the algebra.

    Clusters the eigenspaces of the Casimir-type operator sum(B^T B),
    degeneracy-broken by a random symmetric commutant element; blocks that
    the algebra annihilates are merged into the trivial part.  The blocks
    must align with frame-index groups (true for the built-in charts).
    """
    rng = rng or np.random.default_rng(0)
    tm = size or h.size
    if tm is None:
        raise ValueError("need the matrix size for a trivial algebra")
    S = np.zeros((tm, tm))
    for B in h.basis:
        S += B.T @ B
    C = _symmetric_commutant_element(h, tm, rng)
    scale = 0.37 * (1.0 + np.linalg.norm(S))
    w, V = np.linalg.eigh(S + scale * C)
    order = np.argsort(w)
    w, V = w[order], V[:, order]
    clusters = []
    start = 0
    for i in range(1, tm + 1):
        if i == tm or w[i] - w[i - 1] > gap * max(1.0, np.max(np.abs(w))):
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
    trivial = tuple(sorted(set(range(tm)) - covered))
    if len(trivial) != n_trivial:
        raise NumericsError("trivial part does not align with frame indices")
    return FactorSplit(blocks=sorted(blocks), trivial=trivial)


def _restricted_algebra(h: MatrixLieAlgebra, block, tol=1e-8):
    ix = np.array(block)
    mats = [B[np.ix_(ix, ix)] for B in h.basis]
    return lie_closure(mats, tol=max(tol, h.residual_tol))


def factor_split(chart, x, h: MatrixLieAlgebra, rng=None):
    """Blocks plus per-block complex structures, sign-aligned with dtheta at x."""
    x = np.asarray(x, dtype=float)
    split = split_distribution(h, size=2 * chart.m, rng=rng)
    data = frame_data(chart, x[None], order=1)
    omega_o = ortho_two_form(data.omega, orthonormal_frame_change(data.G)[0])[0]
    tm = 2 * chart.m
    Js = []
    for block in split.blocks:
        ix = np.array(block)
        hb = _restricted_algebra(h, block)
        Jb = detect_complex_structure(hb, size=len(block), rng=rng)
        if Jb is None:
            raise ChartError(
                f"block {block} carries no invariant complex structure"
            )
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


def sasaki_psi_check(data, tol=1e-6):
    """Residuals of psi^2 = -id and nabla psi = 0 for psi = g^{-1} dtheta.

    Both vanish exactly when the associated metric theta x theta + g is
    Sasaki; the residuals are reported over the points of the order-2
    frame data ``data``.
    """
    psi = np.einsum("...ea,...ac->...ec", data.Ginv, data.omega)
    tm = psi.shape[-1]
    sq = np.einsum("...ed,...dc->...ec", psi, psi) + np.eye(tm)
    psi_sq_residual = float(np.max(np.abs(sq)))
    dGinv = -np.einsum("...ea,...abj,...bc->...ecj", data.Ginv, data.dG, data.Ginv)
    dpsi = np.einsum("...eaj,...ac->...ecj", dGinv, data.omega) + np.einsum(
        "...ea,...acj->...ecj", data.Ginv, data.domega
    )
    epsi = np.einsum("...ja,...ecj->...aec", data.E, dpsi)
    nabla = (
        epsi
        + np.einsum("...ead,...dc->...aec", data.Gamma, psi)
        - np.einsum("...dac,...ed->...aec", data.Gamma, psi)
    )
    nabla_psi_residual = float(np.max(np.abs(nabla)))
    return {
        "is_sasaki_candidate": bool(psi_sq_residual < tol and nabla_psi_residual < tol),
        "psi_sq_residual": psi_sq_residual,
        "nabla_psi_residual": nabla_psi_residual,
    }
