"""Holonomy-algebra estimation and subalgebra structure analysis.

Curvature endomorphisms are conjugated back along sampled paths
(Ambrose-Singer style), orthonormal-frame versions of everything are used
so the samples land in so(2m), and bracket closure upgrades the sampled
span to a Lie algebra.  Two independent sampling routes exist for the
horizontal holonomy: Wagner curvature on frame pairs, and horizontal
curvature on bivectors annihilated by dtheta; their spans must agree.
The Reeb flow of a K-contact manifold preserves theta, the horizontal
distribution and its metric, so it preserves the zero extension and its
curvature: a path with Reeb-direction controls, moved piece by piece by
the flow, is a horizontal path with the same Ambrose-Singer sample.  So
on every chart one horizontal sampling pass (:func:`holonomy_samples`)
feeds both routes and the adapted zero-extension samples.  The base
point and the pass's ends are evaluated at order 2 once each, in one
call, and the transverse splitting reads the base point's row too.  One
generator converts R, its Wagner form and dtheta to the orthonormal
frame once each and gives every variant's samples as one array.  An
algebra is a ``(dim, 2m, 2m)`` basis, the zero algebra's ``(0, 2m, 2m)``,
so it needs no path of its own; a basis meets its commutators in one
broadcast matmul.  The span cut of :func:`lie_closure`
is the one threshold a caller sets; the structure analysis cuts at fixed
thresholds, written where applied.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import NamedTuple

import numpy as np

from .connection import frame_data, ortho_curvature, ortho_transports, ortho_two_form
from .errors import NumericsError
from .transport import SamplerConfig, sampled_path_transports

__all__ = [
    "MatrixLieAlgebra",
    "Rank",
    "numerical_rank",
    "lie_closure",
    "holonomy_samples",
    "as_samples_schouten",
    "as_samples_adapted",
    "compare_subalgebras",
    "center_decomposition",
    "t_complement",
    "detect_complex_structure",
]


class Rank(NamedTuple):
    """One numerical-rank decision (:func:`numerical_rank`)."""

    rank: int
    Vt: np.ndarray  # rows [:rank] span the input rows, rows [rank:] their kernel
    above: float  # smallest kept singular value (inf when nothing is kept)
    below: float  # largest dropped singular value (0 when nothing is dropped)


def numerical_rank(rows, rtol, scale=None):
    """The one rank rule: one thin SVD of the stacked (real or complex) rows.

    Counts the singular values above ``rtol * scale``.  ``scale`` is the
    magnitude of the inputs; it defaults to the largest singular value of
    the rows themselves, so scaling the rows does not change the rank.
    Callers whose rows are derived from inputs of known size (brackets of
    orthonormal bases) pass that size instead.  ``Vt`` is always square.
    """
    rows = np.asarray(rows)
    _, s, Vt = np.linalg.svd(rows, full_matrices=rows.shape[0] < rows.shape[1])
    if scale is None:
        scale = s[0] if len(s) else 0.0
    r = int(np.sum(s > rtol * scale))
    return Rank(r, Vt, float(s[r - 1]) if r else np.inf, float(s[r]) if r < len(s) else 0.0)


def _flat(mats):
    """A stack of ``count`` arrays as ``count`` rows (none when it is empty)."""
    mats = np.asarray(mats)
    return mats.reshape(len(mats), int(np.prod(mats.shape[1:])))


def matrix_basis(size, skew):
    """Trace-orthonormal basis of the skew (``skew``) or the symmetric
    size x size matrices: one element per index pair a < b (a <= b when
    symmetric), in row-major order."""
    a, b = np.triu_indices(size, 1 if skew else 0)
    k = np.arange(len(a))
    w = np.where(a == b, 1.0, 1.0 / np.sqrt(2.0))
    basis = np.zeros((len(a), size, size))
    basis[k, a, b] = w
    basis[k, b, a] = -w if skew else w
    return basis


@dataclass
class MatrixLieAlgebra:
    """Subalgebra of so(2m) given by a trace-orthonormal basis."""

    basis: np.ndarray  # (dim, 2m, 2m); the zero algebra's is (0, 2m, 2m)

    @property
    def dim(self):
        return len(self.basis)

    def span_residual(self, M):
        """Norm of the component of M outside the span."""
        coef = np.einsum("kij,ij->k", self.basis, M)
        return float(np.linalg.norm(M - np.einsum("k,kij->ij", coef, self.basis)))

    def commutant(self, mats):
        """Coefficient rows spanning the combinations of ``mats`` that
        commute with every element of the algebra.

        The rank cut is 1e-8 times the largest norm in ``mats`` (the basis
        is orthonormal), not relative to the commutator map, whose size
        says nothing about roundoff when the algebra nearly commutes.  The
        zero algebra's map has no rows, whose SVD gives ``Vt = I``: every
        combination commutes.
        """
        cut = _commutator_rank(self, mats, 1e-8)
        return cut.Vt[cut.rank:]


def _commutator_rank(h, mats, rtol):
    """The rank cut of c -> ([sum_F c_F F, B])_B over the basis B of h,
    all [F, B] from one broadcast pair of matmuls."""
    mats = np.asarray(mats)
    brackets = mats[:, None] @ h.basis[None] - h.basis[None] @ mats[:, None]
    scale = np.linalg.norm(_flat(mats), axis=1).max(initial=0.0)
    return numerical_rank(_flat(brackets).T, rtol, scale=scale)


def _span_basis(mats, tol):
    """Orthonormal skew basis of the numerical span of ``mats`` (n, n)."""
    n = mats.shape[-1]
    cut = numerical_rank(_flat(mats), tol)
    if cut.rank > n * (n - 1) // 2:
        raise NumericsError("closure exceeded dim so(2m): numerical blow-up")
    # SVD rows carry symmetric parts at roundoff level: keep the basis skew
    B = cut.Vt[: cut.rank].reshape(-1, n, n)
    return 0.5 * (B - B.swapaxes(-1, -2))


def lie_closure(matrices, tol=1e-6):
    """Smallest bracket-closed span containing the given skew matrices.

    ``tol`` is the relative singular-value cut of :func:`numerical_rank`:
    the samples are stacked and cut once, then the brackets of the basis
    are stacked with it and cut again until the rank stops growing.
    Scaling the samples changes no dimension.  The dimension is capped at
    dim so(2m); exceeding it signals numerical blow-up.  ``matrices`` is a
    ``(count, n, n)`` stack; an empty one closes to the zero algebra of so(n).
    """
    mats = np.asarray(matrices, dtype=float)
    if mats.ndim != 3:
        raise ValueError(f"lie_closure needs a (count, n, n) stack, got shape {mats.shape}")
    basis = _span_basis(mats, tol)
    while True:
        i, j = np.triu_indices(len(basis), 1)
        brackets = basis[i] @ basis[j] - basis[j] @ basis[i]
        grown = _span_basis(np.concatenate([basis, brackets]), tol)
        if len(grown) <= len(basis):
            return MatrixLieAlgebra(basis)
        basis = grown


# ---------------------------------------------------------------------------
# Ambrose-Singer sampling


def _conjugated_samples(taus_o, inv, mats):
    """tau^{-1} M tau for each path and each matrix batch entry, with
    ``inv`` the inverses of the transports ``taus_o``."""
    out = inv[:, None] @ mats @ taus_o[:, None]
    # transports are isometries up to integrator defect; the samples are
    # skew up to the same defect, so drop the spurious symmetric part
    out = 0.5 * (out - out.swapaxes(-1, -2))
    return out.reshape(-1, out.shape[-2], out.shape[-1])


def _variant_samples(data):
    """``{variant: (N, pairs, 2m, 2m)}``: the orthonormal-frame pair samples
    of :func:`holonomy_samples` at the N points of the order-2 frame data
    ``data``, converting R, RW and dtheta to that frame once each."""
    R_o = ortho_curvature(data.R, data.P, data.Pinv)
    RW_o = ortho_curvature(data.RW, data.P, data.Pinv)
    omega_o = ortho_two_form(data.omega, data.P)
    a, b = np.triu_indices(omega_o.shape[-1], 1)
    what = omega_o / np.linalg.norm(omega_o, axis=(-2, -1))[..., None, None]
    # the bivectors e_a ^ e_b, a < b: entries +-1, to which sqrt(2) rescales
    # the basis exactly
    beta = np.sqrt(2.0) * matrix_basis(omega_o.shape[-1], skew=True)
    coef = np.einsum("...ab,pab->...p", what, beta)
    beta = beta - coef[..., None, None] * what[..., None, :, :]
    return {"wagner": RW_o[:, a, b],
            "annihilator": np.einsum("...abec,...pab->...pec", R_o, beta),
            "adapted": R_o[:, a, b]}


def holonomy_samples(chart, x, sampler: SamplerConfig):
    """``({variant: samples}, base)`` at x for every variant.

    ``'wagner'``: Wagner curvature on frame pairs, conjugated along
    horizontal paths.  ``'annihilator'``: horizontal curvature on bivectors
    with dtheta(beta) = 0, along the same paths; both span the horizontal
    holonomy algebra.  ``'adapted'``: zero-extension curvature on frame
    pairs (its mixed curvature vanishes), along the same paths again: the
    Reeb flow preserves the zero extension, so the samples along paths
    with Reeb-direction controls (classical Ambrose-Singer) are samples
    along horizontal paths, and both span the same algebra.  One sampling
    pass serves every chart; x and its ends are evaluated at order 2 once
    each, in one call (x first), :func:`_variant_samples` runs once on all
    its rows, and the transports are inverted once, for all variants.  Each
    variant's samples are one ``(count, 2m, 2m)`` array:
    the base point's (the trivial path), then the conjugated samples of
    every path (empty batches with no paths), in the orthonormal frame.
    ``base`` is the order-2 frame data of x alone, row 0 of that call.
    """
    x = np.asarray(x, dtype=float)
    _, points, taus = sampled_path_transports(chart, x, sampler)
    data = frame_data(chart, np.concatenate([x[None], points]), order=2)
    base = _rows(data, slice(0, 1))
    mats = _variant_samples(data)
    taus_o = ortho_transports(taus, data.Pinv[1:], base.P[0])
    inv = np.linalg.inv(taus_o)
    return {v: np.concatenate([m[0], _conjugated_samples(taus_o, inv, m[1:])])
            for v, m in mats.items()}, base


def _rows(data, rows):
    """The frame data of the points ``rows`` (a slice) of ``data``."""
    return replace(data, **{f.name: getattr(data, f.name)[rows] for f in fields(data)
                            if isinstance(getattr(data, f.name), np.ndarray)})


def as_samples_schouten(chart, x, sampler: SamplerConfig, variant="wagner"):
    """Horizontal-holonomy generators at x (:func:`holonomy_samples`)."""
    if variant not in ("wagner", "annihilator"):
        raise ValueError(f"unknown variant {variant!r}")
    return holonomy_samples(chart, x, sampler)[0][variant]


def as_samples_adapted(chart, x, sampler: SamplerConfig):
    """Zero-extension holonomy generators at x (:func:`holonomy_samples`)."""
    return holonomy_samples(chart, x, sampler)[0]["adapted"]


# ---------------------------------------------------------------------------
# subalgebra structure


def compare_subalgebras(h_small: MatrixLieAlgebra, h_big: MatrixLieAlgebra):
    """Containment, ideal property and codimension of h_small in h_big.

    Both are rank comparisons at a relative cut of 1e-4: h_small is
    contained when stacking it onto h_big adds no rank, and an ideal when
    its brackets with h_big add none to h_small.
    """
    small, big = h_small.basis, h_big.basis
    if small.shape[-1] != big.shape[-1]:
        raise ValueError("subalgebras live in different frames")
    brackets = big[:, None] @ small[None] - small[None] @ big[:, None]
    brackets = brackets.reshape(-1, *small.shape[1:])
    return {
        "contained": numerical_rank(_flat(np.concatenate([big, small])), 1e-4).rank == h_big.dim,
        "ideal": numerical_rank(_flat(np.concatenate([small, brackets])), 1e-4).rank == h_small.dim,
        "codim": int(h_big.dim - h_small.dim),
    }


def center_decomposition(h: MatrixLieAlgebra):
    """Split a compact subalgebra into commutator part and center, the
    kernel of the adjoint map (rank cut 1e-8, as in ``commutant``)."""
    cut = _commutator_rank(h, h.basis, 1e-8)
    parts = np.einsum("rk,kij->rij", cut.Vt, h.basis)
    return MatrixLieAlgebra(parts[: cut.rank]), MatrixLieAlgebra(parts[cut.rank:])


def t_complement(h_big: MatrixLieAlgebra, h_small: MatrixLieAlgebra):
    """The one-dimensional trace-orthogonal complement of h_small in h_big.

    Requires codimension one (rank cuts at 1e-6).  Returns ``(t, t_perp)``:
    ``t_perp`` is the orthogonal complement of t inside the center of h_big,
    so that h_small = (commutator of h_big) + t_perp.  The sign of t is
    arbitrary.
    """
    if h_big.dim - h_small.dim != 1:
        raise ValueError(
            f"t_complement needs codimension one, got {h_big.dim - h_small.dim}"
        )
    # coefficients of h_small inside h_big; t spans their null space
    C = np.einsum("sij,bij->sb", h_small.basis, h_big.basis)
    cut = numerical_rank(C, 1e-6, scale=1.0)
    if cut.rank != h_small.dim:
        raise NumericsError("h_small does not project onto a codimension-one subspace of h_big")
    T = np.einsum("k,kij->ij", cut.Vt[-1], h_big.basis)
    T /= np.linalg.norm(T)
    _, center = center_decomposition(h_big)
    # complement of t inside the center: the kernel of t's center coefficients
    perp = numerical_rank(np.einsum("ij,kij->k", T, center.basis)[None], 1e-6, scale=1.0)
    t_perp = np.einsum("rk,kij->rij", perp.Vt[perp.rank:], center.basis)
    return MatrixLieAlgebra(T[None]), MatrixLieAlgebra(t_perp)


def detect_complex_structure(h: MatrixLieAlgebra):
    """A complex structure in so(n) commuting with the algebra, or None;
    n is the size of the algebra's matrices.

    Draws a random skew element of the commutant (seed 0) and maps it to
    the orthogonal complex structure with the same invariant planes;
    retries when the element is singular, or when J^2 + 1 or a commutator
    of J with the basis exceeds 1e-6.
    """
    rng = np.random.default_rng(0)
    size = h.basis.shape[-1]
    skew_basis = matrix_basis(size, skew=True)
    comm = h.commutant(skew_basis)
    if len(comm) == 0:
        return None
    for _ in range(20):
        C = np.einsum("k,kij->ij", rng.normal(size=len(comm)) @ comm, skew_basis)
        S2 = -C @ C
        w, V = np.linalg.eigh(S2)
        if w.min() < 1e-10 * max(w.max(), 1.0):
            continue
        J = C @ (V @ np.diag(1.0 / np.sqrt(w)) @ V.T)
        if np.max(np.abs(J @ J + np.eye(size))) > 1e-6:
            continue
        if np.max(np.abs(J @ h.basis - h.basis @ J), initial=0.0) > 1e-6:
            continue
        return J
    return None
