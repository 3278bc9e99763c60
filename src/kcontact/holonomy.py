"""Holonomy-algebra estimation and subalgebra structure analysis.

Curvature endomorphisms are conjugated back along sampled paths
(Ambrose-Singer style), orthonormal-frame versions of everything are used
so the samples land in so(2m), and bracket closure upgrades the sampled
span to a Lie algebra.  Two independent sampling routes exist for the
horizontal holonomy: Wagner curvature on frame pairs, and horizontal
curvature on bivectors annihilated by dtheta; their spans must agree.
One sampling pass (:func:`holonomy_samples`) feeds both routes and the
adapted zero-extension samples: its horizontal and adapted halves are
integrated as one batch and share one order-2 evaluation of the base
point.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .connection import (frame_data, ortho_curvature, ortho_transports, ortho_two_form,
                         orthonormal_frame_change)
from .errors import NumericsError
from .transport import HALVES, SamplerConfig, sampled_path_transports

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
    """Matrices as rows (an empty list gives zero rows)."""
    mats = np.asarray(mats)
    return mats.reshape(len(mats), int(np.prod(mats.shape[1:])))


@dataclass
class MatrixLieAlgebra:
    """Subalgebra of so(2m) given by a trace-orthonormal basis."""

    basis: np.ndarray  # (dim, 2m, 2m)
    dim: int
    closure_iterations: int
    residual_tol: float

    @property
    def size(self):
        return self.basis.shape[-1] if self.dim else None

    def span_residual(self, M):
        """Norm of the component of M outside the span."""
        if self.dim == 0:
            return float(np.linalg.norm(M))
        coef = np.einsum("kij,ij->k", self.basis, M)
        return float(np.linalg.norm(M - np.einsum("k,kij->ij", coef, self.basis)))

    def contains(self, M, tol=1e-6):
        return self.span_residual(M) <= tol * (1.0 + np.linalg.norm(M))

    def commutant(self, mats):
        """Coefficient rows spanning the combinations of ``mats`` that
        commute with every element of the algebra.

        The rank cut is 1e-8 times the largest norm in ``mats`` (the basis
        is orthonormal), not relative to the commutator map, whose size
        says nothing about roundoff when the algebra nearly commutes.
        """
        if not self.dim:
            return np.eye(len(mats))
        cut = _commutator_rank(self, mats, 1e-8)
        return cut.Vt[cut.rank:]


def _commutator_rank(h, mats, rtol):
    """The rank cut of c -> ([sum_F c_F F, B])_B over the basis B of h."""
    mats = np.asarray(mats)
    L = np.array(
        [np.concatenate([(F @ B - B @ F).ravel() for B in h.basis]) for F in mats]
    ).T
    return numerical_rank(L, rtol, scale=np.linalg.norm(_flat(mats), axis=1).max())


def _algebra(mats, residual_tol, iterations=0):
    mats = np.asarray(mats)
    return MatrixLieAlgebra(mats if len(mats) else np.zeros((0, 0, 0)), len(mats),
                            iterations, residual_tol)


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
    dim so(2m); exceeding it signals numerical blow-up.
    """
    mats = np.array([np.asarray(M, dtype=float) for M in matrices])
    if not len(mats):
        return _algebra(mats, tol)
    basis = _span_basis(mats, tol)
    iterations = 0
    while True:
        iterations += 1
        i, j = np.triu_indices(len(basis), 1)
        brackets = basis[i] @ basis[j] - basis[j] @ basis[i]
        grown = _span_basis(np.concatenate([basis, brackets]), tol)
        if len(grown) <= len(basis):
            return _algebra(basis, tol, iterations)
        basis = grown


# ---------------------------------------------------------------------------
# Ambrose-Singer sampling


def _ortho_endpoint_data(chart, ends):
    data = frame_data(chart, ends, order=2)
    return (data, *orthonormal_frame_change(data.G))


def _conjugated_samples(taus_o, mats):
    """tau^{-1} M tau for each path and each matrix batch entry."""
    inv = np.linalg.inv(taus_o)
    out = np.einsum("pij,pkjl,plq->pkiq", inv, mats, taus_o)
    # transports are isometries up to integrator defect; the samples are
    # skew up to the same defect, so drop the spurious symmetric part
    out = 0.5 * (out - out.swapaxes(-1, -2))
    return out.reshape(-1, out.shape[-2], out.shape[-1])


def _pair_matrices(field):
    """Pair samples of the frame-data curvature ``field`` ("R" or "RW"): its
    orthonormal-frame matrices on the frame pairs A < B."""
    def pairs(data, P, Pinv):
        Fo = ortho_curvature(getattr(data, field), P, Pinv)
        tm = Fo.shape[-1]
        return np.stack([Fo[:, a, b] for a in range(tm) for b in range(a + 1, tm)], axis=1)
    return pairs


def _annihilator_pairs(data, P, Pinv):
    """Horizontal curvature on frame-pair bivectors projected to ker dtheta."""
    omega_o = ortho_two_form(data.omega, P)
    R_o = ortho_curvature(data.R, P, Pinv)
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


# sample generators of each variant, and the half of the sampling pass whose
# transports conjugate them
_VARIANTS = {
    "wagner": (_pair_matrices("RW"), "horizontal"),
    "annihilator": (_annihilator_pairs, "horizontal"),
    "adapted": (_pair_matrices("R"), "adapted"),
}


def _sampling_pass(chart, x, sampler, halves):
    """One sampling pass with its orthonormal-frame data.

    Returns ``(base, ends)``: ``base`` is the order-2 frame data at x with
    its orthonormal frame change (the trivial path, tau = identity);
    ``ends[half]`` is ``(taus_o, data, P, Pinv)`` for the paths of that
    half, or None when there are none.  The end points are evaluated one
    half at a time: the order-2 temporaries grow with the batch, and one
    evaluation over both halves doubles the peak memory of a report.
    """
    x = np.asarray(x, dtype=float)
    results = sampled_path_transports(chart, x, sampler, halves)
    base = _ortho_endpoint_data(chart, x[None])
    ends = dict.fromkeys(halves)
    for half, (paths, points, taus, _) in zip(halves, results):
        if paths:
            data, P, Pinv = _ortho_endpoint_data(chart, points)
            ends[half] = (ortho_transports(taus, Pinv, base[1][0]), data, P, Pinv)
    return base, ends


def _pass_samples(chart, base, ends, pair_samples):
    """Base-point samples followed by the conjugated samples of every path."""
    tm = 2 * chart.m
    samples = list(pair_samples(*base).reshape(-1, tm, tm))
    if ends is not None:
        taus_o, data, P, Pinv = ends
        samples += list(_conjugated_samples(taus_o, pair_samples(data, P, Pinv)))
    return samples


def holonomy_samples(chart, x, sampler: SamplerConfig, variants=tuple(_VARIANTS)):
    """``{variant: samples}`` at x, in the orthonormal frame, from one sampling pass.

    ``'wagner'``: Wagner curvature on frame pairs, conjugated along
    horizontal paths.  ``'annihilator'``: horizontal curvature on bivectors
    with dtheta(beta) = 0, along the same paths; both span the horizontal
    holonomy algebra.  ``'adapted'``: zero-extension curvature on frame
    pairs (its mixed curvature vanishes), conjugated along arbitrary paths
    with Reeb-direction controls (classical Ambrose-Singer).  Only the
    halves of the pass that the variants need are integrated.
    """
    for v in variants:
        if v not in _VARIANTS:
            raise ValueError(f"unknown variant {v!r}")
    halves = [h for h in HALVES if any(_VARIANTS[v][1] == h for v in variants)]
    base, ends = _sampling_pass(chart, x, sampler, halves)
    return {v: _pass_samples(chart, base, ends[_VARIANTS[v][1]], _VARIANTS[v][0])
            for v in variants}


def as_samples_schouten(chart, x, sampler: SamplerConfig, variant="wagner"):
    """Horizontal-holonomy generators at x (:func:`holonomy_samples`)."""
    if variant not in ("wagner", "annihilator"):
        raise ValueError(f"unknown variant {variant!r}")
    return holonomy_samples(chart, x, sampler, (variant,))[variant]


def as_samples_adapted(chart, x, sampler: SamplerConfig):
    """Zero-extension holonomy generators at x (:func:`holonomy_samples`)."""
    return holonomy_samples(chart, x, sampler, ("adapted",))["adapted"]


# ---------------------------------------------------------------------------
# subalgebra structure


def compare_subalgebras(h_small: MatrixLieAlgebra, h_big: MatrixLieAlgebra, tol=1e-4):
    """Containment, ideal property and codimension of h_small in h_big.

    Both are rank comparisons: h_small is contained when stacking it onto
    h_big adds no rank, and an ideal when its brackets with h_big add none
    to h_small.
    """
    if h_small.dim and h_big.dim and h_small.basis.shape[-1] != h_big.basis.shape[-1]:
        raise ValueError("subalgebras live in different frames")
    small, big = list(h_small.basis), list(h_big.basis)
    brackets = [A @ B - B @ A for A in big for B in small]
    return {
        "contained": numerical_rank(_flat(big + small), tol).rank == h_big.dim,
        "ideal": numerical_rank(_flat(small + brackets), tol).rank == h_small.dim,
        "codim": int(h_big.dim - h_small.dim),
    }


def center_decomposition(h: MatrixLieAlgebra, tol=1e-8):
    """Split a compact subalgebra into commutator part and center, the
    kernel of the adjoint map."""
    if h.dim == 0:
        empty = _algebra([], h.residual_tol)
        return empty, empty
    cut = _commutator_rank(h, h.basis, tol)
    parts = np.einsum("rk,kij->rij", cut.Vt, h.basis)
    return (_algebra(parts[: cut.rank], h.residual_tol),
            _algebra(parts[cut.rank:], h.residual_tol))


def t_complement(h_big: MatrixLieAlgebra, h_small: MatrixLieAlgebra, tol=1e-6):
    """The one-dimensional trace-orthogonal complement of h_small in h_big.

    Requires codimension one.  Returns ``(t, t_perp)`` where ``t_perp`` is
    the orthogonal complement of t inside the center of h_big, so that
    h_small = (commutator of h_big) + t_perp.  The sign of t is arbitrary.
    """
    if h_big.dim - h_small.dim != 1:
        raise ValueError(
            f"t_complement needs codimension one, got {h_big.dim - h_small.dim}"
        )
    # coefficients of h_small inside h_big; t spans their null space
    C = (np.einsum("sij,bij->sb", h_small.basis, h_big.basis) if h_small.dim
         else np.zeros((0, h_big.dim)))
    cut = numerical_rank(C, tol, scale=1.0)
    if cut.rank != h_small.dim:
        raise NumericsError("h_small does not project onto a codimension-one subspace of h_big")
    T = np.einsum("k,kij->ij", cut.Vt[-1], h_big.basis)
    T /= np.linalg.norm(T)
    _, center = center_decomposition(h_big)
    t_perp = []
    if center.dim:
        # complement of t inside the center: the kernel of t's center coefficients
        perp = numerical_rank(np.einsum("ij,kij->k", T, center.basis)[None], tol, scale=1.0)
        t_perp = np.einsum("rk,kij->rij", perp.Vt[perp.rank:], center.basis)
    return _algebra(T[None], h_big.residual_tol), _algebra(t_perp, h_big.residual_tol)


def detect_complex_structure(h: MatrixLieAlgebra, size=None, rng=None, tol=1e-6):
    """A complex structure in so(2m) commuting with the algebra, or None.

    Draws a random skew element of the commutant and maps it to the
    orthogonal complex structure with the same invariant planes; retries
    with fresh draws when the element is singular.
    """
    rng = rng or np.random.default_rng(0)
    tm = size or h.size
    if tm is None:
        raise ValueError("need the matrix size for a trivial algebra")
    # orthonormal basis of so(tm)
    skew_basis = []
    for a in range(tm):
        for b in range(a + 1, tm):
            F = np.zeros((tm, tm))
            F[a, b] = 1.0 / np.sqrt(2.0)
            F[b, a] = -1.0 / np.sqrt(2.0)
            skew_basis.append(F)
    skew_basis = np.array(skew_basis)
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
        if np.max(np.abs(J @ J + np.eye(tm))) > tol:
            continue
        if h.dim and max(
            np.max(np.abs(J @ B - B @ J)) for B in h.basis
        ) > tol:
            continue
        return J
    return None
