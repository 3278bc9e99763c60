"""Holonomy-algebra estimation and subalgebra structure analysis.

Curvature endomorphisms are conjugated back along sampled paths
(Ambrose-Singer style), orthonormal-frame versions of everything are used
so the samples land in so(2m), and bracket closure upgrades the sampled
span to a Lie algebra.  Two independent sampling routes exist for the
horizontal holonomy: Wagner curvature on frame pairs, and horizontal
curvature on bivectors annihilated by dtheta; their spans must agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connection import frame_data, ortho_curvature, ortho_two_form, orthonormal_frame_change
from .errors import NumericsError
from .transport import SamplerConfig, sampled_path_transports

__all__ = [
    "MatrixLieAlgebra",
    "lie_closure",
    "as_samples_schouten",
    "as_samples_schouten_variants",
    "as_samples_adapted",
    "compare_subalgebras",
    "center_decomposition",
    "t_complement",
    "detect_complex_structure",
]


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
        commute with every element of the algebra."""
        if not self.dim:
            return np.eye(len(mats))
        L = np.array(
            [np.concatenate([(F @ B - B @ F).ravel() for B in self.basis]) for F in mats]
        ).T
        _, s, Vt = np.linalg.svd(L)
        smax = s[0] if len(s) else 0.0
        pad = np.concatenate([s, np.zeros(len(mats) - len(s))])
        return Vt[pad <= 1e-8 * max(smax, 1.0)]


def _try_add(basis, M, cut):
    """Gram-Schmidt acceptance: keep M iff its part off the span exceeds cut."""
    r = M.copy()
    for B in basis:
        r -= np.sum(B * r) * B
    nr = np.linalg.norm(r)
    if nr > cut:
        basis.append(r / nr)
        return True
    return False


def _reorthonormalize(basis):
    out = []
    for B in basis:
        _try_add(out, B, 1e-12)
    return out


def lie_closure(matrices, tol=1e-6):
    """Smallest bracket-closed span containing the given skew matrices.

    Alternates adding pairwise brackets with re-orthonormalization until
    stable.  The dimension is capped at dim so(2m); exceeding it signals
    numerical blow-up.
    """
    matrices = [np.asarray(M, dtype=float) for M in matrices]
    if matrices:
        tm = matrices[0].shape[0]
        m = tm // 2
        cap = m * (2 * m - 1)
    else:
        cap = 0
    basis = []
    for M in matrices:
        _try_add(basis, M, tol * (1.0 + np.linalg.norm(M)))
        if len(basis) > cap:
            raise NumericsError("closure exceeded dim so(2m): numerical blow-up")
    iterations = 0
    changed = True
    while changed:
        changed = False
        iterations += 1
        current = list(basis)
        for i in range(len(current)):
            for j in range(i + 1, len(current)):
                Bi, Bj = current[i], current[j]
                br = Bi @ Bj - Bj @ Bi
                if _try_add(basis, br, tol * (1.0 + np.linalg.norm(br))):
                    changed = True
                    if len(basis) > cap:
                        raise NumericsError(
                            "closure exceeded dim so(2m): numerical blow-up"
                        )
        basis = _reorthonormalize(basis)
    return MatrixLieAlgebra(
        basis=np.array(basis) if basis else np.zeros((0, 0, 0)),
        dim=len(basis),
        closure_iterations=iterations,
        residual_tol=tol,
    )


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


_SCHOUTEN_VARIANTS = {"wagner": _pair_matrices("RW"), "annihilator": _annihilator_pairs}


def _sampling_pass(chart, x, sampler, kind, vertical=False):
    """One sampling pass with its orthonormal-frame data.

    Returns ``(base, ends)``: ``base`` is the order-2 frame data at x with
    its orthonormal frame change (the trivial path, tau = identity);
    ``ends`` is ``(taus_o, data, P, Pinv)`` for the sampled paths, or None
    when there are none.
    """
    x = np.asarray(x, dtype=float)
    paths, ends, taus, _ = sampled_path_transports(chart, x, sampler, kind, vertical=vertical)
    base = _ortho_endpoint_data(chart, x[None])
    if not paths:
        return base, None
    data, P, Pinv = _ortho_endpoint_data(chart, ends)
    taus_o = np.einsum("pij,pjk,kl->pil", Pinv, taus, base[1][0])
    return base, (taus_o, data, P, Pinv)


def _pass_samples(chart, sampling_pass, pair_samples):
    """Base-point samples followed by the conjugated samples of every path."""
    base, ends = sampling_pass
    tm = 2 * chart.m
    samples = list(pair_samples(*base).reshape(-1, tm, tm))
    if ends is not None:
        taus_o, data, P, Pinv = ends
        samples += list(_conjugated_samples(taus_o, pair_samples(data, P, Pinv)))
    return samples


def as_samples_schouten(chart, x, sampler: SamplerConfig, variant="wagner"):
    """Horizontal-holonomy generators at x, in the orthonormal frame.

    ``variant='wagner'``: Wagner curvature on frame pairs, conjugated along
    horizontal paths.  ``variant='annihilator'``: horizontal curvature on
    bivectors with dtheta(beta) = 0.  Both span the same algebra.
    """
    return as_samples_schouten_variants(chart, x, sampler, (variant,))[variant]


def as_samples_schouten_variants(chart, x, sampler: SamplerConfig,
                                 variants=tuple(_SCHOUTEN_VARIANTS)):
    """``{variant: samples}`` for several variants from one horizontal pass.

    Each entry equals ``as_samples_schouten(chart, x, sampler, variant)``;
    the paths are sampled and transported once for all of them.
    """
    for v in variants:
        if v not in _SCHOUTEN_VARIANTS:
            raise ValueError(f"unknown variant {v!r}")
    sampling_pass = _sampling_pass(chart, x, sampler, "schouten")
    return {
        v: _pass_samples(chart, sampling_pass, _SCHOUTEN_VARIANTS[v]) for v in variants
    }


def as_samples_adapted(chart, x, sampler: SamplerConfig):
    """Zero-extension holonomy generators at x (classical Ambrose-Singer).

    The mixed curvature of the zero extension vanishes, so only
    horizontal-pair curvature is sampled, but transports run along
    arbitrary curves (vertical controls on by default).
    """
    sampling_pass = _sampling_pass(chart, x, sampler, "adapted", vertical=True)
    return _pass_samples(chart, sampling_pass, _pair_matrices("R"))


# ---------------------------------------------------------------------------
# subalgebra structure


def compare_subalgebras(h_small: MatrixLieAlgebra, h_big: MatrixLieAlgebra, tol=1e-4):
    """Containment, ideal property and codimension of h_small in h_big."""
    if h_small.dim and h_big.dim and h_small.basis.shape[-1] != h_big.basis.shape[-1]:
        raise ValueError("subalgebras live in different frames")
    contained = all(
        h_big.span_residual(B) <= tol * (1.0 + np.linalg.norm(B))
        for B in h_small.basis
    )
    ideal = True
    for A in h_big.basis:
        for B in h_small.basis:
            br = A @ B - B @ A
            if h_small.span_residual(br) > tol * (1.0 + np.linalg.norm(br)):
                ideal = False
                break
        if not ideal:
            break
    return {
        "contained": bool(contained),
        "ideal": bool(ideal),
        "codim": int(h_big.dim - h_small.dim),
    }


def _adjoint_stack(h: MatrixLieAlgebra):
    """Matrix of c -> ([sum_i c_i B_i, B_j])_j on span coefficients."""
    k = h.dim
    cols = []
    for i in range(k):
        rows = [h.basis[i] @ B - B @ h.basis[i] for B in h.basis]
        cols.append(np.concatenate([r.ravel() for r in rows]))
    return np.array(cols).T  # (k * (2m)^2, k)


def center_decomposition(h: MatrixLieAlgebra, tol=1e-8):
    """Split a compact subalgebra into commutator part and center."""
    if h.dim == 0:
        empty = MatrixLieAlgebra(np.zeros((0, 0, 0)), 0, 0, h.residual_tol)
        return empty, empty
    A = _adjoint_stack(h)
    U, s, Vt = np.linalg.svd(A)
    smax = s[0] if len(s) else 0.0
    null_mask = s <= tol * max(smax, 1.0)
    center_coeffs = Vt[null_mask]
    other_coeffs = Vt[~null_mask]

    def build(coeffs):
        mats = np.einsum("rk,kij->rij", coeffs, h.basis)
        return MatrixLieAlgebra(mats, len(mats), 0, h.residual_tol)

    return build(other_coeffs), build(center_coeffs)


def t_complement(h_big: MatrixLieAlgebra, h_small: MatrixLieAlgebra, tol=1e-6):
    """The one-dimensional trace-orthogonal complement of h_small in h_big.

    Requires codimension one.  Returns ``(t, t_perp)`` where ``t_perp`` is
    the orthogonal complement of t inside the center of h_big, so that
    h_small = (commutator of h_big) + t_perp.
    """
    if h_big.dim - h_small.dim != 1:
        raise ValueError(
            f"t_complement needs codimension one, got {h_big.dim - h_small.dim}"
        )
    if h_small.dim == 0:
        tvec = np.ones(1)
    else:
        # coefficients of h_small inside h_big; t spans their null space
        C = np.einsum("sij,bij->sb", h_small.basis, h_big.basis)
        _, _, Vt = np.linalg.svd(C)
        tvec = Vt[-1]
    T = np.einsum("k,kij->ij", tvec, h_big.basis)
    T /= np.linalg.norm(T)
    t_alg = MatrixLieAlgebra(T[None], 1, 0, h_big.residual_tol)
    _, center = center_decomposition(h_big)
    # complement of t inside the center
    if center.dim == 0:
        t_perp = MatrixLieAlgebra(np.zeros((0, 0, 0)), 0, 0, h_big.residual_tol)
    else:
        coefs = np.einsum("ij,kij->k", T, center.basis)
        P = np.eye(center.dim) - np.outer(coefs, coefs) / max(np.dot(coefs, coefs), 1e-30)
        U, s, Vt2 = np.linalg.svd(P)
        keep = Vt2[s > 1e-8]
        mats = np.einsum("rk,kij->rij", keep, center.basis)
        t_perp = MatrixLieAlgebra(mats, len(mats), 0, h_big.residual_tol)
    return t_alg, t_perp


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
