"""Spin representation of so(2m) on the 2^m-dimensional spinor space.

Gamma matrices come from the fermionic creation/annihilation construction
(Jordan-Wigner form), the Fock basis is ordered by occupation bitstrings
(mode 1 major), and the algebra lift is sigma(A) = (1/4) sum A_pq g_q g_p,
the index order that makes the lift equivariant under the chosen sign
convention (vectors square to minus their length,
g_p g_q + g_q g_p = -2 delta_pq).

The rotation generator pairing the coordinate planes acts diagonally in
this basis with eigenvalue (i/2)(m - 2k) on occupation level k; every
statement tested downstream depends only on eigenvalue ratios and kernel
dimensions, so the global 1/2 is recorded (``LIFT_LEVEL_CONSTANT``) but
never normalized away.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product

import numpy as np

from .holonomy import numerical_rank

__all__ = [
    "SpinRep",
    "build_spin_rep",
    "spin_lift",
    "parallel_spinor_dim",
    "ratio_condition",
    "standard_complex_structure",
    "LIFT_LEVEL_CONSTANT",
]

MAX_MODES = 8
LIFT_LEVEL_CONSTANT = 0.5  # eigenvalue of the lifted rotation = const * (m - 2k) i


@dataclass
class SpinRep:
    """Gamma matrices and Fock grading for m fermionic modes."""

    m: int
    gamma: np.ndarray  # (2m, 2^m, 2^m) complex

    @property
    def dim(self):
        return 2**self.m

    def occupation(self, index):
        """Occupation bits (n_1, ..., n_m) of a Fock basis index."""
        return tuple((index >> (self.m - j - 1)) & 1 for j in range(self.m))

    def grading(self, index):
        """Level k = total occupation of a Fock basis index."""
        return sum(self.occupation(index))

    @cached_property
    def gamma_products(self):
        """``[p, q] -> g_q g_p``, built on the first lift (trivial algebras lift nothing)."""
        return np.einsum("qij,pjk->pqik", self.gamma, self.gamma)


def build_spin_rep(m):
    """Gamma matrices of size 2^m via the mode construction."""
    if not (1 <= m <= MAX_MODES):
        raise ValueError(f"m must be between 1 and {MAX_MODES}")
    I2 = np.eye(2, dtype=complex)
    Z = np.diag([1.0, -1.0]).astype(complex)
    a = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)

    def mode_op(j, op):
        mats = [Z] * j + [op] + [I2] * (m - j - 1)
        out = mats[0]
        for Mx in mats[1:]:
            out = np.kron(out, Mx)
        return out

    gammas = []
    for j in range(m):
        aj = mode_op(j, a)
        adj = aj.conj().T
        gammas.append(aj - adj)
        gammas.append(1j * (aj + adj))
    return SpinRep(m=m, gamma=np.array(gammas))


def spin_lift(rep: SpinRep, A):
    """Lift of a skew matrix A in so(2m) to the spinor space."""
    A = np.asarray(A, dtype=float)
    if np.max(np.abs(A + A.T)) > 1e-10:
        raise ValueError("spin lift needs a skew-symmetric matrix")
    return 0.25 * np.einsum("pq,pqik->ik", A, rep.gamma_products)


def parallel_spinor_dim(rep: SpinRep, basis):
    """Dimension of the joint kernel of the lifted algebra basis.

    Stacks the (complex) lifts vertically and takes the kernel of the one
    rank rule, :func:`kcontact.holonomy.numerical_rank`, at a relative cut
    of 1e-8; scaling the basis does not change the dimension.
    """
    mats = basis.basis if hasattr(basis, "basis") else np.asarray(basis)
    if len(mats) == 0:
        return rep.dim
    stack = np.concatenate([spin_lift(rep, B) for B in mats], axis=0)
    return rep.dim - numerical_rank(stack, 1e-8).rank


def ratio_condition(m_list, a_list):
    """Search occupations k_i in {0, m_i} making (m_i - 2k_i)/(m_i a_i) equal
    (to 1e-9 of the largest ratio).

    This is the abstract solvability test for a holonomy line inside the
    span of the block rotations to annihilate a spinor of extreme
    per-factor occupation.  Returns the witnesses when satisfiable.
    """
    m_list = [int(v) for v in m_list]
    a_list = [float(v) for v in a_list]
    if len(m_list) != len(a_list):
        raise ValueError("mismatched factor counts")
    if any(v < 1 for v in m_list) or any(v == 0.0 for v in a_list):
        raise ValueError("need m_i >= 1 and a_i != 0")
    witnesses = []
    witness_ratios = []
    for ks in product(*[(0, mi) for mi in m_list]):
        ratios = [
            (mi - 2.0 * ki) / (mi * ai) for mi, ai, ki in zip(m_list, a_list, ks)
        ]
        spread = max(ratios) - min(ratios)
        if spread <= 1e-9 * max(abs(r) for r in ratios):
            witnesses.append(ks)
            witness_ratios.append(ratios[0])
    return {
        "satisfiable": bool(witnesses),
        "k_list": witnesses if witnesses else None,
        "ratios": witness_ratios if witnesses else None,
    }


def standard_complex_structure(m):
    """Block rotation J with J e_{2j-1} = e_{2j} on R^{2m}."""
    J = np.zeros((2 * m, 2 * m))
    for j in range(m):
        J[2 * j + 1, 2 * j] = 1.0
        J[2 * j, 2 * j + 1] = -1.0
    return J
