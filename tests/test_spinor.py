import numpy as np
import pytest

from kcontact import spinor as S

from conftest import real_from_complex


@pytest.fixture(scope="module")
def rep2():
    return S.build_spin_rep(2)


def test_build_sizes_and_range():
    rep = S.build_spin_rep(3)
    assert rep.gamma.shape == (6, 8, 8)
    with pytest.raises(ValueError):
        S.build_spin_rep(0)
    with pytest.raises(ValueError):
        S.build_spin_rep(9)


def test_gamma_products_built_once_per_rep(monkeypatch):
    # parallel_spinor_dim lifts every basis element; the (2m)^2 gamma
    # products are built on the first lift only, and every lift keeps the
    # bits of the reference two-einsum formula
    builds = []
    einsum = np.einsum

    def counting_einsum(subscripts, *operands, **kwargs):
        if subscripts == "qij,pjk->pqik":
            builds.append(subscripts)
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counting_einsum)
    rep = S.build_spin_rep(3)
    rng = np.random.default_rng(1)
    basis = [A - A.T for A in rng.normal(size=(3, 6, 6))]
    assert S.parallel_spinor_dim(rep, basis) >= 0
    assert len(builds) == 1
    monkeypatch.setattr(np, "einsum", einsum)
    prods = np.einsum("qij,pjk->pqik", rep.gamma, rep.gamma)
    for B in basis:
        assert np.array_equal(S.spin_lift(rep, B), 0.25 * np.einsum("pq,pqik->ik", B, prods))


def test_clifford_relations_exact(rep2):
    tm, d = 4, 4
    for p in range(tm):
        for q in range(tm):
            anti = rep2.gamma[p] @ rep2.gamma[q] + rep2.gamma[q] @ rep2.gamma[p]
            target = -2.0 * np.eye(d) if p == q else np.zeros((d, d))
            assert np.max(np.abs(anti - target)) < 1e-12


def test_gamma_squares_to_minus_one(rep2):
    for p in range(4):
        assert np.allclose(rep2.gamma[p] @ rep2.gamma[p], -np.eye(4), atol=1e-14)


def test_lift_homomorphism_and_linearity(rep2):
    rng = np.random.default_rng(0)
    for _ in range(10):
        A = rng.normal(size=(4, 4))
        A = A - A.T
        B = rng.normal(size=(4, 4))
        B = B - B.T
        lhs = S.spin_lift(rep2, A @ B - B @ A)
        sa, sb = S.spin_lift(rep2, A), S.spin_lift(rep2, B)
        assert np.max(np.abs(lhs - (sa @ sb - sb @ sa))) < 1e-10
        assert np.max(np.abs(S.spin_lift(rep2, 2.0 * A - B) - (2 * sa - sb))) < 1e-12
    assert np.max(np.abs(S.spin_lift(rep2, np.zeros((4, 4))))) == 0.0
    with pytest.raises(ValueError):
        S.spin_lift(rep2, np.eye(4))


def test_lift_equivariance(rep2):
    rng = np.random.default_rng(1)
    A = rng.normal(size=(4, 4))
    A = A - A.T
    sa = S.spin_lift(rep2, A)
    for _ in range(20):
        v = rng.normal(size=4)
        gv = np.einsum("p,pij->ij", v, rep2.gamma)
        comm = sa @ gv - gv @ sa
        assert np.max(np.abs(comm - np.einsum("p,pij->ij", A @ v, rep2.gamma))) < 1e-10


def test_rotation_lift_diagonal_with_level_eigenvalues(rep2):
    J = S.standard_complex_structure(2)
    sig = S.spin_lift(rep2, J)
    off = sig - np.diag(np.diag(sig))
    assert np.max(np.abs(off)) < 1e-14
    m = 2
    for i in range(4):
        k = rep2.grading(i)
        expected = S.LIFT_LEVEL_CONSTANT * (m - 2 * k) * 1j
        assert abs(sig[i, i] - expected) < 1e-13
    # the recorded global constant has magnitude one half
    assert abs(abs(S.LIFT_LEVEL_CONSTANT) - 0.5) < 1e-15
    vals = sorted(np.imag(np.diag(sig)))
    assert np.allclose(vals, [-1.0, 0.0, 0.0, 1.0])


def test_grading_and_occupations(rep2):
    assert [rep2.grading(i) for i in range(4)] == [0, 1, 1, 2]
    assert [rep2.occupation(i) for i in range(4)] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def su2():
    pauli = [
        np.array([[0, 1], [1, 0]], complex),
        np.array([[0, -1j], [1j, 0]], complex),
        np.array([[1, 0], [0, -1]], complex),
    ]
    return [real_from_complex(1j * p) for p in pauli]


def test_kernel_dimensions(rep2):
    assert S.parallel_spinor_dim(rep2, []) == 4
    assert S.parallel_spinor_dim(rep2, su2()) == 2
    u2 = su2() + [real_from_complex(1j * np.eye(2))]
    assert S.parallel_spinor_dim(rep2, u2) == 0
    # a single rotation line with unequal weights kills everything
    line = [real_from_complex(1j * np.diag([1.0, 2.0]))]
    assert S.parallel_spinor_dim(rep2, line) == 0
    # equal weights with opposite signs annihilate the extreme levels
    line2 = [real_from_complex(1j * np.diag([1.0, -1.0]))]
    assert S.parallel_spinor_dim(rep2, line2) == 2


def test_kernel_monotone_under_containment(rep2):
    small = S.parallel_spinor_dim(rep2, su2())
    big = S.parallel_spinor_dim(rep2, su2() + [real_from_complex(1j * np.eye(2))])
    assert big <= small


def test_unitary_lift_preserves_grading(rep2):
    rng = np.random.default_rng(2)
    levels = np.array([rep2.grading(i) for i in range(4)])
    for _ in range(5):
        X = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        sig = S.spin_lift(rep2, real_from_complex(X - X.conj().T))
        for i in range(4):
            for j in range(4):
                if levels[i] != levels[j]:
                    assert abs(sig[i, j]) < 1e-12


def parallel_oracle(m_list, a_list, ks):
    # independent check: every solution of the orthogonality constraint
    # solves the annihilation constraint iff the two coefficient vectors
    # are parallel (all 2x2 minors vanish)
    u = np.array([mi * ai for mi, ai in zip(m_list, a_list)])
    v = np.array([mi - 2.0 * ki for mi, ki in zip(m_list, ks)])
    r = len(u)
    return all(
        abs(u[i] * v[j] - u[j] * v[i]) < 1e-12 for i in range(r) for j in range(r)
    )


def test_ratio_condition_cases():
    out = S.ratio_condition([1], [2.5])
    assert out["satisfiable"] and out["k_list"] == [(0,), (1,)]
    out = S.ratio_condition([1, 1], [1.0, 1.0])
    assert out["satisfiable"] and out["k_list"] == [(0, 0), (1, 1)]
    out = S.ratio_condition([1, 1], [1.0, -1.0])
    assert out["satisfiable"] and out["k_list"] == [(0, 1), (1, 0)]
    out = S.ratio_condition([1, 1], [1.0, 2.0])
    assert not out["satisfiable"] and out["k_list"] is None
    with pytest.raises(ValueError):
        S.ratio_condition([0], [1.0])
    with pytest.raises(ValueError):
        S.ratio_condition([1], [0.0])
    with pytest.raises(ValueError):
        S.ratio_condition([1, 1], [1.0])


def test_ratio_condition_against_parallel_oracle():
    rng = np.random.default_rng(3)
    from itertools import product as iproduct

    for _ in range(40):
        r = rng.integers(1, 4)
        m_list = list(rng.integers(1, 4, r))
        a_list = list(np.round(rng.choice([-2, -1, 1, 2, 3], r) * 0.5, 3))
        out = S.ratio_condition(m_list, a_list)
        expected = [
            ks
            for ks in iproduct(*[(0, mi) for mi in m_list])
            if parallel_oracle(m_list, a_list, ks)
        ]
        assert out["satisfiable"] == bool(expected)
        if expected:
            assert out["k_list"] == expected
