import tracemalloc

import numpy as np
import pytest

from kcontact import connection as C
from kcontact import holonomy as H
from kcontact import transport as T
from kcontact.errors import NumericsError
from kcontact.spinor import build_spin_rep, parallel_spinor_dim, standard_complex_structure

from conftest import real_from_complex
from fd_oracles import rotated_chart


PAULI = [
    np.array([[0, 1], [1, 0]], complex),
    np.array([[0, -1j], [1j, 0]], complex),
    np.array([[1, 0], [0, -1]], complex),
]


def su2_so4():
    return [real_from_complex(1j * p) for p in PAULI]


def u2_so4():
    return su2_so4() + [real_from_complex(1j * np.eye(2))]


def contains(h, M, tol):
    """M lies in the span of h, up to ``tol`` relative to 1 + |M|."""
    return h.span_residual(M) <= tol * (1.0 + np.linalg.norm(M))


def test_lie_closure_empty():
    # an empty stack closes to the zero algebra, which keeps its matrix
    # size; an empty list has none and is refused
    h = H.lie_closure(np.zeros((0, 3, 3)))
    assert h.dim == 0 and h.basis.shape == (0, 3, 3)
    assert h.span_residual(np.eye(3)) > 0
    with pytest.raises(ValueError, match=r"\(count, n, n\) stack"):
        H.lie_closure([])


def test_lie_closure_su2_from_two_generators():
    gens = su2_so4()[:2]
    h = H.lie_closure(gens, 1e-8)
    assert h.dim == 3
    for M in su2_so4():
        assert contains(h, M, 1e-8)
    # basis orthonormal and skew
    gram = np.einsum("kij,lij->kl", h.basis, h.basis)
    assert np.allclose(gram, np.eye(3), atol=1e-10)
    assert np.max(np.abs(h.basis + h.basis.swapaxes(-1, -2))) < 1e-12


def test_lie_closure_u2_already_closed():
    h = H.lie_closure(u2_so4(), 1e-8)
    assert h.dim == 4
    h2 = H.lie_closure(u2_so4(), 1e-8)
    assert np.allclose(h.basis, h2.basis)  # deterministic


def test_lie_closure_blowup_guard():
    rng = np.random.default_rng(0)
    mats = []
    for _ in range(12):
        A = rng.normal(size=(4, 4))
        mats.append(A - A.T)
    with pytest.raises(NumericsError):
        H.lie_closure(mats, tol=0.0)


def test_samples_heisenberg_vanish(charts, algebra_cache):
    chart = charts["heisenberg"]
    cfg = T.SamplerConfig(n_paths=16, seed=0)
    samples = H.as_samples_schouten(chart, np.zeros(5), cfg)
    assert np.max(np.abs(np.array(samples))) < 1e-10
    assert algebra_cache("heisenberg", 0, "schouten").dim == 0
    assert algebra_cache("heisenberg", 0, "adapted").dim == 0


def test_schouten_variants_share_one_pass(charts, monkeypatch):
    chart = charts["bergman"]
    x0 = np.zeros(5)
    cfg = T.SamplerConfig(n_paths=6, seed=3)
    single = {v: H.as_samples_schouten(chart, x0, cfg, variant=v)
              for v in ("wagner", "annihilator")}
    single["adapted"] = H.as_samples_adapted(chart, x0, cfg)
    passes = []
    sample_pass = H.sampled_path_transports

    def counting_pass(*args, **kwargs):
        passes.append(args[3:])
        return sample_pass(*args, **kwargs)

    monkeypatch.setattr(H, "sampled_path_transports", counting_pass)
    every, base = H.holonomy_samples(chart, x0, cfg)
    # one pass, with nothing past the sampler: every chart's adapted samples
    # take the horizontal pass
    assert passes == [()]
    # the base point's order-2 data, as a report's splitting reads it
    assert base.R is not None and np.array_equal(base.x, x0[None])
    assert set(every) == set(single)
    for v, samples in single.items():
        assert isinstance(every[v], np.ndarray) and every[v].shape == (6 * 7, 4, 4)
        assert np.array_equal(every[v], samples)
    # lists of samples close to the same algebra as their array
    for v in ("wagner", "adapted"):
        assert np.array_equal(H.lie_closure(every[v]).basis, H.lie_closure(list(every[v])).basis)
    with pytest.raises(ValueError):
        H.as_samples_schouten(chart, x0, cfg, variant="bogus")
    with pytest.raises(ValueError):
        H.as_samples_schouten(chart, x0, cfg, variant="adapted")
    assert len(passes) == 1  # rejected before sampling


def test_zero_length_paths_give_pointwise_curvature(charts):
    chart = charts["disc_disc_11"]
    x0 = np.zeros(5)
    cfg = T.SamplerConfig(n_paths=0, seed=0)
    samples = H.as_samples_schouten(chart, x0, cfg)
    assert isinstance(samples, np.ndarray) and samples.shape == (6, 4, 4)
    assert T.isometry_residual(chart, x0, cfg) == 0.0  # no transports to test
    data = C.frame_data(chart, x0[None], order=2)
    P, Pinv = C.orthonormal_frame_change(data.G)
    RWo = np.einsum(
        "...aA,...bB,...Ee,...abec,...cC->...ABEC", P, P, Pinv, data.RW, P
    )[0]
    k = 0
    for a in range(4):
        for b in range(a + 1, 4):
            assert np.allclose(samples[k], RWo[a, b], atol=1e-12)
            k += 1


def test_report_samples_memory_is_bounded(charts):
    # off normal form a 64-path report makes one horizontal pass, whose
    # order-2 ends are evaluated once, for every variant: the peak is about
    # 2.7 MB, from the pass's one general-route call of a block's 256 ends
    # and their midpoints
    chart = rotated_chart(charts["disc_disc_12"], (0, 1), 0.7)
    sampler = T.SamplerConfig(n_paths=64)
    H.holonomy_samples(chart, np.zeros(chart.dim), sampler)
    tracemalloc.start()
    try:
        H.holonomy_samples(chart, np.zeros(chart.dim), sampler)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.3e6, peak


def test_disc_product_spans(charts, algebra_cache):
    h = algebra_cache("disc_disc_11", 0, "schouten")
    h0 = algebra_cache("disc_disc_11", 0, "adapted")
    assert h.dim == 1 and h0.dim == 2
    J1 = np.zeros((4, 4))
    J1[:2, :2] = [[0, -1], [1, 0]]
    J2 = np.zeros((4, 4))
    J2[2:, 2:] = [[0, -1], [1, 0]]
    # the zero-extension algebra is the full span of the block rotations
    assert contains(h0, J1 / np.sqrt(2), 1e-6)
    assert contains(h0, J2 / np.sqrt(2), 1e-6)
    # the horizontal algebra is the difference line (equal factors)
    assert contains(h, (J1 - J2) / 2.0, 1e-4)
    assert not contains(h, (J1 + J2) / 2.0, 1e-4)


def test_bergman_spans(charts, algebra_cache):
    h = algebra_cache("bergman", 0, "schouten")
    h0 = algebra_cache("bergman", 0, "adapted")
    assert h.dim == 3 and h0.dim == 4
    J = H.detect_complex_structure(h0, size=4)
    assert J is not None
    # horizontal part is trace-free against J: the su-part of u(2)
    for B in h.basis:
        assert abs(np.sum(B * J)) < 1e-6


def test_containment_all_charts(charts, algebra_cache):
    for name in charts:
        h = algebra_cache(name, 0, "schouten")
        h0 = algebra_cache(name, 0, "adapted")
        cmp = H.compare_subalgebras(h, h0)
        assert cmp["contained"], name
        assert cmp["ideal"], name


def test_cross_variant_spans_agree(charts, algebra_cache):
    for name in ["heisenberg", "disc_disc_12", "bergman", "perturbed_disc_disc"]:
        hw = algebra_cache(name, 0, "schouten")
        ha = algebra_cache(name, 0, "annihilator")
        assert hw.dim == ha.dim, name
        for B in hw.basis:
            assert ha.span_residual(B) < 1e-4
        for B in ha.basis:
            assert hw.span_residual(B) < 1e-4


def test_compare_subalgebras_trivial_cases():
    h0 = H.lie_closure(u2_so4(), 1e-8)
    res = H.compare_subalgebras(h0, h0)
    assert res == {"contained": True, "ideal": True, "codim": 0}
    zero = H.lie_closure(np.zeros((0, 4, 4)))
    res = H.compare_subalgebras(zero, h0)
    assert res["contained"] and res["ideal"] and res["codim"] == 4
    so6_sample = np.zeros((1, 6, 6))
    so6_sample[0, 0, 1], so6_sample[0, 1, 0] = 1, -1
    with pytest.raises(ValueError):
        H.compare_subalgebras(H.lie_closure(list(so6_sample)), h0)


def test_center_decomposition_cases():
    # abelian algebra: everything is central
    J1 = np.zeros((4, 4))
    J1[:2, :2] = [[0, -1], [1, 0]]
    J2 = np.zeros((4, 4))
    J2[2:, 2:] = [[0, -1], [1, 0]]
    h = H.lie_closure([J1, J2], 1e-8)
    semi, center = H.center_decomposition(h)
    assert center.dim == 2 and semi.dim == 0
    # u(2): semisimple su(2) plus the rotation line
    hu = H.lie_closure(u2_so4(), 1e-8)
    semi, center = H.center_decomposition(hu)
    assert semi.dim == 3 and center.dim == 1
    Jstd = standard_complex_structure(2)
    assert contains(center, Jstd / np.linalg.norm(Jstd), 1e-8)
    for B in semi.basis:
        assert abs(np.sum(B * Jstd)) < 1e-10
        br = [B @ A - A @ B for A in semi.basis]
        for bb in br:
            assert semi.span_residual(bb) < 1e-8
    # su(2) is centerless
    hs = H.lie_closure(su2_so4(), 1e-8)
    semi, center = H.center_decomposition(hs)
    assert center.dim == 0 and semi.dim == 3
    # the zero algebra splits into two zero algebras of its size
    semi, center = H.center_decomposition(H.lie_closure(np.zeros((0, 4, 4))))
    assert center.basis.shape == semi.basis.shape == (0, 4, 4)


# the built-in charts and the wide_products mixes by the codimension of h
# in h0 (16 paths, seed 0)
CODIM_ONE = ["bergman", "disc_disc_11", "disc_disc_12", "disc3_b123", "ball2_disc"]
CODIM_ZERO = ["heisenberg", "perturbed_disc_disc", "perturbed_disc_disc_disc"]


@pytest.mark.parametrize("name", CODIM_ONE + CODIM_ZERO)
def test_classification_of_the_holonomy_algebras(algebra_cache, name):
    # the paper's classification: h equals h0 or is a codimension-one ideal
    # of it; a compact h0 is [h0, h0] plus its center, so in codimension one
    # h holds the derived algebra and one central direction t of h0 is
    # missing: dim [h0, h0] + dim t_perp = dim h (bergman 3 + 0, ball2_disc
    # 3 + 1, the disc products 0 + dim h)
    h = algebra_cache(name, 0, "schouten", n_paths=16)
    h0 = algebra_cache(name, 0, "adapted", n_paths=16)
    comparison = H.compare_subalgebras(h, h0)
    assert comparison["contained"] and comparison["ideal"]
    if name in CODIM_ZERO:
        assert comparison["codim"] == 0
        assert H.compare_subalgebras(h0, h)["contained"]
        return
    assert comparison["codim"] == 1
    derived, _ = H.center_decomposition(h0)
    assert H.compare_subalgebras(derived, h)["contained"]
    assert derived.dim + H.t_complement(h0, h)[1].dim == h.dim


def test_t_complement_cases(charts, algebra_cache):
    h = algebra_cache("disc_disc_11", 0, "schouten")
    h0 = algebra_cache("disc_disc_11", 0, "adapted")
    t, t_perp = H.t_complement(h0, h)
    assert t.dim == 1
    J1 = np.zeros((4, 4))
    J1[:2, :2] = [[0, -1], [1, 0]]
    J2 = np.zeros((4, 4))
    J2[2:, 2:] = [[0, -1], [1, 0]]
    direction = (J1 + J2) / 2.0
    assert contains(t, direction, 1e-4)
    # t is central in the big algebra and rebuilds it on top of h
    _, center = H.center_decomposition(h0)
    assert contains(center, t.basis[0], 1e-6)
    assert t_perp.dim == center.dim - 1
    rebuilt = H.lie_closure(list(h.basis) + list(t.basis), 1e-8)
    assert rebuilt.dim == h0.dim
    with pytest.raises(ValueError):
        H.t_complement(h0, h0)
    # the unitary case: t is the rotation line over the special part
    hu = H.lie_closure(u2_so4(), 1e-8)
    hs = H.lie_closure(su2_so4(), 1e-8)
    t2, _ = H.t_complement(hu, hs)
    Jstd = standard_complex_structure(2)
    assert contains(t2, Jstd / np.linalg.norm(Jstd), 1e-8)


def test_detect_complex_structure_cases():
    hu = H.lie_closure(u2_so4(), 1e-8)
    J = H.detect_complex_structure(hu, size=4)
    assert J is not None
    assert np.allclose(J @ J, -np.eye(4), atol=1e-10)
    assert np.allclose(J, -J.T, atol=1e-12)
    for B in hu.basis:
        assert np.max(np.abs(J @ B - B @ J)) < 1e-8
    # the full rotation algebra acts irreducibly: no commuting J
    so4 = []
    for a in range(4):
        for b in range(a + 1, 4):
            F = np.zeros((4, 4))
            F[a, b], F[b, a] = 1, -1
            so4.append(F)
    assert H.detect_complex_structure(H.lie_closure(so4, 1e-8), size=4) is None
    # the trivial algebra admits any complex structure
    J0 = H.detect_complex_structure(H.lie_closure(np.zeros((0, 4, 4))), size=4)
    assert J0 is not None and np.allclose(J0 @ J0, -np.eye(4), atol=1e-10)
    # in odd dimension every skew draw is singular, so none is found
    assert H.detect_complex_structure(H.lie_closure(np.zeros((0, 3, 3))), size=3) is None


def test_seed_stability_dims(charts, algebra_cache):
    for seed in (0, 1):
        assert algebra_cache("disc_disc_12", seed, "schouten").dim == 1
        assert algebra_cache("disc_disc_12", seed, "adapted").dim == 2


def test_dims_independent_of_base_point(charts):
    cases = [
        ("disc_disc_12", np.array([0.12, 0.2, -0.15, 0.05, 0.3]), (1, 2)),
        ("bergman", np.array([0.1, -0.1, 0.2, 0.0, -0.5]), (3, 4)),
    ]
    cfg = T.SamplerConfig(n_paths=64, seed=2, magnitude=0.35)
    for name, x0, (d, d0) in cases:
        chart = charts[name]
        h = H.lie_closure(H.as_samples_schouten(chart, x0, cfg), 1e-6)
        h0 = H.lie_closure(H.as_samples_adapted(chart, x0, cfg), 1e-6)
        assert (h.dim, h0.dim) == (d, d0), name


def test_conjugation_covariance(charts):
    chart = charts["bergman"]
    x = np.zeros(5)
    cfg = T.SamplerConfig(n_paths=48, seed=3)
    paths, _, _ = T.sampled_path_transports(
        chart, x, T.SamplerConfig(n_paths=1, segments=4, horizon=1.0, magnitude=0.4, seed=99))
    path = paths[0]
    res = T.transport(chart, path, "schouten")
    y = res.end
    # orthonormal-frame transport x -> y
    P0, L0t = C.orthonormal_frame_change(C.frame_data(chart, x[None], order=1).G)
    P1, L1t = C.orthonormal_frame_change(C.frame_data(chart, y[None], order=1).G)
    tau_o = L1t[0] @ res.tau @ P0[0]
    hx = H.lie_closure(H.as_samples_schouten(chart, x, cfg), 1e-6)
    hy = H.lie_closure(H.as_samples_schouten(chart, y, cfg), 1e-6)
    assert hx.dim == hy.dim
    for B in hx.basis:
        assert hy.span_residual(tau_o @ B @ tau_o.T) < 1e-4


def test_matrix_lie_algebra_invariants(charts, algebra_cache):
    for name in ["disc_disc_11", "bergman"]:
        for route in ("schouten", "adapted"):
            h = algebra_cache(name, 0, route)
            assert np.max(np.abs(h.basis + h.basis.swapaxes(-1, -2)), initial=0.0) < 1e-8
            gram = np.einsum("kij,lij->kl", h.basis, h.basis)
            assert np.allclose(gram, np.eye(h.dim), atol=1e-8)
            for i in range(h.dim):
                for j in range(i + 1, h.dim):
                    br = h.basis[i] @ h.basis[j] - h.basis[j] @ h.basis[i]
                    assert h.span_residual(br) < 1e-6 * (1 + np.linalg.norm(br))


def _projector(basis):
    """Orthogonal projector onto the span of the flattened basis."""
    rows = np.reshape(basis, (len(basis), -1))
    return rows.T @ np.linalg.pinv(rows.T)


@pytest.fixture(scope="module")
def unit_samples(charts):
    """8-path, seed-0 Schouten and adapted samples per chart."""
    cache = {}

    def get(name):
        if name not in cache:
            chart = charts[name]
            x0 = np.zeros(chart.dim)
            cfg = T.SamplerConfig(n_paths=8, seed=0)
            cache[name] = (np.array(H.as_samples_schouten(chart, x0, cfg)),
                           np.array(H.as_samples_adapted(chart, x0, cfg)))
        return cache[name]

    return get


@pytest.mark.parametrize("scale", [1e-6, 1e-3, 1.0, 1e3, 1e6])
@pytest.mark.parametrize("name, dims", [
    ("bergman", (3, 4)), ("perturbed_disc_disc", (2, 2)), ("disc_disc_12", (1, 2)),
])
def test_rank_decisions_are_scale_invariant(unit_samples, name, dims, scale):
    rep = build_spin_rep(2)
    eye = np.eye(4)
    skew = np.array([np.outer(eye[a], eye[b]) - np.outer(eye[b], eye[a])
                     for a in range(4) for b in range(a + 1, 4)])
    for samples, dim in zip(unit_samples(name), dims):
        h1 = H.lie_closure(samples, 1e-6)
        hc = H.lie_closure(scale * samples, 1e-6)
        assert (h1.dim, hc.dim) == (dim, dim)
        assert np.max(np.abs(_projector(hc.basis) - _projector(h1.basis))) < 1e-8
        assert parallel_spinor_dim(rep, scale * h1.basis) == parallel_spinor_dim(rep, h1)
        comm1, commc = h1.commutant(skew), h1.commutant(scale * skew)
        assert len(commc) == len(comm1)
        assert np.max(np.abs(_projector(commc) - _projector(comm1))) < 1e-8


def test_t_complement_needs_a_projecting_subalgebra():
    # h_small is orthogonal to h_big: its coefficients there have rank 0
    J1 = np.zeros((4, 4))
    J1[:2, :2] = [[0, -1], [1, 0]]
    J2 = np.zeros((4, 4))
    J2[2:, 2:] = [[0, -1], [1, 0]]
    K = np.zeros((4, 4))
    K[0, 2], K[2, 0] = 1, -1
    with pytest.raises(NumericsError):
        H.t_complement(H.lie_closure([J1, J2], 1e-8), H.lie_closure([K], 1e-8))
