import numpy as np
import pytest

from kcontact import jets

from fd_oracles import recip_uncached, stack_arrays_reference, where_reference


def f_scalar(c):
    x, y, z = c
    return jets.exp(0.3 * x * y) / (1.0 + x * x) + jets.sqrt(2.0 + jets.sin(y * z)) - jets.log(2.0 + jets.cos(x)) + (x - 2.0 * z) ** 3 / 7.0


def f_plain(v):
    x, y, z = v
    return np.exp(0.3 * x * y) / (1.0 + x * x) + np.sqrt(2.0 + np.sin(y * z)) - np.log(2.0 + np.cos(x)) + (x - 2.0 * z) ** 3 / 7.0


def g_mixed(c, w):
    """Operands of the general branch: ints on either side, an array ``w`` of
    the batch's shape, and ``<=`` / ``>=`` masks of ``where``."""
    x, y, z = c
    return (3 * x * y - x * 2 + (y * w) * z + w * (x * x)
            + jets.where(x <= 0.1, x * z, 2 * z) + jets.where(y >= -0.2, y * y, 0.5))


def fd_grad(v, h=1e-6, f=f_plain):
    g = np.zeros(3)
    for i in range(3):
        e = np.zeros(3)
        e[i] = h
        g[i] = (f(v + e) - f(v - e)) / (2 * h)
    return g


def fd_hess(v, h=1e-4, f=f_plain):
    H = np.zeros((3, 3))
    for i in range(3):
        for j in range(3):
            ei = np.zeros(3)
            ej = np.zeros(3)
            ei[i] = h
            ej[j] = h
            H[i, j] = (
                f(v + ei + ej) - f(v + ei - ej)
                - f(v - ei + ej) + f(v - ei - ej)
            ) / (4 * h * h)
    return H


def test_first_order_matches_fd():
    rng = np.random.default_rng(0)
    for _ in range(5):
        v = rng.uniform(-1, 1, 3)
        out = f_scalar(jets.seed(v, 1))
        assert np.allclose(out.val, f_plain(v), atol=1e-14)
        assert np.allclose(out.grad, fd_grad(v), rtol=1e-7, atol=1e-9)


def test_second_order_matches_fd():
    rng = np.random.default_rng(1)
    for _ in range(5):
        v = rng.uniform(-1, 1, 3)
        out = f_scalar(jets.seed(v, 2))
        assert np.allclose(out.hess, out.hess.swapaxes(-1, -2), atol=1e-13)
        assert np.allclose(out.hess, fd_hess(v), rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("order", [1, 2])
def test_general_operands_match_fd(order):
    rng = np.random.default_rng(3)
    X = rng.uniform(-1, 1, (8, 3))
    w = rng.uniform(0.5, 1.5, 8)
    # both sides of each mask, away from its edge by more than the fd steps
    assert 0 < np.sum(X[:, 0] <= 0.1) < 8 and 0 < np.sum(X[:, 1] >= -0.2) < 8
    assert np.min(np.abs(X[:, 0] - 0.1)) > 1e-3 and np.min(np.abs(X[:, 1] + 0.2)) > 1e-3
    out = g_mixed(jets.seed(X, order), w)
    assert out.order == order
    for k in range(8):
        def plain(v, wk=w[k]):
            return g_mixed(list(v), wk)

        assert np.allclose(out.val[k], plain(X[k]), atol=1e-14)
        assert np.allclose(out.grad[k], fd_grad(X[k], f=plain), rtol=1e-7, atol=1e-9)
        if order == 2:
            assert np.allclose(out.hess[k], fd_hess(X[k], f=plain), rtol=1e-5, atol=1e-6)


def test_batched_evaluation_matches_pointwise():
    rng = np.random.default_rng(2)
    X = rng.uniform(-1, 1, (7, 3))
    out = f_scalar(jets.seed(X, 2))
    assert out.val.shape == (7,)
    assert out.grad.shape == (7, 3)
    assert out.hess.shape == (7, 3, 3)
    for k in range(7):
        single = f_scalar(jets.seed(X[k], 2))
        assert np.allclose(out.val[k], single.val)
        assert np.allclose(out.grad[k], single.grad)
        assert np.allclose(out.hess[k], single.hess)


def test_plain_evaluation_passthrough():
    coords = jets.seed(np.array([0.2, -0.3, 0.1]), 0)
    assert all(isinstance(c, np.ndarray) for c in coords)
    assert np.isclose(f_scalar(coords), f_plain(np.array([0.2, -0.3, 0.1])))


def test_division_and_powers():
    x = jets.seed(np.array([0.7, 0.2]), 2)[0]
    y = 1.0 / (1.0 + x * x)
    v = 0.7
    assert np.allclose(y.val, 1 / (1 + v * v))
    assert np.allclose(y.grad[..., 0], -2 * v / (1 + v * v) ** 2, rtol=1e-12)
    z = x**-2
    assert np.allclose(z.val, v**-2)
    assert np.allclose(z.grad[..., 0], -2 * v**-3, rtol=1e-12)
    w = x**0.5
    assert np.allclose(w.grad[..., 0], 0.5 * v**-0.5, rtol=1e-12)


def test_where_selects_branches_with_derivatives():
    X = np.linspace(-1.0, 1.0, 11)[:, None]
    x = jets.seed(X, 2)[0]
    out = jets.where(x < 0.0, x * x, 3.0 * x)
    assert np.allclose(out.val, np.where(X[:, 0] < 0, X[:, 0] ** 2, 3 * X[:, 0]))
    assert np.allclose(out.grad[:, 0], np.where(X[:, 0] < 0, 2 * X[:, 0], 3.0))
    assert np.allclose(out.hess[:, 0, 0], np.where(X[:, 0] < 0, 2.0, 0.0))


def test_where_masks_poisoned_branch():
    # the rejected branch may contain non-finite garbage; where must drop it
    X = np.array([[2.0], [0.5]])
    x = jets.seed(X, 1)[0]
    safe = jets.where(x < 1.0, x, 0.0)
    out = jets.where(x < 1.0, 1.0 / (1.0 - safe), 0.0)
    assert np.all(np.isfinite(out.val))
    assert np.all(np.isfinite(out.grad))
    assert out.val[0] == 0.0
    assert np.isclose(out.val[1], 2.0)


def test_constants_mix_with_jets():
    x = jets.seed(np.array([[0.4]]), 1)[0]
    out = 2.0 + 3.0 * x - x / 2.0 + (1.0 - x) * x
    assert np.isclose(out.val[0], 2 + 3 * 0.4 - 0.2 + 0.6 * 0.4)
    assert np.isclose(out.grad[0, 0], 3 - 0.5 + 1 - 2 * 0.4)


def test_stack_arrays_mixed_entries():
    x = jets.seed(np.array([[0.3, 0.5]]), 1)
    nested = [[x[0], 1.0], [0.0, x[0] * x[1]]]
    val, grad, hess = jets.stack_arrays(nested, 1, 2, (1,))
    assert val.shape == (1, 2, 2)
    assert hess is None
    assert np.isclose(val[0, 0, 1], 1.0)
    assert np.allclose(grad[0, 0, 1], 0.0)
    assert np.allclose(grad[0, 1, 1], [0.5, 0.3])


def test_pow_zero_and_comparisons():
    x = jets.seed(np.array([[2.0]]), 2)[0]
    one = x**0
    assert np.allclose(one.val, 1.0) and np.allclose(one.grad, 0.0)
    assert (x > 1.0).all() and (x < 3.0).all()
    y = (-x) ** 3
    assert np.isclose(y.val[0], -8.0)
    assert np.isclose(y.grad[0, 0], -12.0)


def _mixed_leaves(order, batch, n=3):
    """A 2 x 3 x 4 nested list mixing every kind of leaf stack_arrays takes."""
    rng = np.random.default_rng(len(batch) + 10 * order)
    X = rng.uniform(-1.0, 1.0, batch + (n,))
    x = jets.seed(X, order)
    jet_like = (lambda k: x[k] * x[(k + 1) % n] + 0.5) if order else (lambda k: x[k])
    pool = [
        jet_like(0), jet_like(1), x[2],
        rng.uniform(-1.0, 1.0, batch),  # a plain batch array
        1.5, -2.0, 3, 0, -0.0, 0.0, np.float64(-0.0), np.float64(0.0),
    ]
    leaves = [pool[(5 * i) % len(pool)] for i in range(24)]
    return [[leaves[12 * a + 4 * b: 12 * a + 4 * b + 4] for b in range(3)] for a in range(2)]


@pytest.mark.parametrize("batch", [(), (7,), (2, 3)])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_stack_arrays_matches_reference(order, batch):
    nested = _mixed_leaves(order, batch)
    got = jets.stack_arrays(nested, order, 3, batch)
    want = stack_arrays_reference(nested, order, 3, batch)
    for g, w in zip(got, want):
        if w is None:
            assert g is None
            continue
        assert g.shape == w.shape and g.dtype == w.dtype
        assert g.tobytes() == w.tobytes()


def test_stack_arrays_scalar_and_tuple_leaves():
    x = jets.seed(np.array([0.3, -0.5]), 1)
    for nested in (x[0], (x[0], 0.0, -0.0), [(x[1], 1), (0, x[0])]):
        got = jets.stack_arrays(nested, 1, 2, ())
        want = stack_arrays_reference(nested, 1, 2, ())
        assert all(g.tobytes() == w.tobytes() for g, w in zip(got[:2], want[:2]))
    # only +0.0 is left to the zero fill; a -0.0 constant keeps its sign
    val = jets.stack_arrays([0.0, -0.0, np.float64(-0.0)], 0, 2, (3,))[0]
    assert list(np.signbit(val[0])) == [False, True, True]


@pytest.mark.parametrize("batch", [(), (7,)], ids=str)
@pytest.mark.parametrize("order", [1, 2])
def test_reciprocal_is_computed_once(order, batch):
    rng = np.random.default_rng(order + len(batch))
    x = jets.seed(rng.uniform(0.2, 0.8, batch + (3,)), order)
    s = 1.0 - (x[0] * x[0] + x[1] * x[1])
    want = recip_uncached(s)
    r = s._recip()
    assert s._recip() is r
    # every division by s reads the one reciprocal, with its bits
    for got, ref in ((x[2] / s, x[2] * want), (2.0 / s, want * 2.0), (x[0] / s, x[0] * want)):
        for part in ("val", "grad", "hess"):
            g, w = getattr(got, part), getattr(ref, part)
            assert (g is None) == (w is None)
            if w is not None:
                assert g.tobytes() == w.tobytes(), part
    assert s._recip() is r
    # a jet from the public constructor caches too; its reciprocal has its own
    t = jets.Jet(s.val, s.grad, s.hess)
    assert t._recip() is t._recip() and t._recip() is not r
    assert t._recip().val.tobytes() == r.val.tobytes()
    # plain values divide as numpy does
    assert (1.0 / s.val).tobytes() == r.val.tobytes()


def _where_branches(order, batch):
    rng = np.random.default_rng(order + 3 * len(batch))
    x = jets.seed(rng.uniform(-1.0, 1.0, batch + (2,)), order)
    jet = x[0] * x[1] + 0.25
    other = x[1] * x[1]
    return x[0] < 0.1, jet, other


@pytest.mark.parametrize("const", [0.0, -0.0, 2.5, 0, np.float64(-0.0), "jet"], ids=repr)
@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("batch", [(), (7,)], ids=str)
@pytest.mark.parametrize("order", [0, 1, 2])
def test_where_matches_reference(order, batch, side, const):
    # a constant branch on either side, or ("jet") two jets
    cond, jet, other = _where_branches(order, batch)
    branch = other if const == "jet" else const
    a, b = (branch, jet) if side == "a" else (jet, branch)
    got = jets.where(cond, a, b)
    want = where_reference(cond, a, b)
    if order == 0:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        return
    for part in ("val", "grad", "hess"):
        g, w = getattr(got, part), getattr(want, part)
        assert (g is None) == (w is None)
        if w is not None:
            assert g.shape == w.shape and g.dtype == w.dtype
            assert g.tobytes() == w.tobytes(), part
