import tracemalloc

import numpy as np
import pytest

from kcontact import connection as C
from kcontact import jets
from kcontact import manifolds as M
from kcontact.errors import ChartError, ConfigError

from conftest import domain_points
from fd_oracles import ball_metric_reference, chart_values, fd_first, rotated_chart


TOLS = {
    "theta_xi": 1e-10,
    "theta_frame": 1e-10,
    "reeb_interior": 1e-8,
    "lie_xi_g": 1e-7,
    "tau_plus_omega": 1e-7,
    "theta_xi_bracket": 1e-7,
}


@pytest.mark.parametrize("name", ["heisenberg", "disc_disc_11", "disc_disc_12",
                                  "bergman", "perturbed_disc_disc"])
def test_chart_invariants_on_random_points(charts, name):
    chart = charts[name]
    pts = domain_points(chart, 100, seed=3, margin=0.98)
    res = M.chart_invariant_residuals(C.frame_data(chart, pts, order=1))
    for key, tol in TOLS.items():
        assert res[key] < tol, (name, key, res[key])
    assert res["spd_min_eig"] > 0.0
    assert res["omega_sv_ratio_min"] > 1e-6


@pytest.mark.parametrize("name", ["heisenberg", "disc_disc_11", "disc_disc_12", "bergman",
                                  "perturbed_disc_disc", "rotated_disc_disc_12"])
def test_orders_one_and_two_agree_bit_for_bit(charts, name):
    # one order-2 evaluation serves first-order readers (verify's suites,
    # frame_data's orthonormal frame) only because these bits agree
    chart = (rotated_chart(charts["disc_disc_12"], (0, 1), 0.7) if name.startswith("rotated")
             else charts[name])
    pts = domain_points(chart, 50, seed=20)
    one, two = (M.chart_arrays(chart, pts, order=k) for k in (1, 2))
    for field in M.CHART_FIELDS:
        for key in (field, "d" + field):
            assert np.array_equal(getattr(one, key), getattr(two, key)), key


def test_heisenberg_origin_values(charts):
    th, xi, E, G = chart_values(charts["heisenberg"], np.zeros(5))
    assert np.allclose(th, [0, 0, 0, 0, 1])
    assert np.allclose(xi, [0, 0, 0, 0, 1])
    assert np.allclose(G, np.eye(4))
    assert np.allclose(th @ E, 0.0)


def test_reeb_normalization_everywhere(charts):
    for chart in charts.values():
        pts = domain_points(chart, 25, seed=5)
        arr = M.chart_arrays(chart, pts, order=0)
        assert np.max(np.abs(np.einsum("pi,pi->p", arr.th, arr.xi) - 1.0)) < 1e-12


def test_product_origin_is_dt(charts):
    chart = charts["disc_disc_11"]
    assert chart.dim == 5
    assert len(chart.factors) == 2
    th, xi, _, _ = chart_values(chart, np.zeros(5))
    assert np.allclose(th, [0, 0, 0, 0, 1])
    assert np.allclose(xi, [0, 0, 0, 0, 1])
    ball = charts["bergman"]
    assert ball.dim == 5 and len(ball.factors) == 1


def test_dtheta_heisenberg_constant_symplectic(charts):
    chart = charts["heisenberg"]
    pts = domain_points(chart, 10, seed=1)
    om = C.frame_data(chart, pts, order=1).omega
    J = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], float)
    assert np.allclose(om, J[None], atol=1e-13)


def test_dtheta_skew_and_block_diagonal(charts):
    chart = charts["disc_disc_12"]
    pts = domain_points(chart, 20, seed=2)
    om = C.frame_data(chart, pts, order=1).omega
    assert np.max(np.abs(om + om.swapaxes(-1, -2))) < 1e-12
    assert np.max(np.abs(om[:, :2, 2:])) < 1e-13
    assert np.max(np.abs(om[:, 2:, :2])) < 1e-13


def test_structure_functions_heisenberg(charts):
    chart = charts["heisenberg"]
    pts = domain_points(chart, 10, seed=4)
    data = C.frame_data(chart, pts, order=1)
    c, tau, d, om = data.c, data.tau, data.xi_coeffs, data.omega
    assert np.max(np.abs(c)) < 1e-12
    assert np.max(np.abs(tau + om)) < 1e-12
    assert np.max(np.abs(d)) < 1e-12


def test_structure_functions_antisymmetry_and_blocks(charts):
    chart = charts["bergman"]
    pts = domain_points(chart, 15, seed=6)
    data = C.frame_data(chart, pts, order=1)
    c, tau = data.c, data.tau
    assert np.max(np.abs(c + c.swapaxes(-1, -2))) < 1e-12
    assert np.max(np.abs(tau + tau.swapaxes(-1, -2))) < 1e-12
    chart2 = charts["disc_disc_11"]
    c2 = C.frame_data(chart2, domain_points(chart2, 15, seed=6), order=1).c
    # brackets of fields from different factors vanish
    assert np.max(np.abs(c2[:, :, :2, 2:])) < 1e-12
    assert np.max(np.abs(c2[:, :, 2:, :2])) < 1e-12


@pytest.mark.parametrize("name", ["heisenberg", "disc_disc_12", "bergman",
                                  "perturbed_disc_disc"])
def test_ad_first_derivatives_match_central_differences(charts, name):
    chart = charts[name]
    pts = domain_points(chart, 5, seed=7, margin=0.9)
    arr = M.chart_arrays(chart, pts, order=1)
    for k, x in enumerate(pts):
        dth, dxi, dE, dG = fd_first(chart, x, step=1e-5)
        scale = 1.0 + np.abs(dG).max()
        assert np.max(np.abs(arr.dth[k] - dth)) < 1e-5 * scale
        assert np.max(np.abs(arr.dxi[k] - dxi)) < 1e-5 * scale
        assert np.max(np.abs(arr.dE[k] - dE)) < 1e-5 * scale
        assert np.max(np.abs(arr.dG[k] - dG)) < 1e-5 * scale


def test_disc_primitive_curl_equals_ricci_form_density():
    # dtheta^1 = rho^1 for the hyperbolic disc: the curl of the shipped
    # primitive must equal -4 / (1 - r^2)^2 pointwise
    spec = M.FactorSpec("poincare_disc", b=1.0, curvature=1.0)
    rng = np.random.default_rng(8)
    for _ in range(20):
        z = rng.uniform(-0.6, 0.6, 2)
        h = 1e-5

        def prim(w):
            return np.array(M._disc_primitive(spec, list(w), M._radials(list(w))))

        d1 = (prim(z + [h, 0]) - prim(z - [h, 0])) / (2 * h)
        d2 = (prim(z + [0, h]) - prim(z - [0, h])) / (2 * h)
        curl = d1[1] - d2[0]
        s = 1.0 - z @ z
        assert abs(curl - (-4.0 / s**2)) < 1e-7 * (1 + 4 / s**2)


def test_bergman_matches_scaled_disc():
    # one-dimensional Bergman ball and the double-curvature disc agree
    ball = M.FactorSpec("bergman_ball", complex_dim=1, b=1.0, curvature=1.0)
    disc = M.FactorSpec("poincare_disc", b=1.0, curvature=2.0)
    rng = np.random.default_rng(9)
    for _ in range(10):
        w = list(rng.uniform(-0.6, 0.6, 2))
        rad = M._radials(w)
        Gb = np.array(M._factor_metric(ball, w, rad))
        Gd = np.array(M._factor_metric(disc, w, rad))
        assert np.allclose(Gb, Gd, atol=1e-13)
        assert np.allclose(M._factor_primitive(ball, w, rad), M._factor_primitive(disc, w, rad))


def test_perturbed_chart_stays_k_contact(charts):
    chart = charts["perturbed_disc_disc"]
    pts = domain_points(chart, 60, seed=10, margin=0.98)
    res = M.chart_invariant_residuals(C.frame_data(chart, pts, order=1))
    assert res["lie_xi_g"] < 1e-10


def test_heisenberg_k_contact_residual(charts):
    chart = charts["heisenberg"]
    pts = domain_points(chart, 40, seed=11)
    res = M.chart_invariant_residuals(C.frame_data(chart, pts, order=1))
    assert res["lie_xi_g"] < 1e-10


def test_bad_chart_definitions_are_reported(charts):
    good = charts["heisenberg"]
    flat_theta = M.ContactChart(
        m=good.m, domain=good.domain,
        theta=lambda x: [0.0, 0.0, 0.0, 0.0, 1.0],  # closed form: not contact
        xi=good.xi, frame=good.frame, metric=good.metric,
    )
    with pytest.raises(ChartError):
        C.frame_data(flat_theta, np.zeros(5), order=2)


def test_chart_constructor_errors():
    with pytest.raises(ChartError):
        M.heisenberg(1)
    with pytest.raises(ChartError):
        M.product_construction([])
    with pytest.raises(ConfigError):
        M.FactorSpec("poincare_disc", b=0.0)
    with pytest.raises(ConfigError):
        M.FactorSpec("nonsense")
    # a config refuses a NaN first (config_float); a spec built in code does here
    for name in ("b", "curvature", "epsilon"):
        with pytest.raises(ConfigError, match=f"factor {name} must be finite, got nan"):
            M.FactorSpec("poincare_disc", **{name: float("nan")})
    with pytest.raises(ChartError):
        # total complex dimension too small
        M.product_construction([M.FactorSpec("poincare_disc", b=1.0)])


def test_chart_from_config_and_errors():
    chart = M.chart_from_config({"type": "heisenberg", "m": 3})
    assert chart.m == 3
    chart = M.chart_from_config(
        {
            "type": "product",
            "factors": [
                {"kind": "poincare_disc", "complex_dim": 1, "b": 1.0},
                {"kind": "bergman_ball", "complex_dim": 2, "b": -2.0, "curvature": 0.5},
            ],
        }
    )
    assert chart.m == 3
    with pytest.raises(ConfigError):
        M.chart_from_config({"type": "nope"})
    with pytest.raises(ConfigError):
        M.chart_from_config({"m": 2})
    with pytest.raises(ConfigError):
        M.chart_from_config({"type": "product", "factors": []})
    with pytest.raises(ConfigError):
        M.chart_from_config({"type": "product", "factors": [{"kind": "poincare_disc", "b": 0.0}]})


def test_random_domain_points_deterministic(charts):
    chart = charts["bergman"]
    a = M.random_domain_points(chart, 30, np.random.default_rng(42))
    b = M.random_domain_points(chart, 30, np.random.default_rng(42))
    assert np.array_equal(a, b)
    assert np.all(chart.domain.contains(a))


def test_scalar_contract_all_orders(charts):
    # chart functions evaluate on plain floats, arrays, and jets of order 1, 2
    chart = charts["perturbed_disc_disc"]
    x = domain_points(chart, 3, seed=12)
    v0 = M.chart_arrays(chart, x, order=0)
    v1 = M.chart_arrays(chart, x, order=1)
    v2 = M.chart_arrays(chart, x, order=2)
    assert np.allclose(v0.G, v1.G) and np.allclose(v1.G, v2.G)
    assert np.allclose(v1.dG, v2.dG)
    single = chart_values(chart, x[0])
    assert np.allclose(single[3], v0.G[0])


FIELD_CHARTS = {
    **M.example_charts(),
    "ball_x_disc": M.product_construction(
        [M.FactorSpec("bergman_ball", complex_dim=2, b=1.0), M.FactorSpec("poincare_disc", b=2.0)]
    ),
    "perturbed_x_ball": M.product_construction(
        [M.FactorSpec("perturbed_disc", b=1.0, epsilon=0.3), M.FactorSpec("bergman_ball", b=-1.0)]
    ),
}
# every field subset a caller of chart_arrays asks for
FIELD_SUBSETS = [("xi",), ("G",), ("th", "xi", "E"), ("xi", "E"),
                 # theta or the frame alone computes the factor primitives itself
                 ("th",), ("E",), ("th", "E")]


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(FIELD_CHARTS))
def test_field_selection_is_bit_identical(name, order):
    chart = FIELD_CHARTS[name]
    pts = domain_points(chart, 7, seed=5, margin=0.95)
    full = M.chart_arrays(chart, pts, order=order)
    prefixes = ("", "d", "d2")[: order + 1]
    for fields in FIELD_SUBSETS:
        part = M.chart_arrays(chart, pts, order=order, fields=fields)
        for field in M.CHART_FIELDS:
            for prefix in ("", "d", "d2"):
                got = getattr(part, prefix + field)
                if field in fields and prefix in prefixes:
                    want = getattr(full, prefix + field)
                    assert got.shape == want.shape, (fields, prefix + field)
                    assert got.tobytes() == want.tobytes(), (fields, prefix + field)
                else:
                    assert got is None, (fields, prefix + field)


def test_unknown_chart_field_rejected(charts):
    with pytest.raises(ValueError, match="unknown chart fields"):
        M.chart_arrays(charts["heisenberg"], np.zeros((1, 5)), order=0, fields=("metric",))


# every product chart built in: the shipped examples and the field-test mixes
PRODUCT_CHARTS = {name: chart for name, chart in FIELD_CHARTS.items() if chart.factors}


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(PRODUCT_CHARTS))
def test_chart_arrays_computes_each_primitive_once(monkeypatch, name, order):
    chart = PRODUCT_CHARTS[name]
    calls = []
    primitive = M._factor_primitive

    def counted(spec, w, rad):
        calls.append(spec)
        return primitive(spec, w, rad)

    monkeypatch.setattr(M, "_factor_primitive", counted)
    M.chart_arrays(chart, domain_points(chart, 4, seed=2), order=order)
    assert calls == list(chart.factors)


@pytest.mark.parametrize("fields", [M.CHART_FIELDS] + FIELD_SUBSETS, ids=",".join)
@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(PRODUCT_CHARTS))
def test_chart_arrays_computes_each_radial_once(monkeypatch, name, order, fields):
    # a factor's squares, u and s feed its primitive (theta, the frame) and
    # its metric: one evaluation computes them once per factor, or not at all
    chart = PRODUCT_CHARTS[name]
    calls = []
    radials = M._radials

    def counted(w):
        calls.append(len(w))
        return radials(w)

    monkeypatch.setattr(M, "_radials", counted)
    M.chart_arrays(chart, domain_points(chart, 4, seed=2), order=order, fields=fields)
    readers = {"th", "E", "G"} & set(fields)
    assert calls == ([2 * f.complex_dim for f in chart.factors] if readers else [])


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(PRODUCT_CHARTS))
def test_shared_factor_work_keeps_the_bits(name, order):
    # an evaluation that shares radials and primitives between theta, the
    # frame and the metric has the bits of one in which each function
    # computes its own (plain coordinates carry no memo)
    chart = PRODUCT_CHARTS[name]
    X = domain_points(chart, 6, seed=3, margin=0.95)
    X[0, :-1] = 0.0
    X[1, ::2] = -0.0
    shared = M.chart_arrays(chart, X, order=order)
    for field, fn in zip(M.CHART_FIELDS, (chart.theta, chart.xi, chart.frame, chart.metric)):
        alone = jets.stack_arrays(fn(jets.seed(X, order)), order, chart.dim, (6,))
        for prefix, want in zip(("", "d", "d2"), alone):
            got = getattr(shared, prefix + field)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.tobytes() == want.tobytes(), prefix + field


@pytest.mark.parametrize("name", sorted(PRODUCT_CHARTS))
def test_chart_arrays_keeps_no_state_between_calls(name):
    chart = PRODUCT_CHARTS[name]
    X1 = domain_points(chart, 5, seed=8)
    X2 = domain_points(chart, 5, seed=9)
    fields = [p + f for p in ("", "d", "d2") for f in M.CHART_FIELDS]
    first = M.chart_arrays(chart, X1, order=2)
    second = M.chart_arrays(chart, X2, order=2)
    again = M.chart_arrays(chart, X1, order=2)
    for field in fields:
        assert getattr(again, field).tobytes() == getattr(first, field).tobytes(), field
    # the second call saw its own points, not primitives left from the first
    plain = [X2[:, i] for i in range(chart.dim)]
    for field, fn in (("th", chart.theta), ("E", chart.frame)):
        want, _, _ = jets.stack_arrays(fn(plain), 0, chart.dim, (5,))
        assert np.allclose(getattr(second, field), want, rtol=1e-14, atol=1e-14), field


def test_finished_evaluation_leaves_nothing_allocated():
    chart = FIELD_CHARTS["ball_x_disc"]
    X = domain_points(chart, 2000, seed=4)
    M.chart_arrays(chart, X, order=1)  # warm up caches outside the trace
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        arr = M.chart_arrays(chart, X, order=1)
        held = tracemalloc.get_traced_memory()[0] - before
        del arr
        left = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    # the 2000-point arrays themselves are megabytes; a memo of the
    # primitive jets would keep hundreds of kilobytes alive
    assert held > 2_000_000
    assert left < 20_000, left


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_radials_add_squares_in_coordinate_order(p, order):
    # u is the left-to-right sum of the squares in coordinate order; the
    # goldens pin the last bits of that order
    X = np.random.default_rng(p).uniform(-0.5, 0.5, (200, 2 * p))
    w = jets.seed(X, order)
    _, u, s = M._radials(w)
    squares = [c * c for c in w]
    want = sum(squares[1:], squares[0])
    got = jets.stack_arrays([u, s], order, 2 * p, (200,))
    ref = jets.stack_arrays([want, 1.0 - want], order, 2 * p, (200,))
    for g, r in zip(got, ref):
        assert (g is None) == (r is None)
        if r is not None:
            assert g.tobytes() == r.tobytes()


@pytest.mark.parametrize("order", [0, 1, 2])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_ball_metric_matches_reference(p, order):
    # the blocks filled by symmetry carry the bits of the blocks computed on
    # their own; only the derivatives of the identically zero im entries of
    # the diagonal blocks may differ, in the sign of zero
    spec = M.FactorSpec("bergman_ball", complex_dim=p, b=1.0, curvature=1.5)
    rng = np.random.default_rng(p)
    X = rng.uniform(-0.4, 0.4, (9, 2 * p))
    X[0] = 0.0
    X[1, 0::2] = 0.0
    X[2, 1::2] = 0.0
    X[3, :2] = -0.0
    coords = jets.seed(X, order)
    got = jets.stack_arrays(M._ball_metric(spec, coords, M._radials(coords)), order, 2 * p, (9,))
    want = jets.stack_arrays(ball_metric_reference(spec, coords), order, 2 * p, (9,))
    assert got[0].tobytes() == want[0].tobytes()
    for g, w in zip(got[1:], want[1:]):
        if w is not None:
            assert np.array_equal(g, w)
            differ = g.view(np.int64) != w.view(np.int64)
            assert not np.any(g[differ]), "only zeros may differ"


def test_chart_functions_evaluate_standalone():
    # the four callables need no chart_arrays evaluation around them
    chart = FIELD_CHARTS["ball_x_disc"]
    x = domain_points(chart, 3, seed=6)
    full = M.chart_arrays(chart, x, order=1)
    th = chart.theta(list(x[0]))
    cols = chart.frame([float(v) for v in x[0]])
    assert np.allclose(np.array(th, dtype=float), full.th[0], rtol=0, atol=1e-15)
    assert np.allclose(np.array(cols, dtype=float), full.E[0], rtol=0, atol=1e-15)
    coords = [x[:, i] for i in range(chart.dim)]
    E, _, _ = jets.stack_arrays(chart.frame(coords), 0, chart.dim, (3,))
    assert E.tobytes() == M.chart_arrays(chart, x, order=0).E.tobytes()
    jet_cols = chart.frame(jets.seed(x, 1))
    assert np.array_equal(jet_cols[-1][0].grad, full.dE[:, -1, 0])
