import numpy as np
import pytest

from kcontact import manifolds as M
from kcontact.errors import ChartError, ConfigError, DomainError

from conftest import domain_points
from fd_oracles import fd_first


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
    res = M.chart_invariant_residuals(chart, pts)
    for key, tol in TOLS.items():
        assert res[key] < tol, (name, key, res[key])
    assert res["spd_min_eig"] > 0.0
    assert res["det_omega_min"] > 1e-6


def test_heisenberg_origin_values(charts):
    th, xi, E, G = M.eval_contact(charts["heisenberg"], np.zeros(5))
    assert np.allclose(th, [0, 0, 0, 0, 1])
    assert np.allclose(xi, [0, 0, 0, 0, 1])
    assert np.allclose(G, np.eye(4))
    assert np.allclose(th @ E, 0.0)


def test_reeb_normalization_everywhere(charts):
    for chart in charts.values():
        pts = domain_points(chart, 25, seed=5)
        th, xi, _, _ = M.eval_contact(chart, pts)
        assert np.max(np.abs(np.einsum("pi,pi->p", th, xi) - 1.0)) < 1e-12


def test_product_origin_is_dt(charts):
    chart = charts["disc_disc_11"]
    assert chart.dim == 5
    assert len(chart.factors) == 2
    th, xi, _, _ = M.eval_contact(chart, np.zeros(5))
    assert np.allclose(th, [0, 0, 0, 0, 1])
    assert np.allclose(xi, [0, 0, 0, 0, 1])
    ball = charts["bergman"]
    assert ball.dim == 5 and len(ball.factors) == 1


def test_dtheta_heisenberg_constant_symplectic(charts):
    chart = charts["heisenberg"]
    pts = domain_points(chart, 10, seed=1)
    om = M.d_theta_frame(chart, pts)
    J = np.array([[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], float)
    assert np.allclose(om, J[None], atol=1e-13)


def test_dtheta_skew_and_block_diagonal(charts):
    chart = charts["disc_disc_12"]
    pts = domain_points(chart, 20, seed=2)
    om = M.d_theta_frame(chart, pts)
    assert np.max(np.abs(om + om.swapaxes(-1, -2))) < 1e-12
    assert np.max(np.abs(om[:, :2, 2:])) < 1e-13
    assert np.max(np.abs(om[:, 2:, :2])) < 1e-13


def test_structure_functions_heisenberg(charts):
    chart = charts["heisenberg"]
    pts = domain_points(chart, 10, seed=4)
    c, tau, d = M.structure_functions(chart, pts)
    om = M.d_theta_frame(chart, pts)
    assert np.max(np.abs(c)) < 1e-12
    assert np.max(np.abs(tau + om)) < 1e-12
    assert np.max(np.abs(d)) < 1e-12


def test_structure_functions_antisymmetry_and_blocks(charts):
    chart = charts["bergman"]
    pts = domain_points(chart, 15, seed=6)
    c, tau, _ = M.structure_functions(chart, pts)
    assert np.max(np.abs(c + c.swapaxes(-1, -2))) < 1e-12
    assert np.max(np.abs(tau + tau.swapaxes(-1, -2))) < 1e-12
    chart2 = charts["disc_disc_11"]
    c2, _, _ = M.structure_functions(chart2, domain_points(chart2, 15, seed=6))
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
            return np.array(M._disc_primitive(spec, list(w)))

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
        Gb = np.array(M._factor_metric(ball, w))
        Gd = np.array(M._factor_metric(disc, w))
        assert np.allclose(Gb, Gd, atol=1e-13)
        assert np.allclose(M._factor_primitive(ball, w), M._factor_primitive(disc, w))


def test_perturbed_chart_stays_k_contact(charts):
    res = M.chart_invariant_residuals(
        charts["perturbed_disc_disc"],
        domain_points(charts["perturbed_disc_disc"], 60, seed=10, margin=0.98),
    )
    assert res["lie_xi_g"] < 1e-10


def test_heisenberg_k_contact_residual(charts):
    res = M.chart_invariant_residuals(
        charts["heisenberg"], domain_points(charts["heisenberg"], 40, seed=11)
    )
    assert res["lie_xi_g"] < 1e-10


def test_eval_contact_rejects_outside_domain(charts):
    with pytest.raises(DomainError):
        M.eval_contact(charts["disc_disc_11"], np.array([0.95, 0, 0, 0, 0]))


def test_bad_chart_definitions_are_reported(charts):
    good = charts["heisenberg"]
    indefinite = M.ContactChart(
        m=good.m, domain=good.domain, theta=good.theta, xi=good.xi,
        frame=good.frame,
        metric=lambda x: [[-1.0 if a == b else 0.0 for b in range(4)] for a in range(4)],
    )
    with pytest.raises(ChartError):
        M.eval_contact(indefinite, np.zeros(5))
    flat_theta = M.ContactChart(
        m=good.m, domain=good.domain,
        theta=lambda x: [0.0, 0.0, 0.0, 0.0, 1.0],  # closed form: not contact
        xi=good.xi, frame=good.frame, metric=good.metric,
    )
    with pytest.raises(ChartError):
        M.d_theta_frame(flat_theta, np.zeros(5))


def test_chart_constructor_errors():
    with pytest.raises(ChartError):
        M.heisenberg(1)
    with pytest.raises(ChartError):
        M.product_construction([])
    with pytest.raises(ConfigError):
        M.FactorSpec("poincare_disc", b=0.0)
    with pytest.raises(ConfigError):
        M.FactorSpec("nonsense")
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
    single = M.eval_contact(chart, x[0])
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
FIELD_SUBSETS = [("xi",), ("G",), ("th", "xi", "E"), ("xi", "E")]


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
