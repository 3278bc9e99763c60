import functools
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from kcontact import cli, example_charts
from kcontact.errors import ChartError, ConfigError, NumericsError
from kcontact.holonomy import as_samples_adapted
from kcontact.manifolds import EXAMPLES


CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def run(args):
    return cli.main(args)


def read(path):
    with open(path) as fh:
        return json.load(fh)


def write_config(tmp_path, payload, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def small_sampler(n_paths=48):
    return {"n_paths": n_paths, "segments": 4, "horizon": 1.2,
            "magnitude": 0.45, "step": 0.02, "seed": 0}


def test_verify_heisenberg_passes(tmp_path):
    cfg = write_config(tmp_path, {
        "manifold": {"type": "heisenberg", "m": 2},
        "sampler": small_sampler(8),
    })
    out = tmp_path / "report.json"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    rep = read(out)
    assert rep["schema"] == 1 and rep["pass"] is True
    assert all(c["pass"] for c in rep["checks"].values())
    assert rep["checks"]["dtheta_inverse_pairing"]["tolerance"] == 1e-9


def test_verify_flows_the_loop_once(monkeypatch):
    # the equivalence check hands back its horizontal curve, so the
    # horizontality check needs no second Reeb flow of the same loop
    from kcontact import transport
    flow, calls = transport._reeb_flow_batch, []

    def counted(*args, **kwargs):
        calls.append(args[1].shape)
        return flow(*args, **kwargs)

    monkeypatch.setattr(transport, "_reeb_flow_batch", counted)
    shipped = Path(__file__).resolve().parent.parent / "configs" / "heisenberg.json"
    cli.verify_report(cli.load_config(str(shipped)))
    assert len(calls) == 1


def test_verify_evaluates_its_points_once(monkeypatch):
    # the chart and the connection invariant suites read one order-2
    # evaluation of verify's points
    from kcontact import connection, manifolds
    cfg = cli.load_config(str(Path(__file__).resolve().parent.parent / "configs" / "bergman.json"))
    chart = manifolds.chart_from_config(cfg.manifold)
    pts = manifolds.random_domain_points(
        chart, cli.VERIFY_POINTS, np.random.default_rng(cfg.sampler.seed), margin=0.95)
    evaluate, orders = manifolds.chart_arrays, []

    def counted(chart, X, order=1, **kwargs):
        if np.array_equal(X, pts):
            orders.append(order)
        return evaluate(chart, X, order, **kwargs)

    for module in (manifolds, connection):
        monkeypatch.setattr(module, "chart_arrays", counted)
    cli.verify_report(cfg)
    assert orders == [2]


def test_verify_perturbed_still_k_contact(tmp_path):
    cfg = write_config(tmp_path, {
        "manifold": {"type": "product", "factors": [
            {"kind": "perturbed_disc", "b": 1.0, "epsilon": 0.3},
            {"kind": "poincare_disc", "b": 1.0},
        ]},
        "sampler": small_sampler(8),
    })
    out = tmp_path / "report.json"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    assert read(out)["checks"]["reeb_flow_isometry"]["pass"]


def test_config_errors_exit_2(tmp_path, capsys):
    bad = write_config(tmp_path, {
        "manifold": {"type": "product", "factors": [
            {"kind": "poincare_disc", "b": 0.0}]},
    })
    assert run(["verify", "--config", bad]) == 2
    missing = str(tmp_path / "nope.json")
    assert run(["verify", "--config", missing]) == 2
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{not json")
    assert run(["verify", "--config", str(garbled)]) == 2
    nomanifold = write_config(tmp_path, {"sampler": {}}, "m.json")
    assert run(["verify", "--config", nomanifold]) == 2
    capsys.readouterr()
    toplist = write_config(tmp_path, [{"manifold": {"type": "heisenberg", "m": 2}}], "l.json")
    assert run(["verify", "--config", toplist]) == 2
    assert capsys.readouterr().err == "config error: config must be a JSON object\n"
    # a file that is not UTF-8 raised UnicodeDecodeError, and one nested
    # deeper than the parser recurses raised RecursionError: both exited 1
    # with a traceback
    for name, content in (("bad.json", b"\xff\xfe"), ("deep.json", b"[" * 100000 + b"\n")):
        undecodable = tmp_path / name
        undecodable.write_bytes(content)
        capsys.readouterr()
        assert run(["verify", "--config", str(undecodable)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: config is not valid JSON:")
        assert len(err.strip().splitlines()) == 1


def test_domain_violation_exit_3(tmp_path):
    cfg = write_config(tmp_path, {
        "manifold": {"type": "heisenberg", "m": 2},
        "base_point": [9.0, 0, 0, 0, 0],
    })
    assert run(["verify", "--config", cfg]) == 3


def test_no_balanced_loop_near_the_boundary_exits_4(tmp_path, capsys):
    # the loop builder's root-finding probes leave the ball here; a probe
    # circle is no point the user gave, so this is a sampling failure
    cfg = write_config(tmp_path, {
        "manifold": {"type": "product", "factors": [
            {"kind": "bergman_ball", "complex_dim": 2, "b": 1.0, "curvature": 1.0}]},
        "base_point": [0.8, 0, 0, 0, 0],
        "sampler": {**small_sampler(8), "seed": 3},
    })
    capsys.readouterr()
    assert run(["verify", "--config", cfg]) == 4
    err = capsys.readouterr().err
    assert err == "sampling failure: could not build a balanced loop at this base point\n"


def test_unconverged_loop_root_exits_4(monkeypatch, capsys):
    # a root find that does not converge fails that try of the loop builder;
    # when every try fails, verify exits 4 with one line, not a traceback
    from kcontact import transport
    monkeypatch.setattr(transport, "_brentq", functools.partial(transport._brentq, maxiter=0))
    capsys.readouterr()
    assert run(["verify", "--config", str(CONFIG_DIR / "heisenberg.json")]) == 4
    err = capsys.readouterr().err
    assert err == "sampling failure: could not build a balanced loop at this base point\n"


def test_holonomy_requires_seed(tmp_path):
    cfg = write_config(tmp_path, {"manifold": {"type": "heisenberg", "m": 2}})
    with pytest.raises(SystemExit):
        run(["holonomy", "--config", cfg])


def test_holonomy_reports(tmp_path):
    cfg = write_config(tmp_path, {
        "manifold": {"type": "product", "factors": [
            {"kind": "poincare_disc", "b": 1.0},
            {"kind": "poincare_disc", "b": 1.0},
        ]},
        "sampler": small_sampler(),
    })
    out = tmp_path / "rep.json"
    assert run(["holonomy", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
    rep = read(out)
    assert rep["dims"] == {"adapted": 2, "schouten": 1}
    assert rep["codim"] == 1 and rep["ideal"] is True
    assert rep["blocks"] == [[0, 1], [2, 3]]
    assert rep["cross_variant"]["residual"] < 1e-4
    assert np.allclose(rep["regression"]["b"], [1.0, 1.0], atol=1e-4)
    coeffs = np.array(rep["t_coefficients"])
    assert np.allclose(coeffs / np.linalg.norm(coeffs), [1, 1] / np.sqrt(2), atol=1e-3)
    assert rep["ratio_condition"]["satisfiable"] is True
    assert rep["spinor_kernel"]["schouten"] == 2
    assert rep["sasaki"]["is_sasaki_candidate"] is True


def test_holonomy_heisenberg_trivial(tmp_path):
    cfg = write_config(tmp_path, {
        "manifold": {"type": "heisenberg", "m": 2},
        "sampler": small_sampler(16),
    })
    out = tmp_path / "rep.json"
    assert run(["holonomy", "--config", cfg, "--seed", "1", "--out", str(out)]) == 0
    rep = read(out)
    assert rep["dims"] == {"adapted": 0, "schouten": 0}
    assert rep["codim"] == 0
    assert rep["blocks"] == []
    assert rep["trivial_block"] == [0, 1, 2, 3]
    assert rep["spinor_kernel"] == {"adapted": 4, "schouten": 4}


def test_holonomy_bergman(tmp_path):
    cfg = write_config(tmp_path, {
        "manifold": {"type": "product", "factors": [
            {"kind": "bergman_ball", "complex_dim": 2, "b": 1.0}]},
        "sampler": small_sampler(),
    })
    out = tmp_path / "rep.json"
    assert run(["holonomy", "--config", cfg, "--seed", "0", "--out", str(out)]) == 0
    rep = read(out)
    assert rep["dims"] == {"adapted": 4, "schouten": 3}
    assert rep["codim"] == 1
    assert rep["spinor_kernel"]["schouten"] == 2
    assert rep["spinor_kernel"]["adapted"] == 0


def test_reports_byte_stable(tmp_path):
    cfg = write_config(tmp_path, {
        "manifold": {"type": "product", "factors": [
            {"kind": "poincare_disc", "b": 1.0},
            {"kind": "poincare_disc", "b": 2.0},
        ]},
        "sampler": small_sampler(32),
    })
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["holonomy", "--config", cfg, "--seed", "7", "--out", str(a)]) == 0
    assert run(["holonomy", "--config", cfg, "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_paths_override_changes_sampling(tmp_path):
    cfg = write_config(tmp_path, {
        "manifold": {"type": "heisenberg", "m": 2},
        "sampler": small_sampler(64),
    })
    out = tmp_path / "rep.json"
    assert run(["holonomy", "--config", cfg, "--seed", "0", "--paths", "8",
                "--out", str(out)]) == 0
    assert read(out)["n_paths"] == 8


def test_spinor_command(tmp_path):
    cfg = write_config(tmp_path, {
        "manifold": {"type": "product", "factors": [
            {"kind": "bergman_ball", "complex_dim": 2, "b": 1.0}]},
        "sampler": small_sampler(32),
    })
    out = tmp_path / "rep.json"
    assert run(["spinor", "--config", cfg, "--out", str(out)]) == 0
    rep = read(out)
    assert rep["clifford_residual"] < 1e-12
    assert rep["homomorphism_residual"] < 1e-10
    assert abs(abs(rep["lift_level_constant"]) - 0.5) < 1e-12
    assert rep["kernel_dims"]["schouten"] == 2
    assert rep["kernel_dims"]["trivial_algebra"] == 4
    levels = {e["index"]: e["level"] for e in rep["rotation_eigenvalues"]}
    assert levels == {0: 0, 1: 1, 2: 1, 3: 2}


def test_spinor_beyond_max_modes_exits_2(tmp_path, capsys):
    # the spin representation stops at MAX_MODES modes; a larger chart is
    # a configuration the spinor command cannot serve
    from kcontact.spinor import MAX_MODES

    cfg = write_config(tmp_path, {"manifold": {"type": "heisenberg", "m": MAX_MODES + 1},
                                  "sampler": small_sampler(2)})
    assert run(["spinor", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and f"m <= {MAX_MODES}" in err
    assert len(err.strip().splitlines()) == 1


def test_list_manifolds(capsys):
    assert run(["list-manifolds"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["types"] == ["heisenberg", "product"]
    assert set(payload["factor_kinds"]) == {
        "poincare_disc", "bergman_ball", "perturbed_disc"}
    assert payload["examples"] == list(EXAMPLES.values())


def test_shipped_configs_are_the_examples():
    # one config file per example, whose manifold is that example's
    configs = (Path(__file__).resolve().parent.parent / "configs").glob("*.json")
    assert {p.stem: read(p)["manifold"] for p in configs} == EXAMPLES


def test_sampling_failure_exit_4(tmp_path):
    cfg = write_config(tmp_path, {
        "manifold": {"type": "heisenberg", "m": 2},
        "sampler": {"n_paths": 2, "segments": 2, "horizon": 0.5,
                    "magnitude": 300.0, "step": 0.05, "seed": 0},
    })
    assert run(["holonomy", "--config", cfg, "--seed", "0"]) == 4


def test_report_floats_parse_back(tmp_path):
    cfg = write_config(tmp_path, {
        "manifold": {"type": "heisenberg", "m": 2},
        "sampler": small_sampler(8),
    })
    out = tmp_path / "rep.json"
    run(["verify", "--config", cfg, "--out", str(out)])
    text = out.read_text()
    parsed = json.loads(text)  # valid JSON with numeric values
    assert isinstance(parsed["checks"]["torsion"]["residual"], (int, float))
    assert isinstance(parsed["checks"]["theta_transport_agreement"]["residual"], float)
    # keys are sorted at every level
    keys = list(parsed.keys())
    assert keys == sorted(keys)


@pytest.mark.parametrize("patch", [
    {"factor": {"b": float("nan")}},
    {"factor": {"curvature": float("inf")}},
    {"factor": {"epsilon": float("nan")}},
    {"sampler": {"step": float("nan")}},
    {"sampler": {"horizon": float("inf")}},
    {"tolerances": {"span_tol": float("nan")}},
    {"base_point": [0.0, 0.0, float("nan"), 0.0, 0.0]},
], ids=["b", "curvature", "epsilon", "step", "horizon", "span_tol", "base_point"])
def test_non_finite_inputs_exit_2(tmp_path, capsys, patch):
    factor = {"kind": "perturbed_disc", "b": 1.0, "epsilon": 0.3, **patch.get("factor", {})}
    payload = {
        "manifold": {"type": "product", "factors": [factor, {"kind": "poincare_disc"}]},
        "sampler": {**small_sampler(4), **patch.get("sampler", {})},
    }
    if "tolerances" in patch:
        payload["tolerances"] = patch["tolerances"]
    if "base_point" in patch:
        payload["base_point"] = patch["base_point"]
    cfg = write_config(tmp_path, payload)
    assert run(["holonomy", "--config", cfg, "--seed", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "finite" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("extra", [
    {"tolerances": [1e-6]},
    {"tolerances": {"ode_tol": "tight"}},
    {"base_point": ["origin"]},
    {"base_point": 0.0},
    {"sampler": {"seed": -5}},
    {"outputs": {"report": ["x"]}},
    {"sampler": {"n_paths": 2.7}},
    {"sampler": {"seed": 1.9}},
    {"sampler": {"seed": True}},
    {"sampler": {"segments": 2.5}},
    {"manifold": {"type": "heisenberg", "m": 2.5}},
    {"manifold": {"type": "product", "factors": [
        {"kind": "bergman_ball", "complex_dim": True}, {"kind": "poincare_disc"}]}},
    {"outputs": []},
    {"tolerances": {"span_tol": 0.0}},
    {"tolerances": {"span_tol": -1.0}},
    {"tolerances": {"span_tol": 1.5}},
    {"tolerances": {"ode_tol": 0.0}},
    # float() once read true as 1.0 and "0.3" as 0.3: an ode_tol of true
    # loosened verify's theta_transport_agreement gate to 1
    {"tolerances": {"ode_tol": True}},
    {"sampler": {"horizon": True}},
    {"sampler": {"magnitude": "0.3"}},
    {"manifold": {"type": "product", "factors": [
        {"kind": "bergman_ball", "complex_dim": 2, "b": "2"}]}},
    {"base_point": ["0", "0", "0", "0", "0"]},
    {"base_point": [True, 0.0, 0.0, 0.0, 0.0]},
    {"sampler": [1]},
    {"base_point": [0.0, 0.0, 0.0]},
    {"manifold": {"type": "heisenberg", "m": 1}},
    {"manifold": {"type": "product", "factors": [3, {"kind": "poincare_disc"}]}},
    {"manifold": {"type": "product", "factors": [{"b": 1.0}, {"kind": "poincare_disc"}]}},
    {"manifold": {"type": "product", "factors": [{"kind": "poincare_disc"}]}},
    {"manifold": {"type": "product", "factors": [
        {"kind": "bergman_ball", "complex_dim": 0}, {"kind": "bergman_ball", "complex_dim": 2}]}},
    {"manifold": {"type": "product", "factors": [
        {"kind": "poincare_disc", "complex_dim": 2}, {"kind": "poincare_disc"}]}},
    {"manifold": {"type": "product", "factors": [
        {"kind": "poincare_disc", "curvature": 0.0}, {"kind": "poincare_disc"}]}},
], ids=["tolerances_list", "tolerance_string", "base_point_string", "base_point_scalar",
        "negative_seed", "report_list", "fractional_n_paths", "fractional_seed",
        "boolean_seed", "fractional_segments", "fractional_m", "boolean_complex_dim",
        "outputs_list", "zero_span_tol", "negative_span_tol", "span_tol_above_one",
        "zero_ode_tol", "boolean_ode_tol", "boolean_horizon", "string_magnitude",
        "string_factor_b", "numeric_string_base_point", "boolean_base_point",
        "sampler_list", "short_base_point", "heisenberg_m1", "numeric_factor",
        "factor_without_kind", "single_disc", "zero_complex_dim", "disc_complex_dim_2",
        "zero_curvature"])
def test_malformed_tolerances_and_base_point_exit_2(tmp_path, capsys, extra):
    cfg = write_config(tmp_path, {"manifold": {"type": "heisenberg", "m": 2}, **extra})
    assert run(["verify", "--config", cfg]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("field, value, message", [
    ("n_paths", -1, "sampler n_paths must be >= 0, got -1"),
    ("magnitude", -1, "sampler magnitude must be >= 0, got -1.0"),
    ("segments", 0, "sampler segments must be > 0, got 0"),
    ("step", 0, "sampler step must be > 0, got 0.0"),
], ids=["n_paths", "magnitude", "segments", "step"])
def test_sampler_bound_messages_name_the_field(tmp_path, capsys, field, value, message):
    cfg = write_config(tmp_path, {"manifold": {"type": "heisenberg", "m": 2},
                                  "sampler": {**small_sampler(4), field: value}})
    assert run(["holonomy", "--config", cfg, "--seed", "0"]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


@pytest.mark.parametrize("sampler, per", [
    ({"step": 1e-9}, "segment"),
    ({"horizon": 1e9}, "segment"),
    ({"segments": 1, "horizon": 6250.0, "step": 0.0624}, "segment"),
    ({"segments": 100000000}, "path"),
], ids=["tiny_step", "huge_horizon", "just_above", "huge_segments"])
def test_sampler_step_count_is_bounded(sampler, per):
    # parsed only, never run: each asks for more than 100000 RK4 steps per
    # segment (the tiny step for 3e8), an integration that would not end,
    # or per path (1e8 segments of 2 steps each; the first draw alone
    # would allocate 3 GB)
    raw = {"manifold": {"type": "heisenberg", "m": 2}, "sampler": sampler}
    with pytest.raises(ConfigError, match=rf"<= 100000 RK4 steps per {per}, got "):
        cli.RunConfig.from_dict(raw)
    at_bound = {"segments": 1, "horizon": 6250.0, "step": 0.0625}
    assert cli.RunConfig.from_dict({**raw, "sampler": at_bound}).sampler.step == 0.0625


@pytest.mark.parametrize("field", ["n_paths", "magnitude"])
def test_sampler_zero_count_and_magnitude_are_accepted(tmp_path, field):
    cfg = write_config(tmp_path, {"manifold": {"type": "heisenberg", "m": 2},
                                  "sampler": {**small_sampler(2), field: 0}})
    assert run(["holonomy", "--config", cfg, "--seed", "0"]) == 0


def test_integral_float_counts_are_accepted(tmp_path):
    cfg = write_config(tmp_path, {
        "manifold": {"type": "heisenberg", "m": 2.0},
        "sampler": {**small_sampler(4), "n_paths": 4.0, "segments": 4.0, "seed": 3.0},
    })
    out = tmp_path / "report.json"
    assert run(["verify", "--config", cfg, "--out", str(out)]) == 0
    seed = read(out)["seed"]
    assert seed == 3 and isinstance(seed, int)


@pytest.mark.parametrize("argv", [
    ["holonomy", "--seed", "-1"],
    ["holonomy", "--seed", "0", "--paths", "-1"],
    ["verify", "--out", "{tmp}/missing/r.json"],
], ids=["negative_seed", "negative_paths", "missing_report_dir"])
def test_bad_command_line_exit_2(tmp_path, capsys, argv):
    cfg = write_config(tmp_path, {"manifold": {"type": "heisenberg", "m": 2},
                                  "sampler": small_sampler(4)})
    args = [a.format(tmp=tmp_path) for a in argv] + ["--config", cfg]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")
    assert len(err.strip().splitlines()) == 1


def test_horizontal_pass_ignores_vertical_magnitude():
    # the Schouten pass integrates horizontal paths whatever the sampler
    # section says
    from kcontact.transport import sampled_path_transports

    raw = read(Path(__file__).resolve().parent.parent / "configs" / "bergman.json")
    raw["sampler"] = {"vertical_magnitude": 0.3, "n_paths": 8}
    cfg = cli.RunConfig.from_dict(raw)
    chart, x0 = cli._resolve_chart(cfg)
    paths, _, _ = sampled_path_transports(chart, x0, cfg.sampler)
    assert len(paths) == 8
    assert all(not np.any(p.vertical) for p in paths)


@pytest.mark.parametrize("command", ["holonomy", "spinor"])
def test_report_integrates_one_batch(monkeypatch, command):
    # heisenberg is in normal form, so a 64-path report makes one sampling
    # pass, of horizontal paths, and its paths never escape: one positions
    # pass and one transport pass, each of 64 rows
    from kcontact import holonomy, transport

    rows = {"positions": [], "transport": [], "passes": []}
    positions, transports = transport._integrate_positions, transport._transport_positions
    sample_pass = holonomy.sampled_path_transports

    def counting(key, fn, paths_at):
        def wrapper(*args, **kwargs):
            rows[key].append(len(args[paths_at]))
            return fn(*args, **kwargs)
        return wrapper

    def recording_pass(*args):
        rows["passes"].append(args[3:])  # nothing past the sampler
        return sample_pass(*args)

    monkeypatch.setattr(transport, "_integrate_positions", counting("positions", positions, 1))
    monkeypatch.setattr(transport, "_transport_positions", counting("transport", transports, 2))
    monkeypatch.setattr(holonomy, "sampled_path_transports", recording_pass)
    cfg = cli.load_config(str(Path(__file__).resolve().parent.parent / "configs" / "heisenberg.json"))
    assert cfg.sampler.n_paths == 64
    report = cli.holonomy_report(cfg) if command == "holonomy" else cli.spinor_report(cfg)
    assert report["command"] == command
    assert rows == {"positions": [64], "transport": [64], "passes": [()]}


def test_closure_blow_up_exit_5(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "manifold": {"type": "product", "factors": [
            {"kind": "bergman_ball", "complex_dim": 2, "b": 1.0}]},
        "sampler": small_sampler(8),
        # far below the double-precision noise floor: every sample is independent
        "tolerances": {"span_tol": 1e-30},
    })
    assert run(["holonomy", "--config", cfg, "--seed", "0"]) == 5
    err = capsys.readouterr().err
    assert err.startswith("numerical failure:") and "closure exceeded" in err
    assert len(err.strip().splitlines()) == 1


def test_chart_failure_exit_5(tmp_path, capsys, monkeypatch):
    def degenerate(cfg):
        raise ChartError("degenerate dtheta: cannot invert the contact 2-form")

    monkeypatch.setattr(cli, "holonomy_report", degenerate)
    cfg = write_config(tmp_path, {"manifold": {"type": "heisenberg", "m": 2}})
    assert run(["holonomy", "--config", cfg, "--seed", "0"]) == 5
    err = capsys.readouterr().err
    assert err == "numerical failure: degenerate dtheta: cannot invert the contact 2-form\n"


def test_regression_failure_is_reported_with_exit_0(tmp_path, monkeypatch):
    # a failed dtheta regression is one field of the report, not a failed run
    message = "rank-deficient regression: a factor Ricci form vanishes"

    def refusing(*args):
        raise ChartError(message)

    monkeypatch.setattr(cli, "dtheta_regression", refusing)
    out = tmp_path / "rep.json"
    disc = Path(__file__).resolve().parent.parent / "configs" / "disc_disc_12.json"
    assert run(["holonomy", "--config", str(disc), "--seed", "0", "--paths", "8",
                "--out", str(out)]) == 0
    assert read(out)["regression"] == {"error": message}


EPSILON_50 = {"manifold": {"type": "product", "factors": [
    {"kind": "perturbed_disc", "b": 1.0, "epsilon": 50.0},
    {"kind": "poincare_disc"},
]}}


def test_holonomy_large_epsilon_routes_agree(tmp_path):
    # the annihilator samples of this chart have norm at most about 2e-5
    # and a clear rank 2 (normalized singular values 1, 3e-3, 2e-17); an
    # absolute rank floor once cut them to rank 1 and failed the report
    cfg = write_config(tmp_path, EPSILON_50)
    out = tmp_path / "rep.json"
    assert run(["holonomy", "--config", cfg, "--seed", "0", "--paths", "8",
                "--out", str(out)]) == 0
    rep = read(out)
    assert rep["dims"] == {"schouten": 2, "adapted": 2}
    assert rep["cross_variant"]["dims"] == {"wagner": 2, "annihilator": 2}
    assert rep["cross_variant"]["residual"] < cli.CROSS_VARIANT_TOL


def test_holonomy_runs_at_small_dtheta(tmp_path):
    # three discs with b = 0.001: det(omega) scales as b^6 and falls below
    # 1e-12, but omega is well conditioned (cond about 8), so the report runs
    cfg = write_config(tmp_path, {"manifold": {"type": "product", "factors": [
        {"kind": "poincare_disc", "b": 0.001}] * 3}})
    out = tmp_path / "rep.json"
    assert run(["holonomy", "--config", cfg, "--seed", "1", "--paths", "8",
                "--out", str(out)]) == 0
    rep = read(out)
    assert rep["dims"] == {"schouten": 2, "adapted": 3}
    assert rep["blocks"] == [[0, 1], [2, 3], [4, 5]]


def test_verify_passes_at_small_dtheta(tmp_path):
    # three discs with b = 0.01: |det omega| scales as b^6 (about 1e-8 here),
    # while omega's singular-value ratio stays near 0.1, so dtheta is
    # nondegenerate at verify's scale-free tolerance
    cfg = write_config(tmp_path, {"manifold": {"type": "product", "factors": [
        {"kind": "poincare_disc", "b": 0.01}] * 3}})
    out = tmp_path / "rep.json"
    assert run(["verify", "--config", cfg, "--seed", "1", "--paths", "8",
                "--out", str(out)]) == 0
    check = read(out)["checks"]["dtheta_nondegenerate"]
    assert check["pass"] and check["tolerance"] == 1e-6


def test_holonomy_structure_beyond_shipped_configs():
    # an m = 4 product with two discs and a 2-ball: the dichotomy's ideal
    # case, h of codimension one in h0, with one block per factor
    cfg = cli.RunConfig.from_dict({
        "manifold": {"type": "product", "factors": [
            {"kind": "poincare_disc", "b": 1.0},
            {"kind": "poincare_disc", "b": 2.0},
            {"kind": "bergman_ball", "complex_dim": 2, "b": 1.0},
        ]},
        "sampler": {"n_paths": 8, "seed": 0},
    })
    rep = cli.holonomy_report(cfg)
    assert rep["dims"] == {"schouten": 5, "adapted": 6}
    assert rep["codim"] == 1 and rep["ideal"] and rep["contained"]
    assert rep["blocks"] == [[0, 1], [2, 3], [4, 5, 6, 7]]
    assert rep["cross_variant"]["dims"] == {"wagner": 5, "annihilator": 5}
    assert rep["cross_variant"]["residual"] < cli.CROSS_VARIANT_TOL
    assert rep["spinor_kernel"] == {"schouten": 0, "adapted": 0}


def test_holonomy_cross_variant_failure_exits_1(tmp_path, monkeypatch):
    # a genuine disagreement: the annihilator route is fed the adapted
    # samples of another chart; the report is still written, and the exit
    # code says so
    other = example_charts()["disc_disc_11"]
    samples = cli.holonomy_samples

    def disagreeing(chart, x, sampler, *args):
        out, base = samples(chart, x, sampler, *args)
        out["annihilator"] = as_samples_adapted(other, np.zeros(other.dim), sampler)
        return out, base

    monkeypatch.setattr(cli, "holonomy_samples", disagreeing)
    out = tmp_path / "rep.json"
    bergman = Path(__file__).resolve().parent.parent / "configs" / "bergman.json"
    assert run(["holonomy", "--config", str(bergman),
                "--seed", "0", "--paths", "8", "--out", str(out)]) == 1
    rep = read(out)
    assert rep["cross_variant"]["residual"] > cli.CROSS_VARIANT_TOL
    assert rep["cross_variant"]["dims"] == {"wagner": 3, "annihilator": 2}


def test_memory_error_exit_5(tmp_path, capsys, monkeypatch):
    # a heisenberg m = 40 verify once died in its order-2 jets with a numpy
    # allocation traceback and exit 1; simulated here, never allocated
    def exhausted(cfg):
        raise MemoryError("Unable to allocate 15.8 GiB")

    monkeypatch.setattr(cli, "verify_report", exhausted)
    cfg = write_config(tmp_path, {"manifold": {"type": "heisenberg", "m": 2}})
    assert run(["verify", "--config", cfg, "--seed", "0"]) == 5
    assert capsys.readouterr().err == "numerical failure: Unable to allocate 15.8 GiB\n"


TINY_DISCS = [{"kind": "poincare_disc", "curvature": 1e-300}] * 2


@pytest.mark.parametrize("command, factors, message", [
    ("holonomy", TINY_DISCS, "SVD did not converge"),
    ("verify", [{"kind": "perturbed_disc", "b": 1.0, "epsilon": 1e8}, {"kind": "poincare_disc"}],
     "Eigenvalues did not converge"),
], ids=["tiny_curvature", "huge_epsilon"])
def test_linalg_failure_exit_5(tmp_path, capsys, command, factors, message):
    cfg = write_config(tmp_path, {"manifold": {"type": "product", "factors": factors}})
    assert run([command, "--config", cfg, "--seed", "0"]) == 5
    err = capsys.readouterr().err
    assert err == f"numerical failure: {message}\n"


def test_tiny_curvature_next_to_a_unit_disc_fails_only_absolute_checks(tmp_path):
    # a disc of curvature 1e-300 has a metric block of scale 1e300; its
    # inverse block is closed-form, so Gamma stays finite and only the two
    # residuals measured in the metric's own scale fail
    cfg = write_config(tmp_path, {"manifold": {"type": "product", "factors": [
        TINY_DISCS[0], {"kind": "poincare_disc"}]}})
    out = tmp_path / "verify.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert run(["verify", "--config", cfg, "--seed", "0", "--out", str(out)]) == 1
    checks = read(out)["checks"]
    assert sorted(k for k, c in checks.items() if not c["pass"]) == [
        "curvature_g_skew", "metric_compatibility"]


def test_non_finite_report_value_exits_5_and_writes_no_report(tmp_path, capsys):
    # a disc of curvature 1e300 next to a unit disc overflows the Sasaki
    # check and the regression; the report would hold inf, so none is
    # written and the run fails as numerical, with one stderr line
    cfg = write_config(tmp_path, {"manifold": {"type": "product", "factors": [
        {"kind": "poincare_disc", "curvature": 1e300}, {"kind": "poincare_disc"}]}})
    out = tmp_path / "holonomy.json"
    assert run(["holonomy", "--config", cfg, "--seed", "0", "--out", str(out)]) == 5
    assert capsys.readouterr().err == "numerical failure: non-finite value inf in the report\n"
    assert not out.exists()
    assert cli.render_report({"a": None, "b": [1.5]}) == '{"a": null, "b": [1.5]}\n'
    with pytest.raises(NumericsError, match="non-finite value nan"):
        cli.render_report({"a": [np.float64("nan")]})


def test_numerical_failure_stderr_is_one_line(tmp_path):
    # numpy RuntimeWarnings raised before the failure stay off stderr
    cfg = write_config(tmp_path, {"manifold": {"type": "product", "factors": TINY_DISCS}})
    proc = subprocess.run(
        [sys.executable, "-m", "kcontact.cli", "holonomy", "--config", cfg, "--seed", "0"],
        capture_output=True, text=True, env=_fresh_env(), timeout=300,
    )
    assert proc.returncode == 5
    assert proc.stderr.splitlines() == ["numerical failure: SVD did not converge"]


def _fresh_env():
    """The environment of a fresh process that imports this checkout's kcontact."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONWARNINGS", None)
    return env


# runs the command line, then prints its exit code and every scipy module loaded
SCIPY_PROBE = """
import sys
from kcontact import cli
code = cli.main(sys.argv[1:])
print(code, *sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


@pytest.mark.parametrize("command", ["verify", "holonomy", "spinor"])
def test_commands_do_not_import_scipy(command):
    # numpy is the one runtime dependency; the tests alone use scipy, as the
    # loop builder's root-finding oracle
    proc = subprocess.run(
        [sys.executable, "-c", SCIPY_PROBE, command, "--config",
         str(CONFIG_DIR / "heisenberg.json"), "--paths", "4", "--seed", "0", "--out", os.devnull],
        capture_output=True, text=True, env=_fresh_env(), timeout=300,
    )
    assert proc.stdout.split() == ["0"], proc.stderr


@pytest.mark.parametrize("failure, code", [(None, 0), (ChartError("degenerate"), 5)])
def test_warnings_shown_only_when_a_report_is_written(tmp_path, monkeypatch, failure, code):
    def warn_then(cfg):
        warnings.warn("held back", RuntimeWarning)
        if failure is not None:
            raise failure
        return {"command": "spinor"}

    monkeypatch.setattr(cli, "spinor_report", warn_then)
    cfg = write_config(tmp_path, {"manifold": {"type": "heisenberg", "m": 1}})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["spinor", "--config", cfg, "--out", str(tmp_path / "r.json")]) == code
    assert [str(w.message) for w in caught] == (["held back"] if code == 0 else [])
