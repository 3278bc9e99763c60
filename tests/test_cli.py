import json
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from kcontact import cli, example_charts
from kcontact.errors import ChartError
from kcontact.holonomy import as_samples_adapted


CONFIG_DIR = "configs"


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


def test_domain_violation_exit_3(tmp_path):
    cfg = write_config(tmp_path, {
        "manifold": {"type": "heisenberg", "m": 2},
        "base_point": [9.0, 0, 0, 0, 0],
    })
    assert run(["verify", "--config", cfg]) == 3


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


def test_list_manifolds(capsys):
    assert run(["list-manifolds"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["types"] == ["heisenberg", "product"]
    assert set(payload["factor_kinds"]) == {
        "poincare_disc", "bergman_ball", "perturbed_disc"}


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
], ids=["tolerances_list", "tolerance_string", "base_point_string", "base_point_scalar",
        "negative_seed", "report_list", "fractional_n_paths", "fractional_seed",
        "boolean_seed", "fractional_segments", "fractional_m", "boolean_complex_dim",
        "outputs_list", "zero_span_tol", "negative_span_tol", "span_tol_above_one",
        "zero_ode_tol"])
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
    ["verify", "--out", "{tmp}/missing/r.json"],
], ids=["negative_seed", "missing_report_dir"])
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
    # section says; a vertical control would give a theta-integral of 0.26
    from kcontact.transport import sampled_path_transports

    raw = read(Path(__file__).resolve().parent.parent / "configs" / "bergman.json")
    raw["sampler"] = {"vertical_magnitude": 0.3, "n_paths": 8}
    cfg = cli.RunConfig.from_dict(raw)
    chart, x0 = cli._resolve_chart(cfg)
    (paths, _, _, fs), _ = sampled_path_transports(chart, x0, cfg.sampler)
    assert len(fs) == 8 and np.max(np.abs(fs)) < 1e-12
    assert all(p.vertical is None for p in paths)


@pytest.mark.parametrize("command", ["holonomy", "spinor"])
def test_report_integrates_one_batch(monkeypatch, command):
    # heisenberg paths never escape, so the horizontal and the adapted
    # half of the one sampling pass are integrated as a single batch
    from kcontact import holonomy, transport

    calls = {"integrate": 0, "pass": 0}
    integrate, sample_pass = transport._integrate_controls, holonomy.sampled_path_transports

    def counting_integrate(*args, **kwargs):
        calls["integrate"] += 1
        return integrate(*args, **kwargs)

    def counting_pass(*args, **kwargs):
        calls["pass"] += 1
        return sample_pass(*args, **kwargs)

    monkeypatch.setattr(transport, "_integrate_controls", counting_integrate)
    monkeypatch.setattr(holonomy, "sampled_path_transports", counting_pass)
    cfg = cli.load_config(str(Path(__file__).resolve().parent.parent / "configs" / "heisenberg.json"))
    cfg.sampler = replace(cfg.sampler, n_paths=16)
    report = cli.holonomy_report(cfg) if command == "holonomy" else cli.spinor_report(cfg)
    assert report["command"] == command
    assert calls == {"integrate": 1, "pass": 1}


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
        out = samples(chart, x, sampler, *args)
        out["annihilator"] = as_samples_adapted(other, np.zeros(other.dim), sampler)
        return out

    monkeypatch.setattr(cli, "holonomy_samples", disagreeing)
    out = tmp_path / "rep.json"
    bergman = Path(__file__).resolve().parent.parent / "configs" / "bergman.json"
    assert run(["holonomy", "--config", str(bergman),
                "--seed", "0", "--paths", "8", "--out", str(out)]) == 1
    rep = read(out)
    assert rep["cross_variant"]["residual"] > cli.CROSS_VARIANT_TOL
    assert rep["cross_variant"]["dims"] == {"wagner": 3, "annihilator": 2}


@pytest.mark.parametrize("factor, message", [
    ({"kind": "poincare_disc", "curvature": 1e-300}, "SVD did not converge"),
    ({"kind": "perturbed_disc", "b": 1.0, "epsilon": 1e8}, "Eigenvalues did not converge"),
], ids=["tiny_curvature", "huge_epsilon"])
def test_linalg_failure_exit_5(tmp_path, capsys, factor, message):
    cfg = write_config(tmp_path, {
        "manifold": {"type": "product", "factors": [factor, {"kind": "poincare_disc"}]},
    })
    assert run(["verify", "--config", cfg, "--seed", "0"]) == 5
    err = capsys.readouterr().err
    assert err == f"numerical failure: {message}\n"


def test_numerical_failure_stderr_is_one_line(tmp_path):
    # numpy RuntimeWarnings raised before the failure stay off stderr
    cfg = write_config(tmp_path, {
        "manifold": {"type": "product", "factors": [
            {"kind": "poincare_disc", "curvature": 1e-300}, {"kind": "poincare_disc"}]},
    })
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "kcontact.cli", "verify", "--config", cfg, "--seed", "0"],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 5
    assert proc.stderr.splitlines() == ["numerical failure: SVD did not converge"]


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
