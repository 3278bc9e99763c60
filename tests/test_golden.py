"""Byte-identity gate: rendered reports must match the stored golden files.

Each case is a shipped config with a fixed seed.  The bergman and
disc_disc_11 holonomy seeds and the bergman spinor seed make escaped paths
that the sampler redraws, so the redraw logic is covered too.  The verify
cases cover the integrators that only verify runs: the sampled-curve
transport, the Reeb flow with the pushforward of the loop's velocities and
the theta-transport ODE.
The ``disc3_b123`` case (three Poincare discs, 2m = 6, 8 paths) pins a
product with three complex dimensions; its config lives in
``tests/golden/configs/`` so that the shipped ``configs/`` set stays as
it is.
After an intended change to report contents, rewrite the golden files
with

    PYTHONPATH=src python tests/test_golden.py

``STRUCTURE`` pins the structural fields of every holonomy and spinor
case on its own, so that a re-capture cannot move a dimension, a block or
a spinor kernel without a visible edit here.
"""

import functools
import json
from dataclasses import replace
from pathlib import Path

import pytest

from kcontact import cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

# (command, config name, seed, paths override or None)
CASES = [
    ("holonomy", "heisenberg", 1826701614, None),
    ("holonomy", "bergman", 1114088974, None),
    ("holonomy", "disc_disc_11", 2103381652, None),
    ("holonomy", "disc_disc_12", 1081993678, None),
    ("holonomy", "perturbed_disc_disc", 967688993, None),
    ("spinor", "bergman", 1121323793, 48),
    ("verify", "perturbed_disc_disc", 1295943086, None),
    ("verify", "bergman", 1121323793, None),
    ("verify", "disc_disc_12", 1081993678, None),
    ("holonomy", "disc3_b123", 1826701614, None),
]


def _holonomy(schouten, adapted, blocks, kernels):
    return {
        "dims": {"schouten": schouten, "adapted": adapted},
        "codim": adapted - schouten,
        "contained": True,
        "ideal": True,
        "blocks": blocks,
        "trivial_block": [] if blocks else [0, 1, 2, 3],
        "spinor_kernel": dict(zip(("schouten", "adapted"), kernels)),
        "cross_variant": {"dims": {"wagner": schouten, "annihilator": schouten}},
    }


# structural fields of each holonomy and spinor case
STRUCTURE = {
    "holonomy-heisenberg-1826701614": _holonomy(0, 0, [], (4, 4)),
    "holonomy-bergman-1114088974": _holonomy(3, 4, [[0, 1, 2, 3]], (2, 0)),
    "holonomy-disc_disc_11-2103381652": _holonomy(1, 2, [[0, 1], [2, 3]], (2, 0)),
    "holonomy-disc_disc_12-1081993678": _holonomy(1, 2, [[0, 1], [2, 3]], (0, 0)),
    "holonomy-perturbed_disc_disc-967688993": _holonomy(2, 2, [[0, 1], [2, 3]], (0, 0)),
    "spinor-bergman-1121323793": {
        "kernel_dims": {"schouten": 2, "adapted": 0, "trivial_algebra": 4},
    },
    "holonomy-disc3_b123-1826701614": _holonomy(2, 3, [[0, 1], [2, 3], [4, 5]], (0, 0)),
}

PIPELINES = {
    "holonomy": cli.holonomy_report,
    "spinor": cli.spinor_report,
    "verify": cli.verify_report,
}


def _case_id(case):
    command, name, seed, _ = case
    return f"{command}-{name}-{seed}"


def _config_path(name):
    shipped = ROOT / "configs" / f"{name}.json"
    return shipped if shipped.exists() else GOLDEN / "configs" / f"{name}.json"


def render(case):
    command, name, seed, paths = case
    args = ["--config", str(_config_path(name)), "--seed", str(seed)]
    if paths is not None:
        args += ["--paths", str(paths)]
    parsed = cli.build_parser().parse_args([command] + args)
    cfg = cli._apply_overrides(cli.load_config(parsed.config), parsed)
    return cli.render_report(PIPELINES[command](cfg))


_rendered = functools.cache(render)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_report_matches_golden(case):
    expected = (GOLDEN / f"{_case_id(case)}.json").read_bytes()
    assert _rendered(case).encode() == expected


def _structure(report):
    if report["command"] == "spinor":
        return {"kernel_dims": report["kernel_dims"]}
    fields = ("dims", "codim", "contained", "ideal", "blocks", "trivial_block", "spinor_kernel")
    out = {k: report[k] for k in fields}
    out["cross_variant"] = {"dims": report["cross_variant"]["dims"]}
    return out


@pytest.mark.parametrize("case", [c for c in CASES if _case_id(c) in STRUCTURE], ids=_case_id)
def test_report_structure(case):
    assert _structure(json.loads(_rendered(case))) == STRUCTURE[_case_id(case)]


@pytest.mark.parametrize("case", [c for c in CASES if c[:2] in {
    ("holonomy", "bergman"), ("holonomy", "disc_disc_11")}], ids=_case_id)
def test_t_sign_does_not_reach_the_report(case, monkeypatch):
    # t_complement fixes t only up to sign; the report orients it
    t_complement = cli.t_complement

    def flipped(h_big, h_small):
        t, t_perp = t_complement(h_big, h_small)
        return replace(t, basis=-t.basis), t_perp

    monkeypatch.setattr(cli, "t_complement", flipped)
    assert render(case).encode() == (GOLDEN / f"{_case_id(case)}.json").read_bytes()


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{_case_id(case)}.json").write_bytes(render(case).encode())
        print("wrote", _case_id(case))
