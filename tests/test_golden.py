"""Byte-identity gate: rendered reports must match the stored golden files.

Each case is a shipped config with a fixed seed.  The bergman and
disc_disc_11 holonomy seeds and the bergman spinor seed make escaped paths
that the sampler redraws, so the redraw logic is covered too.  After an
intended change to report contents, rewrite the golden files with

    PYTHONPATH=src python tests/test_golden.py
"""

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
]

PIPELINES = {
    "holonomy": cli.holonomy_report,
    "spinor": cli.spinor_report,
    "verify": cli.verify_report,
}


def _case_id(case):
    command, name, seed, _ = case
    return f"{command}-{name}-{seed}"


def render(case):
    command, name, seed, paths = case
    args = ["--config", str(ROOT / "configs" / f"{name}.json"), "--seed", str(seed)]
    if paths is not None:
        args += ["--paths", str(paths)]
    parsed = cli.build_parser().parse_args([command] + args)
    cfg = cli._apply_overrides(cli.load_config(parsed.config), parsed)
    return cli.render_report(PIPELINES[command](cfg))


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_report_matches_golden(case):
    expected = (GOLDEN / f"{_case_id(case)}.json").read_bytes()
    assert render(case).encode() == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in CASES:
        (GOLDEN / f"{_case_id(case)}.json").write_bytes(render(case).encode())
        print("wrote", _case_id(case))
