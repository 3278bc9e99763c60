"""Smoke test of the benchmark itself; takes a few seconds.

    python3 kbench/smoke.py

Checks that
* a traced report is byte-identical to the untraced one, and the spans
  account for the traced report's time;
* the metric names and units ``run.py`` emits match ``BENCHMARK.json`` in
  both directions, and so do the workload names;
* the checker rejects corrupted reports;
* the reference kernel and the speed meter never import ``kcontact``.

Exits 0 when every check passes and 1 otherwise, printing one line per
check.
"""

from __future__ import annotations

import ast
import copy
import json
import subprocess
import sys

import run  # first: it pins BLAS to one thread before numpy loads
import tracing
import workloads
from speed import SpeedMeter

FAILURES = []


def check(name, ok, detail=""):
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILURES.append(name)


def traced_matches_untraced():
    sys.path.insert(0, str(run.SRC))
    from kcontact import cli

    raw = json.loads((run.ROOT / "configs" / "disc_disc_11.json").read_text())
    raw["sampler"]["n_paths"] = 4
    cfg = workloads.with_seed(cli.RunConfig.from_dict(raw), 7)
    plain = cli.render_report(cli.holonomy_report(cfg))
    meter = SpeedMeter()
    tracer = tracing.Tracer(clock=meter.clock)

    def traced_call():
        tracer.enter(tracing.ROOT_SPAN)
        try:
            return cli.render_report(cli.holonomy_report(cfg))
        finally:
            tracer.exit()

    with tracer.installed() as replaced:
        text, timing = meter.time(traced_call)
    check("traced report is byte-identical to the untraced one", text == plain)
    check("wrappers are removed after the traced block",
          all(getattr(mod, attr) is orig for mod, attr, orig in replaced))
    homes = {(mod.__name__, attr) for mod, attr, _ in replaced}
    missing = [f"kcontact.{m}.{f}" for m, f, _, _ in tracing.TARGETS
               if (f"kcontact.{m}", f) not in homes]
    check("every traced function was found in its home module", not missing, missing)
    share = sum(tracer.self_s.values()) / timing.raw_s
    check("span self times account for the traced report", 0.97 < share <= 1.0 + 1e-9,
          f"share {share:.4f}")
    check("four sampling passes of four paths each",
          tracer.counts["transport.sampling_passes"] == 4
          and tracer.counts["transport.paths_integrated"]
          - tracer.counts["transport.redraws"] == 16,
          dict(tracer.counts))
    return json.loads(plain), cfg


def names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for section, emitted in (("end_to_end", run.END_TO_END_UNITS),
                             ("per_layer", run.PER_LAYER_UNITS)):
        declared = {m["name"]: m["unit"] for m in spec[section]}
        check(f"{section} names and units match BENCHMARK.json", declared == emitted,
              f"only declared: {sorted(set(declared) - set(emitted))}, "
              f"only emitted: {sorted(set(emitted) - set(declared))}, "
              f"unit differs: {sorted(k for k in declared.keys() & emitted.keys() if declared[k] != emitted[k])}")
    declared = [w["name"] for w in spec["workloads"]]
    check("workload names match BENCHMARK.json", sorted(declared) == sorted(workloads.NAMES))


def checker_rejects_corruption(report, cfg):
    check("checker accepts the real report", not workloads.check("holonomy", "disc_disc_11", cfg, report),
          workloads.check("holonomy", "disc_disc_11", cfg, report))
    corruptions = {
        "dims": lambda r: r["dims"].update(adapted=r["dims"]["adapted"] + 1),
        "codim": lambda r: r.update(codim=r["codim"] + 1),
        "ideal": lambda r: r.update(ideal=not r["ideal"]),
        "contained": lambda r: r.update(contained=not r["contained"]),
        "cross residual": lambda r: r["cross_variant"].update(residual=1e-3),
        "cross residual NaN": lambda r: r["cross_variant"].update(residual=float("nan")),
        "spinor kernel": lambda r: r["spinor_kernel"].update(schouten=r["spinor_kernel"]["schouten"] + 1),
        "seed": lambda r: r.update(seed=r["seed"] + 1),
    }
    for name, corrupt in corruptions.items():
        bad = copy.deepcopy(report)
        corrupt(bad)
        check(f"checker rejects corrupted {name}", bool(workloads.check("holonomy", "disc_disc_11", cfg, bad)))
    verify = {"command": "verify", "seed": cfg.sampler.seed, "pass": True,
              "checks": {"torsion": {"pass": True}, "bianchi": {"pass": True}}}
    check("checker accepts a passing verify report", not workloads.check("verify", "bergman", cfg, verify))
    bad = copy.deepcopy(verify)
    bad["checks"]["bianchi"]["pass"] = False
    check("checker rejects a verify report with a failed check",
          bool(workloads.check("verify", "bergman", cfg, bad)))


def kernel_is_independent():
    for module in ("refkernel", "speed"):
        tree = ast.parse((run.HERE / f"{module}.py").read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom):
                imported.add((node.module or "").split(".")[0])
        check(f"{module}.py imports no kcontact module", "kcontact" not in imported, sorted(imported))
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import speed; "
             "print(any(m.split('.')[0] == 'kcontact' for m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe, str(run.HERE)], capture_output=True,
                         text=True, timeout=60)
    check("importing the speed meter loads no kcontact module", out.stdout.strip() == "False",
          out.stdout + out.stderr)


def main():
    report, cfg = traced_matches_untraced()
    names_match_benchmark_json()
    checker_rejects_corruption(report, cfg)
    kernel_is_independent()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
