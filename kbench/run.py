"""Benchmark of the kcontact report pipelines.

    python3 kbench/run.py --workload holonomy_shipped --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  One single-threaded closed loop with one
caller calls ``kcontact.cli.holonomy_report`` or ``verify_report`` on the
workload's configs, renders each report as the CLI does, checks it, and
times it with the machine-speed correction of ``speed.py``.  A run measures
the workload's block of reports as many whole times as fit in
``--seconds`` by the workload's nominal block time, at least once.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` takes one
report seed per config, runs every report untraced and then traced,
requires the two renderings to be byte-identical, and prints the per-layer
metrics.  The last line of
standard output is the result object; the line before it holds the
diagnostics (raw and reference seconds, correction factors, provenance).
"""

from __future__ import annotations

import os

# BLAS reads its thread count when numpy loads: pin one thread first.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402
from refkernel import REF_NOMINAL_S  # noqa: E402
from speed import SpeedMeter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 9      # fresh processes per run; setup_s is their median
SETUP_TIMEOUT_S = 60
WARMUP_CONFIG = "heisenberg"
WARMUP_SEED = 0
TAIL_BEYOND = 10      # report_tail_s keeps this many reports beyond it

END_TO_END_UNITS = {
    "reports_per_s": "1/s",
    "report_p50_s": "s",
    "report_tail_s": "s",
    "pass_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER_UNITS = {
    **{f"{name}.self_s": "s" for name in tracing.SPAN_NAMES},
    **{name: "count" for name in tracing.COUNT_NAMES},
    "transport.path_accept_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def _fail(message):
    print(f"kbench: {message}", file=sys.stderr)
    return 2


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# one report


class Runner:
    """Calls one pipeline on one config and records the timed outcome."""

    def __init__(self, workload, meter):
        from kcontact import cli

        self.cli = cli
        self.pipeline = workload.pipeline
        self.fn = cli.holonomy_report if workload.pipeline == "holonomy" else cli.verify_report
        self.meter = meter

    def _call(self, cfg, tracer=None):
        if tracer is not None:
            tracer.enter(tracing.ROOT_SPAN)
        try:
            # render_report is looked up on the module so the traced run sees its wrapper
            return self.cli.render_report(self.fn(cfg)), None
        except Exception:  # a failing report is an outcome to count, not a crash
            return None, traceback.format_exc(limit=3)
        finally:
            if tracer is not None:
                tracer.exit()

    def run(self, label, cfg, tracer=None):
        (text, error), timing = self.meter.time(lambda: self._call(cfg, tracer))
        problems = [error] if error else workloads.check(self.pipeline, label, cfg, json.loads(text))
        return {"label": label, "seed": cfg.sampler.seed, "text": text,
                "problems": problems, "timing": timing}


def _record(rec):
    t = rec["timing"]
    return {
        "label": rec["label"], "seed": rec["seed"], "ok": not rec["problems"],
        "problems": rec["problems"], "raw_s": t.raw_s, "corrected_s": t.corrected_s,
        "factor": t.factor, "bracket_factor": t.bracket_factor,
        "ref_before_s": t.ref_before_s, "ref_after_s": t.ref_after_s,
        "ref_inside_n": len(t.ref_inside_s),
        "ref_inside_median_s": statistics.median(t.ref_inside_s) if t.ref_inside_s else None,
    }


def schedule(reports, seed, passes):
    """Yield ``reports`` ``passes`` times, each time in an order drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    for _ in range(passes):
        for j in rng.permutation(len(reports)):
            yield reports[j]


# ---------------------------------------------------------------------------
# statistics


def tail(values):
    """The highest nearest-rank percentile with ``TAIL_BEYOND`` values beyond it.

    Returns ``(value, percentile)``.  The number of reports, and so the
    percentile, is fixed by the workload and ``--seconds``.
    """
    ordered = sorted(values)
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def summary(values):
    return {"median": statistics.median(values), "min": min(values), "max": max(values)}


# ---------------------------------------------------------------------------
# set-up time, measured in fresh processes


def setup_times(workload_name):
    cmd = [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload_name]
    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=SETUP_TIMEOUT_S)
        if out.returncode != 0:
            raise RuntimeError(f"setup probe failed: {out.stderr.strip()}")
        probes.append(json.loads(out.stdout.strip().splitlines()[-1]))
    return probes


# ---------------------------------------------------------------------------
# provenance


def _git_commit(root):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(src):
    h = hashlib.sha256()
    for path in sorted((src / "kcontact").rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return h.hexdigest()


def provenance(workload, seed):
    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "git_commit": _git_commit(ROOT),
        "src_digest": source_digest(SRC),
        "workload": workload.name,
        "workload_seed": seed,
        "config_hashes": {label: workloads.config_hash(raw) for label, raw in workload.configs},
        "ref_nominal_s": REF_NOMINAL_S,
    }


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(workload, built, runner, args):
    setups = setup_times(workload.name)
    reports = workloads.block(built, workload.sweeps)
    records = [runner.run(label, cfg)
               for label, cfg in schedule(reports, args.seed, workload.passes(args.seconds))]
    corrected = [r["timing"].corrected_s for r in records]
    raw = [r["timing"].raw_s for r in records]
    failed = sum(1 for r in records if r["problems"])
    metrics = {
        "reports_per_s": len(records) / sum(corrected),
        "report_p50_s": statistics.median(corrected),
        "report_tail_s": tail(corrected)[0],
        "pass_ratio": (len(records) - failed) / len(records),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(p["corrected_s"] for p in setups),
    }
    diagnostics = {
        "reports": [_record(r) for r in records],
        "tail": {"percentile": tail(corrected)[1], "samples": len(records),
                 "beyond": sum(1 for v in corrected if v > metrics["report_tail_s"])},
        "raw": {"reports_per_s": len(records) / sum(raw),
                "report_p50_s": statistics.median(raw),
                "report_tail_s": tail(raw)[0],
                "setup_s": statistics.median(p["raw_s"] for p in setups)},
        "factor": summary([r["timing"].factor for r in records]),
        "bracket_factor": summary([r["timing"].bracket_factor for r in records]),
        "setup_probes": setups,
    }
    return records, failed, metrics, END_TO_END_UNITS, diagnostics


def traced(workload, built, runner, args):
    tracer = tracing.Tracer(clock=runner.meter.clock)
    self_s = dict.fromkeys(tracing.SPAN_NAMES, 0.0)
    counts = dict.fromkeys(tracing.COUNT_NAMES, 0.0)
    records = []
    traced_raw = untraced_cor = traced_cor = 0.0
    failed = 0
    # one report seed per config keeps the doubled traced run short
    for label, cfg in schedule(workloads.block(built, 1), args.seed, workload.passes(args.seconds)):
        plain = runner.run(label, cfg)
        tracer.reset()
        with tracer.installed():
            rec = runner.run(label, cfg, tracer)
        if plain["text"] != rec["text"]:
            rec["problems"] = rec["problems"] + ["traced report differs from untraced"]
        failed += bool(plain["problems"]) + bool(rec["problems"])
        factor = rec["timing"].factor
        for name, value in tracer.self_s.items():
            self_s[name] += value * factor
        for name, value in tracer.counts.items():
            counts[name] += value
        traced_raw += sum(tracer.self_s.values())
        untraced_cor += plain["timing"].corrected_s
        traced_cor += rec["timing"].corrected_s
        records += [plain, rec]
    pairs = len(records) // 2
    metrics = {f"{name}.self_s": value / pairs for name, value in self_s.items()}
    metrics.update({name: value / pairs for name, value in counts.items()})
    integrated = counts["transport.paths_integrated"]
    accepted = integrated - counts["transport.redraws"]
    metrics["transport.path_accept_ratio"] = accepted / integrated if integrated else 1.0
    metrics["trace.overhead_ratio"] = traced_cor / untraced_cor
    traced_records = records[1::2]
    diagnostics = {
        "reports": [dict(_record(r), traced=bool(i % 2)) for i, r in enumerate(records)],
        # the spans' self times add up to the traced reports' time
        "trace": {"self_s_total_raw": traced_raw,
                  "traced_report_raw_s": sum(r["timing"].raw_s for r in traced_records),
                  "accounted_share": traced_raw / sum(r["timing"].raw_s for r in traced_records)},
        "factor": summary([r["timing"].factor for r in records]),
    }
    return records, failed, metrics, PER_LAYER_UNITS, diagnostics


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "kcontact" / "__init__.py").is_file():
        return _fail(f"no kcontact sources under {SRC}")
    sys.path.insert(0, str(SRC))
    try:
        workload = workloads.load(args.workload, ROOT)
    except OSError as exc:
        return _fail(f"cannot read the workload's configs: {exc}")
    built = workloads.build(workload)
    meter = SpeedMeter()
    runner = Runner(workload, meter)
    # one report on the cheapest shipped config, with one path, loads what
    # the pipeline imports lazily
    from kcontact.cli import RunConfig

    warm_cfg = RunConfig.from_dict(json.loads((ROOT / "configs" / f"{WARMUP_CONFIG}.json").read_text()))
    warm_cfg = workloads.with_seed(warm_cfg, WARMUP_SEED)
    runner.run(WARMUP_CONFIG, dataclasses.replace(
        warm_cfg, sampler=dataclasses.replace(warm_cfg.sampler, n_paths=1)))
    kind = traced if args.trace else end_to_end
    records, failed, metrics, units, diagnostics = kind(workload, built, runner, args)
    diagnostics["provenance"] = provenance(workload, args.seed)
    diagnostics["run"] = {"workload": args.workload, "seed": args.seed,
                          "seconds": args.seconds, "trace": args.trace}
    print(json.dumps({"diagnostics": diagnostics}))
    result = {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in sorted(units)},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
