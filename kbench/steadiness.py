"""Run one workload several times and report how steady its metrics are.

    python3 kbench/steadiness.py --workload holonomy_shipped --runs 10

Run i gets seed i, for i = 1..runs.  For every metric the script prints the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``), the
interquartile spread as a share of the median, and the largest relative
deviation of one run from the median.  With ``--trace 0`` it also prints
the spread of the uncorrected (raw-second) figures from the diagnostics,
so the effect of the machine-speed correction shows, and compares each
end-to-end spread with a third of the metric's bound in ``BENCHMARK.json``.
``--out FILE`` keeps every run's result and diagnostics as JSON lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"run failed ({out.returncode}): {out.stderr.strip()[-2000:]}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["diagnostics"]


def summarize(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    rel = (q3 - q1) / med if med else float("nan")
    dev = max(abs(v - med) for v in values) / med if med else float("nan")
    return med, q1, q3, rel, dev


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", help="append each run's result and diagnostics to this file")
    args = p.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    seeds = range(1, args.runs + 1)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    results, raws = [], []
    for seed in seeds:
        result, diag = run_once(args.workload, seed, seconds, args.trace)
        results.append(result)
        raws.append(diag.get("raw", {}))
        if args.out:
            with open(args.out, "a") as fh:
                fh.write(json.dumps({"seed": seed, "result": result, "diagnostics": diag}) + "\n")
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)

    print(f"\n{args.workload}, {len(seeds)} runs of {seconds} s, trace={args.trace}")
    print(f"{'metric':52s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s} {'maxdev':>8s}")
    worst = 0.0
    for name in sorted(results[0]["metrics"]):
        values = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, rel, dev = summarize(values)
        flag = ""
        if name in bounds:
            ok = rel < bounds[name] / 3
            worst = max(worst, rel / bounds[name])
            flag = f"  bound {bounds[name]}: {'steady' if ok else 'NOT STEADY'}"
        print(f"{name:52s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} {dev:8.4f}{flag}")
        if name in raws[0]:
            rv = [r[name] for r in raws]
            med, q1, q3, rel, dev = summarize(rv)
            print(f"{'  raw ' + name:52s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.4f} {dev:8.4f}")
    if bounds and args.trace == 0:
        print(f"\nlargest spread as a share of its bound: {worst:.3f} (steady below 0.333)")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
