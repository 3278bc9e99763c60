"""Byte-identity sweep: SHA-256 digests of rendered reports.

    python tests/report_digests.py                    # digests of this checkout
    python tests/report_digests.py --root DIR         # digests of another checkout
    python tests/report_digests.py --compare OLD NEW  # diff two checkouts

Renders 70 reports exactly as ``kcontact`` writes them: the blocks of the
three ``kbench`` workloads (``holonomy_shipped``, ``verify_shipped`` and
``wide_products``), plus two more report seeds per config
(``workloads.report_seed`` of the next two sweeps).  One line per report:
workload, config, seed and the digest of the report text.

``--compare`` renders each checkout in a fresh process that imports
``kcontact`` from that checkout's ``src/`` and the workloads from its
``kbench/``, prints every report whose digest differs, and exits 1 unless
all reports are byte-identical.  BLAS runs on one thread, as in ``kbench``.
A sweep takes about 20 s per checkout.  It is not part of the test suite.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
EXTRA_SWEEPS = 2  # report seeds per config beyond each kbench block


def digests(root):
    """``(workload, label, seed, sha256)`` of every report, rendered from ``root``."""
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "kbench")]
    import workloads
    from kcontact import cli

    if not Path(cli.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"kcontact was imported from {cli.__file__}, not from {root}")
    rows = []
    for name in workloads.NAMES:
        workload = workloads.load(name, root)
        fn = cli.holonomy_report if workload.pipeline == "holonomy" else cli.verify_report
        for label, cfg in workloads.block(workloads.build(workload), workload.sweeps + EXTRA_SWEEPS):
            text = cli.render_report(fn(cfg))
            rows.append((name, label, cfg.sampler.seed, hashlib.sha256(text.encode()).hexdigest()))
    return rows


def _sweep(root):
    """The digest lines of ``root``, from a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    out = subprocess.run([sys.executable, __file__, "--root", str(root)], env=env,
                         capture_output=True, text=True, check=True).stdout
    return dict((tuple(line.split()[:3]), line.split()[3]) for line in out.splitlines())


def compare(old, new):
    a, b = _sweep(old), _sweep(new)
    differ = sorted(k for k in a.keys() & b.keys() if a[k] != b[k])
    missing = sorted(a.keys() ^ b.keys())
    for key in differ:
        print("differs:", *key)
    for key in missing:
        print("only in one checkout:", *key)
    same = len(a.keys() & b.keys()) - len(differ)
    print(f"{same} of {len(a.keys() | b.keys())} reports byte-identical")
    return 1 if differ or missing else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=str(ROOT), help="checkout to render (default: this one)")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="diff two checkouts")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    for row in digests(args.root):
        print(*row)
    return 0


if __name__ == "__main__":
    sys.exit(main())
