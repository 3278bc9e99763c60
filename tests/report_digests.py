"""Byte-identity sweep: SHA-256 digests of reports, algebras, chart arrays, frame data, loops.

    python tests/report_digests.py                    # digests of this checkout
    python tests/report_digests.py --root DIR         # digests of another checkout
    python tests/report_digests.py --compare OLD NEW  # diff two checkouts

Renders 109 reports exactly as ``kcontact`` writes them: the blocks of the
three ``kbench`` workloads (``holonomy_shipped``, ``verify_shipped`` and
``wide_products``), plus two more report seeds per config
(``workloads.report_seed`` of the next two sweeps), a ``spinor`` report of
each shipped config at each ``holonomy_shipped`` seed, three
``partly_shared`` holonomy reports at long horizons, where the test
oracle's pass of paths with Reeb controls
(``fd_oracles.reeb_sampled_path_transports``) accepts another draw than
the horizontal pass for one path (``PARTLY_SHARED``), and 16 ``general_path`` reports: holonomy
and verify on four charts off normal form (``GENERAL_PATH``), which take
the general route of the sampling pass.  The gauged charts come
from ``fd_oracles.gauged_chart`` in this script's own ``tests/``.  One
line per report: workload (``spinor``, ``partly_shared`` and
``general_path`` for the extra reports), config, seed and the digest of
the report text.

Each holonomy report adds one line of its algebra layer: ``algebra``,
workload and config, seed and the digest of a JSON object that holds the
SHA-256 of the bytes of the bases of ``h``, ``h0`` and the annihilator
closure (the report's three ``lie_closure`` results, in call order), of
each J block of its ``factor_split`` and of the basis of ``t`` from its
``t_complement``, recorded by wrapping those names in ``kcontact.cli``
while the report is rendered.  Bytes, not shapes, are digested: a zero
algebra's empty basis digests alike whatever its shape, ``(0, 0, 0)`` or
``(0, 2m, 2m)``.

It also digests 120 ``chart_arrays`` outputs: every chart of
``EXAMPLES`` and the three ``wide_products`` mixes, at orders 0-2, for
each of ``CHART_FIELD_MIXES``, on the fixed points of ``chart_points``,
which include coordinates of +0.0 and -0.0.  Each line is ``chart_arrays``,
chart and field mix, order and the digest of a JSON object that holds the
SHA-256 of every returned array's bytes, so a sign of zero that no report
shows still counts.  These take about 0.1 s.  And 8 ``frame_data`` outputs:
each of those charts at order 2 on the same points, one line per chart
(``frame_data``, chart, 2 and the digest of a JSON object that holds the
SHA-256 of every array field), so the connection and curvature fields that
no report shows count too.

And it digests 25 loops, the ones ``verify`` transports at each report of
the ``verify_shipped`` block (every shipped config at each of its report
seeds): the balanced loop sampled at ``LOOP_STEP``, as ``verify_report``
builds it.  On a chart in normal form its ``transport_equivalence``
residual reads 0.0 whatever bits either route produces, so the reports do
not show them.  Each line is ``loop``, config, seed and the digest of a JSON
object that holds the SHA-256 of the bytes of the horizontalized curve of
``transport_equivalence_check`` (``xs``, ``us``, ``ws``, ``theta_dot``), of
``transport(chart, loop, "adapted").tau`` and of ``transport(chart, tilde,
"schouten").tau``.  And 12 sampling passes: each chart of ``digest_charts``
and each ``GENERAL_PATH`` chart, changed as for its reports, from its
origin, one line per chart (``pass``, chart, seed and the digest of a JSON
object that holds the SHA-256 of the bytes of the endpoints and of the
transports that ``transport.sampled_path_transports`` returns at
``PASS_SAMPLER``), so a change to the bits of either route of the pass
shows before any report rounds it away.  These, the algebra and the
frame-data digests use public names only, so ``--compare`` runs them on
older checkouts too.

``--compare`` renders each checkout in a fresh process that imports
``kcontact`` from that checkout's ``src/`` and the workloads from its
``kbench/``, prints every entry whose digest differs (for a chart-array,
algebra, frame-data, loop or pass entry, each array whose digest changed), and
exits 1 unless all are byte-identical.  For each differing report it also
prints the largest relative change ``|new - old| / max(1, |old|)`` over
the report's float leaves, and lists every leaf (float, int, bool,
string, list) or shape that differs, so both "last bits only, structure
unchanged" and "only this leaf moved" are checked by the tool.  It also
prints the line total of each checkout's ``src/kcontact/*.py``, as
``wc -l`` counts it, so one run gives a change's size and its byte
identity.  BLAS runs on one thread, as in ``kbench``.  A sweep takes
about 13 s per checkout on 2 cores.  It is not part of the test suite.
"""

from __future__ import annotations

import os

THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import fields, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
EXTRA_SWEEPS = 2  # report seeds per config beyond each kbench block
# (label, config, sampler fields): for one path index the test oracle's
# pass with Reeb controls accepts another draw than the horizontal pass,
# whose path every chart conjugates the adapted samples along
PARTLY_SHARED = [
    ("bergman_h4.8", "bergman", {"horizon": 4.8, "segments": 16, "n_paths": 16, "seed": 3}),
    ("disc_disc_12_h4.8", "disc_disc_12", {"horizon": 4.8, "segments": 16, "n_paths": 16, "seed": 3}),
    ("bergman_h2.4", "bergman", {"horizon": 2.4, "n_paths": 8, "seed": 3}),
]
# (label, shipped config or ``wide_products`` mix, chart change): charts off
# normal form, whose sampling pass, Reeb flow and connection take the
# general route; each gives a holonomy and a verify report at each of
# GENERAL_PATH_SEEDS, at 8 paths
GENERAL_PATH = [
    ("gauged_bergman", "bergman", "gauged"),
    ("gauged_disc_disc_12", "disc_disc_12", "gauged"),
    ("gauged_disc3_b123", "disc3_b123", "gauged"),
    ("replaced_bergman", "bergman", "replaced"),
]
GENERAL_PATH_SEEDS = (0, 1)
# the names of ``kcontact.cli`` whose results the algebra digests read
ALGEBRA_CALLS = ("lie_closure", "factor_split", "t_complement")
# field mixes of the chart-array digests: all fields, theta, the frame and
# the metric alone, and the (th, xi, E) that sampled curves ask for
CHART_FIELD_MIXES = [("th", "xi", "E", "G"), ("th",), ("E",), ("G",), ("th", "xi", "E")]
CHART_POINTS = 40
# (paths, seed) of the sampling-pass digests
PASS_SAMPLER = {"n_paths": 16, "seed": 3}


def chart_points(n):
    """Fixed points of an n-dimensional chart for the chart-array digests:
    inside every built-in domain, and with coordinates of +0.0 and -0.0."""
    X = np.random.default_rng(11).uniform(-0.4, 0.4, (CHART_POINTS, n))
    X[0], X[1] = 0.0, -0.0
    for i in range(2, CHART_POINTS):
        X[i, i % n] = 0.0 if i % 2 else -0.0
    return X


def digest_charts():
    """Every built-in chart and the ``wide_products`` mixes, by label."""
    import workloads
    from kcontact import manifolds

    return {**manifolds.example_charts(), **{
        label: manifolds.chart_from_config({"type": "product", "factors": factors})
        for label, factors in workloads.WIDE.items()}}


def chart_digests():
    """``("chart_arrays", label, order, text)`` of every chart of
    ``digest_charts``: ``text`` holds, as JSON, the SHA-256 digest of the
    bytes of each array that ``chart_arrays`` returns for one field mix at
    one order, so a sign of zero counts."""
    from kcontact import manifolds

    rows = []
    for label, chart in digest_charts().items():
        X = chart_points(chart.dim)
        for order in range(3):
            for mix in CHART_FIELD_MIXES:
                arr = manifolds.chart_arrays(chart, X, order, fields=mix)
                digests = {prefix + f: hashlib.sha256(getattr(arr, prefix + f).tobytes()).hexdigest()
                           for f in mix for prefix in ("", "d", "d2")[: order + 1]}
                rows.append(("chart_arrays", f"{label}/{'+'.join(mix)}", order,
                             json.dumps(digests, sort_keys=True)))
    return rows


def frame_digests():
    """``("frame_data", label, 2, text)`` of every chart of ``digest_charts``:
    ``text`` holds, as JSON, the SHA-256 digest of the bytes of each array
    field of ``frame_data`` at order 2 on ``chart_points``."""
    from kcontact.connection import frame_data

    rows = []
    for label, chart in digest_charts().items():
        data = frame_data(chart, chart_points(chart.dim), order=2)
        digests = {f.name: hashlib.sha256(getattr(data, f.name).tobytes()).hexdigest()
                   for f in fields(data) if isinstance(getattr(data, f.name), np.ndarray)}
        rows.append(("frame_data", label, 2, json.dumps(digests, sort_keys=True)))
    return rows


def pass_digests(root):
    """``("pass", label, seed, text)`` of every chart of ``digest_charts``
    and of ``general_path_charts``: ``text`` holds, as JSON, the SHA-256
    digest of the bytes of the endpoints and the transports of one
    ``sampled_path_transports`` pass from the chart's origin at
    ``PASS_SAMPLER``."""
    from kcontact.transport import SamplerConfig, sampled_path_transports

    rows = []
    for label, chart in {**digest_charts(), **general_path_charts(root)}.items():
        sampler = SamplerConfig(**PASS_SAMPLER)
        _, ends, taus = sampled_path_transports(chart, chart.origin(), sampler)
        digests = {k: hashlib.sha256(a.tobytes()).hexdigest()
                   for k, a in (("endpoints", ends), ("transports", taus))}
        rows.append(("pass", label, PASS_SAMPLER["seed"], json.dumps(digests, sort_keys=True)))
    return rows


def reports(root):
    """``(workload, label, seed, text)`` of every report, rendered from ``root``."""
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "kbench")]
    import workloads
    from kcontact import cli

    if not Path(cli.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"kcontact was imported from {cli.__file__}, not from {root}")
    rows = []
    for name in workloads.NAMES:
        workload = workloads.load(name, root)
        for label, cfg in workloads.block(workloads.build(workload), workload.sweeps + EXTRA_SWEEPS):
            if workload.pipeline == "holonomy":
                rows += holonomy_rows(name, label, cfg)
            else:
                rows.append((name, label, cfg.sampler.seed,
                             cli.render_report(cli.verify_report(cfg))))
            if name == "holonomy_shipped":
                rows.append(("spinor", label, cfg.sampler.seed,
                             cli.render_report(cli.spinor_report(cfg))))
    for label, name, fields in PARTLY_SHARED:
        cfg = cli.load_config(str(root / "configs" / f"{name}.json"))
        cfg.sampler = replace(cfg.sampler, **fields)
        rows += holonomy_rows("partly_shared", label, cfg)
    return (rows + general_path_reports(root) + chart_digests() + frame_digests()
            + loop_digests(root) + pass_digests(root))


def holonomy_rows(workload, label, cfg):
    """The report row ``(workload, label, seed, text)`` of
    ``cli.holonomy_report(cfg)`` and its ``("algebra", "workload/label",
    seed, text)`` row: ``text`` holds, as JSON, the SHA-256 digest of the
    bytes of each algebra array named in the module docstring."""
    from kcontact import cli

    seen = {name: [] for name in ALGEBRA_CALLS}
    originals = {name: getattr(cli, name) for name in ALGEBRA_CALLS}

    def recording(name, fn):
        def call(*args, **kwargs):
            seen[name].append(fn(*args, **kwargs))
            return seen[name][-1]
        return call

    try:
        for name, fn in originals.items():
            setattr(cli, name, recording(name, fn))
        text = cli.render_report(cli.holonomy_report(cfg))
    finally:
        for name, fn in originals.items():
            setattr(cli, name, fn)
    arrays = dict(zip(("h", "h0", "annihilator"), (alg.basis for alg in seen["lie_closure"])))
    arrays.update({f"J{i}": J for split in seen["factor_split"]
                   for i, J in enumerate(split.J_blocks)})
    arrays.update({"t": t.basis for t, _ in seen["t_complement"]})
    digests = {k: hashlib.sha256(a.tobytes()).hexdigest() for k, a in arrays.items()}
    seed = cfg.sampler.seed
    return [(workload, label, seed, text),
            ("algebra", f"{workload}/{label}", seed, json.dumps(digests, sort_keys=True))]


def loop_digests(root):
    """``("loop", label, seed, text)`` of each ``verify_shipped`` report:
    ``text`` holds, as JSON, the SHA-256 digest of the bytes of each array
    of its loop named in the module docstring."""
    import workloads
    from kcontact import chart_from_config
    from kcontact.transport import (LOOP_STEP, balanced_loop, sample_curve, transport,
                                    transport_equivalence_check)

    workload = workloads.load("verify_shipped", root)
    rows = []
    for label, cfg in workloads.block(workloads.build(workload), workload.sweeps):
        chart = chart_from_config(cfg.manifold)
        x0 = chart.origin() if cfg.base_point is None else np.asarray(cfg.base_point, dtype=float)
        loop = balanced_loop(chart, x0, np.random.default_rng(cfg.sampler.seed + 1))
        sc = sample_curve(chart, loop, LOOP_STEP)
        _, tilde = transport_equivalence_check(chart, sc)
        arrays = {f: getattr(tilde, f) for f in ("xs", "us", "ws", "theta_dot")}
        arrays["adapted_tau"] = transport(chart, sc, "adapted").tau
        arrays["schouten_tau"] = transport(chart, tilde, "schouten").tau
        digests = {k: hashlib.sha256(a.tobytes()).hexdigest() for k, a in arrays.items()}
        rows.append(("loop", label, cfg.sampler.seed, json.dumps(digests, sort_keys=True)))
    return rows


def changed_chart(chart, how):
    """``chart`` off normal form, as a ``GENERAL_PATH`` entry changes it:
    gauged (``fd_oracles.gauged_chart`` in frame plane (1, 2), eps 0.7) or
    copied with ``dataclasses.replace``, which leaves normal form."""
    from fd_oracles import gauged_chart

    return gauged_chart(chart, (1, 2), 0.7) if how == "gauged" else replace(chart)


def general_path_config(root, name):
    """The run config of a ``GENERAL_PATH`` entry: a shipped config of
    ``root`` or a ``wide_products`` mix with the default sampler."""
    import workloads
    from kcontact import cli

    if name in workloads.WIDE:
        return cli.RunConfig.from_dict({"manifold": {"type": "product",
                                                     "factors": workloads.WIDE[name]}})
    return cli.load_config(str(Path(root) / "configs" / f"{name}.json"))


def general_path_charts(root):
    """``{label: chart}`` of ``GENERAL_PATH``, each chart changed as for its
    reports, built by public names only."""
    from kcontact import chart_from_config

    return {label: changed_chart(chart_from_config(general_path_config(root, name).manifold), how)
            for label, name, how in GENERAL_PATH}


def general_path_reports(root):
    """``("general_path", label, seed, text)`` of the ``GENERAL_PATH``
    reports: ``cli._resolve_chart`` is patched to change the chart it
    resolves by :func:`changed_chart`."""
    from kcontact import cli

    resolve = cli._resolve_chart
    rows = []
    try:
        for label, name, how in GENERAL_PATH:
            cfg = general_path_config(root, name)

            def changed(cfg, how=how):
                chart, x0 = resolve(cfg)
                return changed_chart(chart, how), x0

            cli._resolve_chart = changed
            for seed in GENERAL_PATH_SEEDS:
                cfg.sampler = replace(cfg.sampler, n_paths=8, seed=seed)
                rows += holonomy_rows("general_path", f"{label}/holonomy_report", cfg)
                rows.append(("general_path", f"{label}/verify_report", seed,
                             cli.render_report(cli.verify_report(cfg))))
    finally:
        cli._resolve_chart = resolve
    return rows


def _sweep(root):
    """``{(workload, label, seed): text}`` of ``root``, from a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    code = ("import json, sys; sys.path.insert(0, sys.argv[1]); import report_digests; "
            "json.dump(report_digests.reports(sys.argv[2]), sys.stdout)")
    out = subprocess.run([sys.executable, "-c", code, str(Path(__file__).parent), str(root)],
                         env=env, capture_output=True, text=True, check=True).stdout
    return {(w, label, str(seed)): text for w, label, seed, text in json.loads(out)}


def _is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _has_float(node):
    if isinstance(node, dict):
        return any(_has_float(v) for v in node.values())
    if isinstance(node, list):
        return any(_has_float(v) for v in node)
    return isinstance(node, float)


def leaf_changes(old, new, path=""):
    """``(largest relative float change, [(path, old, new), ...])`` of two
    parsed reports; the list holds every leaf that differs.

    A float that renders as an integer parses as an int, so a number that
    is a float on either side counts as a float leaf.  Lists without floats
    are compared whole; a dict whose keys or a list whose length changed is
    a change of shape at its path.
    """
    if _is_number(old) and _is_number(new) and (isinstance(old, float) or isinstance(new, float)):
        return abs(new - old) / max(1.0, abs(old)), ([] if old == new else [(path, old, new)])
    if isinstance(old, dict) and isinstance(new, dict) and old.keys() == new.keys():
        parts = [leaf_changes(old[k], new[k], f"{path}.{k}") for k in sorted(old)]
    elif (isinstance(old, list) and isinstance(new, list) and len(old) == len(new)
          and _has_float(old + new)):
        parts = [leaf_changes(a, b, f"{path}[{i}]") for i, (a, b) in enumerate(zip(old, new))]
    else:
        return 0.0, ([] if old == new else [(path, old, new)])
    return max((r for r, _ in parts), default=0.0), [c for _, cs in parts for c in cs]


def src_lines(root):
    """Line total of ``src/kcontact/*.py`` in the checkout ``root``."""
    return sum(p.read_bytes().count(b"\n") for p in Path(root, "src", "kcontact").glob("*.py"))


def compare(old, new):
    a, b = _sweep(old), _sweep(new)
    differ = sorted(k for k in a.keys() & b.keys() if a[k] != b[k])
    missing = sorted(a.keys() ^ b.keys())
    for key in differ:
        rel, changes = leaf_changes(json.loads(a[key]), json.loads(b[key]))
        print("differs:", *key, f"largest relative float change {rel:.2e}")
        for path, was, now in changes:
            print(f"  leaf {path or '.'}: {json.dumps(was)} -> {json.dumps(now)}")
    for key in missing:
        print("only in one checkout:", *key)
    kinds = {"algebra": "algebra digests", "chart_arrays": "chart-array digests",
             "frame_data": "frame-data digests", "loop": "loop digests",
             "pass": "pass digests"}
    for what in ("reports", *kinds.values()):
        keys = {k for k in a.keys() | b.keys() if kinds.get(k[0], "reports") == what}
        same = sum(k in a and k in b and a[k] == b[k] for k in keys)
        print(f"{same} of {len(keys)} {what} byte-identical")
    print(f"src/kcontact/*.py: {src_lines(old)} -> {src_lines(new)} lines")
    return 1 if differ or missing else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=str(ROOT), help="checkout to render (default: this one)")
    p.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="diff two checkouts")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    for *row, text in reports(args.root):
        print(*row, hashlib.sha256(text.encode()).hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
