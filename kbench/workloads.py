"""The benchmark's workloads, their generated inputs and the report checker.

A workload is a fixed list of configs and one pipeline.  Its block is a
fixed set of reports: every config with each of ``sweeps`` report seeds.
A run measures the block ``passes(seconds)`` times, in an order drawn from
the workload seed, so the same ``--seed`` gives the same inputs and every
run of the same length measures the same work.  The report seeds are
the same in every run because report time depends strongly on them: one
escaped path costs a redraw in each sampling pass, and with a new seed per
run the rate spread by about 10% between runs of identical code.

* ``holonomy_shipped``: ``holonomy_report`` on the five shipped
  ``configs/*.json`` at 64 paths: the main user path, dominated by the
  control-path RK4 (``_integrate_controls`` -> ``transport_data`` ->
  ``chart_arrays`` order 1).  Bergman and perturbed charts redraw escaped
  paths; Heisenberg never does.
* ``verify_shipped``: ``verify_report`` on the same configs.  It uses the
  same layers differently (order-1 and order-2 chart and connection data
  on 50 points in one batch, a sampled-curve RK4, a Reeb flow with its
  Jacobian, a ``brentq`` loop build) and makes one sampling pass of 8
  paths, with no closure, transverse or spinor work, so a change to the
  control-path RK4 or to sampling should leave it unchanged.
* ``wide_products``: ``holonomy_report`` on products with three complex
  dimensions (so(6) frames, 8-dimensional spinors, 7-wide jets) at 8
  paths, where einsum contractions, pair matrices and the transverse
  curvature take a larger share: it catches a change that helps m=2 but
  scales badly in m.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

SHIPPED = ("heisenberg", "bergman", "disc_disc_11", "disc_disc_12", "perturbed_disc_disc")
WIDE_PATHS = 8


def _factor(kind, b, **extra):
    return {"kind": kind, "complex_dim": 1, "b": b, "curvature": 1.0, **extra}


WIDE = {
    "disc3_b123": [_factor("poincare_disc", 1.0), _factor("poincare_disc", 2.0),
                   _factor("poincare_disc", 3.0)],
    "ball2_disc": [{"kind": "bergman_ball", "complex_dim": 2, "b": 1.0, "curvature": 1.0},
                   _factor("poincare_disc", 1.0)],
    "perturbed_disc_disc_disc": [_factor("perturbed_disc", 1.0, epsilon=0.3),
                                 _factor("poincare_disc", 1.0),
                                 _factor("poincare_disc", 1.0)],
}

# Structural answers of each holonomy config, independent of the seed:
# (schouten dim, adapted dim), codim, ideal, contained,
# (schouten, adapted) parallel-spinor kernel dims.
EXPECTED = {
    "bergman": ((3, 4), 1, True, True, (2, 0)),
    "disc_disc_11": ((1, 2), 1, True, True, (2, 0)),
    "disc_disc_12": ((1, 2), 1, True, True, (0, 0)),
    "heisenberg": ((0, 0), 0, True, True, (4, 4)),
    "perturbed_disc_disc": ((2, 2), 0, True, True, (0, 0)),
    "disc3_b123": ((2, 3), 1, True, True, (0, 0)),
    "ball2_disc": ((4, 5), 1, True, True, (2, 0)),
    "perturbed_disc_disc_disc": ((3, 3), 0, True, True, (0, 0)),
}
CROSS_VARIANT_TOL = 1e-4


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    pipeline: str          # "holonomy" or "verify"
    configs: tuple         # ((label, raw config dict), ...)
    sweeps: int            # report seeds per config in a block
    block_wall_s: float    # wall seconds one block takes, probes included

    def passes(self, seconds):
        """Blocks a run of ``seconds`` measures: as many as fit, at least one.

        The count depends on ``seconds`` only, never on how fast the
        machine runs, so runs of the same length measure the same reports.
        """
        return max(1, int(seconds // self.block_wall_s))


def load(name, root):
    """The named workload, reading shipped configs under ``root``."""
    root = Path(root)
    if name in ("holonomy_shipped", "verify_shipped"):
        configs = []
        for label in SHIPPED:
            with open(root / "configs" / f"{label}.json") as fh:
                configs.append((label, json.load(fh)))
        if name == "holonomy_shipped":
            return Workload(name, "holonomy", tuple(configs), sweeps=2, block_wall_s=27.0)
        # verify reports are short, so more of them keep the block as steady
        return Workload(name, "verify", tuple(configs), sweeps=5, block_wall_s=29.0)
    if name == "wide_products":
        configs = tuple(
            (label, {"manifold": {"type": "product", "factors": factors},
                     "sampler": {"n_paths": WIDE_PATHS}})
            for label, factors in WIDE.items()
        )
        return Workload(name, "holonomy", configs, sweeps=3, block_wall_s=40.0)
    raise KeyError(name)


NAMES = ("holonomy_shipped", "verify_shipped", "wide_products")


def report_seed(sweep, index):
    """Sampler seed of config ``index`` in sweep ``sweep`` of the block."""
    rng = np.random.default_rng([int(sweep), int(index)])
    return int(rng.integers(0, 2**31 - 1))


def block(built, sweeps):
    """The block's ``(label, cfg)`` reports: ``sweeps`` report seeds per config."""
    return [(label, with_seed(cfg, report_seed(k, i)))
            for k in range(sweeps) for i, (label, cfg) in enumerate(built)]


def config_hash(raw):
    text = json.dumps(raw, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def build(workload):
    """Parse every config and build its chart; the set-up a run pays once."""
    from kcontact.cli import RunConfig
    from kcontact.manifolds import chart_from_config

    built = []
    for label, raw in workload.configs:
        cfg = RunConfig.from_dict(raw)
        chart_from_config(cfg.manifold)
        built.append((label, cfg))
    return built


def with_seed(cfg, seed):
    return dataclasses.replace(cfg, sampler=dataclasses.replace(cfg.sampler, seed=seed))


def check(pipeline, label, cfg, report):
    """Problems found in one parsed JSON report; an empty list means it is correct."""
    problems = []
    if report.get("command") != pipeline:
        problems.append(f"command is {report.get('command')!r}")
    if report.get("seed") != cfg.sampler.seed:
        problems.append(f"seed is {report.get('seed')!r}, not {cfg.sampler.seed}")
    if pipeline == "verify":
        failed = sorted(k for k, c in report.get("checks", {}).items() if not c.get("pass"))
        if report.get("pass") is not True or failed:
            problems.append(f"verify failed: {failed}")
        return problems
    dims, codim, ideal, contained, spinor = EXPECTED[label]
    got_dims = report.get("dims", {})
    if (got_dims.get("schouten"), got_dims.get("adapted")) != dims:
        problems.append(f"dims {got_dims} != {dims}")
    if report.get("codim") != codim:
        problems.append(f"codim {report.get('codim')} != {codim}")
    if report.get("ideal") is not ideal:
        problems.append(f"ideal {report.get('ideal')} != {ideal}")
    if report.get("contained") is not contained:
        problems.append(f"contained {report.get('contained')} != {contained}")
    if report.get("n_paths") != cfg.sampler.n_paths:
        problems.append(f"n_paths {report.get('n_paths')} != {cfg.sampler.n_paths}")
    cross = report.get("cross_variant", {})
    res = cross.get("residual")
    if isinstance(res, bool) or not isinstance(res, (int, float)) or not res <= CROSS_VARIANT_TOL:
        problems.append(f"cross-variant residual {res!r} > {CROSS_VARIANT_TOL}")
    if cross.get("dims") != {"wagner": dims[0], "annihilator": dims[0]}:
        problems.append(f"cross-variant dims {cross.get('dims')} != {dims[0]}")
    kern = report.get("spinor_kernel", {})
    if (kern.get("schouten"), kern.get("adapted")) != spinor:
        problems.append(f"spinor kernels {kern} != {spinor}")
    return problems
