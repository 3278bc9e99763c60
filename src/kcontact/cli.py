"""Command-line interface: configuration ingestion, the verification and
holonomy pipelines, machine-readable reports.

Subcommands: ``verify`` (structural invariant suite), ``holonomy`` (the
full holonomy / splitting / regression / spinor pipeline), ``spinor``
(spin-representation checks for the chart), ``list-manifolds``.  Reports
are JSON with floats rendered to 17 significant digits and sorted keys,
so a fixed configuration and seed reproduce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .connection import connection_invariant_residuals, frame_data
from .errors import (
    ChartError,
    ConfigError,
    DomainError,
    KContactError,
    NumericsError,
    SamplingError,
)
from .holonomy import compare_subalgebras, holonomy_samples, lie_closure, t_complement
from .manifolds import (
    EXAMPLES,
    FACTOR_KINDS,
    chart_from_config,
    chart_invariant_residuals,
    config_fields,
    config_keys,
    config_float,
    random_domain_points,
)
from .spinor import (
    LIFT_LEVEL_CONSTANT,
    MAX_MODES,
    build_spin_rep,
    parallel_spinor_dim,
    ratio_condition,
    spin_lift,
    standard_complex_structure,
)
from .transport import (
    LOOP_STEP,
    SamplerConfig,
    balanced_loop,
    isometry_residual,
    sample_curve,
    transport_equivalence_check,
    transport_theta,
)
from .transverse import (
    dtheta_regression, einstein_check, factor_split, orthonormal_ricci, sasaki_psi_check,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DOMAIN = 3
EXIT_SAMPLING = 4
EXIT_NUMERICS = 5
CROSS_VARIANT_TOL = 1e-4  # Wagner vs annihilator span residual of a holonomy report
VERIFY_POINTS = 50  # random domain points of the verify residual suite


# ---------------------------------------------------------------------------
# configuration


@dataclass
class RunConfig:
    """Validated run configuration for every subcommand."""

    manifold: dict
    base_point: np.ndarray = None
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    span_tol: float = 1e-6
    ode_tol: float = 1e-6
    out: str = None

    @classmethod
    def from_dict(cls, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        config_keys(raw, ["manifold", "base_point", "sampler", "tolerances", "outputs"], "")
        if "manifold" not in raw:
            raise ConfigError("config needs a 'manifold' section")
        samp = raw.get("sampler", {})
        if not isinstance(samp, dict):
            raise ConfigError("'sampler' must be an object")
        sampler = SamplerConfig(**config_fields(SamplerConfig, samp, "sampler"))
        tols = raw.get("tolerances", {})
        if not isinstance(tols, dict):
            raise ConfigError("'tolerances' must be an object")
        config_keys(tols, ["span_tol", "ode_tol"], "tolerances")
        span_tol = config_float(tols.get("span_tol", 1e-6), "span_tol")
        ode_tol = config_float(tols.get("ode_tol", 1e-6), "ode_tol")
        if not 0.0 < span_tol < 1.0:
            raise ConfigError(f"span_tol must lie in (0, 1), got {span_tol}")
        if not ode_tol > 0.0:
            raise ConfigError(f"ode_tol must be positive, got {ode_tol}")
        base = raw.get("base_point")
        if base is not None and not isinstance(base, list):
            raise ConfigError("base_point must be a list of finite numbers")
        base_point = None if base is None else np.array(
            [config_float(v, "base_point entry") for v in base], dtype=float)
        outputs = raw.get("outputs", {})
        if not isinstance(outputs, dict):
            raise ConfigError("'outputs' must be an object")
        config_keys(outputs, ["report"], "outputs")
        out = outputs.get("report")
        if out is not None and not isinstance(out, str):
            raise ConfigError("outputs.report must be a path string")
        return cls(
            manifold=raw["manifold"],
            base_point=base_point,
            sampler=sampler,
            span_tol=span_tol,
            ode_tol=ode_tol,
            out=out,
        )


def load_config(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError, a file that is not UTF-8, or nesting too deep to parse
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return RunConfig.from_dict(raw)


def _resolve_chart(cfg: RunConfig):
    chart = chart_from_config(cfg.manifold)
    x0 = cfg.base_point if cfg.base_point is not None else chart.origin()
    if len(x0) != chart.dim:
        raise ConfigError(
            f"base_point has {len(x0)} coordinates, chart needs {chart.dim}"
        )
    if not chart.domain.contains(x0):
        raise DomainError(f"base point outside the chart domain: {x0}", point=x0)
    return chart, np.asarray(x0, dtype=float)


# ---------------------------------------------------------------------------
# deterministic JSON


def render_report(obj):
    """Serialize a report with sorted keys and 17-significant-digit floats.
    A non-finite float raises :class:`NumericsError`, so no report with
    one is written."""
    return _render(obj) + "\n"


def _render(obj):
    if isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: kv[0])
        inner = ", ".join(f"{json.dumps(str(k))}: {_render(v)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = obj.tolist() if isinstance(obj, np.ndarray) else list(obj)
        return "[" + ", ".join(_render(v) for v in seq) + "]"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        v = float(obj)
        if not np.isfinite(v):
            raise NumericsError(f"non-finite value {v} in the report")
        return format(v, ".17g")
    return json.dumps(obj)


def _emit(report, out_path):
    text = render_report(report)
    if out_path:
        try:
            with open(out_path, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write report: {exc}") from exc
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# pipelines


def _check(residual, tol, larger_is_better=False):
    ok = residual > tol if larger_is_better else residual <= tol
    return {"residual": float(residual), "tolerance": float(tol), "pass": bool(ok)}


def verify_report(cfg: RunConfig):
    """Structural residual suite over random domain points.

    One order-2 evaluation of the points serves the chart and the
    connection invariant suites."""
    chart, x0 = _resolve_chart(cfg)
    rng = np.random.default_rng(cfg.sampler.seed)
    pts = random_domain_points(chart, VERIFY_POINTS, rng, margin=0.95)
    data = frame_data(chart, pts, order=2)
    man = chart_invariant_residuals(data)
    con = connection_invariant_residuals(data)
    checks = {
        "theta_xi_normalization": _check(man["theta_xi"], 1e-10),
        "theta_annihilates_frame": _check(man["theta_frame"], 1e-10),
        "metric_min_eigenvalue": _check(man["spd_min_eig"], 0.0, larger_is_better=True),
        "reeb_contracts_dtheta": _check(man["reeb_interior"], 1e-8),
        "dtheta_nondegenerate": _check(man["omega_sv_ratio_min"], 1e-6, larger_is_better=True),
        "reeb_flow_isometry": _check(man["lie_xi_g"], 1e-7),
        "tau_equals_minus_omega": _check(man["tau_plus_omega"], 1e-7),
        "xi_brackets_horizontal": _check(man["theta_xi_bracket"], 1e-7),
        "torsion": _check(con["torsion"], 1e-7),
        "metric_compatibility": _check(con["metric_compat"], 1e-7),
        "curvature_g_skew": _check(con["g_skew"], 1e-6),
        "bianchi": _check(con["bianchi"], 1e-6),
        "wagner_curvature_condition": _check(con["wagner"], 1e-6),
        "dtheta_inverse_pairing": _check(con["dtheta_pairing"], 1e-9),
    }
    # transport spot checks
    sampler = replace(cfg.sampler, n_paths=min(8, max(cfg.sampler.n_paths, 1)))
    checks["transport_isometry"] = _check(
        isometry_residual(chart, x0, sampler), 1e-6
    )
    rng_loop = np.random.default_rng(cfg.sampler.seed + 1)
    loop = balanced_loop(chart, x0, rng_loop)
    sc = sample_curve(chart, loop, LOOP_STEP)
    equivalence, tilde = transport_equivalence_check(chart, sc)
    checks["horizontalization_residual"] = _check(
        float(np.max(np.abs(tilde.theta_dot))), 1e-6
    )
    checks["transport_equivalence"] = _check(equivalence, 1e-4)
    fq = transport_theta(chart, sc, "quadrature")
    fo = transport_theta(chart, sc, "ode")
    checks["theta_transport_agreement"] = _check(abs(fq - fo) / abs(fq), cfg.ode_tol)
    return {
        "schema": 1,
        "command": "verify",
        "manifold": chart.name,
        "n_points": VERIFY_POINTS,
        "seed": cfg.sampler.seed,
        "checks": checks,
        "pass": all(c["pass"] for c in checks.values()),
    }


def _cross_variant_residual(h_w, h_a):
    return max([0.0] + [h_a.span_residual(B) for B in h_w.basis]
               + [h_w.span_residual(B) for B in h_a.basis])


def holonomy_report(cfg: RunConfig):
    """The holonomy pipeline: algebras, splitting, regression, spinors.

    The horizontal sampling pass of ``holonomy_samples`` feeds both Wagner
    and annihilator samples; the Wagner closure is
    the horizontal algebra ``h`` and is cross-checked against the
    annihilator closure on the same transports.  The adapted samples give
    the zero-extension algebra ``h0``.
    The transverse checks share one order-2 evaluation of their 30 points;
    the splitting reads the pass's order-2 data at x0.
    """
    chart, x0 = _resolve_chart(cfg)
    sampler = cfg.sampler
    samples, base = holonomy_samples(chart, x0, sampler)
    h = lie_closure(samples["wagner"], cfg.span_tol)
    h0 = lie_closure(samples["adapted"], cfg.span_tol)
    comparison = compare_subalgebras(h, h0)
    h_a = lie_closure(samples["annihilator"], cfg.span_tol)
    report = {
        "schema": 1,
        "command": "holonomy",
        "manifold": chart.name,
        "seed": sampler.seed,
        "n_paths": sampler.n_paths,
        "span_tol": cfg.span_tol,
        "dims": {"schouten": h.dim, "adapted": h0.dim},
        "codim": comparison["codim"],
        "ideal": comparison["ideal"],
        "contained": comparison["contained"],
        "cross_variant": {
            "residual": _cross_variant_residual(h, h_a),
            "dims": {"wagner": h.dim, "annihilator": h_a.dim},
        },
    }
    rng_pts = np.random.default_rng(sampler.seed + 1000)
    pts_data = frame_data(chart, random_domain_points(chart, 30, rng_pts, margin=0.85), order=2)
    report["sasaki"] = sasaki_psi_check(pts_data)
    if h0.dim > 0:
        split = factor_split(base, h0, cfg.span_tol)
        report["blocks"] = [list(b) for b in split.blocks]
        report["trivial_block"] = list(split.trivial)
        ric, omega_o = orthonormal_ricci(pts_data)
        report["einstein"] = einstein_check(ric, split)
        try:
            reg = dtheta_regression(ric, omega_o, split)
            report["regression"] = {"b": list(reg["b"]), "residual": reg["residual"]}
        except KContactError as exc:
            report["regression"] = {"error": str(exc)}
        if comparison["codim"] == 1:
            t = t_complement(h0, h)[0].basis[0]
            # the SVD fixes t only up to sign: orient it along the blocks'
            # complex structures, which are aligned with dtheta
            if np.sum(t * sum(split.J_blocks)) < 0:
                t = -t
            coeffs = [float(np.sum(t * J) / np.sum(J * J)) for J in split.J_blocks]
            report["t_coefficients"] = coeffs
            ms = [len(b) // 2 for b in split.blocks]
            if all(abs(a) > 1e-8 for a in coeffs):
                report["ratio_condition"] = ratio_condition(ms, coeffs)
    else:
        report["blocks"] = []
        report["trivial_block"] = list(range(2 * chart.m))
    if chart.m <= MAX_MODES:
        rep = build_spin_rep(chart.m)
        report["spinor_kernel"] = {
            "schouten": parallel_spinor_dim(rep, h),
            "adapted": parallel_spinor_dim(rep, h0),
        }
    return report


def spinor_report(cfg: RunConfig):
    """Spin-representation sanity checks plus chart kernel dimensions."""
    chart, x0 = _resolve_chart(cfg)
    m = chart.m
    if m > MAX_MODES:
        raise ConfigError(f"spinor checks need m <= {MAX_MODES}, the chart has m = {m}")
    rep = build_spin_rep(m)
    tm = 2 * m
    cl = 0.0
    for p in range(tm):
        for q in range(tm):
            anti = rep.gamma[p] @ rep.gamma[q] + rep.gamma[q] @ rep.gamma[p]
            target = -2.0 * np.eye(rep.dim) if p == q else 0.0
            cl = max(cl, float(np.max(np.abs(anti - target))))
    rng = np.random.default_rng(cfg.sampler.seed)
    hom = 0.0
    for _ in range(10):
        A = rng.normal(size=(tm, tm))
        A = A - A.T
        B = rng.normal(size=(tm, tm))
        B = B - B.T
        lhs = spin_lift(rep, A @ B - B @ A)
        rhs = spin_lift(rep, A) @ spin_lift(rep, B) - spin_lift(rep, B) @ spin_lift(rep, A)
        hom = max(hom, float(np.max(np.abs(lhs - rhs))))
    sig = spin_lift(rep, standard_complex_structure(m))
    eigen = [
        {"index": i, "level": rep.grading(i), "eigenvalue_imag": float(np.imag(sig[i, i]))}
        for i in range(rep.dim)
    ]
    samples, _ = holonomy_samples(chart, x0, cfg.sampler)
    h = lie_closure(samples["wagner"], cfg.span_tol)
    h0 = lie_closure(samples["adapted"], cfg.span_tol)
    return {
        "schema": 1,
        "command": "spinor",
        "manifold": chart.name,
        "seed": cfg.sampler.seed,
        "clifford_residual": cl,
        "homomorphism_residual": hom,
        "lift_level_constant": LIFT_LEVEL_CONSTANT,
        "rotation_eigenvalues": eigen,
        "kernel_dims": {
            "schouten": parallel_spinor_dim(rep, h),
            "adapted": parallel_spinor_dim(rep, h0),
            "trivial_algebra": rep.dim,
        },
    }


def list_manifolds_report():
    return {
        "schema": 1,
        "command": "list-manifolds",
        "types": ["heisenberg", "product"],
        "factor_kinds": list(FACTOR_KINDS),
        "examples": list(EXAMPLES.values()),
    }


# ---------------------------------------------------------------------------
# argument handling


def build_parser():
    parser = argparse.ArgumentParser(
        prog="kcontact",
        description="Numerical laboratory for horizontal holonomy of "
        "K-contact sub-Riemannian manifolds",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_required=False):
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--seed", type=int, required=seed_required,
                       help="sampler seed (overrides the config)")
        p.add_argument("--paths", type=int, help="number of sampled paths")
        p.add_argument("--out", help="report path (default: stdout)")

    common(sub.add_parser("verify", help="run the structural invariant suite"))
    common(sub.add_parser("holonomy", help="estimate and analyze holonomy"),
           seed_required=True)
    common(sub.add_parser("spinor", help="spin representation checks"))
    lm = sub.add_parser("list-manifolds", help="built-in chart catalogue")
    lm.add_argument("--out", help="report path (default: stdout)")
    return parser


def _apply_overrides(cfg: RunConfig, args):
    # replace() runs SamplerConfig's checks on the overridden fields
    updates = {}
    if getattr(args, "seed", None) is not None:
        updates["seed"] = args.seed
    if getattr(args, "paths", None) is not None:
        updates["n_paths"] = args.paths
    if updates:
        cfg.sampler = replace(cfg.sampler, **updates)
    if getattr(args, "out", None):
        cfg.out = args.out
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    # warnings raised on the way to a documented failure would bury its
    # one-line message, so they are held back and dropped on exits 2-5
    caught, code = [], None
    try:
        with warnings.catch_warnings(record=True) as caught:
            code = _run(args)
    finally:
        if code not in (EXIT_CONFIG, EXIT_DOMAIN, EXIT_SAMPLING, EXIT_NUMERICS):
            for w in caught:
                warnings.showwarning(w.message, w.category, w.filename, w.lineno, w.file, w.line)
    return code


def _run(args):
    try:
        if args.command == "list-manifolds":
            _emit(list_manifolds_report(), getattr(args, "out", None))
            return EXIT_OK
        cfg = _apply_overrides(load_config(args.config), args)
        if args.command == "verify":
            report = verify_report(cfg)
            ok = report["pass"]
        elif args.command == "holonomy":
            report = holonomy_report(cfg)
            ok = report["cross_variant"]["residual"] <= CROSS_VARIANT_TOL
        else:
            report = spinor_report(cfg)
            ok = True
        _emit(report, cfg.out)
        return EXIT_OK if ok else 1
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DomainError as exc:
        print(f"domain violation: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except SamplingError as exc:
        print(f"sampling failure: {exc}", file=sys.stderr)
        return EXIT_SAMPLING
    except (NumericsError, ChartError, np.linalg.LinAlgError, MemoryError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS


if __name__ == "__main__":
    sys.exit(main())
