"""Per-layer spans for the traced run, installed from outside ``src/``.

``Tracer.installed()`` replaces each traced public function of a
``kcontact`` module by a wrapper, in its home module and in every other
``kcontact`` module that imported the name, and puts the originals back on
exit.  A wrapper records a span: its self time is its duration minus the
durations of the spans it directly contains.  Counts are recorded at the
same boundaries.  Nothing inside ``src/`` changes, and the wrappers return
exactly what the wrapped function returns, so reports stay byte-identical.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from importlib import import_module

import numpy as np


def _arg(args, kwargs, pos, name, default):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _batch_points(X):
    shape = np.shape(X)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _chart_arrays_name(args, kwargs):
    return f"manifolds.chart_arrays.o{int(_arg(args, kwargs, 2, 'order', 1))}"


def _frame_data_name(args, kwargs):
    return "connection.frame_data.o2" if _arg(args, kwargs, 2, "order", 1) >= 2 else "connection.frame_data.o1"


def _count_chart_points(tracer, args, kwargs, result):
    tracer.count("manifolds.chart_arrays.points", _batch_points(args[1]))


def _count_transport_points(tracer, args, kwargs, result):
    tracer.count("connection.transport_data.points", _batch_points(args[1]))


def _count_pass(tracer, args, kwargs, result):
    tracer.count("transport.sampling_passes", 1)


def _count_draw(tracer, args, kwargs, result):
    # the sampler integrates every path it draws; attempt > 0 is a redraw
    tracer.count("transport.paths_integrated", 1)
    if _arg(args, kwargs, 9, "attempt", 0) > 0:
        tracer.count("transport.redraws", 1)


def _count_samples(tracer, args, kwargs, result):
    tracer.count("holonomy.samples", len(result))


def _count_closure(tracer, args, kwargs, result):
    tracer.count("holonomy.lie_closure.calls", 1)


# (module, function, span name or naming function, counter hook); a name of
# None counts without a span, so the time stays with the calling span
TARGETS = [
    ("manifolds", "chart_arrays", _chart_arrays_name, _count_chart_points),
    ("manifolds", "chart_invariant_residuals", "manifolds.chart_invariant_residuals", None),
    ("jets", "stack_arrays", "jets.stack_arrays", None),
    ("connection", "transport_data", "connection.transport_data", _count_transport_points),
    ("connection", "frame_data", _frame_data_name, None),
    ("connection", "connection_invariant_residuals", "connection.connection_invariant_residuals", None),
    ("transport", "sampled_path_transports", "transport.sampled_path_transports", _count_pass),
    # the sampler looks this private helper up as a module global on every draw
    ("transport", "_draw_path", None, _count_draw),
    ("transport", "horizontalize", "transport.horizontalize", None),
    ("transport", "transport_theta", "transport.transport_theta", None),
    ("transport", "balanced_loop", "transport.balanced_loop", None),
    ("transport", "isometry_residual", "transport.isometry_residual", None),
    ("transport", "transport_equivalence_check", "transport.transport_equivalence_check", None),
    ("holonomy", "as_samples_schouten", "holonomy.as_samples", _count_samples),
    ("holonomy", "as_samples_adapted", "holonomy.as_samples", _count_samples),
    ("holonomy", "lie_closure", "holonomy.lie_closure", _count_closure),
    ("holonomy", "compare_subalgebras", "holonomy.structure", None),
    ("holonomy", "t_complement", "holonomy.structure", None),
    ("holonomy", "center_decomposition", "holonomy.structure", None),
    ("transverse", "factor_split", "transverse.factor_split", None),
    ("transverse", "sasaki_psi_check", "transverse.sasaki_psi_check", None),
    ("transverse", "einstein_check", "transverse.einstein_check", None),
    ("transverse", "dtheta_regression", "transverse.dtheta_regression", None),
    ("spinor", "build_spin_rep", "spinor.build_spin_rep", None),
    ("spinor", "parallel_spinor_dim", "spinor.parallel_spinor_dim", None),
    ("cli", "render_report", "cli.render_report", None),
]

ROOT_SPAN = "cli.report"
SPAN_NAMES = sorted(
    {ROOT_SPAN, "manifolds.chart_arrays.o0", "manifolds.chart_arrays.o1",
     "manifolds.chart_arrays.o2", "connection.frame_data.o1", "connection.frame_data.o2"}
    | {name for _, _, name, _ in TARGETS if isinstance(name, str)}
)
COUNT_NAMES = sorted([
    "manifolds.chart_arrays.points",
    "connection.transport_data.points",
    "transport.sampling_passes",
    "transport.paths_integrated",
    "transport.redraws",
    "holonomy.samples",
    "holonomy.lie_closure.calls",
])


class Tracer:
    """Span and counter recorder for one report at a time."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack = []

    def count(self, name, value):
        self.counts[name] += value

    def enter(self, name):
        self._stack.append([name, self.clock(), 0.0])

    def exit(self):
        name, start, child = self._stack.pop()
        dur = self.clock() - start
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][2] += dur

    def _wrap(self, fn, name, hook):
        tracer = self
        if name is None:
            def counter(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(tracer, args, kwargs, result)
                return result

            return counter

        label = name if callable(name) else (lambda args, kwargs: name)

        def wrapper(*args, **kwargs):
            tracer.enter(label(args, kwargs))
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit()
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Install every wrapper for the duration of the block."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "kcontact" or n.startswith("kcontact.")]
        replaced = []
        try:
            for mod_name, fn_name, name, hook in TARGETS:
                home = import_module(f"kcontact.{mod_name}")
                orig = getattr(home, fn_name)
                wrapper = self._wrap(orig, name, hook)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            setattr(mod, attr, wrapper)
                            replaced.append((mod, attr, orig))
            yield replaced
        finally:
            for mod, attr, orig in reversed(replaced):
                setattr(mod, attr, orig)
