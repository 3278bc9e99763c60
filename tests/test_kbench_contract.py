"""The benchmark's trace contract: ``kbench/tracing.py`` wraps functions of
``kcontact`` by module and name, and a name that no longer exists makes a
traced run fail.  This reads the benchmark's target list without importing
``kbench`` as a package or writing anything under it."""

import runpy
from importlib import import_module
from pathlib import Path

import numpy as np

TRACING = Path(__file__).resolve().parent.parent / "kbench" / "tracing.py"


def test_every_trace_target_names_a_kcontact_function():
    targets = runpy.run_path(str(TRACING))["TARGETS"]
    assert targets
    missing = [f"kcontact.{mod}.{name}" for mod, name, _, _ in targets
               if not callable(getattr(import_module(f"kcontact.{mod}"), name, None))]
    assert missing == []


def test_chart_arrays_span_names_ignore_field_selection():
    # callers pass fields= by keyword; the per-layer span must still be
    # named after the order, whether that is positional or a keyword
    ns = runpy.run_path(str(TRACING))
    name = ns["_chart_arrays_name"]
    X = np.zeros((3, 5))
    for order in (0, 1, 2):
        want = f"manifolds.chart_arrays.o{order}"
        assert name(("chart", X, order), {"fields": ("xi",)}) == want
        assert name(("chart", X), {"order": order, "fields": ("G",)}) == want
    assert name(("chart", X), {"fields": ("th", "xi", "E")}) == "manifolds.chart_arrays.o1"

    # and through the installed wrapper, as a traced run calls it
    from kcontact import heisenberg, manifolds

    tracer = ns["Tracer"]()
    with tracer.installed():
        for order in (0, 1, 2):
            arr = manifolds.chart_arrays(heisenberg(2), X, order, fields=("xi",))
            assert arr.xi is not None and arr.G is None
    assert {k for k in tracer.self_s if k.startswith("manifolds.chart_arrays")} == {
        "manifolds.chart_arrays.o0", "manifolds.chart_arrays.o1", "manifolds.chart_arrays.o2"}
    assert tracer.counts["manifolds.chart_arrays.points"] == 9


def test_tracer_counts_the_draws_of_a_redrawing_pass(charts, monkeypatch):
    # the tracer reads a draw's attempt by keyword or at position 9 of
    # _draw_path; a recorder that binds the arguments by name must see the
    # same draws, so passing the attempt elsewhere fails here instead of
    # miscounting the benchmark's redraws
    import inspect

    from kcontact import transport
    from test_transport import REDRAW_SAMPLER

    draw = transport._draw_path
    signature = inspect.signature(draw)
    attempts = []

    def recording_draw(*args, **kwargs):
        attempts.append(signature.bind(*args, **kwargs).arguments["attempt"])
        return draw(*args, **kwargs)

    monkeypatch.setattr(transport, "_draw_path", recording_draw)
    tracer = runpy.run_path(str(TRACING))["Tracer"]()
    with tracer.installed():
        paths, _, _ = transport.sampled_path_transports(charts["bergman"], np.zeros(5),
                                                        REDRAW_SAMPLER)
    assert len(paths) == REDRAW_SAMPLER.n_paths
    redraws = sum(a > 0 for a in attempts)
    assert redraws >= 2  # the pass redraws indices 1 and 3
    assert tracer.counts["transport.sampling_passes"] == 1
    assert tracer.counts["transport.paths_integrated"] == len(attempts)
    assert tracer.counts["transport.redraws"] == redraws
