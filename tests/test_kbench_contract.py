"""The benchmark's trace contract: ``kbench/tracing.py`` wraps functions of
``kcontact`` by module and name, and a name that no longer exists makes a
traced run fail.  This reads the benchmark's target list without importing
``kbench`` as a package or writing anything under it."""

import runpy
from importlib import import_module
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "kbench" / "tracing.py"


def test_every_trace_target_names_a_kcontact_function():
    targets = runpy.run_path(str(TRACING))["TARGETS"]
    assert targets
    missing = [f"kcontact.{mod}.{name}" for mod, name, _, _ in targets
               if not callable(getattr(import_module(f"kcontact.{mod}"), name, None))]
    assert missing == []
