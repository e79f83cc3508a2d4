"""The benchmark's per-layer hooks still find the library's entry points.

``perfbench/tracing.py`` leaves an entry point it cannot find untraced and
only lists it in ``Tracer.missing``, so a rename in the library would
silently cost the benchmark its per-layer data.  This test fails instead.
"""

import importlib
import pathlib
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"

# hw_tangency_points has left the library but not yet tracing.py's table,
# which binds it in three modules
STALE = {"polyvor.curve.hw_tangency_points", "polyvor.counting.hw_tangency_points",
         "polyvor.cli.hw_tangency_points"}


def _polyvor_modules():
    return {n: m for n, m in sys.modules.items() if n == "polyvor" or n.startswith("polyvor.")}


def test_tracer_finds_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    tracing = importlib.import_module("tracing")
    saved = _polyvor_modules()
    try:
        tracer = tracing.Tracer()
        with tracer.installed(run.import_polyvor()):
            pass
    finally:
        # import_polyvor imports polyvor afresh; later tests keep the modules
        # they imported at collection
        for name in _polyvor_modules():
            del sys.modules[name]
        sys.modules.update(saved)
    assert tracer.missing <= STALE
