"""The benchmark's span recorder still finds every layer it times."""

import importlib
import pkgutil
import types
from pathlib import Path

import sgsolve

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing() -> types.ModuleType:
    """``perfbench/tracing.py``, executed from its source so that nothing
    is written next to it."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_binds_every_layer_but_the_removed_collapse():
    # A kernel that is renamed or moved would silently read 0 in its
    # per-layer metrics.  ``model.collapse`` is the one layer that is gone.
    for info in pkgutil.iter_modules(sgsolve.__path__):
        importlib.import_module(f"sgsolve.{info.name}")
    tracer = load_tracing().Tracer()
    tracer.patch_layers()
    assert tracer.absent == ["sgsolve.model.collapse"]
