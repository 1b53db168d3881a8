"""Every name that perfbench/tracing.py wraps or patches exists.

The tracer looks each ``hermitewave.<module>.<name>`` up with ``getattr``,
so a name dropped from the package passes the other tests and then stops the
benchmark's traced run with ``AttributeError``. This guard reads the tracer
without changing it. It goes once the tracer skips absent names (ROADMAP
item 1).
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_name_the_tracer_wraps_exists():
    tracing = _tracing()
    names = [(module, attr) for module, attr, _ in
             tracing._wrappers(tracing.Tracer())]
    # patched by Tracer.__enter__ beside the wrappers
    names.append(("cli", "ThreadPoolExecutor"))
    missing = [f"hermitewave.{module}.{attr}" for module, attr in names
               if not hasattr(importlib.import_module(f"hermitewave.{module}"),
                              attr)]
    assert names
    assert missing == []
