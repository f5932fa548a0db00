"""The benchmark's tracer wraps cdgate functions by name; every name it
lists must still exist, so that a change that removes one fails here
rather than in a benchmark run. perfbench/tracer.py is only read."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    tracer = _load_tracer()
    missing = []
    for module_name, names in tracer.LAYERS.values():
        module = importlib.import_module(module_name)
        missing += [f"{module_name}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert not missing, f"perfbench/tracer.py wraps removed names: {missing}"


def test_every_traced_namespace_imports():
    tracer = _load_tracer()
    for name in tracer.NAMESPACES:
        importlib.import_module(name)
