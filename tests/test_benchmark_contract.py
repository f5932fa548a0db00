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


def test_oracle_passes_noise_by_keyword(monkeypatch):
    # the tracer counts RK4 steps from the ``noise`` keyword of
    # dephasing_average; a positional noise array would break that count
    import numpy as np

    from cdgate import _kernels
    from cdgate.dynamics import noise_trajectory_oracle
    from cdgate.model import CnotParams, cnot_system

    calls = []

    def record(*args, **kwargs):
        calls.append((args, kwargs))
        # the kernel evolves the sector it is given and returns its block
        size = kwargs["psi0"].size
        return np.eye(size, dtype=complex) / size

    monkeypatch.setattr(_kernels, "dephasing_average", record)
    system = cnot_system(CnotParams(), tau=1.0)
    psi0 = np.array([0, 0, 1, 0], dtype=complex)
    noise_trajectory_oracle(system, psi0, 0.1, n_samples=100, dt=0.01, seed=0)
    assert len(calls) == 1
    args, kwargs = calls[0]
    assert "noise" in kwargs
    assert kwargs["noise"].shape[0] == 100
    assert _load_tracer()._rk4_steps(args, kwargs, None) == kwargs["noise"].size
