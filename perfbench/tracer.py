"""Spans around the calls into each cdgate layer, recorded from outside.

The tracer replaces each listed function, in every cdgate namespace that
holds it (``from .x import f`` copies the name, so the module that defines
``f`` is not enough), by a wrapper that records a span: key, start, end and
parent span. Spans stay in memory; ``layer_metrics`` turns them into the
per-layer figures after the pass. A listed name that no longer exists, or a
span a workload must hit that never fired, raises ``TraceError`` so that a
rewrite of the program forces an update here instead of silent zeros.

Untimed passes install only call counters on the evolution entry points, so
that ``evolutions_per_s`` counts the work actually done (a smarter
optimum search does fewer evaluations) at a cost of one list append per
evolution.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import threading
import time
from collections import defaultdict

# Layer -> (defining module, functions wrapped). ``_integrate_callable`` is
# the callable DOP853 stepper; it is kept apart from ``dynamics.self_s``.
LAYERS = {
    "cli": ("cdgate.cli", (
        "main", "parse_config", "parse_axis", "run_command", "emit_csv",
        "emit_json")),
    "experiments": ("cdgate.experiments", (
        "default_worker_count", "make_grid", "adiabatic_profile", "sweep_tau",
        "n_qubit_demo", "sweep_noise", "find_optimal_tau", "tradeoff_boundary",
        "gate_unitary_check", "lz_prediction_for")),
    "model": ("cdgate.model", (
        "cnot_unitary", "linear_ramp", "linear_phase_ramp", "build_h_cnot",
        "analytic_spectrum", "effective_lz", "build_h_cd_analytic",
        "build_h_cd_spectral", "build_inverse_engineered", "control_projector",
        "build_h_n", "build_h_cd_n", "nqubit_sector_states", "cnot_system",
        "lz_system", "nqubit_system")),
    "dynamics": ("cdgate.dynamics", (
        "schrodinger_evolve", "propagator", "lindblad_evolve",
        "noise_trajectory_oracle", "ground_state_probability",
        "_integrate_callable")),
    "kernels": ("cdgate._kernels", ("evolve_ramped", "dephasing_average")),
    "observables": ("cdgate.observables", (
        "validate_density_matrix", "fidelity_pure", "fidelity_mixed",
        "transition_probability", "lz_formula")),
}

NAMESPACES = ("cdgate", "cdgate.cli", "cdgate.experiments", "cdgate.dynamics",
              "cdgate.model", "cdgate.observables", "cdgate.numerics",
              "cdgate._kernels")

EVOLVE_KEYS = ("dynamics.schrodinger_evolve", "dynamics.lindblad_evolve")
ORACLE_KEY = "dynamics.noise_trajectory_oracle"
SYSTEM_KEYS = ("model.cnot_system", "model.nqubit_system", "model.lz_system")
STEPPER_KEY = "dynamics._integrate_callable"


class TraceError(RuntimeError):
    """The program no longer has the shape the tracer was written for."""


def _oracle_trajectories(fn):
    signature = inspect.signature(fn)

    def count(args, kwargs, result):
        return int(signature.bind(*args, **kwargs).arguments["n_samples"])
    return count


def _rk4_steps(args, kwargs, result):
    noise = args[8] if len(args) > 8 else kwargs["noise"]
    if getattr(noise, "ndim", None) != 2:
        raise TraceError("dephasing_average no longer takes a 2-D noise array")
    return int(noise.shape[0] * noise.shape[1])


def _rows(args, kwargs, result):
    return int(result)


def _one(args, kwargs, result):
    return 1


def _union_length(intervals) -> float:
    total = 0.0
    end = float("-inf")
    for lo, hi in sorted(intervals):
        if hi <= end:
            continue
        total += hi - max(lo, end)
        end = hi
    return total


class Tracer:
    """Wraps the layer functions of an imported cdgate package.

    ``timed=False`` wraps only the evolution entry points, with counters.
    ``timed=True`` wraps every function in ``LAYERS`` with a span.
    """

    def __init__(self, timed: bool):
        self.timed = timed
        self.spans: list[list] = []
        self.counts: list[tuple[str, int]] = []
        self._local = threading.local()
        self._main_stack: list = []
        self._main_ident = threading.get_ident()
        self._install()

    def _install(self) -> None:
        namespaces = []
        for name in NAMESPACES:
            if name not in sys.modules:
                raise TraceError(f"module {name} is not imported")
            namespaces.append(sys.modules[name])
        for layer, (module_name, names) in LAYERS.items():
            module = sys.modules.get(module_name)
            if module is None:
                raise TraceError(f"module {module_name} is gone")
            for name in names:
                key = f"{layer}.{name}"
                if not hasattr(module, name):
                    raise TraceError(f"{module_name}.{name} is gone; update "
                                     "LAYERS in perfbench/tracer.py")
                original = getattr(module, name)
                counter = self._counter_for(key, original)
                if not self.timed and counter is None:
                    continue
                wrapper = self._wrap(key, original, counter)
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is original:
                            setattr(ns, attr, wrapper)

    def _counter_for(self, key, original):
        if key in EVOLVE_KEYS:
            return _one
        if key == ORACLE_KEY:
            return _oracle_trajectories(original)
        if not self.timed:
            return None
        if key == "kernels.dephasing_average":
            return _rk4_steps
        if key in ("cli.emit_csv", "cli.emit_json"):
            return _rows
        return None

    def _stack(self) -> list:
        if threading.get_ident() == self._main_ident:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if stack is self._main_stack:
            return None
        # root span on a pool thread: its parent is the main-thread span
        # that is waiting for the pool
        try:
            return self._main_stack[-1]
        except IndexError:
            return None

    def _wrap(self, key, fn, counter):
        tracer = self
        counts = self.counts

        if not self.timed:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts.append((key, counter(args, kwargs, result)))
                return result
            return counted

        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            stack = tracer._stack()
            span = [key, clock(), 0.0, tracer._parent(stack), 0]
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                spans.append(span)
            if counter is not None:
                span[4] = counter(args, kwargs, result)
            return result
        return spanned

    def evolutions(self) -> int:
        """Evolutions completed: evolve calls plus MC trajectories."""
        if self.timed:
            return sum(s[4] for s in self.spans
                       if s[0] in EVOLVE_KEYS or s[0] == ORACLE_KEY)
        return sum(n for _, n in self.counts)

    def layer_metrics(self, wall_s: float, required) -> dict:
        """Per-layer metrics of one traced pass of ``wall_s`` seconds.

        ``*_s`` of one function are inclusive times; ``<layer>.self_s`` and
        ``model.s``/``observables.s`` are self times, a span's duration less
        the union of its child spans. Spans on pool threads overlap in time,
        so on a threaded workload layer sums can exceed ``wall_s``.
        """
        fired = {s[0] for s in self.spans}
        missing = sorted(set(required) - fired)
        if missing:
            raise TraceError(f"required spans never fired: {missing}")

        children = defaultdict(list)
        for s in self.spans:
            if s[3] is not None:
                children[id(s[3])].append((s[1], s[2]))
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        count = defaultdict(int)
        layer_self = defaultdict(float)
        evolution_ms = []
        roots = []
        for s in self.spans:
            key, start, end = s[0], s[1], s[2]
            duration = end - start
            self_time = duration - _union_length(children.get(id(s), ()))
            calls[key] += 1
            total[key] += duration
            own[key] += self_time
            count[key] += s[4]
            layer = key.split(".", 1)[0]
            if key != STEPPER_KEY:
                layer_self[layer] += self_time
            if key in EVOLVE_KEYS:
                evolution_ms.append(1e3 * duration)
            if s[3] is None:
                roots.append((start, end))

        return {
            "kernels.evolve_ramped_calls": calls["kernels.evolve_ramped"],
            "kernels.evolve_ramped_s": total["kernels.evolve_ramped"],
            "kernels.dephasing_average_s": total["kernels.dephasing_average"],
            "kernels.rk4_steps": count["kernels.dephasing_average"],
            "dynamics.schrodinger_calls": calls["dynamics.schrodinger_evolve"],
            "dynamics.schrodinger_s": total["dynamics.schrodinger_evolve"],
            "dynamics.lindblad_calls": calls["dynamics.lindblad_evolve"],
            "dynamics.lindblad_s": total["dynamics.lindblad_evolve"],
            "dynamics.oracle_s": total[ORACLE_KEY],
            "dynamics.propagator_s": total["dynamics.propagator"],
            "dynamics.callable_stepper_s": own[STEPPER_KEY],
            "dynamics.self_s": layer_self["dynamics"],
            "dynamics.evolution_ms_p50": (statistics.median(evolution_ms)
                                          if evolution_ms else 0.0),
            "dynamics.evolution_ms_max": max(evolution_ms, default=0.0),
            "experiments.evolutions": self.evolutions(),
            "experiments.self_s": layer_self["experiments"],
            "model.system_builds": sum(calls[k] for k in SYSTEM_KEYS),
            "model.s": layer_self["model"],
            "observables.s": layer_self["observables"],
            "cli.parse_s": total["cli.parse_config"],
            "cli.write_s": total["cli.emit_csv"] + total["cli.emit_json"],
            "cli.rows": count["cli.emit_csv"] + count["cli.emit_json"],
            "cli.self_s": layer_self["cli"],
            "trace.wall_s": wall_s,
            "trace.unaccounted_s": wall_s - _union_length(roots),
        }
