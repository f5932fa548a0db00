"""The benchmark's workloads: inputs generated from a seed, the pass that
drives cdgate through its CLI and public library calls, and the checks on
its outputs.

Seed 0 gives the canonical inputs, whose outputs are compared with
``reference.json`` (recorded with the numpy backend). Any other seed scales
each tau-axis endpoint, noise strength and gate-check time by a factor drawn
uniformly from [1 - JITTER, 1 + JITTER] and shifts the Monte-Carlo seed, so
a claim can be re-checked on inputs not used while a change was written.
Every seed is checked against physics invariants. The reason for each
workload is in BENCHMARK.json and README.md.

Evolution counts: an evolution is one sweep cell, one search evaluation,
one MC trajectory or one propagator column.
"""

from __future__ import annotations

import csv
import json
import math
import os
import random

from tracer import TraceError

JITTER = 0.01

# Reference comparisons. The integrator runs at rel_tol 1e-10 and its error
# accumulates over the steps of a cell, so values are compared at 1e-8,
# well above it; deterministic arithmetic reproduces them to ~1e-15.
REF_TOL = 1e-8
GATE_LIMIT = 1e-10          # exact-gate distance bound (criterion 1)
CD_SHARE = 1.0 - 1e-6       # CD restores the adiabatic target (criterion 5)
LZ_LIMIT = 0.02             # numeric vs Landau-Zener transition (criterion 3)

# Reference parameter set: g = 0.5, ramp ends at J2 = j2_amp / 2 = 5.
G = 0.5
J_END = 5.0

HERE = os.path.dirname(os.path.abspath(__file__))

# Spans each workload must hit in a traced pass.
REQUIRED_SPANS = {
    "tau-sweep": ("cli.main", "cli.parse_config", "cli.emit_csv",
                  "experiments.sweep_tau", "experiments.n_qubit_demo",
                  "dynamics.schrodinger_evolve", "kernels.evolve_ramped",
                  "model.nqubit_system"),
    "noise-map": ("cli.main", "cli.parse_config", "cli.emit_csv",
                  "experiments.sweep_noise", "dynamics.lindblad_evolve",
                  "kernels.evolve_ramped", "model.cnot_system",
                  "observables.fidelity_mixed"),
    "optimal-tau": ("cli.main", "cli.emit_csv", "experiments.find_optimal_tau",
                    "dynamics.lindblad_evolve", "kernels.evolve_ramped",
                    "model.cnot_system"),
    "oracle-check": ("dynamics.noise_trajectory_oracle",
                     "kernels.dephasing_average", "dynamics.lindblad_evolve",
                     "cli.main", "experiments.gate_unitary_check",
                     "dynamics.propagator", "dynamics._integrate_callable",
                     "model.build_inverse_engineered"),
}

NAMES = tuple(REQUIRED_SPANS)


class Plan:
    """Inputs of one workload at one seed."""

    def __init__(self, name: str, seed: int):
        if name not in REQUIRED_SPANS:
            raise ValueError(f"unknown workload {name!r}; choose from "
                             f"{', '.join(NAMES)}")
        self.name = name
        self.seed = seed
        rng = None if seed == 0 else random.Random(f"{name}:{seed}")

        def scaled(x: float) -> str:
            if rng is not None:
                x *= 1.0 + rng.uniform(-JITTER, JITTER)
            return f"{x:.9g}"

        self.oracle = None
        if name == "tau-sweep":
            self.cli = [
                ["sweep-tau", "--tau", f"{scaled(1)}:{scaled(200)}:60log",
                 "--workers", "1"],
                ["nqubit", "--n", "4", "--cd",
                 "--tau", f"{scaled(0.5)}:{scaled(50)}:20log",
                 "--workers", "1"],
            ]
            self.evolutions = 80
        elif name == "noise-map":
            self.cli = [["heatmap", "--alpha", f"0:{scaled(0.15)}:4",
                         "--tau", f"{scaled(1)}:{scaled(200)}:10log", "--cd",
                         "--workers", "1"]]
            self.evolutions = 40
        elif name == "optimal-tau":
            self.cli = [["optimal-tau", "--alpha", scaled(0.04),
                         "--workers", "1"]]
            self.evolutions = None  # depends on the search; counted
        else:
            # criterion 10b's gate: tau 20, alpha 0.04 (gap units), one batch
            # of 100 trajectories at dt 0.01 (2000 RK4 steps each)
            self.oracle = {"tau": 20.0, "alpha_gap": 0.04, "n_samples": 100,
                           "dt": 0.01, "seed": 7000 + seed}
            self.cli = [["gate-check", "--tau",
                         ",".join(scaled(t) for t in (0.5, 1.0, 7.3)),
                         "--workers", "1"]]
            # 100 trajectories + 1 Lindblad reference + 3 gates x 4 columns
            self.evolutions = 100 + 1 + 12

    def output_prefix(self, workdir: str, index: int) -> str:
        return os.path.join(workdir, f"run{index}")

    def run(self, cdgate, workdir: str) -> dict:
        """Drive cdgate once; returns raw results for ``check``. Errors are
        recorded, not raised, so that they count as failed operations."""
        results = {"exit_codes": [], "errors": []}
        if self.oracle is not None:
            results["oracle"] = self._run_oracle(cdgate, results["errors"])
        for i, argv in enumerate(self.cli):
            try:
                code = cdgate.cli.main(
                    argv + ["--output", self.output_prefix(workdir, i)])
            except TraceError:
                raise
            except Exception as exc:  # a program failure is a measured outcome
                results["errors"].append(
                    f"{argv[0]}: {type(exc).__name__}: {exc}")
                code = None
            results["exit_codes"].append(code)
        return results

    def _run_oracle(self, cdgate, errors):
        import numpy as np

        o = self.oracle
        try:
            params = cdgate.CnotParams()
            system = cdgate.cnot_system(params, o["tau"])
            psi0 = cdgate.analytic_spectrum(
                params, system.drive_value(system.t_start)).states[0]
            noise = cdgate.NoiseModel.from_gap_units(o["alpha_gap"], params.g)
            rho = cdgate.noise_trajectory_oracle(
                system, psi0, noise.alpha, n_samples=o["n_samples"],
                dt=o["dt"], seed=o["seed"])
            lb = cdgate.lindblad_evolve(
                system, np.outer(psi0, psi0.conj()), noise,
                cdgate.EvolutionConfig(tau=o["tau"])).final_state
        except TraceError:
            raise
        except Exception as exc:  # a program failure is a measured outcome
            errors.append(f"oracle: {type(exc).__name__}: {exc}")
            return None
        return {"mc_rho33": float(rho[3, 3].real),
                "lindblad_rho33": float(lb[3, 3].real)}

    def check(self, results: dict, workdir: str,
              against_reference: bool = True) -> tuple[int, list[str]]:
        """Returns (operations attempted, failure messages). Seed-0 outputs
        are also compared with ``reference.json``."""
        checker = Checker(against_reference and self.seed == 0)
        for msg in results["errors"]:
            checker.op(False, msg)
        for argv, code in zip(self.cli, results["exit_codes"]):
            checker.op(code == 0, f"{argv[0]} exited with {code}")
        if "oracle" in results:
            self._check_oracle(checker, results["oracle"])
        for i, argv in enumerate(self.cli):
            rows = self.read_output(workdir, i)
            checker.op(rows is not None, f"{argv[0]}: no readable CSV")
            if rows is not None:
                getattr(self, "_check_" + argv[0].replace("-", "_"))(
                    checker, rows)
        return checker.attempted, checker.failures

    def read_output(self, workdir: str, index: int) -> list[dict] | None:
        """Rows of the CSV the ``index``-th CLI call wrote, or None."""
        path = f"{self.output_prefix(workdir, index)}_{self.cli[index][0]}.csv"
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                return [{k: float(v) for k, v in row.items()}
                        for row in csv.DictReader(fh)]
        except (OSError, ValueError):
            return None

    def reference_entry(self, results: dict, workdir: str) -> dict:
        """This pass's outputs in the layout of ``reference.json``."""
        entry = {argv[0]: self.read_output(workdir, i)
                 for i, argv in enumerate(self.cli)}
        if "oracle" in results:
            entry["oracle"] = [results["oracle"]]
        return entry

    def _check_sweep_tau(self, c, rows):
        c.op(len(rows) == 60, f"sweep-tau wrote {len(rows)} rows, not 60")
        ref = c.reference("tau-sweep", "sweep-tau", len(rows))
        for k, r in enumerate(rows):
            f, p, lz = r["fidelity"], r["transition_prob"], r["lz_prediction"]
            ok = (0.0 <= f <= 1.0 + 1e-9 and 0.0 <= p <= 1.0 + 1e-9
                  and abs(p - lz) <= LZ_LIMIT
                  and c.matches(ref, k, r, ("tau", "fidelity",
                                            "transition_prob")))
            c.op(ok, f"sweep-tau row {k}: {r}")

    def _check_nqubit(self, c, rows):
        c.op(len(rows) == 20, f"nqubit wrote {len(rows)} rows, not 20")
        ref = c.reference("tau-sweep", "nqubit", len(rows))
        target = adiabatic_target()
        for k, r in enumerate(rows):
            ok = (CD_SHARE * target <= r["fidelity"] <= 1.0 + 1e-9
                  and r["transition_prob"] <= 1.0 - CD_SHARE
                  and c.matches(ref, k, r, ("tau", "fidelity")))
            c.op(ok, f"nqubit (CD) row {k}: {r}")

    def _check_heatmap(self, c, rows):
        c.op(len(rows) == 40, f"heatmap wrote {len(rows)} rows, not 40")
        ref = c.reference("noise-map", "heatmap", len(rows))
        target = adiabatic_target()
        for k, r in enumerate(rows):
            f = r["fidelity"]
            ok = 0.5 - 1e-9 <= f <= 1.0 + 1e-9  # NaN fails here
            if r["alpha_abs"] == 0.0:
                ok = ok and f >= CD_SHARE * target
            ok = ok and c.matches(ref, k, r, ("alpha_abs", "tau", "fidelity"))
            c.op(ok, f"heatmap row {k}: {r}")

    def _check_optimal_tau(self, c, rows):
        c.op(len(rows) == 1, f"optimal-tau wrote {len(rows)} rows, not 1")
        ref = c.reference("optimal-tau", "optimal-tau", len(rows))
        for k, r in enumerate(rows):
            # criterion 8: the optimum near tau 30 with F* ~ 0.8
            ok = (20.0 <= r["tau_star"] <= 40.0
                  and abs(r["f_star"] - 0.8) <= 0.05
                  and c.matches(ref, k, r, ("tau_star", "f_star")))
            c.op(ok, f"optimal-tau row {k}: {r}")

    def _check_gate_check(self, c, rows):
        c.op(len(rows) == 3, f"gate-check wrote {len(rows)} rows, not 3")
        ref = c.reference("oracle-check", "gate-check", len(rows))
        for k, r in enumerate(rows):
            ok = (r["passed"] == 1.0
                  and r["frobenius_distance"] < GATE_LIMIT
                  and r["phase_insensitive_distance"] < GATE_LIMIT
                  and c.matches(ref, k, r, ("tau", "frobenius_distance",
                                            "phase_insensitive_distance"),
                                tol=GATE_LIMIT))
            c.op(ok, f"gate-check row {k}: {r}")

    def _check_oracle(self, c, values):
        if values is None:
            return
        mc, lb = values["mc_rho33"], values["lindblad_rho33"]
        n = self.oracle["n_samples"]
        # one batch gives no batch spread; each trajectory's rho33 lies in
        # [0, 1], so its variance is at most p(1-p) and sqrt(p(1-p)/n)
        # bounds the standard error of the mean
        sigma = math.sqrt(lb * (1.0 - lb) / n)
        ok = (0.5 <= lb <= 1.0 and 0.0 <= mc <= 1.0
              and abs(mc - lb) < 3.0 * sigma)
        ref = c.reference("oracle-check", "oracle", 1)
        ok = ok and c.matches(ref, 0, values, ("mc_rho33", "lindblad_rho33"))
        c.op(ok, f"oracle: MC {mc} vs Lindblad {lb} (3 sigma = {3 * sigma})")


class Checker:
    def __init__(self, with_reference: bool):
        self.attempted = 0
        self.failures: list[str] = []
        self._reference = load_reference() if with_reference else None

    def op(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def reference(self, workload: str, output: str, n_rows: int):
        if self._reference is None:
            return None
        rows = self._reference[workload][output]
        self.op(len(rows) == n_rows,
                f"{output}: {n_rows} rows against {len(rows)} in reference")
        return rows

    @staticmethod
    def matches(ref, k, row, columns, tol=REF_TOL) -> bool:
        if ref is None:
            return True
        if k >= len(ref):
            return False
        want = ref[k]
        return all(abs(row[col] - want[col])
                   <= tol * max(1.0, abs(want[col])) for col in columns)


def adiabatic_target() -> float:
    """|<1..1|ground(J_END)>|^2 of the two-level sector in closed form: the
    fidelity an ideal counterdiabatic (or adiabatic) run reaches."""
    a = J_END - math.sqrt(G * G + J_END * J_END)
    return G * G / (G * G + a * a)


def load_reference() -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        return json.load(fh)
