"""Command-line front end: parse a run configuration, dispatch experiments,
serialize plot-ready CSV/JSON with a reproducibility manifest.

Exit codes: 0 success, 1 runtime failure, 2 configuration/validation error.
Axis values accept the range syntax ``start:stop:count[log]`` or a comma
list; noise strengths are given in units of the minimal gap 2g. A JSON
config file (``--config``) supplies defaults that explicit flags override.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass

import numpy as np

from ._kernels import backend_name
from ._version import __version__
from .dynamics import EvolutionConfig, NoiseModel, lindblad_evolve, schrodinger_evolve
from .errors import CdgateError
from .experiments import (
    default_worker_count,
    find_optimal_tau,
    gate_unitary_check,
    lz_prediction_for,
    make_grid,
    n_qubit_demo,
    sweep_noise,
    sweep_tau,
    tradeoff_boundary,
)
from .model import CnotParams, analytic_spectrum, cnot_system, linear_ramp

COMMANDS = ("spectrum", "evolve", "sweep-tau", "sweep-noise", "heatmap",
            "optimal-tau", "tradeoff", "gate-check", "nqubit")

_AXIS_HELP = "range syntax start:stop:count[log] or a comma-separated list"


@dataclass(frozen=True)
class RunConfig:
    command: str
    j1: float = 1.0
    g: float = 0.5
    j2_amp: float = 10.0
    tau: str = "20"
    alpha: str | None = None
    threshold: float = 0.9
    n: int | None = None
    phase_offset: int = 0
    cd: bool = False
    full_range_ramp: bool = False
    output: str = "cdgate_out"
    format: str = "csv"
    seed: int = 0
    workers: int | None = None
    samples: int = 201
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    tau_window: str = "2:120"
    gnuplot: bool = False

    def params(self) -> CnotParams:
        return CnotParams(j1=self.j1, g=self.g, j2_amp=self.j2_amp)

    def evolution_config(self, tau: float, sample_count: int = 2,
                         use_cd: bool = False) -> EvolutionConfig:
        return EvolutionConfig(tau=tau, abs_tol=self.abs_tol,
                               rel_tol=self.rel_tol,
                               sample_count=sample_count, use_cd=use_cd)

    def echo(self) -> dict:
        out = asdict(self)
        return {k: v for k, v in out.items() if v is not None}


def parse_axis(spec: str) -> np.ndarray:
    """Parse ``start:stop:count[log]``, a comma list, or a single value."""
    s = str(spec).strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError(f"range {s!r} must be start:stop:count[log]")
        start, stop = float(parts[0]), float(parts[1])
        count_part = parts[2].strip()
        log = count_part.endswith("log")
        count = int(count_part[:-3] if log else count_part)
        if count < 1:
            raise ValueError(f"range {s!r} needs a positive count")
        if count == 1:
            return np.array([start])
        if log:
            if start <= 0 or stop <= 0:
                raise ValueError(f"log range {s!r} needs positive endpoints")
            return np.logspace(np.log10(start), np.log10(stop), count)
        return np.linspace(start, stop, count)
    if "," in s:
        return np.array([float(x) for x in s.split(",") if x.strip()])
    return np.array([float(s)])


_FIELDS: dict[str, type] = {
    "j1": float, "g": float, "j2_amp": float, "tau": str, "alpha": str,
    "threshold": float, "n": int, "phase_offset": int, "cd": bool,
    "full_range_ramp": bool, "output": str, "format": str, "seed": int,
    "workers": int, "samples": int, "rel_tol": float, "abs_tol": float,
    "tau_window": str, "gnuplot": bool,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cdgate",
        description="Driven CNOT gate simulator: spectra, gate runs, noise "
                    "sweeps and counterdiabatic control experiments.",
    )
    parser.add_argument("--version", action="version",
                        version=f"cdgate {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--j1", type=float, help="energy scale of qubit 1")
        p.add_argument("--g", type=float, help="sector coupling strength")
        p.add_argument("--j2", dest="j2_amp", type=float,
                       help="drive amplitude J2 in J2(t) = J2 t / tau")
        p.add_argument("--full-range-ramp", action="store_const", const=True,
                       help="ramp endpoints reach +-J2 instead of +-J2/2")
        p.add_argument("--output", help="output path prefix")
        p.add_argument("--format", choices=("csv", "json"),
                       help="data file format (default csv)")
        p.add_argument("--seed", type=int, help="master seed for metadata "
                       "and any stochastic oracle")
        p.add_argument("--workers", type=int,
                       help="worker thread count (default $CDGATE_WORKERS or 1)")
        p.add_argument("--samples", type=int,
                       help="output grid size for spectrum/evolve")
        p.add_argument("--rel-tol", dest="rel_tol", type=float,
                       help="integrator relative tolerance")
        p.add_argument("--abs-tol", dest="abs_tol", type=float,
                       help="integrator absolute tolerance")
        p.add_argument("--gnuplot", action="store_const", const=True,
                       help="emit a companion gnuplot script per CSV")

    specs = {
        "spectrum": "energy spectrum along the drive",
        "evolve": "a single gate run (unitary, or noisy with --alpha)",
        "sweep-tau": "final fidelity and transition probability vs tau",
        "sweep-noise": "noisy final fidelity over the (alpha, tau) grid",
        "heatmap": "dense (alpha, tau) fidelity map",
        "optimal-tau": "optimal driving time under noise, per alpha",
        "tradeoff": "CD-protected tau*alpha trade-off boundary",
        "gate-check": "exact-gate verification of the inverse-engineered H",
        "nqubit": "tau sweep for the N-qubit generalization",
    }
    parsers = {}
    for name, desc in specs.items():
        p = sub.add_parser(name, help=desc, description=desc)
        add_common(p)
        parsers[name] = p

    for name in ("spectrum", "evolve"):
        parsers[name].add_argument("--tau", help="driving time")
    for name in ("sweep-tau", "sweep-noise", "heatmap", "tradeoff", "nqubit"):
        parsers[name].add_argument("--tau", help=f"tau axis, {_AXIS_HELP}")
    parsers["gate-check"].add_argument("--tau", help="comma list of gate times")
    parsers["gate-check"].add_argument("--phase-offset", dest="phase_offset",
                                       type=int,
                                       help="integer n in phi(0) = 2 pi n")
    for name in ("evolve", "sweep-noise", "heatmap", "optimal-tau", "tradeoff"):
        parsers[name].add_argument(
            "--alpha", help=f"noise strengths in units of 2g, {_AXIS_HELP}")
    for name in ("sweep-tau", "sweep-noise", "heatmap", "evolve", "nqubit"):
        parsers[name].add_argument("--cd", action="store_const", const=True,
                                   help="add the counterdiabatic field")
    parsers["tradeoff"].add_argument("--threshold", type=float,
                                     help="fidelity threshold in (0.5, 1)")
    parsers["optimal-tau"].add_argument("--tau-window", dest="tau_window",
                                        help="search window lo:hi")
    parsers["nqubit"].add_argument("--n", type=int, help="qubit count (2..6)")
    return parser


_COMMAND_DEFAULTS = {
    "spectrum": {"tau": "20"},
    "evolve": {"tau": "20"},
    "sweep-tau": {"tau": "1:200:60log"},
    "sweep-noise": {"tau": "1:200:60log"},
    "heatmap": {"tau": "1:200:30log", "alpha": "0:0.2:21"},
    "optimal-tau": {},
    "tradeoff": {"tau": "1:100:40log", "alpha": "0.02:0.2:8log"},
    "gate-check": {"tau": "0.5,1,7.3"},
    "nqubit": {"tau": "0.5:50:20log"},
}

_REQUIRED = {
    "sweep-noise": ("alpha",),
    "optimal-tau": ("alpha",),
    "nqubit": ("n",),
}


def _load_config_file(path: str, parser: argparse.ArgumentParser) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file {path}: {exc}")
    if not isinstance(data, dict):
        parser.error(f"config file {path} must hold a JSON object")
    unknown = sorted(set(data) - set(_FIELDS) - {"command"})
    if unknown:
        parser.error(f"unknown config keys: {', '.join(unknown)}")
    for key, value in data.items():
        if key == "command":
            continue
        want = _FIELDS[key]
        if want is bool and not isinstance(value, bool):
            parser.error(f"config key {key!r} must be a boolean")
        if want in (int, float) and isinstance(value, bool):
            parser.error(f"config key {key!r} must be a number")
    return data


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Parse CLI arguments (and an optional JSON config file) into a
    RunConfig; exits with code 2 on any validation problem."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    command = ns.command

    file_values: dict = {}
    if getattr(ns, "config", None):
        file_values = _load_config_file(ns.config, parser)
        if file_values.get("command") not in (None, command):
            parser.error(
                f"config file is for {file_values['command']!r}, "
                f"but the command line says {command!r}"
            )

    merged = {}
    defaults = dict(_COMMAND_DEFAULTS.get(command, {}))
    for name, caster in _FIELDS.items():
        cli_value = getattr(ns, name, None)
        if cli_value is not None:
            merged[name] = cli_value
        elif name in file_values and file_values[name] is not None:
            try:
                merged[name] = (bool(file_values[name]) if caster is bool
                                else caster(file_values[name]))
            except (TypeError, ValueError):
                parser.error(f"config key {name!r} has an invalid value")
        elif name in defaults:
            merged[name] = defaults[name]

    for name in _REQUIRED.get(command, ()):
        if merged.get(name) is None:
            parser.error(f"--{name} is required for {command}")

    rc_kwargs = {k: v for k, v in merged.items() if v is not None}
    try:
        rc = RunConfig(command=command, **rc_kwargs)
        rc.params()
        for axis_name in ("tau", "alpha"):
            value = getattr(rc, axis_name)
            if value is not None:
                parse_axis(value)
        if rc.format not in ("csv", "json"):
            parser.error(f"unsupported format {rc.format!r}")
        if command == "tradeoff" and not 0.5 < rc.threshold < 1.0:
            parser.error(f"--threshold must lie in (0.5, 1), got {rc.threshold}")
        if command == "nqubit" and not 2 <= (rc.n or 0) <= 6:
            parser.error(f"--n must lie in 2..6, got {rc.n}")
        if rc.samples < 2:
            parser.error("--samples must be at least 2")
    except ValueError as exc:
        parser.error(str(exc))
    return rc


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return format(float(value), ".17g")


def emit_csv(path: str, header: list[str], rows) -> int:
    """Write one CSV data file: header row, 17-significant-digit floats,
    LF endings, UTF-8. Removes the partial file on failure."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            count = 0
            for row in rows:
                fh.write(",".join(_fmt(x) for x in row) + "\n")
                count += 1
        return count
    except OSError:
        if os.path.exists(path):
            os.unlink(path)
        raise


def emit_json(path: str, header: list[str], rows) -> int:
    try:
        payload = [dict(zip(header, [bool(x) if isinstance(x, (bool, np.bool_))
                                     else float(x) for x in row]))
                   for row in rows]
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        return len(payload)
    except OSError:
        if os.path.exists(path):
            os.unlink(path)
        raise


def _gnuplot_script(csv_path: str, header: list[str]) -> str:
    ycols = ", ".join(
        f"'{os.path.basename(csv_path)}' using 1:{i + 1} with lines title '{name}'"
        for i, name in enumerate(header[1:], start=1)
    )
    return (
        "set datafile separator ','\n"
        "set key outside\n"
        f"set xlabel '{header[0]}'\n"
        f"plot {ycols}\n"
    )


def _spectrum_rows(rc: RunConfig):
    params = rc.params()
    tau = float(parse_axis(rc.tau)[0])
    ramp = linear_ramp(params, tau, rc.full_range_ramp)
    times = np.linspace(ramp.t_start, ramp.t_end, rc.samples)
    rows = []
    for t in times:
        j2 = ramp.value(float(t))
        snap = analytic_spectrum(params, j2)
        rows.append((t, j2, *snap.energies, snap.gap))
    return ["t", "J2", "E1", "E2", "E3", "E4", "gap"], rows


def _evolve_rows(rc: RunConfig):
    params = rc.params()
    tau = float(parse_axis(rc.tau)[0])
    system = cnot_system(params, tau, use_cd=rc.cd,
                         full_range_ramp=rc.full_range_ramp)
    cfg = rc.evolution_config(tau, sample_count=rc.samples, use_cd=rc.cd)
    start = analytic_spectrum(params, system.drive_value(system.t_start)).states[0]
    header = ["t", "fidelity", "ground_prob", "transition_prob", "norm"]
    rows = []
    if rc.alpha is None:
        traj = schrodinger_evolve(system, start, cfg)
        for t, psi in zip(traj.times, traj.states):
            snap = analytic_spectrum(params, system.drive_value(float(t)))
            rows.append((
                t,
                abs(psi[3]) ** 2,
                abs(np.vdot(snap.states[0], psi)) ** 2,
                abs(np.vdot(snap.states[1], psi)) ** 2,
                float(np.sum(np.abs(psi) ** 2)),
            ))
    else:
        alpha_gap = float(parse_axis(rc.alpha)[0])
        noise = NoiseModel.from_gap_units(alpha_gap, params.g)
        rho0 = np.outer(start, start.conj())
        traj = lindblad_evolve(system, rho0, noise, cfg)
        target = np.zeros(4, dtype=complex)
        target[3] = 1.0
        for t, rho in zip(traj.times, traj.states):
            snap = analytic_spectrum(params, system.drive_value(float(t)))
            v1, v2 = snap.states[0], snap.states[1]
            rows.append((
                t,
                float(np.real(rho[3, 3])),
                float(np.real(np.vdot(v1, rho @ v1))),
                float(np.real(np.vdot(v2, rho @ v2))),
                float(np.real(np.trace(rho))),
            ))
    return header, rows


def _sweep_tau_rows(rc: RunConfig, n_qubits: int | None = None):
    params = rc.params()
    taus = parse_axis(rc.tau)
    cfg = rc.evolution_config(1.0, use_cd=rc.cd)
    if n_qubits is None:
        result = sweep_tau(params, taus, rc.cd, cfg,
                           full_range_ramp=rc.full_range_ramp,
                           workers=rc.workers)
    else:
        result = n_qubit_demo(n_qubits, params, taus, rc.cd, cfg,
                              full_range_ramp=rc.full_range_ramp,
                              workers=rc.workers)
    rows = [
        (tau, result.fidelity[0, j], result.transition_prob[0, j],
         lz_prediction_for(params, float(tau), rc.full_range_ramp))
        for j, tau in enumerate(taus)
    ]
    return ["tau", "fidelity", "transition_prob", "lz_prediction"], rows


def _noise_rows(rc: RunConfig):
    params = rc.params()
    grid = make_grid(params, parse_axis(rc.tau), parse_axis(rc.alpha),
                     cd_enabled=rc.cd, master_seed=rc.seed,
                     full_range_ramp=rc.full_range_ramp)
    cfg = rc.evolution_config(1.0, use_cd=rc.cd)
    result = sweep_noise(grid, cfg, workers=rc.workers)
    rows = []
    for i, alpha in enumerate(grid.alpha_values):
        for j, tau in enumerate(grid.tau_values):
            rows.append((alpha, grid.alpha_gap_units[i], tau,
                         result.fidelity[i, j]))
    for cell in result.failed_cells:
        print(f"cdgate: warning: {cell}; its fidelity is written as NaN",
              file=sys.stderr)
    header = ["alpha_abs", "alpha_in_gap_units", "tau", "fidelity"]
    return header, rows, {"failed_cells": result.failed_cells}


def _optimal_tau_rows(rc: RunConfig):
    params = rc.params()
    parts = rc.tau_window.split(":")
    if len(parts) != 2:
        raise ValueError(f"--tau-window must be lo:hi, got {rc.tau_window!r}")
    lo, hi = float(parts[0]), float(parts[1])
    cfg = rc.evolution_config(1.0)
    rows = []
    for alpha_gap in parse_axis(rc.alpha):
        alpha = NoiseModel.from_gap_units(float(alpha_gap), params.g).alpha
        tau_star, f_star = find_optimal_tau(
            params, alpha, cfg, tau_window=(lo, hi),
            full_range_ramp=rc.full_range_ramp)
        rows.append((alpha, alpha_gap, tau_star, f_star))
    return ["alpha_abs", "alpha_in_gap_units", "tau_star", "f_star"], rows


def _tradeoff_rows(rc: RunConfig):
    params = rc.params()
    grid = make_grid(params, parse_axis(rc.tau), parse_axis(rc.alpha),
                     cd_enabled=True, master_seed=rc.seed,
                     full_range_ramp=rc.full_range_ramp)
    cfg = rc.evolution_config(1.0, use_cd=True)
    curve = tradeoff_boundary(grid, rc.threshold, cfg, workers=rc.workers)
    rows = [(alpha, alpha / (2 * params.g), tau_max, alpha * tau_max)
            for alpha, tau_max in curve.points]
    header = ["alpha_abs", "alpha_in_gap_units", "tau_max", "tau_alpha_product"]
    summary = {"product_mean": curve.product_mean,
               "product_spread": curve.product_spread,
               "threshold": curve.threshold}
    return header, rows, summary


def _gate_check_rows(rc: RunConfig):
    rows = []
    all_passed = True
    for tau in parse_axis(rc.tau):
        report = gate_unitary_check(float(tau), n_offset=rc.phase_offset)
        rows.append((report.tau, report.distance, report.phase_insensitive,
                     report.commutator_residual, report.passed))
        all_passed = all_passed and report.passed
    header = ["tau", "frobenius_distance", "phase_insensitive_distance",
              "commutator_residual", "passed"]
    return header, rows, all_passed


def run_command(rc: RunConfig) -> tuple[list[str], bool]:
    """Execute the configured command; returns written files and a success
    flag. The manifest is written last so its presence signals completion."""
    t0 = time.perf_counter()
    summary: dict = {}
    ok = True
    if rc.command == "spectrum":
        header, rows = _spectrum_rows(rc)
    elif rc.command == "evolve":
        header, rows = _evolve_rows(rc)
    elif rc.command == "sweep-tau":
        header, rows = _sweep_tau_rows(rc)
    elif rc.command == "nqubit":
        header, rows = _sweep_tau_rows(rc, n_qubits=rc.n)
    elif rc.command in ("sweep-noise", "heatmap"):
        header, rows, summary = _noise_rows(rc)
    elif rc.command == "optimal-tau":
        header, rows = _optimal_tau_rows(rc)
    elif rc.command == "tradeoff":
        header, rows, summary = _tradeoff_rows(rc)
    elif rc.command == "gate-check":
        header, rows, ok = _gate_check_rows(rc)
        summary = {"all_passed": ok}
    else:  # pragma: no cover - argparse restricts the choices
        raise ValueError(f"unknown command {rc.command!r}")

    ext = "csv" if rc.format == "csv" else "json"
    data_path = f"{rc.output}_{rc.command}.{ext}"
    writer = emit_csv if rc.format == "csv" else emit_json
    count = writer(data_path, header, rows)
    files = [{"path": data_path, "rows": count}]

    if rc.gnuplot and rc.format == "csv":
        gp_path = data_path + ".gp"
        with open(gp_path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(_gnuplot_script(data_path, header))
        files.append({"path": gp_path, "rows": None})

    manifest = {
        "config": rc.echo(),
        "version": __version__,
        "backend": backend_name(),
        "workers": rc.workers or default_worker_count(),
        "wall_seconds": time.perf_counter() - t0,
        "files": files,
    }
    if summary:
        manifest["summary"] = summary
    manifest_path = f"{rc.output}_manifest.json"
    with open(manifest_path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return [f["path"] for f in files] + [manifest_path], ok


def main(argv: list[str] | None = None) -> int:
    try:
        rc = parse_config(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        files, ok = run_command(rc)
    except (CdgateError, ValueError, OSError) as exc:
        print(f"cdgate: error: {exc}", file=sys.stderr)
        return 1
    for path in files:
        print(path)
    if not ok:
        print("cdgate: gate check failed the 1e-10 distance bound",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
