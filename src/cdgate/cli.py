"""Command-line front end: parse a run configuration, dispatch experiments,
serialize plot-ready CSV/JSON with a reproducibility manifest.

Exit codes: 0 success; 1 runtime failure, an ``error:`` line and no
traceback (a sweep with failed cells or a failed gate check writes its
files, then exits 1 with its cause); 2 configuration/validation error,
before any file is written. ``_write`` writes every file and leaves no
partial one. Defaults and range checks are the library's own.
Axis values accept the range syntax ``start:stop:count[log]`` or a comma
list; noise strengths are given in units of the minimal gap 2g. A JSON
config file (``--config``) supplies defaults that explicit flags override.
JSON output is strict: a NaN is written as null.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, NamedTuple, get_args, get_type_hints

import numpy as np

from ._kernels import backend_name
from ._version import __version__
from .dynamics import EvolutionConfig, NoiseModel
from .errors import CdgateError
from .experiments import (
    _GATE_DISTANCE_LIMIT,
    _PROFILE_SAMPLES,
    _TAU_WINDOW,
    _check_tau_window,
    _check_threshold,
    _gate_cell,
    _readout,
    _run_cell,
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
from .model import (CnotParams, _check_qubit_count, analytic_spectrum,
                    linear_phase_ramp, linear_ramp)


@dataclass(frozen=True)
class RunConfig:
    """One run's settings, with the library's defaults."""

    command: str
    j1: float = CnotParams.j1
    g: float = CnotParams.g
    j2_amp: float = CnotParams.j2_amp
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
    samples: int = _PROFILE_SAMPLES
    rel_tol: float = EvolutionConfig.rel_tol
    abs_tol: float = EvolutionConfig.abs_tol
    tau_window: str = "{:g}:{:g}".format(*_TAU_WINDOW)
    gnuplot: bool = False

    def params(self) -> CnotParams:
        # a full-range ramp reaches +-J2: the library's j2_amp doubled
        scale = 2.0 if self.full_range_ramp else 1.0
        return CnotParams(j1=self.j1, g=self.g, j2_amp=self.j2_amp * scale)

    def evolution_config(self, **options) -> EvolutionConfig:
        return EvolutionConfig(abs_tol=self.abs_tol, rel_tol=self.rel_tol,
                               **options)


def parse_axis(spec: str) -> np.ndarray:
    """Parse ``start:stop:count[log]``, a comma list, or a single value;
    every value must be finite."""
    s = str(spec).strip()
    if ":" in s:
        parts = s.split(":")
        if len(parts) != 3:
            raise ValueError(f"range {s!r} must be start:stop:count[log]")
        start, stop = float(parts[0]), float(parts[1])
        count_part = parts[2].strip()
        log = count_part.endswith("log")
        count = int(count_part[:-3] if log else count_part)
        if count < 1 or not np.isfinite([start, stop]).all():
            raise ValueError(f"range {s!r} needs finite ends, a positive count")
        if count == 1:
            values = np.array([start])
        elif not log:
            values = np.linspace(start, stop, count)
        elif start > 0 and stop > 0:
            values = np.logspace(np.log10(start), np.log10(stop), count)
        else:
            raise ValueError(f"log range {s!r} needs positive endpoints")
    else:
        values = np.array([float(x) for x in s.split(",") if x.strip()])
    if not (values.size and np.isfinite(values).all()):
        raise ValueError(f"axis {s!r} needs finite values")
    return values


def _axis_problem(command: str, name: str, values: np.ndarray) -> str | None:
    """Why the ``--tau`` or ``--alpha`` values do not suit ``command``, or
    None."""
    spec = _COMMANDS[command]
    if spec.single and values.size > 1:
        return "takes one value"
    # tau is a duration; alpha = 0 has no optimal tau
    positive = name == "tau" or command == "optimal-tau"
    if np.any(values <= 0.0 if positive else values < 0.0):
        return "must be positive" if positive else "must be non-negative"
    if spec.grid and np.any(np.diff(values) < 0):
        return "must be ascending"
    return None


def _parse_window(spec: str) -> tuple[float, float]:
    """Parse a ``lo:hi`` search window, checked as ``find_optimal_tau``
    checks it."""
    window = tuple(float(x) for x in str(spec).split(":"))
    _check_tau_window(window)
    return window


# Config key -> the type its value is cast to (``str | None`` -> str).
_FIELDS: dict[str, type] = {
    name: next(t for t in get_args(hint) or (hint,) if t is not type(None))
    for name, hint in get_type_hints(RunConfig).items() if name != "command"
}

# One flag per RunConfig field, --<field> with dashes (j2_amp is --j2); the
# fields in _COMMANDS options belong to those commands only.
_HELP = {
    "j1": "energy scale of qubit 1",
    "g": "sector coupling strength",
    "j2_amp": "drive amplitude J2 in J2(t) = J2 t / tau",
    "full_range_ramp": "ramp endpoints reach +-J2 instead of +-J2/2, "
                       "the same run as --j2 doubled",
    "output": "output path prefix",
    "format": "data file format, csv (default) or json",
    "seed": "master seed, recorded in the manifest",
    "workers": "accepted and recorded, but ignored: sweeps run on one thread",
    "samples": "output grid size for spectrum/evolve",
    "rel_tol": "integrator relative tolerance",
    "abs_tol": "integrator absolute tolerance",
    "gnuplot": "emit a companion gnuplot script per CSV",
    "tau": "driving time(s), range syntax start:stop:count[log] or a "
           "comma-separated list",
    "alpha": "noise strengths in units of 2g, in the syntax of --tau",
    "cd": "add the counterdiabatic field",
    "threshold": "fidelity threshold",
    "tau_window": "search window lo:hi",
    "n": "qubit count",
    "phase_offset": "integer n in phi(0) = 2 pi n",
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

    per_command = {f for c in _COMMANDS.values() for f in c.options}
    common = [f for f in _HELP if f not in per_command]
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help, description=command.help)
        p.add_argument("--config", help="JSON config file; flags override it")
        for field in common + list(command.options):
            flag = "--j2" if field == "j2_amp" else "--" + field.replace("_", "-")
            kind = _FIELDS[field]
            kwargs = ({"action": "store_const", "const": True} if kind is bool
                      else {"type": kind})
            p.add_argument(flag, dest=field, help=_HELP[field], **kwargs)
    return parser


def _load_config_file(path: str, parser: argparse.ArgumentParser):
    """A JSON config file's command and values, each cast to its field's
    type; no boolean is a number, no float an integer (as ``--n 3.0``)."""
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
    values = {}
    for key, value in data.items():
        want = _FIELDS.get(key)
        if want is None or value is None:  # the command, or no value
            continue
        if ((want is bool) != isinstance(value, bool)
                or want is int and isinstance(value, float)):
            parser.error(f"config key {key!r} must be of type "
                         f"{want.__name__}, got {value!r}")
        try:
            values[key] = want(value)
        except (TypeError, ValueError, OverflowError):
            parser.error(f"config key {key!r} has an invalid value")
    return data.get("command"), values


def parse_config(argv: list[str] | None = None) -> RunConfig:
    """Parse CLI arguments (and an optional JSON config file) into a
    RunConfig; exits with code 2 on any validation problem."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    command = ns.command

    file_command, file_values = (_load_config_file(ns.config, parser)
                                 if ns.config else (None, {}))
    if file_command not in (None, command):
        parser.error(f"config file is for {file_command!r}, "
                     f"but the command line says {command!r}")
    flags = {name: value for name in _FIELDS
             if (value := getattr(ns, name, None)) is not None}
    merged = {**_COMMANDS[command].defaults, **file_values, **flags}
    for name in _COMMANDS[command].required:
        if name not in merged:
            parser.error(f"--{name} is required for {command}")

    try:
        rc = RunConfig(command=command, **merged)
        params = rc.params()
        rc.evolution_config()  # the tolerances
        # each value as the run takes it: a tau so short that its ramp's
        # rate overflows, 2 alpha or a phase offset 2 pi n that is not finite
        value_checks = {
            "tau": (lambda tau: linear_phase_ramp(tau, rc.phase_offset))
            if command == "gate-check" else lambda tau: linear_ramp(params, tau),
            "alpha": lambda alpha: NoiseModel.from_gap_units(alpha, params.g)}
        for name, check in value_checks.items():
            spec = getattr(rc, name)
            if spec is None or name not in _COMMANDS[command].options:
                continue  # an axis the command does not take is not checked
            values = parse_axis(spec)
            if problem := _axis_problem(command, name, values):
                parser.error(f"--{name} {problem} for {command}, got {spec!r}")
            for value in values.tolist():
                check(value)
        # the library's checks of the other fields, each error named by its
        # flag; a field the command does not take is not checked
        field_checks = {
            "samples": lambda: rc.evolution_config(sample_count=rc.samples),
            "tau_window": lambda: linear_ramp(params,
                                              _parse_window(rc.tau_window)[0]),
            "threshold": lambda: _check_threshold(rc.threshold),
            "n": lambda: _check_qubit_count(rc.n)}
        for name, check in field_checks.items():
            if name == "samples" or name in _COMMANDS[command].options:
                try:
                    check()
                except (CdgateError, ValueError) as exc:
                    parser.error(f"--{name.replace('_', '-')}: {exc}")
        if rc.format not in ("csv", "json"):
            parser.error(f"unsupported format {rc.format!r}")
        if not os.path.isdir(os.path.dirname(rc.output) or "."):
            parser.error(f"--output directory does not exist: {rc.output!r}")
    except (CdgateError, ValueError) as exc:
        parser.error(str(exc))
    return rc


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer, np.bool_)):  # a bool is 1 or 0
        return str(int(value))
    return format(float(value), ".17g")


def _write(path: str, chunks) -> int:
    """The one file writer: the text ``chunks`` into ``path`` (UTF-8, LF
    endings), returning their count; a failed write removes the file."""
    fh = open(path, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            count = 0
            for count, chunk in enumerate(chunks, 1):
                fh.write(chunk)
            return count
    except BaseException:
        os.unlink(path)
        raise


def emit_csv(path: str, header: list[str], rows) -> int:
    """Write one CSV data file, a row at a time: header row,
    17-significant-digit floats. Returns the row count."""
    lines = (",".join(_fmt(x) for x in row) + "\n" for row in rows)
    return _write(path, itertools.chain([",".join(header) + "\n"], lines)) - 1


def _strict_json(value):
    """``value`` with each NaN or infinite float as None, so that it dumps
    as RFC 8259 JSON, which has no NaN: a failed cell reads ``null``."""
    if isinstance(value, dict):
        return {k: _strict_json(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict_json(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _json_text(value, **options) -> str:
    return json.dumps(_strict_json(value), indent=1, allow_nan=False,
                      **options) + "\n"


def emit_json(path: str, header: list[str], rows) -> int:
    """Write one JSON data file, an object per row. Returns the row count."""
    payload = [dict(zip(header, [bool(x) if isinstance(x, (bool, np.bool_))
                                 else float(x) for x in row]))
               for row in rows]
    _write(path, [_json_text(payload)])
    return len(payload)


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
    ramp = linear_ramp(params, float(parse_axis(rc.tau)[0]))
    times = np.linspace(ramp.t_start, ramp.t_end, rc.samples)
    rows = []
    for t in times:
        j2 = ramp.value(float(t))
        snap = analytic_spectrum(params, j2)
        rows.append((t, j2, *snap.energies, snap.gap))
    return ["t", "J2", "E1", "E2", "E3", "E4", "gap"], rows, {}


def _evolve_rows(rc: RunConfig):
    params = rc.params()
    tau = float(parse_axis(rc.tau)[0])
    alpha = (None if rc.alpha is None else NoiseModel.from_gap_units(
        float(parse_axis(rc.alpha)[0]), params.g).alpha)
    system, _, _ = cell = _gate_cell(params, tau, rc.cd, alpha=alpha)
    traj = _run_cell(cell, rc.evolution_config(sample_count=rc.samples))
    # the last column is norm^2 for a state, the trace for a density matrix
    rows = [(t, *_readout(system, t, y),
             float(np.sum(np.abs(y) ** 2)) if alpha is None
             else float(np.real(np.trace(y))))
            for t, y in zip(traj.times, traj.states)]
    return ["t", "fidelity", "ground_prob", "transition_prob", "norm"], rows, {}


def _sweep_tau_rows(rc: RunConfig):
    params = rc.params()
    taus = parse_axis(rc.tau)
    cfg = rc.evolution_config()
    result = (n_qubit_demo(rc.n, params, taus, rc.cd, cfg)
              if rc.command == "nqubit" else sweep_tau(params, taus, rc.cd, cfg))
    rows = [
        (tau, result.fidelity[0, j], result.transition_prob[0, j],
         lz_prediction_for(params, float(tau)))
        for j, tau in enumerate(taus)
    ]
    header = ["tau", "fidelity", "transition_prob", "lz_prediction"]
    return header, rows, {"failed_cells": result.failed_cells}


def _noise_rows(rc: RunConfig):
    params = rc.params()
    grid = make_grid(params, parse_axis(rc.tau), parse_axis(rc.alpha),
                     cd_enabled=rc.cd)
    result = sweep_noise(grid, rc.evolution_config())
    rows = [(alpha, grid.alpha_gap_units[i], tau, result.fidelity[i, j])
            for i, alpha in enumerate(grid.alpha_values)
            for j, tau in enumerate(grid.tau_values)]
    header = ["alpha_abs", "alpha_in_gap_units", "tau", "fidelity"]
    return header, rows, {"failed_cells": result.failed_cells}


def _optimal_tau_rows(rc: RunConfig):
    params = rc.params()
    window = _parse_window(rc.tau_window)
    cfg = rc.evolution_config()
    rows = []
    for alpha_gap in parse_axis(rc.alpha):
        alpha = NoiseModel.from_gap_units(float(alpha_gap), params.g).alpha
        tau_star, f_star = find_optimal_tau(params, alpha, cfg,
                                            tau_window=window)
        rows.append((alpha, alpha_gap, tau_star, f_star))
    return ["alpha_abs", "alpha_in_gap_units", "tau_star", "f_star"], rows, {}


def _tradeoff_rows(rc: RunConfig):
    params = rc.params()
    grid = make_grid(params, parse_axis(rc.tau), parse_axis(rc.alpha),
                     cd_enabled=True)
    curve = tradeoff_boundary(grid, rc.threshold, rc.evolution_config())
    rows = [(alpha, NoiseModel(alpha=alpha).in_gap_units(params.g), tau_max,
             alpha * tau_max) for alpha, tau_max in curve.points]
    header = ["alpha_abs", "alpha_in_gap_units", "tau_max", "tau_alpha_product"]
    summary = {key: getattr(curve, key) for key in (
        "product_mean", "product_spread", "threshold", "failed_cells")}
    return header, rows, summary


def _gate_check_rows(rc: RunConfig):
    reports = [gate_unitary_check(float(tau), n_offset=rc.phase_offset)
               for tau in parse_axis(rc.tau)]
    rows = [(r.tau, r.distance, r.phase_insensitive, r.commutator_residual,
             r.passed) for r in reports]
    header = ["tau", "frobenius_distance", "phase_insensitive_distance",
              "commutator_residual", "passed"]
    return header, rows, {"all_passed": all(r.passed for r in reports)}


class _Command(NamedTuple):
    help: str
    rows: Callable   # RunConfig -> (header, rows, manifest summary)
    options: tuple[str, ...] = ("tau",)
    defaults: dict = {}
    required: tuple[str, ...] = ()
    grid: bool = False  # its tau and alpha axes span a sweep grid, ascending
    single: bool = False  # it runs one gate: one tau, and one alpha


# One entry per subcommand. The row functions reach the experiments and
# writers through their module-level names at call time, never through a
# stored reference, so wrappers put on those names (perfbench/tracer.py)
# see every call.
_COMMANDS = {
    "spectrum": _Command("energy spectrum along the drive", _spectrum_rows,
                         single=True),
    "evolve": _Command("a single gate run (unitary, or noisy with --alpha)",
                       _evolve_rows, ("tau", "alpha", "cd"), single=True),
    "sweep-tau": _Command(
        "final fidelity and transition probability vs tau", _sweep_tau_rows,
        ("tau", "cd"), {"tau": "1:200:60log"}, grid=True),
    "sweep-noise": _Command(
        "noisy final fidelity over the (alpha, tau) grid", _noise_rows,
        ("tau", "alpha", "cd"), {"tau": "1:200:60log"}, ("alpha",), grid=True),
    "heatmap": _Command(
        "dense (alpha, tau) fidelity map", _noise_rows, ("tau", "alpha", "cd"),
        {"tau": "1:200:30log", "alpha": "0:0.2:21"}, grid=True),
    "optimal-tau": _Command(
        "optimal driving time under noise, per alpha", _optimal_tau_rows,
        ("alpha", "tau_window"), required=("alpha",)),
    "tradeoff": _Command(
        "CD-protected tau*alpha trade-off boundary", _tradeoff_rows,
        ("tau", "alpha", "threshold"),
        {"tau": "1:100:40log", "alpha": "0.02:0.2:8log"}, grid=True),
    "gate-check": _Command(
        "exact-gate verification of the inverse-engineered H",
        _gate_check_rows, ("tau", "phase_offset"), {"tau": "0.5,1,7.3"}),
    "nqubit": _Command(
        "tau sweep for the N-qubit generalization", _sweep_tau_rows,
        ("tau", "cd", "n"), {"tau": "0.5:50:20log"}, ("n",), grid=True),
}


def _failure(summary: dict) -> str | None:
    """Why a run that writes its files still fails, from its summary; each
    failed sweep cell is warned of on stderr here."""
    cells = summary.get("failed_cells")
    if cells:
        one, every, effect = (
            ("it counts", "they count", "as below the threshold")
            if "threshold" in summary
            else ("its fidelity is", "their fidelity is", "written as NaN"))
        for cell in cells:
            print(f"cdgate: warning: {cell}; {one} {effect}", file=sys.stderr)
        return f"{len(cells)} sweep cell(s) failed; {every} {effect}"
    if summary.get("all_passed") is False:
        return (f"gate check failed the {_GATE_DISTANCE_LIMIT:g} distance "
                "bound")
    return None


def run_command(rc: RunConfig) -> tuple[list[str], str | None]:
    """Execute the configured command; returns the written files and, for a
    run whose summary records a failure, its cause (None on success). The
    manifest is written last so its presence signals completion; a write
    that fails leaves no partial file."""
    t0 = time.perf_counter()
    header, rows, summary = _COMMANDS[rc.command].rows(rc)
    failure = _failure(summary)

    data_path = f"{rc.output}_{rc.command}.{rc.format}"
    writer = emit_csv if rc.format == "csv" else emit_json
    count = writer(data_path, header, rows)
    files = [{"path": data_path, "rows": count}]

    if rc.gnuplot and rc.format == "csv":
        gp_path = data_path + ".gp"
        _write(gp_path, [_gnuplot_script(data_path, header)])
        files.append({"path": gp_path, "rows": None})

    manifest = {
        "config": {k: v for k, v in asdict(rc).items() if v is not None},
        "version": __version__,
        "backend": backend_name(),
        "workers": default_worker_count(),
        "wall_seconds": time.perf_counter() - t0,
        "files": files,
    }
    if summary:
        manifest["summary"] = summary
    manifest_path = f"{rc.output}_manifest.json"
    _write(manifest_path, [_json_text(manifest, sort_keys=True)])
    return [f["path"] for f in files] + [manifest_path], failure


def main(argv: list[str] | None = None) -> int:
    try:
        rc = parse_config(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        files, failure = run_command(rc)
    except Exception as exc:  # one error: line, never a traceback
        print(f"cdgate: error: {exc}", file=sys.stderr)
        return 1
    for path in files:
        print(path)
    if failure is not None:
        print(f"cdgate: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
