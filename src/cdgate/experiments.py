"""Named experiment recipes: the sweeps, optimum searches and checks that
regenerate the plot-ready data sets.

Every ramped gate run is one set-up, ``_gate_cell`` (the system and its
start state, pure or as a density matrix), one runner, ``_run_cell`` (the
default ``EvolutionConfig``, then the Schroedinger or Lindblad engine),
and one readout, ``_readout`` (the fidelity against ``_target``, then the
sector's ground-state and transition probability). Every sweep and search
runs one cell, ``_cell``, the readout of a final state, unitary or noisy;
every grid recipe fills its three arrays in one loop, ``_sweep``, cell
after cell on the calling thread, each independently and
deterministically: the work is numpy calls on small arrays that hold the
GIL, so threads would gain nothing. A cell that fails is written as NaN
and listed in ``failed_cells``; the sweep goes on. Noise strengths are specified in
units of the minimal gap 2g in user-facing interfaces and converted to
absolute rates internally.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ._kernels import backend_name
from ._version import __version__ as _version
from .dynamics import (
    EvolutionConfig,
    NoiseModel,
    Trajectory,
    lindblad_evolve,
    propagator,
    schrodinger_evolve,
)
from .errors import CdgateError, NoInteriorMaximumError
from .model import (
    CnotParams,
    RampedGateHamiltonian,
    _check_qubit_count,
    build_inverse_engineered,
    cnot_system,
    cnot_unitary,
    linear_phase_ramp,
    nqubit_sector_states,
    nqubit_system,
)
from .numerics import (
    commutator,
    frobenius_distance,
    phase_insensitive_distance,
)
from .observables import FidelityPoint, fidelity_mixed, lz_formula

_GATE_DISTANCE_LIMIT = 1e-10
_COARSE_POINTS = 18    # find_optimal_tau's log-spaced scan
_RESOLUTION = 0.5      # width at which its golden-section search stops
_TAU_WINDOW = (2.0, 120.0)  # its default search window
_PROFILE_SAMPLES = 201  # adiabatic_profile's default sample count


def default_worker_count() -> int:
    """Sweeps run on one thread. Kept because perfbench/tracer.py wraps it."""
    return 1


@dataclass(frozen=True)
class SweepGrid:
    """The (alpha, tau) plane of a noise sweep; alphas are stored both as
    absolute rates and in units of the minimal gap 2g."""

    tau_values: np.ndarray
    alpha_values: np.ndarray
    alpha_gap_units: np.ndarray
    cd_enabled: bool
    params: CnotParams

    def __post_init__(self):
        tau = np.asarray(self.tau_values, dtype=float)
        alpha = np.asarray(self.alpha_values, dtype=float)
        if tau.size == 0 or alpha.size == 0:
            raise ValueError("grid axes must be non-empty")
        if not np.all(np.isfinite(tau) & (tau > 0)):
            raise ValueError("all tau values must be positive and finite")
        for value in alpha.tolist():
            NoiseModel(alpha=value)  # its range check
        if np.any(np.diff(tau) < 0) or np.any(np.diff(alpha) < 0):
            raise ValueError("grid axes must be ascending")


def make_grid(params: CnotParams, tau_values, alpha_gap_units,
              cd_enabled) -> SweepGrid:
    """Build a sweep grid from noise strengths given in units of 2g."""
    alpha_gap = np.asarray(alpha_gap_units, dtype=float)
    return SweepGrid(
        tau_values=np.asarray(tau_values, dtype=float),
        alpha_values=alpha_gap * (2.0 * params.g),
        alpha_gap_units=alpha_gap,
        cd_enabled=cd_enabled,
        params=params,
    )


@dataclass
class SweepResult:
    grid: SweepGrid
    fidelity: np.ndarray
    transition_prob: np.ndarray
    ground_prob: np.ndarray
    metadata: dict = field(default_factory=dict)
    failed_cells: list = field(default_factory=list)


@dataclass(frozen=True)
class TradeoffCurve:
    """Largest tau keeping fidelity above a threshold, per noise strength.

    ``failed_cells`` lists the sweep cells that raised; each counts as below
    the threshold, so it can only lower a ``tau_max``.
    """

    threshold: float
    points: list
    product_mean: float
    product_spread: float
    failed_cells: list = field(default_factory=list)


@dataclass(frozen=True)
class GateCheckReport:
    tau: float
    distance: float
    phase_insensitive: float
    commutator_residual: float
    passed: bool


def _target(system: RampedGateHamiltonian) -> np.ndarray:
    """The basis state the gate should end in: |1..11>, or |1..10> when the
    ramp ends at a negative drive, where the sector ground state then lies."""
    v = np.zeros(system.dim, dtype=np.complex128)
    v[-1 if system.drive_value(system.t_end) > 0 else -2] = 1.0
    return v


def _readout(system: RampedGateHamiltonian, t: float,
             y: np.ndarray) -> tuple[float, float, float]:
    """Fidelity against ``_target``, then the sector's ground-state and
    transition probability at J(t), of a state or (checked by
    ``fidelity_mixed``) a density matrix ``y``."""
    n = system.dim.bit_length() - 1
    ground, excited = nqubit_sector_states(n, system.g, system.drive_value(t))
    target = _target(system)
    if y.ndim == 1:
        return tuple(float(abs(np.vdot(v, y)) ** 2)
                     for v in (target, ground, excited))
    return (fidelity_mixed(y, target),
            *(float(np.vdot(v, y @ v).real) for v in (ground, excited)))


def _gate_cell(params: CnotParams, tau: float, cd: bool, n: int = 2,
               alpha: float | None = None):
    """One ramped gate run's set-up ``(system, y0, alpha)``: y0 is the start's
    sector ground state, pure, or as a density matrix given a rate alpha;
    n = 2 builds with ``cnot_system``, bit for bit ``nqubit_system(2, ...)``."""
    # perfbench's traced noise-map and optimal-tau require a
    # model.cnot_system span, so n = 2 keeps its own builder
    system = (cnot_system(params, tau, cd) if n == 2
              else nqubit_system(n, params, tau, cd))
    psi0 = nqubit_sector_states(n, params.g,
                                system.drive_value(system.t_start))[0]
    y0 = psi0 if alpha is None else np.outer(psi0, psi0.conj())
    return system, y0, alpha


def _run_cell(cell, cfg: EvolutionConfig | None) -> Trajectory:
    """Run a ``_gate_cell`` set-up: Schroedinger without an alpha, Lindblad
    with one; ``cfg`` defaults to the default tolerances and two samples."""
    system, y0, alpha = cell
    cfg = cfg or EvolutionConfig()
    if alpha is None:
        return schrodinger_evolve(system, y0, cfg)
    return lindblad_evolve(system, y0, NoiseModel(alpha=alpha), cfg)


def adiabatic_profile(params: CnotParams, tau: float, cd_enabled: bool = False,
                      cfg: EvolutionConfig | None = None
                      ) -> list[FidelityPoint]:
    """Instantaneous fidelity |<Psi(t)|11>|^2 (|10> for a negative
    amplitude, ``_target``) along one unitary gate run, sampled at 201
    points unless ``cfg`` asks for at least 3."""
    if cfg is None or cfg.sample_count < 3:
        cfg = replace(cfg or EvolutionConfig(), sample_count=_PROFILE_SAMPLES)
    system, _, _ = cell = _gate_cell(params, tau, cd_enabled)
    traj = _run_cell(cell, cfg)
    return [FidelityPoint(t=float(t), value=_readout(system, t, psi)[0])
            for t, psi in zip(traj.times, traj.states)]


def _cell(params: CnotParams, tau: float, cd: bool,
          cfg: EvolutionConfig | None, n: int = 2,
          alpha: float | None = None) -> tuple[float, float, float]:
    """The ``_readout`` of a gate run's final state, noisy given alpha."""
    system, _, _ = cell = _gate_cell(params, tau, cd, n, alpha)
    return _readout(system, system.t_end, _run_cell(cell, cfg).final_state)


def sweep_tau(params: CnotParams, tau_values, cd_enabled: bool,
              cfg: EvolutionConfig | None = None) -> SweepResult:
    """Final fidelity, transition and ground-state probability per driving
    time for the unitary two-qubit gate; a failed cell is NaN in all three."""
    return n_qubit_demo(2, params, tau_values, cd_enabled, cfg)


def n_qubit_demo(n: int, params: CnotParams, tau_values, cd_enabled: bool,
                 cfg: EvolutionConfig | None = None) -> SweepResult:
    """The tau sweep on the 2^n-dimensional generalization, with target
    |1...1> (|1...10> for a negative amplitude) and the start's sector
    ground state as the start. A failed cell is NaN in all three arrays
    and listed in ``failed_cells``; an unsupported n raises
    ``DimensionTooLargeError`` before any cell runs."""
    _check_qubit_count(n)
    grid = make_grid(params, tau_values, [0.0], cd_enabled)
    return _sweep(grid, lambda alpha, tau: _cell(
        params, tau, cd_enabled, cfg, n), cfg, n_qubits=n)


def sweep_noise(grid: SweepGrid,
                cfg: EvolutionConfig | None = None) -> SweepResult:
    """Lindblad evolution per (alpha, tau) cell; final mixed-state fidelity
    against |11> (|10> for a negative amplitude), with the sector's
    ground-state and transition probability. Failed cells are recorded as
    NaN and the sweep continues."""
    return _sweep(grid, lambda alpha, tau: _cell(
        grid.params, tau, grid.cd_enabled, cfg, alpha=alpha), cfg)


def _sweep(grid: SweepGrid, cell, cfg: EvolutionConfig | None,
           **extra) -> SweepResult:
    """Evaluate ``cell(alpha, tau)``, a ``_cell``, over the grid with alphas
    as rows and taus as columns. A cell that raises CdgateError stays NaN
    in every array and is listed in ``failed_cells``; ``extra`` joins the
    metadata."""
    t_start = time.perf_counter()
    values = np.full((3, len(grid.alpha_values), len(grid.tau_values)), np.nan)
    failed = []
    for i, alpha in enumerate(grid.alpha_values):
        for j, tau in enumerate(grid.tau_values):
            try:
                values[:, i, j] = cell(float(alpha), float(tau))
            except CdgateError as exc:
                failed.append(f"cell ({i},{j}): {exc}")
    fidelity, ground, transition = values  # _readout's order
    run_cfg = cfg or EvolutionConfig()
    meta = {"version": _version, "backend": backend_name(),
            "rel_tol": run_cfg.rel_tol, "abs_tol": run_cfg.abs_tol,
            "wall_seconds": time.perf_counter() - t_start, **extra}
    return SweepResult(grid=grid, fidelity=fidelity, transition_prob=transition,
                       ground_prob=ground, metadata=meta, failed_cells=failed)


def _check_tau_window(tau_window: tuple[float, float]) -> None:
    if len(tau_window) != 2 or not 0 < tau_window[0] < tau_window[1] < np.inf:
        raise ValueError(f"tau_window needs 0 < lo < hi, got {tau_window}")


def _check_threshold(threshold: float) -> None:
    if not 0.5 < threshold < 1.0:
        raise ValueError(f"threshold must lie in (0.5, 1), got {threshold}")


def find_optimal_tau(params: CnotParams, alpha: float,
                     cfg: EvolutionConfig | None = None,
                     tau_window: tuple[float, float] = _TAU_WINDOW
                     ) -> tuple[float, float]:
    """Locate the driving time maximizing the noisy no-CD final fidelity.

    An 18-point log-spaced scan of ``tau_window = (lo, hi)``, with
    ``0 < lo < hi`` (``ValueError`` otherwise), then golden-section
    refinement to a bracket 0.5 wide. Raises NoInteriorMaximumError when
    the scan is monotone (the optimum lies outside the window).
    """
    if alpha <= 0:
        raise ValueError("find_optimal_tau needs alpha > 0; the noiseless "
                         "fidelity is monotone in tau")
    _check_tau_window(tau_window)

    def f_of(tau: float) -> float:
        return _cell(params, tau, False, cfg, alpha=alpha)[0]

    taus = np.logspace(np.log10(tau_window[0]), np.log10(tau_window[1]),
                       _COARSE_POINTS)
    values = [f_of(float(t)) for t in taus]
    k = int(np.argmax(values))
    if k == 0 or k == len(taus) - 1:
        raise NoInteriorMaximumError(
            f"fidelity is monotone over tau in [{tau_window[0]}, "
            f"{tau_window[1]}] at alpha={alpha}; no interior optimum"
        )

    lo, hi = float(taus[k - 1]), float(taus[k + 1])
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f_of(x1), f_of(x2)
    while hi - lo > _RESOLUTION:
        if f1 < f2:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f_of(x2)
        else:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f_of(x1)
    tau_star = x1 if f1 >= f2 else x2
    f_star = max(f1, f2)
    return float(tau_star), float(f_star)


def tradeoff_boundary(grid: SweepGrid, threshold: float,
                      cfg: EvolutionConfig | None = None) -> TradeoffCurve:
    """For each noise strength, the largest driving time whose CD-protected
    fidelity stays at or above the threshold; reports how constant the
    tau_max * alpha product is."""
    if not grid.cd_enabled:
        raise ValueError("tradeoff_boundary expects a CD-enabled grid")
    _check_threshold(threshold)
    result = sweep_noise(grid, cfg)
    points = []
    products = []
    tau = grid.tau_values
    for i, alpha in enumerate(grid.alpha_values):
        row = result.fidelity[i]
        ok = np.where(row >= threshold)[0]
        if ok.size == 0:
            continue
        tau_max = float(tau[ok.max()])
        points.append((float(alpha), tau_max))
        saturated = ok.max() == len(tau) - 1
        if alpha > 0 and not saturated:
            products.append(alpha * tau_max)
    if products:
        mean = float(np.mean(products))
        spread = float(max(products) / min(products))
    else:
        mean, spread = float("nan"), float("nan")
    return TradeoffCurve(threshold=threshold, points=points,
                         product_mean=mean, product_spread=spread,
                         failed_cells=result.failed_cells)


def gate_unitary_check(tau: float, n_offset: int = 0) -> GateCheckReport:
    """Propagate the inverse-engineered Hamiltonian with a linear phase ramp
    over [0, tau] at rel_tol 1e-12 / abs_tol 1e-14 and compare against the
    exact CNOT; also confirms the Hamiltonian commutes with itself across
    times: the residual is taken on samples scaled to a largest entry of
    1."""
    schedule = linear_phase_ramp(tau, n_offset)
    cfg = EvolutionConfig(abs_tol=1e-14, rel_tol=1e-12)

    def h_of_t(t: float) -> np.ndarray:
        return build_inverse_engineered(schedule.derivative(t))

    u = propagator(h_of_t, cfg, t_span=(0.0, tau))
    target = cnot_unitary()
    dist = frobenius_distance(u, target)
    phase_dist = phase_insensitive_distance(u, target)

    samples = [h_of_t(t) for t in np.linspace(0.0, tau, 5)]
    # scaled to a largest entry of 1, so that no product overflows at a
    # short tau, whose entries are near pi / tau
    scale = max(float(np.abs(h).max()) for h in samples)
    resid = max(
        float(np.abs(commutator(h1 / scale, h2 / scale)).max())
        for h1 in samples for h2 in samples
    )
    return GateCheckReport(
        tau=float(tau),
        distance=float(dist),
        phase_insensitive=float(phase_dist),
        commutator_residual=resid,
        passed=bool(phase_dist < _GATE_DISTANCE_LIMIT),
    )


def lz_prediction_for(params: CnotParams, tau: float) -> float:
    """Closed-form LZ transition probability for the configured ramp; it
    depends on the sweep rate's magnitude only, so the amplitude's sign
    does not enter."""
    return lz_formula(params.g, abs(params.j2_amp), tau)
