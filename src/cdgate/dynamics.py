"""Time-evolution engines: Schroedinger and Lindblad integration plus a
stochastic white-noise trajectory oracle.

All integrators use the adaptive embedded Dormand-Prince 8(5,3) stepper.
Structured linear-ramp Hamiltonians (``model.RampedGateHamiltonian``) run
through the compiled kernels; arbitrary Hamiltonian callables take a plain
python twin of the same stepper. States are never renormalized during
integration; norm / trace drift is monitored and reported instead. The only
in-flight correction is the documented Hermitian symmetrization of the
density matrix after each accepted step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Union

import numpy as np

from . import _kernels
from .errors import (
    InvalidSampleCountError,
    NormDriftExceededError,
    NotHermitianError,
    NotNormalizedError,
    PositivityViolationError,
    StepUnderflowError,
    TraceDriftExceededError,
)
from .model import SIGMA_Z, CnotParams, RampedGateHamiltonian, analytic_spectrum
from .numerics import TOL, as_state, hermiticity_defect
from .observables import validate_density_matrix

HamiltonianLike = Union[RampedGateHamiltonian, Callable[[float], np.ndarray]]


@dataclass(frozen=True)
class EvolutionConfig:
    """Integration controls; the sample grid spans the drive window
    [-tau/2, +tau/2] inclusive unless an explicit span is given.

    The default tolerances keep the accumulated norm^2 drift of unitary
    runs below the 1e-8 monitor limit out to tau = 200 with clear margin.
    """

    tau: float
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    max_step: float | None = None
    sample_count: int = 2
    use_cd: bool = False

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError(f"tau must be positive, got {self.tau}")
        if self.abs_tol <= 0 or self.rel_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.sample_count < 2:
            raise ValueError("sample_count must be at least 2")


@dataclass(frozen=True)
class Trajectory:
    """Sampled states along one evolution; ``kind`` is 'pure' or 'density'.

    ``norm_drift`` is the largest deviation of norm^2 (pure) or trace
    (density) from one seen at any accepted integrator step.
    """

    times: np.ndarray
    states: np.ndarray
    norm_drift: float
    kind: str

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class NoiseModel:
    """White dephasing noise on the driven qubit; the jump operator is
    sqrt(alpha) sigma_z on the last qubit."""

    alpha: float

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")

    def in_gap_units(self, g: float) -> float:
        return self.alpha / (2.0 * g)

    @classmethod
    def from_gap_units(cls, value: float, g: float) -> "NoiseModel":
        return cls(alpha=value * 2.0 * g)


def _sigma_z_last(dim: int) -> np.ndarray:
    n = int(round(math.log2(dim)))
    if 2 ** n != dim:
        raise ValueError(f"dimension {dim} is not a power of two")
    out = np.eye(dim // 2, dtype=np.complex128)
    return np.kron(out, SIGMA_Z) if dim > 2 else SIGMA_Z.copy()


def _resolve_span(h_of_t: HamiltonianLike, cfg: EvolutionConfig,
                  t_span: tuple[float, float] | None) -> tuple[float, float]:
    if t_span is not None:
        return float(t_span[0]), float(t_span[1])
    if isinstance(h_of_t, RampedGateHamiltonian):
        return h_of_t.t_start, h_of_t.t_end
    return -cfg.tau / 2.0, cfg.tau / 2.0


def _with_cd_flag(h: RampedGateHamiltonian,
                  cfg: EvolutionConfig) -> RampedGateHamiltonian:
    if cfg.use_cd and not h.use_cd:
        return replace(h, use_cd=True)
    return h


def _initial_step(span: float, max_step: float) -> float:
    return float(min(max_step, max(span * 1e-3, 1e3 * np.finfo(float).eps * span)))


def _raise_for_status(status: int) -> None:
    if status == _kernels.STATUS_STEP_UNDERFLOW:
        raise StepUnderflowError(
            "adaptive step size underflowed; the problem is too stiff for "
            "the requested tolerances"
        )
    if status == _kernels.STATUS_STEP_BUDGET:
        raise StepUnderflowError("step budget exhausted before reaching t_end")


def _integrate_callable(rhs, sample_times, y0, rtol, atol, max_step, h_init,
                        drift_of, post_step=None):
    """Python twin of ``_kernels._evolve_ramped`` for arbitrary RHS callables."""
    n = y0.shape[0]
    nsamp = sample_times.shape[0]
    out = np.zeros((nsamp, n), dtype=np.complex128)
    out[0] = y0
    y = y0.copy()
    t = sample_times[0]
    f = rhs(t, y)
    h_abs = min(h_init, max_step)
    drift = 0.0
    K = np.zeros((_kernels._N_STAGES + 1, n), dtype=np.complex128)
    nsteps = 0
    A, B, C = _kernels.DP_A, _kernels.DP_B, _kernels.DP_C
    E3, E5 = _kernels.DP_E3, _kernels.DP_E5

    for isamp in range(1, nsamp):
        t_end = sample_times[isamp]
        while t < t_end:
            nsteps += 1
            if nsteps > _kernels._MAX_TOTAL_STEPS:
                _raise_for_status(_kernels.STATUS_STEP_BUDGET)
            min_step = 16.0 * np.finfo(float).eps * max(abs(t), abs(t_end))
            h_abs = min(h_abs, max_step)
            if h_abs < min_step:
                _raise_for_status(_kernels.STATUS_STEP_UNDERFLOW)
            h = min(h_abs, t_end - t)

            K[0] = f
            for s in range(1, _kernels._N_STAGES):
                dy = K[:s].T @ A[s, :s]
                K[s] = rhs(t + C[s] * h, y + h * dy)
            y_new = y + h * (K[:-1].T @ B)
            f_new = rhs(t + h, y_new)
            K[-1] = f_new

            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            err5 = np.sum(np.abs((K.T @ E5) / scale) ** 2)
            err3 = np.sum(np.abs((K.T @ E3) / scale) ** 2)
            denom = err5 + 0.01 * err3
            err_norm = abs(h) * err5 / np.sqrt(denom * n) if denom > 0 else 0.0

            if err_norm < 1.0:
                t = t + h
                y = y_new if post_step is None else post_step(y_new)
                drift = max(drift, drift_of(y))
                f = f_new
                factor = (_kernels._MAX_FACTOR if err_norm == 0.0 else
                          min(_kernels._MAX_FACTOR,
                              _kernels._SAFETY * err_norm ** -0.125))
                h_abs = h * factor
            else:
                h_abs = h * max(_kernels._MIN_FACTOR,
                                _kernels._SAFETY * err_norm ** -0.125)
        out[isamp] = y
    return out, drift


def _check_callable_hermitian(h_of_t, t0: float, t1: float) -> None:
    for t in (t0, 0.5 * (t0 + t1), t1):
        if hermiticity_defect(h_of_t(t)) > TOL.hermiticity:
            raise NotHermitianError(f"H(t) is not Hermitian at t={t}")


def schrodinger_evolve(h_of_t: HamiltonianLike, psi0, cfg: EvolutionConfig,
                       t_span: tuple[float, float] | None = None) -> Trajectory:
    """Integrate d psi/dt = -i H(t) psi without renormalization.

    ``h_of_t`` is either a structured ramp system (fast compiled path; its
    counterdiabatic term is switched on by ``cfg.use_cd`` or its own flag)
    or any callable t -> Hermitian matrix.
    """
    psi0 = as_state(psi0)
    norm = float(np.linalg.norm(psi0))
    if abs(norm - 1.0) > TOL.normalization:
        raise NotNormalizedError(f"psi0 has norm {norm}, expected 1")

    t0, t1 = _resolve_span(h_of_t, cfg, t_span)
    times = np.linspace(t0, t1, cfg.sample_count)
    max_step = np.inf if cfg.max_step is None else float(cfg.max_step)
    h_init = _initial_step(t1 - t0, max_step)

    if isinstance(h_of_t, RampedGateHamiltonian):
        system = _with_cd_flag(h_of_t, cfg)
        status, states, drift = _kernels.evolve_ramped(
            system.h0, system.hz, system.hcd, system.slope, system.g,
            system.use_cd, 0.0, False, times, psi0,
            cfg.rel_tol, cfg.abs_tol, max_step, h_init,
        )
        _raise_for_status(status)
    else:
        _check_callable_hermitian(h_of_t, t0, t1)

        def rhs(t, y):
            return -1j * (h_of_t(t) @ y)

        states, drift = _integrate_callable(
            rhs, times, psi0, cfg.rel_tol, cfg.abs_tol, max_step, h_init,
            drift_of=lambda y: abs(float(np.sum(np.real(y * np.conj(y)))) - 1.0),
        )
    if drift > TOL.norm_drift:
        raise NormDriftExceededError(
            f"norm^2 drifted by {drift:.3e} (limit {TOL.norm_drift:.0e}); "
            "tighten the tolerances"
        )
    return Trajectory(times=times, states=states, norm_drift=float(drift),
                      kind="pure")


def propagator(h_of_t: HamiltonianLike, cfg: EvolutionConfig,
               t_span: tuple[float, float] | None = None) -> np.ndarray:
    """Time-ordered evolution operator over the span, column by column."""
    if isinstance(h_of_t, RampedGateHamiltonian):
        dim = h_of_t.dim
    else:
        t0, _ = _resolve_span(h_of_t, cfg, t_span)
        dim = np.asarray(h_of_t(t0)).shape[0]
    u = np.zeros((dim, dim), dtype=np.complex128)
    for k in range(dim):
        basis = np.zeros(dim, dtype=np.complex128)
        basis[k] = 1.0
        u[:, k] = schrodinger_evolve(h_of_t, basis, cfg, t_span).final_state
    return u


def lindblad_evolve(h_of_t: HamiltonianLike, rho0, noise: NoiseModel,
                    cfg: EvolutionConfig,
                    t_span: tuple[float, float] | None = None) -> Trajectory:
    """Integrate the dephasing master equation

        d rho/dt = -i [H(t), rho] + alpha (sigma_z2 rho sigma_z2 - rho),

    symmetrizing rho after each accepted step. Positivity is checked at the
    sample points.
    """
    rho0 = validate_density_matrix(rho0)
    dim = rho0.shape[0]
    t0, t1 = _resolve_span(h_of_t, cfg, t_span)
    times = np.linspace(t0, t1, cfg.sample_count)
    max_step = np.inf if cfg.max_step is None else float(cfg.max_step)
    h_init = _initial_step(t1 - t0, max_step)

    if isinstance(h_of_t, RampedGateHamiltonian):
        system = _with_cd_flag(h_of_t, cfg)
        if system.dim != dim:
            raise ValueError("rho0 dimension does not match the system")
        status, flat, drift = _kernels.evolve_ramped(
            system.h0, system.hz, system.hcd, system.slope, system.g,
            system.use_cd, noise.alpha, True, times, rho0.ravel(),
            cfg.rel_tol, cfg.abs_tol, max_step, h_init,
        )
        _raise_for_status(status)
    else:
        _check_callable_hermitian(h_of_t, t0, t1)
        jump = _sigma_z_last(dim)
        jdiag = np.real(np.diag(jump)).copy()
        mask = jdiag.reshape(-1, 1) * jdiag.reshape(1, -1)
        alpha = noise.alpha

        def rhs(t, y):
            rho = y.reshape(dim, dim)
            drho = -1j * (h_of_t(t) @ rho - rho @ h_of_t(t))
            if alpha > 0:
                drho = drho + alpha * (mask * rho - rho)
            return drho.ravel()

        def post(y):
            rho = y.reshape(dim, dim)
            return ((rho + rho.conj().T) * 0.5).ravel()

        flat, drift = _integrate_callable(
            rhs, times, rho0.ravel(), cfg.rel_tol, cfg.abs_tol, max_step,
            h_init,
            drift_of=lambda y: abs(complex(np.sum(y.reshape(dim, dim).diagonal())) - 1.0),
            post_step=post,
        )
    if drift > TOL.trace_drift:
        raise TraceDriftExceededError(
            f"trace drifted by {drift:.3e} (limit {TOL.trace_drift:.0e})"
        )
    states = flat.reshape(len(times), dim, dim)
    for idx in (0, len(times) // 2, len(times) - 1):
        smallest = float(np.linalg.eigvalsh(states[idx]).min())
        if smallest < -TOL.positivity_floor:
            raise PositivityViolationError(
                f"rho(t={times[idx]}) has eigenvalue {smallest:.3e}"
            )
    return Trajectory(times=times, states=states, norm_drift=float(drift),
                      kind="density")


def noise_trajectory_oracle(h_of_t: HamiltonianLike, psi0, alpha: float,
                            n_samples: int, dt: float, seed: int,
                            t_span: tuple[float, float] | None = None,
                            use_cd: bool = False) -> np.ndarray:
    """Monte-Carlo average of |psi><psi| over white-noise drive realizations.

    Per integration step of length dt the drive offset eta is drawn from a
    zero-mean Gaussian with variance alpha/dt, reproducing the dephasing
    dissipator of the master equation in the ensemble average (see
    docs/noise_model.md). All realizations are advanced together. For a
    ramped system the noise multiplies its ``hz``, which must be diagonal
    with entries +-1; for a callable it multiplies sigma_z on the last
    qubit. Deterministic for a given seed.
    """
    psi0 = as_state(psi0)
    norm = float(np.linalg.norm(psi0))
    if abs(norm - 1.0) > TOL.normalization:
        raise NotNormalizedError(f"psi0 has norm {norm}, expected 1")
    if n_samples < 100:
        raise InvalidSampleCountError(
            f"need at least 100 samples for a meaningful average, got {n_samples}"
        )
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    ramped = isinstance(h_of_t, RampedGateHamiltonian)
    if ramped:
        d = np.diag(h_of_t.hz)
        if not (np.array_equal(h_of_t.hz, np.diag(d))
                and np.all((d == 1.0) | (d == -1.0))):
            raise ValueError("the noise operator hz must be diagonal with "
                             "entries +-1")
    elif use_cd:
        raise ValueError("use_cd applies to ramped systems only; include "
                         "the counterdiabatic term in the callable")
    if t_span is not None:
        t0, t1 = float(t_span[0]), float(t_span[1])
    elif ramped:
        t0, t1 = h_of_t.t_start, h_of_t.t_end
    else:
        raise ValueError("t_span is required for callable Hamiltonians")
    span = t1 - t0
    if dt <= 0 or dt > span:
        raise ValueError(f"dt must lie in (0, {span}], got {dt}")
    n_steps = max(1, int(math.ceil(span / dt)))
    dt_actual = span / n_steps
    if alpha * dt_actual >= 0.1:
        raise ValueError(
            f"alpha*dt = {alpha * dt_actual:.3f} too coarse; need < 0.1"
        )
    if not ramped:
        _check_callable_hermitian(h_of_t, t0, t1)
    rng = np.random.default_rng(seed)
    scale = math.sqrt(alpha / dt_actual) if alpha > 0 else 0.0
    # scaled in place, so no second noise-sized array is ever held
    noise = rng.standard_normal((n_samples, n_steps))
    noise *= scale

    if ramped:
        system = h_of_t if not use_cd else replace(h_of_t, use_cd=True)
        return _kernels.dephasing_average(
            system.h0, system.hz, system.hcd, system.slope, system.g,
            system.use_cd, t0, dt_actual, noise, psi0,
        )
    d = np.real(np.diag(_sigma_z_last(psi0.shape[0])))
    return _kernels._rk4_average(lambda t: np.asarray(h_of_t(t)), d, t0,
                                 dt_actual, noise, psi0)


def ground_state_probability(psi, params: CnotParams, j2: float) -> float:
    """|<E1(j2)|psi>|^2 with the closed-form instantaneous ground state."""
    psi = as_state(psi)
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > TOL.normalization:
        raise NotNormalizedError(f"psi has norm {norm}, expected 1")
    ground = analytic_spectrum(params, j2).states[0]
    return float(abs(np.vdot(ground, psi)) ** 2)


def ground_state_population(rho, params: CnotParams, j2: float) -> float:
    """<E1(j2)| rho |E1(j2)> for mixed states."""
    ground = analytic_spectrum(params, j2).states[0]
    return float(np.real(np.vdot(ground, np.asarray(rho) @ ground)))
