"""Time-evolution engines: Schroedinger and Lindblad integration plus a
stochastic white-noise trajectory oracle.

The gate Hamiltonian ``H(t) = H0 + J(t) Hz + c(t) Hcd`` is written once, in
``model.RampedGateHamiltonian``; any callable t -> Hermitian matrix is
accepted as well. Each remaining choice is made in one place here.
The counterdiabatic term is part of the system (``use_cd`` when it is
built); ``EvolutionConfig`` carries numerical controls and, for a callable
only, a default span. ``_integrate`` runs every adaptive evolution
through the one Dormand-Prince 8(5,3) stepper, ``_kernels.dop853``,
taking the generators of a ramped system from ``_kernels.evolve_ramped``
and those of a callable from ``_integrate_callable``; the Schroedinger and
Lindblad engines differ only in the sector's dissipator block they pass
it, none for a pure state, from which the kernels derive the equation.
This module alone restricts and embeds: a ramped run integrates only its
invariant sector (``_invariant_sector``), the closure of the start's
support under the nonzero pattern of the system's terms, whose outside
entries stay exactly 0. ``_integrate`` hands the kernels the sector's
entries (a gate start is 2 amplitudes at any n) with the full width for
the error norm, so the run takes the full run's steps, and scatters the
samples back. ``schrodinger_evolve`` integrates a ramped sector without
the global phase of its mean energy, restored on each sample. The
Monte-Carlo oracle evolves the same sector and embeds its average: a
ramped system evaluated on an array of times, a callable stacked by
``_stacked``.
``_jump_diagonal`` picks the dephasing jump operator for the Lindblad engine
and the oracle alike. States are never renormalized during integration;
norm / trace drift is monitored and reported instead. The only in-flight
correction is the documented Hermitian symmetrization of the density matrix
at the end of each stage-mode block of steps and at each sample it
reaches; matrix mode's densities are exactly Hermitian.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Union

import numpy as np

from . import _kernels
from .errors import (
    InvalidSampleCountError,
    NormDriftExceededError,
    NotHermitianError,
    PhaseOverflowError,
    PositivityViolationError,
    TraceDriftExceededError,
)
from .model import CnotParams, RampedGateHamiltonian, analytic_spectrum
from .numerics import TOL, as_state, hermiticity_defect
from .observables import _require_normalized, validate_density_matrix

HamiltonianLike = Union[RampedGateHamiltonian, Callable[[float], np.ndarray]]

# The largest dephasing rate whose dissipator entry, -2 alpha, is finite.
_ALPHA_MAX = np.finfo(np.float64).max / 2.0


def _as_index(value, name: str, error=ValueError) -> int:
    """``value`` as an int by ``operator.index``; ``error`` if it is not one."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class EvolutionConfig:
    """Integration controls. ``tau`` is read only for a callable given no
    ``t_span``, whose samples then span [-tau/2, +tau/2] inclusive.

    The default tolerances keep the accumulated norm^2 drift of the gate
    runs below the 1e-8 monitor limit out to tau = 200 for n <= 6 at the
    default ``j2_amp`` (6.6e-9 at n = 6, 1.4e-9 at n = 2). They do not at
    tau = 2000 (1.16e-8 at n = 2), nor at n = 6, tau = 200 with ``j2_amp``
    20 (1.19e-8, 1.24e-8 with CD).
    """

    tau: float | None = None
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    sample_count: int = 2

    def __post_init__(self):
        if self.tau is not None and not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise ValueError("tolerances must be positive and finite")
        if _as_index(self.sample_count, "sample_count") < 2:
            raise ValueError("sample_count must be at least 2")


@dataclass(frozen=True)
class Trajectory:
    """Sampled states along one evolution; ``kind`` is 'pure' or 'density'.

    ``norm_drift`` is the largest deviation of norm^2 (pure) or trace
    (density) from one seen at any accepted integrator step. ``stats``
    holds the integrator's counts of ``accepted``, ``rejected`` and
    ``discarded`` steps, ``blocks`` and ``rhs_evals``, and its smallest and
    largest accepted step, ``h_min`` and ``h_max`` (``_kernels.dop853``).
    """

    times: np.ndarray
    states: np.ndarray
    norm_drift: float
    kind: str
    stats: dict = field(default_factory=dict)

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


@dataclass(frozen=True)
class NoiseModel:
    """White dephasing noise on the driven qubit; the jump operator is
    sqrt(alpha) sigma_z on the last qubit."""

    alpha: float

    def __post_init__(self):
        if not 0 <= self.alpha <= _ALPHA_MAX:
            raise ValueError(f"alpha must be >= 0 with 2 alpha finite, got "
                             f"{self.alpha}")

    def in_gap_units(self, g: float) -> float:
        return self.alpha / (2.0 * g)

    @classmethod
    def from_gap_units(cls, value: float, g: float) -> "NoiseModel":
        return cls(alpha=value * (2.0 * g))


def _resolve_span(h_of_t: HamiltonianLike, cfg: EvolutionConfig | None,
                  t_span: tuple[float, float] | None) -> tuple[float, float]:
    """``t_span``, else a ramped system's ramp window, else a callable's
    [-tau/2, tau/2] from ``cfg``; ``ValueError`` for a callable without,
    or for a ``t_span`` whose ends are not finite with ``t0 <= t1``."""
    if t_span is not None:
        t0, t1 = float(t_span[0]), float(t_span[1])
        if not -math.inf < t0 <= t1 < math.inf:
            raise ValueError(f"t_span must be finite with t0 <= t1, got "
                             f"({t0}, {t1})")
        return t0, t1
    if isinstance(h_of_t, RampedGateHamiltonian):
        return h_of_t.t_start, h_of_t.t_end
    if cfg is None or cfg.tau is None:
        raise ValueError("t_span is required for callable Hamiltonians "
                         "without a tau")
    return -cfg.tau / 2.0, cfg.tau / 2.0


def _stacked(h_of_t):
    """A Hamiltonian callable over a 1-D array of times: one call per time,
    in order, stacked into ``(k, dim, dim)``."""

    def h_stack(ts):
        return np.stack([np.asarray(h_of_t(t)) for t in ts.tolist()])

    return h_stack


def _integrate_callable(h_of_t, sample_times, y0, rtol, atol, dissipator=None,
                        width=None):
    """``_kernels.dop853`` with the ``_kernels.stage_operators`` of a
    Hamiltonian callable, called once per stage time of each block, so the
    stepper doubles and halves its blocks rather than plan full ones; the
    twin of ``_kernels.evolve_ramped``, with its arguments and result."""
    h_stack = _stacked(h_of_t)

    def generators(ts):
        return _kernels.stage_operators(-1j * h_stack(ts), dissipator)

    return _kernels.dop853(generators, sample_times, y0, rtol, atol,
                           dissipator, width)


def _check_callable_hermitian(h_of_t, t0: float, t1: float) -> None:
    for t in (t0, 0.5 * (t0 + t1), t1):
        if hermiticity_defect(h_of_t(t)) > TOL.hermiticity:
            raise NotHermitianError(f"H(t) is not Hermitian at t={t}")


def _invariant_sector(h_of_t: HamiltonianLike, support: np.ndarray):
    """The system on the invariant sector of a start supported on the
    boolean mask ``support`` over the basis, and the sector's indices.

    For a ramped system the sector is the closure of the support under the
    joint nonzero pattern of ``h0``, ``hz`` and ``hcd``, and the system is
    restricted to it: ``H(t)`` couples the sector to nothing else at any t
    and the jump operator is diagonal, so every entry outside it stays
    exactly 0 and need not be integrated. A callable's pattern is unknown,
    so its sector is the whole space.
    """
    if not isinstance(h_of_t, RampedGateHamiltonian):
        return h_of_t, np.arange(support.shape[0])
    coupled = (h_of_t.h0 != 0) | (h_of_t.hz != 0) | (h_of_t.hcd != 0)
    reach = support
    while True:
        grown = reach | coupled[:, reach].any(axis=1)
        if np.array_equal(grown, reach):
            idx = np.flatnonzero(reach)
            return h_of_t.restricted(idx), idx
        reach = grown


def _integrate(h_of_t: HamiltonianLike, sector, times: np.ndarray, y0,
               cfg: EvolutionConfig, dissipator=None):
    """Integrate ``y`` from ``times[0]``, recording it at ``times``: a pure
    state, or given the sector's ``dissipator`` block a flattened density
    matrix (``_kernels.dop853``). Only the entries ``sector`` of the
    full-width ``y0`` are integrated: ``h_of_t`` and ``dissipator`` act on
    them alone (``_invariant_sector``), the error norm divides by the full
    width, and the samples are scattered back, zero outside the sector.

    A ramped system runs through ``_kernels.evolve_ramped`` as built; a
    callable is checked for Hermiticity and runs through
    ``_integrate_callable``. Returns ``(states, drift, stats)``.
    """
    if isinstance(h_of_t, RampedGateHamiltonian):
        engine = _kernels.evolve_ramped
    else:
        _check_callable_hermitian(h_of_t, float(times[0]), float(times[-1]))
        engine = _integrate_callable
    sampled, drift, stats = engine(h_of_t, times, y0[sector], cfg.rel_tol,
                                   cfg.abs_tol, dissipator, y0.size)
    states = np.zeros((times.size, y0.size), dtype=np.complex128)
    states[:, sector] = sampled
    return states, drift, stats


def _jump_diagonal(h_of_t: HamiltonianLike, dim: int) -> np.ndarray:
    """The real +-1 diagonal of the dephasing jump operator on states of
    dimension ``dim``.

    For a ramped system it is ``hz``, which must be diagonal with entries
    +-1 and match ``dim`` (``ValueError`` otherwise); for a callable it is
    sigma_z on the last qubit.
    """
    if isinstance(h_of_t, RampedGateHamiltonian):
        if h_of_t.dim != dim:
            raise ValueError("the state dimension does not match the system")
        hz = h_of_t.hz
        d = np.real(np.diag(hz))
        if not (np.array_equal(hz, np.diag(d))
                and np.all((d == 1.0) | (d == -1.0))):
            raise ValueError("the noise operator hz must be diagonal with "
                             "entries +-1")
        return d
    if dim < 2 or dim & (dim - 1):
        raise ValueError(f"dimension {dim} is not a power of two")
    return np.tile([1.0, -1.0], dim // 2)


def schrodinger_evolve(h_of_t: HamiltonianLike, psi0, cfg: EvolutionConfig,
                       t_span: tuple[float, float] | None = None) -> Trajectory:
    """Integrate d psi/dt = -i H(t) psi without renormalization.

    ``h_of_t`` is either a structured ramp system, which carries its
    counterdiabatic term when built with ``use_cd=True``, or any callable
    t -> Hermitian matrix.
    """
    psi0 = as_state(psi0)
    _require_normalized(psi0, "psi0")
    times = np.linspace(*_resolve_span(h_of_t, cfg, t_span), cfg.sample_count)
    system, sector = _invariant_sector(h_of_t, psi0 != 0)
    # A ramped sector is integrated without the global phase of its mean
    # energy c = tr(h0) / d, which commutes with every term, so the stepper
    # need not resolve it; each sample gets exp(-i c (t - t0)) back.
    shift = (np.trace(system.h0).real / system.dim
             if isinstance(system, RampedGateHamiltonian) else 0.0)
    if shift:
        # in Python floats, so that an overflow does not warn
        span = float(times[-1]) - float(times[0])
        if not math.isfinite(float(shift) * span):
            raise PhaseOverflowError(f"the sector's global phase {shift:.3e} "
                                     f"(t - t0) overflows over {span:.3e}")
        system = replace(system, h0=system.h0 - shift * np.eye(system.dim))
    states, drift, stats = _integrate(system, sector, times, psi0, cfg)
    if shift:
        states *= np.exp(-1j * shift * (times - times[0]))[:, None]
    if drift > TOL.norm_drift:
        raise NormDriftExceededError(
            f"norm^2 drifted by {drift:.3e} (limit {TOL.norm_drift:.0e}); "
            "tighten the tolerances"
        )
    return Trajectory(times=times, states=states, norm_drift=float(drift),
                      kind="pure", stats=stats)


def propagator(h_of_t: HamiltonianLike, cfg: EvolutionConfig,
               t_span: tuple[float, float] | None = None) -> np.ndarray:
    """Time-ordered evolution operator over the span, column by column."""
    if isinstance(h_of_t, RampedGateHamiltonian):
        dim = h_of_t.dim
    else:
        t0, _ = _resolve_span(h_of_t, cfg, t_span)
        dim = np.asarray(h_of_t(t0)).shape[0]
    return np.stack([schrodinger_evolve(h_of_t, basis, cfg, t_span).final_state
                     for basis in np.eye(dim, dtype=np.complex128)], axis=1)


def lindblad_evolve(h_of_t: HamiltonianLike, rho0, noise: NoiseModel,
                    cfg: EvolutionConfig,
                    t_span: tuple[float, float] | None = None) -> Trajectory:
    """Integrate the dephasing master equation

        d rho/dt = -i [H(t), rho] + alpha (sigma_z2 rho sigma_z2 - rho).

    Only the invariant sector of ``rho0`` is integrated
    (``_invariant_sector``), under its dissipator block ``alpha (d_a d_c -
    1)``; the kernels pick the form from the sector's dimension and keep
    ``rho`` Hermitian (``_kernels.dop853``). Positivity is checked on the
    full ``rho`` at every sample point.
    For a ramped system the jump operator is its ``hz``, which must be
    diagonal with entries +-1 (``ValueError`` otherwise); for a callable it
    is sigma_z on the last qubit.
    """
    rho0 = validate_density_matrix(rho0)
    dim = rho0.shape[0]
    times = np.linspace(*_resolve_span(h_of_t, cfg, t_span), cfg.sample_count)
    d = _jump_diagonal(h_of_t, dim)
    system, idx = _invariant_sector(h_of_t, (rho0 != 0).any(axis=0))
    d = d[idx]
    # the sector's entries of the row-major flattened rho
    sector = (idx[:, None] * dim + idx).ravel()
    flat, drift, stats = _integrate(system, sector, times, rho0.ravel(), cfg,
                                    noise.alpha * (np.outer(d, d) - 1.0))
    if drift > TOL.trace_drift:
        raise TraceDriftExceededError(
            f"trace drifted by {drift:.3e} (limit {TOL.trace_drift:.0e})"
        )
    states = flat.reshape(len(times), dim, dim)
    smallest = np.linalg.eigvalsh(states).min(axis=1)
    bad = np.flatnonzero(smallest < -TOL.positivity_floor)
    if bad.size:
        idx = bad[0]
        raise PositivityViolationError(
            f"rho(t={times[idx]}) has eigenvalue {smallest[idx]:.3e}"
        )
    return Trajectory(times=times, states=states, norm_drift=float(drift),
                      kind="density", stats=stats)


def noise_trajectory_oracle(h_of_t: HamiltonianLike, psi0, alpha: float,
                            n_samples: int, dt: float, seed: int,
                            t_span: tuple[float, float] | None = None
                            ) -> np.ndarray:
    """Monte-Carlo average of |psi><psi| over white-noise drive realizations.

    Per integration step of length dt the drive offset eta is drawn from a
    zero-mean Gaussian with variance alpha/dt, reproducing the dephasing
    dissipator of the master equation in the ensemble average (see
    docs/noise_model.md). All realizations are advanced together. The noise
    multiplies the jump operator of ``lindblad_evolve``: a ramped system's
    ``hz``, which must be diagonal with entries +-1, or sigma_z on the last
    qubit for a callable. Deterministic for a given ``seed``, which must be
    an integer (``ValueError`` otherwise).
    """
    psi0 = as_state(psi0)
    _require_normalized(psi0, "psi0")
    n_samples = _as_index(n_samples, "n_samples", InvalidSampleCountError)
    seed = _as_index(seed, "seed")
    if n_samples < 100:
        raise InvalidSampleCountError(
            f"need at least 100 samples for a meaningful average, got {n_samples}"
        )
    if not 0 <= alpha < math.inf:
        raise ValueError("alpha must be non-negative and finite")
    d = _jump_diagonal(h_of_t, psi0.shape[0])
    ramped = isinstance(h_of_t, RampedGateHamiltonian)
    t0, t1 = _resolve_span(h_of_t, None, t_span)
    span = t1 - t0
    if not 0 < dt <= span:
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
    # a ramped system evaluates itself, on its sector, on an array of times
    system, sector = _invariant_sector(h_of_t, psi0 != 0)
    h_stack = system if ramped else _stacked(h_of_t)
    # noise by keyword: perfbench/tracer.py counts RK4 steps from it
    block = _kernels.dephasing_average(h_stack, d[sector], t0, dt_actual,
                                       noise=noise, psi0=psi0[sector])
    rho = np.zeros((psi0.size, psi0.size), dtype=np.complex128)
    rho[np.ix_(sector, sector)] = block
    return rho


def ground_state_probability(psi, params: CnotParams, j2: float) -> float:
    """|<E1(j2)|psi>|^2 with the closed-form instantaneous ground state."""
    psi = as_state(psi)
    _require_normalized(psi, "psi")
    ground = analytic_spectrum(params, j2).states[0]
    return float(abs(np.vdot(ground, psi)) ** 2)
