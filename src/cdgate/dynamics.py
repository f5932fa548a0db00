"""Time-evolution engines: Schroedinger and Lindblad integration plus a
stochastic white-noise trajectory oracle.

The engines take a ``model.RampedGateHamiltonian``, whose ``use_cd`` carries
the counterdiabatic term, or any callable t -> Hermitian matrix;
``EvolutionConfig`` carries the numerical controls. This module alone checks
a system against its start, restricts a ramped run to its invariant sector
and embeds the result (``_invariant_sector``, ``_integrate``); every
adaptive evolution runs through ``_kernels.dop853``. States are never
renormalized: norm and trace drift are monitored and reported instead, and
density matrices are kept exactly Hermitian. The design is in
``docs/noise_model.md``, "Integration".
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
# The smallest abs_tol: the error norm squares each error over abs_tol +
# rel_tol |y|, which can overflow below it.
_ABS_TOL_MIN = 1e-150


def _as_index(value, name: str, error=ValueError) -> int:
    """``value`` as an int by ``operator.index``; ``error`` if it is not one."""
    try:
        return operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None


@dataclass(frozen=True)
class EvolutionConfig:
    """Integration controls. ``tau`` is read only for a callable given no
    ``t_span``, whose samples then span [-tau/2, +tau/2] inclusive. The
    default tolerances keep the norm^2 drift of the gate runs at the default
    ``CnotParams`` below the 1e-8 monitor limit for tau up to 200 and n up
    to 6 (measured in ``docs/noise_model.md``, "Integration").
    """

    tau: float | None = None
    abs_tol: float = 1e-12
    rel_tol: float = 1e-10
    sample_count: int = 2

    def __post_init__(self):
        if self.tau is not None and not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if not (_ABS_TOL_MIN <= self.abs_tol < math.inf
                and 0 < self.rel_tol < math.inf):
            raise ValueError(f"tolerances must be positive and finite, with "
                             f"abs_tol >= {_ABS_TOL_MIN:g}")
        if _as_index(self.sample_count, "sample_count") < 2:
            raise ValueError("sample_count must be at least 2")


@dataclass(frozen=True)
class Trajectory:
    """Sampled states along one evolution: ``states`` holds one state per
    sample time, a vector (pure) or a density matrix.

    ``norm_drift`` is the largest deviation of norm^2 (pure) or trace
    (density) from one seen at any accepted integrator step. ``stats``
    holds the integrator's counts of ``accepted``, ``rejected`` and
    ``discarded`` steps, ``blocks`` and ``rhs_evals``, and its smallest and
    largest accepted step, ``h_min`` and ``h_max`` (``_kernels.dop853``).
    """

    times: np.ndarray
    states: np.ndarray
    norm_drift: float
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
        raise ValueError("t_span is required for callable Hamiltonians"
                         + ("" if cfg is None else " without a tau"))
    return -cfg.tau / 2.0, cfg.tau / 2.0


def _stacked(h_of_t):
    """A Hamiltonian callable over a 1-D array of times: one call per time,
    in order, stacked into ``(k, dim, dim)``."""

    def h_stack(ts):
        return np.stack([np.asarray(h_of_t(t)) for t in ts.tolist()])

    return h_stack


def _integrate_callable(h_stack, sample_times, y0, rtol, atol, dissipator=None,
                        width=None):
    """``_kernels.dop853`` with the ``_kernels.stage_operators`` of a
    ``_stacked`` callable, called once per stage time of each block, so the
    stepper doubles and halves its blocks rather than plan full ones; the
    twin of ``_kernels.evolve_ramped``, with its arguments and result."""

    def generators(ts):
        return _kernels.stage_operators(-1j * h_stack(ts), dissipator)

    return _kernels.dop853(generators, sample_times, y0, rtol, atol,
                           dissipator, width)


def _invariant_sector(h_of_t: HamiltonianLike, support: np.ndarray,
                      span: tuple[float, float]):
    """The system on the invariant sector of a start supported on the
    boolean mask ``support`` over the basis, and the sector's indices; the
    one check of every engine's system against its start: it must have the
    start's dimension (``ValueError``) and be Hermitian
    (``NotHermitianError``): a ramped system in each of its three terms
    on the sector, a callable at the start, midpoint and end of ``span``.

    For a ramped system the sector is the closure of the support under the
    joint nonzero pattern of ``h0``, ``hz`` and ``hcd``, outside which every
    entry stays exactly 0, and the system is ``h_of_t`` with each term
    sliced to the sector, a writable copy. A callable's sector is the whole
    space, and its system is ``_stacked``.
    """
    ramped = isinstance(h_of_t, RampedGateHamiltonian)
    t0, t1 = span
    times = (t0, 0.5 * (t0 + t1), t1)
    terms = ((h_of_t.h0, h_of_t.hz, h_of_t.hcd) if ramped
             else [np.asarray(h_of_t(t)) for t in times])
    if any(h.shape != (support.size, support.size) for h in terms):
        raise ValueError("the state dimension does not match the system")
    if ramped:
        coupled = (terms[0] != 0) | (terms[1] != 0) | (terms[2] != 0)
        reach = support
        while not np.array_equal(
                grown := reach | coupled[:, reach].any(axis=1), reach):
            reach = grown
        idx = np.flatnonzero(reach)
        rows = np.ix_(idx, idx)
        terms = tuple(h[rows] for h in terms)  # writable copies
        system = replace(h_of_t, h0=terms[0], hz=terms[1], hcd=terms[2])
    else:
        system, idx = _stacked(h_of_t), np.arange(support.size)
    for k, term in enumerate(terms):
        if hermiticity_defect(term) > TOL.hermiticity:
            raise NotHermitianError((f"the system's {('h0', 'hz', 'hcd')[k]}"
                                     if ramped else f"H(t) at t={times[k]}")
                                    + " is not Hermitian")
    return system, idx


def _sector_system(h_of_t: HamiltonianLike, support: np.ndarray,
                   span: tuple[float, float], pure: bool):
    """``(system, idx, shift)`` of a run from a start supported on
    ``support``: ``h_of_t`` on the invariant sector and its indices
    (``_invariant_sector``); for a ramped system, the sector's mean energy
    ``c = tr(h0) / d``, which a ``pure`` run's ``h0`` is without; for a
    callable 0.

    A ramped sector is kept on this thread under the content of the support
    and of ``h0``, ``hz`` and ``hcd`` (``_kernels._reused``): a run on the
    same support and terms, in any arrays, reuses it, checks included, and
    takes its ramp from ``h_of_t``."""
    if not isinstance(h_of_t, RampedGateHamiltonian):
        system, idx = _invariant_sector(h_of_t, support, span)
        return system, idx, 0.0

    def build():
        system, idx = _invariant_sector(h_of_t, support, span)
        shift = np.trace(system.h0).real / system.dim
        shifted = (system.h0 - shift * np.eye(system.dim) if shift
                   else system.h0)
        return system, idx, shift, shifted

    sector, idx, shift, shifted = _kernels._reused(
        "sector", (support, h_of_t.h0, h_of_t.hz, h_of_t.hcd), build)
    system = replace(h_of_t, h0=shifted if pure else sector.h0,
                     hz=sector.hz, hcd=sector.hcd)
    return system, idx, shift


def _integrate(h_of_t: HamiltonianLike, sector, times: np.ndarray, y0,
               cfg: EvolutionConfig, dissipator=None):
    """Integrate ``y`` from ``times[0]``, recording it at ``times``: a pure
    state, or given the sector's ``dissipator`` block a flattened density
    matrix (``_kernels.dop853``). Only the entries ``sector`` of the
    full-width ``y0`` are integrated: ``h_of_t`` and ``dissipator`` act on
    them alone (``_invariant_sector``), the error norm divides by the full
    width, and the samples are scattered back, zero outside the sector. A
    ramped system runs through ``_kernels.evolve_ramped``, a ``_stacked``
    callable through ``_integrate_callable``. Returns ``(states, drift,
    stats)``.
    """
    args = (times, y0[sector], cfg.rel_tol, cfg.abs_tol, dissipator, y0.size)
    if isinstance(h_of_t, RampedGateHamiltonian):
        sampled, drift, stats = _kernels.evolve_ramped(h_of_t, *args)
    else:
        sampled, drift, stats = _integrate_callable(h_of_t, *args)
    states = np.zeros((times.size, y0.size), dtype=np.complex128)
    states[:, sector] = sampled
    return states, drift, stats


def _jump_diagonal(h_of_t: HamiltonianLike, dim: int) -> np.ndarray:
    """The real +-1 diagonal of the dephasing jump operator on states of
    dimension ``dim``.

    For a ramped system it is ``hz``, which must be diagonal with entries
    +-1 (``ValueError`` otherwise); for a callable it is sigma_z on the
    last qubit.
    """
    if isinstance(h_of_t, RampedGateHamiltonian):
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
    span = _resolve_span(h_of_t, cfg, t_span)
    times = np.linspace(*span, cfg.sample_count)
    # A ramped sector runs without the phase of its mean energy c = tr(h0) /
    # d, which commutes with every term; each sample gets exp(-i c (t - t0)).
    system, sector, shift = _sector_system(h_of_t, psi0 != 0, span, True)
    if shift:
        # in Python floats, so that an overflow does not warn
        span = float(times[-1]) - float(times[0])
        if not math.isfinite(float(shift) * span):
            raise PhaseOverflowError(f"the sector's global phase {shift:.3e} "
                                     f"(t - t0) overflows over {span:.3e}")
    states, drift, stats = _integrate(system, sector, times, psi0, cfg)
    if shift:
        states *= np.exp(-1j * shift * (times - times[0]))[:, None]
    if drift > TOL.norm_drift:
        raise NormDriftExceededError(
            f"norm^2 drifted by {drift:.3e} (limit {TOL.norm_drift:.0e}); "
            "tighten the tolerances"
        )
    return Trajectory(times=times, states=states, norm_drift=float(drift),
                      stats=stats)


def propagator(h_of_t: HamiltonianLike, cfg: EvolutionConfig,
               t_span: tuple[float, float] | None = None) -> np.ndarray:
    """Time-ordered evolution operator over the span, column by column."""
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
    span = _resolve_span(h_of_t, cfg, t_span)
    times = np.linspace(*span, cfg.sample_count)
    system, idx, _ = _sector_system(h_of_t, (rho0 != 0).any(axis=0), span,
                                    False)
    d = _jump_diagonal(h_of_t, dim)[idx]
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
                      stats=stats)


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
    NoiseModel(alpha=alpha)  # its range check
    t0, t1 = _resolve_span(h_of_t, None, t_span)
    system, sector, _ = _sector_system(h_of_t, psi0 != 0, (t0, t1), False)
    d = _jump_diagonal(h_of_t, psi0.shape[0])[sector]
    span = t1 - t0
    if not 0 < dt <= span:
        raise ValueError(f"dt must lie in (0, {span}], got {dt}")
    n_steps = max(1, int(math.ceil(span / dt)))
    dt_actual = span / n_steps
    if alpha * dt_actual >= 0.1:
        raise ValueError(
            f"alpha*dt = {alpha * dt_actual:.3f} too coarse; need < 0.1"
        )
    rng = np.random.default_rng(seed)
    scale = math.sqrt(alpha / dt_actual) if alpha > 0 else 0.0
    # scaled in place, so no second noise-sized array is ever held
    noise = rng.standard_normal((n_samples, n_steps))
    noise *= scale
    # noise by keyword: perfbench/tracer.py counts RK4 steps from it
    block = _kernels.dephasing_average(system, d, t0, dt_actual,
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
