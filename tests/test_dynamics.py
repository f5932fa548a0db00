import re
import sys
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdgate import _kernels, dynamics, model
from cdgate.dynamics import (
    EvolutionConfig,
    NoiseModel,
    ground_state_probability,
    lindblad_evolve,
    noise_trajectory_oracle,
    propagator,
    schrodinger_evolve,
)
from cdgate.errors import (
    InvalidDensityMatrixError,
    InvalidSampleCountError,
    NotHermitianError,
    NotNormalizedError,
    PhaseOverflowError,
    PositivityViolationError,
    StepUnderflowError,
    TraceDriftExceededError,
)
from cdgate.experiments import _gate_cell, _run_cell
from cdgate.model import (SIGMA_Z, CnotParams, analytic_spectrum, cnot_system,
                          lz_system,
                          nqubit_sector_states, nqubit_system)
from cdgate.numerics import TOL, hermitian_eig, hermiticity_defect
from cdgate.observables import fidelity_pure

from conftest import (dephasing_dissipator, random_hermitian,
                      random_state, spectral_propagator)

KET_11 = np.array([0, 0, 0, 1], dtype=complex)
KET_10 = np.array([0, 0, 1, 0], dtype=complex)


def ground_start(params, system):
    return analytic_spectrum(params, system.drive_value(system.t_start)).states[0]


class TestEvolutionConfig:
    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError, match="tau"):
            EvolutionConfig(tau=tau)

    @pytest.mark.parametrize("tol", [0.0, np.nan, np.inf])
    def test_rejects_bad_tolerances(self, tol):
        with pytest.raises(ValueError, match="tolerances"):
            EvolutionConfig(tau=1.0, rel_tol=tol)
        with pytest.raises(ValueError, match="tolerances"):
            EvolutionConfig(tau=1.0, abs_tol=tol)

    def test_abs_tol_floor(self):
        # a smaller abs_tol overflowed the squared error norm, with warnings
        with pytest.raises(ValueError, match="abs_tol >= 1e-150"):
            EvolutionConfig(abs_tol=1e-151)
        assert EvolutionConfig(abs_tol=1e-150).abs_tol == 1e-150

    @pytest.mark.parametrize("count", [2.5, 3.0, np.float64(4.0), "5"])
    def test_rejects_non_integral_sample_count(self, count):
        with pytest.raises(ValueError, match="sample_count must be an integer"):
            EvolutionConfig(tau=1.0, sample_count=count)

    def test_numpy_integer_sample_count_accepted(self):
        cfg = EvolutionConfig(tau=1.0, sample_count=np.int64(5))
        times = schrodinger_evolve(lambda t: np.eye(2, dtype=complex),
                                   [1.0, 0.0], cfg).times
        assert times.shape == (5,)

    def test_ramped_run_ignores_tau(self, params):
        system = cnot_system(params, 3.0)
        psi0 = ground_start(params, system)
        runs = [schrodinger_evolve(system, psi0, EvolutionConfig(tau=tau))
                for tau in (None, 50.0)]
        assert EvolutionConfig().tau is None
        assert runs[0].states.tobytes() == runs[1].states.tobytes()
        assert runs[0].times[0] == system.t_start

    def test_callable_needs_t_span_or_tau(self):
        def h_of_t(t):
            return np.eye(2, dtype=complex)

        with pytest.raises(ValueError, match="t_span"):
            schrodinger_evolve(h_of_t, [1.0, 0.0], EvolutionConfig())
        with pytest.raises(ValueError, match="t_span"):
            propagator(h_of_t, EvolutionConfig())
        traj = schrodinger_evolve(h_of_t, [1.0, 0.0], EvolutionConfig(),
                                  t_span=(0.0, 1.0))
        assert traj.times[-1] == 1.0

    @pytest.mark.parametrize("t_span", [(1.0, 0.5), (0.0, np.nan),
                                        (np.nan, 1.0), (0.0, np.inf),
                                        (-np.inf, 0.0)])
    def test_span_must_be_finite_and_ordered(self, t_span):
        # a reversed span returned the start state at every sample with 0
        # steps, and the identity as propagator; a NaN or inf end raised
        # NotHermitianError at t=nan
        system = cnot_system(CnotParams(), 4.0)
        cfg = EvolutionConfig(tau=4.0)
        for h_of_t in (lambda t: system(t), system):
            with pytest.raises(ValueError, match="t_span must be finite"):
                schrodinger_evolve(h_of_t, KET_11, cfg, t_span=t_span)
            with pytest.raises(ValueError, match="t_span must be finite"):
                lindblad_evolve(h_of_t, np.outer(KET_11, KET_11),
                                NoiseModel(alpha=0.1), cfg, t_span=t_span)
            with pytest.raises(ValueError, match="t_span must be finite"):
                propagator(h_of_t, cfg, t_span=t_span)
            with pytest.raises(ValueError, match="t_span must be finite"):
                noise_trajectory_oracle(h_of_t, KET_11, 0.1, 100, 0.01,
                                        seed=0, t_span=t_span)

    def test_zero_length_span_is_the_identity(self, rng):
        # every sample lies at the start time: the stepper records the
        # state there and takes no step
        system = cnot_system(CnotParams(), 4.0, use_cd=True)
        psi0 = random_state(rng, 4)
        cfg = EvolutionConfig(tau=4.0, sample_count=3)
        for h_of_t in (lambda t: system(t), system):
            traj = schrodinger_evolve(h_of_t, psi0, cfg, t_span=(0.5, 0.5))
            assert np.array_equal(traj.states, np.stack([psi0] * 3))
            assert traj.stats["accepted"] == traj.stats["blocks"] == 0
            rho0 = np.outer(psi0, psi0.conj())
            traj = lindblad_evolve(h_of_t, rho0, NoiseModel(alpha=0.1), cfg,
                                   t_span=(0.5, 0.5))
            assert np.array_equal(traj.final_state, rho0)
            assert traj.stats["accepted"] == 0
            assert np.array_equal(propagator(h_of_t, cfg, t_span=(0.5, 0.5)),
                                  np.eye(4))


class TestSchrodinger:
    def test_zero_hamiltonian_freezes_state(self, rng):
        psi0 = random_state(rng, 4)
        cfg = EvolutionConfig(tau=3.0, sample_count=5)
        traj = schrodinger_evolve(lambda t: np.zeros((4, 4), dtype=complex),
                                  psi0, cfg)
        assert np.abs(traj.states - psi0).max() < 1e-12

    def test_stationary_state_accumulates_phase_only(self):
        j1 = 1.0
        psi0 = np.array([1.0, 0.0], dtype=complex)
        cfg = EvolutionConfig(tau=4.0, sample_count=9)
        traj = schrodinger_evolve(lambda t: j1 * SIGMA_Z, psi0, cfg)
        for t, psi in zip(traj.times, traj.states):
            assert abs(fidelity_pure(psi / np.linalg.norm(psi), psi0) - 1.0) < 1e-10
            expected = np.exp(-1j * j1 * (t - traj.times[0]))
            assert abs(psi[0] - expected) < 1e-9

    def test_adiabatic_gate_run(self, params):
        system = cnot_system(params, tau=200.0)
        traj = schrodinger_evolve(system, ground_start(params, system),
                                  EvolutionConfig(tau=200.0))
        assert abs(traj.final_state[3]) ** 2 >= 0.99
        assert traj.norm_drift <= 1e-8

    def test_sector_population_is_conserved(self, params):
        system = cnot_system(params, tau=5.0)
        cfg = EvolutionConfig(tau=5.0, sample_count=21)
        traj = schrodinger_evolve(system, ground_start(params, system), cfg)
        leakage = np.abs(traj.states[:, :2]).max()
        assert leakage < 1e-10

    def test_two_level_reduction_matches_full_dynamics(self, params):
        tau = 7.0
        full = cnot_system(params, tau)
        sector = lz_system(params, tau)
        cfg = EvolutionConfig(tau=tau, sample_count=11)
        psi4 = schrodinger_evolve(full, ground_start(params, full), cfg)
        start2 = ground_start(params, full)[2:]
        psi2 = schrodinger_evolve(sector, start2, cfg)
        assert np.abs(psi4.states[:, 2:] - psi2.states).max() < 1e-8

    def test_kernel_and_callable_paths_agree(self, params):
        tau = 6.0
        system = cnot_system(params, tau, use_cd=True)
        cfg = EvolutionConfig(tau=tau, sample_count=7)
        fast = schrodinger_evolve(system, ground_start(params, system), cfg)
        slow = schrodinger_evolve(lambda t: system(t),
                                  ground_start(params, system), cfg)
        assert np.abs(fast.states - slow.states).max() < 1e-10

    def test_rejects_unnormalized_start(self, params):
        system = cnot_system(params, tau=1.0)
        with pytest.raises(NotNormalizedError):
            schrodinger_evolve(system, 2.0 * KET_11, EvolutionConfig(tau=1.0))

    def test_stats_count_steps_and_rhs_evaluations(self, params):
        system = cnot_system(params, tau=6.0, use_cd=True)
        psi0 = ground_start(params, system)
        cfg = EvolutionConfig(tau=6.0, sample_count=4)
        calls = []

        def h_of_t(t):
            calls.append(t)
            return system(t)

        stats = schrodinger_evolve(h_of_t, psi0, cfg).stats
        steps = stats["accepted"] + stats["rejected"] + stats["discarded"]
        # three calls are the Hermiticity check; each block builds one
        # operator at its start and eleven per step (a step's last stage
        # time is also its end, the next step's start)
        assert len(calls) - 3 == stats["rhs_evals"]
        assert stats["rhs_evals"] == stats["blocks"] + 11 * steps
        ramped = schrodinger_evolve(system, psi0, cfg).stats
        assert ramped == schrodinger_evolve(system, psi0, cfg).stats
        assert ramped["accepted"] > 0

    def test_step_underflow_on_impossible_tolerance(self, params):
        system = cnot_system(params, tau=1.0)
        cfg = EvolutionConfig(tau=1.0, rel_tol=1e-60, abs_tol=1e-60)
        with pytest.raises(StepUnderflowError):
            schrodinger_evolve(system, ground_start(params, system), cfg)

    def test_all_nan_callable_rejected(self, params):
        system = cnot_system(params, tau=4.0)
        nan_matrix = np.full((4, 4), np.nan, dtype=complex)
        with pytest.raises(NotHermitianError):
            schrodinger_evolve(lambda t: nan_matrix,
                               ground_start(params, system),
                               EvolutionConfig(tau=4.0))

    def test_tolerance_halving_changes_little(self, params):
        system = cnot_system(params, tau=20.0)
        psi0 = ground_start(params, system)
        base = schrodinger_evolve(system, psi0, EvolutionConfig(tau=20.0))
        tight = schrodinger_evolve(
            system, psi0,
            EvolutionConfig(tau=20.0, rel_tol=0.5e-10, abs_tol=0.5e-12))
        f_base = abs(base.final_state[3]) ** 2
        f_tight = abs(tight.final_state[3]) ** 2
        assert abs(f_base - f_tight) < 1e-6


def test_nan_start_rejected(params):
    # each passed its precondition and failed later with a misleading error
    system = cnot_system(params, tau=4.0)
    psi0 = ground_start(params, system) + np.array([np.nan, 0, 0, 0])
    with pytest.raises(NotNormalizedError, match="norm nan"):
        schrodinger_evolve(system, psi0, EvolutionConfig())
    with pytest.raises(InvalidDensityMatrixError, match="not finite"):
        lindblad_evolve(system, np.outer(psi0, psi0.conj()),
                        NoiseModel(alpha=0.1), EvolutionConfig())


@pytest.mark.parametrize("oracle", [False, True],
                         ids=["schrodinger", "oracle"])
def test_huge_start_rejected_without_a_warning(params, oracle):
    # its squared norm overflowed with a RuntimeWarning
    system = cnot_system(params, tau=5.0)
    psi0 = np.array([1e200, 0, 0, 0])
    with warnings.catch_warnings(), \
            pytest.raises(NotNormalizedError, match="norm inf"):
        warnings.simplefilter("error")
        if oracle:
            noise_trajectory_oracle(system, psi0, 0.1, 100, 0.01, seed=0)
        else:
            schrodinger_evolve(system, psi0, EvolutionConfig())


@pytest.mark.parametrize("lindblad", [False, True],
                         ids=["schrodinger", "lindblad"])
def test_nan_midway_fails_loudly(params, lindblad):
    # finite at the three points the Hermiticity check samples, NaN within
    # the span: a step that meets it is rejected until the step underflows,
    # with no numpy warning on the way (warnings are errors here)
    system = cnot_system(params, tau=4.0)
    psi0 = ground_start(params, system)

    def h_of_t(t):
        return system(t) * np.nan if 0.3 < t < 0.6 else system(t)

    cfg = EvolutionConfig(tau=4.0)
    with warnings.catch_warnings(), \
            pytest.raises(StepUnderflowError, match="not finite"):
        warnings.simplefilter("error")
        if lindblad:
            lindblad_evolve(h_of_t, np.outer(psi0, psi0.conj()),
                            NoiseModel(alpha=0.1), cfg)
        else:
            schrodinger_evolve(h_of_t, psi0, cfg)


class TestPropagator:
    def test_zero_hamiltonian(self):
        u = propagator(lambda t: np.zeros((3, 3), dtype=complex),
                       EvolutionConfig(tau=2.0))
        assert np.abs(u - np.eye(3)).max() < 1e-12

    def test_matches_spectral_exponential(self, rng):
        h = random_hermitian(rng, 4)
        tau = 1.7
        u = propagator(lambda t: h, EvolutionConfig(tau=tau),
                       t_span=(0.0, tau))
        assert np.abs(u - spectral_propagator(h, tau)).max() < 1e-8

    def test_unitarity(self, params):
        system = cnot_system(params, tau=3.0, use_cd=True)
        u = propagator(system, EvolutionConfig(tau=3.0))
        assert np.abs(u.conj().T @ u - np.eye(4)).max() < 1e-8


class TestLindblad:
    def test_noiseless_limit_matches_schrodinger(self, params):
        tau = 10.0
        system = cnot_system(params, tau)
        psi0 = ground_start(params, system)
        cfg = EvolutionConfig(tau=tau, sample_count=9)
        pure = schrodinger_evolve(system, psi0, cfg)
        mixed = lindblad_evolve(system, np.outer(psi0, psi0.conj()),
                                NoiseModel(alpha=0.0), cfg)
        for psi, rho in zip(pure.states, mixed.states):
            f_pure = abs(psi[3]) ** 2
            f_mixed = float(np.real(rho[3, 3]))
            assert abs(f_pure - f_mixed) < 1e-8

    def test_pure_dephasing_closed_form(self):
        # H = 0, single qubit: off-diagonal decays as exp(-2 alpha t)
        alpha = 0.3
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        rho0 = np.outer(plus, plus.conj())
        cfg = EvolutionConfig(tau=4.0, sample_count=9)
        traj = lindblad_evolve(lambda t: np.zeros((2, 2), dtype=complex),
                               rho0, NoiseModel(alpha=alpha), cfg,
                               t_span=(0.0, 4.0))
        for t, rho in zip(traj.times, traj.states):
            expected = 0.5 * np.exp(-2.0 * alpha * t)
            assert abs(rho[0, 1] - expected) < 1e-9

    def test_long_time_limit_is_sector_mixed(self, params):
        system = cnot_system(params, tau=400.0)
        psi0 = ground_start(params, system)
        traj = lindblad_evolve(system, np.outer(psi0, psi0.conj()),
                               NoiseModel(alpha=0.2),
                               EvolutionConfig(tau=400.0))
        assert abs(np.real(traj.final_state[3, 3]) - 0.5) < 0.02

    def test_trajectory_invariants(self, params):
        system = cnot_system(params, tau=30.0)
        psi0 = ground_start(params, system)
        cfg = EvolutionConfig(tau=30.0, sample_count=7)
        traj = lindblad_evolve(system, np.outer(psi0, psi0.conj()),
                               NoiseModel(alpha=0.08), cfg)
        assert traj.norm_drift <= 1e-8
        for rho in traj.states:
            assert abs(np.trace(rho) - 1.0) < 1e-8
            assert np.linalg.eigvalsh(rho).min() > -1e-6
            assert 0.0 <= np.real(rho[3, 3]) <= 1.0 + 1e-10

    def test_non_diagonal_noise_operator_rejected(self, params):
        # hz is the jump operator of a ramped system; sigma_x on the driven
        # qubit used to surface as a trace-drift failure mid-integration
        system = cnot_system(params, tau=1.0)
        sigma_x_2 = np.kron(np.eye(2), np.array([[0, 1], [1, 0]], dtype=complex))
        psi0 = ground_start(params, system)
        with pytest.raises(ValueError, match="diagonal"):
            lindblad_evolve(replace(system, hz=sigma_x_2),
                            np.outer(psi0, psi0.conj()),
                            NoiseModel(alpha=0.001), EvolutionConfig(tau=1.0))

    def test_state_dimension_must_match_the_system(self, params):
        system = cnot_system(params, tau=1.0)
        with pytest.raises(ValueError, match="does not match the system"):
            lindblad_evolve(system, np.eye(8) / 8.0, NoiseModel(alpha=0.1),
                            EvolutionConfig())

    def test_callable_dimension_must_be_a_power_of_two(self):
        with pytest.raises(ValueError, match="dimension 3 is not a power"):
            lindblad_evolve(lambda t: np.zeros((3, 3)), np.eye(3) / 3.0,
                            NoiseModel(alpha=0.1), EvolutionConfig(),
                            t_span=(0.0, 1.0))

    def test_trace_drift_fails_the_run(self, params, monkeypatch):
        real = _kernels.evolve_ramped

        def drifting(*args):
            sampled, _, stats = real(*args)
            return sampled, 2e-8, stats

        monkeypatch.setattr(_kernels, "evolve_ramped", drifting)
        system = cnot_system(params, tau=1.0)
        psi0 = ground_start(params, system)
        with pytest.raises(TraceDriftExceededError,
                           match=r"trace drifted by 2\.000e-08 \(limit 1e-08\)"):
            lindblad_evolve(system, np.outer(psi0, psi0.conj()),
                            NoiseModel(alpha=0.1), EvolutionConfig())

    def test_positivity_checked_at_every_sample(self, params, monkeypatch):
        system = cnot_system(params, tau=1.0)
        psi0 = ground_start(params, system)
        rho0 = np.outer(psi0, psi0.conj())

        def fake_kernel(h, times, y0, *rest):
            # the kernel gets the 2x2 sector block of |10>, |11>
            assert y0.size == 4
            states = np.repeat(y0[None], 5, axis=0)
            # unit trace, eigenvalue -0.1, at a sample no spot check would
            # pick
            states[1] = np.diag([1.1, -0.1]).ravel()
            return states, 0.0, {}

        monkeypatch.setattr(_kernels, "evolve_ramped", fake_kernel)
        with pytest.raises(PositivityViolationError, match="-1.000e-01"):
            lindblad_evolve(system, rho0, NoiseModel(alpha=0.1),
                            EvolutionConfig(tau=1.0, sample_count=5))

    def test_rejects_invalid_initial_state(self, params):
        system = cnot_system(params, tau=1.0)
        with pytest.raises(InvalidDensityMatrixError):
            lindblad_evolve(system, np.eye(4, dtype=complex),
                            NoiseModel(alpha=0.1), EvolutionConfig(tau=1.0))

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(alpha=-0.1)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    def test_non_finite_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="finite"):
            NoiseModel(alpha=alpha)

    def test_gap_unit_conversion(self):
        noise = NoiseModel.from_gap_units(0.08, g=0.5)
        assert abs(noise.alpha - 0.08) < 1e-15
        assert abs(noise.in_gap_units(0.5) - 0.08) < 1e-15
        other = NoiseModel.from_gap_units(0.08, g=0.25)
        assert abs(other.alpha - 0.04) < 1e-15

    def test_gap_unit_conversion_does_not_overflow_early(self):
        # 2 g is formed first, as make_grid does, so a representable rate
        # stays finite: 1.5e308 * 2.0 would overflow before the * g
        assert NoiseModel.from_gap_units(1.5e308, 0.25).alpha == 7.5e307

    def test_alpha_whose_dissipator_overflows_rejected(self):
        # the dissipator's entries are -2 alpha
        largest = np.finfo(np.float64).max / 2.0
        assert NoiseModel(alpha=largest).alpha == largest
        for alpha in (np.nextafter(largest, np.inf), 1e308):
            with pytest.raises(ValueError, match="2 alpha finite"):
                NoiseModel(alpha=alpha)


class TestLargestJ1:
    """The largest ``j1`` that ``CnotParams`` accepts, whose 10 j1 is the
    gate sector's trace at n = 6, runs without a numpy warning, pure and
    under dephasing: the sector trace, the phase shift and its lift stay
    finite. The taus are those of the commands that overflowed before the
    bound (1 and 2); there the pure run's restored phase c (t - t0), with
    |c| = (n - 1) j1, stays finite too. Where it does not, the pure run
    raises ``PhaseOverflowError`` before integrating."""

    @pytest.mark.parametrize("n", [2, 6])
    @pytest.mark.parametrize("use_cd", [False, True])
    def test_runs_without_warnings(self, n, use_cd):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # j2_amp << j1
            params = CnotParams(j1=np.finfo(np.float64).max / 10.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for tau in (1.0, 2.0):
                system, psi0, _ = _gate_cell(params, tau, use_cd, n)
                pure = schrodinger_evolve(system, psi0, EvolutionConfig())
                system, rho0, alpha = _gate_cell(params, tau, use_cd, n,
                                                 alpha=0.1)
                noisy = lindblad_evolve(system, rho0, NoiseModel(alpha),
                                        EvolutionConfig())
                assert np.isfinite(pure.states).all()
                assert np.isfinite(noisy.states).all()

    @pytest.mark.parametrize("tau", [10.0, 1e300])
    def test_overflowing_phase_raises(self, tau):
        # |c| (t - t0) = 5 j1 tau passes 1.8e308, where the restored phase
        # wrote NaN samples after two RuntimeWarnings; it raises before
        # integrating
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # j2_amp << j1
            params = CnotParams(j1=1e307)
        system, psi0, _ = _gate_cell(params, tau, False, 6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PhaseOverflowError, match="overflows"):
                schrodinger_evolve(system, psi0, EvolutionConfig())


class TestRatesNearFloatMax:
    """A drive or dephasing rate that passes every parameter check yet
    overflows a stage fails the run with ``StepUnderflowError`` and no
    numpy warning: a step whose error norm is not finite is rejected until
    the step underflows. Each of these printed two RuntimeWarnings first."""

    @pytest.mark.parametrize("n, j2_amp, alpha", [
        (2, 5e153, None), (3, 5e153, None), (2, 5e153, 0.1), (2, 10.0, 5e307)],
        ids=["drive", "drive-n3", "drive-noisy", "dephasing"])
    def test_fails_without_warnings(self, n, j2_amp, alpha):
        cell = _gate_cell(CnotParams(g=0.25, j2_amp=j2_amp), 1.0, False, n,
                          alpha=alpha)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepUnderflowError, match="underflowed"):
                _run_cell(cell, None)


class TestSectorEmbedding:
    """``build_h_n`` is block diagonal and its only coupled block, the last
    two basis states, is ``lz_system`` up to the global phase of
    ``-(n - 2) j1 I``. A run started in that block stays in it, exactly,
    and there equals the two-level run; the jump operator is diagonal, so
    under dephasing the density matrix stays in the block too."""

    TAU = 7.0
    CFG = EvolutionConfig(tau=TAU, rel_tol=1e-12, abs_tol=1e-14)

    def _sector_start(self, params, use_cd):
        """``lz_system`` and its instantaneous ground state at the start."""
        lz = lz_system(params, self.TAU, use_cd)
        return lz, np.linalg.eigh(lz(lz.t_start))[1][:, 0]

    # n = 2 is the CNOT; every n integrates its 2x2 sector block in the
    # Liouvillian form, as lz_system does, so this compares the
    # embeddings, and test_lindblad_sector_forms_agree compares the form
    # with the commutator form (measured: up to 3.8e-13 at n = 2, 1.1e-12
    # at n = 3, 2.7e-12 at n = 4 and 1.2e-11 at n = 6)
    @pytest.mark.parametrize("n,bound", [(2, 1e-12), (3, 1e-11), (4, 1e-11),
                                         (6, 5e-11)])
    @pytest.mark.parametrize("use_cd", [False, True])
    def test_lindblad_sector_block_is_lz_run(self, params, n, bound, use_cd):
        lz, phi = self._sector_start(params, use_cd)
        noise = NoiseModel(alpha=0.1)
        ref = lindblad_evolve(lz, np.outer(phi, phi.conj()), noise, self.CFG)
        system = nqubit_system(n, params, self.TAU, use_cd)
        psi0 = np.concatenate([np.zeros(system.dim - 2), phi])
        traj = lindblad_evolve(system, np.outer(psi0, psi0.conj()), noise,
                               self.CFG)
        outside = traj.states.copy()
        outside[:, -2:, -2:] = 0.0
        assert not outside.any()
        # the step counts differ (the error norm divides by n), the states
        # agree far below the tolerance; the global phase cancels in rho
        assert np.abs(traj.states[:, -2:, -2:] - ref.states).max() < bound

    @pytest.mark.parametrize("tau", [2.0, 20.0, 150.0])
    @pytest.mark.parametrize("alpha", [0.0, 0.1])
    @pytest.mark.parametrize("use_cd", [False, True])
    @pytest.mark.parametrize("n", [2, 3, 4, 6])
    def test_lindblad_sector_forms_agree(self, params, monkeypatch, n, use_cd,
                                         alpha, tau):
        # a sector start run in the Liouvillian form, then forced into the
        # independent commutator form: a dissipator on the wrong term or a
        # flipped diagonal shows here (measured: same steps in all 48
        # cases, states within 4.0e-14)
        cell = _gate_cell(params, tau, use_cd, n, alpha=alpha)
        folded = _run_cell(cell, None)
        monkeypatch.setattr(_kernels, "_LIOUVILLIAN_MAX_DIM", 0)
        commutator = _run_cell(cell, None)
        counts = ("accepted", "rejected")
        assert ([folded.stats[k] for k in counts]
                == [commutator.stats[k] for k in counts])
        assert np.abs(folded.states - commutator.states).max() < 1e-13

    # measured: up to 4.4e-13 at n = 2, growing with n to 1.8e-11 at n = 6
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("use_cd", [False, True])
    def test_schrodinger_nqubit_sector_is_lz_run(self, params, n, use_cd):
        lz, phi = self._sector_start(params, use_cd)
        ref = schrodinger_evolve(lz, phi, self.CFG)
        system = nqubit_system(n, params, self.TAU, use_cd)
        psi0 = np.concatenate([np.zeros(system.dim - 2), phi])
        traj = schrodinger_evolve(system, psi0, self.CFG)
        assert not traj.states[:, :-2].any()
        phase = np.exp(1j * (n - 2) * params.j1 * (traj.times - lz.t_start))
        assert abs(phase[-1] - np.exp(1j * (n - 2) * params.j1 * self.TAU)) \
            < 1e-14
        assert np.abs(traj.states[:, -2:]
                      - phase[:, None] * ref.states).max() < 1e-10


def _sector(system, y0):
    """The indices a run started at ``y0`` (a state or density matrix)
    integrates."""
    support = np.asarray(y0) != 0
    if support.ndim == 2:
        support = support.any(axis=0)
    return dynamics._invariant_sector(system, support, (0.0, 1.0))[1].tolist()


def _sector_start(params, n, tau, use_cd):
    """``nqubit_system`` and its sector ground state at the start."""
    system = nqubit_system(n, params, tau, use_cd)
    j2 = system.drive_value(system.t_start)
    return system, nqubit_sector_states(n, params.g, j2)[0]


class TestInvariantSector:
    """A ramped run integrates only the closure of its start's support under
    the joint nonzero pattern of ``h0``, ``hz`` and ``hcd``."""

    def test_cnot_sectors(self, params, rng):
        system = cnot_system(params, 2.0, use_cd=True)
        basis = np.eye(4, dtype=complex)
        assert _sector(system, basis[2]) == [2, 3]  # |10>
        assert _sector(system, basis[0]) == [0]     # |00>
        assert _sector(system, random_state(rng, 4)) == [0, 1, 2, 3]
        ket = random_state(rng, 4)
        assert _sector(system, np.outer(ket, ket.conj())) == [0, 1, 2, 3]

    def test_each_term_couples(self, params):
        system = cnot_system(params, 2.0)
        zero = np.zeros((4, 4), dtype=complex)
        flip = np.kron(np.eye(2), [[0, 1], [1, 0]]).astype(complex)
        ket = np.eye(4, dtype=complex)[2]
        bare = replace(system, h0=zero, hz=zero, hcd=zero)
        assert _sector(bare, ket) == [2]
        for term in ("h0", "hcd"):
            assert _sector(replace(bare, **{term: system.h0}), ket) == [2, 3]
        assert _sector(replace(bare, hz=flip), ket) == [2, 3]

    @pytest.mark.parametrize("k", [0, 1])
    def test_lz_system_is_one_sector(self, params, k):
        system = lz_system(params, 2.0)
        assert _sector(system, np.eye(2, dtype=complex)[k]) == [0, 1]

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("use_cd", [False, True])
    def test_nqubit_sector_start_is_the_coupled_pair(self, params, n, use_cd):
        system, psi0 = _sector_start(params, n, 2.0, use_cd)
        dim = system.dim
        assert _sector(system, psi0) == [dim - 2, dim - 1]
        assert _sector(system, np.outer(psi0, psi0.conj())) == [dim - 2,
                                                                dim - 1]

    def test_sector_system_is_the_sliced_hamiltonian(self, params):
        system = nqubit_system(3, params, 4.0, use_cd=True)
        sub, idx = dynamics._invariant_sector(system, np.arange(8) == 6,
                                              (0.0, 1.0))
        ts = np.linspace(system.t_start, system.t_end, 5)
        assert idx.tolist() == [6, 7] and sub.dim == 2
        assert np.array_equal(sub(ts), system(ts)[:, 6:, 6:])

    def test_callable_sector_is_the_whole_space(self, params):
        system = cnot_system(params, 2.0)
        assert _sector(lambda t: system(t), np.eye(4)[2]) == [0, 1, 2, 3]


class TestSectorRunMatchesFullRun:
    """A sector run takes the full-width run's steps: the error norm still
    divides by the full state length. A pure run drops its sector's mean
    energy from ``h0``, so the full-width reference drops the same and
    restores the same phase; the states agree to rounding (the norm sums in
    another order). Under the Liouvillian form the sector runs in matrix
    mode and the full width in stage mode, so the densities agree to
    rounding too."""

    TAU = 5.0
    CFG = EvolutionConfig(tau=TAU, sample_count=5)

    def _full_width(self, system, y0, dissipator=None):
        times = np.linspace(system.t_start, system.t_end, 5)
        states, _, stats = _kernels.evolve_ramped(
            system, times, y0, self.CFG.rel_tol, self.CFG.abs_tol, dissipator)
        return states, stats

    @staticmethod
    def _counts(stats):
        return stats["accepted"], stats["rejected"], stats["rhs_evals"]

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("use_cd", [False, True])
    def test_pure(self, params, n, use_cd):
        system, psi0 = _sector_start(params, n, self.TAU, use_cd)
        traj = schrodinger_evolve(system, psi0, self.CFG)
        # the sector is the start's support, |1..10> and |1..11>
        assert _sector(system, psi0) == [system.dim - 2, system.dim - 1]
        shift = np.trace(system.h0[-2:, -2:]).real / 2
        assert shift == -(n - 1) * params.j1
        shifted = replace(system, h0=system.h0 - shift * np.eye(system.dim))
        states, stats = self._full_width(shifted, psi0)
        states *= np.exp(-1j * shift * (traj.times - traj.times[0]))[:, None]
        assert self._counts(traj.stats) == self._counts(stats)
        assert np.abs(traj.states - states).max() < 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("use_cd", [False, True])
    def test_density(self, params, n, use_cd):
        system, psi0 = _sector_start(params, n, self.TAU, use_cd)
        rho0 = np.outer(psi0, psi0.conj())
        alpha = 0.1
        traj = lindblad_evolve(system, rho0, NoiseModel(alpha=alpha),
                               self.CFG)
        d = np.real(np.diag(system.hz))
        states, stats = self._full_width(
            system, rho0.ravel(), dephasing_dissipator(d, alpha))
        counts = ("accepted", "rejected", "discarded", "blocks", "rhs_evals")
        assert [traj.stats[k] for k in counts] == [stats[k] for k in counts]
        # the 4 sector entries run in matrix mode, in Hermitian
        # coordinates, the full width (16 and more) in stage mode, which
        # round differently. An error estimate is a sum of stage terms that
        # nearly cancel, so the two modes' estimates differ by up to about
        # 4e-6 relative; each block's next step moves by an eighth of that,
        # and the moves add up over the blocks: measured step extremes
        # within 1.23e-7 relative and states within 2.6e-15
        for key in ("h_min", "h_max"):
            assert traj.stats[key] == pytest.approx(stats[key], rel=2.5e-7)
        assert np.abs(traj.states.reshape(states.shape) - states).max() < 1e-14


class TestAccuracyRecord:
    """A sweep-tau cell at the default tolerances against the same cell at
    rel_tol 1e-13 and abs_tol 1e-15: the accuracy docs/noise_model.md
    records. Measured over the 60 cells of ``sweep-tau``: worst 4.6e-9, at
    tau 200 (4.9e-9 before the block stepper); 7.7e-12 at tau 1 and
    3.2e-10 at tau 20. Each bound is about twice its measurement."""

    @pytest.mark.parametrize("tau,bound", [(1.0, 2e-11), (20.0, 1e-9),
                                           (200.0, 1e-8)])
    def test_final_state_against_a_tight_run(self, params, tau, bound):
        system, psi0, _ = _gate_cell(params, tau, False)
        tight = EvolutionConfig(rel_tol=1e-13, abs_tol=1e-15)
        final = schrodinger_evolve(system, psi0, EvolutionConfig()).final_state
        exact = schrodinger_evolve(system, psi0, tight).final_state
        assert np.abs(final - exact).max() < bound


class TestGlobalPhase:
    """A pure ramped run integrates its sector without the global phase of
    the sector's mean energy and restores that phase at every sample, so
    every sampled complex state, not only its populations, is the
    unshifted full-width run's (measured worst 2.9e-9, at n = 4 and
    tau 40; a flipped phase is off by more than 1)."""

    @pytest.mark.parametrize("tau", [5.0, 40.0])
    @pytest.mark.parametrize("n", [2, 4])
    @pytest.mark.parametrize("use_cd", [False, True])
    def test_samples_match_unshifted_full_run(self, params, tau, n, use_cd):
        system, psi0 = _sector_start(params, n, tau, use_cd)
        cfg = EvolutionConfig(sample_count=5)
        traj = schrodinger_evolve(system, psi0, cfg)
        states, _, _ = _kernels.evolve_ramped(
            system, traj.times, psi0, cfg.rel_tol, cfg.abs_tol)
        assert np.abs(traj.states - states).max() < 1e-8


class TestLindbladFormFollowsSector:
    """The sector's dimension picks the Lindblad form: a sector start at
    n = 3 runs the Liouvillian on its 2x2 block, a full-support start the
    commutator form on all 8 states."""

    @pytest.mark.parametrize("full_support", [False, True])
    def test_commutator_form_only_for_full_support(self, params, rng,
                                                   monkeypatch, full_support):
        built = []
        original = _kernels.lindblad_apply

        def spy(dissipator):
            built.append(dissipator.shape)
            return original(dissipator)

        monkeypatch.setattr(_kernels, "lindblad_apply", spy)
        system, psi0 = _sector_start(params, 3, 2.0, True)
        if full_support:
            psi0 = random_state(rng, system.dim)
        traj = lindblad_evolve(system, np.outer(psi0, psi0.conj()),
                               NoiseModel(alpha=0.1), EvolutionConfig(tau=2.0))
        assert traj.stats["accepted"] > 0
        assert built == ([(8, 8)] if full_support else [])


class TestLindbladProperties:
    """Over random gate parameters, a CNOT sector start run in the
    Liouvillian form takes the commutator form's steps and states, and
    keeps rho Hermitian with a steady trace."""

    @settings(max_examples=20, derandomize=True, deadline=None)
    @given(g=st.floats(0.2, 1.0), j2_amp=st.floats(5.0, 20.0),
           tau=st.floats(1.0, 30.0), alpha_gap=st.floats(0.0, 0.2),
           use_cd=st.booleans())
    def test_forms_agree_and_invariants_hold(self, g, j2_amp, tau, alpha_gap,
                                             use_cd):
        params = CnotParams(g=g, j2_amp=j2_amp)
        alpha = NoiseModel.from_gap_units(alpha_gap, g).alpha
        cell = _gate_cell(params, tau, use_cd, alpha=alpha)
        cfg = EvolutionConfig(sample_count=5)
        folded = _run_cell(cell, cfg)
        with mock.patch.object(_kernels, "_LIOUVILLIAN_MAX_DIM", 0):
            commutator = _run_cell(cell, cfg)
        counts = ("accepted", "rejected")
        assert ([folded.stats[k] for k in counts]
                == [commutator.stats[k] for k in counts])
        assert np.abs(folded.states - commutator.states).max() < 1e-12
        for traj in (folded, commutator):
            states = traj.states
            # symmetrized after every accepted step: exactly Hermitian
            assert np.array_equal(states, states.conj().transpose(0, 2, 1))
            traces = np.trace(states, axis1=1, axis2=2)
            assert np.abs(traces - 1.0).max() < TOL.trace_drift
            assert traj.norm_drift < TOL.trace_drift


class TestNoiseTrajectoryOracle:
    def test_zero_noise_reproduces_unitary(self, params):
        tau = 5.0
        system = cnot_system(params, tau)
        psi0 = ground_start(params, system)
        rho = noise_trajectory_oracle(system, psi0, alpha=0.0, n_samples=100,
                                      dt=0.002, seed=7)
        psi = schrodinger_evolve(system, psi0,
                                 EvolutionConfig(tau=tau)).final_state
        assert np.abs(rho - np.outer(psi, psi.conj())).max() < 1e-7

    def test_deterministic_given_seed(self, params):
        system = cnot_system(params, tau=2.0)
        psi0 = ground_start(params, system)
        a = noise_trajectory_oracle(system, psi0, 0.1, 120, 0.01, seed=3)
        b = noise_trajectory_oracle(system, psi0, 0.1, 120, 0.01, seed=3)
        c = noise_trajectory_oracle(system, psi0, 0.1, 120, 0.01, seed=4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_pure_dephasing_against_closed_form(self):
        # single qubit, H = 0: coherence decays as exp(-2 alpha t)
        alpha, t_final, n = 0.25, 2.0, 600
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        rho = noise_trajectory_oracle(
            lambda t: np.zeros((2, 2), dtype=complex), plus, alpha,
            n_samples=n, dt=0.004, seed=11, t_span=(0.0, t_final))
        expected = 0.5 * np.exp(-2.0 * alpha * t_final)
        # sample std of cos(2 * accumulated phase) over realizations
        var = (1 + np.exp(-8 * alpha * t_final)) / 2 - np.exp(-4 * alpha * t_final)
        sigma = 0.5 * np.sqrt(var / n)
        assert abs(np.real(rho[0, 1]) - expected) < 3.0 * sigma

    def test_sample_count_validation(self, params):
        system = cnot_system(params, tau=1.0)
        psi0 = ground_start(params, system)
        with pytest.raises(InvalidSampleCountError):
            noise_trajectory_oracle(system, psi0, 0.1, 50, 0.01, seed=0)

    @pytest.mark.parametrize("n_samples", [100.0, 150.5, np.float64(200.0)])
    def test_non_integral_sample_count_rejected_before_any_draw(
            self, params, monkeypatch, n_samples):
        system = cnot_system(params, tau=1.0)
        psi0 = ground_start(params, system)

        def no_draw(seed):
            raise AssertionError("noise drawn before n_samples was checked")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(InvalidSampleCountError, match="integer"):
            noise_trajectory_oracle(system, psi0, 0.1, n_samples, 0.01, seed=0)

    def test_numpy_integer_sample_count_accepted(self, params):
        system = cnot_system(params, tau=1.0)
        psi0 = ground_start(params, system)
        a = noise_trajectory_oracle(system, psi0, 0.1, np.int64(100), 0.01,
                                    seed=3)
        b = noise_trajectory_oracle(system, psi0, 0.1, 100, 0.01, seed=3)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("seed", [1.5, None, "7"])
    def test_non_integral_seed_rejected_before_any_draw(self, params,
                                                        monkeypatch, seed):
        system = cnot_system(params, tau=1.0)
        psi0 = ground_start(params, system)

        def no_draw(seed):
            raise AssertionError("noise drawn before seed was checked")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        with pytest.raises(ValueError, match="seed must be an integer"):
            noise_trajectory_oracle(system, psi0, 0.1, 100, 0.01, seed=seed)

    def test_numpy_integer_seed_gives_the_int_seeds_bits(self, params):
        system = cnot_system(params, tau=1.0)
        psi0 = ground_start(params, system)
        a = noise_trajectory_oracle(system, psi0, 0.1, 100, 0.01,
                                    seed=np.int64(7))
        b = noise_trajectory_oracle(system, psi0, 0.1, 100, 0.01, seed=7)
        assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("alpha", [-0.1, np.nan, np.inf])
    def test_bad_alpha_rejected(self, params, alpha):
        system = cnot_system(params, tau=1.0)
        with pytest.raises(ValueError, match="alpha"):
            noise_trajectory_oracle(system, ground_start(params, system),
                                    alpha, 100, 0.01, seed=0)

    def test_coarse_dt_rejected(self, params):
        system = cnot_system(params, tau=10.0)
        psi0 = ground_start(params, system)
        with pytest.raises(ValueError):
            noise_trajectory_oracle(system, psi0, alpha=50.0, n_samples=100,
                                    dt=0.01, seed=0)

    @pytest.mark.parametrize("dt", [0.0, -0.01, np.nan, 1.5])
    def test_bad_dt_rejected(self, params, dt):
        system = cnot_system(params, tau=1.0)
        with pytest.raises(ValueError, match="dt must lie"):
            noise_trajectory_oracle(system, ground_start(params, system), 0.1,
                                    100, dt, seed=0)

    def test_non_diagonal_noise_operator_rejected(self, params):
        # the batched average needs hz diagonal +-1; sigma_x on the driven
        # qubit is a valid Hamiltonian term but not a diagonal jump
        system = cnot_system(params, tau=1.0)
        sigma_x_2 = np.kron(np.eye(2), np.array([[0, 1], [1, 0]], dtype=complex))
        off = replace(system, hz=sigma_x_2)
        with pytest.raises(ValueError, match="diagonal"):
            noise_trajectory_oracle(off, ground_start(params, system), 0.1,
                                    100, 0.01, seed=0)

    def test_unnormalized_psi0_rejected(self, params):
        system = cnot_system(params, tau=1.0)
        psi0 = 1.01 * ground_start(params, system)
        with pytest.raises(NotNormalizedError):
            noise_trajectory_oracle(system, psi0, 0.1, 100, 0.01, seed=0)

    def test_non_hermitian_callable_rejected(self):
        plus = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
        with pytest.raises(NotHermitianError):
            noise_trajectory_oracle(
                lambda t: np.array([[0, 1], [0, 0]], dtype=complex), plus,
                0.1, 100, 0.01, seed=0, t_span=(0.0, 1.0))


    def test_callable_span_message_names_no_tau(self):
        # it asked for "a tau", which the oracle does not take
        with pytest.raises(ValueError) as info:
            noise_trajectory_oracle(lambda t: np.eye(4), KET_11, 0.1, 100,
                                    0.01, seed=0)
        assert str(info.value) == ("t_span is required for callable "
                                   "Hamiltonians")
        with pytest.raises(ValueError, match="callable Hamiltonians without "
                                             "a tau"):
            schrodinger_evolve(lambda t: np.eye(4), KET_11, EvolutionConfig())


class TestSystemMatchesStart:
    """Every engine checks its system against its start in one place,
    ``_invariant_sector``, before any integration."""

    @staticmethod
    def _run(engine, h_of_t, psi0):
        cfg = EvolutionConfig(sample_count=3)
        span = (-0.5, 0.5)
        if engine == "schrodinger":
            return schrodinger_evolve(h_of_t, psi0, cfg, span)
        if engine == "lindblad":
            return lindblad_evolve(h_of_t, np.outer(psi0, psi0.conj()),
                                   NoiseModel(alpha=0.1), cfg, span)
        return noise_trajectory_oracle(h_of_t, psi0, 0.1, 100, 0.01, seed=0,
                                       t_span=span)

    @pytest.fixture
    def no_integration(self, monkeypatch):
        def integrate(*args, **kwargs):
            raise AssertionError("integrated before the check")

        monkeypatch.setattr(_kernels, "dop853", integrate)
        monkeypatch.setattr(_kernels, "dephasing_average", integrate)

    @pytest.mark.parametrize("engine", ["schrodinger", "lindblad", "oracle"])
    def test_ramped_system_of_another_dimension(self, params, engine,
                                                no_integration):
        # schrodinger_evolve failed with numpy's bare IndexError
        psi0 = np.full(8, 8 ** -0.5, dtype=complex)
        with pytest.raises(ValueError, match="does not match the system"):
            self._run(engine, cnot_system(params, tau=1.0), psi0)

    @pytest.mark.parametrize("engine", ["schrodinger", "lindblad", "oracle"])
    @pytest.mark.parametrize("shape", [(2, 2), (8, 8), (4, 2), (4,), ()])
    def test_callable_of_another_size(self, engine, shape, no_integration):
        # a square callable of the wrong size failed inside the kernel with
        # numpy's "shapes (4,4) and (2,) not aligned"
        with pytest.raises(ValueError, match="does not match the system"):
            self._run(engine, lambda t: np.zeros(shape), KET_11)

    @pytest.mark.parametrize("engine", ["schrodinger", "lindblad", "oracle"])
    def test_callable_must_be_hermitian(self, engine, no_integration):
        def h_of_t(t):
            return np.triu(np.ones((4, 4))) if t == 0.0 else np.eye(4)

        with pytest.raises(NotHermitianError, match="t=0.0"):
            self._run(engine, h_of_t, KET_11)

    @pytest.mark.parametrize("engine", ["schrodinger", "lindblad", "oracle"])
    def test_ramped_system_must_be_hermitian(self, params, engine,
                                             no_integration):
        # the oracle returned a rho of trace 1.47 and the two engines failed
        # on their drift and positivity monitors, "tighten the tolerances"
        system = cnot_system(params, tau=10.0)
        h0 = system.h0.copy()
        h0[2, 3], h0[3, 2] = -0.5, 0.2
        with pytest.raises(NotHermitianError, match="h0 is not Hermitian"):
            self._run(engine, replace(system, h0=h0), KET_10)

    @pytest.mark.parametrize("factor", [0.5, 2.0])
    @pytest.mark.parametrize("where", ["ramped", "callable", "hermitian_eig"])
    def test_one_hermiticity_threshold(self, params, where, factor):
        # the engines and numerics share one rule: a term whose relative
        # defect is half of TOL.hermiticity passes, one with twice fails
        term = np.array([[1.0, 0.5], [0.5 + factor * TOL.hermiticity, -1.0]],
                        dtype=complex)
        assert hermiticity_defect(term) == pytest.approx(
            factor * TOL.hermiticity, rel=1e-5)
        psi0 = np.array([1.0, 0.0], dtype=complex)
        if where == "ramped":
            system = replace(lz_system(params, tau=1.0, use_cd=True), hcd=term)
            run = lambda: schrodinger_evolve(system, psi0, EvolutionConfig())
            message = "the system's hcd is not Hermitian"
        elif where == "callable":
            run = lambda: schrodinger_evolve(lambda t: term, psi0,
                                             EvolutionConfig(), (0.0, 1.0))
            message = "H(t) at t=0.0 is not Hermitian"
        else:
            run = lambda: hermitian_eig(term)
            message = "matrix is not Hermitian"
        if factor < 1.0:
            run()
        else:
            with pytest.raises(NotHermitianError, match=re.escape(message)):
                run()


def _traj_bytes(traj):
    """Everything a run returns, as bytes and numbers that compare bit for
    bit."""
    return (traj.times.tobytes(), traj.states.tobytes(), traj.norm_drift,
            traj.stats)


def _fresh(run):
    """``run()`` with nothing kept from any earlier run: new gate terms
    (``model._gate_terms``) and an empty per-thread store
    (``_kernels._reused``), so a new sector, lift and evaluators."""
    model._gate_terms.cache_clear()
    vars(_kernels._kept).clear()
    assert not vars(_kernels._kept)
    return run()


def _fresh_run(n, params, tau, cd, alpha, cfg):
    """The gate cell run with nothing kept from any earlier run."""
    return _fresh(lambda: _run_cell(_gate_cell(params, tau, cd, n, alpha),
                                    cfg))


class TestSharedSetUp:
    """A run keeps, per thread, its sector set-up, lift and evaluators for
    the next run of the same content (``dynamics._sector_system``,
    ``_kernels._reused``). A run must give bit for bit what it gives with
    nothing kept, and the checks must still catch a bad system."""

    CFGS = [EvolutionConfig(), EvolutionConfig(rel_tol=1e-11, abs_tol=1e-13)]

    def test_interleaved_cells_match_fresh_runs(self):
        cells = [(n, CnotParams(j1=j1, g=g), cd, alpha, cfg)
                 for n in (2, 4) for j1, g in ((1.0, 0.5), (1.5, 0.3))
                 for cd in (False, True) for alpha in (None, 0.0, 0.1)
                 for cfg in self.CFGS]
        order = np.random.default_rng(5).permutation(len(cells))
        kept = {}
        for k in order:
            n, params, cd, alpha, cfg = cells[k]
            kept[k] = _run_cell(_gate_cell(params, 6.0, cd, n, alpha), cfg)
        for k, (n, params, cd, alpha, cfg) in enumerate(cells):
            fresh = _fresh_run(n, params, 6.0, cd, alpha, cfg)
            assert _traj_bytes(kept[k]) == _traj_bytes(fresh), cells[k]

    @pytest.mark.parametrize("case", ["commutator", "across_equations"])
    def test_runs_share_one_stage_evaluator(self, params, case):
        # commutator-form runs (n = 3 from a full-support density) at other
        # rates, or runs of two equations on states of one length and
        # width, keep one stage evaluator, and each run gives the bits of
        # a run from an empty store
        cfg = EvolutionConfig()
        if case == "commutator":
            system = nqubit_system(3, params, 2.0, True)
            rho0 = np.full((8, 8), 1 / 8, dtype=complex)
            runs = [lambda a=alpha: lindblad_evolve(system, rho0,
                                                    NoiseModel(a), cfg)
                    for alpha in (0.05, 0.1, 0.05)]
        else:
            lz, rho0 = lz_system(params, 2.0, True), np.full((2, 2), 0.5 + 0j)
            cnot, psi0 = cnot_system(params, 2.0, True), np.full(4, 0.5 + 0j)
            runs = [lambda: lindblad_evolve(lz, rho0, NoiseModel(0.1), cfg),
                    lambda: schrodinger_evolve(cnot, psi0, cfg)] * 2
        kept, stages = [], []
        for run in runs:
            kept.append(_traj_bytes(run()))
            stages.append(_kernels._kept.stage[1])
        assert all(stage is stages[0] for stage in stages)
        assert kept == [_traj_bytes(_fresh(run)) for run in runs]

    def test_each_purity_keeps_one_matrix_evaluator(self, params,
                                                    monkeypatch):
        # a 2x2 density block under its Liouvillian and a 4-amplitude state
        # both run matrix mode at size 4; runs that alternate between them
        # build one evaluator per purity, and each run gives the bits of a
        # run from an empty store
        cfg = EvolutionConfig()
        lz, rho0 = lz_system(params, 2.0, True), np.full((2, 2), 0.5 + 0j)
        cnot, psi0 = cnot_system(params, 2.0, True), np.full(4, 0.5 + 0j)
        runs = [lambda: lindblad_evolve(lz, rho0, NoiseModel(0.1), cfg),
                lambda: schrodinger_evolve(cnot, psi0, cfg)] * 2
        built, matrix_mode = [], _kernels._matrix_mode

        def counted(size, rtol, atol, root_width, pure):
            steps = matrix_mode(size, rtol, atol, root_width, pure)
            built.append((size, pure, steps))
            return steps

        monkeypatch.setattr(_kernels, "_matrix_mode", counted)
        kept = [_traj_bytes(_fresh(runs[0]))]
        kept += [_traj_bytes(run()) for run in runs[1:]]
        assert [(size, pure) for size, pure, _ in built] == [(4, False),
                                                            (4, True)]
        for slot, (_, _, steps) in zip(("matrix_density", "matrix_pure"),
                                       built):
            assert getattr(_kernels._kept, slot)[1] is steps
        assert kept == [_traj_bytes(_fresh(run)) for run in runs]

    @pytest.mark.parametrize("engine", ["schrodinger", "lindblad"])
    def test_checks_hold_after_a_valid_cell(self, params, engine):
        system, psi0, _ = _gate_cell(params, 5.0, True)

        def run(h, psi):
            if engine == "schrodinger":
                return schrodinger_evolve(h, psi, EvolutionConfig())
            return lindblad_evolve(h, np.outer(psi, psi.conj()),
                                   NoiseModel(alpha=0.1), EvolutionConfig())

        run(system, psi0)
        bad = replace(system, hcd=system.hcd + 1j * np.eye(4))
        with pytest.raises(NotHermitianError, match="hcd"):
            run(bad, psi0)
        with pytest.raises(ValueError, match="does not match the system"):
            run(system, np.full(8, 8 ** -0.5, dtype=complex))
        # a model term made writable and edited in place gives the edited
        # physics, not the set-up kept for its old content
        before, h0 = run(system, psi0), system.h0
        kept = h0.copy()
        h0.setflags(write=True)
        try:
            h0[2:, 2:] += 0.3 * np.array([[0, 1], [1, 0]])
            edited = run(system, psi0)
            expected = run(replace(system, h0=h0.copy()), psi0)
        finally:
            h0[...] = kept
            h0.setflags(write=False)
        assert _traj_bytes(edited) == _traj_bytes(expected)
        assert np.abs(edited.final_state - before.final_state).max() > 0.1
        assert _traj_bytes(run(system, psi0)) == _traj_bytes(before)

    def test_user_system_edited_in_place(self, params):
        system, psi0, _ = _gate_cell(params, 5.0, True)
        user = replace(system, h0=system.h0.copy(), hz=system.hz.copy(),
                       hcd=system.hcd.copy())
        cfg = EvolutionConfig()
        first = schrodinger_evolve(user, psi0, cfg)
        user.h0[2:, 2:] += 0.3 * np.array([[0, 1], [1, 0]])
        second = schrodinger_evolve(user, psi0, cfg)
        edited = replace(user, h0=user.h0.copy())
        assert (_traj_bytes(second)
                == _traj_bytes(schrodinger_evolve(edited, psi0, cfg)))
        assert np.abs(second.final_state - first.final_state).max() > 0.1

    def test_user_copy_reuses_the_kept_sector(self, params):
        # the sector is kept under its terms' content, so a user's writable
        # copy of the model's terms reuses it and runs bit for bit alike
        system, psi0, _ = _gate_cell(params, 5.0, True)
        user = replace(system, h0=system.h0.copy(), hz=system.hz.copy(),
                       hcd=system.hcd.copy())
        rho0 = np.outer(psi0, psi0.conj())
        noise, cfg = NoiseModel(alpha=0.1), EvolutionConfig()
        runs, sectors = [], []
        for h in (system, user):
            runs.append(_traj_bytes(schrodinger_evolve(h, psi0, cfg)))
            sectors.append(_kernels._kept.sector[1])
            runs.append(_traj_bytes(lindblad_evolve(h, rho0, noise, cfg)))
            sectors.append(_kernels._kept.sector[1])
        assert all(sector is sectors[0] for sector in sectors)
        assert runs[:2] == runs[2:]

    def test_one_sector_is_kept_per_thread(self, params):
        # nine start supports in turn: each run replaces the one sector
        # kept on this thread, and run again in reverse order each gives
        # its bits back
        system = nqubit_system(3, params, 2.0)
        cfg = EvolutionConfig()
        starts = []
        for k in range(9):
            psi0 = np.zeros(8, dtype=complex)
            psi0[k % 8:k % 8 + 1 + k // 8] = 1.0
            starts.append(psi0 / np.linalg.norm(psi0))
        first, sectors = [], []
        for psi0 in starts:
            first.append(_traj_bytes(schrodinger_evolve(system, psi0, cfg)))
            key, sector = _kernels._kept.sector
            assert key[0][2] == (psi0 != 0).tobytes()
            sectors.append(sector)
        assert len(set(map(id, sectors))) == len(starts)
        assert [_traj_bytes(schrodinger_evolve(system, psi0, cfg))
                for psi0 in starts[::-1]] == first[::-1]

    def test_nested_runs_leave_the_outer_run_alone(self, params):
        # a callable whose H(t) runs a callable and a gate system of the
        # outer run's state size and tolerances, which share its kept
        # evaluators between its blocks, gives the outer run's bits
        system = cnot_system(params, 20.0, True)
        cfg, span = EvolutionConfig(), (-1.0, 1.0)
        psi0 = np.array([0, 0, 1, 0], dtype=complex)
        uniform = np.full(4, 0.5, dtype=complex)  # its sector is all 4
        shared = []

        def nested(t):
            for h in (system.__call__, system):
                schrodinger_evolve(h, uniform, cfg, (0.0, 0.01))
                shared.append(_kernels._kept.stage[1])
            return system(t)

        plain = schrodinger_evolve(system.__call__, psi0, cfg, span)
        # blocks of 1 and 2 steps in stage mode, then 4, 8 and 3 in matrix
        # mode (_MATRIX_MIN_STEPS)
        assert (plain.stats["accepted"], plain.stats["rejected"],
                plain.stats["blocks"]) == (18, 0, 5)
        assert _traj_bytes(schrodinger_evolve(nested, psi0, cfg, span)) \
            == _traj_bytes(plain)
        assert all(steps is _kernels._kept.stage[1] for steps in shared)

    def test_threads_reproduce_serial_runs(self, params):
        # threads, more than this host's two cores, run different noise
        # cells of one sector at once, each with its own kept set-up; a switch
        # every 10 us interleaves their blocks
        jobs = [[(10.0, 0.1, True), (25.0, 0.0, False)],
                [(15.0, 0.05, False), (30.0, 0.1, True)],
                [(20.0, 0.02, True), (5.0, 0.1, False)]]

        def run(job):
            return [_traj_bytes(_run_cell(_gate_cell(params, tau, cd,
                                                     alpha=alpha), None))
                    for tau, alpha, cd in job]

        serial = [run(job) for job in jobs]
        barrier = threading.Barrier(len(jobs))

        def repeated(job):
            barrier.wait(timeout=60)
            return [run(job) for _ in range(3)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(jobs)) as pool:
                threaded = list(pool.map(repeated, jobs, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        for job_serial, job_threaded in zip(serial, threaded):
            assert all(runs == job_serial for runs in job_threaded)


class TestScipyOracle:
    """The DOP853 stepper against scipy's independent DOP853 at tight
    tolerances: final states agree to 1e-8."""

    @pytest.mark.parametrize("use_cd", [False, True])
    @pytest.mark.parametrize("tau", [1.0, 20.0])
    def test_schrodinger(self, params, tau, use_cd):
        integrate = pytest.importorskip("scipy.integrate")
        system = cnot_system(params, tau, use_cd)
        psi0 = ground_start(params, system)
        psi = schrodinger_evolve(system, psi0,
                                 EvolutionConfig(tau=tau)).final_state
        ref = integrate.solve_ivp(
            lambda t, y: -1j * (system(t) @ y),
            (system.t_start, system.t_end), psi0, method="DOP853",
            rtol=1e-12, atol=1e-14)
        assert ref.success
        assert np.abs(psi - ref.y[:, -1]).max() < 1e-8

    @pytest.mark.parametrize("use_cd", [False, True])
    @pytest.mark.parametrize("tau", [1.0, 20.0])
    def test_lindblad(self, params, tau, use_cd):
        integrate = pytest.importorskip("scipy.integrate")
        system = cnot_system(params, tau, use_cd)
        psi0 = ground_start(params, system)
        rho0 = np.outer(psi0, psi0.conj())
        alpha = 0.1 * 2.0 * params.g
        rho = lindblad_evolve(system, rho0, NoiseModel(alpha=alpha),
                              EvolutionConfig(tau=tau)).final_state
        z2 = np.kron(np.eye(2), SIGMA_Z)

        def rhs(t, y):
            r = y.reshape(4, 4)
            h = system(t)
            return (-1j * (h @ r - r @ h)
                    + alpha * (z2 @ r @ z2 - r)).ravel()

        ref = integrate.solve_ivp(
            rhs, (system.t_start, system.t_end), rho0.ravel(),
            method="DOP853", rtol=1e-12, atol=1e-14)
        assert ref.success
        assert np.abs(rho - ref.y[:, -1].reshape(4, 4)).max() < 1e-8


class TestGroundStateProbability:
    def test_eigenstates(self, params):
        snap = analytic_spectrum(params, 5.0)
        assert abs(ground_state_probability(snap.states[0], params, 5.0) - 1.0) < 1e-14
        assert ground_state_probability(snap.states[1], params, 5.0) < 1e-14

    def test_adiabatic_run_stays_in_ground_state(self, params):
        system = cnot_system(params, tau=200.0)
        psi = schrodinger_evolve(system, ground_start(params, system),
                                 EvolutionConfig(tau=200.0)).final_state
        psi = psi / np.linalg.norm(psi)
        assert ground_state_probability(psi, params, 5.0) >= 0.999
