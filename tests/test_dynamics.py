from dataclasses import replace

import numpy as np
import pytest

from cdgate import _kernels
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
    PositivityViolationError,
    StepUnderflowError,
)
from cdgate.model import SIGMA_Z, analytic_spectrum, cnot_system, lz_system
from cdgate.numerics import spectral_propagator
from cdgate.observables import fidelity_pure

from conftest import random_hermitian, random_state

KET_11 = np.array([0, 0, 0, 1], dtype=complex)


def ground_start(params, system):
    return analytic_spectrum(params, system.drive_value(system.t_start)).states[0]


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
        steps = stats["accepted"] + stats["rejected"]
        # three calls are the Hermiticity check, one is the start; a step
        # has eleven distinct stage times, the last also the FSAL point
        assert len(calls) - 3 == 1 + 11 * steps
        assert stats["rhs_evals"] == 1 + 12 * steps
        ramped = schrodinger_evolve(system, psi0, cfg).stats
        assert ramped == schrodinger_evolve(system, psi0, cfg).stats
        assert ramped["accepted"] > 0

    def test_config_switches_cd_on(self, params):
        # cfg.use_cd adds the CD term to a system built without it, on both
        # equations
        system = cnot_system(params, tau=6.0)
        psi0 = ground_start(params, system)
        rho0 = np.outer(psi0, psi0.conj())
        noise = NoiseModel(alpha=0.05)
        on, off = EvolutionConfig(tau=6.0, use_cd=True), EvolutionConfig(tau=6.0)
        built = replace(system, use_cd=True)
        assert np.array_equal(schrodinger_evolve(system, psi0, on).states,
                              schrodinger_evolve(built, psi0, off).states)
        assert np.array_equal(lindblad_evolve(system, rho0, noise, on).states,
                              lindblad_evolve(built, rho0, noise, off).states)
        assert not np.array_equal(
            schrodinger_evolve(system, psi0, off).states,
            schrodinger_evolve(built, psi0, off).states)

    def test_step_underflow_on_impossible_tolerance(self, params):
        system = cnot_system(params, tau=1.0)
        cfg = EvolutionConfig(tau=1.0, rel_tol=1e-60, abs_tol=1e-60)
        with pytest.raises(StepUnderflowError):
            schrodinger_evolve(system, ground_start(params, system), cfg)

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

    def test_positivity_checked_at_every_sample(self, params, monkeypatch):
        system = cnot_system(params, tau=1.0)
        psi0 = ground_start(params, system)
        rho0 = np.outer(psi0, psi0.conj())
        states = np.repeat(rho0.reshape(1, 16), 5, axis=0)
        # unit trace, eigenvalue -0.1, at a sample no spot check would pick
        states[1] = np.diag([1.1, -0.1, 0.0, 0.0]).ravel()

        def fake_kernel(*args):
            return _kernels.STATUS_OK, states, 0.0, {}

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

    def test_gap_unit_conversion(self):
        noise = NoiseModel.from_gap_units(0.08, g=0.5)
        assert abs(noise.alpha - 0.08) < 1e-15
        assert abs(noise.in_gap_units(0.5) - 0.08) < 1e-15
        other = NoiseModel.from_gap_units(0.08, g=0.25)
        assert abs(other.alpha - 0.04) < 1e-15


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

    def test_coarse_dt_rejected(self, params):
        system = cnot_system(params, tau=10.0)
        psi0 = ground_start(params, system)
        with pytest.raises(ValueError):
            noise_trajectory_oracle(system, psi0, alpha=50.0, n_samples=100,
                                    dt=0.01, seed=0)

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

    def test_use_cd_with_callable_rejected(self, params):
        system = cnot_system(params, tau=1.0)
        with pytest.raises(ValueError, match="use_cd"):
            noise_trajectory_oracle(
                lambda t: system(t), ground_start(params, system), 0.1, 100,
                0.01, seed=0, t_span=(system.t_start, system.t_end),
                use_cd=True)


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
