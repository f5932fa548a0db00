import os
import subprocess
import sys

import numpy as np
import pytest

from cdgate import _kernels
from cdgate.dynamics import NoiseModel, noise_trajectory_oracle
from cdgate.model import CnotParams, analytic_spectrum, cnot_system, nqubit_system

from conftest import random_hermitian, random_state


def _run_args(params, tau, use_cd, alpha, is_density):
    system = cnot_system(params, tau, use_cd=use_cd)
    psi0 = analytic_spectrum(params, system.drive_value(system.t_start)).states[0]
    y0 = np.outer(psi0, psi0.conj()).ravel() if is_density else psi0
    times = np.array([system.t_start, 0.0, system.t_end])
    return (system.h0, system.hz, system.hcd, system.slope, system.g,
            use_cd, alpha, is_density, times, y0, 1e-10, 1e-12, np.inf,
            tau * 1e-3)


class TestBackendEquivalence:
    def test_backends_registered(self):
        assert "numpy" in _kernels.IMPLEMENTATIONS
        if _kernels.USE_NUMBA:
            assert "numba" in _kernels.IMPLEMENTATIONS

    def test_evolution_backends_agree(self, params):
        args = _run_args(params, 8.0, True, 0.0, False)
        results = {
            name: impl["evolve_ramped"](*args)
            for name, impl in _kernels.IMPLEMENTATIONS.items()
        }
        statuses = {name: r[0] for name, r in results.items()}
        assert all(s == _kernels.STATUS_OK for s in statuses.values())
        outs = [r[1] for r in results.values()]
        for other in outs[1:]:
            assert np.abs(outs[0] - other).max() < 1e-12

    def test_lindblad_backends_agree(self, params):
        args = _run_args(params, 8.0, False, 0.1, True)
        outs = [impl["evolve_ramped"](*args)[1]
                for impl in _kernels.IMPLEMENTATIONS.values()]
        for other in outs[1:]:
            assert np.abs(outs[0] - other).max() < 1e-12

    def test_jacobi_backends_agree(self, rng):
        h = random_hermitian(rng, 8)
        outs = [impl["jacobi_eigh"](h, 1e-14, 60)
                for impl in _kernels.IMPLEMENTATIONS.values()]
        for w, v, off, conv in outs:
            assert conv
        for other in outs[1:]:
            assert np.abs(np.sort(outs[0][0]) - np.sort(other[0])).max() < 1e-12

    def test_mc_backends_agree(self, params):
        system = cnot_system(params, 2.0)
        psi0 = analytic_spectrum(params, system.drive_value(system.t_start)).states[0]
        noise = np.random.default_rng(5).standard_normal((50, 200)) * 0.5
        outs = [impl["dephasing_average"](system.h0, system.hz, system.hcd,
                                          system.slope, system.g, False,
                                          system.t_start, 0.01, noise, psi0)
                for impl in _kernels.IMPLEMENTATIONS.values()]
        for other in outs[1:]:
            assert np.abs(outs[0] - other).max() < 1e-12


def _rk4_loop(h_of_t, jump, t_start, dt, noise, psi0):
    """Reference: one realization at a time, noise folded into H per stage."""
    dim = psi0.shape[0]
    rho = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(noise.shape[0]):
        y = psi0.copy()
        for k in range(noise.shape[1]):
            t = t_start + k * dt
            eta = noise[i, k] * jump
            ha = h_of_t(t) + eta
            hm = h_of_t(t + 0.5 * dt) + eta
            hb = h_of_t(t + dt) + eta
            k1 = -1j * (ha @ y)
            k2 = -1j * (hm @ (y + (0.5 * dt) * k1))
            k3 = -1j * (hm @ (y + (0.5 * dt) * k2))
            k4 = -1j * (hb @ (y + dt * k3))
            y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho += np.outer(y, y.conj())
    return rho / noise.shape[0]


def _ramped_batched_vs_loop(system):
    psi0 = random_state(np.random.default_rng(3), system.dim)
    dt = (system.t_end - system.t_start) / 150
    noise = np.random.default_rng(17).standard_normal((30, 150)) * 2.0
    batched = _kernels.dephasing_average(
        system.h0, system.hz, system.hcd, system.slope, system.g,
        system.use_cd, system.t_start, dt, noise, psi0)
    loop = _rk4_loop(system, system.hz, system.t_start, dt, noise, psi0)
    return batched, loop


class TestBatchedDephasingAverage:
    @pytest.mark.parametrize("use_cd", [False, True])
    def test_cnot_matches_per_trajectory_loop(self, use_cd):
        system = cnot_system(CnotParams(), 3.0, use_cd=use_cd)
        batched, loop = _ramped_batched_vs_loop(system)
        assert np.abs(batched - loop).max() < 1e-12

    def test_three_qubit_matches_per_trajectory_loop(self):
        system = nqubit_system(3, CnotParams(), 3.0, use_cd=True)
        assert system.dim == 8
        batched, loop = _ramped_batched_vs_loop(system)
        assert np.abs(batched - loop).max() < 1e-12

    def test_callable_oracle_matches_per_trajectory_loop(self):
        system = cnot_system(CnotParams(), 2.0, use_cd=True)
        psi0 = analytic_spectrum(CnotParams(), system.drive_value(system.t_start)).states[0]
        # span 2 in 128 steps of exactly dt, so the oracle keeps dt as given
        alpha, dt, seed, n = 0.3, 2.0 / 128, 9, 100
        rho = noise_trajectory_oracle(lambda t: system(t), psi0, alpha, n, dt,
                                      seed, t_span=(system.t_start, system.t_end))
        # same draw as the oracle: one (n_samples, n_steps) block per seed
        noise = np.random.default_rng(seed).standard_normal((n, 128))
        noise *= np.sqrt(alpha / dt)
        loop = _rk4_loop(system, system.hz, system.t_start, dt, noise, psi0)
        assert np.abs(rho - loop).max() < 1e-12

    def test_pinned_oracle_value(self):
        # perfbench/reference.json, oracle-check at seed 0: recorded with the
        # per-trajectory loop before the realizations were batched
        params = CnotParams()
        system = cnot_system(params, 20.0)
        psi0 = analytic_spectrum(params, system.drive_value(system.t_start)).states[0]
        alpha = NoiseModel.from_gap_units(0.04, params.g).alpha
        rho = noise_trajectory_oracle(system, psi0, alpha, n_samples=100,
                                      dt=0.01, seed=7000)
        assert abs(rho[3, 3].real - 0.7374347125323591) < 1e-12


class TestEnvFlag:
    def test_disable_flag_selects_numpy_backend(self):
        code = (
            "from cdgate import _kernels\n"
            "print(_kernels.backend_name())\n"
        )
        env = dict(os.environ, CDGATE_NUMBA="0")
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "numpy"

    def test_default_backend_reported(self):
        assert _kernels.backend_name() in ("numba", "numpy")
