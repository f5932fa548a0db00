import numpy as np
import pytest

from cdgate import _kernels
from cdgate.dynamics import (EvolutionConfig, NoiseModel, lindblad_evolve,
                             noise_trajectory_oracle, schrodinger_evolve)
from cdgate.model import CnotParams, analytic_spectrum, cnot_system, nqubit_system

from conftest import random_hermitian, random_state


_EPS = float(np.finfo(np.float64).eps)


def _evolve_ramped_loop(h0, hz, hcd, slope, g, use_cd, alpha, is_density,
                        sample_times, y0, rtol, atol, max_step, h_init):
    """Reference: the DOP853 loop as first written for numba, one scalar
    tableau coefficient at a time. Returns ``(status, states, drift,
    accepted, rejected)``."""
    A, B, C = _kernels.DP_A, _kernels.DP_B, _kernels.DP_C
    E3, E5 = _kernels.DP_E3, _kernels.DP_E5
    dim = h0.shape[0]
    n = y0.shape[0]
    nsamp = sample_times.shape[0]
    out = np.zeros((nsamp, n), dtype=np.complex128)
    out[0] = y0

    d = np.zeros(dim, dtype=np.float64)
    for i in range(dim):
        d[i] = np.real(hz[i, i])
    mask = d.reshape(-1, 1) * d.reshape(1, -1)

    def rhs(t, y):
        j2 = slope * t
        h = h0 + j2 * hz
        if use_cd:
            h = h + (g * slope / (2.0 * (g * g + j2 * j2))) * hcd
        if is_density:
            rho = y.reshape((dim, dim))
            drho = -1j * (h @ rho - rho @ h)
            if alpha > 0.0:
                drho = drho + alpha * (mask * rho - rho)
            return drho.ravel()
        return -1j * (h @ y)

    y = y0.copy()
    t = sample_times[0]
    f = rhs(t, y)
    h_abs = min(h_init, max_step)
    drift = 0.0
    K = np.zeros((13, n), dtype=np.complex128)
    nsteps = accepted = rejected = 0
    status = _kernels.STATUS_OK

    for isamp in range(1, nsamp):
        t_end = sample_times[isamp]
        while t < t_end:
            nsteps += 1
            if nsteps > _kernels._MAX_TOTAL_STEPS:
                status = _kernels.STATUS_STEP_BUDGET
                break
            min_step = 16.0 * _EPS * max(abs(t), abs(t_end))
            if h_abs > max_step:
                h_abs = max_step
            if h_abs < min_step:
                status = _kernels.STATUS_STEP_UNDERFLOW
                break
            h = h_abs
            if t + h > t_end:
                h = t_end - t

            K[0] = f
            for s in range(1, 12):
                dy = A[s, 0] * K[0]
                for j in range(1, s):
                    if A[s, j] != 0.0:
                        dy = dy + A[s, j] * K[j]
                K[s] = rhs(t + C[s] * h, y + h * dy)

            acc = B[0] * K[0]
            for j in range(1, 12):
                if B[j] != 0.0:
                    acc = acc + B[j] * K[j]
            y_new = y + h * acc
            f_new = rhs(t + h, y_new)
            K[12] = f_new

            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            e5 = E5[0] * K[0]
            e3 = E3[0] * K[0]
            for j in range(1, 13):
                if E5[j] != 0.0:
                    e5 = e5 + E5[j] * K[j]
                if E3[j] != 0.0:
                    e3 = e3 + E3[j] * K[j]
            err5 = np.sum(np.abs(e5 / scale) ** 2)
            err3 = np.sum(np.abs(e3 / scale) ** 2)
            denom = err5 + 0.01 * err3
            if denom > 0.0:
                err_norm = abs(h) * err5 / np.sqrt(denom * n)
            else:
                err_norm = 0.0

            if err_norm < 1.0:
                accepted += 1
                t = t + h
                if is_density:
                    rho = y_new.reshape((dim, dim))
                    rho = (rho + rho.conj().T) * 0.5
                    y = rho.ravel().copy()
                    dev = abs(np.trace(rho) - 1.0)
                else:
                    y = y_new
                    dev = abs(np.sum(np.real(y * np.conj(y))) - 1.0)
                drift = max(drift, dev)
                f = f_new
                if err_norm == 0.0:
                    factor = 10.0
                else:
                    factor = min(10.0, 0.9 * err_norm ** (-1.0 / 8.0))
                h_abs = h * factor
            else:
                rejected += 1
                h_abs = h * max(0.2, 0.9 * err_norm ** (-1.0 / 8.0))
        if status != _kernels.STATUS_OK:
            break
        out[isamp] = y
    return status, out, drift, accepted, rejected


def _ramped_args(system, tau, is_density, alpha=0.0):
    """``evolve_ramped`` arguments from a random start: the Schroedinger
    equation, or with ``is_density`` the Lindblad equation whose jump
    operator is ``hz``."""
    psi0 = random_state(np.random.default_rng(11), system.dim)
    times = np.array([system.t_start, 0.0, system.t_end])
    if is_density:
        return (system, _kernels.lindblad_apply(np.real(np.diag(system.hz)),
                                                alpha),
                times, np.outer(psi0, psi0.conj()).ravel(), 1e-10, 1e-12,
                np.inf, tau * 1e-3, _kernels.trace_drift, _kernels.symmetrize)
    return (system, np.dot, times, psi0, 1e-10, 1e-12, np.inf, tau * 1e-3,
            _kernels.norm_drift)


def _loop_args(args, is_density, alpha):
    """The run of ``_ramped_args`` in the arguments of the scalar loop."""
    system, _, times, y0, rtol, atol, max_step, h_init = args[:8]
    return (system.h0, system.hz, system.hcd, system.slope, system.g,
            system.use_cd, alpha, is_density, times, y0, rtol, atol,
            max_step, h_init)


_SYSTEMS = {
    "cnot": lambda tau: cnot_system(CnotParams(), tau),
    "cnot_cd": lambda tau: cnot_system(CnotParams(), tau, use_cd=True),
    "n3_cd": lambda tau: nqubit_system(3, CnotParams(), tau, use_cd=True),
}


class TestVectorizedStepper:
    """``evolve_ramped`` against the scalar-loop reference it replaced."""

    @pytest.mark.parametrize("tau", [1.0, 8.0, 50.0])
    @pytest.mark.parametrize("name", sorted(_SYSTEMS))
    @pytest.mark.parametrize("is_density,alpha", [(False, 0.0), (True, 0.0),
                                                  (True, 0.1)])
    def test_matches_scalar_loop(self, name, tau, is_density, alpha):
        args = _ramped_args(_SYSTEMS[name](tau), tau, is_density, alpha)
        status, states, drift, stats = _kernels.evolve_ramped(*args)
        ref_status, ref_states, ref_drift, accepted, rejected = \
            _evolve_ramped_loop(*_loop_args(args, is_density, alpha))
        assert status == ref_status == _kernels.STATUS_OK
        assert np.abs(states - ref_states).max() < 1e-11
        assert abs(drift - ref_drift) < 1e-11
        # same steps: the saving is in the cost of a step, not their number
        assert (stats["accepted"], stats["rejected"]) == (accepted, rejected)

    def test_step_counts_repeat(self):
        args = _ramped_args(_SYSTEMS["cnot_cd"](20.0), 20.0, True, 0.1)
        first = _kernels.evolve_ramped(*args)[3]
        second = _kernels.evolve_ramped(*args)[3]
        assert first == second
        assert first["accepted"] > 0 and first["rejected"] >= 0
        assert first["rhs_evals"] == 1 + 12 * (first["accepted"]
                                               + first["rejected"])

    def test_step_underflow_status(self):
        args = list(_ramped_args(_SYSTEMS["cnot"](8.0), 8.0, False))
        # a step far below 16 eps |t| at t = -4 underflows at once
        args[6], args[7] = 1e-16, 1e-16
        status, _, _, stats = _kernels.evolve_ramped(*args)
        assert status == _kernels.STATUS_STEP_UNDERFLOW
        assert stats["accepted"] == stats["rejected"] == 0
        assert stats["h_min"] == stats["h_max"] == 0.0

    def test_step_budget_status(self, monkeypatch):
        monkeypatch.setattr(_kernels, "_MAX_TOTAL_STEPS", 5)
        args = _ramped_args(_SYSTEMS["cnot"](8.0), 8.0, False)
        status, _, _, stats = _kernels.evolve_ramped(*args)
        assert status == _kernels.STATUS_STEP_BUDGET
        assert stats["accepted"] + stats["rejected"] == 5


class TestStepperInterface:
    """``dop853`` builds the generators of a step's stage times in one call."""

    def test_generators_called_once_per_step(self, rng):
        m0 = -1j * random_hermitian(rng, 2)
        sizes = []

        def generators(ts):
            sizes.append(ts.shape[0])
            return np.repeat(m0[None], ts.shape[0], axis=0)

        psi0 = random_state(rng, 2)
        # a first step of 3 is far too long, so rejected steps count too
        status, states, _, stats = _kernels.dop853(
            generators, np.dot, np.array([0.0, 3.0, 7.0]), psi0, 1e-10, 1e-12,
            np.inf, 5.0, _kernels.norm_drift)
        assert status == _kernels.STATUS_OK
        steps = stats["accepted"] + stats["rejected"]
        assert stats["accepted"] > 0 and stats["rejected"] > 0
        assert len(sizes) == 1 + steps
        # eleven distinct stage times: the last is also the FSAL point
        assert sizes == [1] + [11] * steps
        w, v = np.linalg.eigh(1j * m0)
        exact = v @ (np.exp(-1j * w * 7.0) * (v.conj().T @ psi0))
        assert np.abs(states[-1] - exact).max() < 1e-9

    @pytest.mark.parametrize("use_cd", [False, True])
    @pytest.mark.parametrize("build", [
        lambda use_cd: cnot_system(CnotParams(), 6.0, use_cd=use_cd),
        lambda use_cd: nqubit_system(3, CnotParams(), 6.0, use_cd=use_cd),
    ], ids=["cnot", "n3"])
    def test_ramped_block_matches_system(self, monkeypatch, build, use_cd):
        system = build(use_cd)
        captured = {}

        def capture(generators, *args):
            captured["generators"] = generators
            return _kernels.STATUS_OK, None, 0.0, {}

        monkeypatch.setattr(_kernels, "dop853", capture)
        _kernels.evolve_ramped(*_ramped_args(system, 6.0, False))
        for t, h in [(system.t_start, 0.37), (-0.2, 1.1), (2.5, 0.05)]:
            ts = t + h * _kernels.C_STAGE
            block = captured["generators"](ts)
            assert block.shape == (11, system.dim, system.dim)
            for t_k, m in zip(ts, block):
                assert np.abs(m - (-1j) * system(t_k)).max() < 1e-14
        assert _kernels.C_STAGE[-1] == 1.0
        assert np.array_equal(_kernels.C_STAGE, _kernels.DP_C[1:])


class TestStepTelemetry:
    _KEYS = {"accepted", "rejected", "rhs_evals", "h_min", "h_max"}

    @pytest.mark.parametrize("is_density,alpha", [(False, 0.0), (True, 0.1)])
    def test_step_extremes(self, is_density, alpha):
        system = _SYSTEMS["cnot_cd"](20.0)
        args = _ramped_args(system, 20.0, is_density, alpha)
        first = _kernels.evolve_ramped(*args)[3]
        second = _kernels.evolve_ramped(*args)[3]
        assert set(first) == self._KEYS
        assert first == second
        assert 0.0 < first["h_min"] <= first["h_max"]
        assert first["h_max"] <= system.t_end - system.t_start

    @pytest.mark.parametrize("lindblad", [False, True],
                             ids=["schrodinger", "lindblad"])
    def test_callable_step_extremes(self, lindblad):
        system = _SYSTEMS["cnot"](5.0)
        psi0 = random_state(np.random.default_rng(5), system.dim)
        cfg = EvolutionConfig(tau=5.0, sample_count=3)

        def stats_of(h_of_t):
            if lindblad:
                return lindblad_evolve(h_of_t, np.outer(psi0, psi0.conj()),
                                       NoiseModel(alpha=0.1), cfg).stats
            return schrodinger_evolve(h_of_t, psi0, cfg).stats

        first = stats_of(lambda t: system(t))
        assert set(first) == self._KEYS
        assert first == stats_of(lambda t: system(t))
        assert 0.0 < first["h_min"] <= first["h_max"] <= 5.0
        # the ramped path takes the same steps
        assert first == stats_of(system)

    def test_step_extremes_are_of_accepted_steps(self, rng):
        m0 = -1j * random_hermitian(rng, 2)
        last = {}
        ends = [0.0]

        def generators(ts):
            last["end"] = float(ts[-1])
            return np.repeat(m0[None], ts.shape[0], axis=0)

        def drift_of(y):
            # called once per accepted step, after its generators
            ends.append(last["end"])
            return _kernels.norm_drift(y)

        # a first step of 3 is far too long and is rejected
        _, _, _, stats = _kernels.dop853(
            generators, np.dot, np.array([0.0, 3.0, 7.0]), random_state(rng, 2),
            1e-10, 1e-12, np.inf, 5.0, drift_of)
        assert stats["rejected"] > 0
        steps = np.diff(ends)
        assert len(steps) == stats["accepted"]
        assert stats["h_min"] == pytest.approx(steps.min(), rel=1e-12)
        assert stats["h_max"] == pytest.approx(steps.max(), rel=1e-12)

    def test_step_extremes_at_max_step(self):
        args = list(_ramped_args(_SYSTEMS["cnot"](20.0), 20.0, False))
        args[6] = 0.05
        stats = _kernels.evolve_ramped(*args)[3]
        # a step capped by max_step is taken as exactly max_step
        assert stats["h_max"] == 0.05
        assert 0.0 < stats["h_min"] <= 0.05


def test_backend_name_is_numpy():
    # manifests record it, and the benchmark refuses any other backend
    assert _kernels.backend_name() == "numpy"


def test_jacobi_matches_numpy_eigh(rng):
    h = random_hermitian(rng, 8)
    w, v, off, converged = _kernels.jacobi_eigh(h, 1e-14, 60)
    assert converged
    assert np.abs(np.sort(w) - np.linalg.eigh(h)[0]).max() < 1e-12
    assert np.abs(h @ v - v * w).max() < 1e-12


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
        system, np.real(np.diag(system.hz)), system.t_start, dt, noise=noise,
        psi0=psi0)
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
