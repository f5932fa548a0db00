import tracemalloc

import numpy as np
import pytest

from cdgate import _kernels, dynamics
from cdgate.dynamics import (EvolutionConfig, NoiseModel, lindblad_evolve,
                             noise_trajectory_oracle, schrodinger_evolve)
from cdgate.experiments import (_gate_cell, _initial_vector, _noise_cell,
                                 _target_state)
from cdgate.model import (CnotParams, analytic_spectrum, cnot_system,
                          lz_system, nqubit_system)
from cdgate.observables import fidelity_mixed

from conftest import (dephasing_dissipator, random_hermitian,
                      random_state)


_EPS = float(np.finfo(np.float64).eps)


def _evolve_ramped_loop(h0, hz, hcd, slope, g, use_cd, alpha, is_density,
                        sample_times, y0, rtol, atol, h_init):
    """Reference: the DOP853 loop as first written for numba, one scalar
    tableau coefficient at a time, with its own unbounded ``max_step``.
    Returns ``(status, states, drift, accepted, rejected)``."""
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
    max_step = np.inf
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


def _ramped_args(system, tau, is_density, alpha=0.0, liouvillian=False):
    """``evolve_ramped`` arguments from a random start: the Schroedinger
    equation, or with ``is_density`` the Lindblad equation whose jump
    operator is ``hz``, in commutator or ``liouvillian`` form."""
    psi0 = random_state(np.random.default_rng(11), system.dim)
    times = np.array([system.t_start, 0.0, system.t_end])
    if is_density:
        d = np.real(np.diag(system.hz))
        apply, dissipator = (
            (np.dot, dephasing_dissipator(d, alpha)) if liouvillian
            else (_kernels.lindblad_apply(d, alpha), None))
        return (system, apply, times, np.outer(psi0, psi0.conj()).ravel(),
                1e-10, 1e-12, tau * 1e-3, _kernels.trace_drift,
                _kernels.symmetrize, dissipator)
    return (system, np.dot, times, psi0, 1e-10, 1e-12, tau * 1e-3,
            _kernels.norm_drift)


def _loop_args(args, is_density, alpha):
    """The run of ``_ramped_args`` in the arguments of the scalar loop."""
    system, _, times, y0, rtol, atol, h_init = args[:7]
    return (system.h0, system.hz, system.hcd, system.slope, system.g,
            system.use_cd, alpha, is_density, times, y0, rtol, atol, h_init)


_SYSTEMS = {
    "cnot": lambda tau: cnot_system(CnotParams(), tau),
    "cnot_cd": lambda tau: cnot_system(CnotParams(), tau, use_cd=True),
    "lz_cd": lambda tau: lz_system(CnotParams(), tau, use_cd=True),
    "n3_cd": lambda tau: nqubit_system(3, CnotParams(), tau, use_cd=True),
}


def _stepper_cases():
    """(name, tau, is_density, alpha, liouvillian): the pure state and the
    commutator form everywhere, the Liouvillian form at the dimensions
    ``lindblad_evolve`` integrates with it."""
    for tau in (1.0, 8.0, 50.0):
        for name in sorted(_SYSTEMS):
            small = (_SYSTEMS[name](tau).dim
                     <= dynamics._LIOUVILLIAN_MAX_DIM)
            for is_density, alpha, liouvillian in [
                    (False, 0.0, False), (True, 0.0, False),
                    (True, 0.1, False), (True, 0.0, True), (True, 0.1, True)]:
                if liouvillian and not small:
                    continue
                form = "-liouvillian" if liouvillian else ""
                yield pytest.param(name, tau, is_density, alpha, liouvillian,
                                   id=f"{is_density}-{alpha}{form}-{name}-{tau}")


class TestVectorizedStepper:
    """``evolve_ramped`` against the scalar-loop reference it replaced."""

    @pytest.mark.parametrize("name,tau,is_density,alpha,liouvillian",
                             _stepper_cases())
    def test_matches_scalar_loop(self, name, tau, is_density, alpha,
                                 liouvillian):
        args = _ramped_args(_SYSTEMS[name](tau), tau, is_density, alpha,
                            liouvillian)
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
        # a first step far below 16 eps |t| at t = -4 underflows at once
        args[6] = 1e-16
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


class TestLiouvillian:
    """The vectorized Lindblad form and the dimensions that use it."""

    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_matches_commutator_form(self, rng, dim, alpha):
        m = np.stack([-1j * random_hermitian(rng, dim) for _ in range(3)])
        d = np.tile([1.0, -1.0], dim // 2)
        psi = random_state(rng, dim)
        y = np.outer(psi, psi.conj()).ravel()
        superops = _kernels.liouvillian(m, dephasing_dissipator(d, alpha))
        assert superops.shape == (3, dim * dim, dim * dim)
        apply = _kernels.lindblad_apply(d, alpha)
        for m_k, l_k in zip(m, superops):
            assert np.abs(l_k @ y - apply(m_k, y)).max() < 1e-14

    @pytest.mark.parametrize("use_cd", [False, True])
    def test_ramped_block_is_lift_of_system(self, monkeypatch, use_cd):
        system = cnot_system(CnotParams(), 6.0, use_cd=use_cd)
        captured = {}

        def capture(generators, *args):
            captured["generators"] = generators
            return _kernels.STATUS_OK, None, 0.0, {}

        monkeypatch.setattr(_kernels, "dop853", capture)
        args = _ramped_args(system, 6.0, True, 0.1, liouvillian=True)
        _kernels.evolve_ramped(*args)
        ts = -0.2 + 1.1 * _kernels.C_STAGE
        block = captured["generators"](ts)
        stack = np.stack([-1j * system(t) for t in ts])
        lifted = _kernels.liouvillian(stack, args[-1])
        # off the diagonal an entry is one entry of M: bit for bit what a
        # callable of the same Hamiltonian builds
        off = ~np.eye(16, dtype=bool)
        assert np.array_equal(block[:, off], lifted[:, off])
        # on it the ramped lift adds exact differences of the terms, where
        # the callable's M_aa - M_cc rounds: measured 2 eps on entries up
        # to 5, bounded at twice that
        assert np.abs(block - lifted).max() <= 4 * _EPS

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("use_cd", [False, True])
    def test_sector_block_diagonal_is_exact(self, monkeypatch, n, use_cd):
        # the sector's h0 has equal diagonal entries, so their lift cancels
        # exactly: a stage diagonal is the dissipator plus
        # -i J(t) (hz_aa - hz_cc), each exact
        system, rho0, alpha = _gate_cell(CnotParams(), 6.0, use_cd, n,
                                         alpha=0.1)
        sub, idx = dynamics._invariant_sector(system, rho0.any(axis=0))
        assert idx.size == 2
        d = np.real(np.diag(sub.hz))
        dissipator = dephasing_dissipator(d, alpha)
        args = (sub, np.dot, np.array([sub.t_start, sub.t_end]), rho0.ravel(),
                1e-10, 1e-12, 6e-3, _kernels.trace_drift, _kernels.symmetrize,
                dissipator)
        generators = _captured_generators(monkeypatch, _kernels.evolve_ramped,
                                          args)
        hz_diff = np.subtract.outer(d, d).ravel()
        for t, h in [(sub.t_start, 0.37), (-0.2, 1.1), (2.5, 0.05)]:
            ts = t + h * _kernels.C_STAGE
            diagonal = np.diagonal(generators(ts), axis1=1, axis2=2)
            assert np.array_equal(diagonal.real,
                                  np.broadcast_to(dissipator, diagonal.shape))
            assert np.array_equal(diagonal.imag,
                                  -(sub.drive_value(ts)[:, None] * hz_diff))

    @pytest.mark.parametrize("n,commutator", [(2, False), (3, True)])
    def test_form_follows_dimension(self, monkeypatch, n, commutator):
        built = []
        original = _kernels.lindblad_apply

        def spy(d, alpha):
            built.append(d.shape[0])
            return original(d, alpha)

        monkeypatch.setattr(_kernels, "lindblad_apply", spy)
        system = nqubit_system(n, CnotParams(), 2.0, use_cd=True)
        psi0 = random_state(np.random.default_rng(3), system.dim)
        traj = lindblad_evolve(system, np.outer(psi0, psi0.conj()),
                               NoiseModel(alpha=0.1), EvolutionConfig(tau=2.0))
        assert traj.stats["accepted"] > 0
        assert built == ([8] if commutator else [])


def _constant_block(m0, ts, out=None):
    """The generator ``m0`` at every time of ``ts``, written into ``out``
    when given, as a generator source does."""
    if out is None:
        out = np.empty(ts.shape + m0.shape, dtype=np.complex128)
    out[...] = m0
    return out


def _captured_generators(monkeypatch, engine, args):
    """The ``generators`` that ``engine`` hands to ``dop853``."""
    captured = {}

    def capture(generators, *rest):
        captured["generators"] = generators
        return _kernels.STATUS_OK, None, 0.0, {}

    monkeypatch.setattr(_kernels, "dop853", capture)
    engine(*args)
    return captured["generators"]


class TestStepperInterface:
    """``dop853`` builds the generators of a step's stage times in one call."""

    @pytest.mark.parametrize("use_cd", [False, True])
    @pytest.mark.parametrize("liouvillian", [False, True],
                             ids=["schrodinger", "liouvillian"])
    @pytest.mark.parametrize("source", ["ramped", "callable"])
    def test_out_holds_the_returned_bytes(self, monkeypatch, source,
                                          liouvillian, use_cd):
        system = cnot_system(CnotParams(), 6.0, use_cd=use_cd)
        args = list(_ramped_args(system, 6.0, liouvillian, 0.1, liouvillian))
        engine = _kernels.evolve_ramped
        if source == "callable":
            args[0], engine = (lambda t: system(t)), dynamics._integrate_callable
        generators = _captured_generators(monkeypatch, engine, args)
        dim = system.dim ** 2 if liouvillian else system.dim
        assert generators(np.array([system.t_start])).shape == (1, dim, dim)
        out = np.full((11, dim, dim), np.nan, dtype=np.complex128)
        # the second call writes over the first one's operators
        for t, h in [(-0.2, 1.1), (2.5, 0.05)]:
            ts = t + h * _kernels.C_STAGE
            expected = generators(ts)
            assert generators(ts, out) is out
            assert out.tobytes() == expected.tobytes()

    def test_stage_operators_are_one_block(self, rng):
        m0 = -1j * random_hermitian(rng, 2)
        outs, received = [], []

        def generators(ts, out=None):
            outs.append(out)
            return _constant_block(m0, ts, out)

        def apply(m, y, out):
            received.append(m)
            return np.dot(m, y, out)

        # a first step of 3 is far too long, so rejected steps count too
        status, _, _, stats = _kernels.dop853(
            generators, apply, np.array([0.0, 3.0, 7.0]), random_state(rng, 2),
            1e-10, 1e-12, 5.0, _kernels.norm_drift)
        assert status == _kernels.STATUS_OK and stats["rejected"] > 0
        steps = stats["accepted"] + stats["rejected"]
        # the start-time call sizes the block that every step then fills
        block = outs[1]
        assert outs[0] is None and block.shape == (11, 2, 2)
        assert len(outs) == 1 + steps
        assert all(out is block for out in outs[1:])
        assert len(received) == stats["rhs_evals"]
        assert all(np.shares_memory(m, block) for m in received[1:])

    def test_generators_called_once_per_step(self, rng):
        m0 = -1j * random_hermitian(rng, 2)
        sizes = []

        def generators(ts, out=None):
            sizes.append(ts.shape[0])
            return _constant_block(m0, ts, out)

        psi0 = random_state(rng, 2)
        # a first step of 3 is far too long, so rejected steps count too
        status, states, _, stats = _kernels.dop853(
            generators, np.dot, np.array([0.0, 3.0, 7.0]), psi0, 1e-10, 1e-12,
            5.0, _kernels.norm_drift)
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

        def run(h_of_t):
            if lindblad:
                return lindblad_evolve(h_of_t, np.outer(psi0, psi0.conj()),
                                       NoiseModel(alpha=0.1), cfg)
            return schrodinger_evolve(h_of_t, psi0, cfg)

        callable_run = run(lambda t: system(t))
        first = callable_run.stats
        assert set(first) == self._KEYS
        assert first == run(lambda t: system(t)).stats
        assert 0.0 < first["h_min"] <= first["h_max"] <= 5.0
        # the ramped path takes the same steps
        ramped = run(system)
        counts = ("accepted", "rejected", "rhs_evals")
        assert [ramped.stats[k] for k in counts] == [first[k] for k in counts]
        if not lindblad:
            assert ramped.stats == first
        # its Liouvillian diagonal rounds differently (TestLiouvillian):
        # measured h_min 5.0e-8 and h_max 9.4e-9 relative, states 1.6e-15;
        # bounded at 2x and 3x those
        for key in ("h_min", "h_max"):
            assert ramped.stats[key] == pytest.approx(first[key], rel=1e-7)
        assert np.abs(ramped.states - callable_run.states).max() < 5e-15

    def test_step_extremes_are_of_accepted_steps(self, rng):
        m0 = -1j * random_hermitian(rng, 2)
        last = {}
        ends = [0.0]

        def generators(ts, out=None):
            last["end"] = float(ts[-1])
            return _constant_block(m0, ts, out)

        def drift_of(y):
            # called once per accepted step, after its generators
            ends.append(last["end"])
            return _kernels.norm_drift(y)

        # a first step of 3 is far too long and is rejected
        _, _, _, stats = _kernels.dop853(
            generators, np.dot, np.array([0.0, 3.0, 7.0]), random_state(rng, 2),
            1e-10, 1e-12, 5.0, drift_of)
        assert stats["rejected"] > 0
        steps = np.diff(ends)
        assert len(steps) == stats["accepted"]
        assert stats["h_min"] == pytest.approx(steps.min(), rel=1e-12)
        assert stats["h_max"] == pytest.approx(steps.max(), rel=1e-12)


class TestPinnedSteps:
    """Exact step counts of sweep cells at the default tolerances: a change
    that moves them changes the steps, not only their cost."""

    @pytest.mark.parametrize("tau,steps", [(1.0, (19, 0)), (20.0, (217, 0)),
                                           (200.0, (2160, 1))])
    def test_sweep_tau_cell(self, tau, steps):
        params = CnotParams()
        system = nqubit_system(2, params, tau)
        psi0 = _initial_vector(system, 2, params)
        stats = schrodinger_evolve(system, psi0, EvolutionConfig(tau=tau)).stats
        assert (stats["accepted"], stats["rejected"]) == steps

    def test_cd_lindblad_cell(self):
        params = CnotParams()
        system = cnot_system(params, 200.0, use_cd=True)
        psi0 = _initial_vector(system, 2, params)
        stats = lindblad_evolve(system, np.outer(psi0, psi0.conj()),
                                NoiseModel.from_gap_units(0.15, params.g),
                                EvolutionConfig(tau=200.0)).stats
        assert (stats["accepted"], stats["rejected"]) == (784, 28)

    def test_cd_lindblad_cell_fidelity(self):
        params = CnotParams()
        system = cnot_system(params, 200.0, use_cd=True)
        psi0 = _initial_vector(system, 2, params)
        rho = lindblad_evolve(system, np.outer(psi0, psi0.conj()),
                              NoiseModel.from_gap_units(0.15, params.g),
                              EvolutionConfig(tau=200.0)).final_state
        assert abs(fidelity_mixed(rho, _target_state(2))
                   - 0.500076909642514) < 1e-14

    def test_optimal_tau_cell_fidelity(self):
        params = CnotParams()
        alpha = NoiseModel.from_gap_units(0.04, params.g).alpha
        fidelity = _noise_cell(params, alpha, 30.0, False, None)
        assert abs(fidelity - 0.7997376672936184) < 1e-14


class TestStepperBuffers:
    """The stepper works in one state-and-stage block; nothing it returns or
    was given may share memory with it."""

    def test_y0_kept_and_states_copied(self, rng):
        m0 = -1j * random_hermitian(rng, 2)
        psi0 = random_state(rng, 2)
        y0 = psi0.copy()
        seen = []

        def apply(m, y, out):
            seen.extend([y, out])
            return np.dot(m, y, out)

        def drift_of(y):
            seen.append(y)
            return _kernels.norm_drift(y)

        # a first step of 3 is far too long, so rejected steps occur too
        status, states, _, stats = _kernels.dop853(
            lambda ts, out=None: _constant_block(m0, ts, out), apply,
            np.array([0.0, 3.0, 7.0]), y0, 1e-10, 1e-12, 5.0, drift_of)
        assert status == _kernels.STATUS_OK and stats["rejected"] > 0
        assert np.array_equal(y0, psi0)
        assert np.array_equal(states[0], psi0)
        kept = states.copy()
        for buffer in seen:
            assert not np.shares_memory(buffer, states)
            assert not np.shares_memory(buffer, y0)
            buffer[...] = np.nan
        assert np.array_equal(states, kept)
        # three distinct samples, each the exact evolution
        w, v = np.linalg.eigh(1j * m0)
        for t, state in zip([0.0, 3.0, 7.0], states):
            exact = v @ (np.exp(-1j * w * t) * (v.conj().T @ psi0))
            assert np.abs(state - exact).max() < 1e-9

    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_lindblad_apply_writes_its_result(self, rng, dim, alpha):
        apply = _kernels.lindblad_apply(np.tile([1.0, -1.0], dim // 2), alpha)
        m = -1j * random_hermitian(rng, dim)
        psi = random_state(rng, dim)
        y = np.outer(psi, psi.conj()).ravel()
        out = np.full(dim * dim, np.nan, dtype=np.complex128)
        written = apply(m, y, out)
        assert np.array_equal(out, apply(m, y))
        assert np.shares_memory(written, out)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_symmetrize_into_out_equals_allocating(self, rng, dim):
        rho = random_hermitian(rng, dim) + 1e-3j * random_hermitian(rng, dim)
        y = rho.ravel()
        kept = y.copy()
        # ``out`` is the middle row of a block, as the state row of the
        # stepper is
        block = np.full((3, dim * dim), np.nan, dtype=np.complex128)
        written = _kernels.symmetrize(y, block[1])
        assert np.shares_memory(written, block[1])
        assert np.array_equal(block[1], _kernels.symmetrize(y))
        assert np.array_equal(block[1], ((rho + rho.conj().T) * 0.5).ravel())
        assert np.array_equal(y, kept)
        assert np.isnan(block[[0, 2]]).all()

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_trace_drift_is_trace_deviation(self, rng, dim):
        rho = random_hermitian(rng, dim)
        assert _kernels.trace_drift(rho.ravel()) == abs(np.trace(rho) - 1.0)


def test_backend_name_is_numpy():
    # manifests record it, and the benchmark refuses any other backend
    assert _kernels.backend_name() == "numpy"


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

    @pytest.mark.parametrize("n", [2, 3])
    def test_blocks_match_loop_and_each_other(self, n, monkeypatch):
        system = nqubit_system(n, CnotParams(), 3.0, use_cd=True)
        dim = system.dim
        default = _kernels._oracle_block_steps(dim)
        # three default blocks, the last one partial
        n_steps = 2 * default + 3
        assert n_steps % 7 and n_steps % default
        psi0 = random_state(np.random.default_rng(3), dim)
        dt = (system.t_end - system.t_start) / n_steps
        noise = np.random.default_rng(17).standard_normal((6, n_steps)) * 2.0
        d = np.real(np.diag(system.hz))
        callable_stack = dynamics._stacked(lambda t: system(t))
        runs = []
        for steps in (None, 1, 7):
            if steps is not None:
                # bytes of exactly ``steps`` steps of stage Hamiltonians
                monkeypatch.setattr(_kernels, "_ORACLE_BLOCK_BYTES",
                                    steps * 3 * 16 * dim * dim)
                assert _kernels._oracle_block_steps(dim) == steps
            for h_stack in (system, callable_stack):
                runs.append(_kernels.dephasing_average(
                    h_stack, d, system.t_start, dt, noise=noise, psi0=psi0))
        for rho in runs[1:]:
            assert rho.tobytes() == runs[0].tobytes()
        loop = _rk4_loop(system, system.hz, system.t_start, dt, noise, psi0)
        assert np.abs(runs[0] - loop).max() < 1e-12

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


class TestDephasingStepPolynomial:
    """The step polynomial at the oracle's largest step, and its memory."""

    @pytest.mark.parametrize("case", ["lz_callable", "cnot_cd", "n3_cd"])
    def test_matches_loop_at_the_guard_edge(self, case):
        # alpha * dt = 0.099, the largest the oracle accepts, makes |eta| dt
        # largest: the high powers of eta weigh most
        params = CnotParams()
        system = {"lz_callable": lz_system(params, 3.0),
                  "cnot_cd": cnot_system(params, 3.0, use_cd=True),
                  "n3_cd": nqubit_system(3, params, 3.0, use_cd=True)}[case]
        n_steps = 150
        dt = (system.t_end - system.t_start) / n_steps
        alpha = 0.099 / dt
        noise = np.random.default_rng(23).standard_normal((30, n_steps))
        noise *= np.sqrt(alpha / dt)
        assert np.abs(noise).max() * dt > 1.0
        psi0 = random_state(np.random.default_rng(5), system.dim)
        h_stack = system
        if case == "lz_callable":
            h_stack = dynamics._stacked(lambda t: system(t))
        rho = _kernels.dephasing_average(
            h_stack, np.real(np.diag(system.hz)), system.t_start, dt,
            noise=noise, psi0=psi0)
        loop = _rk4_loop(system, system.hz, system.t_start, dt, noise, psi0)
        assert np.abs(rho - loop).max() < 1e-12

    @pytest.mark.parametrize("case", ["criterion_10a", "oracle_check"])
    def test_traced_peak_beyond_noise(self, case):
        # criterion 10a's shape (callable, dim 2, 600 x 500) and perfbench's
        # oracle-check (ramped, dim 4, 100 x 2000): the memory held beyond
        # the noise array stays at two (5, dim, n_samples) state buffers,
        # one block of stage Hamiltonians and its step polynomials
        if case == "criterion_10a":
            h_stack = dynamics._stacked(
                lambda t: np.zeros((2, 2), dtype=complex))
            d, t_start, dt = np.array([1.0, -1.0]), 0.0, 0.004
            psi0 = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2)
            shape, scale = (600, 500), np.sqrt(0.25 / dt)
        else:
            params = CnotParams()
            h_stack = cnot_system(params, 20.0)
            d, t_start, dt = np.real(np.diag(h_stack.hz)), h_stack.t_start, 0.01
            psi0 = analytic_spectrum(params, h_stack.drive_value(t_start)).states[0]
            shape, scale = (100, 2000), 1.0
        noise = np.random.default_rng(0).standard_normal(shape)
        noise *= scale
        tracemalloc.start()
        try:
            _kernels.dephasing_average(h_stack, d, t_start, dt, noise=noise,
                                       psi0=psi0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, f"traced peak {peak / 2**20:.2f} MB"
