import threading
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from cdgate import _kernels, dynamics
from cdgate.dynamics import (EvolutionConfig, NoiseModel, lindblad_evolve,
                             noise_trajectory_oracle, schrodinger_evolve)
from cdgate.errors import StepUnderflowError
from cdgate.experiments import _cell, _gate_cell, _target
from cdgate.model import (CnotParams, RampedGateHamiltonian,
                          analytic_spectrum, build_inverse_engineered,
                          cnot_system, lz_system, nqubit_system)
from cdgate.observables import fidelity_mixed

from conftest import (dephasing_dissipator, random_hermitian,
                      random_state)


_EPS = float(np.finfo(np.float64).eps)
_TINY = float(np.finfo(np.float64).tiny)


def _evolve_ramped_loop(h0, hz, hcd, slope, g, use_cd, alpha, is_density,
                        sample_times, y0, rtol, atol, h_init):
    """Reference: the DOP853 step as first written for numba, one scalar
    tableau coefficient at a time, under the block controller of
    ``dop853`` for a ramped system written out step by step: blocks of
    ``m`` steps, ``m`` starting at 1, set to ``_BLOCK_STEPS`` after a block
    with no rejected step and kept after one with; the steps of one sample
    interval of one length; a block keeping its steps before the first
    that fails; the next step from the failure or from the worst accepted
    error; a density matrix symmetrized at the end of each block and at
    each sample. Returns ``(status, states, drift, accepted, rejected)``,
    ``status`` one of "ok", "underflow" and "budget"."""
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

    def step(t, h, y):
        K = np.zeros((13, n), dtype=np.complex128)
        K[0] = rhs(t, y)
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
        scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
        e5 = E5[0] * K[0]
        e3 = E3[0] * K[0]
        for j in range(1, 12):
            if E5[j] != 0.0:
                e5 = e5 + E5[j] * K[j]
            if E3[j] != 0.0:
                e3 = e3 + E3[j] * K[j]
        err5 = np.sum(np.abs(e5 / scale) ** 2)
        err3 = np.sum(np.abs(e3 / scale) ** 2)
        denom = err5 + 0.01 * err3
        err_norm = abs(h) * err5 / np.sqrt(denom * n) if denom > 0.0 else 0.0
        return y_new, err_norm

    def finish(y):
        if not is_density:
            return y
        rho = y.reshape((dim, dim))
        return ((rho + rho.conj().T) * 0.5).ravel()

    def drift_of(y):
        if is_density:
            return abs(np.trace(y.reshape((dim, dim))) - 1.0)
        return abs(np.sum(np.real(y * np.conj(y))) - 1.0)

    y = y0.copy()
    t = sample_times[0]
    h_abs = h_init
    m, isamp = 1, 1
    drift = 0.0
    accepted = rejected = 0
    status = "ok"

    while isamp < nsamp:
        if sample_times[isamp] <= t:
            out[isamp] = y
            isamp += 1
            continue
        if accepted + rejected >= _kernels._MAX_TOTAL_STEPS:
            status = "budget"
            break
        if h_abs < 16.0 * _EPS * max(abs(t), abs(sample_times[isamp])):
            status = "underflow"
            break
        # the block: (start, length, end, sample reached or None) per step
        size = min(m, _kernels._MAX_TOTAL_STEPS - accepted - rejected)
        plan, start, i = [], t, isamp
        while len(plan) < size and i < nsamp:
            span, room = sample_times[i] - start, size - len(plan)
            if span > h_abs * room:
                plan += [(start + j * h_abs, h_abs, start + (j + 1) * h_abs,
                          None) for j in range(room)]
                break
            k = min(room, int(np.ceil(span / h_abs)))
            for j in range(k):
                end = (sample_times[i] if j == k - 1
                       else start + (j + 1) * (span / k))
                plan.append((start + j * (span / k), span / k, end,
                             i if j == k - 1 else None))
            start = sample_times[i]
            i += 1
        next_h, failed = np.inf, False
        for s0, h, end, reach in plan:
            y_new, err_norm = step(s0, h, y)
            if not err_norm < 1.0:
                rejected += 1
                failed = True
                h_abs = h * max(0.2, 0.9 * err_norm ** (-1.0 / 8.0))
                break
            accepted += 1
            y, t = y_new, end
            drift = max(drift, drift_of(y))
            factor = (10.0 if err_norm == 0.0
                      else min(10.0, 0.9 * err_norm ** (-1.0 / 8.0)))
            next_h = min(next_h, h * factor)
            if reach is not None:
                out[reach] = finish(y)
                isamp = reach + 1
        y = finish(y)
        if not failed:
            h_abs = next_h
            m = _kernels._BLOCK_STEPS
    return status, out, drift, accepted, rejected


def _ramped_args(system, tau, is_density, alpha=0.0):
    """``evolve_ramped`` arguments from a random start: the Schroedinger
    equation, or with ``is_density`` the Lindblad equation whose jump
    operator is ``hz``, given as its dissipator block. The kernels pick the
    Lindblad form from the dimension (``_commutator_form`` forces the
    commutator form); a state of up to ``_MATRIX_MAX_SIZE`` entries under
    ``matvec`` runs in matrix mode."""
    psi0 = random_state(np.random.default_rng(11), system.dim)
    times = np.array([system.t_start, 0.0, system.t_end])
    if is_density:
        d = np.real(np.diag(system.hz))
        return (system, times, np.outer(psi0, psi0.conj()).ravel(), 1e-10,
                1e-12, dephasing_dissipator(d, alpha))
    return (system, times, psi0, 1e-10, 1e-12)


def _commutator_form(monkeypatch):
    """Integrate every density matrix in the commutator form,
    ``lindblad_apply``: no sector dimension is ``_lifted``."""
    monkeypatch.setattr(_kernels, "_LIOUVILLIAN_MAX_DIM", 0)


def _loop_args(args, is_density, alpha):
    """The run of ``_ramped_args`` in the arguments of the scalar loop, with
    the stepper's first step, a thousandth of the span."""
    system, times, y0, rtol, atol = args[:5]
    return (system.h0, system.hz, system.hcd, system.slope, system.g,
            system.use_cd, alpha, is_density, times, y0, rtol, atol,
            (times[-1] - times[0]) * 1e-3)


_SYSTEMS = {
    "cnot": lambda tau: cnot_system(CnotParams(), tau),
    "cnot_cd": lambda tau: cnot_system(CnotParams(), tau, use_cd=True),
    "lz_cd": lambda tau: lz_system(CnotParams(), tau, use_cd=True),
    "n3_cd": lambda tau: nqubit_system(3, CnotParams(), tau, use_cd=True),
}


def _stepper_cases():
    """(name, tau, is_density, alpha, liouvillian): the pure state and the
    commutator form everywhere, the Liouvillian form at the dimensions the
    kernels integrate with it."""
    for tau in (1.0, 8.0, 50.0):
        for name in sorted(_SYSTEMS):
            small = (_SYSTEMS[name](tau).dim
                     <= _kernels._LIOUVILLIAN_MAX_DIM)
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
    def test_matches_scalar_loop(self, monkeypatch, name, tau, is_density,
                                 alpha, liouvillian):
        if not liouvillian:
            _commutator_form(monkeypatch)
        args = _ramped_args(_SYSTEMS[name](tau), tau, is_density, alpha)
        states, drift, stats = _kernels.evolve_ramped(*args)
        ref_status, ref_states, ref_drift, accepted, rejected = \
            _evolve_ramped_loop(*_loop_args(args, is_density, alpha))
        assert ref_status == "ok"
        assert np.abs(states - ref_states).max() < 1e-11
        assert abs(drift - ref_drift) < 1e-11
        # same steps: the saving is in the cost of a step, not their number
        assert (stats["accepted"], stats["rejected"]) == (accepted, rejected)

    def test_step_counts_repeat(self, monkeypatch):
        _commutator_form(monkeypatch)
        args = _ramped_args(_SYSTEMS["cnot_cd"](20.0), 20.0, True, 0.1)
        first = _kernels.evolve_ramped(*args)[2]
        second = _kernels.evolve_ramped(*args)[2]
        assert first == second
        assert first["accepted"] > 0 and first["rejected"] >= 0
        # each block builds the operators of its start and of 11 stage
        # times per step it plans
        computed = first["accepted"] + first["rejected"] + first["discarded"]
        assert first["rhs_evals"] == first["blocks"] + 11 * computed

    def test_step_underflow_raises(self):
        args = list(_ramped_args(_SYSTEMS["cnot"](8.0), 8.0, False))
        # no step meets a tolerance of 1e-60: each is rejected until the
        # step falls below 16 eps |t|
        args[3] = args[4] = 1e-60
        with pytest.raises(StepUnderflowError, match="underflowed"):
            _kernels.evolve_ramped(*args)

    def test_step_budget_raises(self, monkeypatch, rng):
        monkeypatch.setattr(_kernels, "_MAX_TOTAL_STEPS", 5)
        sizes = []
        generators = _constant_generators(-1j * random_hermitian(rng, 2),
                                          sizes)
        with pytest.raises(StepUnderflowError, match="step budget exhausted"):
            _kernels.dop853(generators, np.array([0.0, 7.0]),
                            random_state(rng, 2), 1e-10, 1e-12)
        # blocks of 1, 2 and then the 2 steps the budget has left
        assert sizes == [12, 23, 23]

    def test_no_step_no_extremes(self, rng):
        # a single sample takes no step: both extremes read 0
        states, drift, stats = _kernels.dop853(
            _constant_generators(-1j * random_hermitian(rng, 2)),
            np.array([1.5]), random_state(rng, 2), 1e-10, 1e-12)
        assert states.shape == (1, 2) and drift == 0.0
        assert stats == {"accepted": 0, "rejected": 0, "discarded": 0,
                         "blocks": 0, "rhs_evals": 0, "h_min": 0.0,
                         "h_max": 0.0}


class TestLiouvillian:
    """The vectorized Lindblad form and the dimensions that use it."""

    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_matches_commutator_form(self, rng, dim, alpha):
        m = np.stack([-1j * random_hermitian(rng, dim) for _ in range(3)])
        dissipator = dephasing_dissipator(np.tile([1.0, -1.0], dim // 2),
                                          alpha)
        psi = random_state(rng, dim)
        y = np.outer(psi, psi.conj()).ravel()
        superops = _kernels.liouvillian(m, dissipator.ravel())
        assert superops.shape == (3, dim * dim, dim * dim)
        apply = _kernels.lindblad_apply(dissipator)
        out = np.empty_like(y)
        for m_k, l_k in zip(m, superops):
            apply(m_k, y, out)
            assert np.abs(l_k @ y - out).max() < 1e-14

    @pytest.mark.parametrize("use_cd", [False, True])
    def test_ramped_block_is_lift_of_system(self, monkeypatch, use_cd):
        system = cnot_system(CnotParams(), 6.0, use_cd=use_cd)
        args = _ramped_args(system, 6.0, True, 0.1)
        generators = _captured_generators(monkeypatch, _kernels.evolve_ramped,
                                          args)
        ts = -0.2 + 1.1 * _kernels.C_STAGE
        block = generators(ts)
        stack = np.stack([-1j * system(t) for t in ts])
        lifted = _kernels.liouvillian(stack, args[-1].ravel())
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
        sub, idx = dynamics._invariant_sector(system, rho0.any(axis=0),
                                              (0.0, 1.0))
        assert idx.size == 2
        d = np.real(np.diag(sub.hz))
        block = dephasing_dissipator(d, alpha)
        dissipator = block.ravel()
        args = (sub, np.array([sub.t_start, sub.t_end]),
                rho0[np.ix_(idx, idx)].ravel(), 1e-10, 1e-12, block)
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

        def spy(dissipator):
            built.append(dissipator.shape)
            return original(dissipator)

        monkeypatch.setattr(_kernels, "lindblad_apply", spy)
        system = nqubit_system(n, CnotParams(), 2.0, use_cd=True)
        psi0 = random_state(np.random.default_rng(3), system.dim)
        traj = lindblad_evolve(system, np.outer(psi0, psi0.conj()),
                               NoiseModel(alpha=0.1), EvolutionConfig(tau=2.0))
        assert traj.stats["accepted"] > 0
        assert built == ([(8, 8)] if commutator else [])


def _constant_generators(m0, sizes=None, on=-np.inf):
    """A generator source of ``m0``, switched on at time ``on``: each call
    writes it (0 before ``on``) at every time of ``ts`` into the first rows
    of the source's one block and returns them, and appends the number of
    times to ``sizes`` when given. The stepper's first step, a thousandth
    of the span, grows tenfold a step, and the steps that meet the switch
    are rejected."""
    block = np.empty((11 * _kernels._BLOCK_STEPS + 1,) + m0.shape,
                     dtype=np.complex128)

    def generators(ts):
        if sizes is not None:
            sizes.append(ts.shape[0])
        out = block[:ts.shape[0]]
        np.multiply(m0, (ts >= on)[:, None, None], out=out)
        return out

    return generators


def _switched_exact(m0, psi0, t, on):
    """The exact state at ``t`` under ``_constant_generators(m0, on=on)``."""
    w, v = np.linalg.eigh(1j * m0)
    return v @ (np.exp(-1j * w * max(t - on, 0.0)) * (v.conj().T @ psi0))


def _captured_generators(monkeypatch, engine, args):
    """The ``generators`` that ``engine`` hands to ``dop853``."""
    captured = {}

    def capture(generators, *rest):
        captured["generators"] = generators
        return None, 0.0, {}

    monkeypatch.setattr(_kernels, "dop853", capture)
    engine(*args)
    return captured["generators"]


class TestStepperInterface:
    """``dop853`` builds the stage operators of a block in one call."""

    @pytest.mark.parametrize("use_cd", [False, True])
    @pytest.mark.parametrize("liouvillian", [False, True],
                             ids=["schrodinger", "liouvillian"])
    @pytest.mark.parametrize("source", ["ramped", "callable"])
    def test_out_holds_the_returned_bytes(self, monkeypatch, source,
                                          liouvillian, use_cd):
        system = cnot_system(CnotParams(), 6.0, use_cd=use_cd)
        args = list(_ramped_args(system, 6.0, liouvillian, 0.1))
        engine = _kernels.evolve_ramped
        if source == "callable":
            args[0], engine = (lambda t: system(t)), dynamics._integrate_callable
        generators = _captured_generators(monkeypatch, engine, args)
        dim = system.dim ** 2 if liouvillian else system.dim
        first = generators(np.full(12, system.t_start))
        assert first.shape == (12, dim, dim)
        # a call returns the operators at its times, one per time, with
        # the bytes a fresh source returns; the ramped source returns the
        # first rows of its one block
        for t, h, steps in [(-0.2, 1.1, 1), (2.5, 0.05, 16)]:
            ts = np.concatenate([[t], t + h * np.add.outer(
                np.arange(steps), _kernels.C_STAGE).ravel()])
            fresh = _captured_generators(monkeypatch, engine, args)
            block = generators(ts)
            assert block.shape == (11 * steps + 1, dim, dim)
            assert block.tobytes() == fresh(ts).tobytes()
            if source == "ramped":
                assert np.shares_memory(block, first)

    def test_stage_operators_are_one_block(self, rng, monkeypatch):
        m0 = -1j * random_hermitian(rng, 2)
        blocks, received = [], []
        source = _constant_generators(m0, on=1.0)

        def generators(ts):
            blocks.append(source(ts))
            return blocks[-1]

        def apply(m, y, out):
            received.append(m)
            return np.dot(m, y, out)

        monkeypatch.setattr(_kernels, "_MATRIX_MAX_SIZE", 0)
        monkeypatch.setattr(_kernels, "matvec", apply)
        states, _, stats = _kernels.dop853(
            generators, np.array([0.0, 3.0, 7.0]), random_state(rng, 2),
            1e-10, 1e-12)
        assert stats["rejected"] > 0  # their stages use the block too
        assert len(blocks) == stats["blocks"]
        # every call returns the first rows of the source's one block
        assert all(block.base is blocks[0].base for block in blocks)
        # a state longer than ``_MATRIX_MAX_SIZE`` runs in stage mode: each
        # block its start derivative, then 11 stages and the FSAL
        # derivative per step, and no step after its first failure
        steps = stats["accepted"] + stats["rejected"]
        assert len(received) == stats["blocks"] + 12 * steps
        assert all(np.shares_memory(m, blocks[0].base) for m in received)

    @pytest.mark.parametrize("max_size", [_kernels._MATRIX_MAX_SIZE, 0],
                             ids=["matrix", "stage"])
    def test_generators_called_once_per_block(self, rng, monkeypatch,
                                              max_size):
        monkeypatch.setattr(_kernels, "_MATRIX_MAX_SIZE", max_size)
        m0 = -1j * random_hermitian(rng, 2)
        calls = []
        source = _constant_generators(m0, on=1.0)

        def generators(ts):
            calls.append(ts.copy())
            return source(ts)

        psi0 = random_state(rng, 2)
        states, _, stats = _kernels.dop853(
            generators, np.array([0.0, 3.0, 7.0]), psi0, 1e-10, 1e-12)
        assert stats["accepted"] > 0 and stats["rejected"] > 0
        assert len(calls) == stats["blocks"]
        computed = stats["accepted"] + stats["rejected"] + stats["discarded"]
        assert sum(ts.size for ts in calls) == stats["rhs_evals"]
        assert stats["rhs_evals"] == stats["blocks"] + 11 * computed
        # the block's start, then per step its eleven distinct stage times,
        # the last also the step's end and the next step's start; the
        # first block is the one first step, a thousandth of the span
        assert np.array_equal(calls[0], 7.0 * 1e-3 * _kernels.DP_C)
        for ts in calls:
            ends = ts[::11]
            assert np.all(np.diff(ends) > 0.0)
            h = np.diff(ends)
            stages = ends[:-1, None] + h[:, None] * _kernels.C_STAGE
            assert np.allclose(ts[1:].reshape(-1, 11), stages, rtol=0,
                               atol=1e-14)
        # measured 5.3e-10 from the exact state
        exact = _switched_exact(m0, psi0, 7.0, 1.0)
        assert np.abs(states[-1] - exact).max() < 1e-9

    @pytest.mark.parametrize("use_cd", [False, True])
    @pytest.mark.parametrize("build", [
        lambda use_cd: cnot_system(CnotParams(), 6.0, use_cd=use_cd),
        lambda use_cd: nqubit_system(3, CnotParams(), 6.0, use_cd=use_cd),
    ], ids=["cnot", "n3"])
    def test_ramped_block_matches_system(self, monkeypatch, build, use_cd):
        system = build(use_cd)
        generators = _captured_generators(
            monkeypatch, _kernels.evolve_ramped,
            _ramped_args(system, 6.0, False))
        for t, h in [(system.t_start, 0.37), (-0.2, 1.1), (2.5, 0.05)]:
            ts = t + h * _kernels.C_STAGE
            block = generators(ts)
            assert block.shape == (11, system.dim, system.dim)
            for t_k, m in zip(ts, block):
                assert np.abs(m - (-1j) * system(t_k)).max() < 1e-14
        assert _kernels.C_STAGE[-1] == 1.0
        assert np.array_equal(_kernels.C_STAGE, _kernels.DP_C[1:])

    @pytest.mark.parametrize("width", [None, 2, 64])
    def test_width_enters_only_the_error_norm(self, rng, width):
        # the norm divides by sqrt(width): a wider norm accepts longer
        # steps, and a width equal to the state's length changes nothing
        m0 = -1j * random_hermitian(rng, 2)
        psi0 = random_state(rng, 2)
        times = np.array([0.0, 7.0])
        run = _kernels.dop853(_constant_generators(m0), times, psi0, 1e-10,
                              1e-12, width=width)
        narrow = _kernels.dop853(_constant_generators(m0), times, psi0, 1e-10,
                                 1e-12)
        assert run[0].shape == (2, 2)
        if width == 64:
            assert run[2]["accepted"] < narrow[2]["accepted"]
        else:
            assert run[2] == narrow[2]
            assert run[0].tobytes() == narrow[0].tobytes()


class TestStepTelemetry:
    _KEYS = {"accepted", "rejected", "discarded", "blocks", "rhs_evals",
             "h_min", "h_max"}

    @pytest.mark.parametrize("is_density,alpha", [(False, 0.0), (True, 0.1)])
    def test_step_extremes(self, monkeypatch, is_density, alpha):
        _commutator_form(monkeypatch)
        system = _SYSTEMS["cnot_cd"](20.0)
        args = _ramped_args(system, 20.0, is_density, alpha)
        first = _kernels.evolve_ramped(*args)[2]
        second = _kernels.evolve_ramped(*args)[2]
        assert set(first) == self._KEYS
        assert first == second
        assert 0.0 < first["h_min"] <= first["h_max"]
        assert first["h_max"] <= system.t_end - system.t_start

    @pytest.mark.parametrize("lindblad,callable_steps,ramped_steps", [
        (False, (76, 3, 12), (79, 4, 9)), (True, (124, 5, 18), (125, 7, 14))],
        ids=["schrodinger", "lindblad"])
    def test_callable_step_extremes(self, monkeypatch, lindblad,
                                    callable_steps, ramped_steps):
        system = _SYSTEMS["cnot"](5.0)
        psi0 = random_state(np.random.default_rng(5), system.dim)
        cfg = EvolutionConfig(tau=5.0, sample_count=3)
        pinned = ("accepted", "rejected", "blocks")

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
        # each path under its own block rule: a callable halves and doubles
        # its blocks, a ramped system plans full blocks
        assert tuple(first[k] for k in pinned) == callable_steps
        ramped = run(system)
        assert tuple(ramped.stats[k] for k in pinned) == ramped_steps
        # other steps, each within the tolerances: measured 3.7e-12 and
        # 4.4e-12, bounded at 1e-11
        assert np.abs(ramped.states - callable_run.states).max() < 1e-11
        # under the callable's rule the ramped path takes its steps
        dop853 = _kernels.dop853

        def halving(generators, *args):
            generators.full_blocks = False
            return dop853(generators, *args)

        monkeypatch.setattr(_kernels, "dop853", halving)
        ramped = run(system)
        counts = ("accepted", "rejected", "rhs_evals")
        assert [ramped.stats[k] for k in counts] == [first[k] for k in counts]
        # its stage matrices round differently: matrix mode builds them
        # from coefficient rows against the terms in coordinates, and its
        # Liouvillian diagonal is the lift's (TestLiouvillian); measured
        # h_max 2.0e-8 relative and states 1.4e-15 apart (schrodinger),
        # 1.4e-9 and 6.1e-16 (lindblad), h_min equal
        for key in ("h_min", "h_max"):
            assert ramped.stats[key] == pytest.approx(first[key], rel=1e-7)
        assert np.abs(ramped.states - callable_run.states).max() < 5e-15

    def test_step_extremes_are_of_accepted_steps(self, rng, monkeypatch):
        source = _constant_generators(-1j * random_hermitian(rng, 2), on=1.0)
        psi0 = random_state(rng, 2)
        norm_drift = _kernels.norm_drift
        # blocks of 3 or more steps in matrix mode, then all in stage mode
        for size in (_kernels._MATRIX_MAX_SIZE, 0):
            monkeypatch.setattr(_kernels, "_MATRIX_MAX_SIZE", size)
            calls, steps = [], []

            def generators(ts):
                calls.append(ts[::11].copy())  # the block's step ends
                return source(ts)

            def drift_of(states):
                # once per block with an accepted step, after its
                # generators, with its accepted states, one per row
                ends = calls[-1][:states.shape[0] + 1]
                steps.extend(np.diff(ends))
                return norm_drift(states)

            monkeypatch.setattr(_kernels, "norm_drift", drift_of)
            _, _, stats = _kernels.dop853(
                generators, np.array([0.0, 3.0, 7.0]), psi0, 1e-10, 1e-12)
            assert stats["rejected"] > 0
            assert len(steps) == stats["accepted"]
            assert stats["h_min"] == pytest.approx(min(steps), rel=1e-12)
            assert stats["h_max"] == pytest.approx(max(steps), rel=1e-12)


    def test_block_counts_on_a_cell_with_rejections(self, monkeypatch):
        # the tau-20 sweep-tau cell: blocks fail after accepting steps, and
        # the steps planned after a failure are discarded; stage mode takes
        # the blocks of matrix mode
        params = CnotParams()
        system, psi0, _ = _gate_cell(params, 20.0, False)
        counts = ("accepted", "rejected", "discarded", "blocks", "rhs_evals")
        for size in (_kernels._MATRIX_MAX_SIZE, 0):
            monkeypatch.setattr(_kernels, "_MATRIX_MAX_SIZE", size)
            stats = schrodinger_evolve(system, psi0,
                                       EvolutionConfig(tau=20.0)).stats
            assert [stats[k] for k in counts] == [193, 10, 83, 19, 3165]
            assert stats["rhs_evals"] == 19 + 11 * (193 + 10 + 83)


class TestErrorEstimates:
    """An error estimate of exactly zero grows the step tenfold; one that is
    not finite rejects the step until the step underflows. Neither warns."""

    @pytest.mark.parametrize("max_size", [_kernels._MATRIX_MAX_SIZE, 0],
                             ids=["matrix", "stage"])
    def test_all_zero_error_block_grows_tenfold(self, rng, monkeypatch,
                                                max_size):
        # under M = 0 both error estimates of every step are exactly 0
        monkeypatch.setattr(_kernels, "_MATRIX_MAX_SIZE", max_size)
        ends = []
        source = _constant_generators(np.zeros((2, 2), dtype=np.complex128))

        def generators(ts):
            ends.append(ts[::11].copy())
            return source(ts)

        psi0 = random_state(rng, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            states, drift, stats = _kernels.dop853(
                generators, np.array([0.0, 100.0]), psi0, 1e-10, 1e-12)
        assert stats["rejected"] == 0
        assert np.array_equal(states[-1], psi0)
        # blocks of 1, 2 and 4 steps, each step 10x the last block's; the
        # fourth block reaches t = 100 in one step of what is left
        lengths = [np.diff(block) for block in ends]
        assert [len(h) for h in lengths] == [1, 2, 4, 1]
        for h, expected in zip(lengths, [0.1, 1.0, 10.0]):
            assert h == pytest.approx(expected, rel=1e-12)
        assert ends[-1][-1] == 100.0

    @pytest.mark.parametrize("max_size", [_kernels._MATRIX_MAX_SIZE, 0],
                             ids=["matrix", "stage"])
    def test_nan_operator_ends_in_underflow(self, rng, monkeypatch,
                                            max_size):
        # NaN from t = 3 on, which a block of at least 3 steps meets: in
        # matrix mode when the state is short enough, the shorter blocks
        # after its failure in stage mode
        monkeypatch.setattr(_kernels, "_MATRIX_MAX_SIZE", max_size)
        source = _constant_generators(-1j * random_hermitian(rng, 2))
        blocks = []

        def generators(ts):
            blocks.append((ts.shape[0] - 1) // 11 >= 3 and ts[-1] >= 3.0)
            block = source(ts)
            block[ts >= 3.0] = np.nan
            return block

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(StepUnderflowError, match="underflowed"):
                _kernels.dop853(generators, np.array([0.0, 7.0]),
                                random_state(rng, 2), 1e-10, 1e-12)
        assert any(blocks)


class TestBlockRule:
    """A source whose block costs the same at any length (``full_blocks``,
    set by ``evolve_ramped``) plans ``_BLOCK_STEPS`` steps after a clean
    block and keeps its block after a rejected step; any other source
    doubles and halves it (``TestErrorEstimates``; each path's own steps
    in ``TestStepTelemetry::test_callable_step_extremes``)."""

    @pytest.mark.parametrize("max_size", [_kernels._MATRIX_MAX_SIZE, 0],
                             ids=["matrix", "stage"])
    def test_full_block_after_a_clean_block(self, rng, monkeypatch,
                                            max_size):
        monkeypatch.setattr(_kernels, "_MATRIX_MAX_SIZE", max_size)
        sizes = []
        generators = _constant_generators(np.zeros((2, 2), dtype=complex),
                                          sizes)
        generators.full_blocks = True
        stats = _kernels.dop853(generators, np.array([0.0, 100.0]),
                                random_state(rng, 2), 1e-10, 1e-12)[2]
        # one step of 0.1, 16 of 1.0, then the 9 equal steps to t = 100
        assert [(k - 1) // 11 for k in sizes] == [1, 16, 9]
        assert (stats["accepted"], stats["rejected"]) == (26, 0)
        assert stats["h_max"] == pytest.approx(83.9 / 9, rel=1e-12)

    def test_block_kept_after_a_rejected_step(self, rng):
        sizes = []
        generators = _constant_generators(-1j * random_hermitian(rng, 2),
                                          sizes, on=1.0)
        generators.full_blocks = True
        stats = _kernels.dop853(generators, np.array([0.0, 7.0]),
                                random_state(rng, 2), 1e-10, 1e-12)[2]
        # the switch rejects steps, yet every block but the first and the
        # one that reaches t = 7 plans 16 steps
        assert stats["rejected"] > 0
        steps = [(k - 1) // 11 for k in sizes]
        assert steps[0] == 1 and steps[-1] <= _kernels._BLOCK_STEPS
        assert set(steps[1:-1]) == {_kernels._BLOCK_STEPS}

    def test_repeated_sample_time_within_a_block(self, rng):
        # a block that reaches t = 30 goes on past the repeated sample
        # time 30 without a step: both rows hold the state at 30, and the
        # run takes the steps of the run without the repeat
        m0 = -1j * random_hermitian(rng, 2)
        psi0 = random_state(rng, 2)
        ends = []
        runs = []
        for times in ([0.0, 30.0, 100.0], [0.0, 30.0, 30.0, 100.0]):
            source = _constant_generators(m0)

            def generators(ts):
                ends.append(ts[::11].copy())
                return source(ts)

            generators.full_blocks = True
            runs.append(_kernels.dop853(generators, np.array(times), psi0,
                                        1e-10, 1e-12))
        (single, _, stats), (double, _, repeated) = runs
        assert repeated == stats
        assert any(30.0 in block[1:-1] for block in ends)
        assert double[1].tobytes() == double[2].tobytes() == single[1].tobytes()
        assert double[3].tobytes() == single[2].tobytes()


class TestOneRunPlan:
    """A block that reaches no sample time is one run of equal steps, whose
    stage times the planner writes in one pass from a grid of whole-step
    ends (``_block_planner``)."""

    def test_grid_plan_is_the_run(self):
        rng = np.random.default_rng(41)
        for _ in range(300):
            t = rng.uniform(-100.0, 100.0) * 10.0 ** rng.integers(-3, 3)
            h = 10.0 ** rng.uniform(-6.0, 1.0)
            steps = int(rng.integers(1, _kernels._BLOCK_STEPS + 1))
            plan = _kernels._block_planner([t, t + 2.0 * h * steps])
            ts, hs, ends, runs, reached = plan(t, h, steps, 1)
            assert runs == [(steps, h)] and reached == []
            assert hs.tolist() == [h] * steps
            # the ends of a run, step j at start + j length (the scalar
            # sum), bit for bit, and each step's FSAL time its end
            run = [t] + [t + j * h for j in range(1, steps + 1)]
            assert ends.tolist() == run
            assert ts[11::11].tolist() == run[1:]
            # interior stage times: the general planner's end + c_s h,
            # rounded otherwise; each is within about 2 ulps of the exact
            # sum at the block's largest time, so they differ by at most 4
            # (measured 3 over 20,000 draws; a time near 0 has a far
            # smaller ulp of its own)
            interior = ts[1:].reshape(steps, 11)[:, :-1]
            general = ends[:-1, None] + h * _kernels.C_STAGE[:-1]
            ulp = np.spacing(np.abs(ts).max())
            assert np.abs(interior - general).max() <= 4.0 * ulp


class TestModesAgree:
    """Matrix and stage mode plan the same blocks and accept a step by the
    same rule, but form its error estimates by different products, which
    round differently: a norm within rounding of 1 passes in one mode and
    fails in the other. A seeded search over 300 random pure dimension-2
    CD systems (this draw, at seeds 0 to 299) found 43 whose step counts
    differ in the two modes; this is seed 162, the cheapest."""

    @staticmethod
    def _draw(seed):
        rng = np.random.default_rng(seed)
        h0, hz, hcd = (random_hermitian(rng, 2) for _ in range(3))
        tau = rng.uniform(5.0, 40.0)
        system = RampedGateHamiltonian(
            h0=h0, hz=hz, hcd=hcd, slope=rng.uniform(0.5, 4.0),
            g=rng.uniform(0.2, 1.0), use_cd=True, t_start=-tau / 2,
            t_end=tau / 2)
        return system, np.linspace(-tau / 2, tau / 2, 3), random_state(rng, 2)

    def test_steps_differ_and_states_agree(self, monkeypatch):
        system, times, psi0 = self._draw(162)
        runs = {}
        for mode, size in [("matrix", _kernels._MATRIX_MAX_SIZE),
                           ("stage", 0)]:
            monkeypatch.setattr(_kernels, "_MATRIX_MAX_SIZE", size)
            states, _, stats = _kernels.evolve_ramped(system, times, psi0,
                                                      1e-10, 1e-12)
            runs[mode] = states[-1], (stats["accepted"], stats["rejected"],
                                      stats["blocks"])
        assert runs["matrix"][1] == (1374, 8, 92)
        assert runs["stage"][1] == (1376, 9, 92)
        # measured 7.95e-12
        assert np.abs(runs["matrix"][0] - runs["stage"][0]).max() < 1e-9


class TestPinnedSteps:
    """Exact step counts of sweep cells at the default tolerances: a change
    that moves them changes the steps, not only their cost."""

    @pytest.mark.parametrize("tau,steps", [(1.0, (34, 0)), (20.0, (193, 10)),
                                           (200.0, (1595, 10))])
    def test_sweep_tau_cell(self, tau, steps):
        params = CnotParams()
        system, psi0, _ = _gate_cell(params, tau, False)
        stats = schrodinger_evolve(system, psi0, EvolutionConfig(tau=tau)).stats
        assert (stats["accepted"], stats["rejected"]) == steps

    def test_cd_lindblad_cell(self):
        params = CnotParams()
        system, psi0, _ = _gate_cell(params, 200.0, True)
        stats = lindblad_evolve(system, np.outer(psi0, psi0.conj()),
                                NoiseModel.from_gap_units(0.15, params.g),
                                EvolutionConfig(tau=200.0)).stats
        assert (stats["accepted"], stats["rejected"]) == (845, 1)

    @pytest.mark.parametrize("n,steps,entry", [
        (2, (416, 5, 29), -0.026763666126345512 + 0.020807019820788492j),
        (3, (471, 3, 32), 0.01667664593685525 + 0.0030324832542310315j),
    ], ids=["liouvillian-stage", "commutator"])
    def test_full_support_lindblad(self, n, steps, entry):
        # the Lindblad paths no CLI config reaches, from the uniform start:
        # at dimension 4 the Liouvillian on 16 entries, in stage mode; at
        # dimension 8 the commutator form
        system = nqubit_system(n, CnotParams(), 20.0, use_cd=True)
        psi0 = np.ones(system.dim, dtype=complex) / np.sqrt(system.dim)
        traj = lindblad_evolve(system, np.outer(psi0, psi0.conj()),
                               NoiseModel(alpha=0.1), EvolutionConfig())
        stats = traj.stats
        assert (stats["accepted"], stats["rejected"], stats["blocks"]) == steps
        assert abs(traj.final_state[0, -1] - entry) < 1e-14

    def test_cd_lindblad_cell_fidelity(self):
        params = CnotParams()
        system, psi0, _ = _gate_cell(params, 200.0, True)
        rho = lindblad_evolve(system, np.outer(psi0, psi0.conj()),
                              NoiseModel.from_gap_units(0.15, params.g),
                              EvolutionConfig(tau=200.0)).final_state
        assert abs(fidelity_mixed(rho, _target(system))
                   - 0.5000769096425037) < 1e-14

    def test_optimal_tau_cell_fidelity(self):
        params = CnotParams()
        alpha = NoiseModel.from_gap_units(0.04, params.g).alpha
        fidelity = _cell(params, 30.0, False, None, alpha=alpha)[0]
        assert abs(fidelity - 0.7997376673018516) < 1e-14


def _taken_real_forms(ops):
    """The realification of a stack of complex ``(size, size)`` operators
    as matrix mode gathered it before ``W``: one ``take`` from their float
    views and the negatives of those."""
    k, size = ops.shape[0], ops.shape[1]
    floats = ops.reshape(k, -1).view(np.float64)
    signed = np.stack([floats, -floats])
    re = 2 * (size * np.arange(size)[:, None] + np.arange(size))
    source = np.empty((2 * size, 2 * size), dtype=np.intp)
    source[0::2, 0::2] = source[1::2, 1::2] = re
    source[1::2, 0::2] = re + 1
    source[0::2, 1::2] = k * floats.shape[1] + re + 1
    index = np.arange(k)[:, None, None] * floats.shape[1] + source
    return np.take(signed, index)


class TestHermitianCoordinates:
    """Matrix mode advances a flattened density matrix in its Hermitian
    coordinates ``x`` under ``E R(L) T``, and a pure state in its float view
    under the realification ``R(L)``; one product with ``W`` gathers both."""

    @staticmethod
    def _in_coordinates(ops, dissipator):
        forms, t, read = _kernels._coordinate_forms(ops.shape[1],
                                                    dissipator is None)
        wide = read.shape[0]
        gathered = ops.reshape(ops.shape[0], -1).view(np.float64).dot(forms)
        return gathered.reshape(-1, wide, wide), t, read

    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_liouvillian_in_coordinates_is_its_real_form(self, rng, alpha):
        # T L_x x == R(L) T x: the coordinates' operator acts as the
        # Liouvillian does on the float view of vec(rho)
        dissipator = dephasing_dissipator(np.array([1.0, -1.0]), alpha)
        m = np.stack([-1j * random_hermitian(rng, 2) for _ in range(5)])
        ops = _kernels.liouvillian(m, dissipator.ravel())
        l_x, t, read = self._in_coordinates(ops, dissipator)
        assert l_x.shape == (5, 4, 4) and t.shape == (8, 4)
        real = _kernels._real_form(ops)
        for _ in range(4):
            rho = random_hermitian(rng, 2)
            x = rho.ravel().view(np.float64)[read]
            assert np.array_equal(t @ x, rho.ravel().view(np.float64))
            assert np.abs(l_x @ x @ t.T - real @ (t @ x)).max() < 1e-15

    def test_coordinates_of_a_2x2_block(self):
        t, read = _kernels._hermitian_coordinates(2)
        rho = np.array([[0.25, 0.5 - 0.125j], [0.5 + 0.125j, 0.75]])
        assert rho.ravel().view(np.float64)[read].tolist() == [
            0.25, 0.75, 0.5, -0.125]
        # E reads x back exactly: E T = I
        assert np.array_equal(t[read], np.eye(4))

    @pytest.mark.parametrize("hermitian", [False, True])
    def test_error_norm_is_the_complex_entry_norm(self, rng, monkeypatch,
                                                  hermitian):
        # with P = I, E5 = 2 I and E3 = 3 I (column 0 of the maps weighs
        # the identity) the estimates of every step are 2 y and 3 y: taken
        # in coordinates and mapped back through T, their norm is the
        # DOP853 norm over the complex entries of vec(rho)
        maps = np.zeros_like(_kernels._MAPS)
        maps[:, 0] = [1.0, 2.0, 3.0]
        monkeypatch.setattr(_kernels, "_MAPS", maps)
        y = random_hermitian(rng, 2).ravel()  # exactly Hermitian
        rtol, atol, root_width = 1e-10, 1e-12, 8.0
        steps = _kernels._matrix_mode(4, rtol, atol, root_width,
                                      not hermitian)
        op = _kernels.liouvillian((-1j * random_hermitian(rng, 2))[None],
                                  np.zeros(4))
        gathered = op.reshape(1, -1).view(np.float64).dot(steps.forms)
        steps.stages[:, :3] = 0.1 * gathered.reshape(steps.stages.shape[2:])
        states, errs = steps(3, y)
        scale = atol + rtol * np.abs(y)

        def squared(e):
            return np.sum((np.abs(e) / scale) ** 2)

        err5, err3 = squared(2.0 * y), squared(3.0 * y)
        expected = err5 / (np.sqrt(err5 + 0.01 * err3) * root_width)
        assert errs == pytest.approx([expected] * 3, rel=4 * _EPS)
        assert all(state.tobytes() == y.tobytes() for state in states[:4])

    def test_matrix_mode_samples_are_exactly_hermitian(self, monkeypatch):
        # every block in matrix mode, and symmetrization switched off
        def no_symmetrize(y, out):
            raise AssertionError("symmetrize was called")

        monkeypatch.setattr(_kernels, "_MATRIX_MIN_STEPS", 1)
        monkeypatch.setattr(_kernels, "symmetrize", no_symmetrize)
        system, rho0, alpha = _gate_cell(CnotParams(), 20.0, True, 3,
                                         alpha=0.1)
        traj = lindblad_evolve(system, rho0, NoiseModel(alpha),
                               EvolutionConfig(sample_count=9))
        assert traj.stats["blocks"] > 10
        for rho in traj.states:
            assert np.array_equal(rho, rho.conj().T)

    @pytest.mark.parametrize("size,pure", [(2, True), (4, False)])
    def test_only_density_forms_map_coordinates(self, size, pure):
        _, t, _ = _kernels._coordinate_forms(size, pure)
        assert (t is None) == pure

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    def test_pure_gather_is_the_old_take(self, rng, size):
        # every entry of the realification is one float of an operator,
        # so the product with W gathers it exactly (entries nonzero: a
        # zero's sign may differ)
        ops = (rng.standard_normal((23, size, size))
               + 1j * rng.standard_normal((23, size, size)))
        gathered, t, read = self._in_coordinates(ops, None)
        assert t is None and np.array_equal(read, np.arange(2 * size))
        assert gathered.tobytes() == _taken_real_forms(ops).tobytes()
        assert gathered.tobytes() == _kernels._real_form(ops).tobytes()


class TestCoordinateStages:
    """Matrix mode's input, the ``h``-scaled stage matrices in coordinates
    laid out stage by step: a ramped source writes them as one product of
    step-scaled coefficient rows against its terms in coordinates
    (``evolve_ramped``), the same matrices as its complex stage operators
    through ``W``."""

    @staticmethod
    def _draw(seed, use_cd):
        rng = np.random.default_rng(seed)
        h0, hcd = random_hermitian(rng, 2), random_hermitian(rng, 2)
        tau = rng.uniform(5.0, 40.0)
        return RampedGateHamiltonian(
            h0=h0, hz=np.diag([1.0, -1.0]).astype(complex), hcd=hcd,
            slope=rng.uniform(0.5, 4.0), g=rng.uniform(0.2, 1.0),
            use_cd=use_cd, t_start=-tau / 2, t_end=tau / 2)

    @pytest.mark.parametrize("samples", [2, 5])
    @pytest.mark.parametrize("use_cd", [False, True])
    @pytest.mark.parametrize("density", [False, True],
                             ids=["pure", "liouvillian"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_coefficient_rows_match_operators(self, monkeypatch, seed,
                                              density, use_cd, samples):
        system = self._draw(seed, use_cd)
        times = np.linspace(system.t_start, system.t_end, samples)
        psi0 = random_state(np.random.default_rng(seed), 2)
        y0, dissipator = psi0, None
        if density:
            y0 = np.outer(psi0, psi0.conj()).ravel()
            dissipator = dephasing_dissipator(np.array([1.0, -1.0]), 0.2)
        writer, blocks = _kernels._stage_writer, []

        def compared(generators, matrix, lengths):
            write = writer(generators, matrix, lengths)

            def write_and_compare(ts):
                write(ts)
                m = (ts.shape[0] - 1) // 11
                hs = lengths[:m, None, None]
                # the block's complex stage operators through W, step k's
                # stage s the operator at 11 k + s
                gathered = TestHermitianCoordinates._in_coordinates(
                    generators(ts), dissipator)[0]
                index = 11 * np.arange(m) + np.arange(12)[:, None]
                blocks.append((matrix.stages[:, :m].copy(),
                               hs * gathered[index], np.all(hs == hs[0])))

            return write_and_compare

        monkeypatch.setattr(_kernels, "_stage_writer", compared)
        stats = _kernels.evolve_ramped(system, times, y0, 1e-10, 1e-12,
                                       dissipator)[2]
        assert 0 < len(blocks) < stats["blocks"]
        for rows, operators, _ in blocks:
            assert rows.shape[2:] == (4, 4)
            scale = np.abs(operators).max(axis=(2, 3), keepdims=True)
            assert np.all(np.abs(rows - operators) <= 1e-14 * scale)
        # blocks of one length and, between interior samples, of several
        assert any(one for *_, one in blocks)
        assert any(not one for *_, one in blocks) == (samples > 2)

    @pytest.mark.parametrize("garbage", [1e-310, np.nan],
                             ids=["subnormal", "nan"])
    def test_stage_input_holds_no_uninitialised_value(self, monkeypatch,
                                                      garbage):
        # the chain runs on every step, the block's and those past it, so
        # the stage matrices past the block must hold nothing np.empty left:
        # a subnormal there slowed a gate check threefold, with outputs
        # still correct. New arrays here start as garbage (a subnormal that
        # survives a product with an entry below 1/2), and after every
        # write the stage matrices of one callable propagator column and of
        # one ramped run are finite and free of subnormals
        empty, writer, clean = np.empty, _kernels._stage_writer, []

        def garbage_filled(*args, **kwargs):
            out = empty(*args, **kwargs)
            if out.dtype.kind in "fc":
                out.fill(garbage)
            return out

        def checked(generators, matrix, lengths):
            write, stages = writer(generators, matrix, lengths), matrix.stages

            def write_and_check(ts):
                write(ts)
                subnormal = (stages != 0.0) & (np.abs(stages) < _TINY)
                clean.append((generators, np.isfinite(stages).all()
                              and not subnormal.any()))

            return write_and_check

        monkeypatch.setattr(np, "empty", garbage_filled)
        monkeypatch.setattr(_kernels, "_kept", threading.local())
        monkeypatch.setattr(_kernels, "_stage_writer", checked)
        h = build_inverse_engineered(np.pi / 5.0)
        cfg = EvolutionConfig(abs_tol=1e-14, rel_tol=1e-12)
        column = np.eye(4, dtype=np.complex128)[1]
        schrodinger_evolve(lambda t: h, column, cfg, (0.0, 5.0))
        system, psi0, _ = _gate_cell(CnotParams(), 20.0, True)
        schrodinger_evolve(system, psi0, cfg)
        assert len({id(source) for source, _ in clean}) == 2
        assert all(ok for _, ok in clean)

    def test_stage_input_is_a_listed_buffer(self):
        for pure in (True, False):
            steps = _kernels._matrix_mode(4, 1e-10, 1e-12, 2.0, pure)
            assert any(b is steps.stages for b in steps.buffers)


class TestStepperBuffers:
    """The stepper works in one state-and-stage block; nothing it returns or
    was given may share memory with it."""

    def test_y0_kept_and_states_copied(self, rng, monkeypatch):
        m0 = -1j * random_hermitian(rng, 2)
        psi0 = random_state(rng, 2)
        y0 = psi0.copy()
        seen = []
        norm_drift = _kernels.norm_drift

        def apply(m, y, out):
            seen.extend([y, out])
            return np.dot(m, y, out)

        def drift_of(y):
            seen.append(y)
            return norm_drift(y)

        # stage mode, whose stages apply ``matvec`` to the state
        monkeypatch.setattr(_kernels, "_MATRIX_MAX_SIZE", 0)
        monkeypatch.setattr(_kernels, "matvec", apply)
        monkeypatch.setattr(_kernels, "norm_drift", drift_of)
        states, _, stats = _kernels.dop853(
            _constant_generators(m0, on=1.0), np.array([0.0, 3.0, 7.0]), y0,
            1e-10, 1e-12)
        assert stats["rejected"] > 0
        assert np.array_equal(y0, psi0)
        assert np.array_equal(states[0], psi0)
        kept = states.copy()
        for buffer in seen:
            assert not np.shares_memory(buffer, states)
            assert not np.shares_memory(buffer, y0)
            buffer[...] = np.nan
        assert np.array_equal(states, kept)
        # three distinct samples, each the exact evolution (measured
        # within 5.6e-10)
        for t, state in zip([0.0, 3.0, 7.0], states):
            exact = _switched_exact(m0, psi0, t, 1.0)
            assert np.abs(state - exact).max() < 1e-9

    @pytest.mark.parametrize("alpha", [None, 0.1])
    def test_reused_buffers_are_written_before_read(self, alpha):
        # the evaluators are kept from run to run (_kernels._reused): a
        # run after one of another tau, with every buffer the evaluators
        # list filled with NaN, is bit for bit a run with its own
        params = CnotParams()
        system, y0, _ = _gate_cell(params, 20.0, True, 3, alpha)
        support = y0 != 0 if y0.ndim == 1 else y0.any(axis=0)
        sub, idx = dynamics._invariant_sector(system, support, (0.0, 1.0))
        width = y0.size
        if alpha is None:
            y0, dissipator = y0[idx], None
        else:
            y0 = y0[np.ix_(idx, idx)].ravel()
            dissipator = dephasing_dissipator(np.real(np.diag(sub.hz)),
                                              alpha)
        times = np.array([sub.t_start, 0.0, sub.t_end])
        args = (times, y0, 1e-10, 1e-12, dissipator, width)
        other = _gate_cell(params, 3.0, True, 3)[0]

        def kept():
            return [getattr(_kernels._kept, slot)[1]
                    for slot in ("stage", "matrix_pure" if alpha is None
                                 else "matrix_density")]

        vars(_kernels._kept).clear()
        _kernels.evolve_ramped(replace(sub, slope=other.slope), *args)
        evaluators = kept()
        for steps in evaluators:
            for buffer in steps.buffers:
                buffer[...] = np.nan
        reused = _kernels.evolve_ramped(sub, *args)
        assert kept() == evaluators
        vars(_kernels._kept).clear()
        fresh = _kernels.evolve_ramped(sub, *args)
        assert all(a is not b for a, b in zip(kept(), evaluators))
        assert reused[0].tobytes() == fresh[0].tobytes()
        assert reused[1:] == fresh[1:]
        assert reused[2]["blocks"] > 10

    @pytest.mark.parametrize("dim", [2, 4, 8])
    @pytest.mark.parametrize("alpha", [0.0, 0.3])
    def test_lindblad_apply_writes_its_result(self, rng, dim, alpha):
        dissipator = dephasing_dissipator(np.tile([1.0, -1.0], dim // 2),
                                          alpha)
        apply = _kernels.lindblad_apply(dissipator)
        m = -1j * random_hermitian(rng, dim)
        psi = random_state(rng, dim)
        rho = np.outer(psi, psi.conj())
        y = rho.ravel()
        kept = y.copy()
        out = np.full(dim * dim, np.nan, dtype=np.complex128)
        apply(m, y, out)
        expected = m.dot(rho) - rho.dot(m)
        expected += dissipator * rho
        assert np.array_equal(out, expected.ravel())
        assert np.array_equal(y, kept)

    @pytest.mark.parametrize("dim", [2, 4, 8])
    def test_symmetrize_into_out_equals_allocating(self, rng, dim):
        rho = random_hermitian(rng, dim) + 1e-3j * random_hermitian(rng, dim)
        y = rho.ravel()
        kept = y.copy()
        # ``out`` is the middle row of a block, as the state row of the
        # stepper is
        block = np.full((3, dim * dim), np.nan, dtype=np.complex128)
        _kernels.symmetrize(y, block[1])
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


def _one_entry_sector(system, basis):
    """``system`` on the invariant sector of basis state ``basis``, which
    must hold that entry alone."""
    support = np.arange(system.dim) == basis
    sector, idx, _ = dynamics._sector_system(
        system, support, (system.t_start, system.t_end), False)
    assert idx.tolist() == [basis]
    return sector


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

    @pytest.mark.parametrize("n", [2, 3, "sector_00"])
    def test_blocks_match_loop_and_each_other(self, n, monkeypatch):
        if n == "sector_00":  # dim 1: cnot_system's sector of |00>
            system = _one_entry_sector(cnot_system(CnotParams(), 3.0,
                                                   use_cd=True), 0)
        else:
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

    @pytest.mark.parametrize("basis", [0, 1])
    def test_one_entry_sector_matches_per_trajectory_loop(self, basis):
        # |00> and |01> each span a sector of one entry: the real state
        # rows are [Re y; Im y] of a single amplitude
        system = cnot_system(CnotParams(), 2.0, use_cd=True)
        assert _one_entry_sector(system, basis).dim == 1
        psi0 = np.eye(4, dtype=complex)[basis]
        alpha, dt, seed, n = 0.3, 2.0 / 128, 9, 100
        rho = noise_trajectory_oracle(system, psi0, alpha, n, dt, seed)
        noise = np.random.default_rng(seed).standard_normal((n, 128))
        noise *= np.sqrt(alpha / dt)
        loop = _rk4_loop(system, system.hz, system.t_start, dt, noise, psi0)
        assert np.abs(rho - loop).max() < 1e-12

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
