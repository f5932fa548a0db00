import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdgate import _kernels, experiments
from cdgate.dynamics import EvolutionConfig, schrodinger_evolve
from cdgate.errors import DimensionTooLargeError, NoInteriorMaximumError
from cdgate.experiments import (
    SweepGrid,
    adiabatic_profile,
    find_optimal_tau,
    gate_unitary_check,
    make_grid,
    n_qubit_demo,
    sweep_noise,
    sweep_tau,
    tradeoff_boundary,
)
from cdgate.model import (CnotParams, analytic_spectrum, cnot_system,
                          nqubit_sector_states)
from cdgate.observables import lz_formula

from conftest import random_state


class TestAdiabaticProfile:
    def test_adiabatic_regime(self, params):
        points = adiabatic_profile(params, tau=200.0)
        assert points[0].value <= 0.01
        assert points[-1].value >= 0.99
        mid = min(points, key=lambda p: abs(p.t))
        assert points[0].value < mid.value < points[-1].value

    def test_cd_enabled_restores_the_adiabatic_target(self, params):
        # at tau = 0.5 the bare run stays near its start; with CD it ends on
        # the ramp-end ground state, |<11|ground(J2 = 5)>|^2 = c
        c = 0.9975185951049945
        with_cd = adiabatic_profile(params, tau=0.5, cd_enabled=True)
        bare = adiabatic_profile(params, tau=0.5)
        assert abs(with_cd[-1].value - c) < 1e-10
        assert bare[-1].value < 0.1

    def test_sudden_quench_freezes_fidelity(self, params):
        points = adiabatic_profile(params, tau=0.1)
        start_overlap = abs(analytic_spectrum(params, -5.0).states[0][3]) ** 2
        assert abs(points[0].value - start_overlap) < 1e-10
        assert abs(points[-1].value - points[0].value) < 0.01


class TestSweepTau:
    def test_cd_restores_ground_state(self):
        for g in (0.3, 0.5):
            params = CnotParams(g=g)
            result = sweep_tau(params, [0.1, 1.0, 10.0], cd_enabled=True)
            assert np.abs(result.ground_prob - 1.0).max() < 1e-6

    def test_lz_agreement_without_cd(self, params):
        taus = np.logspace(0, 2, 12)
        result = sweep_tau(params, taus, cd_enabled=False)
        predicted = np.array([lz_formula(params.g, params.j2_amp, t)
                              for t in taus])
        assert np.abs(result.transition_prob[0] - predicted).max() < 0.02

    def test_larger_g_reaches_adiabaticity_sooner(self):
        taus = np.logspace(0.3, 2.35, 18)
        thresholds = {}
        for g in (0.3, 0.4, 0.5):
            result = sweep_tau(CnotParams(g=g), taus, cd_enabled=False)
            below = np.where(result.transition_prob[0] < 0.01)[0]
            assert below.size > 0
            thresholds[g] = taus[below.min()]
        assert thresholds[0.3] > thresholds[0.4] > thresholds[0.5]

    def test_deterministic_and_worker_independent(self, params):
        taus = [1.0, 5.0, 25.0]
        a = sweep_tau(params, taus, cd_enabled=True)
        c = sweep_tau(params, taus, cd_enabled=True)
        assert np.array_equal(a.fidelity, c.fidelity)
        assert np.array_equal(a.transition_prob, c.transition_prob)


class TestSweepNoise:
    def test_noiseless_column_reduces_to_unitary(self, params):
        grid = make_grid(params, [200.0], [0.0], cd_enabled=False)
        result = sweep_noise(grid)
        assert result.fidelity[0, 0] >= 0.99

    def test_steady_state_reached_at_large_alpha_tau(self, params):
        grid = make_grid(params, [600.0], [0.1], cd_enabled=False)
        result = sweep_noise(grid)
        assert abs(result.fidelity[0, 0] - 0.5) < 0.05

    def test_cd_fidelity_non_increasing_in_alpha(self, params):
        grid = make_grid(params, [5.0, 20.0], [0.0, 0.05, 0.1, 0.2],
                         cd_enabled=True)
        result = sweep_noise(grid)
        diffs = np.diff(result.fidelity, axis=0)
        assert (diffs <= 1e-10).all()

    @pytest.mark.parametrize("run", [
        lambda exp, p: exp.sweep_noise(
            make_grid(p, [1.0, 2.0, 3.0], [0.05], cd_enabled=True)),
        lambda exp, p: exp.n_qubit_demo(3, p, [1.0, 2.0, 3.0], True),
    ], ids=["sweep_noise", "n_qubit_demo"])
    def test_failed_cells_are_recorded_and_skipped(self, params, monkeypatch,
                                                   run):
        import cdgate.experiments as exp
        clean = run(exp, params)
        real = exp._cell

        def flaky(params, tau, *rest, **kwargs):
            if tau == 2.0:
                raise exp.CdgateError("injected failure")
            return real(params, tau, *rest, **kwargs)

        monkeypatch.setattr(exp, "_cell", flaky)
        result = run(exp, params)
        assert result.failed_cells == ["cell (0,1): injected failure"]
        assert clean.failed_cells == []
        for name in ("fidelity", "transition_prob", "ground_prob"):
            got, want = getattr(result, name), getattr(clean, name)
            assert np.isnan(got[0, 1])
            assert np.isfinite(want).all()
            assert np.array_equal(got[:, [0, 2]], want[:, [0, 2]])

    def test_grid_validation(self, params):
        with pytest.raises(ValueError):
            SweepGrid(tau_values=np.array([]), alpha_values=np.array([0.1]),
                      alpha_gap_units=np.array([0.1]), cd_enabled=False,
                      params=params)
        with pytest.raises(ValueError):
            make_grid(params, [1.0, -2.0], [0.0], cd_enabled=False)

    @pytest.mark.parametrize("taus, alphas", [([2.0, 1.0], [0.0]),
                                              ([1.0], [0.2, 0.1])])
    def test_grid_axes_must_ascend(self, params, taus, alphas):
        with pytest.raises(ValueError, match="grid axes must be ascending"):
            make_grid(params, taus, alphas, cd_enabled=False)

    @pytest.mark.parametrize("taus, alphas", [
        ([1.0, np.nan], [0.0]), ([1.0, np.inf], [0.0]),
        ([1.0], [np.nan]), ([1.0], [0.0, np.inf]),
    ])
    def test_grid_rejects_non_finite(self, params, taus, alphas):
        with pytest.raises(ValueError, match="finite"):
            make_grid(params, taus, alphas, cd_enabled=False)

    def test_grid_rejects_alpha_whose_dissipator_overflows(self, params):
        # 1e308 in units of 2g = 1 is a finite rate, but -2 alpha is not
        with pytest.raises(ValueError, match="2 alpha finite"):
            make_grid(params, [1.0], [0.0, 1e308], cd_enabled=False)

    def test_alpha_units_stored_both_ways(self, params):
        grid = make_grid(params, [1.0], [0.04, 0.08], cd_enabled=False)
        assert np.allclose(grid.alpha_values, [0.04, 0.08])  # 2g = 1 here
        other = make_grid(CnotParams(g=0.25), [1.0], [0.04], cd_enabled=False)
        assert abs(other.alpha_values[0] - 0.02) < 1e-15


class TestFindOptimalTau:
    def test_optimum_location_and_height(self, params):
        # alpha = 0.08 g: the noisy optimum sits near tau ~ 30 with F ~ 0.8
        tau_star, f_star = find_optimal_tau(params, alpha=0.08 * params.g)
        assert 20.0 <= tau_star <= 40.0
        assert abs(f_star - 0.8) <= 0.05

    def test_optimal_time_decreases_with_noise(self, params):
        stars = []
        for alpha_gap in (0.04, 0.06, 0.08, 0.1):
            alpha = alpha_gap * 2 * params.g
            tau_star, _ = find_optimal_tau(params, alpha)
            stars.append(tau_star)
        assert all(a >= b - 0.5 for a, b in zip(stars, stars[1:]))

    @pytest.mark.parametrize("window", [(-1.0, 5.0), (0.0, 5.0), (5.0, 2.0),
                                        (3.0, 3.0), (1.0, np.inf),
                                        (np.nan, 5.0)])
    def test_rejects_bad_window(self, params, window):
        with pytest.raises(ValueError, match="tau_window"):
            find_optimal_tau(params, 0.04, tau_window=window)

    def test_noiseless_limit_has_no_interior_maximum(self, params):
        with pytest.raises(NoInteriorMaximumError):
            find_optimal_tau(params, alpha=1e-4, tau_window=(2.0, 60.0))
        with pytest.raises(ValueError):
            find_optimal_tau(params, alpha=0.0)


class TestTradeoffBoundary:
    def test_product_is_roughly_constant(self, params):
        grid = make_grid(params, np.logspace(0, 1.8, 24),
                         np.logspace(np.log10(0.02), np.log10(0.2), 6),
                         cd_enabled=True)
        curve = tradeoff_boundary(grid, threshold=0.9)
        assert curve.product_spread < 3.0
        taus = [tau for _, tau in curve.points]
        assert all(a >= b for a, b in zip(taus, taus[1:]))

    def test_noiseless_column_saturates_grid(self):
        grid = make_grid(CnotParams(j2_amp=20.0), [1.0, 5.0, 20.0], [0.0],
                         cd_enabled=True)
        curve = tradeoff_boundary(grid, threshold=0.999)
        assert curve.points == [(0.0, 20.0)]

    def test_row_with_no_tau_above_the_threshold_is_left_out(self, params):
        # at alpha = 2 (4 in units of 2g) even tau 1 ends well below 0.9
        grid = make_grid(params, [1.0, 2.0], [0.02, 4.0], cd_enabled=True)
        curve = tradeoff_boundary(grid, threshold=0.9)
        assert [alpha for alpha, _ in curve.points] == [0.02]
        assert curve.failed_cells == []

    def test_requires_cd_grid_and_sane_threshold(self, params):
        grid = make_grid(params, [1.0], [0.1], cd_enabled=False)
        with pytest.raises(ValueError):
            tradeoff_boundary(grid, threshold=0.9)
        cd_grid = make_grid(params, [1.0], [0.1], cd_enabled=True)
        with pytest.raises(ValueError):
            tradeoff_boundary(cd_grid, threshold=0.4)


class TestGateUnitaryCheck:
    @pytest.mark.parametrize("tau", [0.5, 1.0, 7.3])
    def test_exact_for_any_tau(self, tau):
        report = gate_unitary_check(tau)
        assert report.phase_insensitive < 1e-10
        assert report.passed

    def test_phase_offset_gives_same_gate(self):
        report = gate_unitary_check(1.0, n_offset=1)
        assert report.phase_insensitive < 1e-10

    def test_hamiltonian_commutes_across_times(self):
        report = gate_unitary_check(2.0)
        assert report.commutator_residual < 1e-12

    def test_residual_of_entries_near_1e300(self):
        # the samples are pi / (4 tau) times one shape: unscaled, their
        # products overflowed to a NaN residual
        report = gate_unitary_check(1e-300)
        assert report.commutator_residual == 0.0
        assert report.passed

    def test_callable_columns_halve_and_double_their_blocks(self,
                                                          monkeypatch):
        # a callable is called once per stage time, so its blocks keep
        # the doubling rule that ramped runs left: each propagator column
        # takes the steps it took under that rule
        stats = []
        dop853 = _kernels.dop853

        def spy(*args):
            result = dop853(*args)
            stats.append(result[2])
            return result

        monkeypatch.setattr(_kernels, "dop853", spy)
        gate_unitary_check(7.3)
        counts = ("accepted", "rejected", "discarded", "blocks", "rhs_evals")
        assert [tuple(s[k] for k in counts) for s in stats] == (
            [(8, 0, 0, 4, 92)] * 2 + [(23, 1, 0, 6, 270)] * 2)

    def test_builds_the_hamiltonian_once_per_stage_time(self, monkeypatch):
        # perfbench's traced oracle-check needs the
        # model.build_inverse_engineered span, so the callable must call it
        # at each distinct stage time of a block rather than cache its
        # matrix
        builds, stage_times = [], []
        build, dop853 = experiments.build_inverse_engineered, _kernels.dop853

        def counted_build(phidot):
            builds.append(phidot)
            return build(phidot)

        def counted_dop853(generators, *args):
            def counted(ts):
                stage_times.append(np.unique(ts).size)
                return generators(ts)
            return dop853(counted, *args)

        monkeypatch.setattr(experiments, "build_inverse_engineered",
                            counted_build)
        monkeypatch.setattr(_kernels, "dop853", counted_dop853)
        gate_unitary_check(1.0)
        # 4 propagator columns, each checked for Hermiticity at 3 times;
        # 1 call for the propagator's dimension; 5 commutator samples
        assert len(builds) == sum(stage_times) + 4 * 3 + 1 + 5
        assert len(stage_times) > 4


def _log_uniform(draw, lo, hi):
    return math.exp(draw(st.floats(math.log(lo), math.log(hi))))


@st.composite
def _cd_cells(draw):
    """``(g, j2_amp, tau)`` of a CD gate cell at the default j1 = 1: g
    log-uniform in [0.1, 2], |j2_amp| in [4 max(j1, g), 40] of either sign,
    and tau log-uniform in [0.5, min(200, 4000 / |j2_amp|)], where the
    default tolerances hold the drift monitor."""
    g = _log_uniform(draw, 0.1, 2.0)
    amp = draw(st.floats(4.0 * max(1.0, g), 40.0))
    tau = _log_uniform(draw, 0.5, min(200.0, 4000.0 / amp))
    return g, draw(st.sampled_from([amp, -amp])), tau


class TestNQubitDemo:
    def test_two_qubit_case_reproduces_sweep_tau(self, params):
        taus = [0.5, 2.0, 8.0]
        a = sweep_tau(params, taus, cd_enabled=True)
        b = n_qubit_demo(2, params, taus, cd_enabled=True)
        assert np.array_equal(a.fidelity, b.fidelity)
        assert np.array_equal(a.transition_prob, b.transition_prob)
        assert np.array_equal(a.ground_prob, b.ground_prob)

    def test_three_qubit_cd_restoration(self, params):
        result = n_qubit_demo(3, params, [1.0], cd_enabled=True)
        assert abs(result.ground_prob[0, 0] - 1.0) < 1e-6

    def test_three_qubit_lz_agreement(self, params):
        taus = np.logspace(0, 1.7, 8)
        result = n_qubit_demo(3, params, taus, cd_enabled=False)
        predicted = np.array([lz_formula(params.g, params.j2_amp, t)
                              for t in taus])
        assert np.abs(result.transition_prob[0] - predicted).max() < 0.02

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_cd_fidelity_is_the_closed_form(self, params, n):
        # With CD the state stays in the sector's instantaneous ground
        # state, so every cell's fidelity is its target weight at the ramp
        # end, g^2 / (g^2 + a^2) with a = |J_end| - sqrt(g^2 + J_end^2),
        # at any tau, n and amplitude (Berry, J. Phys. A 42, 365303
        # (2009)); a negative amplitude ends in |1..10>, its target.
        # Measured worst |F - exact|, all at tau 200: at j2_amp 10, 1.4e-9
        # at n = 2 and 6.6e-9 at n = 6; at 4, 6.7e-10 and 3.1e-9; at 20,
        # 2.7e-9 and 8.5e-9 (n = 5); at -10 as at 10. Left out: n = 6 at
        # j2_amp 20 and tau 200, whose norm drift (1.24e-8) fails the 1e-8
        # monitor at the default tolerances.
        taus = np.geomspace(0.5, 200.0, 12)
        for j2_amp in (params.j2_amp, 4.0, 20.0, -10.0):
            amp = replace(params, j2_amp=j2_amp)
            j_end = 0.5 * abs(j2_amp)
            a = j_end - np.sqrt(amp.g ** 2 + j_end ** 2)
            exact = amp.g ** 2 / (amp.g ** 2 + a ** 2)
            if j2_amp == params.j2_amp:
                assert abs(exact - 0.9975185951049945) < 1e-15
            cells = taus[:-1] if (n, j2_amp) == (6, 20.0) else taus
            result = n_qubit_demo(n, amp, cells, cd_enabled=True)
            assert not result.failed_cells
            assert np.abs(result.fidelity - exact).max() <= 1e-8, j2_amp

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(cell=_cd_cells())
    def test_cd_fidelity_is_the_closed_form_anywhere(self, cell):
        # the closed form of test_cd_fidelity_is_the_closed_form at drawn
        # (g, j2_amp, tau), within its bound; the worst deviation of such
        # draws is recorded in docs/noise_model.md
        g, j2_amp, tau = cell
        j_end = 0.5 * abs(j2_amp)
        a = j_end - math.sqrt(g * g + j_end * j_end)
        result = sweep_tau(CnotParams(g=g, j2_amp=j2_amp), [tau],
                           cd_enabled=True)
        assert not result.failed_cells
        assert abs(result.fidelity[0, 0] - g * g / (g * g + a * a)) <= 1e-8

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(cell=_cd_cells(), use_cd=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_populations_are_conserved_from_any_start(self, cell, use_cd,
                                                      seed):
        # |00> and |01> only gain phases and the coupled sector keeps its
        # total, with or without CD; the worst deviation of such draws is
        # recorded in docs/noise_model.md
        g, j2_amp, tau = cell
        psi0 = random_state(np.random.default_rng(seed), 4)
        system = cnot_system(CnotParams(g=g, j2_amp=j2_amp), tau, use_cd)
        pop = np.abs(schrodinger_evolve(
            system, psi0, EvolutionConfig(sample_count=5)).states) ** 2
        groups = np.stack([pop[:, 0], pop[:, 1], pop[:, 2] + pop[:, 3]], 1)
        assert np.abs(groups - groups[0]).max() <= 1e-8

    def test_metadata_present(self, params):
        result = n_qubit_demo(3, params, [1.0], cd_enabled=False)
        assert "version" in result.metadata
        assert "backend" in result.metadata
        assert "wall_seconds" in result.metadata


@pytest.fixture
def run_spy(monkeypatch):
    """Counts ``_run_cell`` calls (from experiments and from the CLI) and
    engine calls, and fails an engine call made outside ``_run_cell``."""
    import cdgate.cli as cli

    counts = {"cells": 0, "evolutions": 0}
    depth = [0]
    real_run = experiments._run_cell

    def run_cell(cell, cfg):
        counts["cells"] += 1
        depth[0] += 1
        try:
            return real_run(cell, cfg)
        finally:
            depth[0] -= 1

    def engine(real):
        def counted(*args, **kwargs):
            assert depth[0] == 1, "an evolution ran outside _run_cell"
            counts["evolutions"] += 1
            return real(*args, **kwargs)
        return counted

    monkeypatch.setattr(experiments, "_run_cell", run_cell)
    monkeypatch.setattr(cli, "_run_cell", run_cell)
    for name in ("schrodinger_evolve", "lindblad_evolve"):
        monkeypatch.setattr(experiments, name,
                            engine(getattr(experiments, name)))
    return counts


class TestSinglePath:
    """Every ramped gate run is one ``_gate_cell`` set-up and one
    ``_run_cell`` call, whichever recipe asks for it."""

    @pytest.mark.parametrize("recipe, runs", [
        (lambda p: sweep_tau(p, [1.0, 5.0], cd_enabled=False), 2),
        (lambda p: sweep_tau(p, [1.0, 5.0], cd_enabled=True), 2),
        (lambda p: n_qubit_demo(3, p, [1.0, 5.0], cd_enabled=True), 2),
        (lambda p: sweep_noise(make_grid(p, [1.0, 5.0], [0.0, 0.1], True)),
         4),
        (lambda p: adiabatic_profile(p, tau=5.0), 1),
    ], ids=["sweep_tau", "sweep_tau_cd", "n_qubit_demo_3", "sweep_noise",
            "adiabatic_profile"])
    def test_one_run_cell_call_per_evolution(self, params, run_spy, recipe,
                                             runs):
        recipe(params)
        assert run_spy == {"cells": runs, "evolutions": runs}

    def test_optimum_search_evaluations(self, params, run_spy):
        find_optimal_tau(params, 0.08, tau_window=(5.0, 60.0))
        assert run_spy["cells"] == run_spy["evolutions"] > 18

    @pytest.mark.parametrize("flags", [[], ["--alpha", "0.05", "--cd"]],
                             ids=["unitary", "noisy"])
    def test_cli_evolve(self, run_spy, tmp_path, flags):
        from cdgate.cli import main

        argv = ["evolve", "--tau", "3", "--samples", "5",
                "--output", str(tmp_path / "run")]
        assert main(argv + flags) == 0
        assert run_spy == {"cells": 1, "evolutions": 1}

    @pytest.mark.parametrize("n, builder", [(2, "cnot_system"),
                                            (3, "nqubit_system"),
                                            (4, "nqubit_system")])
    def test_system_builder_by_qubit_count(self, params, monkeypatch, n,
                                           builder):
        built = []
        for name in ("cnot_system", "nqubit_system"):
            def counted(*args, _name=name, _real=getattr(experiments, name),
                        **kwargs):
                built.append(_name)
                return _real(*args, **kwargs)
            monkeypatch.setattr(experiments, name, counted)
        n_qubit_demo(n, params, [1.0, 2.0], cd_enabled=True)
        assert built == [builder, builder]

    @pytest.mark.parametrize("n", [1, 7])
    def test_bad_qubit_count_raises_before_any_cell(self, params, run_spy, n):
        with pytest.raises(DimensionTooLargeError, match="2..6"):
            n_qubit_demo(n, params, [1.0, 2.0], cd_enabled=True)
        assert run_spy == {"cells": 0, "evolutions": 0}

    def test_noisy_cell_starts_from_the_pure_cells_state(self, params):
        system, psi0, alpha = experiments._gate_cell(params, 5.0, False)
        _, rho0, rate = experiments._gate_cell(params, 5.0, False,
                                               alpha=0.1)
        assert alpha is None and rate == 0.1
        assert np.array_equal(rho0, np.outer(psi0, psi0.conj()))
        assert np.array_equal(psi0, nqubit_sector_states(
            2, params.g, system.drive_value(system.t_start))[0])
