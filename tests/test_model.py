import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdgate.errors import (
    DimensionTooLargeError,
    GapCollisionError,
    NonPositiveTauError,
    PhaseOverflowError,
)
from cdgate.model import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    CnotParams,
    analytic_spectrum,
    build_h_cd_analytic,
    build_h_cd_n,
    build_h_cd_spectral,
    build_h_cnot,
    build_h_n,
    build_inverse_engineered,
    cnot_system,
    cnot_unitary,
    control_projector,
    effective_lz,
    linear_phase_ramp,
    linear_ramp,
    lz_system,
    nqubit_sector_states,
    nqubit_system,
)
from cdgate.numerics import hermitian_eig, kron

# the largest j1 with 10 j1 finite
J1_MAX = np.finfo(np.float64).max / 10.0


class TestParams:
    def test_reference_defaults(self):
        p = CnotParams()
        assert (p.j1, p.g, p.j2_amp) == (1.0, 0.5, 10.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CnotParams(g=0.0)
        with pytest.raises(ValueError):
            CnotParams(j1=-1.0)
        with pytest.raises(ValueError):
            CnotParams(j2_amp=0.0)

    @pytest.mark.parametrize("field", ["j1", "g", "j2_amp"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite"):
            CnotParams(**{field: value})

    @pytest.mark.parametrize("g", [1e-160, 1e-300, 5e-324])
    def test_g_whose_square_underflows_rejected(self, g):
        with pytest.raises(ValueError, match="g\\^2 underflows"):
            CnotParams(g=g)

    @pytest.mark.parametrize("g, j2_amp", [(1e300, 10.0), (1.3e154, 1.3e154)])
    def test_g_whose_square_overflows_rejected(self, g, j2_amp):
        # g = 1e300 wrote inf energies and gap with exit 0
        with pytest.raises(ValueError, match=r"g\^2 \+ j2_amp\^2 overflows"):
            CnotParams(g=g, j2_amp=j2_amp)

    @pytest.mark.parametrize("j2_amp", [1e160, -1e160, 1e300])
    def test_j2_whose_square_overflows_rejected(self, j2_amp):
        with pytest.raises(ValueError, match="j2_amp\\^2 overflows"):
            CnotParams(j2_amp=j2_amp)

    @pytest.mark.parametrize("j1", [1e308, np.nextafter(J1_MAX, np.inf)])
    def test_j1_whose_sector_trace_overflows_rejected(self, j1):
        # the gate sector's trace, 2 (n - 1) j1, is 10 j1 at n = 6
        with pytest.raises(ValueError, match="10 j1 overflows"):
            CnotParams(j1=j1)

    def test_squares_at_the_edges_accepted(self):
        # g^2 is the smallest normal double or above, J2^2 is finite
        params = CnotParams(g=1.5e-154, j2_amp=1.3e154)
        assert params.g ** 2 >= np.finfo(np.float64).tiny
        assert np.isfinite(params.j2_amp ** 2)

    def test_largest_j1_accepted(self):
        with pytest.warns(UserWarning):  # j2_amp is far below j1
            params = CnotParams(j1=J1_MAX)
        assert 10.0 * params.j1 < np.inf

    def test_warns_outside_recommended_regime(self):
        with pytest.warns(UserWarning):
            CnotParams(j2_amp=1.0)


class TestLinearRamp:
    def test_values(self):
        ramp = linear_ramp(CnotParams(), tau=20.0)
        assert ramp.value(0.0) == 0.0
        assert ramp.value(10.0) == 5.0
        assert ramp.derivative(10.0) == 0.5
        assert ramp.value(-10.0) == -5.0
        assert (ramp.t_start, ramp.t_end) == (-10.0, 10.0)
        assert (ramp.rate, ramp.offset) == (0.5, 0.0)

    def test_rejects_bad_tau(self):
        with pytest.raises(NonPositiveTauError):
            linear_ramp(CnotParams(), tau=0.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf])
    def test_rejects_non_finite_tau(self, tau):
        with pytest.raises(NonPositiveTauError):
            linear_ramp(CnotParams(), tau=tau)
        with pytest.raises(NonPositiveTauError):
            linear_phase_ramp(tau)

    @pytest.mark.parametrize("tau", [1e-308, np.float64(1e-308), 5e-324])
    def test_rejects_tau_whose_rate_overflows(self, tau):
        # j2_amp / tau and pi / tau pass 1.8e308: the rate would be inf
        with pytest.raises(NonPositiveTauError, match="rate 10.0 / tau"):
            linear_ramp(CnotParams(), tau=tau)
        with pytest.raises(NonPositiveTauError, match="overflows"):
            linear_phase_ramp(tau)

    def test_shortest_tau_keeps_its_rate(self):
        # the smallest tau with a finite rate keeps the rate of the division
        tau = np.nextafter(10.0 / np.finfo(np.float64).max, np.inf)
        assert linear_ramp(CnotParams(), tau).rate == 10.0 / tau
        assert np.isfinite(linear_phase_ramp(1e-300).rate)

    def test_derivative_is_true_derivative(self):
        ramp = linear_ramp(CnotParams(), tau=7.0)
        eps = 1e-6
        for t in np.linspace(ramp.t_start + eps, ramp.t_end - eps, 11):
            fd = (ramp.value(t + eps) - ramp.value(t - eps)) / (2 * eps)
            assert abs(fd - ramp.derivative(t)) <= 1e-6 * max(1.0, abs(fd))


class TestBuildHCnot:
    def test_static_drive(self):
        h = build_h_cnot(CnotParams(), 0.0)
        assert np.allclose(np.diag(h), [1, 1, -1, -1])
        assert h[2, 3] == h[3, 2] == -0.5

    def test_at_j2_five(self):
        h = build_h_cnot(CnotParams(), 5.0)
        assert h[0, 0] == 6.0 and h[1, 1] == -4.0
        assert h[2, 2] == 4.0 and h[3, 3] == -6.0
        assert h[2, 3] == -0.5

    def test_sectors_never_couple(self):
        for j2 in (-7.0, 0.0, 0.3, 5.0):
            h = build_h_cnot(CnotParams(g=0.8), j2)
            assert np.abs(h[:2, 2:]).max() == 0.0
            assert np.abs(h[2:, :2]).max() == 0.0
            assert h[0, 1] == h[1, 0] == 0.0
            assert np.abs(h - h.conj().T).max() == 0.0


class TestAnalyticSpectrum:
    def test_minimum_gap_at_zero_drive(self):
        p = CnotParams()
        snap = analytic_spectrum(p, 0.0)
        assert snap.energies == (-1.5, -0.5, 1.0, 1.0)
        assert abs(snap.gap - 2 * p.g) < 1e-15
        for j2 in np.linspace(-10, 10, 201):
            assert analytic_spectrum(p, j2).gap >= snap.gap - 1e-15

    def test_matches_numeric_diagonalization(self):
        p = CnotParams()
        for j2 in np.linspace(-10.0, 10.0, 41):
            snap = analytic_spectrum(p, j2)
            h = build_h_cnot(p, j2)
            numeric = hermitian_eig(h)
            assert np.abs(np.sort(snap.energies) - numeric.eigenvalues).max() < 1e-11
            # sector eigenvectors match up to phase
            for energy, state in zip(snap.energies[:2], snap.states[:2]):
                residual = h @ state - energy * state
                assert np.abs(residual).max() < 1e-11

    def test_ground_state_overlap_value(self):
        p = CnotParams()
        snap = analytic_spectrum(p, 5.0)
        a_minus = 5.0 - np.sqrt(p.g ** 2 + 25.0)
        expected = p.g ** 2 / (p.g ** 2 + a_minus ** 2)
        assert abs(abs(snap.states[0][3]) ** 2 - expected) < 1e-14
        assert abs(expected - 0.99752) < 5e-6

    def test_ground_state_limits(self):
        p = CnotParams()
        assert abs(analytic_spectrum(p, 5.0).states[0][3]) ** 2 > 0.99
        assert abs(analytic_spectrum(p, -5.0).states[0][2]) ** 2 > 0.99

    def test_e3_e4_are_basis_states(self):
        snap = analytic_spectrum(CnotParams(), 3.3)
        assert np.array_equal(snap.states[2], [0, 1, 0, 0])
        assert np.array_equal(snap.states[3], [1, 0, 0, 0])

    def test_states_orthonormal(self):
        snap = analytic_spectrum(CnotParams(), 2.2)
        v = np.stack(snap.states, axis=1)
        assert np.abs(v.conj().T @ v - np.eye(4)).max() < 1e-12


class TestEffectiveLz:
    def test_static_matrix(self):
        h = effective_lz(CnotParams(), 0.0)
        assert np.allclose(h, [[-1.0, -0.5], [-0.5, -1.0]])

    def test_eigenvalues_match_sector(self):
        p = CnotParams()
        snap = analytic_spectrum(p, 5.0)
        vals = hermitian_eig(effective_lz(p, 5.0)).eigenvalues
        assert abs(vals[0] - snap.energies[0]) < 1e-12
        assert abs(vals[1] - snap.energies[1]) < 1e-12

    def test_trace_is_constant(self):
        p = CnotParams()
        for j2 in (-4.0, 0.0, 1.7, 9.0):
            assert abs(np.trace(effective_lz(p, j2)) + 2 * p.j1) < 1e-15


class TestCounterdiabatic:
    def test_zero_for_static_drive(self):
        assert np.abs(build_h_cd_analytic(CnotParams(), 3.0, 0.0)).max() == 0.0

    def test_idle_sector_rows_vanish(self):
        h = build_h_cd_analytic(CnotParams(), 1.3, 0.7)
        assert np.abs(h[:2, :]).max() == 0.0
        assert np.abs(h[:, :2]).max() == 0.0

    def test_matches_spectral_construction(self):
        p = CnotParams()
        hdot_dir = np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
        for j2 in (-6.0, -2.0, 0.0, 0.5, 2.0, 6.0):
            for j2dot in (0.3, 0.7, 1.5):
                closed = build_h_cd_analytic(p, j2, j2dot)
                spectral = build_h_cd_spectral(build_h_cnot(p, j2),
                                               j2dot * hdot_dir)
                assert np.abs(closed - spectral).max() < 1e-10

    def test_spectral_zero_hdot(self):
        h = build_h_cnot(CnotParams(), 2.0)
        out = build_h_cd_spectral(h, np.zeros((4, 4)))
        assert np.abs(out).max() < 1e-14

    def test_degenerate_crossing_is_decoupled(self):
        # at j2 = 0 the idle-sector levels cross but sigma_z2 cannot mix them
        p = CnotParams()
        hdot = 0.7 * np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
        out = build_h_cd_spectral(build_h_cnot(p, 0.0), hdot)
        assert np.abs(out - build_h_cd_analytic(p, 0.0, 0.7)).max() < 1e-10

    def test_cached_shape_matches_kron_and_is_never_aliased(self):
        p = CnotParams()
        shape = kron(SIGMA_Z - np.eye(2), SIGMA_Y)
        for j2, j2dot in ((0.0, 0.7), (1.3, -0.4), (-6.0, 2.5)):
            pref = -p.g * j2dot / (4.0 * (p.g ** 2 + j2 * j2))
            h = build_h_cd_analytic(p, j2, j2dot)
            assert h.tobytes() == (pref * shape).tobytes()
        first = build_h_cd_analytic(p, 1.3, 0.7)
        expected = build_h_cd_analytic(p, 1.3, 0.7).copy()
        first[...] = 99.0
        assert np.array_equal(build_h_cd_analytic(p, 1.3, 0.7), expected)

    def test_genuinely_singular_raises(self):
        h = np.diag([1.0, 1.0]).astype(complex)
        with pytest.raises(GapCollisionError):
            build_h_cd_spectral(h, SIGMA_X)

    def test_spectral_output_hermitian(self):
        p = CnotParams()
        hdot = 1.1 * np.diag([1.0, -1.0, 1.0, -1.0]).astype(complex)
        out = build_h_cd_spectral(build_h_cnot(p, 1.0), hdot)
        assert np.abs(out - out.conj().T).max() < 1e-14


class TestInverseEngineered:
    def test_zero_rate(self):
        assert np.abs(build_inverse_engineered(0.0)).max() == 0.0

    def test_linear_phase_gives_time_independent_h(self):
        ramp = linear_phase_ramp(tau=5.0)
        h1 = build_inverse_engineered(ramp.derivative(0.5))
        h2 = build_inverse_engineered(ramp.derivative(4.5))
        assert np.array_equal(h1, h2)

    def test_phase_ramp_boundaries(self):
        ramp = linear_phase_ramp(tau=3.0, n_offset=1)
        assert abs(ramp.value(0.0) - 2 * np.pi) < 1e-15
        assert abs(ramp.value(3.0) - 3 * np.pi) < 1e-15

    @pytest.mark.parametrize("n_offset", [10 ** 400, -10 ** 400, 10 ** 308,
                                          float("nan")],
                             ids=["int-too-large", "negative", "2pi-n-inf",
                                  "nan"])
    def test_phase_offset_must_be_finite(self, n_offset):
        # 10**400 raised OverflowError converting to a float
        with pytest.raises(PhaseOverflowError, match="2 pi n is not finite"):
            linear_phase_ramp(tau=1.0, n_offset=n_offset)

    def test_idle_sector_untouched(self):
        h = build_inverse_engineered(1.3)
        assert np.abs(h[:2, :]).max() == 0.0

    def test_cached_shape_matches_kron_and_is_never_aliased(self):
        shape = kron(SIGMA_Z - np.eye(2), SIGMA_X - np.eye(2))
        for phidot in (0.0, 1.3, -2.7, np.pi / 7.0):
            h = build_inverse_engineered(phidot)
            assert h.tobytes() == ((-phidot / 4.0) * shape).tobytes()
        first = build_inverse_engineered(1.3)
        first[...] = 99.0
        assert np.array_equal(build_inverse_engineered(1.3),
                              (-1.3 / 4.0) * shape)

    def test_cnot_unitary_shape(self):
        u = cnot_unitary()
        assert np.array_equal(u @ u, np.eye(4))
        assert u[2, 3] == u[3, 2] == 1.0


class TestNQubit:
    def test_two_qubit_reduction_is_exact(self):
        p = CnotParams()
        for j2 in (0.0, 5.0, -3.0):
            assert np.array_equal(build_h_n(2, p.j1, j2, p.g),
                                  build_h_cnot(p, j2))

    def test_cd_two_qubit_reduction(self):
        for j_n, j_n_dot in ((0.0, 1.0), (2.0, 0.7), (-4.0, 1.3)):
            a = build_h_cd_n(2, 0.5, j_n, j_n_dot)
            b = build_h_cd_analytic(CnotParams(), j_n, j_n_dot)
            assert np.abs(a - b).max() < 1e-15

    def test_zero_rate_cd(self):
        assert np.abs(build_h_cd_n(3, 0.5, 2.0, 0.0)).max() == 0.0

    def test_three_qubit_sector_structure(self):
        h = build_h_n(3, 1.0, 2.0, 0.5)
        off = h - np.diag(np.diag(h))
        coupled = np.zeros((8, 8), dtype=bool)
        coupled[6, 7] = coupled[7, 6] = True
        assert np.abs(off[~coupled]).max() == 0.0
        assert h[6, 7] == -0.5

    @settings(max_examples=100, derandomize=True, deadline=None,
              database=None)
    @given(g=st.floats(np.log(0.1), np.log(2.0)).map(np.exp),
           j=st.floats(-20.0, 20.0), j_dot=st.floats(-5.0, 5.0))
    def test_closed_form_cd_fields_match_spectral_anywhere(self, g, j, j_dot):
        # the fixed-grid checks above at drawn (g, J, Jdot), within their
        # bound; the worst deviation of such draws is recorded in
        # docs/noise_model.md
        hz = {2: np.diag([1.0, -1.0, 1.0, -1.0]),
              3: np.kron(np.eye(4), SIGMA_Z)}
        p = CnotParams(g=g)
        closed = {2: build_h_cd_analytic(p, j, j_dot),
                  3: build_h_cd_n(3, g, j, j_dot)}
        h = {2: build_h_cnot(p, j), 3: build_h_n(3, 1.0, j, g)}
        for n in (2, 3):
            spectral = build_h_cd_spectral(h[n], j_dot * hz[n].astype(complex))
            assert np.abs(closed[n] - spectral).max() < 1e-10, n

    def test_three_qubit_low_spectrum(self):
        vals = hermitian_eig(build_h_n(3, 1.0, 0.0, 0.5)).eigenvalues
        assert abs(vals[0] - (-2.5)) < 1e-12
        assert abs(vals[1] - (-1.5)) < 1e-12

    def test_three_qubit_cd_matches_spectral(self):
        hz3 = np.kron(np.eye(4), SIGMA_Z)
        for j_n, j_n_dot in ((-3.0, 0.8), (0.0, 1.0), (1.5, 2.0)):
            closed = build_h_cd_n(3, 0.5, j_n, j_n_dot)
            spectral = build_h_cd_spectral(build_h_n(3, 1.0, j_n, 0.5),
                                           j_n_dot * hz3.astype(complex))
            assert np.abs(closed - spectral).max() < 1e-10

    def test_qubit_count_bounds(self):
        with pytest.raises(DimensionTooLargeError):
            build_h_n(1, 1.0, 0.0, 0.5)
        with pytest.raises(DimensionTooLargeError):
            build_h_n(7, 1.0, 0.0, 0.5)

    def test_projector_selects_control_sector(self):
        proj = control_projector(3)
        diag = np.real(np.diag(proj))
        assert np.array_equal(diag, [0, 0, 0, 0, 0, 0, 1, 1])


class TestRampedSystems:
    def test_cnot_system_assembles_like_builders(self):
        p = CnotParams()
        system = cnot_system(p, tau=20.0, use_cd=True)
        for t in (-10.0, -3.0, 0.0, 4.0, 10.0):
            j2 = system.drive_value(t)
            expected = build_h_cnot(p, j2) + build_h_cd_analytic(p, j2, 0.5)
            assert np.abs(system(t) - expected).max() < 1e-14

    @settings(derandomize=True, max_examples=30, deadline=None,
              database=None)
    @given(j1=st.floats(0.1, 3.0), g=st.floats(0.05, 3.0),
           amp_factor=st.floats(1.0, 10.0),
           sign=st.sampled_from((1.0, -1.0)), tau=st.floats(0.05, 300.0),
           t_frac=st.floats(-0.5, 0.5), use_cd=st.booleans())
    def test_systems_match_closed_form_builders(self, j1, g, amp_factor, sign,
                                                tau, t_frac, use_cd):
        # |j2_amp| >= 4 max(j1, g) keeps CnotParams from warning; factors up
        # to 10 cover the doubled amplitude of a full-range ramp
        p = CnotParams(j1=j1, g=g, j2_amp=sign * 4.0 * max(j1, g) * amp_factor)
        t = t_frac * tau
        slope = p.j2_amp / tau
        j = slope * t

        gate = cnot_system(p, tau, use_cd)
        expected = build_h_cnot(p, j)
        if use_cd:
            expected = expected + build_h_cd_analytic(p, j, slope)
        assert np.abs(gate(t) - expected).max() <= 1e-12

        sector = lz_system(p, tau, use_cd)
        expected = effective_lz(p, j)
        if use_cd:
            expected = expected + g * slope / (2.0 * (g * g + j * j)) * SIGMA_Y
        assert np.abs(sector(t) - expected).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("use_cd", [False, True])
    def test_array_of_times_stacks_scalar_calls_bit_for_bit(self, n, use_cd):
        system = nqubit_system(n, CnotParams(), tau=6.0, use_cd=use_cd)
        ts = np.linspace(system.t_start, system.t_end, 12) + 1e-3
        stacked = system(ts)
        assert stacked.shape == (12, system.dim, system.dim)
        one_by_one = np.stack([system(t) for t in ts.tolist()])
        assert stacked.tobytes() == one_by_one.tobytes()
        # the scalar formula, one float coefficient at a time
        for t, h in zip(ts.tolist(), stacked):
            expected = system.h0 + system.drive_value(t) * system.hz
            if use_cd:
                expected = expected + system.cd_coefficient(t) * system.hcd
            assert h.tobytes() == expected.tobytes()
        # any array shape of times: (4, 3) times give (4, 3, dim, dim)
        grid = system(ts.reshape(4, 3))
        assert grid.reshape(stacked.shape).tobytes() == stacked.tobytes()
        assert system(0.3).shape == (system.dim, system.dim)
        assert system(np.float64(0.3)).shape == (system.dim, system.dim)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("use_cd", [False, True])
    def test_out_forms_equal_allocating_forms(self, n, use_cd):
        system = nqubit_system(n, CnotParams(), tau=6.0, use_cd=use_cd)
        ts = np.linspace(system.t_start, system.t_end, 11) + 1e-3
        # the columns of a coefficient block, strided, as the kernel writes
        block = np.full((11, 3), np.nan)
        drive = system.drive_value(ts, block[:, 1])
        cd = system.cd_coefficient(ts, block[:, 2])
        assert np.shares_memory(drive, block) and np.shares_memory(cd, block)
        assert np.array_equal(block[:, 1], system.drive_value(ts))
        assert np.array_equal(block[:, 2], system.cd_coefficient(ts))
        assert np.isnan(block[:, 0]).all()
        for t in ts.tolist():
            assert type(system.drive_value(t)) is float
            assert type(system.cd_coefficient(t)) is float

    def test_nqubit_system_matches_cnot_system(self):
        p = CnotParams()
        a = cnot_system(p, tau=8.0, use_cd=True)
        b = nqubit_system(2, p, tau=8.0, use_cd=True)
        assert np.array_equal(a.h0, b.h0)
        assert np.array_equal(a.hz, b.hz)
        assert np.array_equal(a.hcd, b.hcd)
        assert a.slope == b.slope

    def test_sector_states_match_two_qubit_spectrum(self):
        p = CnotParams()
        ground, excited = nqubit_sector_states(2, p.g, 3.0)
        snap = analytic_spectrum(p, 3.0)
        assert np.abs(ground - snap.states[0]).max() < 1e-14
        assert np.abs(excited - snap.states[1]).max() < 1e-14


class TestGateTerms:
    """``h0``, ``hz`` and ``hcd`` of a gate depend on n, j1 and g, not on
    tau: every system of one gate shares one read-only set of them."""

    @pytest.mark.parametrize("build", [
        lambda p, tau: cnot_system(p, tau),
        lambda p, tau: nqubit_system(4, p, tau, use_cd=True)],
        ids=["cnot", "n4-cd"])
    def test_systems_share_read_only_terms(self, build):
        p = CnotParams()
        a, b = build(p, 3.0), build(p, 70.0)
        assert a.slope != b.slope
        for name in ("h0", "hz", "hcd"):
            term = getattr(a, name)
            assert term is getattr(b, name)
            assert not term.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                term[0, 0] = 1.0
        # the same terms as built afresh
        n = a.dim.bit_length() - 1
        assert np.array_equal(a.h0, build_h_n(n, p.j1, 0.0, p.g))

    def test_other_params_build_other_terms(self):
        a = cnot_system(CnotParams(), 3.0)
        b = cnot_system(CnotParams(g=0.25), 3.0)
        assert a.h0 is not b.h0 and not np.array_equal(a.h0, b.h0)
        assert np.array_equal(a.hz, b.hz)

    def test_restricted_terms_are_writable_copies(self):
        system = nqubit_system(3, CnotParams(), 5.0, use_cd=True)
        sub = system.restricted([6, 7])
        for name in ("h0", "hz", "hcd"):
            term, full = getattr(sub, name), getattr(system, name)
            assert term.flags.writeable
            assert not np.shares_memory(term, full)
            assert np.array_equal(term, full[6:, 6:])

    def test_phase_shift_gives_a_writable_h0(self, monkeypatch):
        # schrodinger_evolve integrates the sector without its mean energy:
        # a new h0, not a write into the shared one
        from cdgate import dynamics

        integrated = []
        integrate = dynamics._integrate

        def spy(system, *args):
            integrated.append(system)
            return integrate(system, *args)

        monkeypatch.setattr(dynamics, "_integrate", spy)
        system = nqubit_system(3, CnotParams(), 5.0)
        h0 = system.h0.copy()
        psi0 = np.zeros(8, dtype=complex)
        psi0[6] = 1.0
        dynamics.schrodinger_evolve(system, psi0, dynamics.EvolutionConfig())
        (shifted,) = integrated
        assert shifted.h0.flags.writeable
        assert np.trace(shifted.h0) == 0.0
        assert not np.shares_memory(shifted.h0, system.h0)
        assert np.array_equal(system.h0, h0)  # the shared h0 is unchanged
