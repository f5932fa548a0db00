import warnings

import numpy as np
import pytest

from cdgate.errors import InvalidDensityMatrixError, NotNormalizedError
from cdgate.model import analytic_spectrum
from cdgate.observables import (
    fidelity_mixed,
    fidelity_pure,
    lz_formula,
    transition_probability,
)

from conftest import random_state

KET_10 = np.array([0, 0, 1, 0], dtype=complex)
KET_11 = np.array([0, 0, 0, 1], dtype=complex)


class TestFidelityPure:
    def test_identical_states(self):
        assert fidelity_pure(KET_11, KET_11) == 1.0

    def test_orthogonal_basis_states(self):
        assert fidelity_pure(KET_10, KET_11) == 0.0

    def test_equal_superposition(self):
        psi = (KET_10 + KET_11) / np.sqrt(2)
        assert abs(fidelity_pure(psi, KET_11) - 0.5) < 1e-15

    def test_rejects_unnormalized(self):
        with pytest.raises(NotNormalizedError):
            fidelity_pure(2.0 * KET_11, KET_11)
        with pytest.raises(NotNormalizedError):
            fidelity_pure(KET_11, 0.5 * KET_11)

    def test_rejects_a_nan_entry(self):
        # a NaN norm passed the check and gave a NaN fidelity
        psi = KET_11 + np.array([np.nan, 0, 0, 0])
        for a, b in ((psi, KET_11), (KET_11, psi)):
            with pytest.raises(NotNormalizedError, match="norm nan"):
                fidelity_pure(a, b)

    def test_rejects_a_huge_state_without_a_warning(self):
        # its squared norm overflowed with a RuntimeWarning
        huge = np.array([1e200, 0, 0, 0])
        for a, b in ((huge, KET_11), (KET_11, huge)):
            with warnings.catch_warnings(), \
                    pytest.raises(NotNormalizedError, match="norm inf"):
                warnings.simplefilter("error")
                fidelity_pure(a, b)


class TestFidelityMixed:
    def test_rejects_a_huge_target_without_a_warning(self):
        rho = np.outer(KET_11, KET_11.conj())
        with warnings.catch_warnings(), \
                pytest.raises(NotNormalizedError, match="norm inf"):
            warnings.simplefilter("error")
            fidelity_mixed(rho, np.array([1e200, 0, 0, 0]))

    def test_pure_projector(self):
        rho = np.outer(KET_11, KET_11.conj())
        assert abs(fidelity_mixed(rho, KET_11) - 1.0) < 1e-15

    def test_maximally_mixed(self):
        assert abs(fidelity_mixed(np.eye(4) / 4.0, KET_11) - 0.25) < 1e-15

    def test_sector_mixed_gives_half(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[2, 2] = rho[3, 3] = 0.5
        assert abs(fidelity_mixed(rho, KET_11) - 0.5) < 1e-15

    def test_agrees_with_pure_fidelity(self, rng):
        for _ in range(20):
            psi = random_state(rng, 4)
            target = random_state(rng, 4)
            rho = np.outer(psi, psi.conj())
            assert abs(fidelity_mixed(rho, target)
                       - fidelity_pure(psi, target)) < 1e-12

    def test_rejects_invalid_density_matrices(self):
        with pytest.raises(InvalidDensityMatrixError):
            fidelity_mixed(np.eye(4), KET_11)  # trace 4
        with pytest.raises(InvalidDensityMatrixError):
            bad = np.zeros((4, 4), dtype=complex)
            bad[0, 1] = 1.0
            bad[0, 0] = 1.0
            fidelity_mixed(bad, KET_11)  # not Hermitian
        with pytest.raises(InvalidDensityMatrixError):
            neg = np.diag([1.5, -0.5, 0, 0]).astype(complex)
            fidelity_mixed(neg, KET_11)  # negative eigenvalue

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, entry):
        # an all-NaN matrix passed every check and gave a NaN fidelity; an
        # inf entry raised a RuntimeWarning from the Hermiticity check
        for bad in (np.full((4, 4), entry, dtype=complex),
                    np.diag([entry, 0, 0, 0]).astype(complex)):
            with pytest.raises(InvalidDensityMatrixError, match="not finite"):
                fidelity_mixed(bad, KET_11)


class TestTransitionProbability:
    def test_eigenstates(self, params):
        snap = analytic_spectrum(params, 5.0)
        assert abs(transition_probability(snap.states[1], params, 5.0) - 1.0) < 1e-14
        assert transition_probability(snap.states[0], params, 5.0) < 1e-14

    def test_complementarity_in_sector(self, params, rng):
        from cdgate.dynamics import ground_state_probability

        for _ in range(10):
            amps = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            amps = amps / np.linalg.norm(amps)
            psi = np.zeros(4, dtype=complex)
            psi[2], psi[3] = amps
            total = (transition_probability(psi, params, 3.0)
                     + ground_state_probability(psi, params, 3.0))
            assert abs(total - 1.0) < 1e-10


class TestLzFormula:
    def test_sudden_limit(self):
        assert lz_formula(0.5, 10.0, 0.0) == 1.0

    def test_reference_points(self):
        # direct evaluation of exp(-pi g^2 tau / J2)
        assert abs(lz_formula(0.5, 10.0, 40.0) - np.exp(-np.pi)) < 1e-15
        assert abs(np.exp(-np.pi) - 0.0432) < 1e-4
        assert abs(lz_formula(0.5, 10.0, 10.0) - np.exp(-np.pi / 4)) < 1e-15
        assert abs(np.exp(-np.pi / 4) - 0.4559) < 1e-4

    def test_validation(self):
        with pytest.raises(ValueError):
            lz_formula(0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            lz_formula(0.5, 10.0, -1.0)

    @pytest.mark.parametrize("g", [np.nan, -1.0, 0.0, np.inf])
    def test_bad_coupling_rejected(self, g):
        # a NaN g gave NaN, and g = -1 gave 0.730, as g = 1 does
        with pytest.raises(ValueError, match="g must be positive and finite"):
            lz_formula(g, 10.0, 1.0)

    @pytest.mark.parametrize("j2_amp, tau", [(np.nan, 1.0), (10.0, np.nan),
                                             (np.inf, np.inf)])
    def test_non_finite_input_rejected(self, j2_amp, tau):
        # each returned NaN
        with pytest.raises(ValueError, match="finite"):
            lz_formula(0.5, j2_amp, tau)

    def test_bounded(self):
        for tau in np.linspace(0, 50, 20):
            assert 0.0 <= lz_formula(0.4, 8.0, tau) <= 1.0
