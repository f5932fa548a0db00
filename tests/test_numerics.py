import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cdgate.errors import DimensionMismatchError, NotHermitianError
from cdgate.model import SIGMA_X, SIGMA_Z, IDENTITY_2, CnotParams, analytic_spectrum, build_h_cnot
from cdgate.numerics import (
    commutator,
    dagger,
    frobenius_distance,
    hermitian_eig,
    kron,
    phase_insensitive_distance,
)

from conftest import random_hermitian, spectral_propagator


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(IDENTITY_2, IDENTITY_2), np.eye(4))

    def test_sz_times_identity(self):
        assert np.array_equal(kron(SIGMA_Z, IDENTITY_2),
                              np.diag([1, 1, -1, -1]).astype(complex))

    def test_sz_times_sx_hand_expansion(self):
        # sigma_z (x) sigma_x written out entry by entry
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 1] = expected[1, 0] = 1.0
        expected[2, 3] = expected[3, 2] = -1.0
        assert np.array_equal(kron(SIGMA_Z, SIGMA_X), expected)

    def test_associative_and_bilinear(self, rng):
        for _ in range(10):
            a = random_hermitian(rng, 2)
            b = random_hermitian(rng, 2)
            c = random_hermitian(rng, 2)
            left = kron(kron(a, b), c)
            right = kron(a, kron(b, c))
            assert np.abs(left - right).max() < 1e-12
            s, t = rng.standard_normal(2)
            mix = kron(s * a + t * b, c)
            assert np.abs(mix - (s * kron(a, c) + t * kron(b, c))).max() < 1e-12


class TestHermitianEig:
    def test_diagonal_input(self):
        dec = hermitian_eig(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert np.allclose(dec.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)
        perm = np.abs(dec.eigenvectors)
        assert np.allclose(perm, np.array([[0, 0, 1], [1, 0, 0], [0, 1, 0.0]]),
                           atol=1e-14)

    def test_sigma_x(self):
        dec = hermitian_eig(SIGMA_X)
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
        root2 = np.sqrt(0.5)
        assert np.allclose(dec.eigenvectors[:, 0], [root2, -root2], atol=1e-12)
        assert np.allclose(dec.eigenvectors[:, 1], [root2, root2], atol=1e-12)

    def test_matches_closed_form_spectrum(self):
        params = CnotParams(j1=1.0, g=0.5, j2_amp=10.0)
        h = build_h_cnot(params, 5.0)
        dec = hermitian_eig(h)
        expected = np.sort(analytic_spectrum(params, 5.0).energies)
        assert np.abs(dec.eigenvalues - expected).max() < 1e-12

    def test_reconstruction_random(self, rng):
        for dim in (2, 4, 4, 4, 8):
            h = random_hermitian(rng, dim)
            dec = hermitian_eig(h)
            rebuilt = (dec.eigenvectors * dec.eigenvalues) @ dec.eigenvectors.conj().T
            rel = np.linalg.norm(rebuilt - h) / np.linalg.norm(h)
            assert rel < 1e-11

    def test_orthonormal_columns(self, rng):
        for dim in (4, 8, 16):
            dec = hermitian_eig(random_hermitian(rng, dim))
            gram = dec.eigenvectors.conj().T @ dec.eigenvectors
            assert np.abs(gram - np.eye(dim)).max() < 1e-12

    def test_agrees_with_lapack(self, rng):
        # hermitian_eig is LAPACK, so its reference is independent of it:
        # at dim 64 the residuals of the decomposition, at dims 4 and 8
        # mpmath's Hermitian eigensolver at 30 digits
        h = random_hermitian(rng, 64)
        dec = hermitian_eig(h)
        v, w = dec.eigenvectors, dec.eigenvalues
        scale = np.linalg.norm(h, 2)
        assert np.linalg.norm((v * w) @ v.conj().T - h, 2) < 1e-13 * 64 * scale
        assert np.linalg.norm(v.conj().T @ v - np.eye(64), 2) < 1e-13 * 64
        mpmath = pytest.importorskip("mpmath")
        for dim in (4, 8):
            h = random_hermitian(rng, dim)
            dec = hermitian_eig(h)
            with mpmath.workdps(30):
                values, vectors = mpmath.eigh(mpmath.matrix(h.tolist()))
                order = sorted(range(dim), key=lambda i: values[i])
                exact = np.array([float(values[i]) for i in order])
                exact_v = np.array([[complex(vectors[r, i]) for i in order]
                                    for r in range(dim)])
            assert np.abs(dec.eigenvalues - exact).max() < 1e-13 * max(
                1.0, np.abs(exact).max())
            # columns agree up to a phase: |<exact_i|ours_i>| = 1
            overlaps = np.abs(np.sum(exact_v.conj() * dec.eigenvectors, axis=0))
            assert np.abs(overlaps - 1.0).max() < 1e-12

    def test_shift_invariance(self, rng):
        h = random_hermitian(rng, 4)
        base = hermitian_eig(h).eigenvalues
        shifted = hermitian_eig(h + 2.5 * np.eye(4)).eigenvalues
        assert np.abs(shifted - (base + 2.5)).max() < 1e-12

    def test_rejects_non_hermitian(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotHermitianError):
            hermitian_eig(bad)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(NotHermitianError):
            hermitian_eig(np.diag([1.0, 1.0, bad]))
        # LAPACK reads the lower triangle only, so it would never see this
        upper = np.eye(2, dtype=complex)
        upper[0, 1] = bad
        with pytest.raises(NotHermitianError):
            hermitian_eig(upper)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(dim=st.integers(2, 16), seed=st.integers(0, 2**32 - 1),
           repeats=st.integers(0, 16))
    def test_properties(self, dim, seed, repeats):
        """Random Hermitian matrices, or with ``repeats >= 2`` a rotated
        spectrum with an eigenvalue of that multiplicity (capped at
        ``dim``): ``U diag(1, ..., 1, e_m, ...) U^H``."""
        rng = np.random.default_rng(seed)
        if repeats < 2:
            h = random_hermitian(rng, dim)
        else:
            m = min(repeats, dim)
            spectrum = np.concatenate([np.ones(m),
                                       rng.uniform(-3.0, 3.0, dim - m)])
            u, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                                + 1j * rng.standard_normal((dim, dim)))
            h = (u * spectrum) @ u.conj().T
        dec = hermitian_eig(h)
        w, v = dec.eigenvalues, dec.eigenvectors
        assert np.all(np.diff(w) >= 0.0)
        if repeats >= 2:
            assert np.abs(w - np.sort(spectrum)).max() < 1e-12
        assert np.abs(v.conj().T @ v - np.eye(dim)).max() < 1e-12
        rebuilt = (v * w) @ v.conj().T
        assert np.linalg.norm(rebuilt - h) / np.linalg.norm(h) < 1e-11
        for column in v.T:
            pivot = column[np.argmax(np.abs(column))]
            assert pivot.real > 0.0
            assert abs(pivot.imag) <= 1e-15 * pivot.real


class TestElementaryOps:
    def test_self_commutator_vanishes(self):
        assert np.abs(commutator(SIGMA_Z, SIGMA_Z)).max() == 0.0

    def test_dagger_of_hermitian(self, rng):
        h = random_hermitian(rng, 4)
        assert np.abs(dagger(h) - h).max() < 1e-15

    def test_phase_insensitive_distance_ignores_global_phase(self, rng):
        h = random_hermitian(rng, 4)
        u = spectral_propagator(h, 0.7)
        v = np.exp(1j * np.pi / 3.0) * u
        assert frobenius_distance(u, v) > 0.1
        assert phase_insensitive_distance(u, v) < 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            commutator(SIGMA_X, np.eye(4))
        with pytest.raises(DimensionMismatchError):
            frobenius_distance(SIGMA_X, np.eye(4))
