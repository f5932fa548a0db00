import numpy as np
import pytest

from cdgate.model import CnotParams
from cdgate.numerics import hermitian_eig


@pytest.fixture
def params():
    return CnotParams(j1=1.0, g=0.5, j2_amp=10.0)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_hermitian(rng, dim):
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (a + a.conj().T) / 2.0


def random_state(rng, dim):
    v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return v / np.linalg.norm(v)


def dephasing_dissipator(d, alpha):
    """The ``(dim, dim)`` block ``alpha (d_a d_c - 1)`` that
    ``lindblad_evolve`` builds for the +-1 jump diagonal ``d``: the
    commutator form takes it as it is, the Liouvillian form flattened."""
    return alpha * (np.outer(d, d) - 1.0)


def spectral_propagator(h, duration):
    """exp(-i H t) for time-independent Hermitian H, via the eigensolver:
    the oracle of a constant-Hamiltonian evolution."""
    dec = hermitian_eig(h)
    phases = np.exp(-1j * dec.eigenvalues * duration)
    return (dec.eigenvectors * phases) @ dec.eigenvectors.conj().T
