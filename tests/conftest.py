import numpy as np
import pytest

from cdgate.model import CnotParams


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
    """The flattened diagonal ``alpha (d_a d_c - 1)`` that ``lindblad_evolve``
    puts into the Liouvillian for the +-1 jump diagonal ``d``."""
    return (alpha * (np.outer(d, d) - 1.0)).ravel()
