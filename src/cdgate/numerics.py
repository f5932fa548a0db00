"""Dense complex linear algebra sized for 2^N x 2^N problems (N <= 6).

States are 1-D ``complex128`` arrays, operators square 2-D ``complex128``
arrays; elementary operations are thin, shape-checked wrappers over numpy.
The Hermitian eigensolver is LAPACK's, through ``np.linalg.eigh``; it checks
the closed-form spectra. Its precondition rejects non-Hermitian and
non-finite input, which LAPACK would not: it reads one triangle only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, NotHermitianError


@dataclass(frozen=True)
class Tolerances:
    """Central numeric tolerances used across the package."""

    hermiticity: float = 1e-10        # relative ||H - H^dag|| precondition
    norm_drift: float = 1e-8          # | ||psi||^2 - 1 | monitor limit
    trace_drift: float = 1e-8
    positivity_floor: float = 1e-6    # eigenvalues >= -floor for valid rho
    gap_collision: float = 1e-8       # relative near-degeneracy cutoff in CD
    cd_element: float = 1e-10         # coupling below this decouples a crossing
    normalization: float = 1e-10      # | ||psi|| - 1 | preconditions


TOL = Tolerances()


@dataclass(frozen=True)
class EigenDecomposition:
    """Ascending eigenvalues with orthonormal eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def as_operator(m) -> np.ndarray:
    m = np.asarray(m, dtype=np.complex128)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {m.shape}")
    return m


def as_state(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.complex128)
    if v.ndim != 1:
        raise DimensionMismatchError(f"expected a 1-D state vector, got shape {v.shape}")
    return v


def kron(a, b) -> np.ndarray:
    """Kronecker product; the first factor is the leftmost qubit."""
    return np.kron(as_operator(a), as_operator(b))


def _operator_pair(a, b, what: str) -> tuple[np.ndarray, np.ndarray]:
    """``a`` and ``b`` as operators of one shape, or an error for ``what``."""
    a, b = as_operator(a), as_operator(b)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"{what} needs equal shapes, got {a.shape}, {b.shape}")
    return a, b


def commutator(a, b) -> np.ndarray:
    a, b = _operator_pair(a, b, "commutator")
    return a @ b - b @ a


def frobenius_distance(u, v) -> float:
    u, v = _operator_pair(u, v, "distance")
    return float(np.linalg.norm(u - v))


def phase_insensitive_distance(u, v) -> float:
    """min over a global phase of ||U - e^{i phi} V||_F."""
    u, v = _operator_pair(u, v, "distance")
    nu2 = np.linalg.norm(u) ** 2
    nv2 = np.linalg.norm(v) ** 2
    overlap = abs(np.trace(u.conj().T @ v))
    return float(np.sqrt(max(nu2 + nv2 - 2.0 * overlap, 0.0)))


@np.errstate(over="ignore", invalid="ignore")  # an overflow is no warning
def hermiticity_defect(m) -> float:
    """||H - H^dag||_inf relative to ||H||_inf (0 for the zero matrix, inf
    for a matrix with a NaN or infinite entry)."""
    m = as_operator(m)
    if not np.isfinite(m).all():
        return math.inf
    scale = np.abs(m).max()
    if scale == 0.0:
        return 0.0
    return float(np.abs(m - m.conj().T).max() / scale)


def hermitian_eig(h) -> EigenDecomposition:
    """Diagonalize a Hermitian matrix with LAPACK (``np.linalg.eigh``).

    Eigenvalues come back ascending; each eigenvector's largest-magnitude
    component is made real and positive so comparisons are deterministic.
    """
    h = as_operator(h)
    defect = hermiticity_defect(h)
    if defect > TOL.hermiticity:
        raise NotHermitianError(
            f"matrix is not Hermitian (relative defect {defect:.3e})"
        )
    w, v = np.linalg.eigh(h)
    for k in range(v.shape[1]):
        i = int(np.argmax(np.abs(v[:, k])))
        pivot = v[i, k]
        if abs(pivot) > 0.0:
            v[:, k] *= np.conj(pivot) / abs(pivot)
    return EigenDecomposition(eigenvalues=w, eigenvectors=v)
