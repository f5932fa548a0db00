"""Scalar figures of merit: fidelities, transition probability, LZ formula."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidDensityMatrixError, NotNormalizedError
from .model import CnotParams, analytic_spectrum
from .numerics import TOL, as_operator, as_state


@dataclass(frozen=True)
class FidelityPoint:
    t: float
    value: float


def _require_normalized(psi: np.ndarray, name: str) -> None:
    norm = float(np.linalg.norm(psi))
    if not abs(norm - 1.0) <= TOL.normalization:  # a NaN norm fails too
        raise NotNormalizedError(f"{name} has norm {norm}, expected 1")


def validate_density_matrix(rho) -> np.ndarray:
    rho = as_operator(rho)
    if not np.isfinite(rho).all():
        raise InvalidDensityMatrixError("density matrix is not finite")
    if np.abs(rho - rho.conj().T).max() > 1e-10 * max(np.abs(rho).max(), 1.0):
        raise InvalidDensityMatrixError("density matrix is not Hermitian")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TOL.trace_drift:
        raise InvalidDensityMatrixError(f"density matrix has trace {tr}")
    smallest = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2.0).min())
    if smallest < -TOL.positivity_floor:
        raise InvalidDensityMatrixError(
            f"density matrix has eigenvalue {smallest} below "
            f"-{TOL.positivity_floor}"
        )
    return rho


def fidelity_pure(psi, target) -> float:
    """|<psi|target>|^2 for normalized pure states."""
    psi, target = as_state(psi), as_state(target)
    _require_normalized(psi, "psi")
    _require_normalized(target, "target")
    return float(abs(np.vdot(psi, target)) ** 2)


def fidelity_mixed(rho, target) -> float:
    """<target|rho|target> for a valid density matrix and pure target."""
    rho = validate_density_matrix(rho)
    target = as_state(target)
    _require_normalized(target, "target")
    value = complex(np.vdot(target, rho @ target))
    return float(value.real)


def transition_probability(psi_final, params: CnotParams,
                           j2_final: float) -> float:
    """|<E2(j2_final)|psi>|^2, the sector excitation probability."""
    psi_final = as_state(psi_final)
    _require_normalized(psi_final, "psi_final")
    excited = analytic_spectrum(params, j2_final).states[1]
    return float(abs(np.vdot(excited, psi_final)) ** 2)


def lz_formula(g: float, j2_amp: float, tau: float) -> float:
    """Landau-Zener transition probability exp(-pi g^2 tau / J2) for the
    linear drive J2(t) = j2_amp t / tau."""
    if not 0 < j2_amp < np.inf:
        raise ValueError(f"j2_amp must be positive and finite, got {j2_amp}")
    if not 0 <= tau < np.inf:
        raise ValueError(f"tau must be non-negative and finite, got {tau}")
    return float(np.exp(-np.pi * g * g * tau / j2_amp))
