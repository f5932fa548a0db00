"""Hamiltonians for the driven CNOT gate and its N-qubit generalization.

Builds the two-qubit gate Hamiltonian with its closed-form spectrum, the
effective two-level (Landau-Zener) reduction, the counterdiabatic control
field in both closed form and generic spectral form, the inverse-engineered
exact gate Hamiltonian, and linear drive schedules. Basis order is the
computational basis |00>, |01>, |10>, |11> with the control qubit leftmost;
only the {|10>, |11>} sector couples.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionTooLargeError,
    GapCollisionError,
    NonPositiveTauError,
    NotHermitianError,
    PhaseOverflowError,
)
from .numerics import (TOL, _operator_pair, hermitian_eig,
                       hermiticity_defect, kron)

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
IDENTITY_2 = np.eye(2, dtype=np.complex128)


def cnot_unitary() -> np.ndarray:
    """The target CNOT matrix: swaps |10> and |11>, fixes the rest."""
    u = np.eye(4, dtype=np.complex128)
    u[2:, 2:] = SIGMA_X
    return u


@dataclass(frozen=True)
class CnotParams:
    """Physical constants: J1 sets the energy scale, g the sector coupling,
    j2_amp the drive amplitude in J2(t) = j2_amp * t / tau."""

    j1: float = 1.0
    g: float = 0.5
    j2_amp: float = 10.0

    def __post_init__(self):
        if not 0 < self.g < np.inf:
            raise ValueError(f"g must be positive and finite, got {self.g}")
        if not 0 < self.j1 < np.inf:
            raise ValueError(f"j1 must be positive and finite, got {self.j1}")
        if not 0 < abs(self.j2_amp) < np.inf:
            raise ValueError(f"j2_amp must be nonzero and finite, got {self.j2_amp}")
        # the spectrum, the start states and the CD term form g^2 + J^2
        g, j2_amp = float(self.g), float(self.j2_amp)
        if g * g < np.finfo(np.float64).tiny:
            raise ValueError(f"g^2 underflows, got g={self.g}")
        if g * g + j2_amp * j2_amp == np.inf:
            raise ValueError(f"g^2 + j2_amp^2 overflows, got g={self.g}, "
                             f"j2_amp={self.j2_amp}")
        # the gate sector's trace, 2 (n - 1) j1, is 10 j1 at n = 6
        if 10.0 * float(self.j1) == np.inf:
            raise ValueError(f"10 j1 overflows, got j1={self.j1}")
        if abs(self.j2_amp) < 4.0 * max(self.j1, self.g):
            warnings.warn(
                f"|j2_amp|={abs(self.j2_amp)} is not much larger than "
                f"j1={self.j1}, g={self.g}; the gate endpoints will not be "
                "close to computational basis states",
                stacklevel=2,
            )


@dataclass(frozen=True)
class DriveSchedule:
    """A linear drive ``value(t) = offset + rate * t`` on [t_start, t_end]."""

    rate: float
    offset: float
    t_start: float
    t_end: float

    def value(self, t: float) -> float:
        return self.offset + self.rate * t

    def derivative(self, t: float) -> float:
        return self.rate


def _rate(span: float, tau: float) -> float:
    """A ramp's rate ``span / tau``, in Python floats so that an overflow
    does not warn; ``NonPositiveTauError`` unless tau and rate are finite
    and tau positive."""
    if not 0 < tau < np.inf:
        raise NonPositiveTauError(f"tau must be positive and finite, got {tau}")
    if not math.isfinite(rate := float(span) / float(tau)):
        raise NonPositiveTauError(f"tau {tau} is so short that the ramp rate "
                                  f"{span} / tau overflows")
    return rate


def linear_ramp(params: CnotParams, tau: float) -> DriveSchedule:
    """J2(t) = j2_amp * t / tau on [-tau/2, tau/2]; the endpoints reach
    +-j2_amp/2 (a ramp to +-J2 is ``j2_amp = 2 J2``)."""
    return DriveSchedule(rate=_rate(params.j2_amp, tau), offset=0.0,
                         t_start=-tau / 2.0, t_end=tau / 2.0)


def linear_phase_ramp(tau: float, n_offset: int = 0) -> DriveSchedule:
    """phi(t) = 2 pi n + pi t / tau on [0, tau], so phi(0) = 2 pi n and
    phi(tau) = (2n + 1) pi; ``PhaseOverflowError`` unless 2 pi n is finite."""
    try:  # in Python floats, so that an overflow does not warn
        offset = 2.0 * math.pi * float(n_offset)
    except OverflowError:  # an int too large for a float
        offset = math.inf
    if not math.isfinite(offset):
        raise PhaseOverflowError("the phase offset 2 pi n is not finite")
    return DriveSchedule(rate=_rate(np.pi, tau), offset=offset,
                         t_start=0.0, t_end=tau)


def build_h_cnot(params: CnotParams, j2: float) -> np.ndarray:
    """Gate Hamiltonian at drive value j2: diag(K+, K-) on the idle sector
    and [[-K-, -g], [-g, -K+]] on the {|10>, |11>} sector."""
    kp, km = params.j1 + j2, params.j1 - j2
    h = np.diag(np.array([kp, km, -km, -kp], dtype=np.complex128))
    h[2, 3] = h[3, 2] = -params.g
    return h


@dataclass(frozen=True)
class SpectrumSnapshot:
    """Closed-form eigensystem of the gate Hamiltonian at one drive value.

    Energies follow the sector labeling (E1 <= E2 span the coupled sector,
    E3 and E4 belong to |01> and |00>), not a global sort.
    """

    energies: tuple[float, float, float, float]
    states: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]
    gap: float


def analytic_spectrum(params: CnotParams, j2: float) -> SpectrumSnapshot:
    """Closed-form instantaneous eigenenergies and eigenstates.

    E1 = -alpha_+ - K_-, E2 = alpha_+ - K_+, E3 = K_-, E4 = K_+ with
    alpha_pm = j2 +- sqrt(g^2 + j2^2); the sector eigenvectors are
    ``nqubit_sector_states(2, g, j2)``.
    """
    g = params.g
    a_plus = j2 + np.sqrt(g * g + j2 * j2)
    kp = params.j1 + j2
    km = params.j1 - j2
    e1 = -a_plus - km
    e2 = a_plus - kp
    v1, v2 = nqubit_sector_states(2, g, j2)
    v3 = np.array([0.0, 1.0, 0.0, 0.0], dtype=np.complex128)
    v4 = np.array([1.0, 0.0, 0.0, 0.0], dtype=np.complex128)
    return SpectrumSnapshot(
        energies=(float(e1), float(e2), float(km), float(kp)),
        states=(v1, v2, v3, v4),
        gap=float(e2 - e1),
    )


def effective_lz(params: CnotParams, j2: float) -> np.ndarray:
    """Two-level reduction on the {|10>, |11>} sector:
    j2 * sigma_z - g * sigma_x - j1 * identity."""
    return (j2 * SIGMA_Z - params.g * SIGMA_X
            - params.j1 * IDENTITY_2).astype(np.complex128)


# The constant operator shapes of the closed-form fields, built once: each
# field is a scalar times its shape, returned as a fresh array.
_CD_ANALYTIC_SHAPE = kron(SIGMA_Z - IDENTITY_2, SIGMA_Y)
_INVERSE_ENGINEERED_SHAPE = kron(SIGMA_Z - IDENTITY_2, SIGMA_X - IDENTITY_2)


def build_h_cd_analytic(params: CnotParams, j2: float,
                        j2dot: float) -> np.ndarray:
    """Closed-form counterdiabatic field:
    -(g * j2dot / (4 (g^2 + j2^2))) (sigma_z1 - 1)(sigma_y2)."""
    pref = -params.g * j2dot / (4.0 * (params.g ** 2 + j2 * j2))
    return pref * _CD_ANALYTIC_SHAPE


def build_h_cd_spectral(h, hdot) -> np.ndarray:
    """Generic counterdiabatic field from the spectral formula,

        i * sum_{m != n} |E_m> <E_m|Hdot|E_n> / (E_n - E_m) <E_n|.

    Near-degenerate pairs (|E_n - E_m| below ``TOL.gap_collision`` scaled
    by the spectral range) contribute nothing when the coupling element is
    below ``TOL.cd_element``; a large element at a tiny gap is a genuinely
    singular construction and raises GapCollisionError. ``h`` and ``hdot``
    must be Hermitian (``NotHermitianError``) and of one shape
    (``DimensionMismatchError``).
    """
    h, hdot = _operator_pair(h, hdot, "build_h_cd_spectral")
    if hermiticity_defect(hdot) > TOL.hermiticity:
        raise NotHermitianError("hdot is not Hermitian")
    dec = hermitian_eig(h)
    w, v = dec.eigenvalues, dec.eigenvectors
    gap_cut = TOL.gap_collision * max(1.0, float(np.abs(w).max()))
    coupling = v.conj().T @ hdot @ v
    gap = w - w[:, None]  # E_n - E_m at [m, n]
    off = ~np.eye(w.size, dtype=bool)
    near = off & (np.abs(gap) < gap_cut)
    singular = np.argwhere(near & (np.abs(coupling) >= TOL.cd_element))
    if singular.size:
        m, n = singular[0]
        raise GapCollisionError(
            f"eigenvalue gap {abs(gap[m, n]):.3e} below tolerance with "
            f"coupling {abs(coupling[m, n]):.3e}; counterdiabatic field is "
            "singular at this point")
    far = off & ~near
    core = np.zeros_like(coupling)
    core[far] = 1j * coupling[far] / gap[far]
    out = v @ core @ v.conj().T
    return (out + out.conj().T) * 0.5


def build_inverse_engineered(phidot: float) -> np.ndarray:
    """Inverse-engineered gate Hamiltonian
    -(phidot / 4)(sigma_z1 - 1)(sigma_x2 - 1); generates an exact CNOT when
    the phase advances by an odd multiple of pi."""
    return (-phidot / 4.0) * _INVERSE_ENGINEERED_SHAPE


def _check_qubit_count(n: int) -> None:
    if not 2 <= n <= 6:
        raise DimensionTooLargeError(
            f"supported qubit counts are 2..6, got {n}"
        )


def _op_on(op: np.ndarray, site: int, n: int) -> np.ndarray:
    ops = [IDENTITY_2] * n
    ops[site] = op
    return functools.reduce(np.kron, ops)


def control_projector(n: int) -> np.ndarray:
    """Projector onto |1...1> of the first n-1 qubits, identity on the last:
    prod_{i<n} (1 - sigma_z_i)/2."""
    _check_qubit_count(n)
    return functools.reduce(
        np.kron, [(IDENTITY_2 - SIGMA_Z) / 2.0] * (n - 1) + [IDENTITY_2])


def build_h_n(n: int, j: float, j_n: float, g: float) -> np.ndarray:
    """N-qubit gate Hamiltonian
    J sum_{i<n} sigma_z_i + J_N sigma_z_N - g P sigma_x_N, where P projects
    the first n-1 qubits onto |1...1>. For n=2 this equals the two-qubit
    gate Hamiltonian entrywise."""
    _check_qubit_count(n)
    dim = 2 ** n
    h = np.zeros((dim, dim), dtype=np.complex128)
    for i in range(n - 1):
        h += j * _op_on(SIGMA_Z, i, n)
    h += j_n * _op_on(SIGMA_Z, n - 1, n)
    h -= g * (control_projector(n) @ _op_on(SIGMA_X, n - 1, n))
    return h


def build_h_cd_n(n: int, g: float, j_n: float, j_n_dot: float) -> np.ndarray:
    """N-qubit counterdiabatic field
    (g Jdot_N / (2 (g^2 + J_N^2))) P sigma_y_N."""
    _check_qubit_count(n)
    pref = g * j_n_dot / (2.0 * (g * g + j_n * j_n))
    return pref * (control_projector(n) @ _op_on(SIGMA_Y, n - 1, n))


def nqubit_sector_states(n: int, g: float, j_n: float) -> tuple[np.ndarray, np.ndarray]:
    """Ground and excited eigenstates of the coupled {|1..10>, |1..11>}
    sector of the N-qubit Hamiltonian: components (-a, g) / sqrt(g^2 + a^2)
    on that pair, with a = j_n -+ sqrt(g^2 + j_n^2)."""
    _check_qubit_count(n)
    dim = 2 ** n
    root = np.sqrt(g * g + j_n * j_n)
    ground = np.zeros(dim, dtype=np.complex128)
    excited = np.zeros(dim, dtype=np.complex128)
    for vec, a in ((ground, j_n - root), (excited, j_n + root)):
        norm = np.sqrt(g * g + a * a)
        vec[dim - 2] = -a / norm
        vec[dim - 1] = g / norm
    return ground, excited


@dataclass(frozen=True)
class RampedGateHamiltonian:
    """H(t) = h0 + J(t) hz + c(t) hcd with J(t) = slope * t linear in time.

    This is the structured form the ramped evolution kernels understand;
    calling it returns the assembled matrix at time t, or the matrices
    stacked over an array of times (shape ``t.shape + (dim, dim)``) with the
    same elementwise arithmetic, so each equals its scalar call bit for bit.
    ``hcd`` uses the projector normalization,
    c(t) = g * slope / (2 (g^2 + J^2)). ``drive_value`` and
    ``cd_coefficient`` are the only place J(t) and c(t) are written; both
    take a float or a numpy array of times. A float gives a float; for an
    array, ``out`` (an array of its shape, a strided view included) is
    written in place with the same operations in the same order, and
    returned.
    """

    h0: np.ndarray
    hz: np.ndarray
    hcd: np.ndarray
    slope: float
    g: float
    use_cd: bool
    t_start: float
    t_end: float

    @property
    def dim(self) -> int:
        return self.h0.shape[0]

    def drive_value(self, t, out=None):
        if out is None:
            return self.slope * t
        return np.multiply(self.slope, t, out=out)

    def cd_coefficient(self, t, out=None):
        # g * slope / (2 (g^2 + J^2)); halving g * slope first is exact
        if out is None:
            j2 = self.drive_value(t)
            return 0.5 * self.g * self.slope / (self.g * self.g + j2 * j2)
        j2 = self.drive_value(t, out)
        np.multiply(j2, j2, out=out)
        np.add(self.g * self.g, out, out=out)
        return np.divide(0.5 * self.g * self.slope, out, out=out)

    def __call__(self, t) -> np.ndarray:
        shape = np.shape(t) + (1, 1)
        h = self.h0 + np.reshape(self.drive_value(t), shape) * self.hz
        if self.use_cd:
            h = h + np.reshape(self.cd_coefficient(t), shape) * self.hcd
        return h


def _ramped_system(params: CnotParams, tau: float, use_cd: bool,
                   h0: np.ndarray, hz: np.ndarray,
                   hcd: np.ndarray) -> RampedGateHamiltonian:
    schedule = linear_ramp(params, tau)
    return RampedGateHamiltonian(
        h0=h0, hz=hz, hcd=hcd, slope=schedule.rate, g=params.g, use_cd=use_cd,
        t_start=schedule.t_start, t_end=schedule.t_end)


@functools.lru_cache(maxsize=32)
def _gate_terms(n: int, j1: float, g: float):
    """``(h0, hz, hcd)`` of the n-qubit gate, which no tau changes: built
    once per ``(n, j1, g)`` and read-only, so that a write into one system's
    term raises instead of reaching every later system; ``build_h_n``
    checks n."""
    terms = (build_h_n(n, j1, 0.0, g), _op_on(SIGMA_Z, n - 1, n),
             control_projector(n) @ _op_on(SIGMA_Y, n - 1, n))
    for term in terms:
        term.setflags(write=False)
    return terms


def _gate_system(n: int, params: CnotParams, tau: float,
                 use_cd: bool) -> RampedGateHamiltonian:
    # Shared by cnot_system and nqubit_system so that one call to either
    # is one system build, not two.
    h0, hz, hcd = _gate_terms(n, float(params.j1), float(params.g))
    return _ramped_system(params, tau, use_cd, h0=h0, hz=hz, hcd=hcd)


def cnot_system(params: CnotParams, tau: float,
                use_cd: bool = False) -> RampedGateHamiltonian:
    """The linearly driven two-qubit gate as a kernel-ready system: the
    n = 2 case of ``nqubit_system``."""
    return _gate_system(2, params, tau, use_cd)


def lz_system(params: CnotParams, tau: float,
              use_cd: bool = False) -> RampedGateHamiltonian:
    """The two-level sector reduction as a kernel-ready system."""
    return _ramped_system(
        params, tau, use_cd, h0=(-params.g * SIGMA_X - params.j1 * IDENTITY_2),
        hz=SIGMA_Z.copy(),
        hcd=SIGMA_Y.copy(),
    )


def nqubit_system(n: int, params: CnotParams, tau: float,
                  use_cd: bool = False) -> RampedGateHamiltonian:
    """The N-qubit generalization as a kernel-ready system; the first n-1
    qubits carry j1, the driven last qubit ramps with amplitude j2_amp."""
    return _gate_system(n, params, tau, use_cd)
