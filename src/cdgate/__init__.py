"""cdgate: a driven two-qubit CNOT gate simulator.

Implements the linearly driven gate Hamiltonian with its closed-form
spectrum, the effective Landau-Zener reduction, exact counterdiabatic
control, dephasing-noise (Lindblad) evolution, and the experiment recipes
and CLI that regenerate the plot-ready data sets.
"""

from ._version import __version__
from .dynamics import (
    EvolutionConfig,
    NoiseModel,
    Trajectory,
    ground_state_probability,
    lindblad_evolve,
    noise_trajectory_oracle,
    propagator,
    schrodinger_evolve,
)
from .experiments import (
    GateCheckReport,
    SweepGrid,
    SweepResult,
    TradeoffCurve,
    adiabatic_profile,
    find_optimal_tau,
    gate_unitary_check,
    make_grid,
    n_qubit_demo,
    sweep_noise,
    sweep_tau,
    tradeoff_boundary,
)
from .model import (
    CnotParams,
    DriveSchedule,
    RampedGateHamiltonian,
    SpectrumSnapshot,
    analytic_spectrum,
    build_h_cd_analytic,
    build_h_cd_n,
    build_h_cd_spectral,
    build_h_cnot,
    build_h_n,
    build_inverse_engineered,
    cnot_system,
    cnot_unitary,
    effective_lz,
    linear_ramp,
    lz_system,
    nqubit_system,
)
from .numerics import (
    TOL,
    commutator,
    frobenius_distance,
    hermitian_eig,
    kron,
    phase_insensitive_distance,
)
from .observables import (
    FidelityPoint,
    fidelity_mixed,
    fidelity_pure,
    lz_formula,
    transition_probability,
)

__all__ = [name for name in dir() if not name.startswith("_")]
