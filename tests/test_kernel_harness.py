"""A differential harness for the integrator: the contract that every route
into it keeps, checked through the public engines on generated systems
(derandomized ``hypothesis`` draws).

- A ramped system and the same system given as a callable (``lambda t:
  system(t)``) agree, though they take different steps: the ramped route
  plans full blocks and writes its stage matrices from coefficient rows,
  the callable's doubles its blocks and writes them from its operators.
- A constant ``H`` matches ``scipy.linalg.expm``, pure and under dephasing,
  in matrix mode and in stage mode (a pure state of dimension 8, a density
  matrix of dimension 4).
- Every run counts ``rhs_evals = blocks + 11 (accepted + rejected +
  discarded)``.

Each bound is set from the worst case of a wider sweep of the same
strategies, stated beside it.
"""

from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from cdgate.dynamics import (EvolutionConfig, NoiseModel, lindblad_evolve,
                             schrodinger_evolve)
from cdgate.model import RampedGateHamiltonian

from conftest import random_hermitian, random_state

_DRAWS = settings(max_examples=12, derandomize=True, deadline=None)


def _states(traj):
    """The run's states, after checking its count of stage evaluations."""
    s = traj.stats
    assert s["rhs_evals"] == s["blocks"] + 11 * (
        s["accepted"] + s["rejected"] + s["discarded"])
    return traj.states


@st.composite
def _draws(draw, dims, slope=st.floats(0.0, 2.0)):
    """``(system, rng, samples)``: a ramped system of one of ``dims`` with
    random Hermitian ``h0`` and ``hcd``, ``hz`` the +-1 diagonal of sigma_z
    on the last qubit (a callable's jump operator), over a span of at most 8
    from a start in [-8, 0]; an ``rng`` for its start state; and a sample
    count from 2 to 6."""
    dim = draw(st.sampled_from(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    tau = draw(st.floats(0.5, 8.0))
    start = draw(st.floats(-8.0, 0.0))
    hz = np.diag(np.resize([1.0, -1.0], dim)).astype(np.complex128)
    system = RampedGateHamiltonian(
        h0=random_hermitian(rng, dim), hz=hz,
        hcd=random_hermitian(rng, dim), slope=draw(slope),
        g=draw(st.floats(0.2, 1.0)), use_cd=draw(st.booleans()),
        t_start=start, t_end=start + tau)
    return system, rng, draw(st.integers(2, 6))


def ramped_against_callable(system, y0, samples, alpha=None):
    """The largest entry of the difference between the states of the ramped
    run of ``system`` from ``y0`` (a state, or with ``alpha`` a density
    matrix) and those of the same system as a callable."""
    cfg = EvolutionConfig(sample_count=samples)
    span = (system.t_start, system.t_end)

    def run(h):
        if alpha is None:
            return _states(schrodinger_evolve(h, y0, cfg, span))
        return _states(lindblad_evolve(h, y0, NoiseModel(alpha), cfg, span))

    return np.abs(run(system) - run(lambda t: system(t))).max()


def constant_against_expm(system, psi0, alpha=None):
    """The error of the final state of the constant ``system`` (slope 0, no
    CD) from ``psi0`` (with ``alpha`` from its density matrix) against
    ``expm``, relative to ``max(1, |H| T)``, for the ramped run and for the
    callable's: the exact evolution is ``exp(-i H T) psi0``, or ``exp(L
    T) vec(rho0)`` with the row-major Liouvillian ``L = -i (H x I - I x
    H^T) + diag(alpha (d_a d_c - 1))``."""
    h, duration = system.h0, system.t_end - system.t_start
    span = (system.t_start, system.t_end)
    cfg = EvolutionConfig()
    if alpha is None:
        y0 = psi0
        exact = expm(-1j * duration * h) @ psi0
    else:
        y0 = np.outer(psi0, psi0.conj())
        d, eye = np.real(np.diag(system.hz)), np.eye(h.shape[0])
        lindbladian = (-1j * (np.kron(h, eye) - np.kron(eye, h.T))
                       + np.diag(alpha * (np.outer(d, d) - 1.0).ravel()))
        exact = (expm(duration * lindbladian) @ y0.ravel()).reshape(y0.shape)
    errors = []
    for source in (system, lambda t: system.h0):
        if alpha is None:
            traj = schrodinger_evolve(source, y0, cfg, span)
        else:
            traj = lindblad_evolve(source, y0, NoiseModel(alpha), cfg, span)
        errors.append(np.abs(_states(traj)[-1] - exact).max())
    return max(errors) / max(1.0, np.linalg.norm(h, 2) * duration)


class TestRampedAgainstCallable:
    """The two routes into matrix mode integrate the same equation."""

    @_DRAWS
    @given(_draws((1, 2, 4)))
    def test_pure(self, drawn):
        # worst of 9,000 draws: 2.8e-10
        system, rng, samples = drawn
        psi0 = random_state(rng, system.dim)
        assert ramped_against_callable(system, psi0, samples) < 1e-9

    @_DRAWS
    @given(_draws((2,)), st.floats(0.0, 0.5))
    def test_lindblad(self, drawn, alpha):
        # worst of 3,000 draws: 3.9e-11
        system, rng, samples = drawn
        psi0 = random_state(rng, system.dim)
        rho0 = np.outer(psi0, psi0.conj())
        assert ramped_against_callable(system, rho0, samples, alpha) < 1e-10


class TestConstantAgainstExpm:
    """A constant ``H`` is integrated to within the tolerances of the exact
    evolution, by both routes."""

    @_DRAWS
    @given(_draws((1, 2, 4, 8), slope=st.just(0.0)))
    def test_pure(self, drawn):
        # worst of 9,000 draws: 7.6e-12
        system, rng, _ = drawn
        system = replace(system, use_cd=False)
        psi0 = random_state(rng, system.dim)
        assert constant_against_expm(system, psi0) < 5e-11

    @_DRAWS
    @given(_draws((2, 4), slope=st.just(0.0)), st.floats(0.0, 0.5))
    def test_lindblad(self, drawn, alpha):
        # worst of 3,000 draws: 7.3e-12
        system, rng, _ = drawn
        system = replace(system, use_cd=False)
        psi0 = random_state(rng, system.dim)
        assert constant_against_expm(system, psi0, alpha) < 5e-11
