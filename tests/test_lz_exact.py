"""The exact finite-time Landau-Zener propagator (Weber functions) against
``propagator(lz_system(...))``.

For ``H = v t sigma_z - g sigma_x`` the lower amplitude obeys
``b'' + (v^2 t^2 + g^2 - i v) b = 0``, solved by the parabolic cylinder
functions ``D_{i delta}(+-kappa t)`` with ``kappa = sqrt(2v) exp(-i pi/4)``
and ``delta = g^2 / (2v)`` (Zener, Proc. R. Soc. A 137, 696 (1932);
Vitanov and Garraway, PRA 53, 4288 (1996)). The upper amplitude is
``a = -(i b' + v t b) / g``, with ``D'_nu(z) = (z/2) D_nu(z) - D_{nu+1}(z)``,
and ``U = Phi(t1) Phi(t0)^-1`` for the fundamental matrix ``Phi`` whose
columns are the two solutions. ``lz_system`` adds ``-j1 I``, a global phase
``exp(+i j1 (t1 - t0))``. At 30 digits the oracle agrees with itself at 50
digits to 1e-29; the bound below is set from the measured deviation of the
integrator (docs/noise_model.md).
"""

import numpy as np
import pytest

from cdgate import CnotParams, EvolutionConfig, lz_system, propagator

mp = pytest.importorskip("mpmath")

# largest deviation measured over these taus: 3.2e-11 at tau 200
BOUND = 1e-10


def weber_propagator(g: float, v: float, t0: float, t1: float) -> np.ndarray:
    """The exact propagator of ``v t sigma_z - g sigma_x`` from t0 to t1."""
    with mp.workdps(30):
        nu = 1j * g * g / (2 * v)
        kappa = mp.sqrt(2 * v) * mp.exp(-1j * mp.pi / 4)

        def phi(t):
            columns = []
            for sign in (1, -1):
                z = sign * kappa * t
                b = mp.pcfd(nu, z)
                db = sign * kappa * ((z / 2) * b - mp.pcfd(nu + 1, z))
                columns.append((-(1j * db + v * t * b) / g, b))
            (a1, b1), (a2, b2) = columns
            return mp.matrix([[a1, a2], [b1, b2]])

        u = phi(t1) * phi(t0) ** -1
        return np.array(u.tolist(), dtype=np.complex128)


@pytest.mark.parametrize("tau", [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
                                 100.0, 200.0])
def test_propagator_is_the_weber_solution(tau):
    params = CnotParams()
    system = lz_system(params, tau)
    t0, t1 = system.t_start, system.t_end
    exact = weber_propagator(params.g, system.slope, t0, t1)
    assert np.abs(exact.conj().T @ exact - np.eye(2)).max() < 1e-14
    u = propagator(system, EvolutionConfig(rel_tol=1e-12, abs_tol=1e-14))
    phase = np.exp(1j * params.j1 * (t1 - t0))
    assert np.abs(u - phase * exact).max() < BOUND
