"""Hot numeric kernels shared by the evolution engines and the eigensolver.

Every kernel is written as plain numpy and compiled with numba's ``@njit``
when available. Setting the environment variable ``CDGATE_NUMBA=0`` selects
the pure-numpy path instead (same source, same arithmetic, same results);
``benchmarks/bench_kernels.py`` compares the two. The exception is the
Monte-Carlo dephasing average: it advances every noise realization at once
as one batched numpy RK4 loop (``_rk4_average``), which also serves
Hamiltonian callables, and is never compiled.

The driven Hamiltonians handled here all share one algebraic shape,

    H(t) = H0 + J(t) * Hz + c(t) * Hcd,      J(t) = slope * t,
    c(t) = g * slope / (2 * (g^2 + J(t)^2)),

which covers the two-qubit gate Hamiltonian, its two-level sector reduction
and the N-qubit generalization. The adaptive evolution of arbitrary
Hamiltonian callables takes the generic python path in ``cdgate.dynamics``
instead.
"""

from __future__ import annotations

import os

import numpy as np

try:
    from numba import njit

    _NUMBA_IMPORTABLE = True
except ImportError:  # pragma: no cover - numba is a hard dependency, but the
    _NUMBA_IMPORTABLE = False  # numpy path keeps the package usable without it

USE_NUMBA = _NUMBA_IMPORTABLE and os.environ.get("CDGATE_NUMBA", "1") != "0"

_EPS = float(np.finfo(np.float64).eps)

# Dormand-Prince 8(5,3) tableau ("DOP853", Hairer/Norsett/Wanner). The
# embedded 5th/3rd order error estimators are combined exactly as in the
# reference implementation. Twelve stages plus the FSAL evaluation.
_N_STAGES = 12

DP_C = np.array([
    0.0, 0.05260015195876773, 0.0789002279381516, 0.1183503419072274,
    0.2816496580927726, 0.3333333333333333, 0.25, 0.3076923076923077,
    0.6512820512820513, 0.6, 0.8571428571428571, 1.0,
])

DP_A = np.zeros((12, 12))
DP_A[1, :1] = [0.05260015195876773]
DP_A[2, :2] = [0.0197250569845379, 0.0591751709536137]
DP_A[3, :3] = [0.02958758547680685, 0.0, 0.08876275643042054]
DP_A[4, :4] = [0.2413651341592667, 0.0, -0.8845494793282861,
               0.924834003261792]
DP_A[5, :5] = [0.037037037037037035, 0.0, 0.0, 0.17082860872947386,
               0.12546768756682242]
DP_A[6, :6] = [0.037109375, 0.0, 0.0, 0.17025221101954405,
               0.06021653898045596, -0.017578125]
DP_A[7, :7] = [0.03709200011850479, 0.0, 0.0, 0.17038392571223998,
               0.10726203044637328, -0.015319437748624402,
               0.008273789163814023]
DP_A[8, :8] = [0.6241109587160757, 0.0, 0.0, -3.3608926294469414,
               -0.868219346841726, 27.59209969944671, 20.154067550477894,
               -43.48988418106996]
DP_A[9, :9] = [0.47766253643826434, 0.0, 0.0, -2.4881146199716677,
               -0.590290826836843, 21.230051448181193, 15.279233632882423,
               -33.28821096898486, -0.020331201708508627]
DP_A[10, :10] = [-0.9371424300859873, 0.0, 0.0, 5.186372428844064,
                 1.0914373489967295, -8.149787010746927, -18.52006565999696,
                 22.739487099350505, 2.4936055526796523, -3.0467644718982196]
DP_A[11, :11] = [2.273310147516538, 0.0, 0.0, -10.53449546673725,
                 -2.0008720582248625, -17.9589318631188, 27.94888452941996,
                 -2.8589982771350235, -8.87285693353063, 12.360567175794303,
                 0.6433927460157636]

DP_B = np.array([
    0.054293734116568765, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, 0.3111643669578199,
    -0.1521609496625161, 0.20136540080403034, 0.04471061572777259,
])

DP_E3 = np.array([
    -0.18980075407240762, 0.0, 0.0, 0.0, 0.0, 4.450312892752409,
    1.8915178993145003, -5.801203960010585, -0.4226823213237919,
    -0.1521609496625161, 0.20136540080403034, 0.02265179219836082, 0.0,
])

DP_E5 = np.array([
    0.01312004499419488, 0.0, 0.0, 0.0, 0.0, -1.2251564463762044,
    -0.4957589496572502, 1.6643771824549864, -0.35032884874997366,
    0.3341791187130175, 0.08192320648511571, -0.022355307863886294, 0.0,
])

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 10.0
_MAX_TOTAL_STEPS = 20_000_000

# status codes returned by the steppers
STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1
STATUS_STEP_BUDGET = 2


def _evolve_ramped(h0, hz, hcd, slope, g, use_cd, alpha, is_density,
                   sample_times, y0, rtol, atol, max_step, h_init):
    """Integrate the ramped-drive Schroedinger or Lindblad equation.

    The flat state ``y0`` is a state vector (``is_density=False``) or a
    row-major flattened density matrix. Output states are recorded exactly
    at ``sample_times`` (the first entry must equal the start time). The
    dissipator is ``alpha * (D rho D - rho)`` with ``D = hz`` assumed
    diagonal with entries +-1. Returns ``(status, states, drift)`` where
    drift is the largest deviation of norm^2 (pure) or trace (density)
    from one seen at any accepted step.
    """
    dim = h0.shape[0]
    n = y0.shape[0]
    nsamp = sample_times.shape[0]
    out = np.zeros((nsamp, n), dtype=np.complex128)
    out[0] = y0

    d = np.zeros(dim, dtype=np.float64)
    for i in range(dim):
        d[i] = np.real(hz[i, i])
    mask = d.reshape(-1, 1) * d.reshape(1, -1)

    def rhs(t, y):
        j2 = slope * t
        h = h0 + j2 * hz
        if use_cd:
            h = h + (g * slope / (2.0 * (g * g + j2 * j2))) * hcd
        if is_density:
            rho = y.reshape((dim, dim))
            drho = -1j * (h @ rho - rho @ h)
            if alpha > 0.0:
                drho = drho + alpha * (mask * rho - rho)
            return drho.ravel()
        return -1j * (h @ y)

    y = y0.copy()
    t = sample_times[0]
    f = rhs(t, y)
    h_abs = min(h_init, max_step)
    drift = 0.0
    K = np.zeros((_N_STAGES + 1, n), dtype=np.complex128)
    nsteps = 0
    status = STATUS_OK

    for isamp in range(1, nsamp):
        t_end = sample_times[isamp]
        while t < t_end:
            nsteps += 1
            if nsteps > _MAX_TOTAL_STEPS:
                status = STATUS_STEP_BUDGET
                break
            min_step = 16.0 * _EPS * max(abs(t), abs(t_end))
            if h_abs > max_step:
                h_abs = max_step
            if h_abs < min_step:
                status = STATUS_STEP_UNDERFLOW
                break
            h = h_abs
            if t + h > t_end:
                h = t_end - t

            K[0] = f
            for s in range(1, _N_STAGES):
                dy = DP_A[s, 0] * K[0]
                for j in range(1, s):
                    a_sj = DP_A[s, j]
                    if a_sj != 0.0:
                        dy = dy + a_sj * K[j]
                K[s] = rhs(t + DP_C[s] * h, y + h * dy)

            acc = DP_B[0] * K[0]
            for j in range(1, _N_STAGES):
                b_j = DP_B[j]
                if b_j != 0.0:
                    acc = acc + b_j * K[j]
            y_new = y + h * acc
            f_new = rhs(t + h, y_new)
            K[_N_STAGES] = f_new

            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            e5 = DP_E5[0] * K[0]
            e3 = DP_E3[0] * K[0]
            for j in range(1, _N_STAGES + 1):
                if DP_E5[j] != 0.0:
                    e5 = e5 + DP_E5[j] * K[j]
                if DP_E3[j] != 0.0:
                    e3 = e3 + DP_E3[j] * K[j]
            err5 = np.sum(np.abs(e5 / scale) ** 2)
            err3 = np.sum(np.abs(e3 / scale) ** 2)
            denom = err5 + 0.01 * err3
            if denom > 0.0:
                err_norm = abs(h) * err5 / np.sqrt(denom * n)
            else:
                err_norm = 0.0

            if err_norm < 1.0:
                t = t + h
                if is_density:
                    # keep rho exactly Hermitian; the retained FSAL
                    # derivative goes stale by the same O(eps), harmless
                    rho = y_new.reshape((dim, dim))
                    rho = (rho + rho.conj().T) * 0.5
                    y = rho.ravel().copy()
                    tr = 0.0 + 0.0j
                    for i in range(dim):
                        tr = tr + rho[i, i]
                    dev = abs(tr - 1.0)
                else:
                    y = y_new
                    nrm2 = np.sum(np.real(y * np.conj(y)))
                    dev = abs(nrm2 - 1.0)
                if dev > drift:
                    drift = dev
                f = f_new
                if err_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR,
                                 _SAFETY * err_norm ** (-1.0 / 8.0))
                h_abs = h * factor
            else:
                h_abs = h * max(_MIN_FACTOR,
                                _SAFETY * err_norm ** (-1.0 / 8.0))
        if status != STATUS_OK:
            break
        out[isamp] = y
    return status, out, drift


def _rk4_average(h_det, d, t_start, dt, noise, psi0):
    """Average ``|psi><psi|`` over white-noise realizations, all at once.

    Realization ``i`` evolves under ``h_det(t) + noise[i, k] * diag(d)``
    during step ``k``, where ``h_det`` returns the deterministic Hamiltonian
    shared by every realization and ``d`` is the real diagonal of the jump
    operator. Each step is one classical RK4 step with stage times ``t``,
    ``t + dt/2`` and ``t + dt``. Row ``i`` of the working state is
    realization ``i``, so ``h_det`` is built once per stage time and the
    memory held beyond ``noise`` is a few ``(n_traj, dim)`` arrays.
    """
    n_traj, n_steps = noise.shape
    y = np.repeat(psi0.reshape(1, -1), n_traj, axis=0)
    half = 0.5 * dt
    for k in range(n_steps):
        t = t_start + k * dt
        # -i is folded into the stage generators once, not into every product
        jump = -1j * (noise[:, k].reshape(-1, 1) * d)
        ha = -1j * h_det(t).T
        hm = -1j * h_det(t + half).T
        hb = -1j * h_det(t + dt).T
        k1 = y @ ha + jump * y
        y2 = y + half * k1
        k2 = y2 @ hm + jump * y2
        y3 = y + half * k2
        k3 = y3 @ hm + jump * y3
        y4 = y + dt * k3
        k4 = y4 @ hb + jump * y4
        y = y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return (y.T @ y.conj()) / n_traj


def _dephasing_average(h0, hz, hcd, slope, g, use_cd, t_start, dt, noise,
                       psi0):
    """Average ``|psi><psi|`` over white-noise drive realizations.

    ``noise[i, k]`` is the (pre-scaled) drive offset held constant during
    step ``k`` of realization ``i``; it multiplies ``hz``, which must be
    diagonal with entries +-1. All realizations advance together through
    ``_rk4_average``, rebuilding the deterministic part of the Hamiltonian
    once per stage time.
    """

    def h_det(t):
        j2 = slope * t
        h = h0 + j2 * hz
        if use_cd:
            h = h + (g * slope / (2.0 * (g * g + j2 * j2))) * hcd
        return h

    return _rk4_average(h_det, np.real(np.diag(hz)), t_start, dt, noise,
                        psi0)


def _jacobi_eigh(a_in, tol, max_sweeps):
    """Cyclic Jacobi diagonalization of a Hermitian complex matrix.

    Returns ``(eigenvalues, eigenvectors, off_norm, converged)`` with raw
    (unsorted) eigenvalues on the diagonal after convergence; ``off_norm``
    is the remaining off-diagonal Frobenius norm. Columns of the returned
    matrix are the eigenvectors.
    """
    n = a_in.shape[0]
    a = a_in.astype(np.complex128).copy()
    v = np.eye(n, dtype=np.complex128)

    fro = 0.0
    for p in range(n):
        for q in range(n):
            fro += abs(a[p, q]) ** 2
    fro = np.sqrt(fro)
    thresh = tol * max(fro, 1.0)

    converged = False
    off = 0.0
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                off += 2.0 * abs(a[p, q]) ** 2
        off = np.sqrt(off)
        if off <= thresh:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                r = abs(apq)
                if r <= thresh / (n * n):
                    continue
                u = apq / r
                tau_pq = (np.real(a[q, q]) - np.real(a[p, p])) / (2.0 * r)
                if tau_pq >= 0.0:
                    tr = 1.0 / (tau_pq + np.sqrt(1.0 + tau_pq * tau_pq))
                else:
                    tr = -1.0 / (-tau_pq + np.sqrt(1.0 + tau_pq * tau_pq))
                c = 1.0 / np.sqrt(1.0 + tr * tr)
                s = tr * c

                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp - s * np.conj(u) * colq
                a[:, q] = s * u * colp + c * colq
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = c * rowp - s * u * rowq
                a[q, :] = s * np.conj(u) * rowp + c * rowq

                vp = v[:, p].copy()
                vq = v[:, q].copy()
                v[:, p] = c * vp - s * np.conj(u) * vq
                v[:, q] = s * u * vp + c * vq

    w = np.zeros(n, dtype=np.float64)
    for p in range(n):
        w[p] = np.real(a[p, p])
    return w, v, off, converged


_PLAIN = {
    "evolve_ramped": _evolve_ramped,
    "jacobi_eigh": _jacobi_eigh,
}

if USE_NUMBA:
    _COMPILED = {
        name: njit(cache=True, nogil=True)(fn) for name, fn in _PLAIN.items()
    }
else:
    _COMPILED = None

# The Monte-Carlo average hands a Python callable to its batched RK4 loop,
# which numba cannot compile; it is the same numpy function under every
# backend name.
_PLAIN["dephasing_average"] = _dephasing_average
if _COMPILED is not None:
    _COMPILED["dephasing_average"] = _dephasing_average

IMPLEMENTATIONS = {"numpy": _PLAIN}
if _COMPILED is not None:
    IMPLEMENTATIONS["numba"] = _COMPILED

_ACTIVE = _COMPILED if USE_NUMBA else _PLAIN

evolve_ramped = _ACTIVE["evolve_ramped"]
dephasing_average = _ACTIVE["dephasing_average"]
jacobi_eigh = _ACTIVE["jacobi_eigh"]


def backend_name() -> str:
    return "numba" if USE_NUMBA else "numpy"
