"""Numeric kernels shared by the evolution engines and the eigensolver.

Everything here is plain numpy. One adaptive Dormand-Prince 8(5,3) stepper,
``dop853``, integrates every Schroedinger and Lindblad evolution. It takes
``generators(ts)``, the generators ``M(t) = -i H(t)`` stacked over an array
of times, and ``apply(M, y)``, the derivative; ``cdgate.dynamics`` chooses
the equation (``apply``, drift monitor, symmetrization) and the generator
source: ``evolve_ramped`` for a ramped system, one call per stage time for a
Hamiltonian callable. The states are small, so a step costs Python calls,
not arithmetic: the stepper therefore asks for the generators of a step's
eleven distinct stage times at once (one product for a ramped system), and
forms every stage, the solution and both error estimates as one matrix
product over the block of stage derivatives. The Monte-Carlo dephasing
average, ``dephasing_average``, advances every noise realization at once as
one batched RK4 loop.

The ramped Hamiltonian ``H(t) = H0 + J(t) Hz + c(t) Hcd``, with its drive
``J(t)`` and counterdiabatic coefficient ``c(t)``, is defined in one place:
``model.RampedGateHamiltonian``.
"""

from __future__ import annotations

import math

import numpy as np

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

# status codes returned by the stepper
STATUS_OK = 0
STATUS_STEP_UNDERFLOW = 1
STATUS_STEP_BUDGET = 2

# stage times of a step as fractions of h: stages 2..12. The last, c = 1, is
# also the FSAL point t + h.
C_STAGE = DP_C[1:]
_E53 = np.stack([DP_E5, DP_E3])


def dop853(generators, apply, sample_times, y0, rtol, atol, max_step, h_init,
           drift_of, post_step=None):
    """Integrate ``dy/dt = apply(M(t), y)`` for a flat complex ``y``.

    ``generators(ts)`` returns the generators ``M(t)`` stacked over an array
    of times. It is called once at the start time and then once per attempted
    step, at ``t + h * C_STAGE``; stage ``s`` uses row ``s - 1``, and the
    FSAL derivative the last row, stage 12's time ``t + h``. Output states
    are recorded exactly at ``sample_times`` (the first entry must equal the
    start time). Each accepted state passes through ``post_step`` when one
    is given, and ``drift_of(y)`` is monitored; the state is never
    renormalized. Returns ``(status, states, drift, stats)``: ``drift`` is
    the largest ``drift_of`` seen at any accepted step and ``stats`` counts
    the ``accepted`` and ``rejected`` steps and the ``rhs_evals``, and holds
    the smallest and largest accepted step, ``h_min`` and ``h_max`` (0 when
    no step was accepted).
    """
    n = y0.shape[0]
    out = np.zeros((sample_times.shape[0], n), dtype=np.complex128)
    out[0] = y0
    y = np.array(y0, dtype=np.complex128)
    t = float(sample_times[0])
    f = apply(generators(np.array([t]))[0], y)
    h_abs = min(h_init, max_step)
    drift = 0.0
    h_min, h_max = math.inf, 0.0
    K = np.zeros((_N_STAGES + 1, n), dtype=np.complex128)
    # views of the leading stages, so the loop slices nothing
    k_head = [K[:s] for s in range(_N_STAGES + 1)]
    accepted = rejected = 0
    status = STATUS_OK
    dot = np.dot

    for isamp in range(1, sample_times.shape[0]):
        t_end = float(sample_times[isamp])
        while t < t_end:
            if accepted + rejected >= _MAX_TOTAL_STEPS:
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

            ha = h * DP_A
            m = generators(t + h * C_STAGE)
            K[0] = f
            for s in range(1, _N_STAGES):
                K[s] = apply(m[s - 1], y + dot(ha[s, :s], k_head[s]))
            y_new = y + dot(h * DP_B, k_head[_N_STAGES])
            f_new = apply(m[-1], y_new)
            K[_N_STAGES] = f_new

            scale = atol + rtol * np.maximum(np.abs(y), np.abs(y_new))
            w = np.abs(dot(_E53, K) / scale)
            err5, err3 = (w * w).sum(axis=1).tolist()
            denom = err5 + 0.01 * err3
            if denom > 0.0:
                err_norm = h * err5 / math.sqrt(denom * n)
            else:
                err_norm = 0.0

            if err_norm < 1.0:
                accepted += 1
                t = t + h
                if h < h_min:
                    h_min = h
                if h > h_max:
                    h_max = h
                y = y_new if post_step is None else post_step(y_new)
                dev = drift_of(y)
                if dev > drift:
                    drift = dev
                f = f_new
                if err_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * err_norm ** -0.125)
                h_abs = h * factor
            else:
                rejected += 1
                h_abs = h * max(_MIN_FACTOR, _SAFETY * err_norm ** -0.125)
        if status != STATUS_OK:
            break
        out[isamp] = y
    stats = {"accepted": accepted, "rejected": rejected,
             "rhs_evals": 1 + _N_STAGES * (accepted + rejected),
             "h_min": h_min if accepted else 0.0, "h_max": h_max}
    return status, out, drift, stats


def norm_drift(y):
    """|norm^2 - 1| of a flat state vector."""
    return abs(np.vdot(y, y).real - 1.0)


def trace_drift(y):
    """|trace - 1| of a flattened square density matrix."""
    dim = math.isqrt(y.shape[0])
    return abs(y[::dim + 1].sum() - 1.0)


def symmetrize(y):
    """Keep a flattened density matrix exactly Hermitian.

    The stepper's retained FSAL derivative goes stale by the same O(eps),
    which is harmless.
    """
    dim = math.isqrt(y.shape[0])
    rho = y.reshape(dim, dim)
    return ((rho + rho.conj().T) * 0.5).ravel()


def evolve_ramped(h, apply, sample_times, y0, rtol, atol, max_step, h_init,
                  drift_of, post_step=None):
    """``dop853`` on the ramped system ``h``, a
    ``model.RampedGateHamiltonian``, in place of ``generators``.

    ``M(t) = -i H(t)`` is one real combination ``(1, J(t), c(t))`` of the
    float views of ``-i h0``, ``-i hz`` and ``-i hcd``: -i is folded in once
    per call, and the generators of all stage times of a step are one
    product. The other arguments and the result are ``dop853``'s.
    """
    dim = h.dim
    basis = np.stack([-1j * h.h0, -1j * h.hz, -1j * h.hcd]).reshape(3, -1)
    basis = basis.view(np.float64)
    # rows (1, J(t), c(t)), one per stage time; without CD c stays zero
    coef = np.zeros((C_STAGE.shape[0], 3))
    coef[:, 0] = 1.0

    def generators(ts):
        k = ts.shape[0]
        coef[:k, 1] = h.drive_value(ts)
        if h.use_cd:
            coef[:k, 2] = h.cd_coefficient(ts)
        return np.dot(coef[:k], basis).view(np.complex128).reshape(k, dim, dim)

    return dop853(generators, apply, sample_times, y0, rtol, atol, max_step,
                  h_init, drift_of, post_step)


def lindblad_apply(d, alpha):
    """``apply`` for ``d rho/dt = [M, rho] + alpha (D rho D - rho)`` on a
    row-major flattened ``rho``, where ``M = -i H(t)`` and ``d`` is the real
    +-1 diagonal of the jump operator ``D``."""
    dim = d.shape[0]
    # alpha * (D rho D - rho) elementwise, since D is diagonal +-1
    dissipator = alpha * (np.outer(d, d) - 1.0)

    def apply(m, y):
        rho = y.reshape(dim, dim)
        drho = np.dot(m, rho) - np.dot(rho, m)
        if alpha > 0.0:
            drho += dissipator * rho
        return drho.ravel()

    return apply


def dephasing_average(h_det, d, t_start, dt, noise, psi0):
    """Average ``|psi><psi|`` over white-noise realizations, all at once.

    Realization ``i`` evolves under ``h_det(t) + noise[i, k] * diag(d)``
    during step ``k``, where ``h_det`` returns the deterministic Hamiltonian
    shared by every realization (a ramped system or any callable) and ``d``
    is the real +-1 diagonal of the jump operator; ``noise`` is pre-scaled.
    Each step is one classical RK4 step with stage times ``t``, ``t + dt/2``
    and ``t + dt``. Row ``i`` of the working state is
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
        ha = -1j * np.asarray(h_det(t)).T
        hm = -1j * np.asarray(h_det(t + half)).T
        hb = -1j * np.asarray(h_det(t + dt)).T
        k1 = y @ ha + jump * y
        y2 = y + half * k1
        k2 = y2 @ hm + jump * y2
        y3 = y + half * k2
        k3 = y3 @ hm + jump * y3
        y4 = y + dt * k3
        k4 = y4 @ hb + jump * y4
        y = y + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    return (y.T @ y.conj()) / n_traj


def jacobi_eigh(a_in, tol, max_sweeps):
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


def backend_name() -> str:
    """The numeric backend recorded in manifests: always plain numpy."""
    return "numpy"
