"""Numeric kernels shared by the evolution engines.

Everything here is plain numpy. One adaptive Dormand-Prince 8(5,3) stepper,
``dop853``, integrates every Schroedinger and Lindblad evolution. The
kernels integrate exactly the state they are given: ``cdgate.dynamics``
restricts a run to its invariant sector and embeds the result, and passes
the full state's length as ``width``, which enters only the error norm, so
a sector run takes the full run's steps. The stepper picks its first step
(a thousandth of the span) and raises ``StepUnderflowError`` itself. Every
callback has one call shape: ``generators(ts)`` writes the stage operators
at the times ``ts`` into a block of its own and returns it, the same array
on every call; ``apply(M, y, out)`` writes the derivative into ``out``, as
``np.dot`` does; ``post_step(y_new, out)`` writes the accepted state.
``cdgate.dynamics`` chooses the equation (``apply``, drift monitor,
symmetrization) and the generator source: ``evolve_ramped`` for a ramped
system, one call per stage time for a Hamiltonian callable. A stage
operator is a generator ``M(t) = -i H(t)``, or for a density matrix on a
small sector its superoperator ``liouvillian(M, D)``, so that every
Lindblad stage is then one matrix-vector product, as a Schroedinger stage
is; larger sectors use the commutator form, ``lindblad_apply``; both take
the dissipator ``D = alpha (d_a d_c - 1)``. The states are small, so a
step costs Python calls, not arithmetic: the stepper asks for the
generators of a step's eleven distinct stage times at once (one product
for a ramped system). The state and the stage derivatives are the rows of
one block, so each stage, the solution and both error estimates are one
matrix product over it, and ``apply`` writes each stage into its row; a
step allocates no array. The dissipator is constant, so it is lifted with
``-i h0`` once per run, and a Lindblad step builds its superoperators with
the one product a Schroedinger step uses. ``symmetrize`` writes each
accepted density matrix straight into the state row. The Monte-Carlo
dephasing average, ``dephasing_average``, advances every noise realization
at once: the noise is constant within an RK4 step, so the step is one
polynomial in it, whose matrices (``_rk4_polynomials``) are built for a
block of steps at once and shared by every realization.

The ramped Hamiltonian ``H(t) = H0 + J(t) Hz + c(t) Hcd``, with its drive
``J(t)`` and counterdiabatic coefficient ``c(t)``, is defined in one place:
``model.RampedGateHamiltonian``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import StepUnderflowError

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

# stage times of a step as fractions of h: stages 2..12. The last, c = 1, is
# also the FSAL point t + h.
C_STAGE = DP_C[1:]
# ``np.dot`` without its array-function dispatch, a quarter of a small product
matvec = np.ndarray.dot
# stage weights, then the solution's; complex, so the products cast nothing
_A_AUG = np.vstack([DP_A, DP_B])
_E53 = np.stack([DP_E5, DP_E3]).astype(np.complex128)


def dop853(generators, apply, sample_times, y0, rtol, atol, drift_of,
           post_step=None, width=None):
    """Integrate ``dy/dt = apply(M(t), y)`` for a flat complex ``y``.

    ``generators(ts)`` writes the stage operators ``M(t)`` (generators
    ``-i H(t)`` or their ``liouvillian`` superoperators) at the eleven
    times ``ts`` into a block of its own and returns it, the same array on
    every call. Each attempted step asks for ``t + h * C_STAGE``: stage
    ``s`` uses row ``s - 1``, and the FSAL derivative the last row, stage
    12's time ``t + h``; the start call passes eleven copies of the start
    time and uses row 0. The state and the stage derivatives are the rows
    of one block ``Z``: stage ``s`` is ``apply(M, (1, h a_s) . Z[:s + 1],
    out)``, which writes the derivative into its row ``out``, as
    ``np.dot`` does. Every per-step array is allocated once per call and
    written in place. Output states are recorded exactly at
    ``sample_times`` (the first entry must equal the start time); the first
    step is a thousandth of their span. When a ``post_step`` is given,
    ``post_step(y_new, y)`` writes each accepted state into the state row
    ``y``, and ``drift_of(y)`` is monitored; the state is never
    renormalized. The error norm divides by ``width`` (``len(y0)`` when
    None): a caller that integrates an invariant sector of a longer state
    passes that state's length, and takes its steps. Returns ``(states,
    drift, stats)``: ``drift`` is the largest ``drift_of`` seen at any
    accepted step and ``stats`` counts the ``accepted`` and ``rejected``
    steps and the ``rhs_evals``, and holds the smallest and largest
    accepted step, ``h_min`` and ``h_max`` (0 when no step was accepted).
    Raises ``StepUnderflowError`` when the step falls below 16 eps |t| or
    the step budget runs out.
    """
    size = y0.shape[0]
    n = size if width is None else width  # the error norm's width
    out = np.empty((sample_times.shape[0], size), dtype=np.complex128)
    out[0] = y0
    Z = np.zeros((_N_STAGES + 2, size), dtype=np.complex128)
    y, K = Z[0], Z[1:]  # the state, then the stage derivatives
    y[:] = y0
    t = float(sample_times[0])
    # the stage operators of every attempted step, written by ``generators``
    M = generators(np.full(C_STAGE.shape, t))
    apply(M[0], y, K[0])
    # column 0 weighs y; the rest is h * _A_AUG, filled per attempted step
    # through the float view of its real parts (the imaginary parts stay 0)
    HA = np.ones((_N_STAGES + 1, _N_STAGES + 1), dtype=np.complex128)
    weights = HA.view(np.float64)[:, 2::2]
    stages = [(HA[s, :s + 1], Z[:s + 1], M[s - 1], K[s])
              for s in range(1, _N_STAGES)]
    b_row, head_all = HA[_N_STAGES], Z[:_N_STAGES + 1]  # the solution's
    # the other per-step arrays, each written in place
    ts = np.empty(C_STAGE.shape[0])
    dy, y_new = np.empty((2, size), dtype=np.complex128)
    m_fsal, k_fsal = M[-1], K[_N_STAGES]
    err = np.empty((2, size), dtype=np.complex128)
    w = err.view(np.float64)
    abs_y, abs_new, scale = np.abs(y), np.empty(size), np.empty(size)
    h_abs = (float(sample_times[-1]) - t) * 1e-3
    drift = 0.0
    h_min, h_max = math.inf, 0.0
    accepted = rejected = 0

    for isamp in range(1, sample_times.shape[0]):
        t_end = float(sample_times[isamp])
        while t < t_end:
            if accepted + rejected >= _MAX_TOTAL_STEPS:
                raise StepUnderflowError(
                    "step budget exhausted before reaching t_end")
            if h_abs < 16.0 * _EPS * max(abs(t), abs(t_end)):
                raise StepUnderflowError(
                    "adaptive step size underflowed; the problem is too "
                    "stiff for the requested tolerances, or H(t) is not "
                    "finite")
            h = h_abs
            if t + h > t_end:
                h = t_end - t

            np.multiply(h, _A_AUG, out=weights)
            np.multiply(C_STAGE, h, out=ts)
            ts += t
            generators(ts)
            for coef, head, m_s, k in stages:
                apply(m_s, coef.dot(head, dy), k)
            b_row.dot(head_all, y_new)
            apply(m_fsal, y_new, k_fsal)

            np.abs(y_new, out=abs_new)
            np.maximum(abs_y, abs_new, out=scale)
            scale *= rtol
            scale += atol
            _E53.dot(K, err)
            err /= scale
            (err5, _), (_, err3) = w.dot(w.T).tolist()
            denom = err5 + 0.01 * err3
            if denom > 0.0:
                err_norm = h * err5 / math.sqrt(denom * n)
            elif denom == 0.0:
                err_norm = 0.0
            else:  # NaN: reject, so a non-finite state ends in underflow
                err_norm = math.inf

            if err_norm < 1.0:
                accepted += 1
                t = t + h
                if h < h_min:
                    h_min = h
                if h > h_max:
                    h_max = h
                if post_step is None:  # |y| is |y_new|: swap the buffers
                    y[:] = y_new
                    abs_y, abs_new = abs_new, abs_y
                else:
                    post_step(y_new, y)
                    np.abs(y, out=abs_y)
                dev = drift_of(y)
                if dev > drift:
                    drift = dev
                K[0] = k_fsal
                if err_norm == 0.0:
                    factor = _MAX_FACTOR
                else:
                    factor = min(_MAX_FACTOR, _SAFETY * err_norm ** -0.125)
                h_abs = h * factor
            else:
                rejected += 1
                h_abs = h * max(_MIN_FACTOR, _SAFETY * err_norm ** -0.125)
        out[isamp] = y
    stats = {"accepted": accepted, "rejected": rejected,
             "rhs_evals": 1 + _N_STAGES * (accepted + rejected),
             "h_min": h_min if accepted else 0.0, "h_max": h_max}
    return out, drift, stats


def norm_drift(y):
    """|norm^2 - 1| of a flat state vector."""
    return abs(np.vdot(y, y).real - 1.0)


def trace_drift(y):
    """|trace - 1| of a flattened square density matrix."""
    dim = math.isqrt(y.shape[0])
    return abs(np.add.reduce(y[::dim + 1]) - 1.0)


def symmetrize(y, out):
    """Keep a flattened density matrix exactly Hermitian: ``(rho + rho^H)
    / 2``, written into ``out``.

    ``rho^H`` is written into ``out``, then ``rho`` is added and the sum
    halved in place, so ``y`` is only read and no temporary is made; the
    stepper passes its state row as ``out``. The stepper's retained FSAL
    derivative goes stale by the same O(eps), which is harmless.
    """
    dim = math.isqrt(y.shape[0])
    rho = y.reshape(dim, dim)
    sym = out.reshape(dim, dim)
    np.conjugate(rho.T, out=sym)
    np.add(rho, sym, out=sym)
    np.multiply(sym, 0.5, out=sym)


def evolve_ramped(h, apply, sample_times, y0, rtol, atol, drift_of,
                  post_step=None, dissipator=None, width=None):
    """``dop853`` on the ramped system ``h``, a
    ``model.RampedGateHamiltonian``, in place of ``generators``.

    ``M(t) = -i H(t)`` is one real combination ``(1, J(t), c(t))`` of the
    float views of ``-i h0``, ``-i hz`` and ``-i hcd``: -i is folded in once
    per call, and the generators of all stage times of a step are one
    product, written into the source's block. The model writes ``J(t)``
    and ``c(t)`` into the columns of the coefficient block. Given a
    flattened ``dissipator`` (and ``matvec`` as ``apply``) the same product
    builds the ``liouvillian`` superoperators
    ``L(t) = (L0 + D) + J(t) Lz + c(t) Lcd`` of the three terms, lifted
    once per call. The other arguments and the result are ``dop853``'s.
    """
    terms = np.stack([-1j * h.h0, -1j * h.hz, -1j * h.hcd])
    if dissipator is not None:  # the constant D joins the lift of -i h0
        terms = liouvillian(terms, np.outer([1.0, 0.0, 0.0], dissipator))
    basis = terms.reshape(3, -1).view(np.float64)
    block = np.empty(C_STAGE.shape + terms.shape[1:], dtype=np.complex128)
    target = block.reshape(C_STAGE.shape[0], -1).view(np.float64)
    # rows (1, J(t), c(t)), one per stage time; without CD c stays zero
    coef = np.zeros((C_STAGE.shape[0], 3))
    coef[:, 0] = 1.0
    drive, cd = coef[:, 1], coef[:, 2]

    def generators(ts):
        h.drive_value(ts, drive)
        if h.use_cd:
            h.cd_coefficient(ts, cd)
        coef.dot(basis, target)
        return block

    return dop853(generators, apply, sample_times, y0, rtol, atol, drift_of,
                  post_step, width)


def lindblad_apply(dissipator):
    """``apply`` for ``d rho/dt = [M, rho] + dissipator * rho`` on a
    row-major flattened ``rho``, where ``M = -i H(t)`` and ``dissipator``
    is the ``(dim, dim)`` block ``alpha (d_a d_c - 1)`` of a jump operator
    ``D`` with real +-1 diagonal ``d``: ``alpha (D rho D - rho)``
    elementwise."""
    dim = dissipator.shape[0]
    noisy = dissipator.any()

    def apply(m, y, out):
        rho = y.reshape(dim, dim)
        drho = np.subtract(m.dot(rho), rho.dot(m), out=out.reshape(dim, dim))
        if noisy:
            drho += dissipator * rho

    return apply


def liouvillian(m, dissipator):
    """``M (x) I - I (x) M^T + diag(dissipator)`` for each ``M`` of the
    stack ``m``: ``(k, dim^2, dim^2)`` superoperators. ``dissipator``
    broadcasts against ``(k, dim^2)``.

    ``vec`` is row-major, as the flattened state, so
    ``vec(A rho B) = (A (x) B^T) vec(rho)``: for ``M = -i H(t)`` and the
    flattened ``alpha (d_a d_c - 1)`` as ``dissipator``, this is the
    equation of ``lindblad_apply`` as ``d vec(rho)/dt = L vec(rho)``, whose
    ``apply`` is ``np.dot``. The commutator part is linear in ``M``, so a
    ramped system lifts its terms once and combines the lifts.
    """
    k, dim = m.shape[0], m.shape[1]
    n = dim * dim
    eye = np.eye(dim)
    m_t = m.transpose(0, 2, 1)
    # axes (k, a, c, b, e): M_ab delta_ce - delta_ab M_ec
    lifted = (m[:, :, None, :, None] * eye[:, None, :]
              - eye[:, None, :, None] * m_t[:, None, :, None])
    diagonal = lifted.reshape(k, -1)[:, ::n + 1]  # a view: written in place
    diagonal += dissipator
    return lifted.reshape(k, n, n)


# Bytes of stage Hamiltonians built at once by ``dephasing_average``, at any
# dimension: 85 steps at dim 4. A block also holds its step polynomials,
# 5/3 of that size, and the polynomials that build them. On a 2-core x86
# host (perfbench oracle-check, seed 2, three runs each), blocks of 16 KB
# took 0.078-0.083 s at a peak RSS of 38.9 MB; 64 KB took 0.072-0.074 s at
# 39.0-39.1 MB; 256 KB and 1 MB ran no faster (0.070-0.078 s) at 40.3 and
# 44.2 MB. The dimension is the sector's: a ramped gate start is 2 at any
# n, so only a callable or a wider start (full support at n = 5 or 6) runs
# at dim 32 or 64, where building the step polynomials costs about 9 dim^3
# per step and this block holds one step, about 2x slower than advancing
# the stages one by one would be.
_ORACLE_BLOCK_BYTES = 1 << 16


def _oracle_block_steps(dim):
    """Steps per block of ``dephasing_average`` at dimension ``dim``: three
    complex ``dim x dim`` stage Hamiltonians per step, within
    ``_ORACLE_BLOCK_BYTES``."""
    return max(1, _ORACLE_BLOCK_BYTES // (3 * 16 * dim * dim))


def _rk4_polynomials(stages, jump, dt):
    """One classical RK4 step of ``dy/dt = (M(t) + eta J) y`` as a
    polynomial in the constant ``eta``: ``y' = sum_p eta^p Q_p y``.

    ``stages`` stacks the generators ``M = -i H`` at ``t``, ``t + dt/2``
    and ``t + dt`` of each step of a block, shape ``(steps, 3, dim, dim)``;
    ``jump`` is the diagonal of ``J`` as a ``(dim, 1)`` column. The RK4
    stages are run on the identity, with matrix polynomials in ``eta`` for
    values: ``K1 = M_a + eta J``, ``K2 = (M_m + eta J)(I + dt/2 K1)``,
    ``K3 = (M_m + eta J)(I + dt/2 K2)``, ``K4 = (M_b + eta J)(I + dt K3)``
    and ``P = I + dt/6 K1 + dt/3 (K2 + K3) + dt/6 K4``, of degree 4. A
    polynomial of degree ``p`` is held wide, its coefficients side by side
    in ``(steps, dim, (p + 1) dim)``, so ``M Y`` is one product per step
    and ``J Y`` scales the rows and moves each coefficient one block to the
    right. Returns ``P`` wide: row block ``k`` is ``[Q_0 | ... | Q_4]`` of
    step ``k``, so the step is one product with the stacked ``eta^p y``.
    """
    steps, _, dim, _ = stages.shape
    q = np.zeros((steps, dim, 5 * dim), dtype=np.complex128)
    q[:, :, :dim] = np.eye(dim)
    k = np.empty((steps, dim, 2 * dim), dtype=np.complex128)
    k[:, :, :dim] = stages[:, 0]  # K1 = M_a + eta J
    k[:, :, dim:] = np.diagflat(jump)
    # each K is scaled in place: by its weight in P, added to q, then to
    # the fraction of dt of the next stage's argument
    for m, weight, frac in ((stages[:, 1], 1.0 / 6.0, 0.5),
                            (stages[:, 1], 1.0 / 3.0, 0.5),
                            (stages[:, 2], 1.0 / 3.0, 1.0)):
        width = k.shape[2]
        k *= weight * dt
        q[:, :, :width] += k
        k *= frac / weight
        # the argument Y = I + frac dt K: in a row of K, flattened, the
        # diagonal of block 0 is every (width + 1)-th entry
        k.reshape(steps, -1)[:, ::width + 1] += 1.0
        # (M + eta J) Y: M Y_p is degree p, J Y_p degree p + 1
        nxt = np.zeros((steps, dim, width + dim), dtype=np.complex128)
        np.matmul(m, k, out=nxt[:, :, :width])
        k *= jump
        nxt[:, :, dim:] += k
        k = nxt
    k *= dt / 6.0
    q += k
    return q


def dephasing_average(h_stack, d, t_start, dt, noise, psi0):
    """Average ``|psi><psi|`` over white-noise realizations, all at once.

    Realization ``i`` evolves under ``H(t) + noise[i, k] * diag(d)`` during
    step ``k``, where ``H(t)`` is the deterministic Hamiltonian shared by
    every realization and ``d`` is the real +-1 diagonal of the jump
    operator; ``noise`` is pre-scaled. ``h_stack(ts)`` returns ``H`` stacked
    over a 1-D array of times: a ramped system evaluates it on the array,
    and ``cdgate.dynamics`` stacks one call per time of any other callable.
    Each step is one classical RK4 step with stage times ``t``,
    ``t + dt/2`` and ``t + dt``. The noise ``eta`` is constant within a
    step, so the step is exactly ``y' = sum_p eta^p Q_p y`` for p = 0..4,
    with matrices ``Q_p`` shared by every realization
    (``_rk4_polynomials``). The stage Hamiltonians of a block of steps
    (``_oracle_block_steps(dim)``) come from one ``h_stack`` call, -i is
    folded into them once per block and -i d once per run, and the
    ``Q_p`` of the block follow from a few stacked products; the result
    does not depend on the block size. Column ``i`` of the working state
    is realization ``i``: a step writes ``eta^p y`` into a ``(5, dim,
    n_traj)`` buffer, four multiplies, and takes one ``(dim, 5 dim) @
    (5 dim, n_traj)`` product. The memory held beyond ``noise`` is two such
    buffers, one block of stage Hamiltonians and its ``Q_p`` tables.
    """
    n_traj, n_steps = noise.shape
    dim = psi0.shape[0]
    block = _oracle_block_steps(dim)
    offsets = np.array([0.0, 0.5 * dt, dt])
    jump = (-1j * d).reshape(-1, 1)
    # two buffers of eta^p y, p = 0..4, realizations as columns; row 0 of
    # the current one is the state, and each step writes the other's
    buffers = np.empty((2, 5, dim, n_traj), dtype=np.complex128)
    buffers[0, 0] = psi0[:, None]
    cur, nxt = [(*b, b.reshape(5 * dim, n_traj)) for b in buffers]
    eta_c = np.empty(n_traj, dtype=np.complex128)
    multiply = np.multiply
    for k0 in range(0, n_steps, block):
        stop = min(k0 + block, n_steps)
        ts = (t_start + np.arange(k0, stop) * dt)[:, None] + offsets
        stages = np.multiply(-1j, h_stack(ts.ravel()))
        q = _rk4_polynomials(stages.reshape(stop - k0, 3, dim, dim), jump, dt)
        for q_k, eta in zip(q, noise[:, k0:stop].T):
            y, y1, y2, y3, y4, stacked = cur
            eta_c[:] = eta
            multiply(y, eta_c, y1)
            multiply(y1, eta_c, y2)
            multiply(y2, eta_c, y3)
            multiply(y3, eta_c, y4)
            q_k.dot(stacked, nxt[0])
            cur, nxt = nxt, cur
        del stages, q, q_k  # before the next block's are built
    y = cur[0]
    return (y @ y.conj().T) / n_traj


def backend_name() -> str:
    """The numeric backend recorded in manifests: always plain numpy."""
    return "numpy"
