"""Numeric kernels shared by the evolution engines.

Everything here is plain numpy. One adaptive Dormand-Prince 8(5,3) stepper,
``dop853``, integrates every Schroedinger and Lindblad evolution. The
kernels integrate exactly the state they are given: ``cdgate.dynamics``
restricts a run to its invariant sector and embeds the result, and passes
the full state's length as ``width``, which enters only the error norm, so
a sector run takes the full run's steps. The stepper picks its first step
(a thousandth of the span) and raises ``StepUnderflowError`` itself.

``dop853`` is a block stepper with one step-size controller: a block is
``m`` steps, 1 to ``_BLOCK_STEPS``, of one length per sample interval; it
keeps its steps before the first that fails, and at ``m = 1`` it is the
classical controller. A ramped run, whose block costs one product at any
length, plans full blocks: ``m`` goes from 1 to ``_BLOCK_STEPS`` after its
first clean block and stays there after a rejected step; a callable, one
call per stage time, doubles and halves ``m``. Its one equation argument
is the dissipator ``D = alpha (d_a d_c - 1)`` of a density matrix's
sector, None for a pure state; the kernels derive the rest from it: drift
monitor, Hermitian handling and form. ``generators(ts)``,
``evolve_ramped`` for a ramped system or one call per stage time of a
Hamiltonian callable, returns the stage operators (``stage_operators``) at
the times ``ts``, once per block with its ``11 m + 1`` distinct stage
times: generators ``M(t) = -i H(t)``, or for a
density matrix on a sector of dimension up to ``_LIOUVILLIAN_MAX_DIM``
(``_lifted``) their superoperators ``liouvillian(M, D)``, so that every
Lindblad stage is then one matrix-vector product, as a Schroedinger stage
is; larger sectors use the commutator form, ``lindblad_apply(D)``. The
dissipator is constant, so it is lifted with ``-i h0`` once per run, and a
block's superoperators are the one product that builds its generators.

The states are small, so a step costs numpy calls, not arithmetic. The
system is linear, so a step is a map ``y -> P y`` whose error estimates
are matrices too: a block of at least ``_MATRIX_MIN_STEPS`` steps of a
small state (``_MATRIX_MAX_SIZE``) under ``matvec`` runs in matrix mode
(``_matrix_mode``), building the stage matrices of all its steps with one
stacked product per stage, then advancing the state by ``m``
matrix-vector products. It works in real coordinates of the state: the
float view of amplitudes, or the four Hermitian coordinates of a 2x2
density block, under real 4x4 stage matrices, as a pure 2-amplitude
sector (``_coordinate_forms``), so its densities come out exactly
Hermitian. A shorter block or a larger state runs in stage mode
(``_stage_mode``), stage by stage on the state. Both modes take the same
blocks and steps. After a stage-mode block ``symmetrize`` writes the last
accepted density matrix straight into the state. The Monte-Carlo
dephasing average, ``dephasing_average``, advances every noise
realization at once: the noise is constant within an RK4 step, so the step
is one polynomial in it, whose matrices (``_rk4_polynomials``) are built
for a block of steps at once and shared by every realization. The ramped
Hamiltonian ``H(t) = H0 + J(t) Hz + c(t) Hcd`` is defined in one place:
``model.RampedGateHamiltonian``.
"""

from __future__ import annotations

import functools
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
# Most steps in one block. A run starts with blocks of one step; a ramped
# run plans this many after a block with no rejected step and keeps its block
# after one with, a callable doubles and halves it (``dop853``). On the 40
# noise-map cells, 8 ran slower than 16; 32 took 4% more steps and twice the
# block memory, for a gain within this host's timing noise.
_BLOCK_STEPS = 16
# Longest state advanced in matrix mode; a longer one, or a density matrix in
# the commutator form, runs in stage mode. At tau 20 with CD, from a
# full-support pure start, matrix mode ran 1.8-2.4x faster at length 4 and
# 0.85-1.08x at 8 (docs/noise_model.md, "Integration").
_MATRIX_MAX_SIZE = 4
# Largest sector dimension of a density matrix integrated as vec(rho) under
# the Liouvillian: one d^2 x d^2 product per stage beats the commutator's five
# numpy calls at d = 2 and 4 (36-65 against 93-159 us per step at d = 4,
# single-step stepper), but building the stage operators costs d^4 and loses
# from d = 8 on (timings in docs/noise_model.md, "Integration"); at d = 64
# one is 268 MB. At d = 2, every gate sector block, the block stepper's
# matrix mode runs the Liouvillian on 4 real Hermitian coordinates.
_LIOUVILLIAN_MAX_DIM = 4
# Fewest steps of a block run in matrix mode, whose cost barely grows with
# the steps; a shorter block runs in stage mode, whose cost is per step.
# The two cost about the same at 2 steps (docs/noise_model.md).
_MATRIX_MIN_STEPS = 3

# stage times of a step as fractions of h: stages 2..12. The last, c = 1, is
# also the FSAL point t + h.
C_STAGE = DP_C[1:]
# ``np.dot`` without its array-function dispatch, a quarter of a small product
matvec = np.ndarray.dot
# stage weights, then the solution's
_A_AUG = np.vstack([DP_A, DP_B])
# the two error estimators; complex, so stage mode's product casts nothing
_E53 = np.stack([DP_E5, DP_E3]).astype(np.complex128)
# matrix mode: row s is stage s, row 12 the solution; column 0 weighs the
# identity, the others h K_0 .. h K_11
_CHAIN = np.ones((_N_STAGES + 1, _N_STAGES + 1))
_CHAIN[:, 1:] = _A_AUG
# the step map, then the two error estimates (the FSAL derivative weighs 0)
_MAPS = np.zeros((3, _N_STAGES + 1))
_MAPS[0] = _CHAIN[_N_STAGES]
_MAPS[1:, 1:] = _E53.real[:, :_N_STAGES]


def _error_norm(err5, err3, root_width):
    """The DOP853 error norm of one step from the squared norms of its two
    scaled error estimates, each estimate already multiplied by the step
    length: 0 when both are 0, inf when either is not finite."""
    denom = err5 + 0.01 * err3
    if 0.0 < denom < math.inf:
        return err5 / (math.sqrt(denom) * root_width)
    return 0.0 if denom == 0.0 else math.inf


def _growth(err_norm):
    """The factor on an accepted step's length for the next step."""
    if err_norm == 0.0:
        return _MAX_FACTOR
    return min(_MAX_FACTOR, _SAFETY * err_norm ** -0.125)


def _block_ends(t, h, steps, samples, isamp):
    """Plan a block of at most ``steps`` steps from ``t``, from sample
    ``isamp`` on: its step ends, the first of them ``t``; its step lengths
    as ``(count, length)`` runs; and the samples it reaches as ``(end
    index, sample index)`` pairs.

    Steps of one sample interval have one length: ``h``, or, where the
    block reaches the sample time ``s``, the ``ceil((s - t) / h)`` equal
    steps that end exactly at ``s``. A block goes on past a sample time.
    """
    ends, runs, reached = [t], [], []
    while isamp < len(samples):
        room = steps + 1 - len(ends)
        start, stop = ends[-1], samples[isamp]
        span = stop - start
        if span > h * room:
            ends.extend([start + j * h for j in range(1, room + 1)])
            runs.append((room, h))
            break
        if span > 0.0:
            k = min(room, math.ceil(span / h))
            ends.extend([start + j * (span / k) for j in range(1, k)])
            ends.append(stop)
            runs.append((k, span / k))
        reached.append((len(ends) - 1, isamp))
        isamp += 1
        if len(ends) == steps + 1:
            break
    return ends, runs, reached


def _real_form(m):
    """The real ``(2 size, 2 size)`` matrices that act on the float view of
    a complex vector as the complex ``(size, size)`` matrices of the stack
    ``m`` act on the vector: entry ``(a, b)`` is the block ``[[Re, -Im],
    [Im, Re]]``."""
    k, size = m.shape[0], m.shape[1]
    r = np.empty((k, 2 * size, 2 * size))
    r[:, 0::2, 0::2] = r[:, 1::2, 1::2] = m.real
    r[:, 1::2, 0::2] = m.imag
    r[:, 0::2, 1::2] = -m.imag
    return r


def _hermitian_coordinates(dim):
    """The Hermitian coordinates ``x`` of a flattened ``(dim, dim)``
    Hermitian matrix: the diagonal, then ``Re rho_ij`` and ``Im rho_ij`` of
    each ``i < j``; at ``dim`` 2, ``(rho00, rho11, Re rho01, Im rho01)``.

    Returns ``T``, the real ``(2 dim^2, dim^2)`` matrix that maps ``x`` to
    the float view of ``vec(rho)``, and ``read``, the float indices where
    ``x`` sits in that view: ``x = view[read]`` exactly, the ``E`` with
    ``E T = I``. Every entry of ``T`` is 0 or +-1, one nonzero per row, so
    ``T x`` is exact and its matrix exactly Hermitian.
    """
    size = dim * dim
    t = np.zeros((2 * size, size))
    read = [2 * (dim + 1) * i for i in range(dim)]
    t[read, np.arange(dim)] = 1.0
    col = dim
    for i in range(dim):
        for j in range(i + 1, dim):
            upper, lower = 2 * (dim * i + j), 2 * (dim * j + i)
            t[[upper, lower], col] = 1.0
            t[[upper + 1, lower + 1], col + 1] = 1.0, -1.0
            read += [upper, upper + 1]
            col += 2
    return t, np.array(read)


@functools.lru_cache(maxsize=8)
def _coordinate_forms(size, pure):
    """``(W, T, read)``: ``W``, the fixed real matrix that maps the float
    view of a flattened complex ``(size, size)`` operator to the real matrix
    that acts on a state's coordinates, one product for a stack of
    operators; ``T`` and ``read`` of a density matrix's coordinates
    (``_hermitian_coordinates``), or for a ``pure`` state None and every
    float. Built once per ``(size, pure)``, read-only.

    A pure state's coordinates are its float view and the matrix is the
    realification ``R(L)`` (``_real_form``): every entry one float of the
    operator, so the product gathers it exactly. A density matrix's are its
    Hermitian coordinates and the matrix is ``E R(L) T``, of a quarter the
    size: every entry a sum of at most two floats.
    """
    basis = np.eye(2 * size * size).view(np.complex128)
    forms = _real_form(basis.reshape(-1, size, size))
    t, read = None, np.arange(2 * size)
    if not pure:
        t, read = _hermitian_coordinates(math.isqrt(size))
        forms = forms[:, read].dot(t)
        t.setflags(write=False)
    forms = forms.reshape(forms.shape[0], -1)
    for array in (forms, read):
        array.setflags(write=False)
    return forms, t, read


def _matrix_mode(size, rtol, atol, root_width, dissipator):
    """The block evaluator of a state of length ``size`` under operators
    that are ``(size, size)`` matrices on it: a pure state, or given a
    ``dissipator`` a flattened density matrix under its ``liouvillian``.

    The system is linear, so a step is a map ``y -> P y`` whose error
    estimates ``E5 y`` and ``E3 y`` are matrices too, none depending on
    ``y``. The stage chain runs on the steps of a block at once, starting
    from the identity: ``U_s = (1, a_s) . (I, h K_0, ...)`` and ``h K_s =
    (h M_s) U_s``, each one stacked product; one more product gives every
    ``P``, ``E5`` and ``E3``. The state then takes one matrix-vector
    product per step, and all error estimates are one product.

    All of it runs in real arithmetic, where a small stacked product costs
    a third of a complex one, on real coordinates of the state
    (``_coordinate_forms``): the float view of a pure state, under the
    ``2 size x 2 size`` realification of its operators, or the ``size``
    Hermitian coordinates of a density matrix, under ``size x size``
    matrices, as small as a pure 2-amplitude sector's. One product with
    ``W`` gathers the block's stage operators in that form. The states and
    both error estimates are mapped back to complex entries through ``T``
    (exactly), so the error norm is taken over the complex entries as in
    stage mode, and a density sample is exactly Hermitian. The arrays are
    allocated once per run, for ``_BLOCK_STEPS`` steps, and every block
    runs the matrix chain on all of them: a step beyond the block's has
    length 0 and is never read. Arrays sized to each block length would
    take twice the memory, for no less time. Returns ``steps(M, hs, y) ->
    (Y, errs)``, as ``_stage_mode``'s, with the error norms of all the
    block's steps.
    """
    n, rows = _BLOCK_STEPS, 11 * _BLOCK_STEPS + 1
    forms, t, read = _coordinate_forms(size, dissipator is None)
    wide = read.shape[0]
    # the operators of the block's stage times in coordinates; zero until
    # written
    gathered = np.zeros((rows, wide, wide))
    flat_ops = gathered.reshape(rows, -1)
    # step k's stage s is operator 11 k + s, s = 0..11: a view, as steps
    # share their end and start operator
    row, col = gathered.strides[0], gathered.strides[2]
    stages = np.lib.stride_tricks.as_strided(
        gathered, (_N_STAGES, n, wide, wide), (row, 11 * row, wide * col, col),
        writeable=False)
    scaled = np.empty(stages.shape)  # h M of each stage and step
    # each step's length over the entries of its operators
    spread = np.empty((n, wide, wide))
    spread_rows = spread.reshape(n, -1)
    # I, then h K_0 .. h K_11 of each step
    z = np.empty((_N_STAGES + 1, n, wide, wide))
    z[0] = np.eye(wide)
    flat = z.reshape(_N_STAGES + 1, -1)
    u = np.empty(n * wide * wide)
    u3 = u.reshape(n, wide, wide)
    chain = [(_CHAIN[s, :s + 1], flat[:s + 1], scaled[s], z[s + 1])
             for s in range(1, _N_STAGES)]
    maps = np.empty((3, n, wide, wide))  # P, E5 and E3 of each step
    states = np.zeros((n + 1, size), dtype=np.complex128)
    floats = states.view(np.float64)
    err = np.empty((2, n, 2 * size, 1))
    if t is None:
        x = floats
    else:
        x = np.zeros((n + 1, wide))
        err_x = np.empty((2, n, wide, 1))
    walk = list(zip(maps[0], x[:-1], x[1:]))
    err_pairs = err.reshape(2, n, size, 2)
    magnitude = np.empty((n + 1, size))
    before, after = magnitude[:-1], magnitude[1:]
    scale = np.empty((n, size))
    scale_col = scale[:, :, None]
    sums = np.empty((2, n))
    estimators, columns = maps[1:], x[:-1, :, None]
    maps_flat = maps.reshape(3, -1)

    def steps(M, hs, y):
        m, k = hs.shape[0], M.shape[0]
        M.reshape(k, -1).view(np.float64).dot(forms, flat_ops[:k])
        spread_rows[:m] = hs[:, None]
        spread_rows[m:] = 0.0
        np.multiply(stages, spread, out=scaled)
        z[1] = scaled[0]  # h K_0 = h M_0 I
        for coef, head, op, k_s in chain:
            coef.dot(head, u)
            np.matmul(op, u3, out=k_s)
        _MAPS.dot(flat, maps_flat)
        np.take(y.view(np.float64), read, out=x[0])
        for p, x_k, x_next in walk[:m]:
            p.dot(x_k, x_next)
        if t is None:
            np.matmul(estimators, columns, out=err)
        else:
            np.matmul(estimators, columns, out=err_x)
            np.matmul(t, err_x, out=err)
            x.dot(t.T, floats)
        np.abs(states, out=magnitude)
        np.maximum(before, after, out=scale)
        np.multiply(scale, rtol, out=scale)
        np.add(scale, atol, out=scale)
        np.divide(err_pairs, scale_col, out=err_pairs)
        np.square(err, out=err)
        err_pairs.sum(axis=(2, 3), out=sums)
        err5, err3 = sums[:, :m].tolist()
        return states, [_error_norm(a, b, root_width)
                        for a, b in zip(err5, err3)]

    return steps


def _stage_mode(size, rtol, atol, root_width, dissipator):
    """The block evaluator that runs the stages of each step on the state.

    The state and the stage derivatives are the rows of one block ``Z``:
    stage ``s`` is ``apply(M, (1, h a_s) . Z[:s + 1], out)``, which writes
    the derivative into its row: ``matvec``, or ``lindblad_apply`` for a
    ``dissipator`` that is not ``_lifted``. A block's first derivative is
    evaluated at its start, and the FSAL derivative of each step is the
    next step's first. The steps of a block run in turn and stop at the
    first that fails. Returns ``steps(M, hs, y) -> (Y, errs)`` for a
    block of steps of lengths ``hs``: ``Y[k]`` is the state after ``k``
    steps of the block (``Y[0]`` is ``y``), ``errs`` the error norms of
    the steps up to the first that fails.
    """
    apply = (matvec if dissipator is None or _lifted(dissipator)
             else lindblad_apply(dissipator))
    Z = np.zeros((_N_STAGES + 2, size), dtype=np.complex128)
    state, K = Z[0], Z[1:]  # the state, then the stage derivatives
    # column 0 weighs the state; the rest is h * _A_AUG, written per step
    # through the float view of its real parts (the imaginary parts stay 0)
    HA = np.ones((_N_STAGES + 1, _N_STAGES + 1), dtype=np.complex128)
    weights = HA.view(np.float64)[:, 2::2]
    heads = [(HA[s, :s + 1], Z[:s + 1], K[s]) for s in range(1, _N_STAGES)]
    b_row, head_all, k_fsal = HA[_N_STAGES], Z[:_N_STAGES + 1], K[_N_STAGES]
    states = np.empty((_BLOCK_STEPS + 1, size), dtype=np.complex128)
    dy = np.empty(size, dtype=np.complex128)
    err = np.empty((2, size), dtype=np.complex128)
    # real arithmetic on the estimates: a complex division by a NaN warns
    w = err.view(np.float64)
    pairs = w.reshape(2, size, 2)
    magnitude, scale = np.empty((2, size)), np.empty(size)
    scale_col = scale[:, None]

    def steps(M, hs, y):
        states[0] = y
        state[:] = y
        apply(M[0], state, K[0])
        old, new = magnitude
        np.abs(y, out=old)
        errs = []
        for k, h in enumerate(hs.tolist()):
            base = 11 * k
            np.multiply(h, _A_AUG, out=weights)
            for s, (coef, head, k_s) in enumerate(heads, 1):
                apply(M[base + s], coef.dot(head, dy), k_s)
            y_new = states[k + 1]
            b_row.dot(head_all, y_new)
            apply(M[base + _N_STAGES - 1], y_new, k_fsal)
            np.abs(y_new, out=new)
            np.maximum(old, new, out=scale)
            np.multiply(scale, rtol, out=scale)
            np.add(scale, atol, out=scale)
            _E53.dot(K, err)
            np.multiply(w, h, out=w)
            np.divide(pairs, scale_col, out=pairs)
            (err5, _), (_, err3) = w.dot(w.T).tolist()
            errs.append(_error_norm(err5, err3, root_width))
            if not errs[-1] < 1.0:
                break
            state[:] = y_new
            K[0] = k_fsal
            old, new = new, old
        return states, errs

    return steps


def dop853(generators, sample_times, y0, rtol, atol, dissipator=None,
           width=None):
    """Integrate a flat complex ``y``: a pure state under ``dy/dt = M(t) y``
    with its ``norm_drift`` monitored, or, given the ``(dim, dim)``
    ``dissipator`` block ``alpha (d_a d_c - 1)``, a flattened density
    matrix under the Lindblad equation with its ``trace_drift`` monitored;
    never renormalized. A density matrix runs as ``vec(rho)`` under
    ``liouvillian`` superoperators where ``_lifted``, else in the commutator
    form (``_stage_mode``), and is kept Hermitian: matrix mode integrates
    its Hermitian coordinates, read from the diagonal and upper triangle,
    and after a stage-mode block ``symmetrize`` writes the last accepted
    and each sampled state.

    Blocks of ``m`` steps (``_BLOCK_STEPS``) share one step-size
    controller. ``generators(ts)`` is called once per block with its ``11 m
    + 1`` distinct stage times (its start, then for each step its stages 2
    to 12, the last, ``t + h``, also the step's FSAL point and the next
    step's first) and returns the stage operators at those times, stacked
    (``stage_operators``). Steps of one sample interval have one length
    (``_block_ends``), a block may cross sample times, and every sample
    time is a step end, so states are recorded exactly at ``sample_times``
    (the first entry must equal the start time); the first step is a
    thousandth of their span.

    Each step's error norm is DOP853's, divided by ``width`` (``len(y0)``
    when None): a caller that integrates an invariant sector of a longer
    state passes that state's length, and takes its steps. A block
    accepts its steps before the first whose norm is not below 1. The next
    step length is the smallest of ``h_k min(10, 0.9 err_k^-1/8)`` over
    the block's steps when all are accepted, else ``h max(0.2, 0.9
    err^-1/8)`` of the failed step; at ``m = 1`` this is the classical
    controller. ``m`` starts at 1. A source whose block costs the same at
    any length sets ``generators.full_blocks`` (``evolve_ramped``: one
    product builds a block's generators): then ``m`` is ``_BLOCK_STEPS``
    after a block with no rejected step and is kept after one with. Any
    other source, such as a callable evaluated once per stage time, doubles
    ``m`` after a clean block and halves it after a rejected step. A
    sector run takes the full run's steps under either rule. A block runs
    in matrix mode (``_matrix_mode``) when the stages apply ``matvec``, the
    state has at most ``_MATRIX_MAX_SIZE`` entries and the block at least
    ``_MATRIX_MIN_STEPS`` steps, else in stage mode (``_stage_mode``); both
    take the same steps.

    Returns ``(states, drift, stats)``: ``drift`` is the largest over the
    accepted states; ``stats`` counts the ``accepted`` and ``rejected``
    steps, the ``blocks``, the steps ``discarded`` (those of a block after
    its first failed step, whose stage operators were built: matrix mode
    computes them, stage mode stops at the failure) and the ``rhs_evals``,
    the stage operators built, ``blocks + 11 (accepted + rejected +
    discarded)``, and holds the smallest and largest accepted step,
    ``h_min`` and ``h_max`` (0 when no step was accepted). Raises
    ``StepUnderflowError`` when the step falls below 16 eps |t| or the
    budget of accepted plus rejected steps runs out.
    """
    size = y0.shape[0]
    samples = np.asarray(sample_times, dtype=np.float64).tolist()
    out = np.empty((len(samples), size), dtype=np.complex128)
    out[0] = y0
    y = out[0].copy()
    root_width = math.sqrt(size if width is None else width)
    pure = dissipator is None
    full_blocks = getattr(generators, "full_blocks", False)
    drift_of = norm_drift if pure else trace_drift
    stage = _stage_mode(size, rtol, atol, root_width, dissipator)
    matrix = (_matrix_mode(size, rtol, atol, root_width, dissipator)
              if size <= _MATRIX_MAX_SIZE and (pure or _lifted(dissipator))
              else None)
    times = np.empty(11 * _BLOCK_STEPS + 1)
    t = samples[0]
    h_abs = (samples[-1] - t) * 1e-3
    m, isamp = 1, 1
    drift = 0.0
    h_min, h_max = math.inf, 0.0
    accepted = rejected = discarded = blocks = built = 0

    while isamp < len(samples):
        if samples[isamp] <= t:  # a sample at the current time takes no step
            out[isamp] = y
            isamp += 1
            continue
        if accepted + rejected >= _MAX_TOTAL_STEPS:
            raise StepUnderflowError(
                "step budget exhausted before reaching t_end")
        if h_abs < 16.0 * _EPS * max(abs(t), abs(samples[isamp])):
            raise StepUnderflowError(
                "adaptive step size underflowed; the problem is too "
                "stiff for the requested tolerances, or H(t) is not "
                "finite")
        ends, runs, reached = _block_ends(
            t, h_abs, min(m, _MAX_TOTAL_STEPS - accepted - rejected),
            samples, isamp)
        lengths = [h for count, h in runs for _ in range(count)]
        planned = len(lengths)
        bounds = np.array(ends)
        ts = times[:11 * planned + 1]
        ts[0] = t
        grid = ts[1:].reshape(planned, 11)
        hs = np.array(lengths)
        np.multiply(hs[:, None], C_STAGE, out=grid)
        grid += bounds[:-1, None]
        grid[:, -1] = bounds[1:]  # a step ends exactly where the next starts
        steps = stage if matrix is None or planned < _MATRIX_MIN_STEPS else matrix
        Y, errs = steps(generators(ts), hs, y)
        finish = symmetrize if not pure and steps is stage else _copy
        blocks += 1
        built += ts.shape[0]

        f = 0
        for err_norm in errs:
            if not err_norm < 1.0:
                break
            f += 1
        if f:
            accepted += f
            t = ends[f]
            h_min = min(h_min, *lengths[:f])
            h_max = max(h_max, *lengths[:f])
            drift = max(drift, drift_of(Y[1:f + 1]))
            finish(Y[f], y)
        for k, i in reached:
            if k > f:
                break
            finish(Y[k], out[i])
            isamp = i + 1
        if f < planned:
            rejected += 1
            discarded += planned - f - 1
            h_abs = lengths[f] * max(_MIN_FACTOR,
                                     _SAFETY * errs[f] ** -0.125)
            if not full_blocks:
                m = max(1, m // 2)
        else:
            # the worst error of each run of equal steps sets the next step
            h_abs, start = math.inf, 0
            for count, h in runs:
                h_abs = min(h_abs, h * _growth(max(errs[start:start + count])))
                start += count
            m = _BLOCK_STEPS if full_blocks else min(2 * m, _BLOCK_STEPS)
    stats = {"accepted": accepted, "rejected": rejected,
             "discarded": discarded, "blocks": blocks, "rhs_evals": built,
             "h_min": h_min if accepted else 0.0, "h_max": h_max}
    return out, drift, stats


def _copy(y, out):
    """Keep an accepted state as it is, as ``symmetrize`` keeps one."""
    out[:] = y


def norm_drift(y):
    """The largest |norm^2 - 1| over the states ``y``, one per row, or of
    the one flat state ``y``."""
    w = y.view(np.float64)
    return float(np.abs(np.einsum("...i,...i", w, w) - 1.0).max())


def trace_drift(y):
    """The largest |trace - 1| over the flattened square density matrices
    ``y``, one per row, or of the one ``y``."""
    dim = math.isqrt(y.shape[-1])
    return float(np.abs(y[..., ::dim + 1].sum(axis=-1) - 1.0).max())


def symmetrize(y, out):
    """Keep a flattened density matrix exactly Hermitian: ``(rho + rho^H)
    / 2``, written into ``out``.

    ``rho^H`` is written into ``out``, then ``rho`` is added and the sum
    halved in place, so ``y`` is only read and no temporary is made; the
    stepper passes its state as ``out``. The Liouvillian maps Hermitian
    matrices to Hermitian ones, so between two symmetrizations only
    rounding departs from it.
    """
    dim = math.isqrt(y.shape[0])
    rho = y.reshape(dim, dim)
    sym = out.reshape(dim, dim)
    np.conjugate(rho.T, out=sym)
    np.add(rho, sym, out=sym)
    np.multiply(sym, 0.5, out=sym)


def _lifted(dissipator):
    """Whether ``dissipator`` is of a sector of dimension up to
    ``_LIOUVILLIAN_MAX_DIM``, run as ``vec(rho)`` under ``liouvillian``."""
    return (dissipator is not None
            and dissipator.shape[0] <= _LIOUVILLIAN_MAX_DIM)


def stage_operators(m, dissipator, weights=1.0):
    """The stage operators of the stack of generators ``m`` in a run with
    ``dissipator``: ``m``, or where it is ``_lifted`` their ``liouvillian``
    superoperators, the ``k``-th with ``weights[k] D`` on its diagonal."""
    if not _lifted(dissipator):
        return m
    return liouvillian(m, np.outer(weights, dissipator))


def evolve_ramped(h, sample_times, y0, rtol, atol, dissipator=None,
                  width=None):
    """``dop853`` on the ramped system ``h``, a
    ``model.RampedGateHamiltonian``, in place of ``generators``.

    ``M(t) = -i H(t)`` is one real combination ``(1, J(t), c(t))`` of the
    float views of ``-i h0``, ``-i hz`` and ``-i hcd``: -i is folded in once
    per call, and the generators of all stage times of a block are one
    product, written into a block allocated once per call for the largest
    block; so a block costs about the same at any length, and the stepper
    plans full blocks (``full_blocks``). The model writes ``J(t)`` and
    ``c(t)`` into the columns of the coefficient block. Where the
    ``dissipator`` is ``_lifted`` the same product builds the
    superoperators ``L(t) = (L0 + D) + J(t) Lz + c(t) Lcd`` of the three
    terms, lifted once per call (``stage_operators``).
    The other arguments and the result are ``dop853``'s.
    """
    # the constant D joins the lift of -i h0
    terms = stage_operators(np.stack([-1j * h.h0, -1j * h.hz, -1j * h.hcd]),
                            dissipator, [1.0, 0.0, 0.0])
    basis = terms.reshape(3, -1).view(np.float64)
    rows = 11 * _BLOCK_STEPS + 1
    block = np.empty((rows,) + terms.shape[1:], dtype=np.complex128)
    target = block.reshape(rows, -1).view(np.float64)
    # rows (1, J(t), c(t)), one per stage time; without CD c stays zero
    coef = np.zeros((rows, 3))
    coef[:, 0] = 1.0
    drive, cd = coef[:, 1], coef[:, 2]

    def generators(ts):
        k = ts.shape[0]
        h.drive_value(ts, drive[:k])
        if h.use_cd:
            h.cd_coefficient(ts, cd[:k])
        coef[:k].dot(basis, target[:k])
        return block[:k]

    generators.full_blocks = True
    return dop853(generators, sample_times, y0, rtol, atol, dissipator,
                  width)


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
