"""Numeric kernels shared by the evolution engines, in plain numpy.

One adaptive Dormand-Prince 8(5,3) block stepper, ``dop853``, integrates
every Schroedinger and Lindblad evolution, with the stage operators of a
ramped system from ``evolve_ramped``; ``dephasing_average`` is the
Monte-Carlo dephasing oracle's RK4 ensemble average. The kernels integrate
exactly the state they are given: ``cdgate.dynamics`` restricts a run to
its invariant sector and embeds the result. A run's fixed set-up is kept
per thread by one rule, ``_reused``. The design, and the measurements
behind each threshold below, are in ``docs/noise_model.md``,
"Integration".
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import StepUnderflowError

_EPS = float(np.finfo(np.float64).eps)

# Dormand-Prince 8(5,3) tableau ("DOP853", Hairer/Norsett/Wanner): twelve
# stages plus the FSAL evaluation, and the embedded 5th/3rd order estimators.
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
# The block stepper's thresholds: the most steps in one block; the longest
# state, and the fewest steps of a block, run in matrix mode; the largest
# sector dimension of a density matrix run as vec(rho) under the
# Liouvillian, above which it runs in the commutator form.
_BLOCK_STEPS = 16
_MATRIX_MAX_SIZE = 4
_MATRIX_MIN_STEPS = 3
_LIOUVILLIAN_MAX_DIM = 4

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


def _error_norms(err5, err3, root_width):
    """The DOP853 error norm of each step, ``err5 / sqrt(err5 + 0.01 err3)``
    over ``root_width`` (Hairer, Norsett and Wanner, *Solving ODEs I*,
    II.10), from the sequences of the squared norms of the steps' two scaled
    error estimates, each already multiplied by its step length: 0 where
    both are 0, inf where either is not finite."""
    return [e5 / (math.sqrt(d) * root_width)
            if 0.0 < (d := e5 + 0.01 * e3) < math.inf
            else 0.0 if d == 0.0 else math.inf
            for e5, e3 in zip(err5, err3)]


def _growth(err_norm):
    """The factor on an accepted step's length for the next step."""
    if err_norm == 0.0:
        return _MAX_FACTOR
    return min(_MAX_FACTOR, _SAFETY * err_norm ** -0.125)


def _block_planner(samples):
    """The planner of a run's blocks over the sample times ``samples`` (a
    list of floats), writing into arrays allocated once per run.
    ``plan(t, h, steps, isamp)`` plans a block of at most ``steps`` steps
    from ``t``, from sample ``isamp`` on, and returns ``(ts, hs, ends, runs,
    reached)``: the block's ``11 m + 1`` stage times (``dop853``), its step
    lengths and its step ends, the first of them ``t``, each a view of the
    planner's arrays; its step lengths as ``(count, length)`` runs; and the
    samples it reaches as ``(end index, sample index)`` pairs. The step
    lengths head ``plan.lengths``, zero past every block yet planned.

    Steps of one sample interval have one length: ``h``, or, where the
    block reaches the sample time ``s``, the ``ceil((s - t) / h)`` equal
    steps that end exactly at ``s``. A block goes on past a sample time.
    Step ``j`` of a run from ``start`` ends at ``start + j length``,
    rounded as the scalar sum, and each step's last stage time is its end.
    """
    n = _BLOCK_STEPS
    ends = np.empty(n + 1)
    # zero, not np.empty: the stage writer scales steps past the block too
    lengths = np.zeros(n)
    times = np.empty(11 * n + 1)
    count = np.arange(1.0, n + 1.0)  # j = 1 .. n
    unit = np.concatenate([[0.0], np.add.outer(count - 1.0, C_STAGE).ravel()])
    nsamp = len(samples)

    def plan(t, h, steps, isamp):
        if samples[isamp] - t > h * steps:  # one run of equal steps
            ts = times[:11 * steps + 1]
            np.multiply(unit[:11 * steps + 1], h, out=ts)
            ts += t
            hs = lengths[:steps]
            hs.fill(h)
            return ts, hs, ts[::11], [(steps, h)], []
        ends[0] = start = t
        planned, runs, reached = 0, [], []
        while isamp < nsamp:
            room = steps - planned
            stop = samples[isamp]
            span = stop - start
            full = span > h * room
            if full:
                k, length = room, h
            elif span > 0.0:
                k = min(room, math.ceil(span / h))
                length = span / k
            else:
                k = 0
            if k:
                run = ends[planned + 1:planned + k + 1]
                np.multiply(count[:k], length, out=run)
                run += start
                lengths[planned:planned + k] = length
                runs.append((k, length))
                planned += k
            if full:
                break
            if k:
                ends[planned] = start = stop  # exactly at the sample time
            reached.append((planned, isamp))
            isamp += 1
            if planned == steps:
                break
        ts, hs = times[:11 * planned + 1], lengths[:planned]
        ts[0] = t
        grid = ts[1:].reshape(planned, 11)
        np.multiply(hs[:, None], C_STAGE, out=grid)
        grid += ends[:planned, None]
        grid[:, -1] = ends[1:planned + 1]  # a step ends where the next starts
        return ts, hs, ends[:planned + 1], runs, reached

    plan.lengths = lengths
    return plan


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


def _coordinate_forms(size, pure):
    """``(W, T, read)``: ``W``, the fixed real matrix that maps the float
    view of a flattened complex ``(size, size)`` operator to the real matrix
    that acts on a state's coordinates, one product for a stack of
    operators; ``T`` and ``read`` of a density matrix's coordinates
    (``_hermitian_coordinates``), or for a ``pure`` state None and every
    float. A pure state's matrix is the realification ``R(L)``
    (``_real_form``), every entry one float of the operator; a density
    matrix's is ``E R(L) T``, every entry a sum of at most two floats.
    """
    basis = np.eye(2 * size * size).view(np.complex128)
    forms = _real_form(basis.reshape(-1, size, size))
    t, read = None, np.arange(2 * size)
    if not pure:
        t, read = _hermitian_coordinates(math.isqrt(size))
        forms = forms[:, read].dot(t)
    return forms.reshape(forms.shape[0], -1), t, read


def _matrix_mode(size, rtol, atol, root_width, pure):
    """The block evaluator of a state of length ``size`` under operators
    that are ``(size, size)`` matrices on it: a ``pure`` state, or else a
    flattened density matrix under its ``liouvillian``, integrated in its
    Hermitian coordinates, so that its samples are exactly Hermitian.

    Returns ``steps(m, y) -> (Y, errs)`` for a block of ``m`` steps, as
    ``_stage_mode``'s, with the error norms of all the block's steps. Its
    one input, written first by ``_stage_writer``, is ``steps.stages[s,
    k]``: ``h_k`` times stage ``s`` of step ``k`` in real coordinates
    (``_coordinate_forms``, whose ``W`` is ``steps.forms``). The chain runs
    on ``_BLOCK_STEPS`` steps whatever ``m``; the steps beyond the block's
    are never used. ``steps.buffers`` lists the arrays that each block
    writes before it reads them, so runs may share the evaluator
    (``dop853``).
    """
    n = _BLOCK_STEPS
    forms, t, read = _coordinate_forms(size, pure)
    wide = read.shape[0]
    # h M of each stage and step: the block's input
    stages = np.zeros((_N_STAGES, n, wide, wide))
    # I, then h K_0 .. h K_11 of each step
    z = np.empty((_N_STAGES + 1, n, wide, wide))
    z[0] = np.eye(wide)
    flat = z.reshape(_N_STAGES + 1, -1)
    u = np.empty(n * wide * wide)
    u3 = u.reshape(n, wide, wide)
    chain = [(_CHAIN[s, :s + 1], flat[:s + 1], stages[s], z[s + 1])
             for s in range(1, _N_STAGES)]
    maps = np.empty((3, n, wide, wide))  # P, E5 and E3 of each step
    states = np.zeros((n + 1, size), dtype=np.complex128)
    floats = states.view(np.float64)
    err = np.empty((2, n, 2 * size, 1))
    buffers = [stages, z[1:], u, maps, states, err]
    if t is None:
        x = floats
    else:
        x = np.zeros((n + 1, wide))
        err_x = np.empty((2, n, wide, 1))
        buffers += [x, err_x]
    walk = list(zip(maps[0], x[:-1], x[1:]))
    err_pairs = err.reshape(2, n, size, 2)
    magnitude = np.empty((n + 1, size))
    before, after = magnitude[:-1], magnitude[1:]
    scale = np.empty((n, size))
    scale_col = scale[:, :, None]
    sums = np.empty((2, n))
    buffers += [magnitude, scale, sums]
    estimators, columns = maps[1:], x[:-1, :, None]
    maps_flat = maps.reshape(3, -1)

    def steps(m, y):
        z[1] = stages[0]  # h K_0 = h M_0 I
        for coef, head, op, k_s in chain:
            coef.dot(head, u)
            np.matmul(op, u3, out=k_s)
        _MAPS.dot(flat, maps_flat)
        y.view(np.float64).take(read, out=x[0])
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
        return states, _error_norms(*sums[:, :m].tolist(), root_width)

    steps.stages, steps.forms, steps.buffers = stages, forms, buffers
    return steps


def _stage_writer(generators, matrix, lengths):
    """Matrix mode's input writer for one run: ``write(ts)`` fills a
    block's coefficient rows at its stage times ``ts``, then sets
    ``matrix.stages[s, k]`` to ``lengths[k]`` times row ``11 k + s`` against
    the terms for every step the chain runs on, past the block too, so the
    rows and ``lengths`` must start at zero. The fill, rows and terms are
    ``generators.coordinates(W)`` where set, else the float views of the
    stage operators ``generators(ts)`` as rows and ``W`` as terms."""
    coordinates = getattr(generators, "coordinates", None)
    if coordinates is None:
        # zero, not np.empty: the rows past the block are read
        ops = np.zeros((11 * _BLOCK_STEPS + 1, matrix.forms.shape[0] // 2),
                       dtype=np.complex128)
        rows, terms = ops.view(np.float64), matrix.forms

        def fill(ts):
            ops[:ts.shape[0]] = generators(ts).reshape(ts.shape[0], -1)
    else:
        fill, rows, terms = coordinates(matrix.forms)
    n, width = _BLOCK_STEPS, rows.shape[1]
    # step k's stage s is row 11 k + s, s = 0..11: a view, as steps share
    # their end and start row
    row, col = rows.strides
    by_step = np.ndarray((_N_STAGES, n, width), rows.dtype, rows, 0,
                         (row, 11 * row, col))
    scaled = np.empty(by_step.shape)
    scaled_rows = scaled.reshape(-1, width)
    out = matrix.stages.reshape(_N_STAGES * n, -1)
    h = lengths[:, None]

    def write(ts):
        fill(ts)
        np.multiply(by_step, h, out=scaled)
        scaled_rows.dot(terms, out)

    return write


def _stage_mode(size, rtol, atol, root_width):
    """The block evaluator that runs the stages of each step on the state.

    The state and the stage derivatives are the rows of one block ``Z``:
    stage ``s`` is ``apply(M, (1, h a_s) . Z[:s + 1], out)``, which writes
    the derivative into its row; the FSAL derivative of each step is the
    next step's first. Returns ``steps(M, hs, y, apply) -> (Y, errs)`` for
    a block of steps of lengths ``hs``: ``Y[k]`` is the state after ``k``
    steps of the block (``Y[0]`` is ``y``), ``errs`` the error norms of the
    steps up to the first that fails, where the block stops. The equation
    ``apply`` is given with each block, so one evaluator serves every
    equation of its size and tolerances. ``steps.buffers`` lists the arrays
    that each block writes before it reads them.
    """
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

    def steps(M, hs, y, apply):
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
            errs += _error_norms((err5,), (err3,), root_width)
            if not errs[-1] < 1.0:
                break
            state[:] = y_new
            K[0] = k_fsal
            old, new = new, old
        return states, errs

    steps.buffers = [Z, weights, states, dy, err, magnitude, scale]
    return steps


# an overflowing stage makes the error norm inf: its step is rejected
@np.errstate(over="ignore", invalid="ignore")
def dop853(generators, sample_times, y0, rtol, atol, dissipator=None,
           width=None):
    """Integrate a flat complex ``y``: a pure state under ``dy/dt = M(t) y``
    with its ``norm_drift`` monitored, or, given the ``(dim, dim)``
    ``dissipator`` block ``alpha (d_a d_c - 1)``, a flattened density
    matrix under the Lindblad equation with its ``trace_drift`` monitored;
    never renormalized. A density matrix runs as ``vec(rho)`` under
    ``liouvillian`` superoperators where ``_lifted``, else in the commutator
    form (``lindblad_apply``); its samples are exactly Hermitian.

    ``generators(ts)`` is called once per block of ``m`` steps with its
    ``11 m + 1`` distinct stage times (its start, then each step's stages 2
    to 12, the last, ``t + h``, also the next step's first) and returns the
    stage operators at those times, stacked (``stage_operators``). States
    are recorded exactly at ``sample_times``, each a step end, from the
    first, the start time; the first step is a thousandth of their span.

    Each step's error norm is DOP853's (``_error_norms``), divided by
    ``width`` (``len(y0)`` when None): a caller that integrates an invariant
    sector of a longer state passes that state's length, and takes its
    steps. A block keeps its steps before the first whose norm is not below
    1. The next step is the smallest ``h_k min(10, 0.9 err_k^-1/8)`` over
    the block when all its steps are accepted, else ``h max(0.2, 0.9
    err^-1/8)`` of the failed step. ``m`` starts at 1. Where
    ``generators.full_blocks`` is set, ``m`` is ``_BLOCK_STEPS`` after a
    block with no rejected step and kept after one with; else it doubles
    after a clean block and halves after a rejected step. A block runs in
    matrix mode (``_matrix_mode``) when the stages apply ``matvec``, the
    state has at most ``_MATRIX_MAX_SIZE`` entries and the block at least
    ``_MATRIX_MIN_STEPS`` steps, with its input from coefficient rows
    (``_stage_writer``), else in stage mode (``_stage_mode``). The modes
    can take a few different steps where a norm is within rounding of 1.
    The evaluators are kept (``_reused``) and carry nothing from one block
    to the next, so a run nested in ``generators`` may use them too.

    Returns ``(states, drift, stats)``: ``drift`` is the largest over the
    accepted states; ``stats`` counts the ``accepted`` and ``rejected``
    steps, the ``blocks``, the steps ``discarded`` (those of a block after
    its first failed step) and the ``rhs_evals``, ``blocks + 11 (accepted +
    rejected + discarded)``, and holds the smallest and largest accepted
    step, ``h_min`` and ``h_max`` (0 when no step was accepted). Raises
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
    apply = (matvec if pure or _lifted(dissipator)
             else lindblad_apply(dissipator))
    stage = _reused("stage", (size, rtol, atol, root_width),
                    lambda: _stage_mode(size, rtol, atol, root_width))
    plan = _block_planner(samples)
    matrix = write_stages = None
    if size <= _MATRIX_MAX_SIZE and apply is matvec:
        matrix = _reused(
            "matrix_pure" if pure else "matrix_density",
            (size, rtol, atol, root_width),
            lambda: _matrix_mode(size, rtol, atol, root_width, pure))
        write_stages = _stage_writer(generators, matrix, plan.lengths)
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
        ts, hs, ends, runs, reached = plan(
            t, h_abs, min(m, _MAX_TOTAL_STEPS - accepted - rejected), isamp)
        planned = hs.shape[0]
        if matrix is None or planned < _MATRIX_MIN_STEPS:
            Y, errs = stage(generators(ts), hs, y, apply)
            finish = _copy if pure else symmetrize
        else:
            write_stages(ts)
            Y, errs = matrix(planned, y)
            finish = _copy
        blocks += 1
        built += ts.shape[0]

        f = 0
        for err_norm in errs:
            if not err_norm < 1.0:
                break
            f += 1
        if f:
            accepted += f
            t = ends.item(f)
            start = 0
            for count, h in runs:
                if start >= f:
                    break
                h_min, h_max = min(h_min, h), max(h_max, h)
                start += count
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
            h_abs = hs.item(f) * max(_MIN_FACTOR,
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


# this thread's kept objects: slot -> (key, object), written by _reused
_kept = threading.local()


def _reused(slot, key, build):
    """``build()``, kept for this thread in ``slot`` with the ``key`` of
    what it was built from, a sequence in which each array stands for its
    dtype, shape and bytes: a later call with an equal key gets it back,
    one with another key builds anew and replaces it. An array is compared
    by content, never by identity, so one edited in place makes a new
    key."""
    key = [(v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray)
           else v for v in key]
    kept = getattr(_kept, slot, None)
    if kept is None or kept[0] != key:
        kept = (key, build())
        setattr(_kept, slot, kept)
    return kept[1]


def _copy(y, out):
    """Keep an accepted state as it is, as ``symmetrize`` keeps one."""
    out[:] = y


def norm_drift(y):
    """The largest |norm^2 - 1| over the states ``y``, one per row, or of
    the one flat state ``y``."""
    w = y.view(np.float64)
    return float(np.abs(np.vecdot(w, w) - 1.0).max())


def trace_drift(y):
    """The largest |trace - 1| over the flattened square density matrices
    ``y``, one per row, or of the one ``y``."""
    dim = math.isqrt(y.shape[-1])
    return float(np.abs(y[..., ::dim + 1].sum(axis=-1) - 1.0).max())


def symmetrize(y, out):
    """Keep a flattened density matrix exactly Hermitian: ``(rho + rho^H)
    / 2``, written into ``out`` with no temporary; ``y`` is only read."""
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

    The stage operators of a block are one product of its coefficient rows
    ``(1, J(t), c(t))`` with the three terms ``-i h0``, ``-i hz`` and ``-i
    hcd``, lifted to ``L(t) = (L0 + D) + J(t) Lz + c(t) Lcd`` where the
    ``dissipator`` is ``_lifted``, so the stepper plans full blocks; matrix
    mode takes the same rows against the terms in its coordinates
    (``generators.coordinates``). The lift and those terms are kept for the
    last terms and dissipator (``_reused``). The other arguments and the
    result are ``dop853``'s.
    """
    # the constant D joins the lift of -i h0; the terms in coordinates are
    # appended by a run's first matrix-mode use (W follows from the key)
    key = (h.h0, h.hz, h.hcd, dissipator, _lifted(dissipator))
    lift = _reused("lift", key, lambda: [stage_operators(
        np.stack([-1j * h.h0, -1j * h.hz, -1j * h.hcd]), dissipator,
        [1.0, 0.0, 0.0])])
    terms = lift[0]
    basis = terms.reshape(3, -1).view(np.float64)
    rows = 11 * _BLOCK_STEPS + 1
    block = np.empty((rows,) + terms.shape[1:], dtype=np.complex128)
    target = block.reshape(rows, -1).view(np.float64)
    # rows (1, J(t), c(t)), one per stage time; zero, not np.empty: the
    # stage writer reads rows past the block, and without CD c stays zero
    coef = np.zeros((rows, 3))
    coef[:, 0] = 1.0
    drive, cd = coef[:, 1], coef[:, 2]

    def write_rows(ts):
        k = ts.shape[0]
        h.drive_value(ts, drive[:k])
        if h.use_cd:
            h.cd_from_drive(drive[:k], cd[:k])
        return k

    def generators(ts):
        k = write_rows(ts)
        coef[:k].dot(basis, target[:k])
        return block[:k]

    def coordinates(forms):
        if len(lift) == 1:
            lift.append(basis.dot(forms))
        return write_rows, coef, lift[1]

    generators.full_blocks = True
    generators.coordinates = coordinates
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
# dimension: 85 steps at dim 4 (measured in docs/noise_model.md).
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
    over a 1-D array of times. Each step is one classical RK4 step with
    stage times ``t``, ``t + dt/2`` and ``t + dt``, taken exactly as the
    polynomial ``y' = sum_p eta^p Q_p y`` in its constant noise ``eta``,
    whose matrices are shared by every realization (``_rk4_polynomials``)
    and built for a block of ``_oracle_block_steps(dim)`` steps at once.
    The result does not depend on the block size. The step is real, on rows
    ``[Re y; Im y]``: the memory held beyond ``noise`` is two ``(5, 2 dim,
    n_traj)`` buffers of ``eta^p y``, the powers, one block of stage
    Hamiltonians, its ``Q_p`` and their real form.
    """
    n_traj, n_steps = noise.shape
    dim = psi0.shape[0]
    block = _oracle_block_steps(dim)
    offsets = np.array([0.0, 0.5 * dt, dt])
    jump = (-1j * d).reshape(-1, 1)
    # two buffers of eta^p [Re y; Im y], p = 0..4, realizations as columns;
    # row 0 of the current one is the state, and each step writes the other's
    buffers = np.empty((2, 5, 2 * dim, n_traj))
    buffers[0, 0] = np.concatenate([psi0.real, psi0.imag])[:, None]
    cur, nxt = [(b[0], b[1:], b.reshape(10 * dim, n_traj)) for b in buffers]
    # eta^1 .. eta^4 of a chunk of steps
    chunk = max(1, _ORACLE_BLOCK_BYTES // (4 * 8 * n_traj))
    powers = np.empty((chunk, 4, 1, n_traj))
    multiply = np.multiply
    for k0 in range(0, n_steps, block):
        stop = min(k0 + block, n_steps)
        ts = (t_start + np.arange(k0, stop) * dt)[:, None] + offsets
        stages = np.multiply(-1j, h_stack(ts.ravel()))
        q = _rk4_polynomials(stages.reshape(stop - k0, 3, dim, dim), jump, dt)
        # each Q_p as the real block [[Re, -Im], [Im, Re]]: row k is
        # [R(Q_0) | ... | R(Q_4)] of step k, a real product with the stack
        q = q.reshape(stop - k0, 1, dim, 5, 1, dim)
        real = np.empty((stop - k0, 2, dim, 5, 2, dim))
        real[:, :1, :, :, :1] = real[:, 1:, :, :, 1:] = q.real
        np.negative(q.imag, out=real[:, :1, :, :, 1:])
        real[:, 1:, :, :, :1] = q.imag
        real = real.reshape(stop - k0, 2 * dim, 10 * dim)
        for c0 in range(k0, stop, chunk):
            c1 = min(c0 + chunk, stop)
            eta = powers[:c1 - c0]
            eta[:, 0, 0] = noise[:, c0:c1].T
            for p in (1, 2, 3):
                multiply(eta[:, p - 1], eta[:, 0], eta[:, p])
            for r_k, eta_k in zip(real[c0 - k0:c1 - k0], eta):
                y, y_powers, stacked = cur
                multiply(y, eta_k, y_powers)
                r_k.dot(stacked, nxt[0])
                cur, nxt = nxt, cur
        del stages, q, real, r_k  # before the next block's are built
    y = cur[0][:dim] + 1j * cur[0][dim:]
    return (y @ y.conj().T) / n_traj


def backend_name() -> str:
    """The numeric backend recorded in manifests: always plain numpy."""
    return "numpy"
