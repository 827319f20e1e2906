"""Exact and entropy-regularized solvers for small transportation problems.

Both solvers take a stack of same-shape problems; a single problem is a
stack of one and gets the same arithmetic as in a stack.  The exact solver
is the simplex method on the transportation polytope, run in lockstep over
the stack: spanning-tree bases of ``n + m - 1`` arcs and the inverse of the
basis equations, which gives the flows, the potentials and the entering
arc's cycle without a tree walk.  It is kept as int8, since its entries are
in {-1, 0, 1}: each pivot puts the entering arc in the leaving arc's slot
and makes one rank-one update.  Zero marginal entries simply produce
zero-flow basic arcs (the limit of a perturbed basis).

Every solve starts from dual feasible bases.  A cold solve starts each
problem from the star basis rooted at its heaviest row, or at its heaviest
column where that column is strictly heavier (the first maximum wins): the
root ``p``'s arcs to every column, and from each other row one arc to its
column of least ``c_ij - c_pj`` (mirrored at a column root), whose inverse
is written down with no matrix inversion.  Rooted where the mass is, the
star's flows are mostly feasible already, so few dual pivots remain.  The
root's potential is the gauge, fixed at 0: its row of the inverse is zero,
and pivots keep it so.  A warm start gives instead the final bases of an
earlier solve of the same costs, which stay dual feasible whatever the
marginals.  The flows ``inverse^T [r; s]`` are then optimal wherever they
are nonnegative.  Elsewhere a dual phase pivots them back to feasibility:
the leaving slot holds a negative flow (Bland: smallest arc index), the
entering arc has the least reduced cost among arcs whose cycle coefficient
at that slot is -1, and the same rank-one update runs with pivot element
-1.  Dual pivots keep the bases dual feasible, so the dual phase ends at
an optimum, and the final bases' potentials certify it: a problem whose
potentials price an arc below the pivot tolerance had a start that was not
dual feasible, such as the bases of other costs, and is refused.

Problems of several shapes are padded to one stack: padded cells cost
``+inf``, in rows and columns without mass.  The exact solver prices them
for each problem's root, the cold star's or the warm bases' gauge, so that
each problem pivots as its unpadded part alone would (see
:func:`_pad_costs`).

The entropy-regularized solver runs damped float64 Newton on the dual, then
the Altschuler-Weed-Rigollet rounding step, which makes the marginals exact
to round-off.

Per-problem reductions run over contiguous rows: with the stack axis
last, a row or column sum is a few adds of whole ``k``-vectors, where the
stack-first layout pays numpy's per-row cost on tiny trailing axes.  The
entropic solver lays its stack out stack-last on entry and hands its plans
back as a stack-first view; the exact solver's dual phase stays
stack-first, and its certificate, residual and costs read stack-last
copies.  :func:`_fsum` adds in the order numpy adds a contiguous row, so
every such sum is the float a stack-first sum gives.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .errors import InfeasibleMarginalsError, NumericalError
from .tolerances import LOG_FLOOR, NONNEG_TOL, PIVOT_TOL, TRANSPORT_MARGINAL_TOL


@dataclasses.dataclass(frozen=True, eq=False)
class TransportProblem:
    """Cost matrix with row/column marginals, rescaled to unit mass on ingest.
    A leading axis on all three stacks same-shape problems."""

    cost: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray

    def __post_init__(self):
        c = np.array(self.cost, dtype=np.float64)
        r = np.array(self.row_marginal, dtype=np.float64)
        s = np.array(self.col_marginal, dtype=np.float64)
        if c.ndim not in (2, 3) or r.shape != c.shape[:-1] or s.shape != c.shape[:-2] + c.shape[-1:]:
            raise ValueError(f"cost shape {c.shape} does not match marginals {r.shape} and {s.shape}")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(r)) and np.all(np.isfinite(s))):
            raise ValueError("cost and marginals must be finite")
        _unit_mass(r, "row")
        _unit_mass(s, "column")
        for name, a in (("cost", c), ("row_marginal", r), ("col_marginal", s)):
            a.flags.writeable = False
            object.__setattr__(self, name, a)


def _unit_mass(vec: np.ndarray, name: str) -> np.ndarray:
    """The ``name`` marginals ``vec``, one per row, rescaled to unit mass in place."""
    if np.any(vec < -NONNEG_TOL):
        raise InfeasibleMarginalsError(f"{name} marginal has a negative entry")
    np.clip(vec, 0.0, None, out=vec)
    total = vec.sum(axis=-1, keepdims=True)
    if np.any(total <= 0.0):
        raise InfeasibleMarginalsError(f"{name} marginal has zero total mass")
    vec /= total
    return vec


@dataclasses.dataclass(frozen=True, eq=False)
class SimplexBasis:
    """Final bases of an exact solve, a warm start for the same costs: each
    slot's arc (row-major index) and the int8 inverse of the basis equations
    without the gauge column, one row per node (rows, then columns).  The
    gauge is the root of the cold star the bases came from, whose potential
    is 0 and whose row of the inverse is zero.  A start that is not dual
    feasible for its costs is refused."""

    slots: np.ndarray
    inverse: np.ndarray


@dataclasses.dataclass(frozen=True, eq=False)
class TransportResult:
    plan: np.ndarray
    cost: float | np.ndarray
    row_potentials: np.ndarray
    col_potentials: np.ndarray
    pivots: int | np.ndarray
    simplex_basis: SimplexBasis


@dataclasses.dataclass(frozen=True, eq=False)
class EntropicTransportResult:
    plan: np.ndarray
    objective: float | np.ndarray
    iterations: int | np.ndarray
    residual: float | np.ndarray


_PIVOT_CAP_MIN = 1000
_PIVOT_CAP_PER_CELL = 50


def _fsum(a: np.ndarray) -> np.ndarray:
    """``a.sum(axis=0)``, added in the order numpy adds a contiguous row: one
    by one below 8 entries, else in 8 interleaved partial sums combined
    pairwise, halved first past 128 entries.  A stack-last sum so gives the
    same float as the stack-first one over the problem's own row."""
    n = a.shape[0]
    if n < 8:
        return a.sum(axis=0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _fsum(a[:half]) + _fsum(a[half:])
    acc = a[:8]
    for i in range(8, n - n % 8, 8):
        acc = acc + a[i:i + 8]
    acc = acc[0::2] + acc[1::2]
    acc = acc[0::2] + acc[1::2]
    acc = acc[0] + acc[1]
    for i in range(n - n % 8, n):
        acc = acc + a[i]
    return acc


def _sums(a: np.ndarray, axis: int) -> np.ndarray:
    """Row (``axis=1``) or column (``axis=0``) sums of a stack-last ``(n, m,
    k)`` stack, each the float of its stack-first sum: rows were contiguous,
    columns strided (added one by one) unless ``m == 1``."""
    if axis == 1 or a.shape[1] == 1:
        return _fsum(a.swapaxes(0, axis))
    return a.sum(axis=0)


def _residual(plan: np.ndarray, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Each problem's largest marginal violation in a stack-last stack with
    marginals ``(n, k)`` and ``(m, k)``."""
    return np.maximum(np.abs(_sums(plan, 1) - r).max(axis=0), np.abs(_sums(plan, 0) - s).max(axis=0))


def _star_roots(r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Each problem's star root, as a node index (rows, then columns), for
    unit-mass marginals ``(k, n)`` and ``(k, m)``: its heaviest node, rows
    first, so a column roots the star only where it is strictly heavier than
    every row, and uniform marginals with ``n <= m`` root at row 0."""
    return np.concatenate([r, s], axis=1).argmax(axis=1)


def _gauge(inverse: np.ndarray) -> np.ndarray:
    """The gauge node of each basis of a ``(k, n + m, n + m - 1)`` stack of
    inverses: the one whose row is all zero, its potential fixed at 0.  A
    star's gauge is its root, and pivots keep it."""
    return (~inverse.any(axis=2)).argmax(axis=1)


def _potentials(cf: np.ndarray, slots: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Potentials ``(u, v)``, as one ``(k, n + m)`` array, of bases given by
    their slot arcs and inverses, for costs ``(k, n * m)`` in row-major
    order."""
    return np.einsum("qij,qj->qi", inverse, np.take_along_axis(cf, slots, axis=1))


@functools.lru_cache(maxsize=64)
def _star_templates(n: int, m: int):
    """The stars of an ``n x m`` problem, one per root node (rows, then
    columns), before the other rows or columns pick their arcs (see
    :func:`_star_start`): the slot arcs, whose picked slots are left at 0;
    the inverse without the picks' ``-1`` entries; and each row root's other
    rows and each column root's other columns, in order.  Read-only, shared
    by every stack of the shape."""
    rows = np.array([[i for i in range(n) if i != p] for p in range(n)], dtype=np.int64).reshape(n, n - 1)
    cols = np.array([[j for j in range(m) if j != p] for p in range(m)], dtype=np.int64).reshape(m, m - 1)
    slots = np.zeros((n + m, n + m - 1), dtype=np.int64)
    inv = np.zeros((n + m, n + m, n + m - 1), dtype=np.int8)
    for p in range(n):
        slots[p, :m] = p * m + np.arange(m)
        inv[p, n + np.arange(m), np.arange(m)] = 1
        inv[p, rows[p], np.arange(m, n + m - 1)] = 1
    for p in range(m):
        slots[n + p, :n] = np.arange(n) * m + p
        inv[n + p, np.arange(n), np.arange(n)] = 1
        inv[n + p, n + cols[p], np.arange(n, n + m - 1)] = 1
    for a in (rows, cols, slots, inv):
        a.flags.writeable = False
    return slots, inv, rows, cols


def _star_start(c: np.ndarray, roots=0):
    """Star bases of a ``(k, n, m)`` stack, dual feasible by construction,
    rooted at the nodes ``roots`` (rows, then columns; one per problem or
    one for all).  A row root ``p`` takes its arcs to every column, then
    each other row ``i`` one arc to its column of least ``c_ij - c_pj``
    (ties to the smaller index).  Its potentials are ``u_p = 0``, ``v_j =
    c_pj`` and ``u_i = min_j (c_ij - c_pj)``, so no reduced cost is
    negative.  Returns the slot arcs, in row-major order: the root's arcs,
    then the other rows' in row order; and the int8 inverse: row ``n + j``
    is ``e_j``, each other row is its own slot minus its column's, and the
    root's row is zero.  A column root is the same, mirrored: its arcs from
    every row come first, then one arc into each other column, and its
    potential is the gauge."""
    k, n, m = c.shape
    nb = n + m - 1
    roots = np.broadcast_to(roots, (k,))
    t_slots, t_inv, t_rows, t_cols = _star_templates(n, m)
    slots, inv = np.take(t_slots, roots, axis=0), np.take(t_inv, roots, axis=0)
    # a row root's other rows pick their columns; a column root's other
    # columns pick their rows, from the transposed costs
    by_col = roots >= n
    for q, hub, others in ((np.flatnonzero(~by_col), 0, t_rows), (np.flatnonzero(by_col), n, t_cols)):
        if not q.size:
            continue
        sub = c if q.size == k else np.take(c, q, axis=0)
        sub = sub.swapaxes(1, 2) if hub else sub
        lines = sub.reshape(-1, sub.shape[2])  # the problems' rows (or columns), one after another
        at = roots[q] - hub
        ends = np.take(others, at, axis=0)
        first = np.arange(q.size)[:, None] * sub.shape[1]
        pick = (np.take(lines, first + ends, axis=0) - np.take(lines, first + at[:, None], axis=0)).argmin(axis=2)
        i, j = (pick, ends) if hub else (ends, pick)
        np.put(slots, q[:, None] * nb + np.arange(nb - ends.shape[1], nb), i * m + j)
        np.put(inv, (q[:, None] * (n + m) + hub + ends) * nb + pick, -1)
    return slots, inv


def _dual_phase(cf: np.ndarray, n: int, m: int, arcs: np.ndarray, x: np.ndarray, inv: np.ndarray,
                max_pivots: int):
    """Dual simplex pivots, in place, on a stack of dual feasible bases until
    no flow is below ``-NONNEG_TOL``.  Returns pivot counts and the mask of
    capped problems."""
    k = x.shape[0]
    pivots, capped = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=bool)
    # a, f, v and red hold the rows of the live problems only
    live = np.flatnonzero((x < -NONNEG_TOL).any(axis=1))
    a, f, v = arcs[live], x[live], inv[live]
    y = _potentials(cf[live], a, v)
    red = (cf[live].reshape(-1, n, m) - y[:, :n, None] - y[:, None, n:]).reshape(-1, n * m)
    while live.size:
        # Bland: the leaving slot holds the negative flow of least arc index
        negative = np.where(f < -NONNEG_TOL, a, n * m)
        leave = negative.argmin(axis=1)
        has = negative[np.arange(live.size), leave] < n * m
        stop = ~has | (pivots[live] >= max_pivots)
        if stop.any():
            capped[live[stop & has]] = True
            done = live[stop]
            arcs[done], x[done], inv[done] = a[stop], f[stop], v[stop]
            live, a, f, v, red, leave = (z[~stop] for z in (live, a, f, v, red, leave))
        q = np.arange(live.size)
        # every arc's cycle coefficient at that slot; the entering arc, of least
        # reduced cost among those whose coefficient is -1, raises the flow
        col = v[q, :, leave]
        row = (col[:, :n, None] + col[:, None, n:]).reshape(-1, n * m)
        raises = row == -1
        enter = np.where(raises, red, np.inf).argmin(axis=1)
        # with no such arc the flow is nonnegative but for round-off: it is
        # clipped, and the leaving arc re-enters in its own slot, which leaves
        # the basis and its inverse as they are
        go = raises[q, enter]
        enter = np.where(go, enter, a[q, leave])
        # the potentials move by -red[enter] times the leaving slot's column
        # of the inverse, so every reduced cost moves by red[enter] * row
        red += np.where(go, red[q, enter], 0.0)[:, None] * row
        i, j = np.divmod(enter, m)
        d = v[q, i] + v[q, n + j]
        theta = np.where(go, -f[q, leave], 0.0)
        f -= theta[:, None] * d
        f[q, leave], a[q, leave] = theta, enter
        # the rank-one update with pivot element d[leave] = -1
        d[q, leave] -= 1
        v += v[q, :, leave][:, :, None] * d[:, None, :]
        pivots[live] += go
    return pivots, capped


def _simplex_bases(c: np.ndarray, r: np.ndarray, s: np.ndarray, max_pivots: int, start):
    """Dual simplex on a ``(k, n, m)`` stack, all problems in lockstep, from
    ``start``, dual feasible bases given as a pair of slot arcs ``(k, n + m -
    1)`` and int8 inverses ``(k, n + m, n + m - 1)``.  Returns flows, the
    final bases' potentials ``(u, v)`` as one ``(k, n + m)`` array, pivot
    counts, the mask of capped problems, the mask of problems whose final
    potentials price an arc below ``-PIVOT_TOL * max(1, max|c|)`` (a start
    that was not dual feasible), and the final slot arcs and inverses.  The
    flows are a stack-first view of a stack-last array."""
    k, n, m = c.shape
    cf = c.reshape(k, n * m)
    # the slots' arcs and flows; each pivot updates the inverse, whose entries stay in {-1, 0, 1}
    arcs, inv = start[0].copy(), start[1].copy()
    x = np.einsum("qij,qi->qj", inv, np.concatenate([r, s], axis=1))
    pivots, capped = _dual_phase(cf, n, m, arcs, x, inv, max_pivots)
    np.clip(x, 0.0, None, out=x)
    y = _potentials(cf, arcs, inv)
    # the certificate reduces stack-last, over contiguous rows
    ct, yt = c.transpose(1, 2, 0).copy(), y.T.copy()
    reduced = ct - yt[:n, None] - yt[None, n:]
    refused = reduced.min(axis=(0, 1)) < -PIVOT_TOL * np.maximum(1.0, np.abs(ct).max(axis=(0, 1)))
    flow = np.zeros((n * m, k))
    flow[arcs.T, np.arange(k)] = x.T
    return flow.reshape(n, m, k).transpose(2, 0, 1), y, pivots, capped, refused, arcs, inv


def _pad_costs(cost: np.ndarray, real: np.ndarray, roots: np.ndarray) -> np.ndarray:
    """A ``(k, n, m)`` stack of costs whose padded cells (``~real``) are all
    large, with the cells that the star rooted at the nodes ``roots`` (rows,
    then columns) takes priced so that it hangs every padded row and column
    as a leaf without flow: a row root's padded cells cost 0 and every
    padded row costs ``c[root, 0]`` in column 0; a column root's mirrored.
    Each other row or column then picks the arc it picks without padding,
    and the padded arcs never leave.  Written in place."""
    k, n, _ = cost.shape
    q, by_row = np.arange(k), roots < n
    q_row, row = q[by_row], roots[by_row]
    cost[q_row, row] = np.where(real[q_row, row], cost[q_row, row], 0.0)
    cost[q_row, :, 0] = np.where(real[q_row, :, 0], cost[q_row, :, 0], cost[q_row, row, 0][:, None])
    q_col, col = q[~by_row], roots[~by_row] - n
    cost[q_col, :, col] = np.where(real[q_col, :, col], cost[q_col, :, col], 0.0)
    cost[q_col, 0] = np.where(real[q_col, 0], cost[q_col, 0], cost[q_col, 0, col][:, None])
    return cost


def _solve_stack(c: np.ndarray, r: np.ndarray, s: np.ndarray, start: SimplexBasis | None) -> TransportResult:
    """:func:`solve_transport` on a ``(k, n, m)`` stack of costs, ``+inf``
    where padded, with unit-mass marginals, from the cold stars or the
    stacked bases ``start``.  Padded cells off the star cost ``4 (n + m)
    (max|c| + 1)``, above any sum of ``n + m - 1`` real costs: no pivot enters them."""
    k, n, m = c.shape
    roots = _star_roots(r, s) if start is None else None
    real = np.isfinite(c)
    if not real.all():
        # each problem's largest |cost|, reduced stack-last over whole k-vectors
        big = 4.0 * (n + m) * (np.abs(np.where(real, c, 0.0)).transpose(1, 2, 0).max(axis=(0, 1)) + 1.0)
        c = _pad_costs(np.where(real, c, big[:, None, None]), real, _gauge(start.inverse) if roots is None else roots)
    c = np.ascontiguousarray(c)
    max_pivots = max(_PIVOT_CAP_MIN, _PIVOT_CAP_PER_CELL * n * m)
    bases = _star_start(c, roots) if start is None else (start.slots, start.inverse)
    flow, y, pivots, capped, refused, slots, inverse = _simplex_bases(c, r, s, max_pivots, bases)
    if capped.any():
        raise NumericalError(f"transportation simplex exceeded {max_pivots} pivots",
                             problem=int(capped.argmax()))
    if refused.any():
        raise NumericalError("transportation simplex start is not dual feasible", problem=int(refused.argmax()))
    ft = flow.transpose(1, 2, 0)  # the contiguous stack-last flows
    residual = _residual(ft, r.T, s.T)
    if residual.max(initial=0.0) > TRANSPORT_MARGINAL_TOL:
        raise NumericalError("transport plan violates its marginals", residual=float(residual.max()),
                             problem=int(residual.argmax()))
    cost = _fsum((c.transpose(1, 2, 0) * ft).reshape(n * m, k))
    return TransportResult(flow, cost, y[:, :n], y[:, n:], pivots, SimplexBasis(slots, inverse))


def solve_transport(problem: TransportProblem, start: SimplexBasis | None = None) -> TransportResult:
    """Minimize ``<cost, plan>`` over plans with the prescribed marginals.

    A batched problem is solved as a stack in lockstep, and a single problem
    as a stack of one, by the simplex method from the star start, a dual
    feasible basis whose inverse is written down directly, rooted at the
    problem's heaviest row or, where strictly heavier, its heaviest column.
    ``start``, the ``simplex_basis`` of a solve of the same costs for other
    marginals, replaces that start and is used as it is.  Either way dual
    pivots restore feasible flows.
    Each problem may take ``max(1000, 50 * n * m)`` pivots.  A
    :class:`NumericalError` is raised, with ``problem`` set to its index in
    the stack, for a problem that needs more, or whose final potentials
    price an arc below ``-PIVOT_TOL * max(1, max|c|)``: its start was not
    dual feasible.  Returns the optimal plans together with the
    potentials of the final bases, which certify optimality: ``u_i + v_j <=
    c_ij`` everywhere with equality on basic arcs, and are 0 at the root of
    the cold star they descend from; and the final bases as
    ``simplex_basis``.
    """
    c = problem.cost.reshape(-1, *problem.cost.shape[-2:])  # a single problem is a stack of one
    k, n, m = c.shape
    if start is not None:
        shape = problem.cost.shape[:-2] + (n + m, n + m - 1)
        if start.inverse.shape != shape:
            raise ValueError(f"start's inverse has shape {start.inverse.shape}, the problem needs {shape}")
        start = SimplexBasis(start.slots.reshape(k, n + m - 1), start.inverse.reshape(k, n + m, n + m - 1))
    res = _solve_stack(c, problem.row_marginal.reshape(k, n), problem.col_marginal.reshape(k, m), start)
    if problem.cost.ndim == 3:
        return res
    basis = res.simplex_basis
    return TransportResult(res.plan[0], res.cost.item(), res.row_potentials[0], res.col_potentials[0],
                           res.pivots.item(), SimplexBasis(basis.slots[0], basis.inverse[0]))


_RIDGE = 1e-12
_ARMIJO = 1e-4
_NEWTON_CAP = 100
_HALVING_CAP = 60


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(a)))`` over the rows (``axis=1``) or the columns
    (``axis=0``) of a stack-last stack; ``-inf`` for slices that are all
    ``-inf``."""
    mx = np.max(a, axis=axis, keepdims=True)
    mx[~np.isfinite(mx)] = 0.0
    return np.squeeze(mx, axis=axis) + np.log(_sums(np.exp(a - mx), axis))


def _progress(plan: np.ndarray, rs: np.ndarray, abs_logk: np.ndarray, fg: np.ndarray):
    """A stack-last stack's row and column masses, stacked as ``(n + m,
    k)``, the gradient ``[r; s]`` minus them, the residual (its largest
    entry in size) and the residual at which Newton stops:
    ``TRANSPORT_MARGINAL_TOL``, or what round-off in the exponents ``logk +
    f + g`` alone can cause, machine epsilon times the largest row or column
    sum of ``plan * (|logk| + |f| + |g|)``.  Both stacks are summed in one
    pass per axis."""
    n, _, k = plan.shape
    abs_fg = np.abs(fg)
    w = plan * (abs_logk + abs_fg[:n, None] + abs_fg[None, n:])
    both = np.concatenate([plan, w], axis=2)
    sums = np.concatenate([_sums(both, 1), _sums(both, 0)])
    mass = sums[:, :k]
    grad = rs - mass
    stop = np.maximum(TRANSPORT_MARGINAL_TOL, np.finfo(np.float64).eps * sums[:, k:].max(axis=0))
    return mass, grad, np.abs(grad).max(axis=0), stop


def _newton(logk: np.ndarray, r: np.ndarray, s: np.ndarray):
    """Damped Newton on the dual of ``max <logk, P> - sum P log P`` over
    plans ``P = exp(logk + f_i + g_j)`` with marginals ``r``, ``s``, for each
    problem of the stack; ``logk = -inf`` pins zero-mass rows and columns.

    The stack is laid out stack-last, ``logk`` as ``(n, m, k)``, ``r`` as
    ``(n, k)`` and ``s`` as ``(m, k)``, so every per-problem reduction runs
    over contiguous rows; the plans come back the same way.  Each round
    gathers the live problems once and writes their plans and residuals
    back once; its gradient is the previous residual check's.  An Armijo
    pass sums ``p (expm1(x) - x)`` over the entries; where ``p = 0`` the
    term is the new plan entry ``exp(logk + f + g + x)``, evaluated there
    only, and only in a round whose live problems have such an entry."""
    n, m, k = logk.shape
    f = np.where(r > 0.0, np.log(np.where(r > 0.0, r, 1.0)) - _logsumexp(logk, 1), 0.0)
    g = np.where(s > 0.0, np.log(np.where(s > 0.0, s, 1.0)) - _logsumexp(logk + f[:, None], 0), 0.0)
    fg = np.concatenate([f, g])
    plan = np.exp(logk + f[:, None] + g[None])
    abs_logk = np.where(np.isfinite(logk), np.abs(logk), 0.0)
    rs = np.concatenate([r, s])
    mass, grad, residual, stop = _progress(plan, rs, abs_logk, fg)
    iterations = np.zeros(k, dtype=np.int64)
    live = np.flatnonzero(residual > stop)
    # the live problems' exponents, |exponents|, potentials, plans, marginals, masses and gradients
    work = tuple(z[..., live] for z in (logk, abs_logk, fg, plan, rs, mass, grad))
    ridged = np.eye(n + m) * (1.0 + _RIDGE)
    for _ in range(_NEWTON_CAP):
        if not live.size:
            break
        lk, a, fg, p, rs, mass, grad = work
        # Jacobi-scaled Hessian: unit diagonal, also on pinned rows, plus a ridge
        # that removes the gauge direction (f + c, g - c)
        scale = np.sqrt(np.where(mass > 0.0, mass, 1.0))
        hess = np.empty((live.size, n + m, n + m))
        hess[:] = ridged
        hess[:, :n, n:] = (p / (scale[:n, None] * scale[None, n:])).transpose(2, 0, 1)
        hess[:, n:, :n] = hess[:, :n, n:].transpose(0, 2, 1)
        delta = np.linalg.solve(hess, (grad / scale).T[:, :, None])[:, :, 0].T / scale
        # Armijo backtracking: step t * delta raises the dual by t * slope - sum p (expm1(x) - x)
        t = np.ones(live.size)
        zero = p == 0.0
        exponent = lk + fg[:n, None] + fg[None, n:] if zero.any() else None
        # a non-finite direction (inf * 0 at a pinned row) gives a NaN slope,
        # which is no ascent; 0 * inf where p = 0 is overwritten by the exponential
        with np.errstate(invalid="ignore"):
            slope = _fsum(grad * delta)
            ascent = np.isfinite(slope) & (slope > 0.0)
            searching = ascent.copy()
            for _ in range(_HALVING_CAP):
                j = np.flatnonzero(searching)
                if not j.size:
                    break
                sel = slice(None) if j.size == live.size else j
                x = t[sel] * (delta[:n, None, sel] + delta[None, n:, sel])
                rest = p[..., sel] * (np.expm1(x) - x)
                if exponent is not None:
                    z = zero[..., sel]
                    rest[z] = np.exp(exponent[..., sel][z] + x[z])
                ok = _fsum(rest.reshape(n * m, -1)) <= (1.0 - _ARMIJO) * t[sel] * slope[sel]
                searching[j[ok]] = False
                t[j[~ok]] /= 2.0
        # a problem with no accepted step has stalled and stops; its plan is
        # recomputed from the same potentials, so it comes out the same
        accepted = ascent & ~searching
        iterations[live[accepted]] += 1
        fg = fg + np.where(accepted, t * delta, 0.0)
        p = np.exp(lk + fg[:n, None] + fg[None, n:])
        mass, grad, res, stop = _progress(p, rs, a, fg)
        plan[..., live], residual[live] = p, res
        go = np.flatnonzero(accepted & (res > stop))
        work = lk, a, fg, p, rs, mass, grad
        if go.size < live.size:
            live, work = live[go], tuple(z[..., go] for z in work)
    return plan, iterations, residual


def _round_to_marginals(plan: np.ndarray, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Altschuler-Weed-Rigollet rounding (NeurIPS 2017) of a stack-last
    stack: scale rows, then columns, down to their marginals; add the
    missing mass as a rank one plan."""
    a = _sums(plan, 1)
    plan = plan * np.minimum(np.divide(r, a, out=np.ones_like(r), where=a > 0.0), 1.0)[:, None]
    b = _sums(plan, 0)
    plan = plan * np.minimum(np.divide(s, b, out=np.ones_like(s), where=b > 0.0), 1.0)[None]
    # clipped at 0, so that round-off cannot make an entry negative
    err_r = np.maximum(r - _sums(plan, 1), 0.0)
    err_c = np.maximum(s - _sums(plan, 0), 0.0)
    total = _fsum(err_r)
    share = np.divide(err_c, total, out=np.zeros_like(err_c), where=total > 0.0)
    return plan + err_r[:, None] * share[None]


def solve_transport_entropic(
    problem: TransportProblem, rho: float, edge_count, ref_row: np.ndarray, ref_col: np.ndarray
) -> EntropicTransportResult:
    """Minimize ``<cost, plan> + eps * KL(plan || ref_row x ref_col)`` with
    ``eps = rho * edge_count``, subject to the prescribed marginals.

    A batched problem is solved as a stack, with ``edge_count`` and the
    reference vectors broadcast along its batch axis; each problem gets the
    same arithmetic alone or in a stack.  Newton on the dual stops at
    ``TRANSPORT_MARGINAL_TOL``, when no step passes the line search, or at
    an iteration cap; the rounding step then makes the marginals exact.
    ``residual`` is the residual before rounding, so a stall stays visible,
    and ``iterations`` counts Newton steps.
    """
    if not 0.0 < rho < np.inf:
        raise ValueError("rho must be positive and finite")
    c = problem.cost.reshape(-1, *problem.cost.shape[-2:])  # a single problem is a stack of one
    k, n, m = c.shape
    # broadcasting also rejects arguments of the wrong shape
    counts = np.broadcast_to(edge_count, (k,))
    if not np.all((counts >= 1) & (counts < np.inf)):
        raise ValueError("edge_count must be at least 1 and finite")
    ref_row, ref_col = np.broadcast_to(ref_row, (k, n)), np.broadcast_to(ref_col, (k, m))
    # zeros stay allowed: padded rows pass them
    if not all(np.all((ref >= 0.0) & (ref < np.inf)) for ref in (ref_row, ref_col)):
        raise ValueError("reference entries must be nonnegative and finite")
    eps = rho * counts.astype(np.float64)
    # the kernel runs stack-last: costs (n, m, k), marginals (n, k) and (m, k)
    ct = c.transpose(1, 2, 0).copy()
    r = problem.row_marginal.reshape(k, n).T.copy()
    s = problem.col_marginal.reshape(k, m).T.copy()
    lref = (np.log(np.maximum(ref_row, LOG_FLOOR)).T.copy()[:, None]
            + np.log(np.maximum(ref_col, LOG_FLOOR)).T.copy()[None])
    logk = lref - ct / eps
    logk[(r == 0.0)[:, None] | (s == 0.0)[None]] = -np.inf
    with np.errstate(divide="ignore", over="ignore"):  # exp and log at the -inf entries and of trial steps
        plan, iterations, residual = _newton(logk, r, s)
    plan = _round_to_marginals(plan, r, s)
    kl = _fsum((plan * (np.log(np.where(plan > 0.0, plan, 1.0)) - lref)).reshape(n * m, k))
    objective = _fsum((ct * plan).reshape(n * m, k)) + eps * kl
    plan = plan.transpose(2, 0, 1)
    if problem.cost.ndim == 2:
        return EntropicTransportResult(plan[0], objective.item(), iterations.item(), residual.item())
    return EntropicTransportResult(plan, objective, iterations, residual)
