"""Exact and entropy-regularized solvers for small transportation problems.

Both solvers take a stack of same-shape problems; a single problem is a
stack of one and gets the same arithmetic as in a stack.  The exact solver
is the simplex method on the transportation polytope, run in lockstep over
the stack: spanning-tree bases of ``n + m - 1`` arcs, a northwest-corner
start, and in each round one batched inverse of the dense basis equations,
which gives the potentials and the entering arc's cycle without a tree
walk.  Bland's smallest-index rule on both the entering and the leaving arc
rules out cycling.  Zero marginal entries simply produce zero-flow basic
arcs (the limit of a perturbed basis).  The entropy-regularized solver runs
damped float64 Newton on the dual, then the Altschuler-Weed-Rigollet
rounding step, which makes the marginals exact to round-off.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import InfeasibleMarginalsError, NumericalError
from .tolerances import LOG_FLOOR, NONNEG_TOL, PIVOT_TOL, TRANSPORT_MARGINAL_TOL


@dataclasses.dataclass(frozen=True)
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
        for name, vec in (("row", r), ("column", s)):
            if np.any(vec < -NONNEG_TOL):
                raise InfeasibleMarginalsError(f"{name} marginal has a negative entry")
            np.clip(vec, 0.0, None, out=vec)
            total = vec.sum(axis=-1, keepdims=True)
            if np.any(total <= 0.0):
                raise InfeasibleMarginalsError(f"{name} marginal has zero total mass")
            vec /= total
        for a in (c, r, s):
            a.flags.writeable = False
        object.__setattr__(self, "cost", c)
        object.__setattr__(self, "row_marginal", r)
        object.__setattr__(self, "col_marginal", s)


@dataclasses.dataclass(frozen=True)
class TransportResult:
    plan: np.ndarray
    cost: float | np.ndarray
    row_potentials: np.ndarray
    col_potentials: np.ndarray
    basis: np.ndarray
    pivots: int | np.ndarray


@dataclasses.dataclass(frozen=True)
class EntropicTransportResult:
    plan: np.ndarray
    objective: float | np.ndarray
    iterations: int | np.ndarray
    residual: float | np.ndarray


_CHUNK = 256


def _residual(plan: np.ndarray, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    return np.maximum(np.abs(plan.sum(axis=2) - r).max(axis=1), np.abs(plan.sum(axis=1) - s).max(axis=1))


def _price(c: np.ndarray, basic: np.ndarray, tol: np.ndarray):
    """Pricing step for a stack of ``(k, n, m)`` costs and flat bases: the
    basic arcs in row-major order, the potentials ``(u, v)`` as one
    ``(k, n + m)`` array, whether an arc enters, Bland's entering arc (the
    first with a negative reduced cost) and its cycle ``d``; basic flows
    change by ``-theta * d`` when the entering arc carries ``theta``."""
    k, n, m = c.shape
    nb = n + m - 1
    q = np.arange(k)
    arcs = np.nonzero(basic)[1].reshape(k, nb)
    # one equation u_i + v_j = c_ij per basic arc, then the gauge u_0 = 0; the inverse
    # of a spanning-tree basis has entries in {-1, 0, 1}, so rounding removes its round-off
    eqs = np.zeros((k, n + m, n + m))
    eqs[q[:, None], np.arange(nb), arcs // m] = eqs[q[:, None], np.arange(nb), n + arcs % m] = 1.0
    eqs[:, nb, 0] = 1.0
    inv = np.linalg.inv(eqs)
    np.rint(inv, out=inv)
    cb = np.zeros((k, n + m))
    cb[:, :nb] = c.reshape(k, -1)[q[:, None], arcs]
    y = np.einsum("qij,qj->qi", inv, cb)
    reduced = (c - y[:, :n, None] - y[:, None, n:]).reshape(k, -1)
    enters = ~basic & (reduced < -tol[:, None])
    enter = enters.argmax(axis=1)
    return arcs, y, enters.any(axis=1), enter, inv[q, enter // m, :nb] + inv[q, n + enter % m, :nb]


def _simplex(c: np.ndarray, r: np.ndarray, s: np.ndarray, max_pivots: int):
    """Transportation simplex on a ``(k, n, m)`` stack, all problems in
    lockstep.  Returns flows, bases, potentials ``(u, v)`` as one
    ``(k, n + m)`` array, pivot counts and the mask of capped problems."""
    k, n, m = c.shape
    nb = n + m - 1
    flow = np.zeros((k, n * m))
    basic = np.zeros((k, n * m), dtype=bool)
    # northwest-corner start; simultaneous exhaustion leaves zero-flow arcs
    a, b = r.copy(), s.copy()
    p = np.arange(k)
    i, j = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=np.int64)
    for _ in range(nb):
        f = np.minimum(a[p, i], b[p, j])
        basic[p, i * m + j], flow[p, i * m + j] = True, f
        a[p, i] -= f
        b[p, j] -= f
        down = (i < n - 1) & ((a[p, i] <= 0.0) | ~((b[p, j] <= 0.0) & (j < m - 1)))
        i, j = i + down, j + ~down

    tol = PIVOT_TOL * np.maximum(1.0, np.abs(c).max(axis=(1, 2)))
    potentials = np.zeros((k, n + m))
    pivots, capped = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=bool)
    live = p
    while live.size:
        # priced in chunks, which bounds the memory the dense inverses take at once
        parts = [_price(c[h], basic[h], tol[h]) for h in np.split(live, np.arange(_CHUNK, live.size, _CHUNK))]
        arcs, y, go, enter, d = (np.concatenate(z) for z in zip(*parts))
        potentials[live[~go]] = y[~go]
        capped[live[go & (pivots[live] >= max_pivots)]] = True
        go &= pivots[live] < max_pivots
        live, arcs, enter, d = live[go], arcs[go], enter[go], d[go]
        q = np.arange(live.size)
        x = flow[live[:, None], arcs]
        # Bland: the leaving arc is the decreasing arc of least flow, ties to the smallest
        leave = np.where(d > 0.0, x, np.inf).argmin(axis=1)
        theta = x[q, leave]
        flow[live[:, None], arcs] = x - theta[:, None] * d
        flow[live, enter], basic[live, enter] = theta, True
        flow[live, arcs[q, leave]], basic[live, arcs[q, leave]] = 0.0, False
        pivots[live] += 1
    return flow.reshape(k, n, m), basic.reshape(k, n, m), potentials, pivots, capped


def solve_transport(problem: TransportProblem, max_pivots: int | None = None) -> TransportResult:
    """Minimize ``<cost, plan>`` over plans with the prescribed marginals.

    A batched problem is solved as a stack in lockstep, and a single problem
    as a stack of one.  Each problem may take ``max_pivots`` pivots,
    ``max(1000, 50 * n * m)`` by default; if one needs more,
    :class:`NumericalError` is raised with ``problem`` set to its index in
    the stack.  Returns the optimal plans together with the potentials of
    the final bases, which certify optimality: ``u_i + v_j <= c_ij``
    everywhere with equality on basic arcs.
    """
    c = problem.cost.reshape(-1, *problem.cost.shape[-2:])  # a single problem is a stack of one
    k, n, m = c.shape
    r, s = problem.row_marginal.reshape(k, n), problem.col_marginal.reshape(k, m)
    if max_pivots is None:
        max_pivots = max(1000, 50 * n * m)
    flow, basic, y, pivots, capped = _simplex(c, r, s, max_pivots)
    if capped.any():
        raise NumericalError(f"transportation simplex exceeded {max_pivots} pivots",
                             problem=int(capped.argmax()))
    np.clip(flow, 0.0, None, out=flow)
    residual = _residual(flow, r, s)
    if residual.max() > TRANSPORT_MARGINAL_TOL:
        raise NumericalError("transport plan violates its marginals", residual=float(residual.max()),
                             problem=int(residual.argmax()))
    cost = (c * flow).reshape(k, -1).sum(axis=1)
    if problem.cost.ndim == 2:
        return TransportResult(flow[0], cost.item(), y[0, :n], y[0, n:], basic[0], pivots.item())
    return TransportResult(flow, cost, y[:, :n], y[:, n:], basic, pivots)


_RIDGE = 1e-12
_ARMIJO = 1e-4
_NEWTON_CAP = 100
_HALVING_CAP = 60


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(a)))`` along ``axis``; ``-inf`` for slices that are all ``-inf``."""
    mx = np.max(a, axis=axis, keepdims=True)
    mx[~np.isfinite(mx)] = 0.0
    return np.squeeze(mx, axis=axis) + np.log(np.sum(np.exp(a - mx), axis=axis))


def _stop_level(plan: np.ndarray, abs_logk: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Residual at which Newton stops: ``TRANSPORT_MARGINAL_TOL``, or what
    round-off in the exponents ``logk + f + g`` alone can cause, machine
    epsilon times the largest row or column sum of ``plan * (|logk| + |f| + |g|)``."""
    w = plan * (abs_logk + np.abs(f)[:, :, None] + np.abs(g)[:, None, :])
    return np.maximum(TRANSPORT_MARGINAL_TOL, np.finfo(np.float64).eps
                      * np.maximum(w.sum(axis=2).max(axis=1), w.sum(axis=1).max(axis=1)))


def _newton(logk: np.ndarray, r: np.ndarray, s: np.ndarray):
    """Damped Newton on the dual of ``max <logk, P> - sum P log P`` over
    plans ``P = exp(logk + f_i + g_j)`` with marginals ``r``, ``s``, for each
    problem of the stack; ``logk = -inf`` pins zero-mass rows and columns."""
    k, n, m = logk.shape
    f = np.where(r > 0.0, np.log(np.where(r > 0.0, r, 1.0)) - _logsumexp(logk, axis=2), 0.0)
    g = np.where(s > 0.0, np.log(np.where(s > 0.0, s, 1.0)) - _logsumexp(logk + f[:, :, None], axis=1), 0.0)
    plan = np.exp(logk + f[:, :, None] + g[:, None, :])
    residual = _residual(plan, r, s)
    abs_logk = np.where(np.isfinite(logk), np.abs(logk), 0.0)
    live = residual > _stop_level(plan, abs_logk, f, g)
    iterations = np.zeros(k, dtype=np.int64)
    for _ in range(_NEWTON_CAP):
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        p = plan[idx]
        mass = np.concatenate([p.sum(axis=2), p.sum(axis=1)], axis=1)
        grad = np.concatenate([r[idx], s[idx]], axis=1) - mass
        # Jacobi-scaled Hessian: unit diagonal, also on pinned rows, plus a ridge
        # that removes the gauge direction (f + c, g - c)
        scale = np.sqrt(np.where(mass > 0.0, mass, 1.0))
        hess = np.tile(np.eye(n + m) * (1.0 + _RIDGE), (idx.size, 1, 1))
        hess[:, :n, n:] = p / (scale[:, :n, None] * scale[:, None, n:])
        hess[:, n:, :n] = hess[:, :n, n:].transpose(0, 2, 1)
        delta = np.linalg.solve(hess, (grad / scale)[:, :, None])[:, :, 0] / scale
        slope = np.sum(grad * delta, axis=1)
        # Armijo backtracking: step t * delta raises the dual by t * slope - sum p (expm1(x) - x)
        t = np.ones(idx.size)
        ascent = np.isfinite(slope) & (slope > 0.0)
        searching = ascent.copy()
        for _ in range(_HALVING_CAP):
            j = np.flatnonzero(searching)
            if not j.size:
                break
            x = t[j, None, None] * (delta[j, :n, None] + delta[j, None, n:])
            rest = np.exp(logk[idx[j]] + f[idx[j], :, None] + g[idx[j], None, :] + x)
            pos = p[j] > 0.0  # where p = 0 the term is the new plan entry itself
            rest[pos] = p[j][pos] * (np.expm1(x[pos]) - x[pos])
            ok = np.sum(rest.reshape(j.size, -1), axis=1) <= (1.0 - _ARMIJO) * t[j] * slope[j]
            searching[j[ok]] = False
            t[j[~ok]] /= 2.0
        # a problem with no accepted step has stalled and stops
        accepted = ascent & ~searching
        step = idx[accepted]
        f[step] += t[accepted, None] * delta[accepted, :n]
        g[step] += t[accepted, None] * delta[accepted, n:]
        plan[step] = np.exp(logk[step] + f[step, :, None] + g[step, None, :])
        iterations[step] += 1
        live[idx] = False
        residual[step] = _residual(plan[step], r[step], s[step])
        live[step] = residual[step] > _stop_level(plan[step], abs_logk[step], f[step], g[step])
    return plan, iterations, residual


def _round_to_marginals(plan: np.ndarray, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Altschuler-Weed-Rigollet rounding (NeurIPS 2017): scale rows, then
    columns, down to their marginals; add the missing mass as a rank one plan."""
    a = plan.sum(axis=2)
    plan = plan * np.minimum(np.divide(r, a, out=np.ones_like(r), where=a > 0.0), 1.0)[:, :, None]
    b = plan.sum(axis=1)
    plan = plan * np.minimum(np.divide(s, b, out=np.ones_like(s), where=b > 0.0), 1.0)[:, None, :]
    # clipped at 0, so that round-off cannot make an entry negative
    err_r = np.maximum(r - plan.sum(axis=2), 0.0)
    err_c = np.maximum(s - plan.sum(axis=1), 0.0)
    total = err_r.sum(axis=1, keepdims=True)
    share = np.divide(err_c, total, out=np.zeros_like(err_c), where=total > 0.0)
    return plan + err_r[:, :, None] * share[:, None, :]


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
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    c = problem.cost.reshape(-1, *problem.cost.shape[-2:])  # a single problem is a stack of one
    k, n, m = c.shape
    r = problem.row_marginal.reshape(k, n)
    s = problem.col_marginal.reshape(k, m)
    # broadcasting also rejects arguments of the wrong shape
    counts = np.broadcast_to(edge_count, (k,))
    if np.any(counts < 1):
        raise ValueError("edge_count must be at least 1")
    eps = rho * counts.astype(np.float64)
    lref = (np.log(np.maximum(np.broadcast_to(ref_row, (k, n)), LOG_FLOOR))[:, :, None]
            + np.log(np.maximum(np.broadcast_to(ref_col, (k, m)), LOG_FLOOR))[:, None, :])
    logk = lref - c / eps[:, None, None]
    logk[(r == 0.0)[:, :, None] | (s == 0.0)[:, None, :]] = -np.inf
    with np.errstate(divide="ignore", over="ignore"):  # exp and log at the -inf entries and of trial steps
        plan, iterations, residual = _newton(logk, r, s)
    plan = _round_to_marginals(plan, r, s)
    kl = (plan * (np.log(np.where(plan > 0.0, plan, 1.0)) - lref)).sum(axis=(1, 2))
    objective = (c * plan).sum(axis=(1, 2)) + eps * kl
    if problem.cost.ndim == 2:
        return EntropicTransportResult(plan[0], objective.item(), iterations.item(), residual.item())
    return EntropicTransportResult(plan, objective, iterations, residual)
