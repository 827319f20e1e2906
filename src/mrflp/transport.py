"""Exact and entropy-regularized solvers for small transportation problems.

The exact solver is a specialization of the simplex method to the
transportation polytope: it works on spanning-tree bases of ``n + m - 1``
arcs, starts from the northwest-corner basis and pivots with Bland's
smallest-index rule on both the entering and the leaving arc, which rules
out cycling.  Zero marginal entries simply produce zero-flow basic arcs
(the limit of a perturbed basis); flow values are never perturbed.

The entropy-regularized solver runs damped float64 Newton on the dual of
a whole stack of same-shape problems at once, then the Altschuler-Weed-
Rigollet rounding step, which makes the marginals exact to round-off.
"""

from __future__ import annotations

import dataclasses

import numpy as np

try:  # pragma: no cover - exercised implicitly
    from numba import njit
except ImportError:  # pragma: no cover
    def njit(*args, **kwargs):
        if args and callable(args[0]):
            return args[0]
        return lambda f: f

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
    cost: float
    row_potentials: np.ndarray
    col_potentials: np.ndarray
    basis: np.ndarray
    pivots: int


@dataclasses.dataclass(frozen=True)
class EntropicTransportResult:
    plan: np.ndarray
    objective: float | np.ndarray
    iterations: int | np.ndarray
    residual: float | np.ndarray


@njit(cache=True)
def _compute_duals(c, basic, u, v):  # pragma: no cover - compiled
    n, m = c.shape
    known_u = np.zeros(n, np.uint8)
    known_v = np.zeros(m, np.uint8)
    u[0] = 0.0
    known_u[0] = 1
    for _ in range(n + m):
        changed = False
        for i in range(n):
            for j in range(m):
                if basic[i, j]:
                    if known_u[i] and not known_v[j]:
                        v[j] = c[i, j] - u[i]
                        known_v[j] = 1
                        changed = True
                    elif known_v[j] and not known_u[i]:
                        u[i] = c[i, j] - v[j]
                        known_u[i] = 1
                        changed = True
        if not changed:
            break


@njit(cache=True)
def _simplex_kernel(c, r, s, max_pivots, enter_tol):  # pragma: no cover - compiled
    n, m = c.shape
    flow = np.zeros((n, m))
    basic = np.zeros((n, m), np.uint8)

    # northwest-corner start; simultaneous exhaustion leaves zero-flow arcs
    a = r.copy()
    b = s.copy()
    i = 0
    j = 0
    for _ in range(n + m - 1):
        basic[i, j] = 1
        f = a[i] if a[i] < b[j] else b[j]
        flow[i, j] = f
        a[i] -= f
        b[j] -= f
        if i == n - 1 and j == m - 1:
            break
        if a[i] <= 0.0 and i < n - 1:
            i += 1
        elif b[j] <= 0.0 and j < m - 1:
            j += 1
        elif i < n - 1:
            i += 1
        else:
            j += 1

    u = np.zeros(n)
    v = np.zeros(m)
    parent = np.full(n + m, -1, np.int64)
    stack = np.zeros(n + m, np.int64)
    path_nodes = np.zeros(n + m, np.int64)
    plus = np.zeros(n + m, np.int64)
    minus = np.zeros(n + m, np.int64)

    pivots = 0
    while True:
        _compute_duals(c, basic, u, v)

        # Bland: entering arc is the lexicographically smallest with
        # negative reduced cost
        ei = -1
        ej = -1
        for ii in range(n):
            for jj in range(m):
                if not basic[ii, jj] and c[ii, jj] - u[ii] - v[jj] < -enter_tol:
                    ei = ii
                    ej = jj
                    break
            if ei >= 0:
                break
        if ei < 0:
            return flow, basic, u, v, pivots, 0
        if pivots >= max_pivots:
            return flow, basic, u, v, pivots, 1
        pivots += 1

        # unique tree path from row ei to column node n + ej
        for k in range(n + m):
            parent[k] = -1
        top = 0
        stack[top] = ei
        parent[ei] = ei
        target = n + ej
        while top >= 0:
            node = stack[top]
            top -= 1
            if node == target:
                break
            if node < n:
                for jj in range(m):
                    if basic[node, jj] and parent[n + jj] == -1:
                        parent[n + jj] = node
                        top += 1
                        stack[top] = n + jj
            else:
                jj = node - n
                for ii in range(n):
                    if basic[ii, jj] and parent[ii] == -1:
                        parent[ii] = node
                        top += 1
                        stack[top] = ii

        length = 0
        node = target
        while node != ei:
            path_nodes[length] = node
            length += 1
            node = parent[node]
        path_nodes[length] = ei
        length += 1

        # arcs along the path, starting at the column end of the entering
        # arc, alternate -, +, -, ...
        n_plus = 0
        n_minus = 0
        for k in range(length - 1):
            x = path_nodes[k]
            y = path_nodes[k + 1]
            if x < n:
                arc = x * m + (y - n)
            else:
                arc = y * m + (x - n)
            if k % 2 == 0:
                minus[n_minus] = arc
                n_minus += 1
            else:
                plus[n_plus] = arc
                n_plus += 1

        theta = np.inf
        leave = -1
        for k in range(n_minus):
            arc = minus[k]
            f = flow[arc // m, arc % m]
            if f < theta or (f == theta and arc < leave):
                theta = f
                leave = arc
        for k in range(n_plus):
            arc = plus[k]
            flow[arc // m, arc % m] += theta
        for k in range(n_minus):
            arc = minus[k]
            flow[arc // m, arc % m] -= theta
        flow[ei, ej] = theta
        basic[ei, ej] = 1
        basic[leave // m, leave % m] = 0
        flow[leave // m, leave % m] = 0.0


def pivot_tolerance(cost: np.ndarray) -> float:
    """Entering-arc threshold, scaled so dual-recomputation round-off on
    large costs cannot masquerade as a negative reduced cost."""
    scale = float(np.max(np.abs(cost))) if cost.size else 1.0
    return PIVOT_TOL * max(1.0, scale)


def _solve_kernel(c: np.ndarray, r: np.ndarray, s: np.ndarray, max_pivots: int | None = None):
    """Run the simplex kernel and clip round-off negatives off the plan.

    Without ``max_pivots`` the cap is ``max(1000, 50 * n * m)`` pivots.
    """
    if max_pivots is None:
        max_pivots = max(1000, 50 * c.size)
    flow, basic, u, v, pivots, status = _simplex_kernel(
        np.ascontiguousarray(c, dtype=np.float64),
        np.ascontiguousarray(r, dtype=np.float64),
        np.ascontiguousarray(s, dtype=np.float64),
        max_pivots,
        pivot_tolerance(c),
    )
    if status != 0:
        raise NumericalError(f"transportation simplex exceeded {max_pivots} pivots")
    np.clip(flow, 0.0, None, out=flow)
    return flow, basic, u, v, pivots


def solve_transport(problem: TransportProblem, max_pivots: int | None = None) -> TransportResult:
    """Minimize ``<cost, plan>`` over plans with the prescribed marginals.

    Returns the optimal plan together with the dual potentials of the final
    basis, which certify optimality: ``u_i + v_j <= c_ij`` everywhere with
    equality on basic arcs.
    """
    c = problem.cost
    if c.ndim != 2:
        raise ValueError("solve_transport takes a single problem, not a batch")
    flow, basic, u, v, pivots = _solve_kernel(c, problem.row_marginal, problem.col_marginal, max_pivots)
    row_err = np.max(np.abs(flow.sum(axis=1) - problem.row_marginal))
    col_err = np.max(np.abs(flow.sum(axis=0) - problem.col_marginal))
    if max(row_err, col_err) > TRANSPORT_MARGINAL_TOL:
        raise NumericalError("transport plan violates its marginals", residual=float(max(row_err, col_err)))
    return TransportResult(
        plan=flow,
        cost=float(np.sum(c * flow)),
        row_potentials=u,
        col_potentials=v,
        basis=basic.astype(bool),
        pivots=int(pivots),
    )


_RIDGE = 1e-12
_ARMIJO = 1e-4
_NEWTON_CAP = 100
_HALVING_CAP = 60


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(a)))`` along ``axis``; ``-inf`` for slices that are all ``-inf``."""
    mx = np.max(a, axis=axis, keepdims=True)
    mx[~np.isfinite(mx)] = 0.0
    return np.squeeze(mx, axis=axis) + np.log(np.sum(np.exp(a - mx), axis=axis))


def _residual(plan: np.ndarray, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    return np.maximum(np.abs(plan.sum(axis=2) - r).max(axis=1), np.abs(plan.sum(axis=1) - s).max(axis=1))


def _newton(logk: np.ndarray, r: np.ndarray, s: np.ndarray):
    """Damped Newton on the dual of ``max <logk, P> - sum P log P`` over
    plans ``P = exp(logk + f_i + g_j)`` with marginals ``r``, ``s``, for each
    problem of the stack; ``logk = -inf`` pins zero-mass rows and columns."""
    k, n, m = logk.shape
    f = np.where(r > 0.0, np.log(np.where(r > 0.0, r, 1.0)) - _logsumexp(logk, axis=2), 0.0)
    g = np.where(s > 0.0, np.log(np.where(s > 0.0, s, 1.0)) - _logsumexp(logk + f[:, :, None], axis=1), 0.0)
    plan = np.exp(logk + f[:, :, None] + g[:, None, :])
    residual = _residual(plan, r, s)
    live = residual > TRANSPORT_MARGINAL_TOL
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
        live[step] = residual[step] > TRANSPORT_MARGINAL_TOL
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
