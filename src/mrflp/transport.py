"""Exact and entropy-regularized solvers for small transportation problems.

The exact solver is a specialization of the simplex method to the
transportation polytope: it works on spanning-tree bases of ``n + m - 1``
arcs, starts from the northwest-corner basis and pivots with Bland's
smallest-index rule on both the entering and the leaving arc, which rules
out cycling.  Zero marginal entries simply produce zero-flow basic arcs
(the limit of a perturbed basis); flow values are never perturbed.

The entropy-regularized solver is iterative proportional fitting (diagonal
scaling) run in the log domain, with stepwise reduction of the
regularization so that very small smoothing levels remain reachable.
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
    """Cost matrix with row/column marginals, rescaled to unit mass on ingest."""

    cost: np.ndarray
    row_marginal: np.ndarray
    col_marginal: np.ndarray

    def __post_init__(self):
        c = np.array(self.cost, dtype=np.float64)
        r = np.array(self.row_marginal, dtype=np.float64)
        s = np.array(self.col_marginal, dtype=np.float64)
        if c.ndim != 2 or c.shape != (r.size, s.size):
            raise ValueError(f"cost shape {c.shape} does not match marginals ({r.size}, {s.size})")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(r)) and np.all(np.isfinite(s))):
            raise ValueError("cost and marginals must be finite")
        for name, vec in (("row", r), ("column", s)):
            if np.any(vec < -NONNEG_TOL):
                raise InfeasibleMarginalsError(f"{name} marginal has a negative entry")
            np.clip(vec, 0.0, None, out=vec)
            total = vec.sum()
            if total <= 0.0:
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
    objective: float
    iterations: int
    residual: float


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


def _logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    mx = np.max(a, axis=axis, keepdims=True)
    return np.squeeze(mx, axis=axis) + np.log(np.sum(np.exp(a - mx), axis=axis))


def solve_transport_entropic(
    problem: TransportProblem,
    rho: float,
    edge_count: int,
    ref_row: np.ndarray,
    ref_col: np.ndarray,
    tol: float = TRANSPORT_MARGINAL_TOL,
) -> EntropicTransportResult:
    """Minimize ``<cost, plan> + rho*edge_count*KL(plan || ref_row x ref_col)``
    subject to the prescribed marginals.

    Solved by diagonal scaling in the log domain; the regularization is
    lowered geometrically toward ``rho * edge_count`` with warm-started
    potentials, so tiny smoothing levels converge as well.  Rows/columns
    with zero marginal mass are fixed to zero directly.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    if edge_count < 1:
        raise ValueError("edge_count must be at least 1")
    c = problem.cost
    r = problem.row_marginal
    s = problem.col_marginal
    n, m = c.shape
    ref_r = np.asarray(ref_row, dtype=np.float64)
    ref_c = np.asarray(ref_col, dtype=np.float64)
    if ref_r.shape != (n,) or ref_c.shape != (m,):
        raise ValueError("reference vectors must match the marginal shapes")

    rows = r > 0.0
    cols = s > 0.0
    plan = np.zeros((n, m))
    cs = c[np.ix_(rows, cols)]
    rr = r[rows]
    ss = s[cols]
    lref = np.log(np.maximum(ref_r[rows], LOG_FLOOR))[:, None] + np.log(
        np.maximum(ref_c[cols], LOG_FLOOR)
    )[None, :]

    eps_target = rho * edge_count
    # For very small regularization the exponent (f + g - c)/eps loses about
    # machine-epsilon/eps absolute accuracy; extended precision keeps the
    # marginal residual floor below the required tolerance.
    dt = np.longdouble if eps_target < 1e-4 else np.float64
    cs = cs.astype(dt)
    rr_d = rr.astype(dt)
    ss_d = ss.astype(dt)
    lref = lref.astype(dt)
    eps = max(eps_target, float(np.max(np.abs(cs))) if cs.size else eps_target, 1.0)
    f = np.zeros(rr.size, dtype=dt)
    g = np.zeros(ss.size, dtype=dt)
    log_r = np.log(rr_d)
    log_s = np.log(ss_d)
    stage_cap = int(10 * max(1, rr.size * ss.size) * np.log(1.0 / tol)) + 20
    total_iters = 0
    residual = np.inf

    def plan_at(fv, gv, eps_v, base_v):
        return np.exp(np.minimum(base_v + (fv[:, None] + gv[None, :]) / eps_v, dt(500.0)))

    def marginal_residual(plan):
        return max(
            float(np.max(np.abs(plan.sum(axis=1) - rr_d))),
            float(np.max(np.abs(plan.sum(axis=0) - ss_d))),
        )

    while True:
        final_stage = eps <= eps_target
        stage_tol = tol if final_stage else max(tol, 1e-4)
        base = lref - cs / dt(eps)
        for _ in range(min(stage_cap, 300)):
            total_iters += 1
            f = eps * (log_r - _logsumexp(base + (g / eps)[None, :], axis=1))
            g = eps * (log_s - _logsumexp(base + (f / eps)[:, None], axis=0))
            sub = plan_at(f, g, eps, base)
            residual = marginal_residual(sub)
            if residual < stage_tol:
                break
        if final_stage:
            break
        eps = max(eps_target, eps / 8.0)

    # Degenerate marginals can stall diagonal scaling; polish with a damped
    # Newton ascent on the regularized dual (the systems are tiny).
    if residual >= tol:
        nn, mm = rr.size, ss.size
        sub = plan_at(f, g, eps, base)
        grad = np.concatenate([rr_d - sub.sum(axis=1), ss_d - sub.sum(axis=0)])
        res_norm = float(np.max(np.abs(grad)))
        for _ in range(stage_cap):
            if res_norm < tol:
                break
            total_iters += 1
            hess = np.zeros((nn + mm, nn + mm))
            hess[:nn, :nn] = np.diag(sub.sum(axis=1).astype(np.float64))
            hess[nn:, nn:] = np.diag(sub.sum(axis=0).astype(np.float64))
            hess[:nn, nn:] = sub.astype(np.float64)
            hess[nn:, :nn] = sub.T.astype(np.float64)
            hess /= eps
            hess += np.eye(nn + mm) * (1e-13 * max(1.0, float(np.trace(hess))))
            try:
                delta = np.linalg.solve(hess, grad.astype(np.float64)).astype(dt)
            except np.linalg.LinAlgError:
                delta = np.linalg.lstsq(hess, grad.astype(np.float64), rcond=None)[0].astype(dt)
            step = dt(1.0)
            f_try, g_try, sub_try, grad_try = f, g, sub, grad
            for _ in range(80):
                f_try = f + step * delta[:nn]
                g_try = g + step * delta[nn:]
                sub_try = plan_at(f_try, g_try, eps, base)
                grad_try = np.concatenate([rr_d - sub_try.sum(axis=1), ss_d - sub_try.sum(axis=0)])
                if float(np.max(np.abs(grad_try))) < res_norm * (1.0 - float(step) / 4.0) + 1e-30:
                    break
                step /= dt(2.0)
            f, g, sub, grad = f_try, g_try, sub_try, grad_try
            res_norm = float(np.max(np.abs(grad)))
        residual = marginal_residual(sub)

    if residual >= tol:
        raise NumericalError(
            f"entropic scaling did not reach residual {tol} in {total_iters} iterations",
            residual=residual,
        )
    sub = sub.astype(np.float64)
    plan[np.ix_(rows, cols)] = sub
    pos = sub > 0.0
    kl = float(np.sum(sub[pos] * (np.log(sub[pos]) - lref[pos])))
    objective = float(np.sum(cs * sub)) + eps_target * kl
    return EntropicTransportResult(
        plan=plan, objective=objective, iterations=total_iters, residual=residual
    )
