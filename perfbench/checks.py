"""Correctness checks the benchmark applies to the program's outputs.

``check_report`` runs on every solve.  ``lp_bracket`` solves the local
polytope LP once per instance with scipy's HiGHS on a sparse system built
here from the model tables (sharing no code with ``Packing``) and checks that
the certified bounds bracket its optimum.  ``exact_counts`` and
``entropic_counts`` re-solve the last epoch's edge problems through the public
transport entry points and report how far the plans are from the
projection's edge blocks; within ``TRANSPORT_MARGINAL_TOL``, the counts
describe the work that was timed.
"""

from __future__ import annotations

import time

import numpy as np

from mrflp import (
    TransportProblem,
    constraint_residual,
    dual_feasibility_margin,
    dual_value,
    solve_transport,
    solve_transport_entropic,
)
from mrflp.tolerances import EQ_TOL

# HiGHS meets its feasibility tolerances (1e-7) relative to the problem scale,
# so the bracket is checked to this relative accuracy.
LP_REL_TOL = 1e-6


def check_report(model, report) -> list[str]:
    """Certificate checks on one solver report; returns the violations."""
    problems = []
    if report.termination == "numerical-failure":
        problems.append("termination is numerical-failure")
    residual = constraint_residual(model, report.marginals)
    if residual > EQ_TOL:
        problems.append(f"final marginals have constraint residual {residual:.3e} > EQ_TOL")
    last = report.records[-1]
    if (report.dual_bound, report.primal_bound) != (last.dual_bound, last.primal_bound):
        problems.append("report bounds differ from its last record")
    prev_gap = np.inf
    for rec in report.records:
        if rec.primal_bound < rec.dual_bound - EQ_TOL:
            problems.append(f"record at iteration {rec.iteration}: primal {rec.primal_bound!r} < dual {rec.dual_bound!r}")
        if rec.gap > prev_gap:
            problems.append(f"record at iteration {rec.iteration}: gap grew from {prev_gap!r} to {rec.gap!r}")
        prev_gap = rec.gap
    if report.solver == "fpd":
        point = report.dual_point
        margin = dual_feasibility_margin(model, point)
        if margin < -EQ_TOL:
            problems.append(f"dual point has feasibility margin {margin:.3e}")
        value = dual_value(model, point)
        # the final point is the last epoch's; it set the recorded bound unless
        # an earlier epoch's point was better
        raised = len(report.records) < 2 or report.records[-1].dual_bound > report.records[-2].dual_bound
        if value > report.dual_bound + EQ_TOL or (raised and abs(value - report.dual_bound) > EQ_TOL):
            problems.append(f"dual point value {value!r} does not reproduce the bound {report.dual_bound!r}")
    return problems


def local_polytope_lp(model):
    """Sparse ``A_eq``, ``b_eq`` and cost of the local polytope LP.

    Variables are the node tables, then the edge tables row-major.  Rows are
    node normalization, then per edge the row sums against ``mu_u`` and the
    column sums against ``mu_v`` (edge normalization is implied).
    """
    import scipy.sparse

    counts = np.asarray(model.label_counts)
    node_off = np.concatenate(([0], np.cumsum(counts)))
    sizes = np.array([t.size for t in model.pairwise], dtype=np.int64)
    edge_off = node_off[-1] + np.concatenate(([0], np.cumsum(sizes)))
    rows, cols = [np.repeat(np.arange(model.n_nodes), counts)], [np.arange(node_off[-1])]
    vals = [np.ones(node_off[-1])]
    row = model.n_nodes
    for e, (u, v) in enumerate(model.edges):
        lu, lv = model.pairwise[e].shape
        cells = edge_off[e] + np.arange(lu * lv).reshape(lu, lv)
        # row sums: sum_b mu_e(a, b) - mu_u(a) = 0, then column sums
        rows += [row + np.repeat(np.arange(lu), lv), row + np.arange(lu)]
        cols += [cells.ravel(), node_off[u] + np.arange(lu)]
        row += lu
        rows += [row + np.tile(np.arange(lv), lu), row + np.arange(lv)]
        cols += [cells.ravel(), node_off[v] + np.arange(lv)]
        row += lv
        vals += [np.ones(lu * lv), -np.ones(lu), np.ones(lu * lv), -np.ones(lv)]
    a_eq = scipy.sparse.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(row, int(edge_off[-1])),
    )
    b_eq = np.zeros(row)
    b_eq[: model.n_nodes] = 1.0
    cost = np.concatenate([np.asarray(t, dtype=np.float64).ravel() for t in model.unary + model.pairwise])
    return a_eq, b_eq, cost


def lp_bracket(model, dual_bound: float, primal_bound: float) -> dict:
    """Solve the LP with HiGHS and check ``dual <= LP* <= primal``."""
    # imported here so scipy's memory stays out of the solves' peak RSS
    from scipy.optimize import linprog

    start = time.perf_counter()
    a_eq, b_eq, cost = local_polytope_lp(model)
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    out = {"seconds": time.perf_counter() - start, "status": int(res.status), "ok": False}
    if res.status != 0:
        out["problem"] = f"HiGHS did not solve the LP: {res.message}"
        return out
    lp = float(res.fun)
    tol = LP_REL_TOL * max(1.0, abs(lp))
    out.update(optimum=lp, dual_bound=dual_bound, primal_bound=primal_bound, tol=tol)
    if not dual_bound <= lp + tol:
        out["problem"] = f"dual bound {dual_bound!r} exceeds the LP optimum {lp!r}"
    elif not lp <= primal_bound + tol:
        out["problem"] = f"LP optimum {lp!r} exceeds the primal bound {primal_bound!r}"
    else:
        out["ok"] = True
    return out


def _edge_problems(model, node_blocks):
    for e, (u, v) in enumerate(model.edges):
        yield e, TransportProblem(model.pairwise[e], node_blocks[u], node_blocks[v])


def _plan_gap(plan: np.ndarray, block: np.ndarray) -> float:
    return float(np.max(np.abs(plan - block)))


def exact_counts(model, projected) -> dict:
    """Pivots of the exact re-solve of every edge of one primal projection."""
    pivots = 0
    worst = 0.0
    for e, problem in _edge_problems(model, projected.node_blocks):
        res = solve_transport(problem)
        pivots += res.pivots
        worst = max(worst, _plan_gap(res.plan, projected.edge_blocks[e]))
    return {"pivots": pivots, "problems": model.n_edges, "max_plan_diff": worst}


def entropic_counts(model, decomposition, projected, rho: float) -> dict:
    """Scaling and Newton iterations of the entropic re-solve of every edge."""
    iters = 0
    worst = 0.0
    for e, problem in _edge_problems(model, projected.node_blocks):
        res = solve_transport_entropic(
            problem, rho, int(decomposition.edge_counts[e]), problem.row_marginal, problem.col_marginal
        )
        iters += res.iterations
        worst = max(worst, _plan_gap(res.plan, projected.edge_blocks[e]))
    return {"iters": iters, "problems": model.n_edges, "max_plan_diff": worst}

