"""Feasibility projections for primal and dual estimates.

The primal projections make an arbitrary collection of node blocks feasible
in two stages: Euclidean projection of every node block onto its simplex,
then exact re-optimization of every edge block given the projected node
blocks.  The edge stage is a tiny transportation problem per edge (linear
objective) or a tiny entropy minimization (smoothed objective); the edges
of each ``(L_u, L_v)`` shape are solved together as one stack.  Any edge
blocks present in the input are ignored; they are fully determined by the
optimization.

The dual projection keeps the reweighting messages and recomputes the bound
variables as the exact minima they bound, which restores feasibility of the
explicit dual at zero cost.
"""

from __future__ import annotations

import numpy as np

from ._packing import project_simplex_blocks
from .errors import NumericalError
from .model import Decomposition, DualPoint, Marginals, MrfModel, constraint_residual, node_vector
from .tolerances import EQ_TOL
from .transport import TransportProblem, solve_transport, solve_transport_entropic


def _projected_nodes(model: MrfModel, node_blocks) -> np.ndarray:
    packing = model.packing()
    flat = node_vector(model, node_blocks)
    if not np.all(np.isfinite(flat)):
        raise ValueError("node blocks must be finite")
    return project_simplex_blocks(flat, packing.node_starts, packing.label_counts)


def _certified(model: MrfModel, nodes: np.ndarray, edges: np.ndarray) -> Marginals:
    packing = model.packing()
    result = Marginals(np.concatenate([nodes, edges]), packing.label_counts, packing.edge_shapes)
    residual = constraint_residual(model, result)
    if residual > EQ_TOL:
        raise NumericalError("projection produced an infeasible point", residual=residual)
    return result


def _edge_groups(model: MrfModel, nodes: np.ndarray):
    """For each ``(L_u, L_v)`` shape: the indices of its edges, their cells
    in the flat edge vector, and their stacked transport problems between
    the node blocks of ``nodes``."""
    packing = model.packing()
    for lu, lv in np.unique(packing.edge_shapes, axis=0):
        es = np.flatnonzero((packing.edge_shapes == (lu, lv)).all(axis=1))
        cells = packing.edge_starts[es][:, None] + np.arange(lu * lv)
        yield es, cells, TransportProblem(
            packing.theta[packing.node_dim + cells].reshape(-1, lu, lv),
            nodes[packing.node_starts[packing.edge_ends[es, 0]][:, None] + np.arange(lu)],
            nodes[packing.node_starts[packing.edge_ends[es, 1]][:, None] + np.arange(lv)],
        )


def project_primal_energy(model: MrfModel, node_blocks) -> Marginals:
    """Feasible point from arbitrary node blocks, optimal for the energy.

    ``node_blocks`` is a :class:`Marginals`, a flat node vector or one array
    per node.  Node blocks are projected onto their simplices; each edge
    block is then the minimum-cost transport plan between its projected
    endpoints, from one batched :func:`solve_transport` call per
    ``(L_u, L_v)`` shape.  The output is certified feasible before it is
    returned.
    """
    packing = model.packing()
    flat = _projected_nodes(model, node_blocks)
    # exact unit sums keep the transport marginals consistent with the node blocks
    sums = np.add.reduceat(flat, packing.node_starts)
    flat /= np.repeat(sums, packing.label_counts)
    edges = np.empty(packing.edge_dim)
    for es, cells, problem in _edge_groups(model, flat):
        try:
            res = solve_transport(problem)
        except NumericalError as exc:
            u, v = model.edges[es[exc.problem]]
            raise NumericalError(f"{exc} on edge {(u, v)}") from exc
        edges[cells] = res.plan.reshape(es.size, -1)
    return _certified(model, flat, edges)


def project_primal_free_energy(
    model: MrfModel, decomposition: Decomposition, node_blocks, rho: float
) -> Marginals:
    """Like :func:`project_primal_energy`, but edge blocks minimize the
    entropy-smoothed edge objective with the projected node blocks as the
    reference product measure.  The edges of each ``(L_u, L_v)`` shape are
    one batched :func:`solve_transport_entropic` call."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    packing = model.packing()
    flat = _projected_nodes(model, node_blocks)
    edges = np.empty(packing.edge_dim)
    for es, cells, problem in _edge_groups(model, flat):
        res = solve_transport_entropic(problem, rho, decomposition.edge_counts[es], problem.row_marginal,
                                       problem.col_marginal)
        edges[cells] = res.plan.reshape(es.size, -1)
    return _certified(model, flat, edges)


def _checked_nu(model: MrfModel, point: DualPoint) -> np.ndarray:
    """The dual point's flat vector, after checking its layout against the
    model's."""
    if point.n_nodes != model.n_nodes or not np.array_equal(point.edge_shapes, model.packing().edge_shapes):
        raise ValueError(f"dual point has {point.n_nodes} node bounds and {len(point.edge_shapes)} "
                         "message pairs; their count or lengths do not match the model")
    return point.nu


def _dual_slack(model: MrfModel, nu: np.ndarray) -> np.ndarray:
    """``theta - A^T nu`` in the primal layout: the slack of every dual
    inequality."""
    packing = model.packing()
    return packing.theta - packing.apply_at(nu)


def project_dual(model: MrfModel, messages) -> DualPoint:
    """Feasible dual point from arbitrary reweighting messages.

    ``messages`` is a dual vector in the :meth:`Packing.split_dual` layout
    (its bound entries are ignored) or one ``(from_u, from_v)`` pair per
    edge.  The messages are kept unchanged; every bound variable is set to
    the exact minimum of its reweighted table, so the inequality
    constraints hold with equality at the binding entries.
    """
    packing = model.packing()
    if not (isinstance(messages, np.ndarray) and messages.ndim == 1):
        pairs = DualPoint.from_blocks(np.zeros(model.n_nodes), np.zeros(model.n_edges), messages)
        messages = _checked_nu(model, pairs)
    if messages.shape != (packing.dual_dim,):
        raise ValueError(f"dual vector has {messages.size} entries, expected {packing.dual_dim}")
    nu = np.array(messages, dtype=np.float64)
    # one bound per node block, then one per edge block
    n_bounds = model.n_nodes + model.n_edges
    nu[:n_bounds] = 0.0
    starts = np.concatenate([packing.node_starts, packing.node_dim + packing.edge_starts])
    nu[:n_bounds] = np.minimum.reduceat(_dual_slack(model, nu), starts)
    return DualPoint(nu, model.n_nodes, packing.edge_shapes)


def dual_value(model: MrfModel, point: DualPoint) -> float:
    """Objective of the explicit dual: sum of all bound variables."""
    return float(_checked_nu(model, point)[: model.n_nodes + model.n_edges].sum())


def dual_feasibility_margin(model: MrfModel, point: DualPoint) -> float:
    """Smallest slack of the dual inequalities (negative means infeasible)."""
    return float(_dual_slack(model, _checked_nu(model, point)).min())
