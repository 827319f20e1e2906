"""Feasibility projections for primal and dual estimates.

The primal projections make an arbitrary flat node vector (the node blocks
in the :class:`~mrflp._packing.Packing` layout) feasible in two stages:
Euclidean projection of every node block onto its simplex (with exact unit
sums), then exact re-optimization of every edge block given the projected
node blocks, as a tiny transportation problem (linear objective) or entropy
minimization (smoothed objective) per edge.
The node blocks are projected as rows of one width, zero past each node's
labels, which the edges read directly as their marginals.  Each run of the
packing's padded edge stack, :attr:`~mrflp._packing.Packing.edge_stack`, is
one batched problem, on which each edge pivots exactly as it would alone.
A run's costs are a view of the stack's ``theta``, ``+inf`` in padded
cells, which the exact solver prices itself and the entropic one zeroes.
A :class:`ProjectionState` holds one solver run's warm start: each stack
run's last optimal exact bases, from which its next exact solve starts and
whose potentials seed its next entropic solve.  Calls without a state start
every exact solve from the star basis and every entropic solve cold.

The dual projection keeps the reweighting messages and recomputes the bound
variables as the exact minima they bound, which restores feasibility of the
explicit dual at zero cost: one stacked ``A^T`` product at zero bounds, then
the minima of every block, where padded cells cost ``+inf``.
"""

from __future__ import annotations

import numpy as np

from ._packing import project_simplex_blocks
from .errors import NumericalError, StructureError
from .model import Decomposition, DualPoint, Marginals, MrfModel, constraint_residual
from .tolerances import EQ_TOL
from .transport import SimplexBasis, TransportProblem, _potentials, _solve_stack, _unit_mass, solve_transport_entropic


def _projected_nodes(model: MrfModel, node_blocks) -> np.ndarray:
    """The flat node vector's blocks projected onto their simplices, as the
    zero-padded rows of :attr:`Packing.node_pad`, with exact unit sums so
    that the transport marginals agree with the node blocks."""
    packing = model.packing()
    flat = np.asarray(node_blocks, dtype=np.float64)
    if flat.shape != (packing.node_dim,):
        raise ValueError(f"node vector has shape {flat.shape}, expected ({packing.node_dim},)")
    if not np.all(np.isfinite(flat)):
        raise ValueError("node blocks must be finite")
    nodes = project_simplex_blocks(np.append(flat, -np.inf)[packing.node_pad])
    return nodes / nodes.sum(axis=1, keepdims=True)


class ProjectionState:
    """One solver run's warm start: each run of the model's edge stack keeps
    its last optimal exact bases.  They start the run's next exact solve: an
    edge's costs never change during a run, and the solver prices its padded
    cells for the bases' gauge, the root of its first star; so they stay
    dual feasible as its marginals move.  Their potentials ``(u, v)``,
    recomputed from the bases with padded cells at 0 (padded nodes are
    leaves), seed its next entropic solve: any finite ones leave the
    entropic optimum where it is, and those of the same marginals are its
    ``rho -> 0`` limit."""

    def __init__(self, model: MrfModel):
        self.model = model
        self.bases: dict[int, SimplexBasis] = {}


def _project_primal(model: MrfModel, node_blocks, state: ProjectionState | None, solve) -> Marginals:
    """The primal projections' shared steps: the check of the state's model,
    the node prologue, then ``solve(i, run, cost, r, s, state)`` on every
    run of the model's edge stack (a fresh state without one), on its
    stack-first costs and its endpoints' node rows, then the certificate of
    feasibility."""
    if state is not None and state.model is not model:
        raise ValueError("the projection state belongs to another model")
    state = ProjectionState(model) if state is None else state
    packing = model.packing()
    nodes = _projected_nodes(model, node_blocks)
    edges = np.empty(packing.edge_dim)
    for i, run in enumerate(packing.edge_stack.runs):
        wu, wv, k = run.real.shape
        cost = packing.edge_stack.theta[run.at].reshape(wu, wv, k).transpose(2, 0, 1)
        plan = solve(i, run, cost, nodes[run.u, :wu], nodes[run.v, :wv], state).plan
        edges[run.cells] = plan.transpose(1, 2, 0)[run.real]
    flat = np.concatenate([nodes[packing.node_pad < packing.node_dim], edges])
    result = Marginals(flat, packing.label_counts, packing.edge_shapes)
    residual = constraint_residual(model, result)
    if residual > EQ_TOL:
        raise NumericalError("projection produced an infeasible point", residual=residual)
    return result


def project_primal_energy(model: MrfModel, node_blocks, state: ProjectionState | None = None) -> Marginals:
    """Feasible point from arbitrary node blocks, optimal for the energy.

    ``node_blocks`` is the flat node vector, of length ``node_dim`` (for a
    :class:`Marginals`, its ``node_flat``).  Node blocks are projected onto
    their simplices; each edge block is then the minimum-cost transport plan
    between its projected endpoints, from one :func:`solve_transport` call
    per run of the padded edge stack (one call in all when every edge has
    the same shape).  With a ``state`` of the same model, each call starts
    from the bases of the state's last call and leaves its own there.  The
    output is certified feasible before it is returned.
    """

    def solve(i, run, cost, r, s, state):
        start = state.bases.get(i)
        try:
            result = _solve_stack(cost, _unit_mass(r, "row"), _unit_mass(s, "column"), start)
        except NumericalError as exc:
            u, v = model.edges[run.edges[exc.problem]]
            raise NumericalError(f"{exc} on edge {(u, v)}", residual=exc.residual) from exc
        state.bases[i] = result.simplex_basis
        return result

    return _project_primal(model, node_blocks, state, solve)


def project_primal_free_energy(
    model: MrfModel, decomposition: Decomposition, node_blocks, rho: float, state: ProjectionState | None = None
) -> Marginals:
    """Like :func:`project_primal_energy`, but edge blocks minimize the
    entropy-smoothed edge objective with the projected node blocks as the
    reference product measure, from one :func:`solve_transport_entropic`
    call per run of the same padded edge stack.  A ``state`` must be of the
    same model.  Where it holds a run's exact bases, that run is solved on
    the reduced costs ``c_ij - u_i - v_j`` of their potentials ``(u, v)``:
    with the marginals fixed, the shift moves the objective by a constant
    and leaves the optimum where it is, but Newton starts near it.  Padded
    rows and columns have zero mass, so their cells stay pinned at 0
    whatever their reduced cost.  Nothing is written to the state.
    ``node_blocks`` is the flat node vector, and ``rho`` must be positive
    and finite."""
    if not 0.0 < rho < np.inf:
        raise ValueError("rho must be positive and finite")
    if len(decomposition.colors) != model.n_edges:
        raise StructureError("need exactly one color per edge")

    def solve(i, run, cost, r, s, state):
        basis, cost = state.bases.get(i), np.where(run.real.transpose(2, 0, 1), cost, 0.0)
        if basis is not None:
            # less the exact bases' potentials, the real nodes' as on its costs
            y, wu = _potentials(cost.reshape(len(cost), -1), basis.slots, basis.inverse), cost.shape[1]
            cost = cost - y[:, :wu, None] - y[:, None, wu:]
        p = TransportProblem(cost, r, s)
        return solve_transport_entropic(p, rho, decomposition.edge_counts[run.edges], p.row_marginal, p.col_marginal)

    return _project_primal(model, node_blocks, state, solve)


def _checked_nu(model: MrfModel, point: DualPoint) -> np.ndarray:
    """The dual point's flat vector, after checking its layout against the
    model's."""
    if point.n_nodes != model.n_nodes or not np.array_equal(point.edge_shapes, model.packing().edge_shapes):
        raise ValueError(f"dual point has {point.n_nodes} node bounds and {len(point.edge_shapes)} "
                         "message pairs; their count or lengths do not match the model")
    return point.nu


def project_dual(model: MrfModel, messages) -> DualPoint:
    """Feasible dual point from arbitrary reweighting messages.

    ``messages`` is a flat dual vector in the :meth:`Packing.split_dual`
    layout, of length ``dual_dim``, with finite messages; its bound entries
    are ignored.  The messages are kept unchanged; every bound variable is
    set to the minimum of its reweighted table, rounded down so that no
    slack is negative: :func:`dual_feasibility_margin` is at least 0.
    """
    packing = model.packing()
    nu = np.array(messages, dtype=np.float64)
    if nu.shape != (packing.dual_dim,):
        raise ValueError(f"dual vector has shape {nu.shape}, expected ({packing.dual_dim},)")
    # one bound per node block, then one per edge block
    n_bounds = model.n_nodes + model.n_edges
    if not np.isfinite(nu[n_bounds:]).all():
        raise ValueError("dual messages must be finite")
    nu[:n_bounds] = 0.0
    # the margin is theta - fl(bound + w) per entry; where theta - w rounds
    # up, that sum can exceed theta, but not from the next float down
    theta = packing.edge_stack.theta
    w = packing.apply_at(packing.stack_dual(nu))
    fits = theta - w
    up = np.flatnonzero(fits + w > theta)
    fits[up] = np.nextafter(fits[up], -np.inf)
    nu[: model.n_nodes] = np.minimum.reduceat(fits[: packing.node_dim], packing.node_starts)
    # padded cells cost +inf, so each edge's minimum is over its real cells
    for run in packing.edge_stack.runs:
        nu[model.n_nodes + run.edges] = fits[run.at].reshape(-1, run.edges.size).min(axis=0)
    return DualPoint(nu, model.n_nodes, packing.edge_shapes)


def dual_value(model: MrfModel, point: DualPoint) -> float:
    """Objective of the explicit dual: sum of all bound variables."""
    return float(_checked_nu(model, point)[: model.n_nodes + model.n_edges].sum())


def dual_feasibility_margin(model: MrfModel, point: DualPoint) -> float:
    """Smallest slack ``theta - A^T nu`` (negative means infeasible);
    ``-inf`` for a point with a non-finite entry."""
    nu, packing = _checked_nu(model, point), model.packing()
    if not np.isfinite(nu).all():
        return -np.inf
    return float((packing.edge_stack.theta - packing.apply_at(packing.stack_dual(nu))).min())
