"""Feasibility projections for primal and dual estimates.

The primal projections make an arbitrary flat node vector (the node blocks
in the :class:`~mrflp._packing.Packing` layout) feasible in two stages:
Euclidean projection of every node block onto its simplex (with exact unit
sums), then exact re-optimization of every edge block given the projected
node blocks, as a tiny transportation problem (linear objective) or entropy
minimization (smoothed objective) per edge.
The node blocks are projected as rows of one width, zero past each node's
labels, which the edges read directly as their marginals.  All edges form
one padded stack: sorted by ``(L_u, L_v)``, largest first, split into runs
by the forest DP's waste rule (``padded_runs``).  Padded rows and columns
have zero mass.  Padded cells cost ``4 (w_u + w_v) (max|c| + 1)`` for a
run of ``w_u x w_v`` tables, more than any real arc's reduced cost can
reach, but 0 in row 0 and ``c_00`` in column 0: the exact solver's star
start then hangs every padded column from row 0 and every padded row from
column 0, as leaves that carry no flow and that no pivot ever enters, so
each edge pivots exactly as it would alone.

The stack's layout (edge ids, cells, padded costs and endpoints per run)
depends on the model's packing only: ``_edge_stack`` builds it on first use
and caches it with the packing.  ``fpd`` lays its iterate out on the same
runs, stack-last.  A :class:`ProjectionState` holds one solver
run's warm bases: each stack run's last optimal exact bases, from which its
next exact solve starts.  Calls without a state start every exact solve from
the star basis.

The dual projection keeps the reweighting messages and recomputes the bound
variables as the exact minima they bound, which restores feasibility of the
explicit dual at zero cost.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ._packing import padded_runs, project_simplex_blocks, segment_arange
from .errors import NumericalError
from .model import Decomposition, DualPoint, Marginals, MrfModel, constraint_residual
from .tolerances import EQ_TOL
from .transport import SimplexBasis, TransportProblem, solve_transport, solve_transport_entropic


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


@dataclasses.dataclass(frozen=True, eq=False)
class _StackRun:
    """One run of the padded edge stack: its edge ids, their cells in the
    flat edge vector, the mask of real cells (row-major, in the cells'
    order), the padded costs, and each edge's endpoints ``u`` and ``v``,
    whose padded node rows are its problem's row and column marginals."""

    edges: np.ndarray
    cells: np.ndarray
    real: np.ndarray
    cost: np.ndarray
    u: np.ndarray
    v: np.ndarray

    def problem(self, nodes: np.ndarray) -> TransportProblem:
        _, wu, wv = self.cost.shape
        return TransportProblem(self.cost, nodes[self.u, :wu], nodes[self.v, :wv])


def _edge_stack(model: MrfModel) -> list[_StackRun]:
    """The runs of the model's padded transport stack, laid out on first use
    and kept in its packing's ``__dict__``, as a cached property would be;
    the runs hold no reference to the packing."""
    packing = model.packing()
    if "_edge_stack" in packing.__dict__:
        return packing.__dict__["_edge_stack"]
    order = np.lexsort((-packing.edge_shapes[:, 1], -packing.edge_shapes[:, 0]))
    lu, lv = packing.edge_shapes[order].T
    costs = packing.theta[packing.node_dim:]
    runs = []
    for lo, hi, wu, wv in padded_runs(np.zeros(order.size), lu, lv):
        es = order[lo:hi]
        sizes = packing.block_sizes[es]
        cells = np.repeat(packing.edge_starts[es], sizes) + segment_arange(sizes)
        real = (np.arange(wu)[:, None] < lu[lo:hi, None, None]) & (np.arange(wv) < lv[lo:hi, None, None])
        cost = np.zeros(real.shape)
        cost[real] = costs[cells]
        # potentials are sums of at most wu + wv - 1 costs, so a padded cell that costs
        # more than (4 (wu + wv) - 2) max|c| has a larger reduced cost than any real arc
        # and never enters; row 0's padded cells (0) and column 0's (c_00) are where the
        # star start hangs padded columns and rows, as leaves without flow
        big = 4.0 * (wu + wv) * (np.abs(cost).max(axis=(1, 2), keepdims=True) + 1.0)
        cost[:, 1:] = np.where(real[:, 1:], cost[:, 1:], big)
        cost[:, 1:, 0] = np.where(real[:, 1:, 0], cost[:, 1:, 0], cost[:, :1, 0])
        runs.append(_StackRun(es, cells, real, cost, *packing.edge_ends[es].T))
    packing.__dict__["_edge_stack"] = runs
    return runs


class ProjectionState:
    """One solver run's warm bases: each run of the model's edge stack keeps
    its last optimal exact bases, the warm start of its next exact solve.
    An edge's costs never change during a run, so those bases stay dual
    feasible as its marginals move."""

    def __init__(self, model: MrfModel):
        self.model = model
        self.bases: dict[int, SimplexBasis] = {}


def _project_primal(model: MrfModel, node_blocks, state: ProjectionState | None, solve) -> Marginals:
    """The primal projections' shared steps: the check of the state's model,
    the node prologue, then ``solve(i, run, problem, bases)`` on every run of
    the model's edge stack (fresh bases without a state), then the
    certificate of feasibility."""
    if state is not None and state.model is not model:
        raise ValueError("the projection state belongs to another model")
    bases = {} if state is None else state.bases
    packing = model.packing()
    nodes = _projected_nodes(model, node_blocks)
    edges = np.empty(packing.edge_dim)
    for i, run in enumerate(_edge_stack(model)):
        edges[run.cells] = solve(i, run, run.problem(nodes), bases).plan[run.real]
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

    def solve(i, run, problem, bases):
        try:
            result = solve_transport(problem, start=bases.get(i))
        except NumericalError as exc:
            u, v = model.edges[run.edges[exc.problem]]
            raise NumericalError(f"{exc} on edge {(u, v)}", residual=exc.residual) from exc
        bases[i] = result.simplex_basis
        return result

    return _project_primal(model, node_blocks, state, solve)


def project_primal_free_energy(
    model: MrfModel, decomposition: Decomposition, node_blocks, rho: float, state: ProjectionState | None = None
) -> Marginals:
    """Like :func:`project_primal_energy`, but edge blocks minimize the
    entropy-smoothed edge objective with the projected node blocks as the
    reference product measure, from one :func:`solve_transport_entropic`
    call per run of the same padded edge stack.  A ``state`` must be of the
    same model; its bases are neither read nor written.  ``node_blocks``
    is the flat node vector, and ``rho`` must be positive and finite."""
    if not 0.0 < rho < np.inf:
        raise ValueError("rho must be positive and finite")
    return _project_primal(model, node_blocks, state, lambda i, run, p, _: solve_transport_entropic(
        p, rho, decomposition.edge_counts[run.edges], p.row_marginal, p.col_marginal))


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
    w = packing.apply_at(nu)
    fits = packing.theta - w
    fits = np.where(fits + w <= packing.theta, fits, np.nextafter(fits, -np.inf))
    starts = np.concatenate([packing.node_starts, packing.node_dim + packing.edge_starts])
    nu[:n_bounds] = np.minimum.reduceat(fits, starts)
    return DualPoint(nu, model.n_nodes, packing.edge_shapes)


def dual_value(model: MrfModel, point: DualPoint) -> float:
    """Objective of the explicit dual: sum of all bound variables."""
    return float(_checked_nu(model, point)[: model.n_nodes + model.n_edges].sum())


def dual_feasibility_margin(model: MrfModel, point: DualPoint) -> float:
    """Smallest slack ``theta - A^T nu`` (negative means infeasible);
    ``-inf`` for a point with a non-finite entry."""
    nu = _checked_nu(model, point)
    return float((model.theta - model.packing().apply_at(nu)).min()) if np.isfinite(nu).all() else -np.inf
