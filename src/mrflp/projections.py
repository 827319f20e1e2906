"""Feasibility projections for primal and dual estimates.

The primal projections make an arbitrary collection of node blocks feasible
in two stages: Euclidean projection of every node block onto its simplex,
then exact re-optimization of every edge block given the projected node
blocks.  The edge stage is a tiny transportation problem per edge (linear
objective) or a tiny entropy minimization (smoothed objective).  Any edge
blocks present in the input are ignored; they are fully determined by the
optimization.

The dual projection keeps the reweighting messages and recomputes the bound
variables as the exact minima they bound, which restores feasibility of the
explicit dual at zero cost.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Sequence

import numpy as np

from ._packing import project_simplex_blocks
from .errors import NumericalError
from .model import Decomposition, DualPoint, Marginals, MrfModel, constraint_residual
from .tolerances import EQ_TOL
from .transport import TransportProblem, _solve_kernel, solve_transport_entropic


@dataclasses.dataclass(frozen=True)
class LipschitzEstimate:
    """Lipschitz constants of the relaxed energy w.r.t. node blocks, edge
    blocks, and the joint vector."""

    node: float
    edge: float
    joint: float


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto the probability simplex: the one-block case
    of :func:`project_simplex_blocks`."""
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1 or v.size == 0:
        raise ValueError("expected a nonempty vector")
    if not np.all(np.isfinite(v)):
        raise ValueError("entries must be finite")
    return project_simplex_blocks(v, np.zeros(1, dtype=np.int64), np.array([v.size]))


def _node_blocks_of(model: MrfModel, node_blocks) -> list[np.ndarray]:
    if isinstance(node_blocks, Marginals):
        blocks = list(node_blocks.node_blocks)
    else:
        blocks = [np.asarray(b, dtype=np.float64) for b in node_blocks]
    if len(blocks) != model.n_nodes:
        raise ValueError(f"expected {model.n_nodes} node blocks, got {len(blocks)}")
    for v, b in enumerate(blocks):
        if b.shape != (model.label_counts[v],):
            raise ValueError(f"node block {v} has shape {b.shape}")
    return blocks


def _projected_node_blocks(model: MrfModel, node_blocks) -> tuple[np.ndarray, ...]:
    packing = model.packing()
    flat = packing.pack_nodes(_node_blocks_of(model, node_blocks))
    if not np.all(np.isfinite(flat)):
        raise ValueError("node blocks must be finite")
    projected = project_simplex_blocks(flat, packing.node_starts, packing.label_counts)
    return packing.split_nodes(projected)


def _certify(model: MrfModel, result: Marginals) -> Marginals:
    residual = constraint_residual(model, result)
    if residual > EQ_TOL:
        raise NumericalError("projection produced an infeasible point", residual=residual)
    return result


def project_primal_energy(model: MrfModel, node_blocks) -> Marginals:
    """Feasible point from arbitrary node blocks, optimal for the energy.

    Node blocks are projected onto their simplices; each edge block is then
    the minimum-cost transport plan between its projected endpoints.  The
    output is certified feasible before it is returned.
    """
    packing = model.packing()
    flat = packing.pack_nodes(_node_blocks_of(model, node_blocks))
    if not np.all(np.isfinite(flat)):
        raise ValueError("node blocks must be finite")
    flat = project_simplex_blocks(flat, packing.node_starts, packing.label_counts)
    # exact unit sums keep the per-edge transport marginals consistent
    sums = np.add.reduceat(flat, packing.node_starts)
    flat /= np.repeat(sums, packing.label_counts)
    projected = packing.split_nodes(flat)
    edge_blocks = []
    for e, (u, v) in enumerate(model.edges):
        try:
            plan = _solve_kernel(model.pairwise[e], projected[u], projected[v])[0]
        except NumericalError as exc:
            raise NumericalError(f"{exc} on edge {(u, v)}") from exc
        edge_blocks.append(plan)
    return _certify(model, Marginals(node_blocks=projected, edge_blocks=tuple(edge_blocks)))


def project_primal_free_energy(
    model: MrfModel, decomposition: Decomposition, node_blocks, rho: float
) -> Marginals:
    """Like :func:`project_primal_energy`, but edge blocks minimize the
    entropy-smoothed edge objective with the projected node blocks as the
    reference product measure."""
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    projected = _projected_node_blocks(model, node_blocks)
    edge_blocks = []
    for e, (u, v) in enumerate(model.edges):
        problem = TransportProblem(model.pairwise[e], projected[u], projected[v])
        res = solve_transport_entropic(
            problem,
            rho,
            int(decomposition.edge_counts[e]),
            problem.row_marginal,
            problem.col_marginal,
        )
        edge_blocks.append(res.plan)
    return _certify(model, Marginals(node_blocks=projected, edge_blocks=tuple(edge_blocks)))


def _message_arrays(model: MrfModel, messages) -> list[tuple[np.ndarray, np.ndarray]]:
    msgs = list(messages)
    if len(msgs) != model.n_edges:
        raise ValueError(f"expected {model.n_edges} message pairs")
    out = []
    for e, (u, v) in enumerate(model.edges):
        mu, mv = msgs[e]
        mu = np.asarray(mu, dtype=np.float64)
        mv = np.asarray(mv, dtype=np.float64)
        if mu.shape != (model.label_counts[u],) or mv.shape != (model.label_counts[v],):
            raise ValueError(f"messages of edge {(u, v)} have wrong shapes")
        out.append((mu, mv))
    return out


def project_dual(model: MrfModel, messages) -> DualPoint:
    """Feasible dual point from arbitrary reweighting messages.

    The messages are kept unchanged; every bound variable is set to the
    exact minimum of its reweighted table, so the inequality constraints
    hold with equality at the binding entries.
    """
    msgs = _message_arrays(model, messages)
    node_bounds = np.empty(model.n_nodes)
    for v in range(model.n_nodes):
        re = model.unary[v].copy()
        for u, e in model.neighbors[v]:
            mu, mv = msgs[e]
            re -= mu if v < u else mv
        node_bounds[v] = re.min()
    edge_bounds = np.empty(model.n_edges)
    for e in range(model.n_edges):
        mu, mv = msgs[e]
        edge_bounds[e] = (model.pairwise[e] + mu[:, None] + mv[None, :]).min()
    return DualPoint(node_bounds=node_bounds, edge_bounds=edge_bounds, messages=tuple(msgs))


def dual_value(model: MrfModel, point: DualPoint) -> float:
    """Objective of the explicit dual: sum of all bound variables."""
    if point.node_bounds.shape != (model.n_nodes,) or point.edge_bounds.shape != (model.n_edges,):
        raise ValueError("dual point does not match the model")
    return float(point.node_bounds.sum() + point.edge_bounds.sum())


def dual_feasibility_margin(model: MrfModel, point: DualPoint) -> float:
    """Smallest slack of the dual inequalities (negative means infeasible)."""
    msgs = _message_arrays(model, point.messages)
    margin = np.inf
    for v in range(model.n_nodes):
        re = model.unary[v].copy()
        for u, e in model.neighbors[v]:
            mu, mv = msgs[e]
            re -= mu if v < u else mv
        margin = min(margin, float((re - point.node_bounds[v]).min()))
    for e in range(model.n_edges):
        mu, mv = msgs[e]
        slack = model.pairwise[e] + mu[:, None] + mv[None, :] - point.edge_bounds[e]
        margin = min(margin, float(slack.min()))
    return margin


def lipschitz_linear(model: MrfModel) -> LipschitzEstimate:
    """2-norm bounds on how fast the relaxed energy varies with each block
    family, and with the joint vector."""
    node = math.sqrt(sum(float(np.sum(t * t)) for t in model.unary))
    edge = math.sqrt(sum(float(np.sum(t * t)) for t in model.pairwise))
    return LipschitzEstimate(node=node, edge=edge, joint=math.hypot(node, edge))


def lipschitz_entropy(a_norm: float, n_terms: int, eps: float, big: float) -> float:
    """Lipschitz constant of ``<a, z> + sum z_i log z_i`` on the box
    ``[eps, big]^n``."""
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if big < eps:
        raise ValueError("big must be at least eps")
    if n_terms < 0:
        raise ValueError("n_terms must be nonnegative")
    if a_norm < 0.0:
        raise ValueError("a_norm must be nonnegative")
    return a_norm + n_terms * max(abs(1.0 + math.log(eps)), abs(1.0 + math.log(big)))
