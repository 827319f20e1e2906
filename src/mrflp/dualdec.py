"""Dual decomposition: forest oracles, nonsmooth/smoothed duals, free energy.

A two-forest decomposition splits the energy into two tractable parts whose
unary tables are shifted against each other by a reparametrization vector.
The decomposition dual is the sum of the two forest minima; its smoothed
variant replaces min by a soft-min at temperature ``rho`` and is
continuously differentiable with the difference of the two forest marginal
maps as its gradient.

Both forest oracles are one level-synchronous dynamic program (see
:class:`ForestPlan`): trees are rooted at a center, and each step handles
all tree edges of one depth and one label-count shape as stacked arrays.
It runs in the energy domain with min-subtracted exponentials, so it is
stable for temperatures down to (and well below) 1e-4.  Argmin ties are
always broken toward the smaller label so subgradients are reproducible.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .errors import InfeasibleMarginalsError, StructureError
from .model import (
    Decomposition,
    Marginals,
    MrfModel,
    Reparametrization,
    Subgraph,
    constraint_residual,
    relaxed_energy,
    validate_labeling,
)
from .tolerances import EQ_TOL, LOG_FLOOR


def _softmin(arr: np.ndarray, rho: float, axis: int) -> np.ndarray:
    mn = np.min(arr, axis=axis, keepdims=True)
    out = mn.squeeze(axis) - rho * np.log(np.sum(np.exp(-(arr - mn) / rho), axis=axis))
    return out


def _gibbs(neg_energy_over_rho: np.ndarray, axis) -> np.ndarray:
    mx = np.max(neg_energy_over_rho, axis=axis, keepdims=True)
    z = np.exp(neg_energy_over_rho - mx)
    return z / np.sum(z, axis=axis, keepdims=True)


@dataclasses.dataclass
class _EdgeGroup:
    """Tree edges whose children share one depth and whose (child, parent)
    label counts are the same ``(L_c, L_p)``."""

    child: np.ndarray          # (k,) node ids
    parent: np.ndarray         # (k,)
    child_gather: np.ndarray   # (k, L_c) flat unary indices
    parent_gather: np.ndarray  # (k, L_p)
    w: np.ndarray              # (k, L_c, L_p) pairwise tables, child axis first
    edge_ids: np.ndarray       # (k,)


def _bfs(adj: dict, root: int) -> list[tuple[int, int, int, int]]:
    """Breadth-first order of ``(node, parent, edge, depth)`` from ``root``;
    raises :class:`StructureError` when a node is reached twice (a cycle)."""
    order = [(root, -1, -1, 0)]
    seen = {root}
    for x, p, _, depth in order:
        for y, e in adj[x]:
            if y != p:
                if y in seen:
                    raise StructureError("subgraph contains a cycle")
                seen.add(y)
                order.append((y, x, e, depth + 1))
    return order


class ForestPlan:
    """Precomputed traversal structure of one forest subgraph.

    Each tree is rooted at a center of its longest path, so its depth is
    its radius.  Tree edges are grouped by the child's depth and by the
    label counts ``(L_c, L_p)`` of child and parent, and each DP step
    processes one group as stacked arrays: messages go up from the deepest
    group to the roots, then back down for labelings and marginals.
    Min-sum and soft-min share the upward pass and differ only in its
    reduction.  Argmin ties go to the smaller label, at the roots and at
    every child.

    Building the plan validates acyclicity.  The plan is reusable across
    unary tables (the pairwise tables are fixed by the model), which is what
    the iterative solvers rely on.
    """

    def __init__(self, model: MrfModel, subgraph: Subgraph):
        self.model = model
        self.subgraph = subgraph
        self.packing = model.packing()
        self.in_subgraph = in_sub = np.zeros(model.n_nodes, dtype=bool)
        in_sub[list(subgraph.nodes)] = True
        adj: dict[int, list[tuple[int, int]]] = {v: [] for v in subgraph.nodes}
        for u, v in subgraph.edges:
            if not (in_sub[u] and in_sub[v]):
                raise StructureError(f"edge {(u, v)} leaves the subgraph's node set")
            e = model.edge_id(u, v)
            adj[u].append((v, e))
            adj[v].append((u, e))

        counts = self.packing.label_counts.tolist()
        roots: dict[int, list[int]] = {}  # L -> root nodes
        links: dict[tuple[int, int], list[tuple[int, int, int, int]]] = {}  # (L_c, L_p) -> (depth, c, p, e)
        done: set[int] = set()
        for start in subgraph.nodes:
            if start in done:
                continue
            # a deepest node from anywhere ends a longest path; walk back
            # from that path's far end to its middle
            order = _bfs(adj, _bfs(adj, start)[-1][0])
            parent_of = {x: p for x, p, _, _ in order}
            done.update(parent_of)
            root = order[-1][0]
            for _ in range(order[-1][3] // 2):
                root = parent_of[root]
            roots.setdefault(counts[root], []).append(root)
            for x, p, e, depth in _bfs(adj, root)[1:]:
                links.setdefault((counts[x], counts[p]), []).append((depth, x, p, e))

        starts = self.packing.node_starts
        self.root_groups: list[tuple[np.ndarray, np.ndarray]] = []
        for L, nodes in sorted(roots.items()):
            nodes = np.array(nodes, dtype=np.int64)
            self.root_groups.append((nodes, starts[nodes][:, None] + np.arange(L)))
        groups: list[tuple[int, _EdgeGroup]] = []
        for (lc, lp), members in sorted(links.items()):
            members.sort()
            depth, c, p, e = np.array(members, dtype=np.int64).T
            # canonical tables are (L_u, L_v) with u < v
            w = np.stack([model.pairwise[i] if x < y else model.pairwise[i].T for _, x, y, i in members])
            arrays = (c, p, starts[c][:, None] + np.arange(lc), starts[p][:, None] + np.arange(lp), w, e)
            bounds = [0, *(np.flatnonzero(np.diff(depth)) + 1).tolist(), len(depth)]
            for lo, hi in zip(bounds[:-1], bounds[1:]):
                groups.append((int(depth[lo]), _EdgeGroup(*(x[lo:hi] for x in arrays))))
        # deepest first, the order of the upward pass
        self.groups = [g for _, g in sorted(groups, key=lambda dg: -dg[0])]

    def _upward(self, unary_flat: np.ndarray, reduce) -> tuple[np.ndarray, list[np.ndarray]]:
        """Per-node aggregates (unary plus all messages from the subtree) and
        each group's upward messages, reducing over the child's labels."""
        agg = np.array(unary_flat, dtype=np.float64)
        ups = []
        for g in self.groups:
            up = reduce(g.w + agg[g.child_gather][:, :, None])
            np.add.at(agg, g.parent_gather, up)
            ups.append(up)
        return agg, ups

    def min_sum(self, unary_flat: np.ndarray) -> tuple[float, np.ndarray]:
        """Exact minimum of the forest energy and a tie-broken argmin."""
        agg, _ = self._upward(unary_flat, lambda a: np.min(a, axis=1))
        labels = np.zeros(self.model.n_nodes, dtype=np.int64)
        value = 0.0
        for nodes, gather in self.root_groups:
            value += float(agg[gather].min(axis=1).sum())
            labels[nodes] = np.argmin(agg[gather], axis=1)
        for g in reversed(self.groups):
            w_at_parent = g.w[np.arange(len(g.child)), :, labels[g.parent]]
            labels[g.child] = np.argmin(agg[g.child_gather] + w_at_parent, axis=1)
        return value, labels

    def soft_min(
        self,
        unary_flat: np.ndarray,
        rho: float,
        want_marginals: bool = True,
        want_edge_marginals: bool = False,
    ):
        """Soft minimum of the forest energy at temperature ``rho``.

        Returns ``(value, node_marginals_flat, edge_marginals)`` where the
        flat marginals align with the unary layout (zero outside the
        subgraph) and ``edge_marginals`` maps edge id to a canonically
        oriented table.
        """
        if rho <= 0.0:
            raise ValueError("rho must be positive")
        agg, ups = self._upward(unary_flat, lambda a: _softmin(a, rho, axis=1))
        value = sum(float(_softmin(agg[gather], rho, axis=1).sum()) for _, gather in self.root_groups)
        edge_marg: dict[int, np.ndarray] = {}
        if not want_marginals:
            return value, None, edge_marg
        node_marg = np.zeros_like(agg)
        for _, gather in self.root_groups:
            node_marg[gather] = _gibbs(-agg[gather] / rho, axis=1)
        # belief = aggregate plus the message from outside the subtree
        belief = agg.copy()
        for g, up in zip(reversed(self.groups), reversed(ups)):
            joint = g.w + (belief[g.parent_gather] - up)[:, None, :]
            b = agg[g.child_gather] + _softmin(joint, rho, axis=2)
            belief[g.child_gather] = b
            node_marg[g.child_gather] = _gibbs(-b / rho, axis=1)
            if want_edge_marginals:
                logits = -(agg[g.child_gather][:, :, None] + joint) / rho
                probs = _gibbs(logits.reshape(len(g.child), -1), axis=1).reshape(joint.shape)
                for e, child_is_u, table in zip(g.edge_ids.tolist(), (g.child < g.parent).tolist(), probs):
                    edge_marg[e] = table if child_is_u else table.T
        return value, node_marg, edge_marg


def _as_unary_flat(model: MrfModel, unary_blocks) -> np.ndarray:
    packing = model.packing()
    if isinstance(unary_blocks, np.ndarray) and unary_blocks.ndim == 1:
        if unary_blocks.size != packing.node_dim:
            raise ValueError("flat unary vector has the wrong length")
        return np.asarray(unary_blocks, dtype=np.float64)
    blocks = [np.asarray(b, dtype=np.float64) for b in unary_blocks]
    if len(blocks) != model.n_nodes:
        raise ValueError(f"expected {model.n_nodes} unary tables")
    for v, b in enumerate(blocks):
        if b.shape != (model.label_counts[v],):
            raise ValueError(f"unary table {v} has shape {b.shape}")
    return packing.pack_nodes(blocks)


def dp_min(model: MrfModel, subgraph: Subgraph, unary_blocks) -> tuple[float, np.ndarray]:
    """Exact minimum-energy labeling of a forest subgraph.

    ``unary_blocks`` replace the model's unary tables; pairwise tables come
    from the model, restricted to the subgraph's edges.  Ties break toward
    the smaller label at every assignment.
    """
    plan = ForestPlan(model, subgraph)
    return plan.min_sum(_as_unary_flat(model, unary_blocks))


def dp_softmin(
    model: MrfModel,
    subgraph: Subgraph,
    unary_blocks,
    rho: float,
    with_edge_marginals: bool = True,
):
    """Soft minimum and Gibbs marginals of a forest subgraph at temperature
    ``rho``.

    Returns ``(value, node_marginals, edge_marginals)``: per-node marginal
    vectors (``None`` for nodes outside the subgraph) and a dict from edge
    id to the canonically oriented pairwise marginal table.
    """
    plan = ForestPlan(model, subgraph)
    value, flat, edge_marg = plan.soft_min(
        _as_unary_flat(model, unary_blocks), rho, want_marginals=True, want_edge_marginals=with_edge_marginals
    )
    packing = model.packing()
    blocks = packing.split_nodes(flat)
    node_marg = tuple(
        blocks[v] if plan.in_subgraph[v] else None for v in range(model.n_nodes)
    )
    return value, node_marg, edge_marg


class DualContext:
    """Reusable evaluation context for the two-forest decomposition dual."""

    def __init__(self, model: MrfModel, decomposition: Decomposition):
        if len(decomposition.subgraphs) != 2:
            raise StructureError("dual decomposition operations support exactly two subgraphs")
        cover = set()
        for sg in decomposition.subgraphs:
            if set(sg.nodes) != set(range(model.n_nodes)):
                raise StructureError("each subgraph must cover every node")
            cover.update(sg.edges)
        if cover != set(model.edges):
            raise StructureError("subgraph edges must cover the model's edges")
        if len(decomposition.subgraphs[0].edges) + len(decomposition.subgraphs[1].edges) != model.n_edges:
            raise StructureError("subgraph edge sets must be disjoint")
        self.model = model
        self.decomposition = decomposition
        self.packing = model.packing()
        self.theta_nodes = self.packing.unary_flat(model)
        self.plans = [ForestPlan(model, sg) for sg in decomposition.subgraphs]

    def _sides(self, lam: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        lam = np.asarray(lam, dtype=np.float64)
        if lam.shape != (self.packing.node_dim,):
            raise ValueError(f"lambda must be a flat vector of length {self.packing.node_dim}")
        half = self.theta_nodes / 2.0
        return half + lam, half - lam

    def value_and_subgradient(self, lam):
        t1, t2 = self._sides(lam)
        v1, x1 = self.plans[0].min_sum(t1)
        v2, x2 = self.plans[1].min_sum(t2)
        g = np.zeros(self.packing.node_dim)
        pos = self.packing.node_starts
        g[pos + x1] += 1.0
        g[pos + x2] -= 1.0
        return v1 + v2, g, (x1, x2)

    def smoothed(self, lam, rho: float, want_marginals: bool = True):
        t1, t2 = self._sides(lam)
        v1, m1, _ = self.plans[0].soft_min(t1, rho, want_marginals=want_marginals)
        v2, m2, _ = self.plans[1].soft_min(t2, rho, want_marginals=want_marginals)
        if not want_marginals:
            return v1 + v2, None, None
        return v1 + v2, m1 - m2, (m1, m2)

    def smoothed_value(self, lam, rho: float) -> float:
        value, _, _ = self.smoothed(lam, rho, want_marginals=False)
        return value


def _lam_of(arg) -> np.ndarray:
    if isinstance(arg, Reparametrization):
        return np.asarray(arg.lam, dtype=np.float64)
    return np.asarray(arg, dtype=np.float64)


def dual_u(model: MrfModel, decomposition: Decomposition, lam):
    """Nonsmooth decomposition dual: value, a subgradient, and the two
    tie-broken argmin labelings it is built from."""
    ctx = DualContext(model, decomposition)
    return ctx.value_and_subgradient(_lam_of(lam))


def dual_u_smoothed(model: MrfModel, decomposition: Decomposition, lam, rho: float):
    """Smoothed decomposition dual: value, exact gradient, and the two
    per-subgraph node marginal maps (flat, in unary layout)."""
    ctx = DualContext(model, decomposition)
    return ctx.smoothed(_lam_of(lam), rho)


def decomposition_entropy(model: MrfModel, decomposition: Decomposition, marginals: Marginals) -> float:
    """Weighted sum of node entropies minus edge mutual informations.

    Equals the sum of the subgraph tree entropies, hence nonnegative on the
    local polytope.
    """
    h = 0.0
    for v in range(model.n_nodes):
        b = marginals.node_blocks[v]
        pos = b > 0.0
        h -= float(decomposition.node_counts[v]) * float(np.sum(b[pos] * np.log(b[pos])))
    for e, (u, v) in enumerate(model.edges):
        blk = marginals.edge_blocks[e]
        bu = np.maximum(marginals.node_blocks[u], LOG_FLOOR)
        bv = np.maximum(marginals.node_blocks[v], LOG_FLOOR)
        pos = blk > 0.0
        ratio = np.log(np.maximum(blk, LOG_FLOOR)) - np.log(bu)[:, None] - np.log(bv)[None, :]
        h -= float(decomposition.edge_counts[e]) * float(np.sum(blk[pos] * ratio[pos]))
    return h


def entropy_upper_bound(model: MrfModel, decomposition: Decomposition) -> float:
    """Upper bound on :func:`decomposition_entropy` over the local polytope."""
    counts = np.asarray(model.label_counts, dtype=np.float64)
    return float(np.sum(decomposition.node_counts * np.log(counts)))


def free_energy(model: MrfModel, decomposition: Decomposition, marginals: Marginals, rho: float) -> float:
    """Entropy-smoothed relaxed energy (tree-reweighted free energy).

    Defined as the relaxed energy minus ``rho`` times the decomposition
    entropy, so it lower-bounds the relaxed energy on the local polytope and
    is within ``rho * entropy_upper_bound`` of it.
    """
    if rho <= 0.0:
        raise ValueError("rho must be positive")
    residual = constraint_residual(model, marginals)
    if residual > EQ_TOL:
        raise InfeasibleMarginalsError(
            "free energy is only defined on feasible points", residual=residual
        )
    return relaxed_energy(model, marginals) - rho * decomposition_entropy(model, decomposition, marginals)


def reconstruct_primal_subgradient(model: MrfModel, history, weights=None) -> tuple[np.ndarray, ...]:
    """Weighted average of the embedded argmin labelings of both subgraphs.

    ``history`` is a sequence of ``(labeling_1, labeling_2)`` pairs; with
    ``weights=None`` the average is uniform, otherwise entry ``k`` carries
    weight ``weights[k]`` (the step sizes, for step-weighted averaging).
    Each returned node block is a distribution.
    """
    history = list(history)
    if not history:
        raise ValueError("history must not be empty")
    if weights is None:
        weights = np.ones(len(history))
    else:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (len(history),) or np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("weights must be nonnegative with positive sum, one per entry")
    packing = model.packing()
    acc = np.zeros(packing.node_dim)
    pos = packing.node_starts
    for (x1, x2), w in zip(history, weights):
        acc[pos + validate_labeling(model, x1)] += w
        acc[pos + validate_labeling(model, x2)] += w
    acc /= 2.0 * weights.sum()
    return packing.split_nodes(acc)
