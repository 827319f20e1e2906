"""Dual decomposition: forest oracles, nonsmooth/smoothed duals, free energy.

A decomposition colors each edge 0 or 1, splitting the graph into two
spanning forests and the energy into two tractable parts whose unary tables
are shifted against each other by a reparametrization vector.
The decomposition dual is the sum of the two forest minima; its smoothed
variant replaces min by a soft-min at temperature ``rho`` and is
continuously differentiable with the difference of the two forest marginal
maps as its gradient.

Both forests are one level-synchronous dynamic program over one tree (see
:class:`ForestPlan`): each tree is rooted at a center found by peeling all
leaves round by round, every root hangs from one virtual root, and each
step handles all tree edges of one depth, in either forest, as stacked
arrays, their label axes padded to the level's largest label counts.
Padded labels read a ``+inf`` slot, so they never win a min and carry
exactly zero mass; a level whose padding would cost more than ``PAD_WASTE``
times its real table cells is split.
It runs in the energy domain with min-subtracted exponentials, so it is
stable for temperatures down to (and well below) 1e-4; the soft-min's way
down reuses the upward pass's exponentials.  Argmin ties are always broken
toward the smaller label so subgradients are reproducible.
The soft-min returns the value and the node marginals only: feasible primal
points are built from node blocks, with every edge block re-optimized by
the projections.
"""

from __future__ import annotations

import dataclasses
from typing import Sequence

import numpy as np

from ._packing import padded_gather, padded_runs
from .errors import InfeasibleMarginalsError, StructureError
from .model import (
    Decomposition,
    Marginals,
    MrfModel,
    _checked_flat,
    _forest_rows,
    constraint_residual,
    relaxed_energy,
)
from .tolerances import EQ_TOL, LOG_FLOOR


def _softmin(a: np.ndarray, rho: float, kept: list | None = None) -> np.ndarray:
    """Soft minimum of ``a`` over its first axis, in ``a``'s buffer, which
    ends holding ``e = exp(-(a - min a) / rho)``; with ``kept``, ``(e,
    e.sum(axis=0))`` is appended to it."""
    mn = a.min(axis=0)
    a -= mn
    a /= -rho
    np.exp(a, out=a)
    s = a.sum(axis=0)
    if kept is not None:
        kept.append((a, s))
    out = np.log(s)
    out *= -rho
    return np.add(out, mn, out=out)


@dataclasses.dataclass
class _EdgeGroup:
    """Tree edges whose children share one depth, stacked on the last
    axis (so label reductions run over contiguous rows) with label axes
    padded to the group's largest ``L_c`` and ``L_p``.  A padded label's
    gather index is the sentinel slot, and its table entries are 0."""

    depth: int
    child: np.ndarray          # (k,) node ids, forest f's offset by f * n_nodes
    parent: np.ndarray         # (k,) at depth 0, the virtual root F * n_nodes
    child_gather: np.ndarray   # (L_c, k) aggregate indices, sentinel where padded
    parent_gather: np.ndarray  # (L_p, k)
    w: np.ndarray              # (L_c, L_p, k) pairwise tables, child axis first


class ForestPlan:
    """Precomputed traversal structure of ``F >= 1`` forests, each a 1-D
    array of the model's edge ids over all of its nodes, as one DP.

    Forest ``f`` has its own copy of the node layout at offset
    ``f * node_dim``, so unary input and flat marginals hold
    ``F * node_dim`` entries, labels ``F * n_nodes`` (forest ``f``'s from
    ``f * n_nodes``), and the value sums the forests.  Each tree is rooted
    at a center, the node that leaf peeling removes last (of two centers,
    the smaller node id), so its depth is its radius; every root hangs from
    one virtual one-label node by an edge whose table is 0, so the forests
    are one tree.  Each depth level of tree edges, over all forests at once,
    the roots' edges at level 0, is one DP step, or a few when its padding
    is wasteful (see :func:`padded_runs`): messages go up from the deepest
    level to the virtual node, then labels or marginals go back down.  The
    aggregate vector ends in a sentinel slot held at ``+inf``, which padded
    labels gather from and scatter into, so they never win a min and get an
    exact 0 in every soft-min sum, and the virtual node's slot, which starts
    at 0 and ends holding the value, the summed forest minima.  The flat
    marginals are the aggregate without those two slots; the virtual node's
    label is 0 and its marginal 1.  Argmin ties go to the smaller label.
    The soft-min keeps each level's upward table ``e = exp(-(w + agg_c -
    min_c) / rho)`` and its column sums ``s``: a child's law given its
    parent's label ``p`` is ``e[:, p] / s[p]``, so the way down is
    ``marg_c = einsum("cpk,pk->ck", e, marg_p / s)``.  Small ``rho`` is
    safe: ``e`` lies in [0, 1] with an exact 1 per column, so ``s >= 1``,
    and padded labels read ``exp(-inf) = 0`` or carry marginal 0.

    One leaf-peeling pass roots all forests and names one with a cycle.
    The plan is reusable across unary tables (the pairwise tables are fixed
    by the model), which is what the iterative solvers rely on.
    """

    def __init__(self, model: MrfModel, *forests):
        self.model = model
        self.packing = packing = model.packing()
        self.n_forests = len(forests)
        # roots hang from the virtual node F * n_nodes; rows sort deepest level
        # first (the upward pass's order), then largest shapes first, then by child
        depth, c, p, e = _forest_rows(model, *forests).T
        sentinel = self.n_forests * packing.node_dim
        p[e < 0] = self.n_forests * model.n_nodes
        counts = np.append(np.tile(packing.label_counts, self.n_forests), 1)
        starts = np.append(packing.node_dim * np.arange(self.n_forests)[:, None] + packing.node_starts, sentinel + 1)
        # each node's labels down axis 0, padded with the slot past the unary input
        self._label_counts = counts[:-1]
        self._node_pad = padded_gather(starts[:-1], counts[:-1], int(counts.max()), sentinel).T.copy()
        lc, lp = counts[c], counts[p]
        order = np.lexsort((c, -lp, -lc, -depth))
        depth, c, p, e, lc, lp = (x[order] for x in (depth, c, p, e, lc, lp))
        # edge e's table is row-major (L_u, L_v) with u < v in theta, read
        # transposed when the child is v; index -1 (a root's edge, a padded
        # cell) reads an appended 0
        theta = np.append(packing.theta, 0.0)
        base = packing.node_dim + np.append(packing.edge_starts, 0)[e]
        stride_c, stride_p = np.where(c < p, lp, 1), np.where(c < p, 1, lc)
        c_gather = padded_gather(starts[c], counts[c], lc.max(initial=0), sentinel)
        p_gather = padded_gather(starts[p], counts[p], lp.max(initial=0), sentinel)
        self.groups = []
        for lo, hi, wc, wp in padded_runs(depth, lc, lp):
            s = slice(lo, hi)
            i, j = np.arange(wc)[:, None, None], np.arange(wp)[:, None]
            real = (i < lc[s]) & (j < lp[s]) & (e[s] >= 0)
            w = theta[np.where(real, base[s] + i * stride_c[s] + j * stride_p[s], -1)]
            group = (c[s], p[s], c_gather[s, :wc].T.copy(), p_gather[s, :wp].T.copy(), w)
            self.groups.append(_EdgeGroup(int(depth[lo]), *group))

    def _upward(self, unary_flat: np.ndarray, reduce) -> np.ndarray:
        """Per-node aggregates (unary plus all messages from the subtree),
        the ``+inf`` sentinel and the value slot, reducing over child labels."""
        agg = np.empty(self.n_forests * self.packing.node_dim + 2)
        agg[:-2] = unary_flat
        agg[-2:] = np.inf, 0.0
        for g in self.groups:
            np.add.at(agg, g.parent_gather, reduce(g.w + agg[g.child_gather][:, None, :]))
        return agg

    def min_sum(self, unary_flat: np.ndarray) -> tuple[float, np.ndarray]:
        """Exact minimum of the forests' summed energy and a tie-broken argmin."""
        agg = self._upward(unary_flat, lambda a: a.min(axis=0))
        labels = np.zeros(self.n_forests * self.model.n_nodes + 1, dtype=np.int64)
        for g in reversed(self.groups):
            w_at_parent = g.w[:, labels[g.parent], np.arange(len(g.child))]
            labels[g.child] = np.argmin(agg[g.child_gather] + w_at_parent, axis=0)
        return float(agg[-1]), labels[:-1]

    def soft_min(self, unary_flat: np.ndarray, rho: float, want_marginals: bool = True):
        """Soft minimum of the forests' summed energy at temperature ``rho``.

        Returns ``(value, node_marginals_flat)``; the flat marginals align
        with the unary layout and are ``None`` when ``want_marginals`` is
        false.
        """
        if not 0.0 < rho < np.inf:
            raise ValueError("rho must be positive and finite")
        # the marginals feel the aggregates' rounding over rho: a cost that
        # every label of a node pays (say 1e6) goes into the value instead
        low = np.append(unary_flat, np.inf)[self._node_pad].min(axis=0)
        tables = [] if want_marginals else None
        agg = self._upward(unary_flat - np.repeat(low, self._label_counts), lambda a: _softmin(a, rho, tables))
        value = float(low.sum()) + float(agg[-1])
        if not want_marginals:
            return value, None
        # the virtual root's marginal is 1; the sentinel's stays 0
        node_marg = np.zeros_like(agg)
        node_marg[-1] = 1.0
        for g, (e, s) in zip(reversed(self.groups), reversed(tables)):
            node_marg[g.child_gather] = np.einsum("cpk,pk->ck", e, node_marg[g.parent_gather] / s)
        return value, node_marg[:-2]


def _accumulate_labelings(acc: np.ndarray, packing, labelings, weights) -> None:
    """Add ``weights[k]`` to the node-layout entry of every label of
    ``labelings[k]``, in order (``np.add.at`` applies repeated entries one by
    one)."""
    idx = packing.node_starts + np.asarray(labelings, dtype=np.int64)
    np.add.at(acc, idx, np.broadcast_to(np.reshape(weights, (-1, 1)), idx.shape))


class DualContext:
    """Reusable evaluation context for the two-forest decomposition dual.

    A dual point ``lam`` is a flat vector in the unary layout.  Forest ``c``
    holds the edges of color ``c``; forest 0 sees the unary tables
    ``theta / 2 + lam`` and forest 1 sees ``theta / 2 - lam``, so the two
    energies always sum to the original.  Both forests are one
    :class:`ForestPlan`, so each depth level of the two is one DP step; the
    plan is built once per model and kept with the decomposition.
    """

    def __init__(self, model: MrfModel, decomposition: Decomposition):
        self.packing = model.packing()
        # kept in the decomposition's __dict__, as a cached property would
        # be, until another model asks for it
        plan = decomposition.__dict__.get("_forest_plan")
        if plan is None or plan.model is not model:
            plan = ForestPlan(model, *(decomposition.forest(model, c) for c in (0, 1)))
            decomposition.__dict__["_forest_plan"] = plan
        self.plan = plan

    def _sides(self, lam) -> np.ndarray:
        """Both forests' unary tables, forest 0's then forest 1's."""
        lam = np.asarray(lam, dtype=np.float64)
        if lam.shape != (self.packing.node_dim,):
            raise ValueError(f"lambda must be a flat vector of length {self.packing.node_dim}")
        half = self.packing.unary / 2.0
        return np.concatenate([half + lam, half - lam])

    def value_and_subgradient(self, lam):
        """Nonsmooth dual: value, a subgradient, and the two tie-broken argmin
        labelings it is built from."""
        value, labels = self.plan.min_sum(self._sides(lam))
        x1, x2 = np.split(labels, 2)
        g = np.zeros(self.packing.node_dim)
        _accumulate_labelings(g, self.packing, (x1, x2), (1.0, -1.0))
        return value, g, (x1, x2)

    def smoothed(self, lam, rho: float):
        """Smoothed dual: value, exact gradient, and the two forests' flat node
        marginal maps."""
        value, marg = self.plan.soft_min(self._sides(lam), rho)
        m1, m2 = np.split(marg, 2)
        return value, m1 - m2, (m1, m2)

    def smoothed_value(self, lam, rho: float) -> float:
        return self.plan.soft_min(self._sides(lam), rho, want_marginals=False)[0]


def decompose_by_coloring(model: MrfModel, colors: Sequence[int]) -> Decomposition:
    """Two-forest decomposition from a user-supplied edge 2-coloring; each
    side must be acyclic, which the one peeling pass of the forests'
    :class:`ForestPlan` checks.  The plan stays with the decomposition for
    the model's :class:`DualContext`."""
    decomposition = Decomposition(colors)
    try:
        DualContext(model, decomposition)
    except StructureError as exc:  # "forest {c} contains a cycle"
        raise StructureError(str(exc).replace(" contains", " of the supplied coloring contains")) from None
    return decomposition


def decomposition_entropy(model: MrfModel, marginals: Marginals) -> float:
    """Node entropies minus edge mutual informations, each node counted
    twice: for any coloring, every node lies in both forests, every edge in one.

    Equals the sum of the two forests' tree entropies, hence nonnegative on
    the local polytope.
    """
    packing = model.packing()
    flat = _checked_flat(model, marginals)
    nodes, edges = flat[: packing.node_dim], flat[packing.node_dim :]
    pos = nodes > 0.0
    node_terms = np.where(pos, nodes * np.log(np.where(pos, nodes, 1.0)), 0.0)
    # each run's cells read their endpoints' log-marginals as its message
    # rows read node entries; the terms go back to the flat order to be summed
    stack = packing.edge_stack
    log_rows = np.append(np.log(np.maximum(nodes, LOG_FLOOR)), 0.0)[stack.gather]
    edge_terms = np.empty(edges.size)
    for run in stack.runs:
        wu, wv, k = shape = run.real.shape
        cells = edges[run.cells]
        ratio = np.log(np.maximum(cells, LOG_FLOOR))
        ratio -= np.broadcast_to(log_rows[run.rows_u].reshape(wu, 1, k), shape)[run.real]
        ratio -= np.broadcast_to(log_rows[run.rows_v].reshape(wv, k), shape)[run.real]
        edge_terms[run.cells] = np.where(cells > 0.0, cells * ratio, 0.0)
    return -2.0 * float(node_terms.sum()) - float(edge_terms.sum())


def free_energy(model: MrfModel, marginals: Marginals, rho: float, *, certified: bool = False) -> float:
    """Entropy-smoothed relaxed energy (tree-reweighted free energy).

    Defined as the relaxed energy minus ``rho`` times the decomposition
    entropy, so it lower-bounds the relaxed energy on the local polytope and
    is within ``2 * rho * sum_v log L_v`` of it.  Infeasible marginals are
    refused, unless ``certified`` says that they were certified feasible
    already, as a primal projection's output is.
    """
    if not 0.0 < rho < np.inf:
        raise ValueError("rho must be positive and finite")
    residual = 0.0 if certified else constraint_residual(model, marginals)
    if residual > EQ_TOL:
        raise InfeasibleMarginalsError(
            "free energy is only defined on feasible points", residual=residual
        )
    return relaxed_energy(model, marginals) - rho * decomposition_entropy(model, marginals)

