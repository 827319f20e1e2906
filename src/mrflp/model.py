"""Domain types and elementary operations for pairwise MRF energy minimization.

A model is an undirected graph with a finite label space per node, a unary
energy table per node and a pairwise energy table per edge.  Relaxed primal
points ("marginals") carry one simplex block per node and one joint block per
edge; the local polytope is the set of such blocks satisfying normalization
and the two marginalization families.  The potentials ``theta``, primal and
dual points are stored as one flat vector each in the
:class:`~mrflp._packing.Packing` layout, with their per-node and per-edge
tables as views, so every certificate is a vectorized product with ``theta``.

Conventions kept throughout the package:

* nodes are the integers ``0 .. n-1`` (grids are row-major),
* edges are pairs ``(u, v)`` with ``u < v``, sorted lexicographically,
* inside the package an edge is named by its index into ``model.edges``,
* pairwise tables are indexed ``theta[x_u, x_v]``,
* potentials are finite energies (lower is better); "infinite" potentials
  are represented by large finite values chosen by the caller, so all
  arithmetic stays exact.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Iterable, Sequence

import numpy as np

from ._packing import Packing, _starts, padded_gather
from .errors import InvalidLabelingError, StructureError


def _frozen_array(a, dtype=np.float64, ndim=None) -> np.ndarray:
    try:
        out = np.array(a, dtype=dtype, copy=True)
    except TypeError as exc:  # e.g. a JSON object where a number belongs
        raise ValueError(f"expected numbers: {exc}") from None
    if ndim is not None and out.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {out.shape}")
    out.flags.writeable = False
    return out


@dataclasses.dataclass(frozen=True, eq=False)
class MrfModel:
    """Pairwise graphical model with energy tables.

    ``theta`` is the one stored copy of the potentials: a read-only vector
    in the :class:`~mrflp._packing.Packing` primal layout, the unary tables,
    then the pairwise tables row-major.  A read-only float64 vector that
    owns its data is kept as given, handed over by its builder; any other
    is copied.  :attr:`unary` and :attr:`pairwise` are per-table views into
    it.  Instances are immutable; :meth:`create` builds one from per-table
    lists, canonicalizing edge orientation and ordering.
    """

    label_counts: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]
    theta: np.ndarray
    grid_shape: tuple[int, int] | None = None

    def __post_init__(self):
        counts = np.asarray(self.label_counts, dtype=np.int64).reshape(-1)
        if counts.size == 0:
            raise StructureError("a model needs at least one node")
        if np.any(counts < 1):
            raise StructureError("every node needs at least one label")
        u, v = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2).T
        canonical = (0 <= u) & (u < v) & (v < counts.size)
        rising = np.append(True, (u[1:] > u[:-1]) | ((u[1:] == u[:-1]) & (v[1:] > v[:-1])))
        bad = np.flatnonzero(~(canonical & rising))
        if bad.size and not canonical[bad[0]]:
            raise StructureError(f"edge ({u[bad[0]]}, {v[bad[0]]}) is not canonical (need 0 <= u < v < n)")
        if bad.size:
            raise StructureError("edges must be strictly increasing (no duplicates)")
        object.__setattr__(self, "label_counts", tuple(counts.tolist()))
        object.__setattr__(self, "edges", tuple(zip(u.tolist(), v.tolist())))
        theta, flags = self.theta, getattr(self.theta, "flags", None)
        handed_over = flags is not None and flags.owndata and not flags.writeable and theta.dtype == np.float64
        object.__setattr__(self, "theta", theta if handed_over and theta.ndim == 1 else _frozen_array(theta, ndim=1))
        sizes = np.concatenate([counts, counts[u] * counts[v]])
        if self.theta.size != sizes.sum():
            raise StructureError(f"theta has {self.theta.size} entries, the tables need {sizes.sum()}")
        if not np.all(np.isfinite(self.theta)):
            # the table holding the first non-finite entry
            k = int(np.searchsorted(np.cumsum(sizes), np.argmin(np.isfinite(self.theta)), side="right"))
            if k < counts.size:
                raise StructureError(f"unary table of node {k} has non-finite entries")
            raise StructureError(f"pairwise table of edge {self.edges[k - counts.size]} has non-finite entries")
        if self.grid_shape is not None:
            r, c = self.grid_shape
            if r < 1 or c < 1 or r * c != counts.size:
                raise StructureError(f"grid shape {self.grid_shape} does not match {counts.size} nodes")

    @classmethod
    def create(
        cls,
        label_counts: Sequence[int],
        edges: Iterable[tuple[int, int]],
        unary: Sequence,
        pairwise: Sequence,
        grid_shape: tuple[int, int] | None = None,
    ) -> "MrfModel":
        """Build a model from one table per node and one per edge, sorting
        edges canonically and copying the tables into ``theta``.

        Edges may be given in either orientation; tables follow their edge
        (a table for ``(v, u)`` with ``v > u`` is transposed).
        """
        ends = np.array(list(edges), dtype=np.int64).reshape(-1, 2)
        if len(pairwise) != len(ends):
            raise StructureError("one pairwise table per edge required")
        n_labels = [int(c) for c in label_counts]
        tables = [np.asarray(t, dtype=np.float64) for t in unary]
        if len(tables) != len(n_labels):
            raise StructureError("one unary table per node required")
        for v, t in enumerate(tables):
            if t.shape != (n_labels[v],):
                raise StructureError(f"unary table of node {v} has shape {t.shape}")
        order = np.lexsort((ends.max(axis=1), ends.min(axis=1)))
        for e, (u, v) in zip(order.tolist(), np.sort(ends[order], axis=1).tolist()):
            t = np.asarray(pairwise[e], dtype=np.float64)
            t = t.T if ends[e, 0] > ends[e, 1] else t
            if u == v:
                raise StructureError(f"self-loop on node {u}")
            # an edge outside the nodes has no shape to check; construction rejects it
            if 0 <= u and v < len(n_labels) and t.shape != (n_labels[u], n_labels[v]):
                raise StructureError(f"pairwise table of edge {(u, v)} has shape {t.shape}, "
                                     f"expected {(n_labels[u], n_labels[v])}")
            tables.append(t.ravel())
        grid_shape = None if grid_shape is None else (int(grid_shape[0]), int(grid_shape[1]))
        theta = np.concatenate([*tables, np.zeros(0)])
        theta.flags.writeable = False
        return cls(n_labels, np.sort(ends[order], axis=1), theta, grid_shape)

    @property
    def n_nodes(self) -> int:
        return len(self.label_counts)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @functools.cached_property
    def unary(self) -> tuple[np.ndarray, ...]:
        packing = self.packing()
        return tuple(_split(packing.unary, packing.label_counts))

    @functools.cached_property
    def pairwise(self) -> tuple[np.ndarray, ...]:
        packing = self.packing()
        cells = _split(self.theta[packing.node_dim :], packing.block_sizes)
        return tuple(b.reshape(shape) for b, shape in zip(cells, packing.edge_shapes.tolist()))

    @functools.cached_property
    def _layout(self) -> Packing:
        return Packing.build(self)

    def packing(self) -> Packing:
        """Cached flat-vector layout used by vectorized kernels."""
        return self._layout


def _split(vec: np.ndarray, sizes: np.ndarray) -> list[np.ndarray]:
    """Consecutive views of ``vec`` of the given sizes."""
    return np.split(vec, np.cumsum(sizes)[:-1]) if len(sizes) else []


@dataclasses.dataclass(frozen=True, eq=False)
class Marginals:
    """Relaxed primal point, stored as one read-only vector ``flat`` in the
    :class:`~mrflp._packing.Packing` primal layout: the node blocks, then
    the edge blocks row-major.

    ``label_counts`` are the node block sizes and the rows of
    ``edge_shapes`` the ``(L_u, L_v)`` of the edge blocks; every point
    carries both, so it can be certified.  :meth:`from_blocks` packs
    per-node and per-edge arrays; :attr:`node_blocks` and
    :attr:`edge_blocks` are views into ``flat``, built on first access.
    """

    flat: np.ndarray
    label_counts: np.ndarray
    edge_shapes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "flat", _frozen_array(self.flat, ndim=1))
        object.__setattr__(self, "label_counts", _frozen_array(self.label_counts, dtype=np.int64, ndim=1))
        object.__setattr__(self, "edge_shapes", _frozen_array(self.edge_shapes, dtype=np.int64, ndim=2))
        size = self.label_counts.sum() + self.edge_shapes.prod(axis=1).sum()
        if self.flat.size != size:
            raise ValueError(f"flat vector has {self.flat.size} entries, its blocks need {size}")

    @classmethod
    def from_blocks(cls, node_blocks, edge_blocks) -> "Marginals":
        """Pack one vector per node and one table per edge."""
        nodes = [_frozen_array(b, ndim=1) for b in node_blocks]
        edges = [_frozen_array(b, ndim=2) for b in edge_blocks]
        flat = np.concatenate([*nodes, *(b.ravel() for b in edges), np.zeros(0)])
        return cls(flat, [b.size for b in nodes], np.reshape([b.shape for b in edges], (-1, 2)))

    @functools.cached_property
    def node_flat(self) -> np.ndarray:
        """The node segment of ``flat``."""
        return self.flat[: self.label_counts.sum()]

    @functools.cached_property
    def node_blocks(self) -> tuple[np.ndarray, ...]:
        return tuple(_split(self.node_flat, self.label_counts))

    @functools.cached_property
    def edge_blocks(self) -> tuple[np.ndarray, ...]:
        cells = _split(self.flat[self.node_flat.size :], self.edge_shapes.prod(axis=1))
        return tuple(b.reshape(shape) for b, shape in zip(cells, self.edge_shapes.tolist()))


@dataclasses.dataclass(frozen=True, eq=False)
class DualPoint:
    """Point of the explicit LP dual, stored as one read-only vector ``nu``
    in the :meth:`~mrflp._packing.Packing.split_dual` layout: node bounds,
    edge bounds, every edge's message from ``u`` (indexed by ``x_u``), then
    every edge's message from ``v`` (indexed by ``x_v``).

    ``node_bounds`` and ``edge_bounds`` are the lower bounds on the
    reweighted unary/pairwise minima whose sum is the dual objective, and
    ``messages[e]`` is the pair of reweighting vectors of edge ``e``: views
    into ``nu``, built on first access.  The rows of ``edge_shapes`` are the
    message lengths ``(L_u, L_v)``.  :meth:`from_blocks` packs bounds and
    message pairs.
    """

    nu: np.ndarray
    n_nodes: int
    edge_shapes: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nu", _frozen_array(self.nu, ndim=1))
        object.__setattr__(self, "edge_shapes", _frozen_array(self.edge_shapes, dtype=np.int64, ndim=2))
        size = self.n_nodes + len(self.edge_shapes) + self.edge_shapes.sum()
        if self.nu.size != size:
            raise ValueError(f"dual vector has {self.nu.size} entries, its layout needs {size}")

    @classmethod
    def from_blocks(cls, node_bounds, edge_bounds, messages) -> "DualPoint":
        """Pack the bounds and one ``(from_u, from_v)`` pair per edge."""
        node_bounds, edge_bounds = _frozen_array(node_bounds, ndim=1), _frozen_array(edge_bounds, ndim=1)
        pairs = [(_frozen_array(a, ndim=1), _frozen_array(b, ndim=1)) for a, b in messages]
        nu = np.concatenate([node_bounds, edge_bounds, *(a for a, _ in pairs), *(b for _, b in pairs)])
        return cls(nu, node_bounds.size, np.reshape([(a.size, b.size) for a, b in pairs], (-1, 2)))

    @functools.cached_property
    def node_bounds(self) -> np.ndarray:
        return self.nu[: self.n_nodes]

    @functools.cached_property
    def edge_bounds(self) -> np.ndarray:
        return self.nu[self.n_nodes : self.n_nodes + len(self.edge_shapes)]

    @functools.cached_property
    def messages(self) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
        m = len(self.edge_shapes)
        # every u-side message, then every v-side one
        parts = _split(self.nu[self.n_nodes + m :], self.edge_shapes.T.ravel())
        return tuple(zip(parts[:m], parts[m:]))


@dataclasses.dataclass(frozen=True, eq=False)
class Decomposition:
    """Split of the model's edges into two forests that both span every
    node: ``colors[e]`` (0 or 1) is the forest holding edge ``e``, so every
    node lies in two forests and every edge in one."""

    colors: np.ndarray

    def __post_init__(self):
        try:
            colors = np.array(self.colors)
        except ValueError:  # ragged nested lists
            colors = np.zeros((0, 0))
        flat_ints = colors.ndim == 1 and (colors.size == 0 or colors.dtype.kind in "biu")
        if not flat_ints or np.any((colors != 0) & (colors != 1)):
            raise StructureError("colors must be a flat list of 0s and 1s, one per edge")
        object.__setattr__(self, "colors", _frozen_array(colors, dtype=np.int64))

    @property
    def edge_counts(self) -> np.ndarray:
        """Number of forests holding each edge: always one."""
        return np.ones(len(self.colors), dtype=np.int64)

    def forest(self, model: MrfModel, c: int) -> np.ndarray:
        """The ids of the model's edges of color ``c``, ascending."""
        if len(self.colors) != model.n_edges:
            raise StructureError("need exactly one color per edge")
        return np.flatnonzero(self.colors == c)


@dataclasses.dataclass(frozen=True)
class ConvergenceRecord:
    """One logged epoch of a solver run.

    ``dual_bound`` and ``primal_bound`` are the best certified bounds known
    at that point (a feasible dual value, and the relaxed energy of a
    feasible primal point, with rounded labelings folded in through their
    embeddings), so ``primal_bound >= dual_bound`` holds at every record and
    ``gap`` never increases.  ``projected_energy`` is the instantaneous
    relaxed energy of this epoch's projected point; ``smoothed_gap`` is only
    filled by the smoothed solver.
    """

    iteration: int
    time_s: float
    dual_bound: float
    primal_bound: float
    integer_bound: float
    gap: float
    rho: float | None = None
    smoothed_gap: float | None = None
    projected_energy: float | None = None


def validate_labeling(model: MrfModel, labeling) -> np.ndarray:
    x = np.asarray(labeling, dtype=np.int64)
    if x.shape != (model.n_nodes,):
        raise InvalidLabelingError(f"labeling has shape {x.shape}, expected ({model.n_nodes},)")
    counts = np.asarray(model.label_counts)
    if np.any(x < 0) or np.any(x >= counts):
        bad = int(np.argmax((x < 0) | (x >= counts)))
        raise InvalidLabelingError(f"label {x[bad]} out of range for node {bad}")
    return x


def energy(model: MrfModel, labeling) -> float:
    """Energy of an integer labeling: sum of the selected table entries."""
    packing = model.packing()
    return float(packing.theta[packing.labeling_index(validate_labeling(model, labeling))].sum())


def _checked_flat(model: MrfModel, marginals: Marginals) -> np.ndarray:
    """The point's flat vector, after checking its block shapes against the
    model's."""
    packing = model.packing()
    if not np.array_equal(marginals.label_counts, packing.label_counts):
        raise ValueError("node blocks do not match the model's label counts")
    if not np.array_equal(marginals.edge_shapes, packing.edge_shapes):
        raise ValueError("edge blocks do not match the model's pairwise tables")
    return marginals.flat


def relaxed_energy(model: MrfModel, marginals: Marginals) -> float:
    """Inner product of the potentials with a (not necessarily feasible) point."""
    # a numpy reduction, not BLAS: its rounding does not depend on the thread count
    return float(np.add.reduce(model.packing().theta * _checked_flat(model, marginals)))


def embed_labeling(model: MrfModel, labeling) -> Marginals:
    """Indicator embedding of a labeling; exactly feasible by construction."""
    packing = model.packing()
    flat = np.zeros(packing.total_dim)
    flat[packing.labeling_index(validate_labeling(model, labeling))] = 1.0
    return Marginals(flat, packing.label_counts, packing.edge_shapes)


def constraint_residual(model: MrfModel, marginals: Marginals) -> float:
    """Maximum violation of the local-polytope constraints.

    Covers node normalization, both marginalization families and
    nonnegativity (edge normalization is implied by the former).  A point
    with a non-finite entry has residual ``inf``.
    """
    flat, packing = _checked_flat(model, marginals), model.packing()
    rows = packing.apply_a_packed(packing.stack_primal(flat))
    # edge rows are skipped and padded rows read 0; numpy maxima keep the NaN
    # of a non-finite entry; 0.0 - min, not -min, so a feasible point reads +0.0
    rows[: model.n_nodes] -= 1.0
    rows[model.n_nodes : model.n_nodes + model.n_edges] = 0.0
    res = np.maximum(np.abs(rows).max(), 0.0 - flat.min())
    return np.inf if np.isnan(res) else float(res)


def round_to_labeling(marginals: Marginals) -> np.ndarray:
    """Per-node argmax of the node blocks; ties go to the smallest label."""
    counts, flat = marginals.label_counts, marginals.node_flat
    # argmax takes the first maximum, and the -inf padding follows real entries
    rows = padded_gather(_starts(counts), counts, int(counts.max(initial=1)), flat.size)
    return np.argmax(np.append(flat, -np.inf)[rows], axis=1)


def _forest_rows(model: MrfModel, *forests) -> np.ndarray:
    """``(depth, child, parent, edge)`` of every node of the given forests,
    each a 1-D array of edge ids over all ``n`` nodes, forest ``f``'s node
    ``v`` in row and id ``f * n + v``; a root is its own parent at depth 0,
    with edge -1.  An id outside ``0 .. n_edges - 1`` or a forest that is not
    1-D raises :class:`StructureError`.

    One leaf-peeling pass roots every tree at a center: each round removes
    all current leaves, each hanging from the other end of its one remaining
    edge, and a tree's last node is its root (of two leaves that hang from
    each other, two centers, the smaller).  Depths are filled top-down from
    the last round.  A node that no round peels lies on a cycle, and
    :class:`StructureError` names its forest.
    """
    n, size = model.n_nodes, model.n_nodes * len(forests)
    parts = [np.asarray(f, dtype=np.int64) for f in forests]
    if any(part.ndim != 1 for part in parts):
        raise StructureError("a forest must be a 1-D array of edge ids")
    ids = np.concatenate(parts)
    bad = ids[(ids < 0) | (ids >= model.n_edges)]
    if bad.size:
        raise StructureError(f"edge id {bad[0]} is out of range: the model has {model.n_edges} edges")
    ends = model.packing().edge_ends[ids] + n * np.repeat(np.arange(len(parts)), [p.size for p in parts])[:, None]
    # each node's degree and the xors of its remaining neighbours and of
    # their edges: at degree 1, the one neighbour and edge left
    deg = np.bincount(ends.ravel(), minlength=size)
    nbr, via = np.zeros(size, dtype=np.int64), np.zeros(size, dtype=np.int64)
    np.bitwise_xor.at(nbr, ends, ends[:, ::-1])
    np.bitwise_xor.at(via, ends, ids[:, None])
    parent, edge, child = np.arange(size), np.full(size, -1), np.empty(size, dtype=np.int64)
    rounds, leaves = [], np.flatnonzero(deg <= 1)
    while leaves.size:
        x = leaves[deg[leaves] == 1]
        y = nbr[x]
        # of two leaves that hang from each other, the smaller stays as root
        keep = (x > y) | (deg[y] != 1)
        x, y = x[keep], y[keep]
        parent[x], edge[x] = y, via[x]
        np.subtract.at(deg, y, 1)
        np.bitwise_xor.at(nbr, y, x)
        np.bitwise_xor.at(via, y, edge[x])
        rounds.append(x)
        # the next round's leaves, each once: only its one recorded child names it
        child[y] = x
        leaves = y[(deg[y] <= 1) & (child[y] == x)]
    # a node on a cycle keeps two edges, so no round peels it
    if deg.max(initial=0) > 1:
        raise StructureError(f"forest {np.argmax(deg > 1) // n} contains a cycle")
    depth = np.zeros(size, dtype=np.int64)
    for x in reversed(rounds):
        depth[x] = depth[parent[x]] + 1
    return np.stack([depth, np.arange(size), parent, edge], axis=1)


def grid_edges(rows: int, cols: int) -> list[tuple[int, int]]:
    """Canonical 4-connected edges of a row-major grid."""
    n = rows * cols
    return sorted([(v, v + 1) for v in range(n) if (v + 1) % cols] + [(v, v + cols) for v in range(n - cols)])


def infer_grid_shape(model: MrfModel) -> tuple[int, int] | None:
    """Recover (rows, cols) of a 4-connected grid from the edge set, if any:
    the widest edge spans a row, or the grid is a path ``(1, n)``."""
    if model.grid_shape is not None:
        return model.grid_shape
    n, cols = model.n_nodes, max((v - u for u, v in model.edges), default=1)
    shape = (n // cols, cols) if cols > 1 else (1, n)
    return shape if n % cols == 0 and tuple(grid_edges(*shape)) == model.edges else None


def decompose_grid(model: MrfModel) -> Decomposition:
    """Horizontal/vertical decomposition of a grid model: color 0 holds the
    row paths, color 1 the column paths, so both are forests by construction
    and are not peeled here (the dual's forest plan still rejects cycles).

    For non-grid models use :func:`~mrflp.dualdec.decompose_by_coloring`
    with a coloring of the edges into two forests; there is no automatic
    decomposition beyond grids.
    """
    shape = infer_grid_shape(model)
    if shape is None:
        raise StructureError(
            "model is not a 4-connected grid; supply an edge 2-coloring into forests"
        )
    u, v = model.packing().edge_ends.T
    return Decomposition(v - u == shape[1])  # a column edge spans a row
