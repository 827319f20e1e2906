"""Flat-vector layout of primal/dual points and the constraint products on it.

The primal vector stacks all node blocks, then all edge blocks in row-major
order; :class:`~mrflp.model.Marginals` stores exactly this vector, and
:class:`~mrflp.model.MrfModel` its potentials ``theta``.  The constraint
operator is never materialized as a matrix; its forward and adjoint products
are computed from precomputed gather/scatter index maps, so they stay
O(total block size) regardless of graph size.  Each edge-table cell
``(e, x_u, x_v)`` has two maps: ``cell_u`` to its u-side marginalization row
``(e, x_u)`` and ``cell_v`` to its v-side row ``(e, x_v)``.  Row sums are
then bincounts over the cells, and the adjoint reads one message entry per
cell through the same maps.

These flat products serve the certificates only: the one forward product
the constraint residual, the adjoint the dual projection and the dual
feasibility margin.  ``fpd`` steps on the padded edge stack instead and
reaches them only through its epochs' certificates.

Constraint row order, which is also the layout of the dual vector stored by
:class:`~mrflp.model.DualPoint`: node normalization, edge normalization,
then for each edge the u-side marginalization rows (one per ``x_u``), then
for each edge the v-side rows (one per ``x_v``).

The padded edge stack, :attr:`Packing.edge_stack`, holds every edge's
transport problem: its edges, sorted by ``(L_u, L_v)``, largest first, are
split into runs by the forest DP's waste rule (``padded_runs``), and a run
pads its tables to ``w_u x w_v``, with zero mass in padded rows and
columns.  No pivot enters a padded cell, as it costs more than any real
arc's reduced cost can reach, so each edge pivots exactly as it would alone.
Each run also carries the flat dual positions of its message rows,
``dual_dim`` where a row is padded.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .transport import TransportProblem


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Offsets of consecutive segments of the given sizes."""
    return np.cumsum(sizes) - sizes


def segment_arange(sizes: np.ndarray) -> np.ndarray:
    """``0 .. size-1`` for every segment, concatenated."""
    return np.arange(int(sizes.sum())) - np.repeat(_starts(sizes), sizes)


@dataclasses.dataclass(frozen=True, eq=False)
class _StackRun:
    """One run of the padded edge stack: its edge ids, their cells in the
    flat edge vector, the mask of real cells (row-major, in the cells'
    order), the padded costs, each edge's endpoints ``u`` and ``v``, whose
    padded node rows are its problem's marginals, and the flat dual
    positions of its message rows, ``(w_u, k)`` and ``(w_v, k)``."""

    edges: np.ndarray
    cells: np.ndarray
    real: np.ndarray
    cost: np.ndarray
    u: np.ndarray
    v: np.ndarray
    dual_u: np.ndarray
    dual_v: np.ndarray

    def problem(self, nodes: np.ndarray) -> TransportProblem:
        _, wu, wv = self.cost.shape
        return TransportProblem(self.cost, nodes[self.u, :wu], nodes[self.v, :wv])


@dataclasses.dataclass(frozen=True, eq=False)
class Packing:
    node_dim: int
    edge_dim: int
    node_starts: np.ndarray      # (n,) offsets of node blocks in the node segment
    label_counts: np.ndarray     # (n,)
    edge_starts: np.ndarray      # (m,) offsets of edge blocks in the edge segment
    block_sizes: np.ndarray      # (m,) L_u * L_v
    edge_shapes: np.ndarray      # (m, 2) rows (L_u, L_v)
    edge_ends: np.ndarray        # (m, 2) rows (u, v)
    u_gather: np.ndarray         # (sum L_u,) node-segment index of (e, x_u)
    v_gather: np.ndarray         # (sum L_v,) node-segment index of (e, x_v)
    cell_u: np.ndarray           # (edge_dim,) u-side row (e, x_u) of each edge cell
    cell_v: np.ndarray           # (edge_dim,) v-side row (e, x_v) of each edge cell
    theta: np.ndarray            # (total_dim,) the model's potentials, read-only, not a copy
    node_pad: np.ndarray         # (n, L_max) node-segment index of each label, node_dim past its count

    @classmethod
    def build(cls, model) -> "Packing":
        counts = np.asarray(model.label_counts, dtype=np.int64)
        node_starts = _starts(counts)
        ends = np.array(model.edges, dtype=np.int64).reshape(-1, 2)
        edge_shapes = counts[ends]
        lu, lv = edge_shapes[:, 0], edge_shapes[:, 1]
        block_sizes = lu * lv
        # cell k of edge e's row-major table is row k // L_v, column k % L_v
        within = segment_arange(block_sizes)
        cell_lv = np.repeat(lv, block_sizes)
        return cls(
            node_dim=int(counts.sum()),
            edge_dim=int(block_sizes.sum()),
            node_starts=node_starts,
            label_counts=counts,
            edge_starts=_starts(block_sizes),
            block_sizes=block_sizes,
            edge_shapes=edge_shapes,
            edge_ends=ends,
            u_gather=np.repeat(node_starts[ends[:, 0]], lu) + segment_arange(lu),
            v_gather=np.repeat(node_starts[ends[:, 1]], lv) + segment_arange(lv),
            cell_u=np.repeat(_starts(lu), block_sizes) + within // cell_lv,
            cell_v=np.repeat(_starts(lv), block_sizes) + within % cell_lv,
            theta=model.theta,
            node_pad=padded_gather(node_starts, counts, int(counts.max()), int(counts.sum())),
        )

    # -- primal packing ----------------------------------------------------

    @property
    def total_dim(self) -> int:
        return self.node_dim + self.edge_dim

    @property
    def dual_dim(self) -> int:
        return len(self.node_starts) + len(self.edge_starts) + len(self.u_gather) + len(self.v_gather)

    @property
    def unary(self) -> np.ndarray:
        """The node segment of :attr:`theta`: all unary tables, flat."""
        return self.theta[: self.node_dim]

    def labeling_index(self, x: np.ndarray) -> np.ndarray:
        """Primal-vector positions of the entries a labeling selects: one per
        node block, then one per edge block."""
        u, v = self.edge_ends.T
        cells = self.node_dim + self.edge_starts + x[u] * self.edge_shapes[:, 1] + x[v]
        return np.concatenate([self.node_starts + x, cells])

    # -- streaming constraint products --------------------------------------

    def apply_a_packed(self, mu: np.ndarray) -> np.ndarray:
        """Forward product ``A mu`` in the :meth:`split_dual` layout."""
        nodes = mu[: self.node_dim]
        edges = mu[self.node_dim :]
        node_sums = np.add.reduceat(nodes, self.node_starts)
        edge_sums = np.add.reduceat(edges, self.edge_starts) if self.edge_dim else np.zeros(0)
        row_sums = np.bincount(self.cell_u, weights=edges, minlength=len(self.u_gather))
        col_sums = np.bincount(self.cell_v, weights=edges, minlength=len(self.v_gather))
        return np.concatenate([node_sums, edge_sums, nodes[self.u_gather] - row_sums,
                               nodes[self.v_gather] - col_sums])

    def split_dual(self, nu: np.ndarray) -> list[np.ndarray]:
        """Node bounds, edge bounds, u-side messages and v-side messages."""
        return np.split(nu, np.cumsum([len(self.node_starts), len(self.edge_starts), len(self.u_gather)]))

    def apply_at(self, nu: np.ndarray) -> np.ndarray:
        """Adjoint product, returned in the primal layout.  Each entry adds
        its block's bound last, ``fl(bound + w)`` with ``w`` the entry at zero
        bounds: :func:`~mrflp.projections.project_dual` relies on it."""
        nb, eb, msg_u, msg_v = self.split_dual(nu)
        w_nodes = np.bincount(self.u_gather, weights=msg_u, minlength=self.node_dim)
        w_nodes = w_nodes + np.bincount(self.v_gather, weights=msg_v, minlength=self.node_dim)
        out_edges = np.repeat(eb, self.block_sizes) - (msg_u[self.cell_u] + msg_v[self.cell_v])
        return np.concatenate([w_nodes + np.repeat(nb, self.label_counts), out_edges])

    # -- padded edge stack -------------------------------------------------

    @functools.cached_property
    def edge_stack(self) -> list[_StackRun]:
        """The stack's runs, laid out on first use; they hold no reference
        to the packing."""
        order = np.lexsort((-self.edge_shapes[:, 1], -self.edge_shapes[:, 0]))
        lu, lv = self.edge_shapes[order].T
        # flat dual positions of each edge's first u-side and v-side row
        bounds = len(self.node_starts) + len(self.edge_starts)
        first_u = bounds + _starts(self.edge_shapes[:, 0])
        first_v = bounds + len(self.u_gather) + _starts(self.edge_shapes[:, 1])
        runs = []
        for lo, hi, wu, wv in padded_runs(np.zeros(order.size), lu, lv):
            es = order[lo:hi]
            sizes = self.block_sizes[es]
            cells = np.repeat(self.edge_starts[es], sizes) + segment_arange(sizes)
            real = (np.arange(wu)[:, None] < lu[lo:hi, None, None]) & (np.arange(wv) < lv[lo:hi, None, None])
            cost = np.zeros(real.shape)
            cost[real] = self.theta[self.node_dim + cells]
            # padded cells cost 4 (wu + wv) (max|c| + 1): potentials are sums of at most
            # wu + wv - 1 costs, so such a cell has a larger reduced cost than any real arc
            # and never enters; but row 0's padded cells cost 0 and column 0's c_00, where the
            # exact solver's star start hangs padded columns and rows, as leaves without flow
            big = 4.0 * (wu + wv) * (np.abs(cost).max(axis=(1, 2), keepdims=True) + 1.0)
            cost[:, 1:] = np.where(real[:, 1:], cost[:, 1:], big)
            cost[:, 1:, 0] = np.where(real[:, 1:, 0], cost[:, 1:, 0], cost[:, :1, 0])
            runs.append(_StackRun(es, cells, real, cost, *self.edge_ends[es].T,
                                  padded_gather(first_u[es], lu[lo:hi], wu, self.dual_dim).T,
                                  padded_gather(first_v[es], lv[lo:hi], wv, self.dual_dim).T))
        return runs


# a padded stack is split where its padded cells would exceed this many
# times its real ones (see padded_runs)
PAD_WASTE = 4


def padded_runs(level: np.ndarray, lc: np.ndarray, lp: np.ndarray) -> list[tuple[int, int, int, int]]:
    """Split rows sorted by level, then by ``(lc, lp)`` largest first, into
    runs ``(lo, hi, width_c, width_p)`` within one level each.

    A level is one run when its padded cells ``rows * width_c * width_p``
    are at most ``PAD_WASTE`` times its real cells ``sum(lc * lp)``.
    Otherwise it is split greedily: a run closes before the row that would
    make its own padded cells exceed that bound.
    """
    if not len(level):
        return []
    bounds = np.flatnonzero(np.diff(level)) + 1
    starts, stops = np.concatenate(([0], bounds)), np.append(bounds, len(level))
    widths = np.maximum.reduceat(lp, starts)
    fits = (stops - starts) * lc[starts] * widths <= PAD_WASTE * np.add.reduceat(lc * lp, starts)
    runs = []
    for lo, stop, fit, width in zip(starts.tolist(), stops.tolist(), fits.tolist(), widths.tolist()):
        if fit:
            runs.append((lo, stop, int(lc[lo]), width))
            continue
        while lo < stop:
            real = np.cumsum(lc[lo:stop] * lp[lo:stop])
            wp = np.maximum.accumulate(lp[lo:stop])
            # argmax is 0 only when no row exceeds the bound: the first
            # row alone never does
            n = int(np.argmax(np.arange(1, stop - lo + 1) * lc[lo] * wp > PAD_WASTE * real)) or stop - lo
            runs.append((lo, lo + n, int(lc[lo]), int(wp[n - 1])))
            lo += n
    return runs


def padded_gather(starts: np.ndarray, counts: np.ndarray, width: int, sentinel: int) -> np.ndarray:
    """``(k, width)`` indices ``starts[:, None] + label`` of each block's
    labels; labels past a block's count index ``sentinel``."""
    labels = np.arange(width)
    return np.where(labels < counts[:, None], starts[:, None] + labels, sentinel)


def project_simplex_blocks(rows: np.ndarray) -> np.ndarray:
    """Euclidean projection of every row of ``rows`` onto its simplex, in
    closed form (Held, Wolfe & Crowder 1974): with the row sorted in
    descending order, ``s_1 >= s_2 >= ...``, and ``c_k = s_1 + ... + s_k``,
    every entry moves down by ``(c_r - 1) / r``, for ``r`` the last ``k``
    with ``k s_k > c_k - 1``, and is clipped at 0.  The running sums only
    pick ``r``; ``c_r`` itself is summed pairwise, so that its round-off
    does not grow with ``r``.  Entries of ``-inf`` pad the rows to one
    width; they come out 0."""
    s = -np.sort(-rows, axis=1)
    k = np.arange(1, rows.shape[1] + 1)
    r = np.where(k * s > np.cumsum(s, axis=1) - 1.0, k, 0).max(axis=1, keepdims=True)
    return np.maximum(rows - (np.where(k <= r, s, 0.0).sum(axis=1, keepdims=True) - 1.0) / r, 0.0)
