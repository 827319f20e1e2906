"""Flat layout of primal and dual points, the padded edge stack, and the
constraint products on the stack.

The flat primal vector is all node blocks, then all edge blocks row-major:
:class:`~mrflp.model.Marginals` stores it, :class:`~mrflp.model.MrfModel`
its potentials ``theta``.  The flat dual vector, stored by
:class:`~mrflp.model.DualPoint`, follows the constraint rows: node
normalization, edge normalization, then every edge's u-side rows (one per
``x_u``), then every edge's v-side rows.  Flat vectors are the storage and
the file format; the arithmetic reads the stack.

The padded edge stack, :attr:`Packing.edge_stack`, sorts the edges by
``(L_u, L_v)``, largest first, splits them into runs by the forest DP's
waste rule (``padded_runs``), and lays a run's ``k`` tables out stack-last,
as one ``(w_u, w_v, k)`` array.  The stacked primal vector is the node
segment, then every run's cells; the stacked dual vector is the node
bounds, every run's edge bounds, every run's u-side rows ``(w_u, k)``, then
every run's v-side rows ``(w_v, k)``.  Padded cells and rows hold 0, and
padded cells cost ``+inf``.  ``A`` adds whole ``k``-vectors into each
run's bound, row and column sums, and ``A^T``'s edge side is one broadcast
``eb - (m_u[:, None] + m_v[None])`` per run; the matrix is never built.
Every sum adds in the flat layout's row-major order, so on one unpadded run
both products give the flat ones' floats, and on any stack so do ``A``'s
marginalization rows and ``A^T``'s edge cells.  ``fpd`` steps with these
two products, and every certificate reads them after gathering its flat
point into the stack.  The stacked ``theta`` is the stack's one copy of
the edge costs: the edge projections read each run's tables as a
stack-first view of it, and the exact solver prices the ``+inf`` padded
cells for each problem's own star (see ``transport._solve_stack``).
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np

from .transport import _fsum


def _starts(sizes: np.ndarray) -> np.ndarray:
    """Offsets of consecutive segments of the given sizes."""
    return np.cumsum(sizes) - sizes


def _add_rows(a: np.ndarray, out: np.ndarray) -> None:
    """``a.sum(axis=0)`` into ``out``, added one row at a time in order, as
    ``np.bincount`` adds."""
    np.copyto(out, a[0])
    for row in a[1:]:
        out += row


@dataclasses.dataclass(frozen=True, eq=False)
class _StackRun:
    """One run of the stack: its edges; their real cells' flat edge positions,
    in the order of the mask ``real`` ``(w_u, w_v, k)``; the edges'
    endpoints; its cells' slice ``at`` of the stacked primal and its rows'
    slices of the stacked dual."""

    edges: np.ndarray
    cells: np.ndarray
    real: np.ndarray
    u: np.ndarray
    v: np.ndarray
    at: slice
    bounds: slice
    rows_u: slice
    rows_v: slice


@dataclasses.dataclass(frozen=True, eq=False)
class _EdgeStack:
    """The runs; the stacked potentials; each stacked dual row's flat position
    (``dual_dim`` where padded) and its node entry's position (``node_dim``
    on bound rows and where padded); and the slices of all u-side and all
    v-side rows.  It holds no reference to the packing."""

    runs: tuple[_StackRun, ...]
    theta: np.ndarray
    index: np.ndarray
    gather: np.ndarray
    messages_u: slice
    messages_v: slice


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
    theta: np.ndarray            # (total_dim,) the model's potentials, read-only, not a copy
    node_pad: np.ndarray         # (n, L_max) node-segment index of each label, node_dim past its count

    @classmethod
    def build(cls, model) -> "Packing":
        counts = np.asarray(model.label_counts, dtype=np.int64)
        node_starts = _starts(counts)
        ends = np.array(model.edges, dtype=np.int64).reshape(-1, 2)
        edge_shapes = counts[ends]
        block_sizes = edge_shapes[:, 0] * edge_shapes[:, 1]
        return cls(
            node_dim=int(counts.sum()),
            edge_dim=int(block_sizes.sum()),
            node_starts=node_starts,
            label_counts=counts,
            edge_starts=_starts(block_sizes),
            block_sizes=block_sizes,
            edge_shapes=edge_shapes,
            edge_ends=ends,
            theta=model.theta,
            node_pad=padded_gather(node_starts, counts, int(counts.max()), int(counts.sum())),
        )

    # -- flat layout -------------------------------------------------------

    @property
    def total_dim(self) -> int:
        return self.node_dim + self.edge_dim

    @property
    def dual_dim(self) -> int:
        return len(self.node_starts) + len(self.edge_starts) + int(self.edge_shapes.sum())

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

    # -- conversions between the layouts -----------------------------------

    def stack_primal(self, flat: np.ndarray) -> np.ndarray:
        """A flat primal vector in the stacked layout, 0 in padded cells."""
        nd = self.node_dim
        out, edges = np.zeros(self.edge_stack.theta.size), flat[nd:]
        out[:nd] = flat[:nd]
        for run in self.edge_stack.runs:
            out[run.at].reshape(run.real.shape)[run.real] = edges[run.cells]
        return out

    def stack_dual(self, nu: np.ndarray) -> np.ndarray:
        """A flat dual vector in the stacked layout, 0 in padded rows."""
        return np.append(nu, 0.0)[self.edge_stack.index]

    def unstack_dual(self, stacked: np.ndarray) -> np.ndarray:
        """A stacked dual vector in the flat layout."""
        nu = np.empty(self.dual_dim + 1)
        nu[self.edge_stack.index] = stacked
        return nu[:-1]

    # -- constraint products -----------------------------------------------

    def apply_a_packed(self, mu: np.ndarray) -> np.ndarray:
        """Forward product ``A mu`` of a stacked primal vector, in the stacked
        dual layout: block sums on bound rows, and the node entry minus its
        row or column sum on message rows."""
        stack = self.edge_stack
        nodes = mu[: self.node_dim]
        rows = np.empty(stack.index.size)
        rows[: len(self.node_starts)] = np.add.reduceat(nodes, self.node_starts)
        for run in stack.runs:
            wu, wv, k = run.real.shape
            cells = mu[run.at].reshape(wu, wv, k)
            # numpy's reduceat adds a block's first cell to the others' pairwise sum
            np.add(cells[0, 0], _fsum(cells.reshape(wu * wv, k)[1:]), out=rows[run.bounds])
            _add_rows(cells.swapaxes(0, 1), rows[run.rows_u].reshape(wu, k))
            _add_rows(cells, rows[run.rows_v].reshape(wv, k))
        messages = slice(stack.messages_u.start, None)
        np.subtract(np.append(nodes, 0.0)[stack.gather[messages]], rows[messages], out=rows[messages])
        return rows

    def apply_at(self, nu: np.ndarray) -> np.ndarray:
        """Adjoint product ``A^T nu`` of a stacked dual vector, in the stacked
        primal layout.  Each entry adds its block's bound last, ``fl(bound +
        w)`` with ``w`` the entry at zero bounds:
        :func:`~mrflp.projections.project_dual` relies on it."""
        stack, nd = self.edge_stack, self.node_dim
        out = np.empty(stack.theta.size)
        w = np.bincount(stack.gather[stack.messages_u], nu[stack.messages_u], minlength=nd + 1)[:nd]
        w = w + np.bincount(stack.gather[stack.messages_v], nu[stack.messages_v], minlength=nd + 1)[:nd]
        np.add(w, np.repeat(nu[: len(self.node_starts)], self.label_counts), out=out[:nd])
        for run in stack.runs:
            wu, wv, k = run.real.shape
            cells = out[run.at].reshape(wu, wv, k)
            np.add(nu[run.rows_u].reshape(wu, k)[:, None], nu[run.rows_v].reshape(wv, k)[None], out=cells)
            np.subtract(nu[run.bounds], cells, out=cells)
        return out

    # -- padded edge stack -------------------------------------------------

    @functools.cached_property
    def edge_stack(self) -> _EdgeStack:
        """The stack, laid out on first use."""
        n, m, nd = len(self.node_starts), len(self.edge_starts), self.node_dim
        order = np.lexsort((-self.edge_shapes[:, 1], -self.edge_shapes[:, 0]))
        lu, lv = self.edge_shapes[order].T
        spans = padded_runs(np.zeros(m), lu, lv)
        # flat dual positions of each edge's first u-side and v-side row
        first_u = n + m + _starts(self.edge_shapes[:, 0])
        first_v = n + m + int(self.edge_shapes[:, 0].sum()) + _starts(self.edge_shapes[:, 1])
        start_v = n + m + sum((hi - lo) * wu for lo, hi, wu, _ in spans)
        size = start_v + sum((hi - lo) * wv for lo, hi, _, wv in spans)
        theta = np.full(nd + sum((hi - lo) * wu * wv for lo, hi, wu, wv in spans), np.inf)
        theta[:nd] = self.unary
        index, gather = np.empty(size, dtype=np.int64), np.full(size, nd)
        index[: n + m] = np.append(np.arange(n), n + order)
        at, row_u, row_v = nd, n + m, start_v
        runs = []
        for lo, hi, wu, wv in spans:
            es, k = order[lo:hi], hi - lo
            x_u, x_v = np.arange(wu)[:, None, None], np.arange(wv)[:, None]
            real = (x_u < lu[lo:hi]) & (x_v < lv[lo:hi])
            # cell (x_u, x_v) of edge e is at edge_starts[e] + x_u L_v + x_v
            cells = (self.edge_starts[es] + x_u * lv[lo:hi] + x_v)[real]
            u, v = self.edge_ends[es].T
            run = _StackRun(es, cells, real, u, v, slice(at, at + real.size),
                            slice(n + lo, n + hi), slice(row_u, row_u + wu * k), slice(row_v, row_v + wv * k))
            theta[run.at].reshape(real.shape)[real] = self.theta[nd:][cells]
            index[run.rows_u] = padded_gather(first_u[es], lu[lo:hi], wu, self.dual_dim).T.ravel()
            index[run.rows_v] = padded_gather(first_v[es], lv[lo:hi], wv, self.dual_dim).T.ravel()
            gather[run.rows_u] = self.node_pad[u, :wu].T.ravel()
            gather[run.rows_v] = self.node_pad[v, :wv].T.ravel()
            runs.append(run)
            at, row_u, row_v = run.at.stop, run.rows_u.stop, run.rows_v.stop
        return _EdgeStack(tuple(runs), theta, index, gather, slice(n + m, start_v), slice(start_v, size))


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
