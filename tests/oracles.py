"""Independent oracles used by the test suite.

Everything here is implemented from the problem definitions directly
(enumeration, dense linear programming, alternating projection, shift and
clip), sharing no code with the package's own algorithms, so
oracle/implementation agreement is meaningful evidence.  There are two
exceptions.  The reference transportation simplex refactors its basis in
every round where the package keeps and updates the inverse; the two must
take the same pivots.  :func:`reference_newton` is the package's earlier
Newton kernel, the baseline that its rewrites must match bit for bit, and
:func:`reference_fpd` its earlier ``fpd`` loop on the flat layout, which
steps with :class:`FlatProducts`, the package's earlier constraint products
on that layout, and certifies with the package's own projections.
:func:`read_uai_reference` parses token by token but builds its model with
the package's ``MrfModel.create``, and :func:`search_grid_shape` compares
against the package's ``grid_edges``.
"""

from __future__ import annotations

import dataclasses
import itertools
import math

import numpy as np
from scipy.optimize import linprog

from mrflp.tolerances import NONNEG_TOL, PIVOT_TOL, TRANSPORT_MARGINAL_TOL


# -- exhaustive labelings -------------------------------------------------


def exhaustive_energy(model, x) -> float:
    total = 0.0
    for v in range(model.n_nodes):
        total += float(model.unary[v][x[v]])
    for e, (u, v) in enumerate(model.edges):
        total += float(model.pairwise[e][x[u], x[v]])
    return total


def n_configurations(model) -> int:
    total = 1
    for c in model.label_counts:
        total *= c
    return total


def exhaustive_map(model):
    """Minimum energy and (first, lexicographically smallest) argmin."""
    best = np.inf
    best_x = None
    for x in itertools.product(*[range(c) for c in model.label_counts]):
        e = exhaustive_energy(model, x)
        if e < best:
            best = e
            best_x = x
    return best, np.array(best_x, dtype=np.int64)


# -- dense LP over the local polytope ------------------------------------


def flat_layout(model):
    node_sizes = [int(c) for c in model.label_counts]
    node_off = np.concatenate(([0], np.cumsum(node_sizes)))
    edge_sizes = [model.pairwise[e].size for e in range(model.n_edges)]
    edge_off = node_off[-1] + np.concatenate(([0], np.cumsum(edge_sizes))).astype(int)
    return node_off, edge_off, int(edge_off[-1]) if model.n_edges else int(node_off[-1])


def theta_vector(model) -> np.ndarray:
    parts = [np.asarray(u) for u in model.unary] + [p.ravel() for p in model.pairwise]
    return np.concatenate(parts)


def constraint_system(model):
    """Dense equality system of the local polytope: node normalization plus
    both marginalization families (edge normalization is implied)."""
    node_off, edge_off, nvar = flat_layout(model)
    rows, rhs = [], []
    for v in range(model.n_nodes):
        row = np.zeros(nvar)
        row[node_off[v] : node_off[v + 1]] = 1.0
        rows.append(row)
        rhs.append(1.0)
    for e, (u, v) in enumerate(model.edges):
        lu, lv = model.pairwise[e].shape
        for a in range(lu):
            row = np.zeros(nvar)
            row[node_off[u] + a] = 1.0
            row[edge_off[e] + a * lv : edge_off[e] + (a + 1) * lv] -= 1.0
            rows.append(row)
            rhs.append(0.0)
        for b in range(lv):
            row = np.zeros(nvar)
            row[node_off[v] + b] = 1.0
            row[edge_off[e] + b : edge_off[e + 1] : lv] -= 1.0
            rows.append(row)
            rhs.append(0.0)
    return np.array(rows), np.array(rhs)


def lp_optimum(model):
    """Exact optimum of the relaxation via an independent dense LP solver."""
    a_eq, b_eq = constraint_system(model)
    res = linprog(theta_vector(model), A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return float(res.fun), res.x


def pack_marginals_flat(model, marginals) -> np.ndarray:
    parts = [np.asarray(b, dtype=np.float64) for b in marginals.node_blocks]
    if marginals.edge_blocks is not None:
        parts += [b.ravel() for b in marginals.edge_blocks]
    return np.concatenate(parts)


def residual_by_enumeration(model, marginals) -> float:
    """Constraint residual recomputed from the dense system."""
    a_eq, b_eq = constraint_system(model)
    flat = pack_marginals_flat(model, marginals)
    res = float(np.max(np.abs(a_eq @ flat - b_eq))) if a_eq.size else 0.0
    return max(res, max(0.0, -float(flat.min())))


def dykstra_project(model, z_flat, max_iters=200_000, tol=1e-11):
    """Euclidean projection onto the local polytope by alternating
    projections with correction terms (affine set, then the orthant)."""
    a_eq, b_eq = constraint_system(model)
    gram_inv = np.linalg.pinv(a_eq @ a_eq.T)

    def proj_affine(x):
        return x - a_eq.T @ (gram_inv @ (a_eq @ x - b_eq))

    x = np.asarray(z_flat, dtype=np.float64).copy()
    p = np.zeros_like(x)
    q = np.zeros_like(x)
    for _ in range(max_iters):
        y = proj_affine(x + p)
        p = x + p - y
        x_new = np.maximum(y + q, 0.0)
        q = y + q - x_new
        if np.max(np.abs(x_new - x)) < tol and np.max(np.abs(a_eq @ x_new - b_eq)) < 1e-9:
            return x_new
        x = x_new
    raise AssertionError("alternating projection oracle did not converge")


def iterative_simplex_blocks(flat, starts, counts) -> np.ndarray:
    """Euclidean projection of every block of ``flat`` onto its simplex by
    uniform shift and clip: repeatedly center the active entries so they
    sum to one, drop the ones that went negative, and stop once none do."""
    x = np.asarray(flat, dtype=np.float64)
    active = np.ones(x.size, dtype=bool)
    block_of = np.repeat(np.arange(len(starts)), counts)
    for _ in range(int(counts.max()) + 1):
        sums = np.add.reduceat(np.where(active, x, 0.0), starts)
        k = np.add.reduceat(active.astype(np.float64), starts)
        shift = (sums - 1.0) / np.maximum(k, 1.0)
        fresh = active & (x - shift[block_of] < 0.0)
        if not fresh.any():
            break
        active &= ~fresh
    return np.where(active, np.maximum(x - shift[block_of], 0.0), 0.0)


# -- Lipschitz constants of the projection continuity bound ---------------


@dataclasses.dataclass(frozen=True)
class LipschitzEstimate:
    """Lipschitz constants of the relaxed energy w.r.t. node blocks, edge
    blocks, and the joint vector."""

    node: float
    edge: float
    joint: float


def lipschitz_linear(model) -> LipschitzEstimate:
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


# -- step condition of the preconditioned primal-dual iteration -----------


class FlatProducts:
    """``A`` and ``A^T`` on the flat layout, from per-cell index maps: each
    edge cell ``(e, x_u, x_v)`` to its u-side row ``(e, x_u)`` and its v-side
    row ``(e, x_v)``, each message row to its node entry.  Rows are in
    ``Packing.split_dual`` order; row sums are bincounts over the cells, in
    the cells' row-major order, and the adjoint adds each block's bound
    last.  Built from the packing's label counts and edge ends alone."""

    def __init__(self, packing):
        counts = [int(c) for c in packing.label_counts]
        node_off = np.concatenate(([0], np.cumsum(counts))).astype(np.int64)
        shapes = [(counts[u], counts[v]) for u, v in packing.edge_ends.tolist()]
        row_u = np.concatenate(([0], np.cumsum([lu for lu, _ in shapes]))).astype(np.int64)
        row_v = np.concatenate(([0], np.cumsum([lv for _, lv in shapes]))).astype(np.int64)
        self.counts, self.node_dim = np.array(counts), int(node_off[-1])
        self.node_starts = node_off[:-1]
        self.block_sizes = np.array([lu * lv for lu, lv in shapes], dtype=np.int64)
        self.edge_starts = np.cumsum(self.block_sizes) - self.block_sizes
        self.u_gather = np.array([node_off[u] + x for (u, _), (lu, _) in zip(packing.edge_ends.tolist(), shapes)
                                  for x in range(lu)], dtype=np.int64)
        self.v_gather = np.array([node_off[v] + x for (_, v), (_, lv) in zip(packing.edge_ends.tolist(), shapes)
                                  for x in range(lv)], dtype=np.int64)
        self.cell_u = np.array([row_u[e] + xu for e, (lu, lv) in enumerate(shapes)
                                for xu in range(lu) for _ in range(lv)], dtype=np.int64)
        self.cell_v = np.array([row_v[e] + xv for e, (lu, lv) in enumerate(shapes)
                                for _ in range(lu) for xv in range(lv)], dtype=np.int64)

    def apply_a(self, mu):
        nodes, edges = mu[: self.node_dim], mu[self.node_dim :]
        node_sums = np.add.reduceat(nodes, self.node_starts)
        edge_sums = np.add.reduceat(edges, self.edge_starts) if edges.size else np.zeros(0)
        row_sums = np.bincount(self.cell_u, weights=edges, minlength=len(self.u_gather))
        col_sums = np.bincount(self.cell_v, weights=edges, minlength=len(self.v_gather))
        return np.concatenate([node_sums, edge_sums, nodes[self.u_gather] - row_sums,
                               nodes[self.v_gather] - col_sums])

    def apply_at(self, nu):
        n, m = len(self.counts), len(self.block_sizes)
        nb, eb = nu[:n], nu[n : n + m]
        msg_u, msg_v = nu[n + m : n + m + len(self.u_gather)], nu[n + m + len(self.u_gather) :]
        w_nodes = np.bincount(self.u_gather, weights=msg_u, minlength=self.node_dim)
        w_nodes = w_nodes + np.bincount(self.v_gather, weights=msg_v, minlength=self.node_dim)
        out_edges = np.repeat(eb, self.block_sizes) - (msg_u[self.cell_u] + msg_v[self.cell_v])
        return np.concatenate([w_nodes + np.repeat(nb, self.counts), out_edges])


def preconditioned_norm(packing, tau, sigma, iters: int = 300) -> float:
    """``|Sigma^1/2 A T^1/2|`` for flat step vectors ``tau`` and ``sigma``, by
    power iteration on ``K^T K`` with ``K = Sigma^1/2 A T^1/2`` from a fixed
    start, with ``A`` from :class:`FlatProducts`.  The Rayleigh quotient of a
    unit vector never exceeds the true value."""
    flat = FlatProducts(packing)
    t_half = np.sqrt(tau)
    x = np.random.default_rng(0).standard_normal(len(tau))
    norm_sq = 0.0
    for _ in range(iters):
        x /= np.linalg.norm(x)
        y = t_half * flat.apply_at(sigma * flat.apply_a(t_half * x))
        norm_sq = float(x @ y)
        x = y
    return math.sqrt(norm_sq)


def reference_fpd(model, cfg):
    """The package's earlier ``fpd`` loop, stepping on the flat layout with
    :class:`FlatProducts`; the stacked iterate must match it.  Its epochs
    certify the better of the dual iterate and the dual iterates' average
    weighted by iteration, as ``solve_fpd`` does."""
    from mrflp.solvers import _fpd_steps, _Tracker, dual_value, project_dual

    packing = model.packing()
    flat = FlatProducts(packing)
    theta = packing.theta
    # right-hand side of A: node and edge normalization
    b = np.zeros(packing.dual_dim)
    b[: model.n_nodes + model.n_edges] = 1.0
    tau, sigma = (0.99 * step for step in _fpd_steps(packing))

    # uniform node and edge blocks
    sizes = np.concatenate([packing.label_counts, packing.block_sizes])
    mu = np.repeat(1.0 / sizes, sizes)
    nu = np.zeros(packing.dual_dim)
    # sum of (t + 1) nu_{t+1} over the steps t so far
    nu_sum = np.zeros(packing.dual_dim)
    tracker = _Tracker(model)

    for t in range(cfg.max_iters + 1):
        if t % cfg.epoch == 0 or t == cfg.max_iters:
            candidates = [nu] if t == 0 else [nu, nu_sum / (t * (t + 1) / 2)]
            points = [tracker.project(project_dual, model, c) for c in candidates]
            if all(p is not None for p in points):
                values = [dual_value(model, p) for p in points]
                k = int(np.argmax(values))
                tracker.observe(t, tracker.project_exact(mu[: packing.node_dim]), values[k], dual_point=points[k])
            termination = tracker.stop(cfg, t)
            if termination is not None:
                break
        mu_new = np.maximum(mu - tau * (theta - flat.apply_at(nu)), 0.0)
        mu_bar = 2.0 * mu_new - mu
        mu = mu_new
        nu = nu + sigma * (b - flat.apply_a(mu_bar))
        nu_sum = nu_sum + (t + 1) * nu
    return tracker.report("fpd", termination)


# -- brute-force transportation oracle ------------------------------------

_TREE_CACHE: dict = {}


def _spanning_tree_tables(n: int, m: int):
    """Enumerate all spanning trees of the complete bipartite transport graph
    and precompute a vectorized leaf-elimination schedule per tree."""
    key = (n, m)
    if key in _TREE_CACHE:
        return _TREE_CACHE[key]
    total = n + m
    k = total - 1
    ncells = n * m
    rows = np.repeat(np.arange(n), m)
    cols = np.tile(np.arange(m), n) + n
    trees: list[list[int]] = []
    chosen: list[int] = []

    def find(par, x):
        while par[x] != x:
            par[x] = par[par[x]]
            x = par[x]
        return x

    def rec(start, par, depth):
        if depth == k:
            trees.append(chosen.copy())
            return
        need = k - depth
        for idx in range(start, ncells - need + 1):
            a = find(par, int(rows[idx]))
            b = find(par, int(cols[idx]))
            if a == b:
                continue
            par2 = par.copy()
            par2[a] = b
            chosen.append(idx)
            rec(idx + 1, par2, depth + 1)
            chosen.pop()

    rec(0, np.arange(total, dtype=np.int16), 0)
    arcs = np.array(trees, dtype=np.int64)  # (T, k) cell indices
    t_count = arcs.shape[0]

    # leaf-elimination schedule: at each step remove the smallest-id leaf
    node_seq = np.empty((t_count, k), dtype=np.int64)
    arc_seq = np.empty((t_count, k), dtype=np.int64)
    other_seq = np.empty((t_count, k), dtype=np.int64)
    for t in range(t_count):
        ends = [(int(rows[c]), int(cols[c])) for c in arcs[t]]
        alive = [True] * k
        deg: dict[int, int] = {}
        for a, b in ends:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        for step in range(k):
            leaf = min(node for node, d in deg.items() if d == 1)
            for pos in range(k):
                if alive[pos] and leaf in ends[pos]:
                    a, b = ends[pos]
                    other = b if a == leaf else a
                    node_seq[t, step] = leaf
                    arc_seq[t, step] = pos
                    other_seq[t, step] = other
                    alive[pos] = False
                    deg[leaf] -= 1
                    deg[other] -= 1
                    if deg[leaf] == 0:
                        del deg[leaf]
                    if deg[other] == 0 and other in deg:
                        del deg[other]
                    break
    tables = {"arcs": arcs, "node_seq": node_seq, "arc_seq": arc_seq, "other_seq": other_seq}
    _TREE_CACHE[key] = tables
    return tables


def transport_bruteforce(cost, r, s):
    """Minimum cost over all basic feasible solutions (spanning-tree bases)
    of the transportation polytope.  Returns (cost, plan)."""
    cost = np.asarray(cost, dtype=np.float64)
    r = np.asarray(r, dtype=np.float64)
    s = np.asarray(s, dtype=np.float64)
    n, m = cost.shape
    tables = _spanning_tree_tables(n, m)
    arcs = tables["arcs"]
    t_count, k = arcs.shape
    supplies = np.tile(np.concatenate([r, s]), (t_count, 1))
    flows = np.zeros((t_count, k))
    t_idx = np.arange(t_count)
    for step in range(k):
        nodes = tables["node_seq"][:, step]
        pos = tables["arc_seq"][:, step]
        others = tables["other_seq"][:, step]
        f = supplies[t_idx, nodes]
        flows[t_idx, pos] = f
        supplies[t_idx, others] -= f
        supplies[t_idx, nodes] = 0.0
    feasible = np.all(flows >= -1e-9, axis=1)
    assert feasible.any(), "no feasible basis (inconsistent marginals?)"
    costs = (cost.ravel()[arcs] * flows).sum(axis=1)
    costs[~feasible] = np.inf
    best = int(np.argmin(costs))
    plan = np.zeros(n * m)
    np.add.at(plan, arcs[best], np.maximum(flows[best], 0.0))
    return float(costs[best]), plan.reshape(n, m)


# -- reference transportation simplex -------------------------------------
#
# The lockstep simplex with the basis equations rebuilt and inverted densely
# in every round: the package's star start and dual phase, then a primal
# loop with Bland's rules, without its maintained inverse, with the start
# and its root written as plain loops per problem.

_CHUNK = 256


def _dense_inverse(n: int, m: int, basic: np.ndarray, gauge: np.ndarray):
    """The basic arcs of a stack of flat bases in row-major order, and the
    inverse of their equations ``u_i + v_j = c_ij`` with the gauge (the
    potential of node ``gauge``, rows then columns, is 0) last, one row per
    node.  The inverse of a spanning-tree basis has entries in {-1, 0, 1},
    so rounding removes its round-off."""
    k, nb = basic.shape[0], n + m - 1
    arcs = np.nonzero(basic)[1].reshape(k, nb)
    eqs = np.zeros((k, n + m, n + m))
    eqs[np.arange(k)[:, None], np.arange(nb), arcs // m] = 1.0
    eqs[np.arange(k)[:, None], np.arange(nb), n + arcs % m] = 1.0
    eqs[np.arange(k), nb, gauge] = 1.0
    return arcs, np.rint(np.linalg.inv(eqs)) + 0.0  # no -0.0 entries


def _chunked(fn, live, *args):
    """``fn`` on the live problems, in chunks, which bounds the memory the
    dense inverses take at once; the results are concatenated."""
    parts = [fn(*(a[h] for a in args)) for h in np.split(live, np.arange(_CHUNK, live.size, _CHUNK))]
    return [np.concatenate(z) for z in zip(*parts)]


def _potentials(c: np.ndarray, arcs: np.ndarray, inv: np.ndarray):
    """Potentials ``(u, v)`` as one ``(k, n + m)`` array, and every arc's
    reduced cost."""
    k, n, m = c.shape
    cb = np.zeros((k, n + m))
    cb[:, : n + m - 1] = np.take_along_axis(c.reshape(k, -1), arcs, axis=1)
    y = np.einsum("qij,qj->qi", inv, cb)
    return y, (c - y[:, :n, None] - y[:, None, n:]).reshape(k, -1)


def _price(c: np.ndarray, basic: np.ndarray, gauge: np.ndarray, tol: np.ndarray):
    """Pricing step for a stack of ``(k, n, m)`` costs and flat bases: the
    basic arcs in row-major order, the potentials, whether an arc enters,
    Bland's entering arc (the first with a negative reduced cost) and its
    cycle ``d``; basic flows change by ``-theta * d`` when the entering arc
    carries ``theta``."""
    k, n, m = c.shape
    q = np.arange(k)
    arcs, inv = _dense_inverse(n, m, basic, gauge)
    y, reduced = _potentials(c, arcs, inv)
    enters = ~basic & (reduced < -tol[:, None])
    enter = enters.argmax(axis=1)
    return arcs, y, enters.any(axis=1), enter, inv[q, enter // m, : n + m - 1] + inv[q, n + enter % m, : n + m - 1]


def _dual_price(c: np.ndarray, basic: np.ndarray, gauge: np.ndarray, flow: np.ndarray):
    """Dual pricing step for a stack of dual feasible flat bases with a
    negative flow: the basic arcs in row-major order, the leaving slot (the
    negative flow of least arc index), whether an arc raises that flow,
    the entering arc (of least reduced cost among the arcs whose cycle has
    coefficient -1 at that slot, ties to the smallest index) and its cycle."""
    k, n, m = c.shape
    q = np.arange(k)
    arcs, inv = _dense_inverse(n, m, basic, gauge)
    _, reduced = _potentials(c, arcs, inv)
    leave = (np.take_along_axis(flow, arcs, axis=1) < -NONNEG_TOL).argmax(axis=1)
    at = inv[q, :, leave]
    raises = (at[:, :n, None] + at[:, None, n:]).reshape(k, -1) == -1.0
    enter = np.where(raises, reduced, np.inf).argmin(axis=1)
    return (arcs, leave, raises.any(axis=1), enter,
            inv[q, enter // m, : n + m - 1] + inv[q, n + enter % m, : n + m - 1])


def star_root(r: np.ndarray, s: np.ndarray) -> int:
    """The root of one problem's star start, as a node index (rows, then
    columns): its first heaviest row, unless a column is strictly heavier,
    then its first heaviest column."""
    row = col = 0
    for i in range(1, len(r)):
        if r[i] > r[row]:
            row = i
    for j in range(1, len(s)):
        if s[j] > s[col]:
            col = j
    return len(r) + col if s[col] > r[row] else row


def star_basis(c: np.ndarray, root: int) -> np.ndarray:
    """Star basis of one ``(n, m)`` problem, as the mask of its basic arcs.
    A row root ``p`` takes every arc of its row, and each other row the arc
    to the column where its cost exceeds row ``p``'s the least (the first
    column on ties); its potentials ``u_p = 0``, ``v_j = c_pj``, ``u_i =
    c_ij - c_pj`` there make every reduced cost nonnegative.  A column root
    is the same, mirrored."""
    n, m = c.shape
    if root >= n:
        return star_basis(c.T, root - n).T
    basic = np.zeros((n, m), dtype=bool)
    for j in range(m):
        basic[root, j] = True
    for i in range(n):
        if i != root:
            best = 0
            for j in range(1, m):
                if c[i, j] - c[root, j] < c[i, best] - c[root, best]:
                    best = j
            basic[i, best] = True
    return basic


def _basic_flows(basic: np.ndarray, gauge: np.ndarray, r: np.ndarray, s: np.ndarray):
    """Flows of a stack of flat bases: ``x_t = sum_v inv[v, t] * supply_v``,
    accumulated node by node, rows first."""
    (k, n), m = r.shape, s.shape[1]
    arcs, inv = _dense_inverse(n, m, basic, gauge)
    supply = np.concatenate([r, s], axis=1)
    x = np.zeros((k, n + m - 1))
    for v in range(n + m):
        x += inv[:, v, : n + m - 1] * supply[:, v, None]
    flow = np.zeros((k, n * m))
    flow[np.arange(k)[:, None], arcs] = x
    return (flow,)


def reference_simplex(c: np.ndarray, r: np.ndarray, s: np.ndarray, max_pivots: int, start=None, gauge=0):
    """Transportation simplex on a ``(k, n, m)`` stack, all problems in
    lockstep, from the dual feasible bases ``start``, masks ``(k, n, m)`` of
    their basic arcs (by default the stars rooted at row 0), with the
    potential of each problem's node ``gauge`` (rows, then columns) fixed at
    0: dual pivots until no flow is below ``-NONNEG_TOL``, then primal
    pivots until no reduced cost is below the pivot tolerance.  The
    package's solver has no primal loop: it stops after the dual pivots and
    certifies the potentials.  This one is the reference for that, since
    equal pivot counts mean that its primal loop never pivots.  Returns
    flows, bases, potentials ``(u, v)`` as one ``(k, n + m)`` array, pivot
    counts and the mask of capped problems."""
    k, n, m = c.shape
    if start is None:
        start = [star_basis(c[q], 0) for q in range(k)]
    basic = np.array(start, dtype=bool).reshape(k, n * m)
    gauge = np.array(np.broadcast_to(gauge, (k,)))
    (flow,) = _chunked(_basic_flows, np.arange(k), basic, gauge, r, s)
    pivots, capped = np.zeros(k, dtype=np.int64), np.zeros(k, dtype=bool)

    while True:
        live = np.flatnonzero((flow < -NONNEG_TOL).any(axis=1) & ~capped)
        capped[live[pivots[live] >= max_pivots]] = True
        live = live[pivots[live] < max_pivots]
        if not live.size:
            break
        arcs, leave, go, enter, d = _chunked(_dual_price, live, c, basic, gauge, flow)
        # with no raising arc the negative flow is round-off: it is clipped and the basis stays
        flow[live[~go], arcs[~go, leave[~go]]] = 0.0
        live, arcs, leave, enter, d = live[go], arcs[go], leave[go], enter[go], d[go]
        q = np.arange(live.size)
        x = flow[live[:, None], arcs]
        theta = -x[q, leave]
        flow[live[:, None], arcs] = x - theta[:, None] * d
        flow[live, arcs[q, leave]], basic[live, arcs[q, leave]] = 0.0, False
        flow[live, enter], basic[live, enter] = theta, True
        pivots[live] += 1
    np.clip(flow, 0.0, None, out=flow)

    tol = PIVOT_TOL * np.maximum(1.0, np.abs(c).max(axis=(1, 2)))
    potentials = np.zeros((k, n + m))
    live = np.arange(k)
    while live.size:
        arcs, y, go, enter, d = _chunked(_price, live, c, basic, gauge, tol)
        potentials[live[~go]] = y[~go]
        capped[live[go & (pivots[live] >= max_pivots)]] = True
        go &= pivots[live] < max_pivots
        live, arcs, enter, d = live[go], arcs[go], enter[go], d[go]
        q = np.arange(live.size)
        x = flow[live[:, None], arcs]
        # Bland: the leaving arc is the decreasing arc of least flow, ties to the smallest
        leave = np.where(d > 0.0, x, np.inf).argmin(axis=1)
        theta = x[q, leave]
        flow[live[:, None], arcs] = x - theta[:, None] * d
        flow[live, enter], basic[live, enter] = theta, True
        flow[live, arcs[q, leave]], basic[live, arcs[q, leave]] = 0.0, False
        pivots[live] += 1
    return flow.reshape(k, n, m), basic.reshape(k, n, m), potentials, pivots, capped


def sinkhorn_entropic(cost, r, s, eps, tol=1e-13, max_iters=100_000):
    """Plain log-domain Sinkhorn for ``min <cost, P> + eps * KL(P || r x s)``
    over plans with marginals ``r`` and ``s`` (all entries positive).

    Alternates exact row and column rescalings until the row sums are within
    ``tol``.  Returns (plan, objective).
    """
    from scipy.special import logsumexp

    cost = np.asarray(cost, dtype=np.float64)
    log_r = np.log(np.asarray(r, dtype=np.float64))
    log_s = np.log(np.asarray(s, dtype=np.float64))
    log_ref = log_r[:, None] + log_s[None, :]
    log_kernel = log_ref - cost / eps
    f = np.zeros(cost.shape[0])
    g = np.zeros(cost.shape[1])
    for _ in range(max_iters):
        f = log_r - logsumexp(log_kernel + g[None, :], axis=1)
        g = log_s - logsumexp(log_kernel + f[:, None], axis=0)
        plan = np.exp(log_kernel + f[:, None] + g[None, :])
        if np.max(np.abs(plan.sum(axis=1) - np.exp(log_r))) < tol:
            break
    else:
        raise AssertionError("Sinkhorn oracle did not converge")
    objective = float(np.sum(cost * plan) + eps * np.sum(plan * (np.log(plan) - log_ref)))
    return plan, objective


# -- reference Newton kernel -----------------------------------------------
#
# The package's damped Newton kernel as it was before it moved to the
# stack-last layout, kept verbatim with its helpers: stack-first ``(k, n,
# m)`` arrays, reductions over the trailing axes, every Armijo pass
# evaluating ``exp(logk + f + g + x)`` at every entry.  The package's kernel
# must give bit-equal plans, step counts and residuals.


def _ref_residual(plan: np.ndarray, r: np.ndarray, s: np.ndarray) -> np.ndarray:
    return np.maximum(np.abs(plan.sum(axis=2) - r).max(axis=1), np.abs(plan.sum(axis=1) - s).max(axis=1))


def _ref_logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    mx = np.max(a, axis=axis, keepdims=True)
    mx[~np.isfinite(mx)] = 0.0
    return np.squeeze(mx, axis=axis) + np.log(np.sum(np.exp(a - mx), axis=axis))


def _ref_stop_level(plan: np.ndarray, abs_logk: np.ndarray, f: np.ndarray, g: np.ndarray) -> np.ndarray:
    w = plan * (abs_logk + np.abs(f)[:, :, None] + np.abs(g)[:, None, :])
    return np.maximum(TRANSPORT_MARGINAL_TOL, np.finfo(np.float64).eps
                      * np.maximum(w.sum(axis=2).max(axis=1), w.sum(axis=1).max(axis=1)))


def reference_newton(logk: np.ndarray, r: np.ndarray, s: np.ndarray):
    """Stack-first Newton kernel: ``(plan, iterations, residual)`` for
    ``logk`` of shape ``(k, n, m)``; call it under ``np.errstate(divide=
    "ignore", over="ignore")``, as the package does."""
    from mrflp.transport import _ARMIJO, _HALVING_CAP, _NEWTON_CAP, _RIDGE

    k, n, m = logk.shape
    f = np.where(r > 0.0, np.log(np.where(r > 0.0, r, 1.0)) - _ref_logsumexp(logk, axis=2), 0.0)
    g = np.where(s > 0.0, np.log(np.where(s > 0.0, s, 1.0)) - _ref_logsumexp(logk + f[:, :, None], axis=1), 0.0)
    plan = np.exp(logk + f[:, :, None] + g[:, None, :])
    residual = _ref_residual(plan, r, s)
    abs_logk = np.where(np.isfinite(logk), np.abs(logk), 0.0)
    live = residual > _ref_stop_level(plan, abs_logk, f, g)
    iterations = np.zeros(k, dtype=np.int64)
    for _ in range(_NEWTON_CAP):
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        p = plan[idx]
        mass = np.concatenate([p.sum(axis=2), p.sum(axis=1)], axis=1)
        grad = np.concatenate([r[idx], s[idx]], axis=1) - mass
        # Jacobi-scaled Hessian: unit diagonal, also on pinned rows, plus a ridge
        # that removes the gauge direction (f + c, g - c)
        scale = np.sqrt(np.where(mass > 0.0, mass, 1.0))
        hess = np.tile(np.eye(n + m) * (1.0 + _RIDGE), (idx.size, 1, 1))
        hess[:, :n, n:] = p / (scale[:, :n, None] * scale[:, None, n:])
        hess[:, n:, :n] = hess[:, :n, n:].transpose(0, 2, 1)
        delta = np.linalg.solve(hess, (grad / scale)[:, :, None])[:, :, 0] / scale
        slope = np.sum(grad * delta, axis=1)
        # Armijo backtracking: step t * delta raises the dual by t * slope - sum p (expm1(x) - x)
        t = np.ones(idx.size)
        ascent = np.isfinite(slope) & (slope > 0.0)
        searching = ascent.copy()
        for _ in range(_HALVING_CAP):
            j = np.flatnonzero(searching)
            if not j.size:
                break
            x = t[j, None, None] * (delta[j, :n, None] + delta[j, None, n:])
            rest = np.exp(logk[idx[j]] + f[idx[j], :, None] + g[idx[j], None, :] + x)
            pos = p[j] > 0.0  # where p = 0 the term is the new plan entry itself
            rest[pos] = p[j][pos] * (np.expm1(x[pos]) - x[pos])
            ok = np.sum(rest.reshape(j.size, -1), axis=1) <= (1.0 - _ARMIJO) * t[j] * slope[j]
            searching[j[ok]] = False
            t[j[~ok]] /= 2.0
        # a problem with no accepted step has stalled and stops
        accepted = ascent & ~searching
        step = idx[accepted]
        f[step] += t[accepted, None] * delta[accepted, :n]
        g[step] += t[accepted, None] * delta[accepted, n:]
        plan[step] = np.exp(logk[step] + f[step, :, None] + g[step, None, :])
        iterations[step] += 1
        live[idx] = False
        residual[step] = _ref_residual(plan[step], r[step], s[step])
        live[step] = residual[step] > _ref_stop_level(plan[step], abs_logk[step], f[step], g[step])
    return plan, iterations, residual


# -- brute-force Gibbs statistics -----------------------------------------


def gibbs_bruteforce(model, ids, unary, rho):
    """Soft minimum and node marginals of the energy restricted to the edges
    with the given ids, by full enumeration."""
    configs = list(itertools.product(*[range(c) for c in model.label_counts]))
    energies = np.empty(len(configs))
    for i, x in enumerate(configs):
        e = sum(float(unary[v][x[v]]) for v in range(model.n_nodes))
        for eid in ids:
            u, v = model.edges[eid]
            e += float(model.pairwise[eid][x[u], x[v]])
        energies[i] = e
    w = np.exp(-(energies - energies.min()) / rho)
    z = w.sum()
    value = float(energies.min() - rho * np.log(z))
    probs = w / z
    node_marg = [np.zeros(c) for c in model.label_counts]
    for x, p in zip(configs, probs):
        for v in range(model.n_nodes):
            node_marg[v][x[v]] += p
    return value, node_marg


def tree_gibbs_marginals(model, ids, unary, rho):
    """Soft minimum and node marginals of the energy restricted to a forest,
    given by its edge ids, by log-domain sum-product: messages go up from
    the deepest node, then each node's outside message comes down from its
    parent, one node at a time.  ``unary`` holds one table per node; each
    tree is rooted at its smallest node by :func:`rooted_rows`.  Every
    message is split into an offset, summed into the value, and a rest whose
    entries near the minimum are small, so large forbidden costs never round
    them."""
    rows, seen = [], set()
    for v in range(model.n_nodes):
        if v not in seen:
            tree = rooted_rows(model, ids, [v])
            seen.update(x for _, x, _, _ in tree)
            rows += tree

    def table(x, p, e):
        """The edge table indexed ``[child label, parent label]``."""
        return model.pairwise[e] if model.edges[e] == (x, p) else model.pairwise[e].T

    def softmin(a, axis):
        """``(offset, rest)``: the soft minimum along ``axis`` is their sum."""
        mn = a.min(axis=axis)
        rest = -rho * np.log(np.sum(np.exp(-(a - np.expand_dims(mn, axis)) / rho), axis=axis))
        return mn.min(), (mn - mn.min()) + rest

    children = {v: [] for v in range(model.n_nodes)}
    for depth, x, p, e in rows:
        if depth:
            children[p].append(x)
    local = [np.asarray(t, dtype=np.float64) - np.min(t) for t in unary]
    value, up = float(sum(np.min(t) for t in unary)), {}
    for depth, x, p, e in sorted(rows, reverse=True):
        inside = local[x] + sum(up[y] for y in children[x])
        if depth:
            offset, up[x] = softmin(inside[:, None] + table(x, p, e), axis=0)
            value += offset
        else:
            value += sum(softmin(inside, axis=0))
    # outside[x]: the messages into x from everything but its subtree
    outside, node_marg = {}, [None] * model.n_nodes
    for depth, x, p, e in sorted(rows):
        outside[x] = np.zeros(len(local[x]))
        if depth:
            # the parent's unary, its outside message and its other children's
            rest = local[p] + outside[p] + sum((up[y] for y in children[p] if y != x), np.zeros(len(local[p])))
            outside[x] = softmin(table(x, p, e) + rest[None, :], axis=1)[1]
        belief = local[x] + outside[x] + sum(up[y] for y in children[x])
        gibbs = np.exp(-(belief - belief.min()) / rho)
        node_marg[x] = gibbs / gibbs.sum()
    return value, node_marg


def rooted_rows(model, ids, roots):
    """``(depth, child, parent, edge)`` of every node of a forest, given by
    its edge ids, from one breadth-first search per given root (a root is
    its own parent at depth 0, with edge -1)."""
    edge_of = {uv: e for e, uv in enumerate(model.edges)}
    adj = {v: [] for v in range(model.n_nodes)}
    for u, v in (model.edges[e] for e in ids):
        adj[u].append(v)
        adj[v].append(u)
    rows = []
    for root in roots:
        frontier, seen = [(root, root, 0)], {root}
        for x, p, depth in frontier:
            rows.append((depth, x, p, edge_of[(min(x, p), max(x, p))] if depth else -1))
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    frontier.append((y, x, depth + 1))
    return rows


def edge_ids(model, pairs):
    """Ids of the model's edges named by their endpoints, in either
    orientation."""
    edge_of = {uv: e for e, uv in enumerate(model.edges)}
    return np.array([edge_of[min(u, v), max(u, v)] for u, v in pairs], dtype=np.int64)


def snake_coloring(model):
    """Edge colors of a grid model whose color-0 forest is one boustrophedon
    path through every node: all horizontal edges, and between rows ``r``
    and ``r + 1`` the vertical edge at the right end for even ``r``, at the
    left end for odd ``r``.  Color 1 holds the other vertical edges."""
    rows, cols = model.grid_shape
    turns = {(end, end + cols) for end in (r * cols + (cols - 1) * (1 - r % 2) for r in range(rows - 1))}
    return [0 if v == u + 1 or (u, v) in turns else 1 for u, v in model.edges]


def search_grid_shape(model):
    """The first ``(rows, cols)``, by rows, of all divisor pairs of the node
    count whose 4-connected grid has exactly the model's edges, or None."""
    from mrflp import grid_edges

    n = model.n_nodes
    shapes = ((rows, n // rows) for rows in range(1, n + 1) if n % rows == 0)
    return next((shape for shape in shapes if tuple(grid_edges(*shape)) == model.edges), None)


# -- test instances -------------------------------------------------------


def mixed_label_grid(seed: int):
    """2x3 grid with label counts 2 to 5, so every edge table is non-square
    and the u- and v-sides of the flat layout have different lengths."""
    from mrflp import MrfModel, grid_edges

    rng = np.random.default_rng(seed)
    counts = [2, 5, 3, 4, 3, 2]
    edges = grid_edges(2, 3)
    return MrfModel.create(
        counts,
        edges,
        [rng.uniform(-1, 1, c) for c in counts],
        [rng.uniform(-1, 1, (counts[u], counts[v])) for u, v in edges],
        grid_shape=(2, 3),
    )


def random_table(rng, shape, big=1.0):
    """Uniform entries in [-1, 1); with ``big`` above 1, integers 0-24 and
    40% of the entries forbidden at cost ``big``."""
    t = rng.integers(0, 25, shape).astype(np.float64)
    return np.where(rng.random(shape) < 0.4, big, t) if big > 1.0 else rng.uniform(-1, 1, shape)


def two_forest_model(counts, seed, big=1.0):
    """Two edge-disjoint random recursive trees over the same nodes, tables
    from :func:`random_table`; returns the model and its two forests, each
    an array of edge ids."""
    from mrflp import MrfModel

    rng = np.random.default_rng(seed)
    n = len(counts)
    forests, used = ([], []), set()
    for forest in forests:
        order = rng.permutation(n)
        for i in range(1, n):
            v = int(order[i])
            # a node whose candidates all collide stays a root
            for _ in range(8):
                u = int(order[rng.integers(0, i)])
                edge = (min(u, v), max(u, v))
                if edge not in used:
                    used.add(edge)
                    forest.append(edge)
                    break
    edges = forests[0] + forests[1]
    m = MrfModel.create(
        counts, edges, [random_table(rng, int(c), big) for c in counts],
        [random_table(rng, (int(counts[u]), int(counts[v])), big) for u, v in edges],
    )
    return m, tuple(edge_ids(m, f) for f in forests)


# -- reference UAI reader ---------------------------------------------------


def read_uai_reference(path):
    """Token-by-token UAI reader: every token is taken and converted on its
    own, in file order, and repeated scopes add up table by table."""
    from pathlib import Path

    from mrflp import MrfModel
    from mrflp.errors import StructureError

    grid_shape = None
    tokens: list[str] = []
    for line in Path(path).read_text().splitlines():
        stripped = line.strip()
        if stripped.startswith("#"):
            parts = stripped[1:].split()
            if len(parts) == 3 and parts[0] == "grid":
                grid_shape = (int(parts[1]), int(parts[2]))
            continue
        tokens.extend(stripped.split())
    pos = 0

    def take() -> str:
        nonlocal pos
        if pos >= len(tokens):
            raise StructureError("unexpected end of model file")
        pos += 1
        return tokens[pos - 1]

    preamble = take()
    if preamble.upper() != "MARKOV":
        raise StructureError(f"unsupported network type {preamble!r}; expected MARKOV")
    n = int(take())
    if n < 1:
        raise StructureError("model needs at least one variable")
    counts = [int(take()) for _ in range(n)]
    if any(c < 1 for c in counts):
        raise StructureError("variable cardinalities must be positive")
    n_factors = int(take())
    scopes: list[tuple[int, ...]] = []
    for _ in range(n_factors):
        arity = int(take())
        if arity not in (1, 2):
            raise StructureError(f"factor of arity {arity} found; only pairwise models are supported")
        scope = tuple(int(take()) for _ in range(arity))
        for v in scope:
            if not 0 <= v < n:
                raise StructureError(f"factor scope references unknown variable {v}")
        if arity == 2 and scope[0] == scope[1]:
            raise StructureError(f"factor scope repeats variable {scope[0]}")
        scopes.append(scope)

    unary = [np.zeros(c) for c in counts]
    pairwise: dict[tuple[int, int], np.ndarray] = {}
    for scope in scopes:
        want = 1
        for v in scope:
            want *= counts[v]
        declared = int(take())
        if declared != want:
            raise StructureError(f"factor on {scope} declares {declared} entries, expected {want}")
        values = np.array([float(take()) for _ in range(want)])
        if len(scope) == 1:
            unary[scope[0]] += values
        else:
            a, b = scope
            table = values.reshape(counts[a], counts[b])
            if a > b:
                a, b, table = b, a, table.T
            if (a, b) in pairwise:
                pairwise[(a, b)] = pairwise[(a, b)] + table
            else:
                pairwise[(a, b)] = table
    if pos != len(tokens):
        raise StructureError("trailing tokens after the last factor table")
    edges = sorted(pairwise)
    return MrfModel.create(
        label_counts=counts,
        edges=edges,
        unary=unary,
        pairwise=[pairwise[e] for e in edges],
        grid_shape=grid_shape,
    )
