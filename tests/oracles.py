"""Independent oracles used by the test suite.

Everything here is implemented from the problem definitions directly
(enumeration, dense linear programming, alternating projection), sharing no
code with the package's own algorithms, so oracle/implementation agreement
is meaningful evidence.
"""

from __future__ import annotations

import itertools

import numpy as np
from scipy.optimize import linprog


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


# -- brute-force Gibbs statistics -----------------------------------------


def gibbs_bruteforce(model, edges_subset, unary, rho):
    """Soft minimum, node marginals and edge marginals of the restricted
    energy by full enumeration."""
    configs = list(itertools.product(*[range(c) for c in model.label_counts]))
    energies = np.empty(len(configs))
    edge_ids = [model.edge_id(u, v) for (u, v) in edges_subset]
    for i, x in enumerate(configs):
        e = sum(float(unary[v][x[v]]) for v in range(model.n_nodes))
        for eid in edge_ids:
            u, v = model.edges[eid]
            e += float(model.pairwise[eid][x[u], x[v]])
        energies[i] = e
    w = np.exp(-(energies - energies.min()) / rho)
    z = w.sum()
    value = float(energies.min() - rho * np.log(z))
    probs = w / z
    node_marg = [np.zeros(c) for c in model.label_counts]
    edge_marg = {eid: np.zeros(model.pairwise[eid].shape) for eid in edge_ids}
    for x, p in zip(configs, probs):
        for v in range(model.n_nodes):
            node_marg[v][x[v]] += p
        for eid in edge_ids:
            u, v = model.edges[eid]
            edge_marg[eid][x[u], x[v]] += p
    return value, node_marg, edge_marg


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
