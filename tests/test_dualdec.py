import weakref

import numpy as np
import pytest

import mrflp as M
import mrflp.dualdec
from mrflp._packing import PAD_WASTE
from mrflp.dualdec import _accumulate_labelings
from mrflp.errors import InfeasibleMarginalsError, StructureError

import oracles


def chain_model(n, labels, seed):
    rng = np.random.default_rng(seed)
    return M.MrfModel.create(
        [labels] * n,
        [(i, i + 1) for i in range(n - 1)],
        [rng.uniform(-1, 1, labels) for _ in range(n)],
        [rng.uniform(-1, 1, (labels, labels)) for _ in range(n - 1)],
    )


def random_tree_model(n, labels, seed):
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    return M.MrfModel.create(
        [labels] * n,
        edges,
        [rng.uniform(-1, 1, labels) for _ in range(n)],
        [rng.uniform(-1, 1, (labels, labels)) for _ in range(n - 1)],
    )


def random_feasible_marginals(model, rng, k=4):
    """Convex combination of labeling embeddings: feasible by construction."""
    weights = rng.random(k)
    weights /= weights.sum()
    node_blocks = [np.zeros(c) for c in model.label_counts]
    edge_blocks = [np.zeros(p.shape) for p in model.pairwise]
    for w in weights:
        x = [int(rng.integers(0, c)) for c in model.label_counts]
        for v in range(model.n_nodes):
            node_blocks[v][x[v]] += w
        for e, (u, v) in enumerate(model.edges):
            edge_blocks[e][x[u], x[v]] += w
    return M.Marginals.from_blocks(node_blocks=tuple(node_blocks), edge_blocks=tuple(edge_blocks))


def tree_entropy_sum(model, decomposition, mu):
    """Sum over the two spanning forests of their tree entropies: node
    entropies minus the mutual information of every tree edge."""
    total = 0.0
    for c in (0, 1):
        for v in range(model.n_nodes):
            p = mu.node_blocks[v][mu.node_blocks[v] > 0]
            total -= float(np.sum(p * np.log(p)))
        for e in decomposition.forest(model, c):
            u, v = model.edges[e]
            joint = mu.edge_blocks[e]
            product = np.outer(mu.node_blocks[u], mu.node_blocks[v])
            pos = joint > 0
            total -= float(np.sum(joint[pos] * np.log(joint[pos] / product[pos])))
    return total


def node_blocks(model, flat):
    """One block per node of a flat node-layout vector."""
    return np.split(flat, model.packing().node_starts[1:])


class TestMinSum:
    def test_isolated_node(self):
        m = M.MrfModel.create([2], [], [np.array([0.0, 1.0])], [])
        value, labels = M.ForestPlan(m, np.arange(m.n_edges)).min_sum(m.packing().unary)
        assert value == 0.0 and labels[0] == 0

    def test_all_zero_ties_break_low(self):
        m = M.MrfModel.create([3] * 4, [(0, 1), (1, 2), (2, 3)], [np.zeros(3)] * 4, [np.zeros((3, 3))] * 3)
        value, labels = M.ForestPlan(m, np.arange(m.n_edges)).min_sum(m.packing().unary)
        assert value == 0.0
        np.testing.assert_array_equal(labels, 0)

    def test_chain_matches_enumeration(self):
        for seed in range(5):
            m = chain_model(3, 3, seed)
            value, labels = M.ForestPlan(m, np.arange(m.n_edges)).min_sum(m.packing().unary)
            best, best_x = oracles.exhaustive_map(m)
            assert value == pytest.approx(best, abs=1e-12)
            assert M.energy(m, labels) == pytest.approx(best, abs=1e-12)

    def test_tree_matches_enumeration(self):
        for seed in range(5):
            m = random_tree_model(6, 2, seed)
            value, labels = M.ForestPlan(m, np.arange(m.n_edges)).min_sum(m.packing().unary)
            best, _ = oracles.exhaustive_map(m)
            assert value == pytest.approx(best, abs=1e-12)
            assert M.energy(m, labels) == pytest.approx(best, abs=1e-12)

    def test_forest_with_isolated_nodes(self):
        m = M.generate_grid(1, 4, 2, seed=3)
        d = M.decompose_grid(m)
        # vertical side of a 1xN grid: all nodes isolated
        value, labels = M.ForestPlan(m, d.forest(m, 1)).min_sum(m.packing().unary)
        assert value == pytest.approx(sum(float(u.min()) for u in m.unary))

    def test_cycle_rejected(self):
        m = M.MrfModel.create(
            [2] * 3, [(0, 1), (0, 2), (1, 2)], [np.zeros(2)] * 3, [np.zeros((2, 2))] * 3
        )
        with pytest.raises(StructureError):
            M.ForestPlan(m, np.arange(m.n_edges))

    def test_chain_and_star_match_enumeration(self):
        # a chain and a star over the same unary tables: both shapes must
        # reach the exhaustive optimum and its labeling
        rng = np.random.default_rng(4)
        m = chain_model(7, 4, seed=9)
        unary = [rng.uniform(-1, 1, 4) for _ in range(7)]
        v1, l1 = M.ForestPlan(m, np.arange(m.n_edges)).min_sum(np.concatenate(unary))
        star = M.MrfModel.create(
            [4] * 7,
            [(0, v) for v in range(1, 7)],
            unary,
            [rng.uniform(-1, 1, (4, 4)) for _ in range(6)],
        )
        v2, l2 = M.ForestPlan(star, np.arange(star.n_edges)).min_sum(star.packing().unary)
        best, best_x = oracles.exhaustive_map(star)
        assert v2 == pytest.approx(best, abs=1e-12)
        np.testing.assert_array_equal(l2, best_x)
        best_chain, best_chain_x = oracles.exhaustive_map(
            M.MrfModel.create([4] * 7, m.edges, unary, m.pairwise)
        )
        assert v1 == pytest.approx(best_chain, abs=1e-12)
        np.testing.assert_array_equal(l1, best_chain_x)


def mixed_forest_model(seed):
    """Isolated nodes 0-1, a path 2-3-4-5 with label counts 2, 3, 4, 2 and
    a star centred on 6 with leaves 7-9, all with random tables."""
    rng = np.random.default_rng(seed)
    counts = [2, 3, 2, 3, 4, 2, 3, 2, 2, 3]
    edges = [(2, 3), (3, 4), (4, 5), (6, 7), (6, 8), (6, 9)]
    return M.MrfModel.create(
        counts,
        edges,
        [rng.uniform(-1, 1, c) for c in counts],
        [rng.uniform(-1, 1, (counts[u], counts[v])) for u, v in edges],
    )


def padded_forest_model(seed):
    """A tree centred on node 3 whose depth levels mix ``L_c > L_p`` and
    ``L_c < L_p`` edges, with children on both sides of their parents' ids
    and one 12-label node among 2-label ones, plus an isolated node."""
    rng = np.random.default_rng(seed)
    counts = [2, 12, 2, 3, 2, 4, 3, 2]
    edges = [(0, 3), (3, 5), (1, 3), (0, 6), (2, 5), (1, 4)]
    return M.MrfModel.create(
        counts,
        edges,
        [rng.uniform(-1, 1, c) for c in counts],
        [rng.uniform(-1, 1, (counts[u], counts[v])) for u, v in edges],
    )


def one_label_forest_model(seed, zero=False):
    """One-label nodes as a root (1, the center of the path 0-1-2), an inner
    node (4, on the path 3-4-5-6-7 centred on 5), leaves (7, and 9 of the
    star centred on 8) and an isolated node (11); random tables, or all 0."""
    rng = np.random.default_rng(seed)
    counts = [2, 1, 3, 2, 1, 3, 2, 1, 3, 1, 2, 1]
    edges = [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6), (6, 7), (8, 9), (8, 10)]
    table = np.zeros if zero else (lambda shape: rng.uniform(-1, 1, shape))
    return M.MrfModel.create(counts, edges, [table(c) for c in counts],
                             [table((counts[u], counts[v])) for u, v in edges])


def random_forest_model(counts, seed, big=1.0):
    """Random recursive tree over the given label counts, tables from
    :func:`oracles.random_table`."""
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, v)), v) for v in range(1, len(counts))]
    return M.MrfModel.create(
        counts, edges, [oracles.random_table(rng, int(c), big) for c in counts],
        [oracles.random_table(rng, (int(counts[u]), int(counts[v])), big) for u, v in edges],
    )


class TestForestDpAgainstOracles:
    def test_mixed_forest_matches_enumeration(self):
        for seed in range(3):
            m = mixed_forest_model(seed)
            plan, unary = M.ForestPlan(m, np.arange(m.n_edges)), m.packing().unary
            value, labels = plan.min_sum(unary)
            best, best_x = oracles.exhaustive_map(m)
            assert value == pytest.approx(best, abs=1e-12)
            np.testing.assert_array_equal(labels, best_x)
            for rho in (1.0, 0.2):
                soft, flat = plan.soft_min(unary, rho)
                bvalue, bnode = oracles.gibbs_bruteforce(m, np.arange(m.n_edges), m.unary, rho)
                assert soft == pytest.approx(bvalue, abs=1e-10)
                for v, marg in enumerate(node_blocks(m, flat)):
                    np.testing.assert_allclose(marg, bnode[v], atol=1e-10)

    def test_forest_of_some_edges_matches_enumeration(self):
        m = mixed_forest_model(5)
        # leave out the edges (4, 5) and (6, 9): nodes 5 and 9 become
        # isolated in the forest, which still spans every node
        edges = oracles.edge_ids(m, ((2, 3), (3, 4), (6, 7), (6, 8)))
        rho = 0.5
        soft, flat = M.ForestPlan(m, edges).soft_min(m.packing().unary, rho)
        bvalue, bnode = oracles.gibbs_bruteforce(m, edges, m.unary, rho)
        assert soft == pytest.approx(bvalue, abs=1e-10)
        for v, marg in enumerate(node_blocks(m, flat)):
            np.testing.assert_allclose(marg, bnode[v], atol=1e-10)

    def test_padded_levels_match_enumeration(self):
        for seed in range(3):
            m = padded_forest_model(seed)
            plan, unary = M.ForestPlan(m, np.arange(m.n_edges)), m.packing().unary
            # both levels mix the 12-label node's shapes with the others';
            # the root 3 and the isolated node 7 hang from the one-label virtual node
            assert [g.w.shape[:2] for g in plan.groups] == [(3, 12), (12, 3), (3, 1)]
            value, labels = plan.min_sum(unary)
            best, best_x = oracles.exhaustive_map(m)
            assert abs(value - best) <= 1e-12
            np.testing.assert_array_equal(labels, best_x)
            assert np.all(labels < np.array(m.label_counts))
            for rho in (1.0, 1e-3):
                soft, flat = plan.soft_min(unary, rho)
                bvalue, bnode = oracles.gibbs_bruteforce(m, np.arange(m.n_edges), m.unary, rho)
                assert abs(soft - bvalue) <= 1e-10
                # the flat marginals hold one entry per real label
                assert flat.shape == unary.shape
                for v, marg in enumerate(node_blocks(m, flat)):
                    # all of the mass on the real labels
                    assert abs(marg.sum() - 1.0) <= 1e-12
                    np.testing.assert_allclose(marg, bnode[v], rtol=0, atol=1e-10)

    def test_one_label_nodes_match_enumeration(self):
        # one-label nodes share the width 1 of the roots' virtual parent
        m = one_label_forest_model(0)
        rows = mrflp.dualdec._forest_rows(m, np.arange(m.n_edges))
        assert np.flatnonzero(rows[:, 0] == 0).tolist() == [1, 5, 8, 11]
        for seed in range(3):
            m = one_label_forest_model(seed)
            plan, unary = M.ForestPlan(m, np.arange(m.n_edges)), m.packing().unary
            value, labels = plan.min_sum(unary)
            best, best_x = oracles.exhaustive_map(m)
            assert abs(value - best) <= 1e-12
            np.testing.assert_array_equal(labels, best_x)
            for rho in (0.3, 2.0):
                soft, flat = plan.soft_min(unary, rho)
                bvalue, bnode = oracles.gibbs_bruteforce(m, np.arange(m.n_edges), m.unary, rho)
                assert abs(soft - bvalue) <= 1e-12
                for v, marg in enumerate(node_blocks(m, flat)):
                    np.testing.assert_allclose(marg, bnode[v], rtol=0, atol=1e-12)
        # all ties: every node takes its smallest label, as the enumeration does
        zero = one_label_forest_model(0, zero=True)
        value, labels = M.ForestPlan(zero, np.arange(zero.n_edges)).min_sum(zero.packing().unary)
        best, best_x = oracles.exhaustive_map(zero)
        assert value == best == 0.0
        np.testing.assert_array_equal(labels, best_x)
        np.testing.assert_array_equal(labels, 0)

    @pytest.mark.parametrize("rho", [1e-4, 1e-2, 2.0])
    def test_marginals_match_tree_sum_product(self, rho):
        # a chain of radius 200, padded fused forests, and forbidden entries
        # of 1e6: any overflow or inf - inf on the way down would raise here
        counts = np.random.default_rng(4).permutation(np.arange(60) % 4 + 2)
        counts[7] = 12
        chain = chain_model(400, 3, seed=4)
        cases = [(chain, [np.arange(chain.n_edges)])] + [oracles.two_forest_model(counts, seed=4, big=big) for big in (1.0, 1e6)]
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            for m, forests in cases:
                unary = np.tile(m.packing().unary, len(forests))
                value, flat = M.ForestPlan(m, *forests).soft_min(unary, rho)
                parts = [oracles.tree_gibbs_marginals(m, f, m.unary, rho) for f in forests]
                expected = sum(v for v, _ in parts)
                assert abs(value - expected) <= 1e-10 * max(1.0, abs(expected))
                marg = np.concatenate([np.concatenate(b) for _, b in parts])
                np.testing.assert_allclose(flat, marg, rtol=0, atol=1e-10)
                sums = np.add.reduceat(flat.reshape(len(forests), -1), m.packing().node_starts, axis=1)
                np.testing.assert_allclose(sums, 1.0, rtol=0, atol=1e-12)


class TestPaddedForestDp:
    def test_sentinel_never_meets_itself(self):
        # forbidden entries of 1e6 next to padded labels: inf - inf or an
        # overflow in the sentinel's arithmetic would raise here
        counts = np.random.default_rng(5).permutation(np.arange(60) % 4 + 2)
        counts[7] = 12
        m = random_forest_model(counts, seed=5, big=1e6)
        plan = M.ForestPlan(m, np.arange(m.n_edges))
        unary = m.packing().unary
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            value, labels = plan.min_sum(unary)
            assert M.energy(m, labels) == value
            for rho in (1e-4, 2.0):
                soft, marg = plan.soft_min(unary, rho)
                assert value - rho * np.log(np.prod(counts.astype(float))) <= soft <= value
                np.testing.assert_allclose(np.add.reduceat(marg, m.packing().node_starts), 1.0, atol=1e-12)

    def test_one_step_per_level_unless_padding_is_wasteful(self):
        rng = np.random.default_rng(2)
        balanced = random_forest_model(rng.permutation(np.arange(300) % 4 + 2), seed=2)
        plan = M.ForestPlan(balanced, np.arange(balanced.n_edges))
        depths = [g.depth for g in plan.groups]
        assert depths == list(range(max(depths), -1, -1))
        assert depths.count(0) == 1
        skewed_counts = np.full(300, 2)
        skewed_counts[[10, 150, 290]] = 50
        skewed = random_forest_model(skewed_counts, seed=3)
        split = M.ForestPlan(skewed, np.arange(skewed.n_edges)).groups
        assert len(split) > len({g.depth for g in split})
        for m in (balanced, skewed):
            # the virtual parent of the roots, node n_nodes, has one label
            counts = np.append(m.label_counts, 1)
            for g in M.ForestPlan(m, np.arange(m.n_edges)).groups:
                real = int(np.sum(counts[g.child] * counts[g.parent]))
                assert len(g.child) == 1 or g.w.size <= PAD_WASTE * real

    def test_padded_ties_break_low(self):
        m = padded_forest_model(0)
        zero = M.MrfModel.create(
            m.label_counts, m.edges, [np.zeros(c) for c in m.label_counts], [np.zeros(t.shape) for t in m.pairwise]
        )
        value, labels = M.ForestPlan(zero, np.arange(zero.n_edges)).min_sum(zero.packing().unary)
        assert value == 0.0
        np.testing.assert_array_equal(labels, 0)


def chain_and_star_model(n, seed):
    """Forest 0 is the path 0-1-...-(n-1) (radius about n/2), forest 1 the
    star from node 0 over nodes 2..n-1 (radius 1); label counts 2 to 4."""
    rng = np.random.default_rng(seed)
    counts = [int(c) for c in rng.integers(2, 5, n)]
    chain = [(i, i + 1) for i in range(n - 1)]
    star = [(0, v) for v in range(2, n)]
    edges = chain + star
    m = M.MrfModel.create(
        counts, edges, [rng.uniform(-1, 1, c) for c in counts],
        [rng.uniform(-1, 1, (counts[u], counts[v])) for u, v in edges],
    )
    return m, (oracles.edge_ids(m, chain), oracles.edge_ids(m, star))


class TestFusedForestPlan:
    """``ForestPlan(m, f0, f1)`` against the two single-forest plans."""

    @staticmethod
    def assert_rooted_at_centers(m, ids):
        """The peeled rows of the forest with the given edge ids equal a
        breadth-first search from each root, and every root is a center of
        its tree; returns the rows."""
        rows = [tuple(row) for row in mrflp.dualdec._forest_rows(m, ids).tolist()]
        roots = [x for depth, x, _, _ in rows if depth == 0]
        assert sorted(rows) == sorted(oracles.rooted_rows(m, ids, roots))
        for root in roots:
            # eccentricity of the root against that of every node of its tree
            tree = {x for _, x, _, _ in oracles.rooted_rows(m, ids, [root])}
            ecc = {x: max(d for d, *_ in oracles.rooted_rows(m, ids, [x])) for x in tree}
            assert ecc[root] == min(ecc.values())
        return rows

    def test_rows_match_a_search_from_each_center(self):
        for seed in range(4):
            m, forests = oracles.two_forest_model([2 + i % 3 for i in range(30)], seed=seed)
            for ids in forests:
                self.assert_rooted_at_centers(m, ids)

    def test_one_pass_stacks_the_single_forest_rows(self):
        # forest 1's rows follow forest 0's, its node ids offset by n
        cases = [oracles.two_forest_model([2 + i % 3 for i in range(30)], seed=seed) for seed in range(4)]
        grid, snake = oracles.mixed_label_grid(4), M.generate_grid(30, 30, 2, seed=0)
        for m, d in ((grid, M.decompose_grid(grid)), (snake, M.decompose_by_coloring(snake, oracles.snake_coloring(snake)))):
            cases.append((m, (d.forest(m, 0), d.forest(m, 1))))
        for m, (f0, f1) in cases:
            second = mrflp.dualdec._forest_rows(m, f1)
            second[:, 1:3] += m.n_nodes
            expected = np.concatenate([mrflp.dualdec._forest_rows(m, f0), second])
            np.testing.assert_array_equal(mrflp.dualdec._forest_rows(m, f0, f1), expected)

    def test_snake_is_rooted_at_its_middle(self):
        # a 30x30 grid: one path through all 900 nodes, whose two centers
        # are 449 and 450 edges from its ends, and the other vertical edges
        m = M.generate_grid(30, 30, 2, seed=0)
        d = M.decompose_by_coloring(m, oracles.snake_coloring(m))
        path = self.assert_rooted_at_centers(m, d.forest(m, 0))
        assert max(depth for depth, *_ in path) == 450
        self.assert_rooted_at_centers(m, d.forest(m, 1))

    def test_smaller_center_is_the_root(self):
        # two-node trees, isolated nodes, and a path 5-0-3-2 with centers 0 and 3
        m = M.MrfModel.create([2] * 9, [(1, 4), (6, 8), (5, 0), (0, 3), (3, 2)], [np.zeros(2)] * 9,
                              [np.zeros((2, 2))] * 5)
        rows = self.assert_rooted_at_centers(m, np.arange(m.n_edges))
        assert [x for depth, x, _, _ in rows if depth == 0] == [0, 1, 6, 7]
        assert rows[8] == (1, 8, 6, oracles.edge_ids(m, [(6, 8)])[0])

    def test_cycle_in_one_of_several_trees(self):
        # a path, an isolated node, a star, and a 4-cycle
        edges = [(0, 1), (1, 2), (4, 5), (4, 6), (4, 7), (8, 9), (9, 10), (10, 11), (8, 11)]
        m = M.MrfModel.create([2] * 12, edges, [np.zeros(2)] * 12, [np.zeros((2, 2))] * len(edges))
        ids = np.arange(m.n_edges)
        for forests in ([ids], [ids[:5], ids]):
            with pytest.raises(StructureError, match="cycle"):
                M.ForestPlan(m, *forests)
        self.assert_rooted_at_centers(m, ids[:-1])

    @staticmethod
    def cases():
        m = oracles.mixed_label_grid(4)
        d = M.decompose_grid(m)
        yield m, (d.forest(m, 0), d.forest(m, 1))
        yield oracles.two_forest_model([int(c) for c in np.arange(40) % 4 + 2], seed=1)
        yield chain_and_star_model(21, seed=2)

    def test_matches_single_forest_plans(self):
        rng = np.random.default_rng(8)
        for m, (f0, f1) in self.cases():
            fused, single = M.ForestPlan(m, f0, f1), [M.ForestPlan(m, f) for f in (f0, f1)]
            nd = m.packing().node_dim
            unary = rng.uniform(-2, 2, 2 * nd)
            sides = (unary[:nd], unary[nd:])
            value, labels = fused.min_sum(unary)
            parts = [plan.min_sum(t) for plan, t in zip(single, sides)]
            np.testing.assert_array_equal(labels, np.concatenate([x for _, x in parts]))
            assert abs(value - sum(v for v, _ in parts)) <= 1e-12
            for rho in (1.0, 0.05):
                value, marg = fused.soft_min(unary, rho)
                parts = [plan.soft_min(t, rho) for plan, t in zip(single, sides)]
                assert abs(value - sum(v for v, _ in parts)) <= 1e-12
                np.testing.assert_allclose(marg, np.concatenate([x for _, x in parts]), rtol=0, atol=1e-12)

    def test_one_step_per_level_of_the_deeper_forest(self):
        m, (chain, star) = chain_and_star_model(21, seed=2)
        depths = [g.depth for g in M.ForestPlan(m, chain, star).groups]
        # the chain's radius is 10 and the star's 1: both share level 1,
        # and both roots level 0
        assert sorted(set(depths)) == list(range(11))
        single = [len(M.ForestPlan(m, f).groups) for f in (chain, star)]
        assert len(depths) < sum(single)

    def test_grid_dual_takes_one_step_per_level(self, monkeypatch):
        # both forests of a 30x30 grid are paths of radius 15: one step per
        # level of the two, not one per level and forest
        m = M.generate_grid(30, 30, 2, seed=0)
        ctx = M.DualContext(m, M.decompose_grid(m))
        assert [g.depth for g in ctx.plan.groups] == list(range(15, -1, -1))
        calls = []
        softmin = mrflp.dualdec._softmin
        monkeypatch.setattr(mrflp.dualdec, "_softmin", lambda *args, **kw: calls.append(1) or softmin(*args, **kw))
        lam = np.zeros(m.packing().node_dim)
        ctx.smoothed(lam, rho=0.1)
        # 15 steps up and the roots' step; the marginals reuse the upward tables
        assert len(calls) == 16
        ctx.smoothed_value(lam, rho=0.1)
        # the downward pass makes no soft-min call: the value alone takes as many
        assert len(calls) == 32

    def test_wide_nodes_keep_padding_bounded(self):
        # 2-label forests with three 200-label nodes: every fused step pads
        # at most PAD_WASTE times its real cells
        counts = np.full(500, 2)
        counts[[10, 250, 490]] = 200
        m, forests = oracles.two_forest_model(counts, seed=0)
        # the virtual parent of the roots, node 2 * n_nodes, counts one label
        counts = np.append(np.tile(counts, 2), 1)
        for g in M.ForestPlan(m, *forests).groups:
            real = int(np.sum(counts[g.child] * counts[g.parent]))
            assert g.w.size <= PAD_WASTE * real

    def test_sentinel_never_meets_itself(self):
        # the single-forest sentinel test on a fused plan
        counts = np.random.default_rng(5).permutation(np.arange(60) % 4 + 2)
        counts[7] = 12
        m, (f0, f1) = oracles.two_forest_model(counts, seed=5, big=1e6)
        plan = M.ForestPlan(m, f0, f1)
        packing = m.packing()
        unary = np.tile(packing.unary, 2)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            value, labels = plan.min_sum(unary)
            parts = [M.ForestPlan(m, f).min_sum(packing.unary) for f in (f0, f1)]
            assert value == sum(v for v, _ in parts)
            np.testing.assert_array_equal(labels, np.concatenate([x for _, x in parts]))
            for rho in (1e-4, 2.0):
                soft, marg = plan.soft_min(unary, rho)
                assert value - 2 * rho * np.log(np.prod(counts.astype(float))) <= soft <= value
                sums = np.add.reduceat(marg.reshape(2, -1), packing.node_starts, axis=1)
                np.testing.assert_allclose(sums, 1.0, atol=1e-12)


class TestSoftMin:
    def test_single_node_symmetric(self):
        m = M.MrfModel.create([2], [], [np.zeros(2)], [])
        value, flat = M.ForestPlan(m, np.arange(m.n_edges)).soft_min(m.packing().unary, rho=1.0)
        assert value == pytest.approx(-np.log(2.0))
        np.testing.assert_allclose(flat, [0.5, 0.5], atol=1e-12)

    def test_softmin_below_min_within_log_cardinality(self):
        for seed in range(4):
            m = random_tree_model(5, 3, seed)
            plan, unary = M.ForestPlan(m, np.arange(m.n_edges)), m.packing().unary
            hard, _ = plan.min_sum(unary)
            log_x = sum(np.log(c) for c in m.label_counts)
            for rho in (1.0, 0.1):
                soft, _ = plan.soft_min(unary, rho)
                assert soft <= hard + 1e-12
                assert hard <= soft + rho * log_x + 1e-12

    def test_marginals_match_exhaustive_gibbs(self):
        m = chain_model(2, 2, seed=5)
        plan = M.ForestPlan(m, np.arange(m.n_edges))
        for rho in (1.0, 0.37):
            value, flat = plan.soft_min(m.packing().unary, rho)
            bvalue, bnode = oracles.gibbs_bruteforce(m, np.arange(m.n_edges), m.unary, rho)
            assert value == pytest.approx(bvalue, abs=1e-10)
            for v, marg in enumerate(node_blocks(m, flat)):
                np.testing.assert_allclose(marg, bnode[v], atol=1e-10)

    def test_tree_marginals_match_exhaustive_gibbs(self):
        m = random_tree_model(5, 2, seed=6)
        value, flat = M.ForestPlan(m, np.arange(m.n_edges)).soft_min(m.packing().unary, rho=0.8)
        bvalue, bnode = oracles.gibbs_bruteforce(m, np.arange(m.n_edges), m.unary, 0.8)
        assert value == pytest.approx(bvalue, abs=1e-10)
        for v, marg in enumerate(node_blocks(m, flat)):
            np.testing.assert_allclose(marg, bnode[v], atol=1e-9)

    def test_marginals_are_distributions_and_consistent(self):
        m = M.generate_grid(3, 3, 3, seed=7)
        d = M.decompose_grid(m)
        rng = np.random.default_rng(0)
        unary = rng.uniform(-2, 2, 9 * 3)
        value, flat = M.ForestPlan(m, d.forest(m, 0)).soft_min(unary, rho=0.5)
        for marg in node_blocks(m, flat):
            assert marg.min() >= 0
            assert marg.sum() == pytest.approx(1.0, abs=1e-12)

    def test_tiny_rho_is_stable(self):
        m = chain_model(6, 3, seed=8)
        plan, unary = M.ForestPlan(m, np.arange(m.n_edges)), m.packing().unary
        soft, flat = plan.soft_min(unary, rho=1e-4)
        hard, labels = plan.min_sum(unary)
        assert np.isfinite(soft)
        assert soft == pytest.approx(hard, abs=1e-3)
        np.testing.assert_array_equal([int(np.argmax(b)) for b in node_blocks(m, flat)], labels)

    @pytest.mark.parametrize("big", [1.0, 1e6])
    def test_unary_shift_is_each_nodes_least_entry(self, big):
        # the shift is a column minimum of the plan's padded gather; it must be
        # the minimum that np.minimum.reduceat takes over each node's segment
        m, forests = oracles.two_forest_model([1 + i % 5 for i in range(40)], seed=2, big=big)
        plan = M.ForestPlan(m, *forests)
        counts = np.tile(m.label_counts, 2)
        unary = np.random.default_rng(0).uniform(-big, big, counts.sum())
        shifted = []
        upward = plan._upward
        plan._upward = lambda u, reduce: shifted.append(u) or upward(u, reduce)
        plan.soft_min(unary, 0.5)
        low = np.minimum.reduceat(unary, np.cumsum(counts) - counts)
        np.testing.assert_array_equal(shifted[0], unary - np.repeat(low, counts))

    def test_rho_must_be_positive(self):
        m = chain_model(2, 2, seed=0)
        plan = M.ForestPlan(m, np.arange(m.n_edges))
        with pytest.raises(ValueError):
            plan.soft_min(m.packing().unary, rho=0.0)


class TestEdgeIdInput:
    """Forests are 1-D arrays of edge ids; nothing else is read as one (a
    coloring's bad entries are refused by ``Decomposition``)."""

    @pytest.mark.parametrize("forest", [[-1], [4], [[0, 1], [1, 2]]], ids=["negative", "past-the-end", "pairs"])
    def test_forest_plan_rejects_bad_ids(self, forest):
        m = chain_model(5, 2, seed=0)
        with pytest.raises(StructureError, match="edge id|1-D array of edge ids"):
            M.ForestPlan(m, np.arange(2), forest)


def _rho_entry_points():
    m = M.generate_grid(2, 2, 2, seed=0)
    d = M.decompose_grid(m)
    mu = M.embed_labeling(m, np.zeros(4, dtype=np.int64))
    p = M.TransportProblem(m.pairwise[0], [0.5, 0.5], [0.3, 0.7])
    return {
        "free_energy": lambda rho: M.free_energy(m, mu, rho),
        "soft_min": lambda rho: M.DualContext(m, d).smoothed(np.zeros(8), rho),
        "entropic_transport": lambda rho: M.solve_transport_entropic(p, rho, 1, p.row_marginal, p.col_marginal),
        "entropic_projection": lambda rho: M.project_primal_free_energy(m, d, np.full(8, 0.5), rho),
    }


@pytest.mark.parametrize("rho", [np.nan, np.inf, 0.0, -1.0])
@pytest.mark.parametrize("entry", list(_rho_entry_points()))
def test_rho_must_be_positive_and_finite(entry, rho):
    with pytest.raises(ValueError, match="rho must be positive and finite"):
        _rho_entry_points()[entry](rho)


@pytest.mark.parametrize("call", [
    lambda ctx, lam: ctx.value_and_subgradient(lam),
    lambda ctx, lam: ctx.smoothed(lam, 0.5),
    lambda ctx, lam: ctx.smoothed_value(lam, 0.5),
], ids=["value_and_subgradient", "smoothed", "smoothed_value"])
@pytest.mark.parametrize("shape", [(7,), (4, 2)])
def test_lambda_must_be_a_flat_node_vector(call, shape):
    m = M.generate_grid(2, 2, 2, seed=0)
    ctx = M.DualContext(m, M.decompose_grid(m))
    with pytest.raises(ValueError, match="lambda must be a flat vector of length 8"):
        call(ctx, np.zeros(shape))


class TestDualObjective:
    def test_zero_lambda_agreeing_argmins(self):
        m = M.MrfModel.create([2], [], [np.array([0.0, 1.0])], [])
        d = M.decompose_grid(m)
        value, g, (x1, x2) = M.DualContext(m, d).value_and_subgradient(np.zeros(2))
        np.testing.assert_array_equal(x1, x2)
        assert np.all(g == 0)

    def test_lower_bounds_map_value(self):
        rng = np.random.default_rng(1)
        for seed in range(4):
            m = M.generate_grid(2, 3, 2, seed=seed)
            d = M.decompose_grid(m)
            best, _ = oracles.exhaustive_map(m)
            ctx = M.DualContext(m, d)
            for _ in range(5):
                lam = rng.standard_normal(sum(m.label_counts))
                value, _, _ = ctx.value_and_subgradient(lam)
                assert value <= best + 1e-9

    def test_concavity_along_random_pairs(self):
        m = M.generate_grid(2, 2, 3, seed=3)
        d = M.decompose_grid(m)
        ctx = M.DualContext(m, d)
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.standard_normal(sum(m.label_counts))
            b = rng.standard_normal(sum(m.label_counts))
            va, _, _ = ctx.value_and_subgradient(a)
            vb, _, _ = ctx.value_and_subgradient(b)
            vm, _, _ = ctx.value_and_subgradient((a + b) / 2)
            assert vm >= (va + vb) / 2 - 1e-9

    @pytest.mark.parametrize("colors", [[0, 1, 0], [0, 1, 0, 1, 0]], ids=["short", "long"])
    def test_wrong_length_coloring_rejected(self, colors):
        m = M.generate_grid(2, 2, 2, seed=0)
        with pytest.raises(StructureError, match="one color per edge"):
            M.decompose_by_coloring(m, colors)
        with pytest.raises(StructureError, match="one color per edge"):
            M.DualContext(m, M.Decomposition(colors))


class TestPlanReuse:
    """A decomposition keeps its forest plan for the model it was built for."""

    def test_plan_is_built_once_per_model(self, monkeypatch):
        calls = []
        build = mrflp.dualdec.ForestPlan
        monkeypatch.setattr(mrflp.dualdec, "ForestPlan", lambda m, *forests: calls.append(m) or build(m, *forests))
        m = M.generate_grid(3, 3, 2, seed=1)
        d = M.decompose_grid(m)
        ctx = M.DualContext(m, d)
        M.solve_nesterov(m, d, M.SolverConfig(max_iters=20, epoch=10, rho=0.5))
        assert M.DualContext(m, d).plan is ctx.plan and calls == [m]
        # an equal model is another model, with its own plan
        other = M.generate_grid(3, 3, 2, seed=1)
        assert M.DualContext(other, d).plan.model is other and calls == [m, other]

    def test_a_coloring_is_peeled_once(self, monkeypatch):
        # the plan that checks the coloring for cycles is the one the dual
        # context solves on
        calls = []
        peel = mrflp.dualdec._forest_rows
        monkeypatch.setattr(mrflp.dualdec, "_forest_rows", lambda m, *forests: calls.append(m) or peel(m, *forests))
        m, (f0, _) = oracles.two_forest_model(np.arange(40) % 4 + 2, seed=3)
        d = M.decompose_by_coloring(m, [int(e not in f0) for e in range(m.n_edges)])
        assert calls == [m]
        assert M.DualContext(m, d).plan.model is m and calls == [m]

    def test_plan_goes_with_its_decomposition(self):
        m = M.generate_grid(3, 3, 2, seed=1)
        d = M.decompose_grid(m)
        plan = weakref.ref(M.DualContext(m, d).plan)
        assert plan() is not None
        # no reference cycle keeps the plan alive past its decomposition
        del d
        assert plan() is None


class TestSmoothedDual:
    def test_symmetric_zero_gradient(self):
        # identical potential halves and no edges: both sides see the same
        # tables at lambda = 0, so the gradient vanishes
        m = M.MrfModel.create([3, 3], [], [np.array([0.0, 1.0, 2.0])] * 2, [])
        d = M.decompose_by_coloring(m, [])
        value, grad, _ = M.DualContext(m, d).smoothed(np.zeros(6), rho=0.7)
        np.testing.assert_allclose(grad, 0.0, atol=1e-12)

    def test_gradient_matches_central_differences(self):
        m = M.generate_grid(2, 2, 2, seed=4)
        d = M.decompose_grid(m)
        ctx = M.DualContext(m, d)
        rng = np.random.default_rng(3)
        for rho in (1.0, 0.1, 0.01):
            lam = rng.standard_normal(8) * 0.5
            _, grad, _ = ctx.smoothed(lam, rho)
            h = 1e-5
            fd = np.zeros_like(lam)
            for i in range(lam.size):
                up = lam.copy()
                up[i] += h
                dn = lam.copy()
                dn[i] -= h
                fd[i] = (ctx.smoothed_value(up, rho) - ctx.smoothed_value(dn, rho)) / (2 * h)
            scale = max(1e-12, float(np.max(np.abs(grad))))
            assert float(np.max(np.abs(fd - grad))) / scale <= 1e-5

    def test_uniform_approximation_bracket(self):
        m = M.generate_grid(2, 3, 2, seed=5)
        d = M.decompose_grid(m)
        log_x = sum(np.log(c) for c in m.label_counts)
        ctx = M.DualContext(m, d)
        rng = np.random.default_rng(4)
        for rho in (1.0, 0.1):
            for _ in range(10):
                lam = rng.standard_normal(sum(m.label_counts))
                u, _, _ = ctx.value_and_subgradient(lam)
                uh, _, _ = ctx.smoothed(lam, rho)
                assert 0.0 <= u - uh <= 2 * rho * log_x + 1e-9


class TestFreeEnergy:
    def test_deterministic_point_has_no_entropy(self):
        m = M.generate_grid(2, 2, 2, seed=6)
        x = np.array([0, 1, 1, 0])
        mu = M.embed_labeling(m, x)
        assert M.free_energy(m, mu, rho=0.5) == pytest.approx(M.energy(m, x), abs=1e-12)

    def test_uniform_chain_closed_form(self):
        m = M.MrfModel.create(
            [2] * 3, [(0, 1), (1, 2)], [np.zeros(2)] * 3, [np.zeros((2, 2))] * 2
        )
        mu = M.Marginals.from_blocks(
            node_blocks=tuple(np.full(2, 0.5) for _ in range(3)),
            edge_blocks=tuple(np.full((2, 2), 0.25) for _ in range(2)),
        )
        # uniform product point: every tree entropy is the sum of its node
        # entropies, mutual information vanishes
        rho = 0.8
        expected = -rho * 2 * 3 * np.log(2)
        assert M.free_energy(m, mu, rho) == pytest.approx(expected, abs=1e-12)
        assert M.decomposition_entropy(m, mu) == pytest.approx(2 * 3 * np.log(2), abs=1e-12)

    def test_bracketing_of_relaxed_energy(self):
        rng = np.random.default_rng(5)
        for m in (M.generate_grid(2, 3, 3, seed=7), oracles.mixed_label_grid(seed=7)):
            d = M.decompose_grid(m)
            # the entropy is the same for every coloring: one vertical edge
            # moved to the horizontal forest too
            moved = M.decompose_by_coloring(m, [0 if v == u + 1 or (u, v) == (0, 3) else 1 for u, v in m.edges])
            c_h = 2 * float(np.sum(np.log(m.label_counts)))
            for rho in (1.0, 0.25):
                for _ in range(20):
                    mu = random_feasible_marginals(m, rng)
                    fe = M.free_energy(m, mu, rho)
                    e = M.relaxed_energy(m, mu)
                    assert fe <= e + 1e-9
                    assert e <= fe + rho * c_h + 1e-9
                    for coloring in (d, moved):
                        assert fe == pytest.approx(e - rho * tree_entropy_sum(m, coloring, mu), abs=1e-12)

    def test_infeasible_points_rejected(self):
        m = M.generate_grid(2, 2, 2, seed=8)
        mu = M.Marginals.from_blocks(
            node_blocks=tuple(np.array([0.9, 0.9]) for _ in range(4)),
            edge_blocks=tuple(np.full((2, 2), 0.25) for _ in range(4)),
        )
        with pytest.raises(InfeasibleMarginalsError):
            M.free_energy(m, mu, rho=1.0)


def average_labelings(model, history, weights=None):
    """Node blocks of the labeling average that the subgradient solvers
    accumulate: both labelings of entry ``k`` carry ``weights[k]``."""
    weights = np.ones(len(history)) if weights is None else weights
    packing = model.packing()
    acc = np.zeros(packing.node_dim)
    for pair, w in zip(history, weights):
        _accumulate_labelings(acc, packing, pair, (w, w))
    return node_blocks(model, acc / (2.0 * np.sum(weights)))


class TestReconstruction:
    def test_constant_history(self):
        m = M.generate_grid(2, 2, 2, seed=9)
        x = np.array([1, 0, 0, 1])
        blocks = average_labelings(m, [(x, x)] * 5)
        emb = M.embed_labeling(m, x)
        for v in range(4):
            np.testing.assert_allclose(blocks[v], emb.node_blocks[v], atol=1e-12)

    def test_two_distinct_entries_mix(self):
        m = M.MrfModel.create([2], [], [np.zeros(2)], [])
        blocks = average_labelings(m, [(np.array([0]), np.array([0])), (np.array([1]), np.array([1]))])
        np.testing.assert_allclose(blocks[0], [0.5, 0.5], atol=1e-12)

    def test_weighted_matches_direct_formula(self):
        m = M.generate_grid(1, 3, 2, seed=10)
        rng = np.random.default_rng(6)
        history = [
            (rng.integers(0, 2, 3), rng.integers(0, 2, 3)) for _ in range(7)
        ]
        weights = rng.random(7) + 0.1
        blocks = average_labelings(m, history, weights)
        direct = np.zeros((3, 2))
        for (x1, x2), w in zip(history, weights):
            for v in range(3):
                direct[v, x1[v]] += w
                direct[v, x2[v]] += w
        direct /= 2 * weights.sum()
        for v in range(3):
            np.testing.assert_allclose(blocks[v], direct[v], atol=1e-12)

    def test_output_lies_in_simplices(self):
        m = M.generate_grid(2, 2, 3, seed=11)
        rng = np.random.default_rng(7)
        history = [(rng.integers(0, 3, 4), rng.integers(0, 3, 4)) for _ in range(9)]
        for b in average_labelings(m, history):
            assert b.min() >= 0
            assert b.sum() == pytest.approx(1.0, abs=1e-12)

    def test_repeated_labels_add_one_by_one(self):
        # both labelings pick the same labels: each adds its own weight
        m = M.generate_grid(1, 3, 3, seed=12)
        packing = m.packing()
        x = np.array([2, 0, 1])
        acc = np.zeros(packing.node_dim)
        _accumulate_labelings(acc, packing, (x, x, x), (0.25, 0.5, 2.0))
        expected = np.zeros(packing.node_dim)
        expected[packing.node_starts + x] = 2.75
        np.testing.assert_array_equal(acc, expected)


class TestSmoothedStrongDuality:
    def test_smoothed_primal_dual_values_meet(self):
        # pins the sign convention: the smoothed dual maximum must meet the
        # minimum of the entropy-smoothed primal over the polytope
        m = M.generate_grid(2, 2, 2, seed=13)
        d = M.decompose_grid(m)
        rho = 0.5
        cfg = M.SolverConfig(max_iters=4000, epoch=200, rho=rho, tol=0.0)
        report = M.solve_nesterov(m, d, cfg)
        assert report.records[-1].smoothed_gap is not None
        assert abs(report.records[-1].smoothed_gap) <= 1e-4
