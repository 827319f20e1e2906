import numpy as np
import pytest

import mrflp as M
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


def whole_graph(model):
    return M.Subgraph(nodes=tuple(range(model.n_nodes)), edges=model.edges)


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
    return M.Marginals(node_blocks=tuple(node_blocks), edge_blocks=tuple(edge_blocks))


class TestMinSum:
    def test_isolated_node(self):
        m = M.MrfModel.create([2], [], [np.array([0.0, 1.0])], [])
        value, labels = M.dp_min(m, whole_graph(m), m.unary)
        assert value == 0.0 and labels[0] == 0

    def test_all_zero_ties_break_low(self):
        m = chain_model(4, 3, seed=0)
        zeros = [np.zeros(3) for _ in range(4)]
        value, labels = M.dp_min(m, whole_graph(m), zeros)
        # pairwise tables still apply; rebuild with zero pairwise too
        m0 = M.MrfModel.create([3] * 4, m.edges, zeros, [np.zeros((3, 3))] * 3)
        value, labels = M.dp_min(m0, whole_graph(m0), zeros)
        assert value == 0.0
        np.testing.assert_array_equal(labels, 0)

    def test_chain_matches_enumeration(self):
        for seed in range(5):
            m = chain_model(3, 3, seed)
            value, labels = M.dp_min(m, whole_graph(m), m.unary)
            best, best_x = oracles.exhaustive_map(m)
            assert value == pytest.approx(best, abs=1e-12)
            assert M.energy(m, labels) == pytest.approx(best, abs=1e-12)

    def test_tree_matches_enumeration(self):
        for seed in range(5):
            m = random_tree_model(6, 2, seed)
            value, labels = M.dp_min(m, whole_graph(m), m.unary)
            best, _ = oracles.exhaustive_map(m)
            assert value == pytest.approx(best, abs=1e-12)
            assert M.energy(m, labels) == pytest.approx(best, abs=1e-12)

    def test_forest_with_isolated_nodes(self):
        m = M.generate_grid(1, 4, 2, seed=3)
        d = M.decompose_grid(m)
        # vertical side of a 1xN grid: all nodes isolated
        value, labels = M.dp_min(m, d.subgraphs[1], m.unary)
        assert value == pytest.approx(sum(float(u.min()) for u in m.unary))

    def test_cycle_rejected(self):
        m = M.MrfModel.create(
            [2] * 3, [(0, 1), (0, 2), (1, 2)], [np.zeros(2)] * 3, [np.zeros((2, 2))] * 3
        )
        with pytest.raises(StructureError):
            M.dp_min(m, whole_graph(m), m.unary)

    def test_path_batching_matches_generic_tree_code(self):
        # a chain and a star over the same unary tables: both shapes must
        # reach the exhaustive optimum and its labeling
        rng = np.random.default_rng(4)
        m = chain_model(7, 4, seed=9)
        sub = whole_graph(m)
        unary = [rng.uniform(-1, 1, 4) for _ in range(7)]
        v1, l1 = M.dp_min(m, sub, unary)
        star = M.MrfModel.create(
            [4] * 7,
            [(0, v) for v in range(1, 7)],
            unary,
            [rng.uniform(-1, 1, (4, 4)) for _ in range(6)],
        )
        v2, l2 = M.dp_min(star, whole_graph(star), unary)
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


class TestForestDpAgainstOracles:
    def test_mixed_forest_matches_enumeration(self):
        for seed in range(3):
            m = mixed_forest_model(seed)
            sub = whole_graph(m)
            value, labels = M.dp_min(m, sub, m.unary)
            best, best_x = oracles.exhaustive_map(m)
            assert value == pytest.approx(best, abs=1e-12)
            np.testing.assert_array_equal(labels, best_x)
            for rho in (1.0, 0.2):
                soft, node_marg, edge_marg = M.dp_softmin(m, sub, m.unary, rho)
                bvalue, bnode, bedge = oracles.gibbs_bruteforce(m, m.edges, m.unary, rho)
                assert soft == pytest.approx(bvalue, abs=1e-10)
                for v in range(m.n_nodes):
                    np.testing.assert_allclose(node_marg[v], bnode[v], atol=1e-10)
                assert sorted(edge_marg) == sorted(bedge)
                for eid, table in bedge.items():
                    np.testing.assert_allclose(edge_marg[eid], table, atol=1e-10)

    def test_subgraph_leaving_nodes_out(self):
        m = mixed_forest_model(5)
        # drop nodes 0 and 5 with the edge (4, 5), and the leaf edge (6, 9)
        nodes = (1, 2, 3, 4, 6, 7, 8, 9)
        edges = ((2, 3), (3, 4), (6, 7), (6, 8))
        sub = M.Subgraph(nodes=nodes, edges=edges)
        rho = 0.5
        soft, node_marg, edge_marg = M.dp_softmin(m, sub, m.unary, rho)
        bvalue, bnode, bedge = oracles.gibbs_bruteforce(m, edges, m.unary, rho)
        # the oracle also sums over the left-out nodes, which are independent
        outside = sum(
            float(-rho * np.log(np.sum(np.exp(-m.unary[v] / rho)))) for v in (0, 5)
        )
        assert soft == pytest.approx(bvalue - outside, abs=1e-10)
        for v in range(m.n_nodes):
            if v in nodes:
                np.testing.assert_allclose(node_marg[v], bnode[v], atol=1e-10)
            else:
                assert node_marg[v] is None
        assert sorted(edge_marg) == sorted(bedge)
        for eid, table in bedge.items():
            np.testing.assert_allclose(edge_marg[eid], table, atol=1e-10)


class TestSoftMin:
    def test_single_node_symmetric(self):
        m = M.MrfModel.create([2], [], [np.zeros(2)], [])
        value, node_marg, _ = M.dp_softmin(m, whole_graph(m), m.unary, rho=1.0)
        assert value == pytest.approx(-np.log(2.0))
        np.testing.assert_allclose(node_marg[0], [0.5, 0.5], atol=1e-12)

    def test_softmin_below_min_within_log_cardinality(self):
        for seed in range(4):
            m = random_tree_model(5, 3, seed)
            sub = whole_graph(m)
            for rho in (1.0, 0.1):
                soft, _, _ = M.dp_softmin(m, sub, m.unary, rho)
                hard, _ = M.dp_min(m, sub, m.unary)
                log_x = sum(np.log(c) for c in m.label_counts)
                assert soft <= hard + 1e-12
                assert hard <= soft + rho * log_x + 1e-12

    def test_marginals_match_exhaustive_gibbs(self):
        m = chain_model(2, 2, seed=5)
        sub = whole_graph(m)
        for rho in (1.0, 0.37):
            value, node_marg, edge_marg = M.dp_softmin(m, sub, m.unary, rho)
            bvalue, bnode, bedge = oracles.gibbs_bruteforce(m, m.edges, m.unary, rho)
            assert value == pytest.approx(bvalue, abs=1e-10)
            for v in range(2):
                np.testing.assert_allclose(node_marg[v], bnode[v], atol=1e-10)
            np.testing.assert_allclose(edge_marg[0], bedge[0], atol=1e-10)

    def test_tree_marginals_match_exhaustive_gibbs(self):
        m = random_tree_model(5, 2, seed=6)
        sub = whole_graph(m)
        value, node_marg, edge_marg = M.dp_softmin(m, sub, m.unary, rho=0.8)
        bvalue, bnode, bedge = oracles.gibbs_bruteforce(m, m.edges, m.unary, 0.8)
        assert value == pytest.approx(bvalue, abs=1e-10)
        for v in range(m.n_nodes):
            np.testing.assert_allclose(node_marg[v], bnode[v], atol=1e-9)
        for eid, table in bedge.items():
            np.testing.assert_allclose(edge_marg[eid], table, atol=1e-9)

    def test_marginals_are_distributions_and_consistent(self):
        m = M.generate_grid(3, 3, 3, seed=7)
        d = M.decompose_grid(m)
        rng = np.random.default_rng(0)
        unary = [rng.uniform(-2, 2, 3) for _ in range(9)]
        value, node_marg, edge_marg = M.dp_softmin(m, d.subgraphs[0], unary, rho=0.5)
        for v in range(m.n_nodes):
            assert node_marg[v].min() >= 0
            assert node_marg[v].sum() == pytest.approx(1.0, abs=1e-12)
        for eid, table in edge_marg.items():
            u, v = m.edges[eid]
            np.testing.assert_allclose(table.sum(axis=1), node_marg[u], atol=1e-9)
            np.testing.assert_allclose(table.sum(axis=0), node_marg[v], atol=1e-9)

    def test_tiny_rho_is_stable(self):
        m = chain_model(6, 3, seed=8)
        sub = whole_graph(m)
        soft, node_marg, _ = M.dp_softmin(m, sub, m.unary, rho=1e-4)
        hard, labels = M.dp_min(m, sub, m.unary)
        assert np.isfinite(soft)
        assert soft == pytest.approx(hard, abs=1e-3)
        np.testing.assert_array_equal(
            np.array([int(np.argmax(b)) for b in node_marg]), labels
        )

    def test_rho_must_be_positive(self):
        m = chain_model(2, 2, seed=0)
        with pytest.raises(ValueError):
            M.dp_softmin(m, whole_graph(m), m.unary, rho=0.0)


class TestDualObjective:
    def test_zero_lambda_agreeing_argmins(self):
        m = M.MrfModel.create([2], [], [np.array([0.0, 1.0])], [])
        d = M.decompose_grid(m)
        value, g, (x1, x2) = M.dual_u(m, d, np.zeros(2))
        np.testing.assert_array_equal(x1, x2)
        assert np.all(g == 0)

    def test_lower_bounds_map_value(self):
        rng = np.random.default_rng(1)
        for seed in range(4):
            m = M.generate_grid(2, 3, 2, seed=seed)
            d = M.decompose_grid(m)
            best, _ = oracles.exhaustive_map(m)
            for _ in range(5):
                lam = rng.standard_normal(sum(m.label_counts))
                value, _, _ = M.dual_u(m, d, lam)
                assert value <= best + 1e-9

    def test_concavity_along_random_pairs(self):
        m = M.generate_grid(2, 2, 3, seed=3)
        d = M.decompose_grid(m)
        rng = np.random.default_rng(2)
        for _ in range(20):
            a = rng.standard_normal(sum(m.label_counts))
            b = rng.standard_normal(sum(m.label_counts))
            va, _, _ = M.dual_u(m, d, a)
            vb, _, _ = M.dual_u(m, d, b)
            vm, _, _ = M.dual_u(m, d, (a + b) / 2)
            assert vm >= (va + vb) / 2 - 1e-9

    def test_requires_two_subgraphs(self):
        m = M.generate_grid(2, 2, 2, seed=0)
        d = M.decompose_grid(m)
        bad = M.Decomposition(
            subgraphs=(d.subgraphs[0],),
            node_counts=np.ones(4, dtype=np.int64),
            edge_counts=np.ones(4, dtype=np.int64),
        )
        with pytest.raises(StructureError):
            M.dual_u(m, bad, np.zeros(8))


class TestSmoothedDual:
    def test_symmetric_zero_gradient(self):
        # identical potential halves and no edges: both sides see the same
        # tables at lambda = 0, so the gradient vanishes
        m = M.MrfModel.create([3, 3], [], [np.array([0.0, 1.0, 2.0])] * 2, [])
        d = M.decompose_by_coloring(m, [])
        value, grad, _ = M.dual_u_smoothed(m, d, np.zeros(6), rho=0.7)
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
        rng = np.random.default_rng(4)
        for rho in (1.0, 0.1):
            for _ in range(10):
                lam = rng.standard_normal(sum(m.label_counts))
                u, _, _ = M.dual_u(m, d, lam)
                uh, _, _ = M.dual_u_smoothed(m, d, lam, rho)
                assert 0.0 <= u - uh <= 2 * rho * log_x + 1e-9


class TestFreeEnergy:
    def test_deterministic_point_has_no_entropy(self):
        m = M.generate_grid(2, 2, 2, seed=6)
        d = M.decompose_grid(m)
        x = np.array([0, 1, 1, 0])
        mu = M.embed_labeling(m, x)
        assert M.free_energy(m, d, mu, rho=0.5) == pytest.approx(M.energy(m, x), abs=1e-12)

    def test_uniform_chain_closed_form(self):
        m = M.MrfModel.create(
            [2] * 3, [(0, 1), (1, 2)], [np.zeros(2)] * 3, [np.zeros((2, 2))] * 2
        )
        d = M.decompose_grid(m, colors=[0, 1])
        mu = M.Marginals(
            node_blocks=tuple(np.full(2, 0.5) for _ in range(3)),
            edge_blocks=tuple(np.full((2, 2), 0.25) for _ in range(2)),
        )
        # uniform product point: every tree entropy is the sum of its node
        # entropies, mutual information vanishes
        rho = 0.8
        expected = -rho * 2 * 3 * np.log(2)
        assert M.free_energy(m, d, mu, rho) == pytest.approx(expected, abs=1e-12)
        assert M.decomposition_entropy(m, d, mu) == pytest.approx(2 * 3 * np.log(2), abs=1e-12)

    def test_bracketing_of_relaxed_energy(self):
        m = M.generate_grid(2, 3, 3, seed=7)
        d = M.decompose_grid(m)
        rng = np.random.default_rng(5)
        c_h = M.entropy_upper_bound(m, d)
        assert c_h == pytest.approx(2 * 6 * np.log(3))
        for rho in (1.0, 0.25):
            for _ in range(20):
                mu = random_feasible_marginals(m, rng)
                fe = M.free_energy(m, d, mu, rho)
                e = M.relaxed_energy(m, mu)
                assert fe <= e + 1e-9
                assert e <= fe + rho * c_h + 1e-9

    def test_infeasible_points_rejected(self):
        m = M.generate_grid(2, 2, 2, seed=8)
        d = M.decompose_grid(m)
        mu = M.Marginals(
            node_blocks=tuple(np.array([0.9, 0.9]) for _ in range(4)),
            edge_blocks=tuple(np.full((2, 2), 0.25) for _ in range(4)),
        )
        with pytest.raises(InfeasibleMarginalsError):
            M.free_energy(m, d, mu, rho=1.0)


class TestReconstruction:
    def test_constant_history(self):
        m = M.generate_grid(2, 2, 2, seed=9)
        x = np.array([1, 0, 0, 1])
        blocks = M.reconstruct_primal_subgradient(m, [(x, x)] * 5)
        emb = M.embed_labeling(m, x)
        for v in range(4):
            np.testing.assert_allclose(blocks[v], emb.node_blocks[v], atol=1e-12)

    def test_two_distinct_entries_mix(self):
        m = M.MrfModel.create([2], [], [np.zeros(2)], [])
        blocks = M.reconstruct_primal_subgradient(
            m, [(np.array([0]), np.array([0])), (np.array([1]), np.array([1]))]
        )
        np.testing.assert_allclose(blocks[0], [0.5, 0.5], atol=1e-12)

    def test_weighted_matches_direct_formula(self):
        m = M.generate_grid(1, 3, 2, seed=10)
        rng = np.random.default_rng(6)
        history = [
            (rng.integers(0, 2, 3), rng.integers(0, 2, 3)) for _ in range(7)
        ]
        weights = rng.random(7) + 0.1
        blocks = M.reconstruct_primal_subgradient(m, history, weights)
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
        blocks = M.reconstruct_primal_subgradient(m, history)
        for b in blocks:
            assert b.min() >= 0
            assert b.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_history_rejected(self):
        m = M.generate_grid(1, 2, 2, seed=0)
        with pytest.raises(ValueError):
            M.reconstruct_primal_subgradient(m, [])


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
