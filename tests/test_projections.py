import itertools

import numpy as np
import pytest

import mrflp as M
import mrflp.transport
from mrflp.errors import NumericalError

import oracles


def simplex_projection_bruteforce(v):
    """Exhaustive active-set search: try every support set, keep the feasible
    candidate closest to v."""
    v = np.asarray(v, dtype=float)
    n = v.size
    best = None
    best_dist = np.inf
    for mask in itertools.product([0, 1], repeat=n):
        support = np.array(mask, dtype=bool)
        if not support.any():
            continue
        shift = (v[support].sum() - 1.0) / support.sum()
        x = np.where(support, v - shift, 0.0)
        if x.min() < -1e-12:
            continue
        dist = np.sum((x - v) ** 2)
        if dist < best_dist:
            best_dist = dist
            best = x
    return best


class TestSimplexProjection:
    def test_already_feasible(self):
        v = np.array([0.25, 0.25, 0.25, 0.25])
        np.testing.assert_allclose(M.project_simplex(v), v, atol=1e-15)

    def test_uniform_shift(self):
        np.testing.assert_allclose(M.project_simplex([0.6, 0.9]), [0.35, 0.65], atol=1e-15)

    def test_active_bound(self):
        np.testing.assert_allclose(M.project_simplex([2.0, 0.0]), [1.0, 0.0], atol=1e-15)

    def test_matches_active_set_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            v = rng.uniform(-2, 2, rng.integers(1, 7))
            x = M.project_simplex(v)
            np.testing.assert_allclose(x, simplex_projection_bruteforce(v), atol=1e-10)
            assert x.min() >= 0.0
            assert x.sum() == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            M.project_simplex([])


class TestPrimalEnergyProjection:
    def test_zero_pairwise_keeps_feasible_node_blocks(self):
        m = M.MrfModel.create(
            [2, 2], [(0, 1)], [np.array([1.0, 2.0]), np.array([3.0, 4.0])], [np.zeros((2, 2))]
        )
        blocks = [np.array([0.3, 0.7]), np.array([0.9, 0.1])]
        proj = M.project_primal_energy(m, blocks)
        np.testing.assert_allclose(proj.node_blocks[0], blocks[0], atol=1e-12)
        np.testing.assert_allclose(proj.node_blocks[1], blocks[1], atol=1e-12)
        unary_part = sum(float(m.unary[v] @ blocks[v]) for v in range(2))
        assert M.relaxed_energy(m, proj) == pytest.approx(unary_part, abs=1e-12)

    def test_integral_inputs_reproduce_embedding_energy(self):
        m = M.generate_grid(2, 3, 3, seed=3)
        x = np.array([0, 2, 1, 1, 0, 2])
        emb = M.embed_labeling(m, x)
        proj = M.project_primal_energy(m, emb.node_blocks)
        np.testing.assert_allclose(
            np.concatenate(proj.node_blocks), np.concatenate(emb.node_blocks), atol=1e-12
        )
        assert M.relaxed_energy(m, proj) == pytest.approx(M.energy(m, x), abs=1e-10)

    def test_forbidden_value_pathology(self):
        # one huge pairwise entry: the plan is forced to put the node-block
        # mass difference on it, so the projected energy scales with it
        big = 1e6
        pairwise = np.zeros((2, 2))
        pairwise[1, 0] = big
        m = M.MrfModel.create([2, 2], [(0, 1)], [np.zeros(2), np.zeros(2)], [pairwise])
        proj = M.project_primal_energy(m, [np.array([0.4, 0.6]), np.array([0.7, 0.3])])
        assert proj.edge_blocks[0][1, 0] == pytest.approx(0.3, abs=1e-12)
        assert M.relaxed_energy(m, proj) == pytest.approx(0.3 * big, rel=1e-9)
        brute_cost, _ = oracles.transport_bruteforce(
            pairwise, np.array([0.4, 0.6]), np.array([0.7, 0.3])
        )
        assert brute_cost == pytest.approx(0.3 * big, rel=1e-12)

    def test_feasible_for_arbitrary_inputs(self):
        m = M.generate_grid(3, 3, 3, seed=1)
        rng = np.random.default_rng(0)
        for _ in range(25):
            blocks = [rng.uniform(-1, 2, 3) for _ in range(9)]
            proj = M.project_primal_energy(m, blocks)
            assert M.constraint_residual(m, proj) <= 1e-9
            assert min(b.min() for b in proj.node_blocks) >= 0.0
            assert min(b.min() for b in proj.edge_blocks) >= 0.0

    def test_edge_blocks_in_input_are_ignored(self):
        m = M.generate_grid(2, 2, 2, seed=2)
        rng = np.random.default_rng(1)
        blocks = [rng.random(2) for _ in range(4)]
        mu_with_junk_edges = M.Marginals.from_blocks(
            node_blocks=tuple(blocks),
            edge_blocks=tuple(rng.random((2, 2)) for _ in range(4)),
        )
        a = M.project_primal_energy(m, mu_with_junk_edges)
        b = M.project_primal_energy(m, blocks)
        np.testing.assert_array_equal(np.concatenate(a.node_blocks), np.concatenate(b.node_blocks))
        for ea, eb in zip(a.edge_blocks, b.edge_blocks):
            np.testing.assert_array_equal(ea, eb)

    def test_pivot_cap_error_names_the_edge(self, monkeypatch):
        # the projection shares solve_transport's cap, max(1000, 50 * n * m);
        # with an infinite entering tolerance every pivot round finds an arc
        monkeypatch.setattr(mrflp.transport, "PIVOT_TOL", -np.inf)
        m = M.generate_grid(1, 2, 2, seed=3)
        assert m.pairwise[0].shape == (2, 2)
        with pytest.raises(NumericalError, match=r"1000 pivots on edge \(0, 1\)"):
            M.project_primal_energy(m, [np.array([0.5, 0.5])] * 2)

    def test_edge_blocks_match_single_edge_solves(self):
        # the batched call per (L_u, L_v) shape gives what each edge gives
        # alone, which the benchmark's per-edge pivot count relies on
        m = oracles.mixed_label_grid(3)
        rng = np.random.default_rng(6)
        for _ in range(5):
            blocks = [rng.random(c) * (rng.random(c) > 0.2) + 0.01 for c in m.label_counts]
            proj = M.project_primal_energy(m, blocks)
            for e, (u, v) in enumerate(m.edges):
                p = M.TransportProblem(m.pairwise[e], proj.node_blocks[u], proj.node_blocks[v])
                np.testing.assert_array_equal(M.solve_transport(p).plan, proj.edge_blocks[e])


class TestPrimalFreeEnergyProjection:
    def test_symmetric_instance_gives_uniform_plans(self):
        m = M.MrfModel.create(
            [2, 2], [(0, 1)], [np.zeros(2), np.zeros(2)], [np.zeros((2, 2))]
        )
        d = M.decompose_grid(m, colors=[0])
        proj = M.project_primal_free_energy(m, d, [np.full(2, 0.5), np.full(2, 0.5)], rho=1.0)
        np.testing.assert_allclose(proj.edge_blocks[0], 0.25, atol=1e-9)

    def test_small_rho_limit_matches_energy_projection(self):
        m = M.generate_grid(2, 2, 3, seed=7)
        d = M.decompose_grid(m)
        rng = np.random.default_rng(2)
        blocks = [rng.random(3) for _ in range(4)]
        a = M.project_primal_free_energy(m, d, blocks, rho=1e-6)
        b = M.project_primal_energy(m, blocks)
        assert M.relaxed_energy(m, a) == pytest.approx(M.relaxed_energy(m, b), abs=1e-4)

    def test_feasibility(self):
        m = M.generate_grid(3, 2, 2, seed=8)
        d = M.decompose_grid(m)
        rng = np.random.default_rng(3)
        for rho in (1.0, 0.1):
            blocks = [rng.uniform(-0.5, 1.5, 2) for _ in range(6)]
            proj = M.project_primal_free_energy(m, d, blocks, rho)
            assert M.constraint_residual(m, proj) <= 1e-9

    def test_smoothed_objective_matches_scalar_oracle_on_two_nodes(self):
        from scipy.optimize import minimize_scalar

        rng = np.random.default_rng(4)
        c = rng.uniform(-1, 1, (2, 2))
        m = M.MrfModel.create([2, 2], [(0, 1)], [np.zeros(2), np.zeros(2)], [c])
        d = M.decompose_grid(m, colors=[0])
        blocks = [np.array([0.35, 0.65]), np.array([0.55, 0.45])]
        rho = 0.7
        proj = M.project_primal_free_energy(m, d, blocks, rho)
        r, s = blocks
        ref = np.outer(r, s)

        def objective(t):
            plan = np.array([[t, r[0] - t], [s[0] - t, r[1] - s[0] + t]])
            if plan.min() < 0:
                return np.inf
            pos = plan > 0
            return float(np.sum(c * plan)) + rho * float(
                np.sum(plan[pos] * np.log(plan[pos] / ref[pos]))
            )

        best = minimize_scalar(
            objective, bounds=(max(0.0, s[0] - r[1]), min(r[0], s[0])), method="bounded",
            options={"xatol": 1e-12},
        )
        attained = objective(proj.edge_blocks[0][0, 0])
        assert attained == pytest.approx(best.fun, abs=1e-6)


    def test_edge_blocks_match_single_edge_solves(self):
        # the batched call per (L_u, L_v) shape gives what each edge gives alone
        m = oracles.mixed_label_grid(3)
        d = M.decompose_grid(m)
        # counts of 1 and 2 mix two smoothing levels inside one shape group
        d = M.Decomposition(d.subgraphs, d.node_counts, np.arange(m.n_edges) % 2 + 1)
        rng = np.random.default_rng(6)
        blocks = [rng.random(c) * (rng.random(c) > 0.2) + 0.01 for c in m.label_counts]
        for rho in (0.05, 0.5):
            proj = M.project_primal_free_energy(m, d, blocks, rho)
            for e, (u, v) in enumerate(m.edges):
                p = M.TransportProblem(m.pairwise[e], proj.node_blocks[u], proj.node_blocks[v])
                res = M.solve_transport_entropic(p, rho, int(d.edge_counts[e]), p.row_marginal, p.col_marginal)
                np.testing.assert_allclose(res.plan, proj.edge_blocks[e], rtol=0, atol=1e-15)


class TestDualProjection:
    def test_zero_messages_give_table_minima(self):
        m = M.generate_grid(2, 2, 3, seed=5)
        zero = [(np.zeros(3), np.zeros(3)) for _ in range(m.n_edges)]
        point = M.project_dual(m, zero)
        for v in range(m.n_nodes):
            assert point.node_bounds[v] == pytest.approx(float(m.unary[v].min()))
        for e in range(m.n_edges):
            assert point.edge_bounds[e] == pytest.approx(float(m.pairwise[e].min()))

    def test_single_node(self):
        m = M.MrfModel.create([2], [], [np.array([3.0, 5.0])], [])
        point = M.project_dual(m, [])
        assert point.node_bounds[0] == pytest.approx(3.0)
        assert M.dual_value(m, point) == pytest.approx(3.0)

    def test_feasibility_margin_nonnegative_for_random_messages(self):
        rng = np.random.default_rng(5)
        for m in (M.generate_grid(2, 2, 3, seed=6), oracles.mixed_label_grid(seed=6)):
            counts = m.label_counts
            for _ in range(20):
                msgs = [(rng.standard_normal(counts[u]), rng.standard_normal(counts[v])) for u, v in m.edges]
                point = M.project_dual(m, msgs)
                margin = M.dual_feasibility_margin(m, point)
                assert margin >= -1e-12
                # margin recomputed by explicit enumeration over all constraints
                node_slack = [m.unary[v] - point.node_bounds[v] for v in range(m.n_nodes)]
                for e, (u, v) in enumerate(m.edges):
                    node_slack[u] = node_slack[u] - msgs[e][0]
                    node_slack[v] = node_slack[v] - msgs[e][1]
                worst = min(float(s.min()) for s in node_slack)
                for e, (u, v) in enumerate(m.edges):
                    mu, mv = msgs[e]
                    for xu in range(counts[u]):
                        for xv in range(counts[v]):
                            worst = min(
                                worst,
                                m.pairwise[e][xu, xv] + mu[xu] + mv[xv] - point.edge_bounds[e],
                            )
                # every bound is a minimum, so some constraint is tight
                assert worst == pytest.approx(0.0, abs=1e-12)
                assert margin == pytest.approx(worst, abs=1e-12)

    def test_weak_duality_against_random_feasible_points(self):
        m = M.generate_grid(2, 2, 2, seed=9)
        rng = np.random.default_rng(6)
        for _ in range(20):
            msgs = [(rng.standard_normal(2), rng.standard_normal(2)) for _ in range(m.n_edges)]
            point = M.project_dual(m, msgs)
            bound = M.dual_value(m, point)
            x = rng.integers(0, 2, 4)
            mixture = M.project_primal_energy(m, [rng.random(2) for _ in range(4)])
            assert bound <= M.energy(m, x) + 1e-9
            assert bound <= M.relaxed_energy(m, mixture) + 1e-9

    def test_all_zero_dual_value(self):
        m = M.generate_grid(2, 2, 2, seed=0)
        point = M.DualPoint.from_blocks(
            node_bounds=np.zeros(4),
            edge_bounds=np.zeros(4),
            messages=tuple((np.zeros(2), np.zeros(2)) for _ in range(4)),
        )
        assert M.dual_value(m, point) == 0.0


class TestLipschitz:
    def test_zero_potentials(self):
        m = M.MrfModel.create([2, 2], [(0, 1)], [np.zeros(2)] * 2, [np.zeros((2, 2))])
        est = M.lipschitz_linear(m)
        assert est.node == est.edge == est.joint == 0.0

    def test_three_four_five(self):
        m = M.MrfModel.create([2], [], [np.array([3.0, 4.0])], [])
        est = M.lipschitz_linear(m)
        assert est.node == pytest.approx(5.0)
        assert est.edge == 0.0
        assert est.joint == pytest.approx(5.0)

    def test_joint_bound_on_random_pairs(self):
        m = M.generate_grid(2, 2, 3, seed=10)
        est = M.lipschitz_linear(m)
        assert est.joint <= np.hypot(est.node, est.edge) + 1e-12
        rng = np.random.default_rng(7)
        theta = oracles.theta_vector(m)
        for _ in range(50):
            za = rng.uniform(0, 1, theta.size)
            zb = rng.uniform(0, 1, theta.size)
            diff = abs(float(theta @ (za - zb)))
            assert diff <= est.joint * np.linalg.norm(za - zb) + 1e-9

    def test_entropy_constant_examples(self):
        e = np.exp(1.0)
        assert M.lipschitz_entropy(0.0, 1, 1 / e, 1 / e) == pytest.approx(0.0, abs=1e-12)
        assert M.lipschitz_entropy(2.0, 3, 0.1, 1.0) == pytest.approx(5.907755278982137)

    def test_entropy_constant_bounds_increments(self):
        rng = np.random.default_rng(8)
        n = 4
        a = rng.standard_normal(n)
        eps, big = 0.05, 2.0
        bound = M.lipschitz_entropy(float(np.linalg.norm(a)), n, eps, big)

        def f(z):
            return float(a @ z + np.sum(z * np.log(z)))

        for _ in range(200):
            z1 = rng.uniform(eps, big, n)
            z2 = rng.uniform(eps, big, n)
            assert abs(f(z1) - f(z2)) <= bound * np.linalg.norm(z1 - z2) + 1e-9

    def test_entropy_constant_parameter_errors(self):
        with pytest.raises(ValueError):
            M.lipschitz_entropy(1.0, 2, 0.0, 1.0)
        with pytest.raises(ValueError):
            M.lipschitz_entropy(1.0, 2, 0.5, 0.1)


class TestProjectionContinuityBound:
    def test_projected_energy_error_bounded_by_distance(self):
        # the projected point's suboptimality exceeds the input's by at most
        # (node + edge Lipschitz constants) times the distance to the polytope
        m = M.generate_grid(2, 2, 2, seed=12)
        lp_val, _ = oracles.lp_optimum(m)
        est = M.lipschitz_linear(m)
        rng = np.random.default_rng(9)
        for _ in range(10):
            node_blocks = [rng.uniform(0, 1, 2) for _ in range(4)]
            edge_blocks = [rng.uniform(0, 1, (2, 2)) for _ in range(4)]
            z = M.Marginals.from_blocks(node_blocks=tuple(node_blocks), edge_blocks=tuple(edge_blocks))
            z_flat = oracles.pack_marginals_flat(m, z)
            projected = M.project_primal_energy(m, node_blocks)
            euclid = oracles.dykstra_project(m, z_flat)
            dist = float(np.linalg.norm(z_flat - euclid))
            lhs = abs(M.relaxed_energy(m, projected) - lp_val)
            rhs = abs(M.relaxed_energy(m, z) - lp_val) + (est.node + est.edge) * dist
            assert lhs <= rhs + 1e-7
