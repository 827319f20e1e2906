import numpy as np
import pytest

import mrflp as M
from mrflp.errors import InfeasibleMarginalsError, NumericalError

import oracles


def degenerate_problems(seed, count):
    """1-5 x 1-5 problems with zero marginal entries, tied small integer
    costs and forbidden entries of cost 1e6, at rho 0.05, 1 and 2 in turn."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        n, m = (int(x) for x in rng.integers(1, 6, 2))
        cost = np.where(rng.random((n, m)) < 0.3, 1e6, rng.integers(0, 4, (n, m)).astype(float))
        r = rng.random(n) * (rng.random(n) > 0.3)
        s = rng.random(m) * (rng.random(m) > 0.3)
        r[rng.integers(n)] += 0.1
        s[rng.integers(m)] += 0.1
        yield M.TransportProblem(cost, r, s), (0.05, 1.0, 2.0)[i % 3]


class TestTransportProblem:
    def test_rescaled_on_ingest(self):
        p = M.TransportProblem([[0.0, 1.0]], [2.0], [1.0, 3.0])
        assert p.row_marginal.sum() == pytest.approx(1.0)
        assert p.col_marginal.sum() == pytest.approx(1.0)

    def test_negative_marginal_rejected(self):
        with pytest.raises(InfeasibleMarginalsError):
            M.TransportProblem([[0.0, 1.0]], [-0.5], [0.5, 0.5])

    def test_zero_mass_rejected(self):
        with pytest.raises(InfeasibleMarginalsError):
            M.TransportProblem([[0.0], [0.0]], [0.0, 0.0], [1.0])

    def test_batch_rescales_each_problem(self):
        p = M.TransportProblem(np.zeros((2, 1, 2)), [[2.0], [5.0]], [[1.0, 3.0], [2.0, 2.0]])
        np.testing.assert_allclose(p.row_marginal, 1.0)
        np.testing.assert_allclose(p.col_marginal, [[0.25, 0.75], [0.5, 0.5]])
        with pytest.raises(InfeasibleMarginalsError):
            M.TransportProblem(np.zeros((2, 1, 2)), [[2.0], [0.0]], [[1.0, 3.0], [2.0, 2.0]])
        with pytest.raises(ValueError):
            M.TransportProblem(np.zeros((2, 1, 2)), [[2.0], [5.0]], [[1.0, 3.0]])

    def test_exact_solver_takes_a_batch(self):
        p = M.TransportProblem(np.zeros((2, 1, 2)), [[2.0], [5.0]], [[1.0, 3.0], [2.0, 2.0]])
        res = M.solve_transport(p)
        assert res.plan.shape == res.basis.shape == (2, 1, 2)
        assert res.cost.shape == res.pivots.shape == (2,)
        assert res.row_potentials.shape == (2, 1) and res.col_potentials.shape == (2, 2)
        np.testing.assert_allclose(res.plan, [[[0.25, 0.75]], [[0.5, 0.5]]])
        one = M.solve_transport(M.TransportProblem(np.zeros((1, 2)), [2.0], [1.0, 3.0]))
        assert one.plan.shape == (1, 2)
        assert type(one.cost) is float and type(one.pivots) is int


class TestExactTransport:
    def test_one_by_one(self):
        res = M.solve_transport(M.TransportProblem([[7.5]], [1.0], [1.0]))
        assert res.plan[0, 0] == pytest.approx(1.0)
        assert res.cost == pytest.approx(7.5)

    def test_diagonal_optimum(self):
        p = M.TransportProblem([[0.0, 1.0], [1.0, 0.0]], [0.5, 0.5], [0.5, 0.5])
        res = M.solve_transport(p)
        brute_cost, brute_plan = oracles.transport_bruteforce(p.cost, p.row_marginal, p.col_marginal)
        assert res.cost == pytest.approx(brute_cost, abs=1e-12)
        np.testing.assert_allclose(res.plan, [[0.5, 0.0], [0.0, 0.5]], atol=1e-12)
        np.testing.assert_allclose(brute_plan, res.plan, atol=1e-12)

    def test_plan_forced_by_degenerate_marginals(self):
        p = M.TransportProblem([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0], [0.5, 0.5])
        res = M.solve_transport(p)
        np.testing.assert_allclose(res.plan, [[0.5, 0.5], [0.0, 0.0]], atol=1e-12)
        assert res.cost == pytest.approx(0.5)

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            n, m = rng.integers(1, 5), rng.integers(1, 5)
            cost = rng.uniform(-5, 5, (n, m))
            r = rng.random(n)
            s = rng.random(m)
            p = M.TransportProblem(cost, r, s)
            res = M.solve_transport(p)
            brute_cost, _ = oracles.transport_bruteforce(p.cost, p.row_marginal, p.col_marginal)
            assert res.cost == pytest.approx(brute_cost, abs=1e-10)

    def test_dual_certificate(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n, m = rng.integers(2, 6), rng.integers(2, 6)
            p = M.TransportProblem(rng.uniform(-1, 1, (n, m)), rng.random(n), rng.random(m))
            res = M.solve_transport(p)
            slack = p.cost - res.row_potentials[:, None] - res.col_potentials[None, :]
            assert slack.min() >= -1e-9
            # complementary slackness on the basis
            assert np.max(np.abs(slack[res.basis])) <= 1e-9
            # duality: certified value equals the plan cost
            dual_val = res.row_potentials @ p.row_marginal + res.col_potentials @ p.col_marginal
            assert dual_val == pytest.approx(res.cost, abs=1e-9)

    def test_zero_marginal_entries_keep_basis_size(self):
        p = M.TransportProblem([[1.0, 2.0, 3.0]] * 3, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        res = M.solve_transport(p)
        assert res.basis.sum() == 5  # n + m - 1 arcs, zero flows included
        assert res.plan[0, 1] == pytest.approx(1.0)

    def test_batch_matches_single_solves(self):
        rng = np.random.default_rng(8)
        k = 300  # more than one pricing chunk
        cost = np.where(rng.random((k, 3, 4)) < 0.3, 1e6, rng.integers(0, 3, (k, 3, 4)).astype(float))
        r = rng.random((k, 3)) * (rng.random((k, 3)) > 0.2) + np.array([0.1, 0.0, 0.0])
        s = rng.random((k, 4)) * (rng.random((k, 4)) > 0.2) + np.array([0.0, 0.0, 0.0, 0.1])
        res = M.solve_transport(M.TransportProblem(cost, r, s))
        # the problems finish in different rounds of the lockstep
        assert res.pivots.min() < res.pivots.max()
        for i in range(k):
            one = M.solve_transport(M.TransportProblem(cost[i], r[i], s[i]))
            np.testing.assert_array_equal(one.plan, res.plan[i])
            np.testing.assert_array_equal(one.basis, res.basis[i])
            np.testing.assert_array_equal(one.row_potentials, res.row_potentials[i])
            np.testing.assert_array_equal(one.col_potentials, res.col_potentials[i])
            assert (one.cost, one.pivots) == (res.cost[i], res.pivots[i])

    def test_degenerate_problems_match_bruteforce(self):
        # zero marginal entries, tied marginals, tied small integer costs and
        # forbidden entries of cost 1e6 or 1e9
        rng = np.random.default_rng(17)
        for i in range(150):
            n, m = (int(x) for x in rng.integers(1, 5, 2))
            big = (1e6, 1e9)[i % 2]
            cost = np.where(rng.random((n, m)) < 0.3, big, rng.integers(0, 4, (n, m)).astype(float))
            if i % 3:
                r = rng.random(n) * (rng.random(n) > 0.3)
                s = rng.random(m) * (rng.random(m) > 0.3)
            else:
                r = rng.integers(0, 3, n).astype(float)
                s = rng.integers(0, 3, m).astype(float)
            r[rng.integers(n)] += 0.5
            s[rng.integers(m)] += 0.5
            p = M.TransportProblem(cost, r, s)
            res = M.solve_transport(p)
            tol = 1e-9 * max(1.0, float(np.abs(cost).max()))
            brute_cost, _ = oracles.transport_bruteforce(p.cost, p.row_marginal, p.col_marginal)
            assert res.cost == pytest.approx(brute_cost, abs=tol)
            assert res.plan.min() >= 0.0
            assert res.basis.sum() == n + m - 1
            slack = p.cost - res.row_potentials[:, None] - res.col_potentials[None, :]
            assert slack.min() >= -tol
            assert np.max(np.abs(slack[res.basis])) <= tol
            dual_val = res.row_potentials @ p.row_marginal + res.col_potentials @ p.col_marginal
            assert dual_val == pytest.approx(res.cost, abs=tol)

    def test_pivot_cap_names_the_problem(self):
        # the first problem is optimal at its northwest corner, the second needs a pivot
        p = M.TransportProblem([[[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]]],
                               np.full((2, 2), 0.5), np.full((2, 2), 0.5))
        assert M.solve_transport(p).pivots.tolist() == [0, 1]
        with pytest.raises(NumericalError, match="exceeded 0 pivots") as err:
            M.solve_transport(p, max_pivots=0)
        assert err.value.problem == 1

    def test_never_better_than_product_plan(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n, m = rng.integers(2, 5), rng.integers(2, 5)
            p = M.TransportProblem(rng.uniform(0, 3, (n, m)), rng.random(n), rng.random(m))
            res = M.solve_transport(p)
            product_cost = float(p.row_marginal @ p.cost @ p.col_marginal)
            assert res.cost <= product_cost + 1e-12


class TestEntropicTransport:
    def test_zero_cost_uniform_gives_product(self):
        p = M.TransportProblem(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5])
        res = M.solve_transport_entropic(p, 1.0, 1, p.row_marginal, p.col_marginal)
        np.testing.assert_allclose(res.plan, 0.25, atol=1e-9)

    def test_large_rho_approaches_product_measure(self):
        rng = np.random.default_rng(3)
        c = rng.random((3, 3))
        p = M.TransportProblem(c, rng.random(3), rng.random(3))
        res = M.solve_transport_entropic(p, 1e6, 1, p.row_marginal, p.col_marginal)
        product = np.outer(p.row_marginal, p.col_marginal)
        np.testing.assert_allclose(res.plan, product, atol=1e-6)

    def test_matches_one_dof_oracle_on_two_by_two(self):
        # with both marginals fixed a 2x2 plan has one degree of freedom;
        # minimize the objective along it with a bounded scalar search
        from scipy.optimize import minimize_scalar

        rng = np.random.default_rng(5)
        for _ in range(20):
            c = rng.uniform(-2, 2, (2, 2))
            p = M.TransportProblem(c, rng.random(2) + 0.1, rng.random(2) + 0.1)
            rho = float(rng.choice([1.0, 0.3, 0.05]))
            res = M.solve_transport_entropic(p, rho, 1, p.row_marginal, p.col_marginal)
            r, s = p.row_marginal, p.col_marginal
            ref = np.outer(r, s)

            def objective(t):
                plan = np.array([[t, r[0] - t], [s[0] - t, r[1] - s[0] + t]])
                if plan.min() < 0:
                    return np.inf
                pos = plan > 0
                ent = float(np.sum(plan[pos] * np.log(plan[pos] / ref[pos])))
                return float(np.sum(c * plan)) + rho * ent

            lo = max(0.0, s[0] - r[1])
            hi = min(r[0], s[0])
            best = minimize_scalar(objective, bounds=(lo, hi), method="bounded",
                                   options={"xatol": 1e-12})
            np.testing.assert_allclose(res.plan[0, 0], best.x, atol=1e-6)
            assert res.objective == pytest.approx(best.fun, abs=1e-6)

    def test_positive_plans_for_positive_marginals(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            n, m = rng.integers(2, 5), rng.integers(2, 5)
            p = M.TransportProblem(rng.uniform(0, 2, (n, m)), rng.random(n) + 0.05, rng.random(m) + 0.05)
            res = M.solve_transport_entropic(p, 0.1, 2, p.row_marginal, p.col_marginal)
            assert res.plan.min() > 0.0

    def test_zero_marginal_rows_are_zero(self):
        p = M.TransportProblem(np.ones((3, 2)), [0.5, 0.0, 0.5], [0.6, 0.4])
        res = M.solve_transport_entropic(p, 0.5, 1, p.row_marginal, p.col_marginal)
        np.testing.assert_array_equal(res.plan[1], 0.0)
        assert res.residual < 1e-10

    def test_small_rho_limit_matches_exact_solver(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            n, m = rng.integers(2, 5), rng.integers(2, 5)
            p = M.TransportProblem(rng.random((n, m)), rng.random(n), rng.random(m))
            exact = M.solve_transport(p)
            ent = M.solve_transport_entropic(p, 1e-6, 1, p.row_marginal, p.col_marginal)
            assert float(np.sum(p.cost * ent.plan)) == pytest.approx(exact.cost, abs=1e-4)

    def test_rho_must_be_positive(self):
        p = M.TransportProblem(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError):
            M.solve_transport_entropic(p, 0.0, 1, p.row_marginal, p.col_marginal)

    def test_matches_sinkhorn_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            n, m = rng.integers(2, 6), rng.integers(2, 6)
            p = M.TransportProblem(rng.uniform(-1, 1, (n, m)), rng.random(n) + 0.05, rng.random(m) + 0.05)
            rho = float(rng.choice([0.1, 0.3, 1.0]))
            count = int(rng.integers(1, 3))
            res = M.solve_transport_entropic(p, rho, count, p.row_marginal, p.col_marginal)
            plan, objective = oracles.sinkhorn_entropic(p.cost, p.row_marginal, p.col_marginal, rho * count)
            np.testing.assert_allclose(res.plan, plan, atol=1e-9)
            assert res.objective == pytest.approx(objective, abs=1e-10)
            assert res.residual <= 1e-10

    def test_degenerate_problems_get_exact_marginals(self):
        # zero marginal entries next to forbidden costs stall plain scaling;
        # the rounding step still makes every plan feasible
        for p, rho in degenerate_problems(0, 300):
            res = M.solve_transport_entropic(p, rho, 1, p.row_marginal, p.col_marginal)
            assert np.max(np.abs(res.plan.sum(axis=1) - p.row_marginal)) <= 1e-14
            assert np.max(np.abs(res.plan.sum(axis=0) - p.col_marginal)) <= 1e-14
            assert res.plan.min() >= 0.0
            np.testing.assert_array_equal(res.plan[p.row_marginal == 0.0], 0.0)
            np.testing.assert_array_equal(res.plan[:, p.col_marginal == 0.0], 0.0)

    def test_large_costs_stop_at_round_off(self):
        # with costs near 1e6 at rho 0.05 round-off in the exponents holds the
        # residual above TRANSPORT_MARGINAL_TOL; Newton stops there, not at its cap
        for p, rho in degenerate_problems(1, 300):
            res = M.solve_transport_entropic(p, rho, 1, p.row_marginal, p.col_marginal)
            assert res.iterations < 100
            assert np.max(np.abs(res.plan.sum(axis=1) - p.row_marginal)) <= 1e-14
            assert np.max(np.abs(res.plan.sum(axis=0) - p.col_marginal)) <= 1e-14

    def test_batch_matches_single_solves(self):
        rng = np.random.default_rng(8)
        k = 30
        cost = np.where(rng.random((k, 3, 4)) < 0.3, 1e6, rng.uniform(-2, 2, (k, 3, 4)))
        r = rng.random((k, 3)) * (rng.random((k, 3)) > 0.2) + np.array([0.1, 0.0, 0.0])
        s = rng.random((k, 4)) * (rng.random((k, 4)) > 0.2) + np.array([0.0, 0.0, 0.0, 0.1])
        counts = rng.integers(1, 3, k)
        batch = M.TransportProblem(cost, r, s)
        res = M.solve_transport_entropic(batch, 0.3, counts, batch.row_marginal, batch.col_marginal)
        for i in range(k):
            p = M.TransportProblem(cost[i], r[i], s[i])
            one = M.solve_transport_entropic(p, 0.3, int(counts[i]), p.row_marginal, p.col_marginal)
            np.testing.assert_array_equal(one.plan, res.plan[i])
            assert (one.objective, one.iterations, one.residual) == (
                res.objective[i], res.iterations[i], res.residual[i])

    def test_batch_arguments_must_match(self):
        p = M.TransportProblem(np.zeros((2, 2, 2)), np.full((2, 2), 0.5), np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            M.solve_transport_entropic(p, 1.0, [1, 1, 1], np.full(2, 0.5), np.full(2, 0.5))
        with pytest.raises(ValueError):
            M.solve_transport_entropic(p, 1.0, [1, 0], np.full(2, 0.5), np.full(2, 0.5))
        with pytest.raises(ValueError):
            M.solve_transport_entropic(p, 1.0, 1, np.full(3, 0.5), np.full(2, 0.5))
