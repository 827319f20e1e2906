import warnings

import numpy as np
import pytest

import mrflp as M
import mrflp.transport
from mrflp.errors import InfeasibleMarginalsError, NumericalError
from mrflp.tolerances import NONNEG_TOL, PIVOT_TOL, TRANSPORT_MARGINAL_TOL

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


def tied_stack(seed, k=600):
    """A stack of k 4x5 problems with zero and tied marginal entries, tied
    small integer costs and forbidden entries of cost 1e6."""
    rng = np.random.default_rng(seed)
    cost = np.where(rng.random((k, 4, 5)) < 0.3, 1e6, rng.integers(0, 4, (k, 4, 5)).astype(float))
    r = rng.integers(0, 3, (k, 4)) + np.array([1, 0, 0, 0])
    s = rng.integers(0, 3, (k, 5)) + np.array([0, 0, 0, 0, 1])
    return M.TransportProblem(cost, r, s)


def basic_arcs(slots: np.ndarray, shape) -> np.ndarray:
    """The mask of the basic arcs, of the given plan shape, of bases given
    by their slots' arcs."""
    basic = np.zeros(slots.shape[:-1] + (shape[-2] * shape[-1],), dtype=bool)
    np.put_along_axis(basic, slots, True, axis=-1)
    return basic.reshape(shape)


def basis(res) -> np.ndarray:
    """The mask of a result's basic arcs."""
    return basic_arcs(res.simplex_basis.slots, res.plan.shape)


def cap_pivots_at_zero(monkeypatch):
    """Let no exact problem take a pivot."""
    monkeypatch.setattr(mrflp.transport, "_PIVOT_CAP_MIN", 0)
    monkeypatch.setattr(mrflp.transport, "_PIVOT_CAP_PER_CELL", 0)


def assert_same_pivot_path(problem, roots=None):
    """The kernel and the dense reference simplex take the same pivots from
    the star bases rooted at ``roots`` (by default the heaviest nodes, where
    a cold solve roots them, which the reference finds with plain loops):
    equal pivot counts, bases and bit-equal flows after every pivot (each
    pivot cap stops the kernel there), and the optimal potentials agree.
    The reference has a primal loop after its dual pivots and the kernel
    does not, so equal counts also show that no primal pivot was due."""
    c = problem.cost.reshape(-1, *problem.cost.shape[-2:])
    k = len(c)
    r, s = problem.row_marginal.reshape(c.shape[:2]), problem.col_marginal.reshape(k, -1)
    if roots is None:
        roots = np.array([oracles.star_root(r[q], s[q]) for q in range(k)], dtype=np.int64)
        np.testing.assert_array_equal(mrflp.transport._star_roots(r, s), roots)
    roots = np.broadcast_to(roots, (k,))
    start = mrflp.transport._star_start(c, roots)
    ref_start = [oracles.star_basis(c[q], roots[q]) for q in range(k)]
    tol = 1e-12 * np.maximum(1.0, np.abs(c).max(axis=(1, 2)))
    for cap in range(1001):
        flow, y, pivots, capped, refused, slots, _ = mrflp.transport._simplex_bases(c, r, s, cap, start)
        ref_flow, ref_basic, ref_y, ref_pivots, ref_capped = oracles.reference_simplex(c, r, s, cap, ref_start, roots)
        np.testing.assert_array_equal(pivots, ref_pivots)
        np.testing.assert_array_equal(capped, ref_capped)
        assert not refused.any()
        np.testing.assert_array_equal(basic_arcs(slots, c.shape), ref_basic)
        np.testing.assert_array_equal(flow.view(np.uint64), ref_flow.view(np.uint64))
        assert np.all(np.abs(y - ref_y)[~capped] <= tol[~capped, None])
        if not capped.any():
            return pivots
    raise AssertionError("no problem finished within 1000 pivots")


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
        assert res.plan.shape == basis(res).shape == (2, 1, 2)
        assert res.cost.shape == res.pivots.shape == (2,)
        assert res.row_potentials.shape == (2, 1) and res.col_potentials.shape == (2, 2)
        np.testing.assert_allclose(res.plan, [[[0.25, 0.75]], [[0.5, 0.5]]])
        one = M.solve_transport(M.TransportProblem(np.zeros((1, 2)), [2.0], [1.0, 3.0]))
        assert one.plan.shape == (1, 2)
        assert type(one.cost) is float and type(one.pivots) is int


@pytest.mark.parametrize("cost, row, col", [
    ([[0.0, np.nan]], [1.0], [0.5, 0.5]),
    ([[0.0, 1.0]], [np.inf], [0.5, 0.5]),
    ([[0.0, 1.0]], [1.0], [0.5, np.nan]),
], ids=["cost", "row", "column"])
def test_problem_refuses_non_finite_entries(cost, row, col):
    with pytest.raises(ValueError, match="cost and marginals must be finite"):
        M.TransportProblem(cost, row, col)


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
            assert np.max(np.abs(slack[basis(res)])) <= 1e-9
            # duality: certified value equals the plan cost
            dual_val = res.row_potentials @ p.row_marginal + res.col_potentials @ p.col_marginal
            assert dual_val == pytest.approx(res.cost, abs=1e-9)

    def test_zero_marginal_entries_keep_basis_size(self):
        p = M.TransportProblem([[1.0, 2.0, 3.0]] * 3, [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
        res = M.solve_transport(p)
        assert basis(res).sum() == 5  # n + m - 1 arcs, zero flows included
        assert res.plan[0, 1] == pytest.approx(1.0)

    def test_batch_matches_single_solves(self):
        rng = np.random.default_rng(8)
        k = 300
        cost = np.where(rng.random((k, 3, 4)) < 0.3, 1e6, rng.integers(0, 3, (k, 3, 4)).astype(float))
        r = rng.random((k, 3)) * (rng.random((k, 3)) > 0.2) + np.array([0.1, 0.0, 0.0])
        s = rng.random((k, 4)) * (rng.random((k, 4)) > 0.2) + np.array([0.0, 0.0, 0.0, 0.1])
        res = M.solve_transport(M.TransportProblem(cost, r, s))
        # the problems finish in different rounds of the lockstep
        assert res.pivots.min() < res.pivots.max()
        for i in range(k):
            one = M.solve_transport(M.TransportProblem(cost[i], r[i], s[i]))
            np.testing.assert_array_equal(one.plan, res.plan[i])
            np.testing.assert_array_equal(basis(one), basis(res)[i])
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
            assert basis(res).sum() == n + m - 1
            slack = p.cost - res.row_potentials[:, None] - res.col_potentials[None, :]
            assert slack.min() >= -tol
            assert np.max(np.abs(slack[basis(res)])) <= tol
            dual_val = res.row_potentials @ p.row_marginal + res.col_potentials @ p.col_marginal
            assert dual_val == pytest.approx(res.cost, abs=tol)

    def test_pivot_cap_names_the_problem(self, monkeypatch):
        # both stars root at row 0, which no column outweighs; the first problem is optimal
        # at its star basis, where row 1 hangs from column 1; the second's star hangs row 1
        # from column 0, which then ships 0.5 into a column that takes 0.25, and one dual
        # pivot moves the excess onto the 50
        p = M.TransportProblem([[[0.0, 1.0, 1.0], [1.0, 0.0, 1.0]], [[1.0, 2.0, 0.0], [3.0, 100.0, 50.0]]],
                               np.full((2, 2), 0.5), [[0.5, 0.5, 0.0], [0.25, 0.25, 0.5]])
        assert M.solve_transport(p).pivots.tolist() == [0, 1]
        cap_pivots_at_zero(monkeypatch)
        with pytest.raises(NumericalError, match="exceeded 0 pivots") as err:
            M.solve_transport(p)
        assert err.value.problem == 1

    def test_empty_stack(self):
        p = M.TransportProblem(np.zeros((0, 2, 3)), np.zeros((0, 2)), np.zeros((0, 3)))
        res = M.solve_transport(p)
        assert res.plan.shape == (0, 2, 3) and res.cost.shape == res.pivots.shape == (0,)
        assert res.row_potentials.shape == (0, 2) and res.simplex_basis.inverse.shape == (0, 5, 4)
        assert M.solve_transport(p, start=res.simplex_basis).plan.shape == (0, 2, 3)

    def test_never_better_than_product_plan(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            n, m = rng.integers(2, 5), rng.integers(2, 5)
            p = M.TransportProblem(rng.uniform(0, 3, (n, m)), rng.random(n), rng.random(m))
            res = M.solve_transport(p)
            product_cost = float(p.row_marginal @ p.cost @ p.col_marginal)
            assert res.cost <= product_cost + 1e-12


class TestSimplexKernel:
    """The maintained-inverse simplex against the reference that inverts
    every basis from scratch."""

    def test_degenerate_problems(self):
        for p, _ in degenerate_problems(2, 150):
            assert_same_pivot_path(p)

    def test_tied_stack_over_several_chunks(self):
        pivots = assert_same_pivot_path(tied_stack(3))
        assert pivots.min() < pivots.max()

    def test_long_pivot_paths(self):
        # from the star rooted at row 0 about 1 in 15 random 5x5 problems needs 10 pivots
        # or more, from the star at the heaviest node about 1 in 90
        rng = np.random.default_rng(4)
        p = M.TransportProblem(rng.random((1000, 5, 5)), rng.random((1000, 5)), rng.random((1000, 5)))
        long = oracles.reference_simplex(p.cost, p.row_marginal, p.col_marginal, 1000)[3] >= 10
        long_cold = M.solve_transport(p).pivots >= 10
        assert long.sum() >= 10 and long_cold.sum() >= 10
        assert_same_pivot_path(sub_stack(p, long), roots=0)
        assert_same_pivot_path(sub_stack(p, long_cold))

    def test_start_from_other_costs_is_refused(self):
        # the star of other costs, on problems where its flows are feasible (mostly where
        # row 0 has most of the mass), takes no dual pivot; where its plan costs more than
        # the optimum it cannot be dual feasible, and the solve names the first such
        # problem after problems started from their own stars, on random and on tied costs
        rng = np.random.default_rng(22)
        heavy = np.array([3.0, 0.0, 0.0, 0.0])
        random = M.TransportProblem(rng.random((1000, 4, 5)), rng.random((1000, 4)) + heavy, rng.random((1000, 5)))
        tied = tied_stack(23)
        tied = M.TransportProblem(tied.cost, tied.row_marginal + heavy, tied.col_marginal)
        for p, other in ((random, rng.random((1000, 4, 5))), (tied, tied_stack(24).cost)):
            slots, inv = mrflp.transport._star_start(other)
            x = np.einsum("qij,qi->qj", inv, np.concatenate([p.row_marginal, p.col_marginal], axis=1))
            start_cost = (np.take_along_axis(p.cost.reshape(len(x), -1), slots, axis=1) * x).sum(axis=1)
            worse = (x >= -NONNEG_TOL).all(axis=1) & (start_cost > M.solve_transport(p).cost + 1e-6)
            assert worse.sum() >= 50
            for head in (0, 3):
                own = mrflp.transport._star_start(p.cost[:head])
                pick = np.concatenate([np.arange(head), np.flatnonzero(worse)])
                start = mrflp.transport.SimplexBasis(np.concatenate([own[0], slots[worse]]),
                                                     np.concatenate([own[1], inv[worse]]))
                with pytest.raises(NumericalError, match="not dual feasible") as err:
                    M.solve_transport(sub_stack(p, pick), start=start)
                assert err.value.problem == head

    def test_no_dense_inverse(self, monkeypatch):
        # the star's inverse is written down and kept across pivots, never inverted
        calls = []
        inv = np.linalg.inv
        monkeypatch.setattr(mrflp.transport.np.linalg, "inv", lambda a: calls.append(a.shape[0]) or inv(a))
        res = M.solve_transport(tied_stack(5))
        assert res.pivots.max() > 0
        assert calls == []

    def test_tree_built_inverse(self):
        # the star's int8 inverse equals the rounded dense inverse of its basis equations
        # with the gauge at its root, for every shape from 1x1 to 5x5 and every root
        problems = [p for p, _ in degenerate_problems(6, 400)] + [tied_stack(7)]
        shapes = set()
        for p in problems:
            c = p.cost.reshape(-1, *p.cost.shape[-2:])
            k, n, m = c.shape
            nb = n + m - 1
            shapes.add((n, m))
            for roots in star_roots(p, 8):
                arcs, inv = mrflp.transport._star_start(c, roots)
                q, t = np.arange(k)[:, None], np.arange(nb)
                eqs = np.zeros((k, n + m, n + m))
                eqs[q, t, arcs // m] = eqs[q, t, n + arcs % m] = eqs[np.arange(k), nb, roots] = 1.0
                assert inv.dtype == np.int8
                np.testing.assert_array_equal(inv, np.rint(np.linalg.inv(eqs))[:, :, :nb])
                np.testing.assert_array_equal(mrflp.transport._gauge(inv), roots)
        assert shapes == {(n, m) for n in range(1, 6) for m in range(1, 6)}


def star_roots(p, seed):
    """Roots of star starts for a problem or a stack: every node for all
    problems, the heaviest nodes where a cold solve roots them, and a random
    node for each problem."""
    c = p.cost.reshape(-1, *p.cost.shape[-2:])
    k, n, m = c.shape
    yield from (np.full(k, root) for root in range(n + m))
    yield mrflp.transport._star_roots(p.row_marginal.reshape(k, n), p.col_marginal.reshape(k, m))
    yield np.random.default_rng(seed).integers(0, n + m, k)


def star_problems(seed):
    """Problems for the star start: degenerate ones of every shape up to
    5x5, a padded and a tied stack, negative costs, entries of 1e6, and
    stacks of 1x1, 1x4 and 4x1 problems."""
    rng = np.random.default_rng(seed)
    yield from (p for p, _ in degenerate_problems(seed, 200))
    yield padded_stack(seed)
    yield tied_stack(seed)
    yield M.TransportProblem(rng.uniform(-5.0, -1.0, (50, 4, 3)), rng.random((50, 4)), rng.random((50, 3)))
    yield M.TransportProblem(np.where(rng.random((50, 3, 4)) < 0.5, 1e6, rng.uniform(-1.0, 1.0, (50, 3, 4))),
                             rng.random((50, 3)), rng.random((50, 4)))
    for n, m in ((1, 1), (1, 4), (4, 1)):
        yield M.TransportProblem(rng.uniform(-2.0, 2.0, (20, n, m)), rng.random((20, n)) + 0.1, rng.random((20, m)) + 0.1)


class TestStarStart:
    """The star basis that every cold solve starts from."""

    def test_dual_feasible_with_balanced_flows(self):
        # rooted at row p, its potentials are u_p = 0, v_j = c_pj and u_i = min_j (c_ij -
        # c_pj), and mirrored at a column root; no reduced cost is below the pivot
        # tolerance, and inverse^T [r; s] meets the marginals; for every root
        for p in star_problems(25):
            c = p.cost.reshape(-1, *p.cost.shape[-2:])
            k, n, m = c.shape
            r, s = p.row_marginal.reshape(k, n), p.col_marginal.reshape(k, m)
            for roots in star_roots(p, 26):
                slots, inv = mrflp.transport._star_start(c, roots)
                y = np.einsum("qij,qj->qi", inv, np.take_along_axis(c.reshape(k, -1), slots, axis=1))
                by_row, q = roots < n, np.arange(k)
                hub_row, hub_col = c[q, np.where(by_row, roots, 0)], c[q, :, np.where(by_row, 0, roots - n)]
                np.testing.assert_array_equal(y[q, roots], 0.0)
                np.testing.assert_array_equal(y[:, :n], np.where(by_row[:, None], (c - hub_row[:, None]).min(axis=2),
                                                                  hub_col))
                np.testing.assert_array_equal(y[:, n:], np.where(by_row[:, None], hub_row,
                                                                  (c - hub_col[:, :, None]).min(axis=1)))
                tol = PIVOT_TOL * np.maximum(1.0, np.abs(c).max(axis=(1, 2)))
                assert np.all(c - y[:, :n, None] - y[:, None, n:] >= -tol[:, None, None])
                plan = np.zeros((k, n * m))
                np.put_along_axis(plan, slots, np.einsum("qij,qi->qj", inv, np.concatenate([r, s], axis=1)), axis=1)
                plan = plan.reshape(k, n, m)
                assert np.abs(plan.sum(axis=2) - r).max() <= 1e-15
                assert np.abs(plan.sum(axis=1) - s).max() <= 1e-15

    def test_cold_solves_root_at_the_heaviest_node(self):
        # the first heaviest row, unless a column is strictly heavier; a column root's
        # arcs from every row take the first slots
        p = M.TransportProblem(np.arange(36.0).reshape(3, 3, 4) % 5,
                               [[1, 3, 3], [1, 1, 1], [2, 1, 1]], [[1, 1, 1, 1], [1, 1, 0.5, 0.5], [1, 0, 1, 3]])
        roots = mrflp.transport._star_roots(p.row_marginal, p.col_marginal)
        np.testing.assert_array_equal(roots, [1, 0, 3 + 3])
        slots, _ = mrflp.transport._star_start(p.cost, roots)
        np.testing.assert_array_equal(slots[:2, :4], [np.arange(4) + 4, np.arange(4)])
        np.testing.assert_array_equal(slots[2, :3], [3, 7, 11])
        # the root's potential is the gauge, kept through the pivots
        cold = M.solve_transport(p)
        np.testing.assert_array_equal(mrflp.transport._gauge(cold.simplex_basis.inverse), roots)
        assert cold.row_potentials[0, 1] == cold.row_potentials[1, 0] == cold.col_potentials[2, 3] == 0.0

    def test_uniform_marginals_keep_the_row_0_star(self):
        # fpd's first projection: with n <= m uniform marginals root every star at row 0,
        # whose slots and inverse are those of the star that cold solves always took
        rng = np.random.default_rng(27)
        for n, m in ((4, 4), (3, 5), (1, 3), (2, 2)):
            c = rng.random((50, n, m))
            p = M.TransportProblem(c, np.ones((50, n)), np.ones((50, m)))
            np.testing.assert_array_equal(mrflp.transport._star_roots(p.row_marginal, p.col_marginal), 0)
            slots, inv = mrflp.transport._star_start(c, 0)
            col = (c[:, 1:] - c[:, :1]).argmin(axis=2)
            np.testing.assert_array_equal(slots, np.concatenate([np.broadcast_to(np.arange(m), (50, m)),
                                                                 np.arange(m, n * m, m) + col], axis=1))
            row_0 = np.zeros((50, n + m, n + m - 1), dtype=np.int8)
            row_0[:, n:, :m] = np.eye(m, dtype=np.int8)
            row_0[:, np.arange(1, n), np.arange(m, n + m - 1)] = 1
            row_0[np.arange(50)[:, None], np.arange(1, n), col] = -1
            np.testing.assert_array_equal(inv, row_0)
        # with more rows than columns a column is strictly heavier
        p = M.TransportProblem(rng.random((5, 4, 3)), np.ones((5, 4)), np.ones((5, 3)))
        np.testing.assert_array_equal(mrflp.transport._star_roots(p.row_marginal, p.col_marginal), 4)

    def test_the_heaviest_root_halves_the_pivots(self):
        # on sparse marginals the star at the heaviest node starts much nearer the
        # optimum than the star at row 0: 30-35% of its pivots on five seeds
        rng = np.random.default_rng(28)
        p = M.TransportProblem(rng.random((500, 4, 4)), rng.dirichlet(np.full(4, 0.2), 500),
                               rng.dirichlet(np.full(4, 0.2), 500))
        row_0 = mrflp.transport._simplex_bases(p.cost, p.row_marginal, p.col_marginal, 1000,
                                               mrflp.transport._star_start(p.cost))[2]
        assert M.solve_transport(p).pivots.sum() <= 0.5 * row_0.sum()


class TestEntropicTransport:
    def test_zero_cost_uniform_gives_product(self):
        p = M.TransportProblem(np.zeros((2, 2)), [0.5, 0.5], [0.5, 0.5])
        res = M.solve_transport_entropic(p, 1.0, 1, p.row_marginal, p.col_marginal)
        np.testing.assert_allclose(res.plan, 0.25, atol=1e-9)

    def test_a_non_finite_direction_stops_its_problem_quietly(self, monkeypatch):
        # an infinite Newton direction at problem 0's zero-mass first row makes
        # its slope inf * 0: that problem stops at its start, with no
        # RuntimeWarning, and problem 1 solves as it does alone
        rng = np.random.default_rng(4)
        r = rng.random((2, 3)) + 0.1
        r[0, 0] = 0.0
        p = M.TransportProblem(rng.random((2, 3, 3)), r, rng.random((2, 3)) + 0.1)
        alone = M.solve_transport_entropic(p, 0.1, 1, p.row_marginal, p.col_marginal)
        solve = np.linalg.solve

        def infinite_first_row(a, b):
            x = solve(a, b)
            if len(x) == 2:
                x[0, 0] = np.inf
            return x

        monkeypatch.setattr(np.linalg, "solve", infinite_first_row)
        res = M.solve_transport_entropic(p, 0.1, 1, p.row_marginal, p.col_marginal)
        assert res.iterations[0] == 0 and alone.iterations[0] > 0
        assert np.isfinite(res.plan).all()
        np.testing.assert_array_equal(res.plan[1], alone.plan[1])
        assert res.iterations[1] == alone.iterations[1]

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

    def test_empty_stack(self):
        p = M.TransportProblem(np.zeros((0, 2, 3)), np.zeros((0, 2)), np.zeros((0, 3)))
        res = M.solve_transport_entropic(p, 0.5, 1, p.row_marginal, p.col_marginal)
        assert res.plan.shape == (0, 2, 3)
        assert res.objective.shape == res.iterations.shape == res.residual.shape == (0,)

    @pytest.mark.parametrize("edge_count, ref_row, ref_col, message", [
        (np.nan, [0.5, 0.5], [0.5, 0.5], "edge_count"),
        (np.inf, [0.5, 0.5], [0.5, 0.5], "edge_count"),
        (1, [np.nan, 0.5], [0.5, 0.5], "reference"),
        (1, [0.5, 0.5], [0.5, np.inf], "reference"),
        (1, [-0.1, 0.5], [0.5, 0.5], "reference"),
        (1, [0.5, 0.5], [0.5, -np.inf], "reference"),
    ], ids=["count-nan", "count-inf", "row-nan", "col-inf", "row-negative", "col-minus-inf"])
    def test_bad_arguments_are_refused(self, edge_count, ref_row, ref_col, message):
        # each once came out as a NaN plan, a RuntimeWarning or a floored log
        p = M.TransportProblem(np.array([[0.0, 1.0], [1.0, 0.0]]), [0.5, 0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match=message):
            M.solve_transport_entropic(p, 0.5, edge_count, np.array(ref_row), np.array(ref_col))

    def test_batch_arguments_must_match(self):
        p = M.TransportProblem(np.zeros((2, 2, 2)), np.full((2, 2), 0.5), np.full((2, 2), 0.5))
        with pytest.raises(ValueError):
            M.solve_transport_entropic(p, 1.0, [1, 1, 1], np.full(2, 0.5), np.full(2, 0.5))
        with pytest.raises(ValueError):
            M.solve_transport_entropic(p, 1.0, [1, 0], np.full(2, 0.5), np.full(2, 0.5))
        with pytest.raises(ValueError):
            M.solve_transport_entropic(p, 1.0, 1, np.full(3, 0.5), np.full(2, 0.5))


def newton_calls(monkeypatch, solve):
    """Every Newton kernel call made by ``solve()``, which must raise no
    ``RuntimeWarning``, stack-first: its exponents and marginals, then its
    plans, step counts and residuals."""
    calls = []
    kernel = mrflp.transport._newton

    def record(logk, r, s):
        inputs = logk.transpose(2, 0, 1).copy(), r.T.copy(), s.T.copy()
        plan, iterations, residual = kernel(logk, r, s)
        calls.append((*inputs, plan.transpose(2, 0, 1), iterations, residual))
        return plan, iterations, residual

    monkeypatch.setattr(mrflp.transport, "_newton", record)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        solve()
    monkeypatch.undo()
    assert calls
    return calls


class TestStackLastSums:
    """Sums over a stack-last stack give the floats of numpy's stack-first
    sums, which add a contiguous row pairwise from 8 entries on."""

    def test_contiguous_rows(self):
        rng = np.random.default_rng(0)
        for count in range(1, 300):
            a = rng.standard_normal((3, count)) * 10.0 ** rng.integers(-8, 9, (3, count))
            np.testing.assert_array_equal(mrflp.transport._fsum(a.T.copy()), a.sum(axis=1))

    @pytest.mark.parametrize("shape", [(3, 4, 4), (1, 9, 1), (5, 12, 1), (4, 1, 12), (2, 10, 9), (6, 13, 11)])
    def test_rows_columns_and_tables(self, shape):
        k, n, m = shape
        rng = np.random.default_rng(k * n * m)
        a = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
        at = a.transpose(1, 2, 0).copy()
        np.testing.assert_array_equal(mrflp.transport._sums(at, 1), a.sum(axis=2).T)
        np.testing.assert_array_equal(mrflp.transport._sums(at, 0), a.sum(axis=1).T)
        np.testing.assert_array_equal(mrflp.transport._fsum(at.reshape(n * m, k)), a.sum(axis=(1, 2)))


class TestNewtonAgainstReference:
    """The stack-last Newton kernel against the stack-first one it replaced
    (``oracles.reference_newton``): bit-equal plans, Newton steps and
    residuals on every call."""

    def check(self, monkeypatch, solve):
        calls = newton_calls(monkeypatch, solve)
        for logk, r, s, plan, iterations, residual in calls:
            with np.errstate(divide="ignore", over="ignore"):
                ref_plan, ref_iterations, ref_residual = oracles.reference_newton(logk, r, s)
            np.testing.assert_array_equal(plan, ref_plan)
            np.testing.assert_array_equal(iterations, ref_iterations)
            np.testing.assert_array_equal(residual, ref_residual)
        return calls

    @pytest.mark.parametrize("rho", [0.1, 0.05, 0.025])
    def test_grid_smooth_stacks(self, monkeypatch, rho):
        # the benchmark's grid-smooth instance at its smoothing levels: one
        # stack of 180 4x4 problems, marginals from the smoothed dual
        m = M.generate_grid(10, 10, 4, law="uniform01", seed=0)
        d = M.decompose_grid(m)
        lam = np.random.default_rng(1).normal(scale=0.3, size=m.packing().node_dim)
        _, _, (m1, m2) = M.DualContext(m, d).smoothed(lam, rho)
        calls = self.check(monkeypatch, lambda: M.project_primal_free_energy(m, d, (m1 + m2) / 2.0, rho))
        assert calls[0][4].max() > 1

    def test_degenerate_problems(self, monkeypatch):
        problems = list(degenerate_problems(3, 150))
        self.check(monkeypatch, lambda: [M.solve_transport_entropic(p, rho, 1, p.row_marginal, p.col_marginal)
                                         for p, rho in problems])

    @pytest.mark.parametrize("rho", [0.05, 0.5])
    def test_padded_stack(self, monkeypatch, rho):
        p = padded_stack(9)
        self.check(monkeypatch, lambda: M.solve_transport_entropic(p, rho, 1, p.row_marginal, p.col_marginal))

    @pytest.mark.parametrize("shape", [(1, 5), (1, 12), (5, 1), (12, 1), (9, 10), (12, 12)])
    def test_thin_and_wide_problems(self, monkeypatch, shape):
        # stack-first, rows of 8 or more entries (a table's row, its
        # column when it has one column, or all of its cells) are summed
        # pairwise, and past 128 entries in halves
        n, m = shape
        rng = np.random.default_rng(n * m)
        r = rng.random((20, n)) * (rng.random((20, n)) > 0.2) + (np.arange(n) == 0)
        s = rng.random((20, m)) * (rng.random((20, m)) > 0.2) + (np.arange(m) == 0)
        p = M.TransportProblem(rng.uniform(-1, 1, (20, n, m)), r, s)
        self.check(monkeypatch, lambda: M.solve_transport_entropic(p, 0.1, 1, p.row_marginal, p.col_marginal))

    def test_underflow_instance(self, monkeypatch):
        # the LP-tight grid's first smoothed projection at rho 2: 2,468
        # entries of exp(logk) are 0, and 7 edges stall above 1e-9
        model, _ = M.generate_lp_tight(20, 20, 3, 25.0, 1e6, 0.4, seed=0)
        d = M.decompose_grid(model)
        _, _, (m1, m2) = M.DualContext(model, d).smoothed(np.zeros(model.packing().node_dim), 2.0)
        [(logk, *_, residual)] = self.check(
            monkeypatch, lambda: M.project_primal_free_energy(model, d, (m1 + m2) / 2.0, 2.0))
        with np.errstate(divide="ignore"):
            assert np.count_nonzero(np.exp(logk) == 0.0) == 2468
        assert np.count_nonzero(residual > 1e-9) == 7 and 1.3e-7 < residual.max() < 1.4e-7


def other_marginals(problem, seed):
    """The same costs with fresh random marginals: about 30% of the entries
    are zero, and so is every entry where the problem's own is zero."""
    rng = np.random.default_rng(seed)

    def draw(a):
        fresh = (rng.random(a.shape) + 0.01) * ((a > 0.0) & (rng.random(a.shape) > 0.3))
        first = np.argmax(a > 0.0, axis=-1)[..., None]
        np.put_along_axis(fresh, first, np.take_along_axis(fresh, first, axis=-1) + 0.1, axis=-1)
        return fresh

    return M.TransportProblem(problem.cost, draw(problem.row_marginal), draw(problem.col_marginal))


def assert_warm_matches_cold(problem, start):
    """Warm from ``start`` against cold: equal costs, equal plans where the
    cold optimum is unique, and potentials that certify the warm plans."""
    warm = M.solve_transport(problem, start=start)
    cold = M.solve_transport(problem)
    c = problem.cost.reshape(-1, *problem.cost.shape[-2:])
    k = c.shape[0]
    tol = 1e-9 * np.maximum(1.0, np.abs(c).max(axis=(1, 2)))
    assert np.all(np.abs(np.reshape(warm.cost - cold.cost, k)) <= tol)
    # the cold optimum is unique where every nonbasic arc has a positive reduced cost
    cold_slack = c - np.reshape(cold.row_potentials, (k, -1, 1)) - np.reshape(cold.col_potentials, (k, 1, -1))
    basic = basis(cold).reshape(c.shape)
    unique = np.all(basic | (cold_slack > tol[:, None, None]), axis=(1, 2))
    gap = np.abs(warm.plan - cold.plan).reshape(k, -1).max(axis=1)
    assert np.all(gap[unique] <= TRANSPORT_MARGINAL_TOL)
    slack = c - np.reshape(warm.row_potentials, (k, -1, 1)) - np.reshape(warm.col_potentials, (k, 1, -1))
    assert np.all(slack >= -tol[:, None, None])
    assert np.all(np.abs(np.where(basis(warm).reshape(c.shape), slack, 0.0)) <= tol[:, None, None])
    assert warm.plan.min() >= 0.0
    return warm


def padded_stack(seed, k=400):
    """A 4x5 stack laid out like a padded run's stored costs, priced for
    stars rooted at row 0: each problem has 1-4 real rows and 1-5 real
    columns, and padded rows and columns have zero mass.  Real costs are
    below 1, so no real arc's reduced cost reaches 36, which padded cells
    cost, but 0 in row 0 and row 0's cost in column 0."""
    rng = np.random.default_rng(seed)
    lu, lv = rng.integers(1, 5, k), rng.integers(1, 6, k)
    real = (np.arange(4)[:, None] < lu[:, None, None]) & (np.arange(5) < lv[:, None, None])
    cost = np.where(real, rng.random((k, 4, 5)), 36.0)
    cost[:, 0] = np.where(real[:, 0], cost[:, 0], 0.0)
    cost[:, 1:, 0] = np.where(real[:, 1:, 0], cost[:, 1:, 0], cost[:, :1, 0])
    r = rng.random((k, 4)) * (np.arange(4) < lu[:, None]) + (np.arange(4) == 0)
    s = rng.random((k, 5)) * (np.arange(5) < lv[:, None]) + (np.arange(5) == 0)
    return M.TransportProblem(cost, r, s)


def misses(problem, start):
    """The problems of a stack whose warm start flows are not all feasible."""
    x = np.einsum("qij,qi->qj", start.inverse, np.concatenate([problem.row_marginal, problem.col_marginal], axis=1))
    return (x < -NONNEG_TOL).any(axis=1)


def sub_stack(problem, mask):
    return M.TransportProblem(problem.cost[mask], problem.row_marginal[mask], problem.col_marginal[mask])


class TestWarmStart:
    """Warm starts from the bases of the same costs for other marginals,
    against cold solves."""

    def test_random_stacks(self):
        rng = np.random.default_rng(31)
        cost = rng.random((500, 4, 4))
        start = M.solve_transport(M.TransportProblem(cost, rng.random((500, 4)), rng.random((500, 4))))
        for _ in range(4):
            problem = M.TransportProblem(cost, rng.random((500, 4)), rng.random((500, 4)))
            warm = assert_warm_matches_cold(problem, start.simplex_basis)
            assert 0 < (warm.pivots == 0).sum() < 500
            start = warm

    def test_degenerate_problems(self):
        pivots = 0
        for i, (p, _) in enumerate(degenerate_problems(8, 300)):
            start = M.solve_transport(other_marginals(p, i))
            pivots += assert_warm_matches_cold(p, start.simplex_basis).pivots
            assert_warm_matches_cold(other_marginals(p, 1000 + i), start.simplex_basis)
        assert pivots > 0

    def test_tied_stack(self):
        p = tied_stack(9)
        rng = np.random.default_rng(10)
        start = M.solve_transport(M.TransportProblem(p.cost, rng.integers(0, 3, (600, 4)) + np.array([1, 0, 0, 0]),
                                                     rng.integers(0, 3, (600, 5)) + np.array([0, 0, 0, 0, 1])))
        warm = assert_warm_matches_cold(p, start.simplex_basis)
        assert warm.pivots.max() > 0

    def test_padded_stack(self):
        p = padded_stack(11)
        start = M.solve_transport(other_marginals(p, 12))
        warm = assert_warm_matches_cold(p, start.simplex_basis)
        # padded cells carry round-off at most
        padded = (p.row_marginal == 0.0)[:, :, None] | (p.col_marginal == 0.0)[:, None, :]
        assert np.abs(warm.plan[padded]).max() <= 1e-15
        assert warm.pivots.max() > 0

    def test_dual_phase_keeps_the_bases_dual_feasible(self):
        # the dual pivots alone end at an optimal basis: feasible flows, no
        # negative reduced cost, and an inverse that is still exact
        rng = np.random.default_rng(19)
        random = M.TransportProblem(rng.random((500, 4, 4)), rng.random((500, 4)), rng.random((500, 4)))
        for problem in (random, tied_stack(17), padded_stack(18)):
            other = other_marginals(problem, 21)
            start = M.solve_transport(other).simplex_basis
            c = problem.cost
            k, n, m = c.shape
            nb = n + m - 1
            arcs, inv = start.slots.copy(), start.inverse.copy()
            x = np.einsum("qij,qi->qj", inv, np.concatenate([problem.row_marginal, problem.col_marginal], axis=1))
            pivots, capped = mrflp.transport._dual_phase(c.reshape(k, -1), n, m, arcs, x, inv, 1000)
            assert pivots.max() > 0 and not capped.any()
            assert x.min() >= -NONNEG_TOL
            q, t = np.arange(k)[:, None], np.arange(nb)
            eqs = np.zeros((k, n + m, n + m))
            # the gauge is the root of the cold star that the start came from
            gauge = mrflp.transport._star_roots(other.row_marginal, other.col_marginal)
            eqs[q, t, arcs // m] = eqs[q, t, n + arcs % m] = eqs[np.arange(k), nb, gauge] = 1.0
            np.testing.assert_array_equal(inv, np.rint(np.linalg.inv(eqs))[:, :, :nb])
            y = np.einsum("qij,qj->qi", inv, np.take_along_axis(c.reshape(k, -1), arcs, axis=1))
            reduced = c - y[:, :n, None] - y[:, None, n:]
            assert reduced.min() >= -1e-9 * max(1.0, float(np.abs(c).max()))

    def test_all_hits_keep_the_bases(self):
        p = tied_stack(13)
        cold = M.solve_transport(p)
        warm = M.solve_transport(p, start=cold.simplex_basis)
        assert warm.pivots.max() == 0
        np.testing.assert_array_equal(warm.simplex_basis.slots, cold.simplex_basis.slots)
        np.testing.assert_array_equal(warm.simplex_basis.inverse, cold.simplex_basis.inverse)
        assert np.abs(warm.plan - cold.plan).max() <= 1e-15
        again = M.solve_transport(p, start=warm.simplex_basis)
        np.testing.assert_array_equal(again.plan.view(np.uint64), warm.plan.view(np.uint64))
        assert again.pivots.max() == 0

    def test_all_misses(self):
        rng = np.random.default_rng(14)
        cost = rng.random((600, 4, 4))
        first = M.TransportProblem(cost, rng.random((600, 4)), rng.random((600, 4)))
        second = M.TransportProblem(cost, rng.random((600, 4)), rng.random((600, 4)))
        miss = misses(second, M.solve_transport(first).simplex_basis)
        assert miss.sum() >= 100
        start = M.solve_transport(sub_stack(first, miss)).simplex_basis
        warm = assert_warm_matches_cold(sub_stack(second, miss), start)
        assert warm.pivots.min() >= 1

    def test_capped_warm_start_names_the_problem(self, monkeypatch):
        rng = np.random.default_rng(15)
        cost = rng.random((200, 3, 3))
        first = M.TransportProblem(cost, rng.random((200, 3)), rng.random((200, 3)))
        second = M.TransportProblem(cost, rng.random((200, 3)), rng.random((200, 3)))
        miss = misses(second, M.solve_transport(first).simplex_basis)
        # a hit, then a miss
        pick = np.array([np.flatnonzero(~miss)[0], np.flatnonzero(miss)[0]])
        start = M.solve_transport(sub_stack(first, pick)).simplex_basis
        problem = sub_stack(second, pick)
        assert M.solve_transport(problem, start=start).pivots[0] == 0
        cap_pivots_at_zero(monkeypatch)
        with pytest.raises(NumericalError, match="exceeded 0 pivots") as err:
            M.solve_transport(problem, start=start)
        assert err.value.problem == 1

    def test_round_off_negative_flow_without_entering_arc_is_clipped(self):
        # the star basis of this problem is (0, 0), (0, 1), (1, 1): column 0 is a
        # leaf, so its flow is s_0, and only (1, 0) is nonbasic, which lowers that
        # flow; a slightly negative s_0 has no entering arc
        c = np.array([[[0.0, 0.0], [1.0, 0.0]]])
        half = np.full((1, 2), 0.5)
        s = np.array([[-5e-12, 1.0 + 5e-12]])
        star = mrflp.transport._star_start(c)
        flow, _, pivots, capped, refused, slots, _ = mrflp.transport._simplex_bases(c, half, s, 1000, start=star)
        assert pivots.tolist() == [0] and not (capped | refused).any()
        np.testing.assert_array_equal(basic_arcs(slots, c.shape), [[[True, True], [False, True]]])
        assert flow.min() == 0.0 and flow[0, 0, 0] == 0.0

    def test_start_must_match_the_stack(self):
        p = tied_stack(16, k=5)
        start = M.solve_transport(tied_stack(16, k=4)).simplex_basis
        with pytest.raises(ValueError, match="shape"):
            M.solve_transport(p, start=start)


def reduced(problem, u, v):
    """The problem on the costs ``c_ij - u_i - v_j``, with its marginals."""
    shifted = problem.cost - np.expand_dims(u, -1) - np.expand_dims(v, -2)
    return M.TransportProblem(shifted, problem.row_marginal, problem.col_marginal)


class TestSeededEntropic:
    """A seed, the costs shifted by row and column potentials, never moves
    the entropic optimum: with the marginals fixed, the shift moves the
    objective by a constant.  Where the seeded and the cold solve both
    converge, their plans agree; the seed is the exact solve's potentials
    or random finite ones.  The exact seed converges on every problem."""

    @staticmethod
    def compare(problem, rho, u, v):
        """Masks of the stack's problems that the cold and the seeded solve
        converged on; where both did, their plans must agree."""
        cold = M.solve_transport_entropic(problem, rho, 1, problem.row_marginal, problem.col_marginal)
        q = reduced(problem, u, v)
        seeded = M.solve_transport_entropic(q, rho, 1, q.row_marginal, q.col_marginal)
        masks = [np.atleast_1d(res.residual <= TRANSPORT_MARGINAL_TOL) for res in (cold, seeded)]
        diff = np.abs(seeded.plan - cold.plan).reshape(masks[0].size, -1).max(axis=1)
        assert np.all(diff[masks[0] & masks[1]] <= 1e-9)
        return masks

    def test_degenerate_problems(self):
        rng = np.random.default_rng(5)
        problems = list(degenerate_problems(4, 150))
        both = 0
        for p, rho in problems:
            exact = M.solve_transport(p)
            n, m = p.cost.shape
            assert all(self.compare(p, rho, exact.row_potentials, exact.col_potentials)[1])
            cold, seeded = self.compare(p, rho, rng.normal(scale=10.0, size=n), rng.normal(scale=10.0, size=m))
            both += int((cold & seeded).sum())
        # a cold start stalls on about one problem in six here
        assert both >= 0.75 * len(problems)

    @pytest.mark.parametrize("rho", [0.05, 0.5])
    def test_padded_stack(self, rho):
        p = padded_stack(9)
        exact = M.solve_transport(p)
        rng = np.random.default_rng(6)
        k, n, m = p.cost.shape
        assert self.compare(p, rho, exact.row_potentials, exact.col_potentials)[1].all()
        cold, seeded = self.compare(p, rho, rng.normal(scale=10.0, size=(k, n)), rng.normal(scale=10.0, size=(k, m)))
        assert np.mean(cold & seeded) >= 0.9
