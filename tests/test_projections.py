import itertools
import re
import weakref

import numpy as np
import pytest

import mrflp as M
import mrflp.projections
import mrflp.transport
from mrflp._packing import PAD_WASTE, project_simplex_blocks
from mrflp.errors import NumericalError, StructureError
from mrflp.tolerances import TRANSPORT_MARGINAL_TOL

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


def project_simplex(v):
    """One-row call of the batched simplex projection."""
    return project_simplex_blocks(np.asarray(v, dtype=np.float64)[None])[0]


def padded_rows(blocks):
    """The blocks as rows of one width, padded with ``-inf``."""
    rows = np.full((len(blocks), max(b.size for b in blocks)), -np.inf)
    for row, b in zip(rows, blocks):
        row[: b.size] = b
    return rows


class TestSimplexProjection:
    def test_already_feasible(self):
        v = np.array([0.25, 0.25, 0.25, 0.25])
        np.testing.assert_allclose(project_simplex(v), v, atol=1e-15)

    def test_uniform_shift(self):
        np.testing.assert_allclose(project_simplex([0.6, 0.9]), [0.35, 0.65], atol=1e-15)

    def test_active_bound(self):
        np.testing.assert_allclose(project_simplex([2.0, 0.0]), [1.0, 0.0], atol=1e-15)

    def test_matches_active_set_enumeration(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            v = rng.uniform(-2, 2, rng.integers(1, 7))
            x = project_simplex(v)
            np.testing.assert_allclose(x, simplex_projection_bruteforce(v), atol=1e-10)
            assert x.min() >= 0.0
            assert x.sum() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed, family", [(0, "random"), (1, "ties"), (2, "near-1e6")])
    def test_closed_form_matches_the_iterative_projection(self, seed, family):
        # padded rows of 1-200 labels against the shift-and-clip oracle on the
        # same blocks, entry by entry to 1e-15 max(1, |x|); padding comes out 0
        rng = np.random.default_rng(seed)
        for _ in range(40):
            counts = rng.integers(1, 201, rng.integers(1, 12))
            if family == "random":
                blocks = [rng.uniform(-2, 2, c) * rng.choice([1e-3, 1.0, 1e2]) for c in counts]
            elif family == "ties":
                # few distinct values, and every third block constant
                blocks = [rng.choice([-0.5, 0.0, 1 / 3, 0.5, 1.0], c) if i % 3 else np.full(c, rng.uniform(-1, 1))
                          for i, c in enumerate(counts)]
            else:
                blocks = [1e6 + rng.uniform(-3, 3, c) for c in counts]
            rows = padded_rows(blocks)
            flat = np.concatenate(blocks)
            want = oracles.iterative_simplex_blocks(flat, np.cumsum(counts) - counts, counts)
            got = project_simplex_blocks(rows)
            real = np.isfinite(rows)
            assert np.all(got[~real] == 0.0)
            assert np.all(np.abs(got[real] - want) <= 1e-15 * np.maximum(1.0, np.abs(flat)))


class TestPrimalEnergyProjection:
    def test_zero_pairwise_keeps_feasible_node_blocks(self):
        m = M.MrfModel.create(
            [2, 2], [(0, 1)], [np.array([1.0, 2.0]), np.array([3.0, 4.0])], [np.zeros((2, 2))]
        )
        blocks = [np.array([0.3, 0.7]), np.array([0.9, 0.1])]
        proj = M.project_primal_energy(m, np.concatenate(blocks))
        np.testing.assert_allclose(proj.node_blocks[0], blocks[0], atol=1e-12)
        np.testing.assert_allclose(proj.node_blocks[1], blocks[1], atol=1e-12)
        unary_part = sum(float(m.unary[v] @ blocks[v]) for v in range(2))
        assert M.relaxed_energy(m, proj) == pytest.approx(unary_part, abs=1e-12)

    def test_integral_inputs_reproduce_embedding_energy(self):
        m = M.generate_grid(2, 3, 3, seed=3)
        x = np.array([0, 2, 1, 1, 0, 2])
        emb = M.embed_labeling(m, x)
        proj = M.project_primal_energy(m, emb.node_flat)
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
        proj = M.project_primal_energy(m, np.array([0.4, 0.6, 0.7, 0.3]))
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
            blocks = np.concatenate([rng.uniform(-1, 2, 3) for _ in range(9)])
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
        a = M.project_primal_energy(m, mu_with_junk_edges.node_flat)
        b = M.project_primal_energy(m, np.concatenate(blocks))
        np.testing.assert_array_equal(np.concatenate(a.node_blocks), np.concatenate(b.node_blocks))
        for ea, eb in zip(a.edge_blocks, b.edge_blocks):
            np.testing.assert_array_equal(ea, eb)

    def test_refused_start_names_the_edge(self, monkeypatch):
        # with an infinite pivot tolerance no basis is certified dual feasible
        monkeypatch.setattr(mrflp.transport, "PIVOT_TOL", -np.inf)
        m = M.generate_grid(1, 2, 2, seed=3)
        assert m.pairwise[0].shape == (2, 2)
        with pytest.raises(NumericalError, match=r"not dual feasible on edge \(0, 1\)"):
            M.project_primal_energy(m, np.full(4, 0.5))

    def test_infeasible_point_is_refused(self, monkeypatch):
        monkeypatch.setattr(mrflp.projections, "constraint_residual", lambda model, marginals: 1.0)
        m = M.generate_grid(1, 2, 2, seed=3)
        with pytest.raises(NumericalError, match="^projection produced an infeasible point$") as err:
            M.project_primal_energy(m, np.full(4, 0.5))
        assert err.value.residual == 1.0

    def test_plan_off_its_marginals_names_the_edge(self, monkeypatch):
        # flows 1% too large: the plan's rows sum to 0.505, not 0.5
        simplex = mrflp.transport._simplex_bases

        def scaled(*args):
            flow, *rest = simplex(*args)
            return (1.01 * flow, *rest)

        monkeypatch.setattr(mrflp.transport, "_simplex_bases", scaled)
        m = M.generate_grid(1, 2, 2, seed=3)
        with pytest.raises(NumericalError, match=r"^transport plan violates its marginals on edge \(0, 1\)$") as err:
            M.project_primal_energy(m, np.full(4, 0.5))
        assert err.value.residual == pytest.approx(0.005)

    def test_edge_blocks_match_single_edge_solves(self):
        # the batched call per (L_u, L_v) shape gives what each edge gives
        # alone, which the benchmark's per-edge pivot count relies on
        m = oracles.mixed_label_grid(3)
        rng = np.random.default_rng(6)
        for _ in range(5):
            blocks = np.concatenate([rng.random(c) * (rng.random(c) > 0.2) + 0.01 for c in m.label_counts])
            proj = M.project_primal_energy(m, blocks)
            for e, (u, v) in enumerate(m.edges):
                p = M.TransportProblem(m.pairwise[e], proj.node_blocks[u], proj.node_blocks[v])
                np.testing.assert_array_equal(M.solve_transport(p).plan, proj.edge_blocks[e])


class TestFlatInput:
    """The projections take flat vectors only, and name the shape they expect."""

    @pytest.mark.parametrize("shape", [(4, 2), (7,), (9,)])
    def test_node_vector_of_the_wrong_shape(self, shape):
        m = M.generate_grid(2, 2, 2, seed=0)
        blocks = np.full(shape, 0.5)
        with pytest.raises(ValueError, match=re.escape("expected (8,)")):
            M.project_primal_energy(m, blocks)
        with pytest.raises(ValueError, match=re.escape("expected (8,)")):
            M.project_primal_free_energy(m, M.decompose_grid(m), blocks, 0.5)

    @pytest.mark.parametrize("project", [
        M.project_primal_energy,
        lambda m, blocks: M.project_primal_free_energy(m, M.decompose_grid(m), blocks, 0.5),
    ], ids=["exact", "entropic"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_node_vector_must_be_finite(self, project, value):
        m = M.generate_grid(2, 2, 2, seed=0)
        blocks = np.full(8, 0.5)
        blocks[3] = value
        with pytest.raises(ValueError, match="node blocks must be finite"):
            project(m, blocks)

    @pytest.mark.parametrize("colors", [[0, 1, 0], [0, 1, 0, 1, 0]], ids=["short", "long"])
    def test_decomposition_of_the_wrong_length(self, colors):
        m = M.generate_grid(2, 2, 2, seed=0)
        with pytest.raises(StructureError, match="one color per edge"):
            M.project_primal_free_energy(m, M.Decomposition(colors), np.full(8, 0.5), 0.5)

    @pytest.mark.parametrize("shape", [(4, 6), (23,), (25,)])
    def test_dual_vector_of_the_wrong_shape(self, shape):
        m = M.generate_grid(2, 2, 2, seed=0)
        assert m.packing().dual_dim == 24
        with pytest.raises(ValueError, match=re.escape("expected (24,)")):
            M.project_dual(m, np.zeros(shape))


def projection_cases():
    """Models with mixed edge shapes, their decompositions, and flat node
    vectors to project."""
    rng = np.random.default_rng(6)
    grid = oracles.mixed_label_grid(3)
    forests, (f0, _) = oracles.two_forest_model(np.arange(60) % 4 + 2, seed=2)
    for m, d in ((grid, M.decompose_grid(grid)),
                 (forests, M.decompose_by_coloring(forests, [int(e not in f0) for e in range(forests.n_edges)]))):
        yield m, d, np.concatenate([rng.random(c) * (rng.random(c) > 0.2) + 0.01 for c in m.label_counts])


class TestPaddedEdgeStack:
    """The projections' padded transport stack against per-edge solves."""

    def test_exact_costs_match_per_edge_solves(self):
        for m, _, blocks in projection_cases():
            proj = M.project_primal_energy(m, blocks)
            for e, (u, v) in enumerate(m.edges):
                c = m.pairwise[e]
                res = M.solve_transport(M.TransportProblem(c, proj.node_blocks[u], proj.node_blocks[v]))
                cost = float(np.sum(c * proj.edge_blocks[e]))
                assert abs(cost - res.cost) <= 1e-9 * max(1.0, float(np.abs(c).max()))
                # no pivot enters a padded cell, so each edge pivots as it would alone
                np.testing.assert_array_equal(res.plan, proj.edge_blocks[e])

    @pytest.mark.parametrize("big", [1.0, 1e6])
    def test_rooted_padded_problems_pivot_as_edges_alone(self, monkeypatch, big):
        # mixed shapes and sparse Dirichlet node blocks, whose heaviest label is mostly
        # not 0: each padded problem takes its edge's star root, pivots and plan, bit
        # for bit, on a cold call and on a warm call from the first call's bases
        counts = np.random.default_rng(8).permutation(np.arange(160) % 4 + 2)
        m, _ = oracles.two_forest_model(counts, seed=8, big=big)
        runs = m.packing().edge_stack.runs
        padded = np.zeros(m.n_edges, dtype=bool)
        for run in runs:
            padded[run.edges] = ~run.real.all(axis=(0, 1))
        results, solve = [], mrflp.projections._solve_stack
        monkeypatch.setattr(mrflp.projections, "_solve_stack", lambda *args: results.append(solve(*args))
                            or results[-1])
        rng = np.random.default_rng(9)
        state, alone = mrflp.projections.ProjectionState(m), [None] * m.n_edges
        for call in ("cold", "warm"):
            results.clear()
            blocks = np.concatenate([rng.dirichlet(np.full(c, 0.3)) for c in m.label_counts])
            proj = M.project_primal_energy(m, blocks, state)
            pivots = np.empty(m.n_edges, dtype=np.int64)
            for run, res in zip(runs, results, strict=True):
                pivots[run.edges] = res.pivots
            roots = np.empty(m.n_edges, dtype=np.int64)
            for e, (u, v) in enumerate(m.edges):
                p = M.TransportProblem(m.pairwise[e], proj.node_blocks[u], proj.node_blocks[v])
                roots[e] = mrflp.transport._star_roots(p.row_marginal[None], p.col_marginal[None])[0]
                res = M.solve_transport(p, start=None if alone[e] is None else alone[e].simplex_basis)
                np.testing.assert_array_equal(res.plan, proj.edge_blocks[e])
                assert res.pivots == pivots[e]
                alone[e] = res
            assert pivots[padded].sum() > 0
            if call == "cold":
                lu = m.packing().edge_shapes[:, 0]
                assert (padded & (roots > 0) & (roots < lu)).sum() >= 20
                assert (padded & (roots >= lu)).sum() >= 20

    def test_padded_flows_are_zero(self):
        for m, _, blocks in projection_cases():
            nodes = mrflp.projections._projected_nodes(m, blocks)
            assert np.all(nodes[m.packing().node_pad == m.packing().node_dim] == 0.0)
            runs = m.packing().edge_stack.runs
            assert any(not run.real.all() for run in runs)
            for run in runs:
                # plans are stack-first, masks stack-last
                wu, wv, k = run.real.shape
                padded = ~run.real.transpose(2, 0, 1)
                cost = m.packing().edge_stack.theta[run.at].reshape(wu, wv, k).transpose(2, 0, 1)
                problem = M.TransportProblem(np.where(padded, 0.0, cost), nodes[run.u, :wu], nodes[run.v, :wv])
                assert run.real.sum() == run.cells.size
                exact = mrflp.transport._solve_stack(cost, problem.row_marginal, problem.col_marginal, None)
                assert np.all(exact.plan[padded] == 0.0)
                entropic = M.solve_transport_entropic(problem, 0.1, 1, problem.row_marginal, problem.col_marginal)
                assert np.all(entropic.plan[padded] == 0.0)

    def test_entropic_plans_match_per_edge_solves(self):
        for m, d, blocks in projection_cases():
            for rho in (0.05, 0.5):
                proj = M.project_primal_free_energy(m, d, blocks, rho)
                for e, (u, v) in enumerate(m.edges):
                    p = M.TransportProblem(m.pairwise[e], proj.node_blocks[u], proj.node_blocks[v])
                    res = M.solve_transport_entropic(p, rho, int(d.edge_counts[e]), p.row_marginal, p.col_marginal)
                    if res.residual <= TRANSPORT_MARGINAL_TOL:
                        assert np.abs(res.plan - proj.edge_blocks[e]).max() <= TRANSPORT_MARGINAL_TOL

    @pytest.mark.parametrize("rho, tol", [(0.1, 1e-12), (0.01, 1e-10)])
    def test_entropic_plans_match_unpadded_solves(self, rho, tol):
        # the benchmark's cross-check, within its 1e-10: a two-forest model
        # with 2-5 labels, node blocks from its smoothed dual, and each edge
        # of the padded stack against its own unpadded solve.  A padded
        # problem's Newton system is larger, so LAPACK orders its arithmetic
        # otherwise; at rho 0.01 the plans here differ by 4.4e-12
        counts = np.random.default_rng(4).permutation(np.arange(200) % 4 + 2)
        m, (f0, _) = oracles.two_forest_model(counts, seed=4)
        d = M.decompose_by_coloring(m, [int(e not in f0) for e in range(m.n_edges)])
        _, _, (m1, m2) = M.DualContext(m, d).smoothed(np.zeros(m.packing().node_dim), rho)
        proj = M.project_primal_free_energy(m, d, (m1 + m2) / 2.0, rho)
        assert not all(run.real.all() for run in m.packing().edge_stack.runs)
        for e, (u, v) in enumerate(m.edges):
            p = M.TransportProblem(m.pairwise[e], proj.node_blocks[u], proj.node_blocks[v])
            res = M.solve_transport_entropic(p, rho, 1, p.row_marginal, p.col_marginal)
            assert np.abs(res.plan - proj.edge_blocks[e]).max() <= tol

    def test_zero_edge_model_projects(self):
        m = M.MrfModel.create([3, 2], [], [np.zeros(3), np.zeros(2)], [])
        d = M.decompose_by_coloring(m, [])
        blocks = np.array([0.2, 0.5, 0.9, 2.0, -1.0])
        for proj in (M.project_primal_energy(m, blocks), M.project_primal_free_energy(m, d, blocks, 0.5)):
            np.testing.assert_allclose(proj.node_blocks[0], [0.0, 0.3, 0.7], atol=1e-12)
            np.testing.assert_allclose(proj.node_blocks[1], [1.0, 0.0], atol=1e-12)
            assert proj.edge_blocks == ()

    def test_refusal_names_the_edge_through_the_run(self, monkeypatch):
        # the largest shape, edge (2, 3), heads the run and is refused first
        monkeypatch.setattr(mrflp.transport, "PIVOT_TOL", -np.inf)
        counts = [2, 2, 3, 3]
        edges = [(0, 1), (1, 2), (2, 3)]
        m = M.MrfModel.create(counts, edges, [np.zeros(c) for c in counts],
                              [np.ones((counts[u], counts[v])) for u, v in edges])
        assert len(m.packing().edge_stack.runs) == 1
        with pytest.raises(NumericalError, match=r"not dual feasible on edge \(2, 3\)"):
            M.project_primal_energy(m, np.concatenate([np.full(c, 1.0 / c) for c in counts]))

    def test_uniform_grid_is_one_transport_call(self, monkeypatch):
        m = M.generate_grid(6, 6, 3, seed=1)
        calls = []
        solve = mrflp.projections._solve_stack
        monkeypatch.setattr(mrflp.projections, "_solve_stack", lambda c, *args: calls.append(c) or solve(c, *args))
        M.project_primal_energy(m, np.random.default_rng(0).random(m.packing().node_dim))
        assert len(calls) == 1 and calls[0].shape == (m.n_edges, 3, 3)

    @pytest.mark.parametrize("make", [
        lambda: oracles.mixed_label_grid(3),
        lambda: oracles.two_forest_model(np.where(np.arange(120) % 40 == 0, 30, np.arange(120) % 3 + 2), seed=1)[0],
    ], ids=["mixed-labels", "wide-nodes"])
    def test_runs_match_the_flat_layout(self, make):
        # every run column is one edge: its cells, bound and message rows as
        # the flat layout has them, dual_dim past each side's label count,
        # and the node entries its message rows read
        m = make()
        packing = m.packing()
        stack = packing.edge_stack
        # the flat layout's message rows: every u-side row, then every v-side one
        first_u = m.n_nodes + m.n_edges
        first_v = first_u + packing.edge_shapes[:, 0].sum()
        rows_u, rows_v = np.arange(first_u, first_v), np.arange(first_v, packing.dual_dim)
        starts_u = np.cumsum(packing.edge_shapes[:, 0]) - packing.edge_shapes[:, 0]
        starts_v = np.cumsum(packing.edge_shapes[:, 1]) - packing.edge_shapes[:, 1]
        runs = stack.runs
        assert any(not run.real.all() for run in runs)
        assert sorted(np.concatenate([run.edges for run in runs])) == list(range(m.n_edges))
        assert sorted(stack.index[stack.index < packing.dual_dim]) == list(range(packing.dual_dim))
        assert np.all(stack.gather[: m.n_nodes + m.n_edges] == packing.node_dim)
        for run in runs:
            wu, wv, k = run.real.shape
            assert run.at.stop - run.at.start == k * wu * wv
            cells = np.full(run.real.shape, -1)
            cells[run.real] = run.cells
            dual_u, dual_v = stack.index[run.rows_u].reshape(wu, k), stack.index[run.rows_v].reshape(wv, k)
            np.testing.assert_array_equal(stack.index[run.bounds], m.n_nodes + run.edges)
            for j, e in enumerate(run.edges):
                lu, lv = packing.edge_shapes[e]
                u, v = m.edges[e]
                np.testing.assert_array_equal(dual_u[:lu, j], rows_u[starts_u[e]:starts_u[e] + lu])
                np.testing.assert_array_equal(dual_v[:lv, j], rows_v[starts_v[e]:starts_v[e] + lv])
                assert np.all(dual_u[lu:, j] == packing.dual_dim) and np.all(dual_v[lv:, j] == packing.dual_dim)
                np.testing.assert_array_equal(cells[:lu, :lv, j].ravel(), packing.edge_starts[e] + np.arange(lu * lv))
                assert np.all(cells[lu:, :, j] == -1) and np.all(cells[:, lv:, j] == -1)
                assert np.all(stack.theta[run.at].reshape(wu, wv, k)[~run.real] == np.inf)
                gather_u, gather_v = stack.gather[run.rows_u].reshape(wu, k), stack.gather[run.rows_v].reshape(wv, k)
                np.testing.assert_array_equal(gather_u[:lu, j], packing.node_starts[u] + np.arange(lu))
                np.testing.assert_array_equal(gather_v[:lv, j], packing.node_starts[v] + np.arange(lv))
                assert np.all(gather_u[lu:, j] == packing.node_dim) and np.all(gather_v[lv:, j] == packing.node_dim)

    def test_wide_nodes_keep_padding_bounded(self):
        # 2-label forests with three 200-label nodes: every run pads at most
        # PAD_WASTE times its real cells
        counts = np.full(500, 2)
        counts[[10, 250, 490]] = 200
        m, _ = oracles.two_forest_model(counts, seed=0)
        runs = m.packing().edge_stack.runs
        assert len(runs) > 1
        for run in runs:
            assert run.real.size <= PAD_WASTE * run.cells.size


PRODUCT_MODELS = {
    "grid": lambda: M.generate_grid(4, 5, 3, seed=3),
    "lp-tight-1e6": lambda: M.generate_lp_tight(5, 5, 3, 25.0, 1e6, 0.4, seed=0)[0],
    "edgeless": lambda: M.MrfModel.create([2, 4, 3], [], [np.zeros(2), np.ones(4), np.arange(3.0)], []),
    "mixed-labels": lambda: oracles.mixed_label_grid(5),
    "one-label-nodes": lambda: one_label_grid([1, 3, 1, 1, 4, 1]),
    "wide-nodes": lambda: oracles.two_forest_model(
        np.where(np.arange(120) % 40 == 0, 30, np.arange(120) % 3 + 2), seed=1)[0],
}


def one_label_grid(counts):
    rng = np.random.default_rng(2)
    edges = M.grid_edges(2, 3)
    return M.MrfModel.create(counts, edges, [rng.uniform(-1, 1, c) for c in counts],
                             [rng.uniform(-1, 1, (counts[u], counts[v])) for u, v in edges])


def flat_of_stacked(packing, stacked):
    """A stacked primal vector's real entries in the flat layout."""
    flat = np.empty(packing.total_dim)
    flat[: packing.node_dim] = stacked[: packing.node_dim]
    for run in packing.edge_stack.runs:
        flat[packing.node_dim + run.cells] = stacked[run.at].reshape(run.real.shape)[run.real]
    return flat


class TestStackedProducts:
    """The stack's ``A`` and ``A^T`` and the certificates that read them,
    against the flat layout's products in ``oracles.FlatProducts``."""

    @staticmethod
    def case(name):
        m = PRODUCT_MODELS[name]()
        packing = m.packing()
        runs = packing.edge_stack.runs
        # one unpadded run (or none) sums in the flat order throughout
        return m, packing, oracles.FlatProducts(packing), 0.0 if len(runs) <= 1 and all(
            run.real.all() for run in runs) else 1e-12

    def test_models_cover_one_and_many_runs(self):
        runs = {name: self.case(name)[1].edge_stack.runs for name in PRODUCT_MODELS}
        assert [len(runs[name]) for name in ("grid", "lp-tight-1e6", "edgeless")] == [1, 1, 0]
        assert len(runs["wide-nodes"]) > 1 and not all(run.real.all() for run in runs["wide-nodes"])
        one_label = self.case("one-label-nodes")[1]
        assert np.any(np.all(one_label.edge_shapes == 1, axis=1)) and np.any(one_label.edge_shapes > 1)

    @pytest.mark.parametrize("name", PRODUCT_MODELS)
    def test_products_match_the_flat_ones(self, name):
        m, packing, flat, tol = self.case(name)
        stack, n_bounds = packing.edge_stack, m.n_nodes + m.n_edges
        rng = np.random.default_rng(7)
        mu, nu = rng.random(packing.total_dim), rng.standard_normal(packing.dual_dim)
        forward = packing.apply_a_packed(packing.stack_primal(mu))
        assert np.all(forward[stack.index == packing.dual_dim] == 0.0)
        got, want = packing.unstack_dual(forward), flat.apply_a(mu)
        # the marginalization rows add in the flat order on any stack
        np.testing.assert_array_equal(got[:m.n_nodes], want[:m.n_nodes])
        np.testing.assert_array_equal(got[n_bounds:], want[n_bounds:])
        assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))
        got, want = flat_of_stacked(packing, packing.apply_at(packing.stack_dual(nu))), flat.apply_at(nu)
        # so do the edge cells of the adjoint
        np.testing.assert_array_equal(got[packing.node_dim:], want[packing.node_dim:])
        assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))

    @pytest.mark.parametrize("name", PRODUCT_MODELS)
    def test_certificates_match_the_flat_formulas(self, name):
        m, packing, flat, tol = self.case(name)
        rng = np.random.default_rng(11)
        theta, n_bounds = packing.theta, m.n_nodes + m.n_edges
        starts = np.concatenate([packing.node_starts, packing.node_dim + packing.edge_starts])
        # a feasible point, a perturbed one and one with a negative entry
        point = M.project_primal_energy(m, rng.random(packing.node_dim))
        for mu in (point.flat, point.flat + 1e-3 * rng.standard_normal(point.flat.size)):
            rows = flat.apply_a(mu)
            want = max(np.abs(rows[:m.n_nodes] - 1.0).max(), np.abs(rows[n_bounds:]).max(initial=0.0), -mu.min())
            got = M.constraint_residual(m, M.Marginals(mu, packing.label_counts, packing.edge_shapes))
            # its rows add in the flat order on any stack
            assert got == want
        # messages at the costs' scale, so that theta - w rounds
        scale = max(1.0, float(np.abs(theta).max()))
        nu = scale * rng.standard_normal(packing.dual_dim)
        nu[:n_bounds] = 0.0
        w = flat.apply_at(nu)
        fits = theta - w
        fits = np.where(fits + w <= theta, fits, np.nextafter(fits, -np.inf))
        want = nu.copy()
        want[:n_bounds] = np.minimum.reduceat(fits, starts)
        point = M.project_dual(m, nu)
        assert np.all(np.abs(point.nu - want) <= tol * np.maximum(1.0, np.abs(want)))
        want_margin = float((theta - flat.apply_at(point.nu)).min())
        got_margin = M.dual_feasibility_margin(m, point)
        assert got_margin >= 0.0
        assert abs(got_margin - want_margin) <= tol * scale


class TestProjectionState:
    """A run's exact projections share one layout and start warm."""

    def test_layout_is_built_once_per_model(self, monkeypatch):
        # the layout's one call of padded_runs counts its builds
        builds = []
        split = mrflp._packing.padded_runs
        monkeypatch.setattr(mrflp._packing, "padded_runs", lambda *a: builds.append(None) or split(*a))
        # neither run closes the gap on this grid before t = 60
        m = M.generate_grid(4, 4, 3, seed=5)
        report = M.solve_fpd(m, M.SolverConfig(max_iters=60, epoch=20))
        assert len(report.records) == 4 and len(builds) == 1
        # a call without a state, and another run's exact and entropic
        # projections, read the same layout
        layout = m.packing().edge_stack
        M.project_primal_energy(m, report.marginals.node_flat)
        report = M.solve_nesterov(m, M.decompose_grid(m), M.SolverConfig(max_iters=60, epoch=20, rho=0.5))
        assert len(report.records) == 4 and all(r.smoothed_gap is not None for r in report.records)
        assert len(builds) == 1 and m.packing().edge_stack is layout
        # an equal model is another model, with its own layout
        other = M.generate_grid(4, 4, 3, seed=5)
        M.project_primal_energy(other, report.marginals.node_flat)
        assert len(builds) == 2 and other.packing().edge_stack is not layout

    def test_layout_goes_with_its_model(self):
        m = M.generate_grid(3, 3, 2, seed=1)
        M.project_primal_energy(m, np.ones(m.packing().node_dim))
        run = weakref.ref(m.packing().edge_stack.runs[0])
        assert run() is not None
        # no reference cycle keeps the layout alive past its model
        del m
        assert run() is None

    def test_warm_projections_match_cold_ones(self):
        for m, _, blocks in projection_cases():
            state = mrflp.projections.ProjectionState(m)
            rng = np.random.default_rng(m.n_edges)
            for _ in range(4):
                blocks = blocks * (0.5 + rng.random(blocks.size))
                warm = M.project_primal_energy(m, blocks, state)
                cold = M.project_primal_energy(m, blocks)
                np.testing.assert_array_equal(warm.node_flat, cold.node_flat)
                assert abs(M.relaxed_energy(m, warm) - M.relaxed_energy(m, cold)) <= 1e-9
            assert len(state.bases) == len(m.packing().edge_stack.runs)

    def test_exact_potentials_seed_the_entropic_projection(self, monkeypatch):
        # the state keeps only the bases, and the seed recomputed from them is
        # the exact solve's own potentials, bit for bit
        exact, costs = [], []
        solve_exact, solve = mrflp.projections._solve_stack, mrflp.projections.solve_transport_entropic

        def keep_exact(c, *args):
            exact.append((c, solve_exact(c, *args)))
            return exact[-1][1]

        monkeypatch.setattr(mrflp.projections, "_solve_stack", keep_exact)
        monkeypatch.setattr(mrflp.projections, "solve_transport_entropic",
                            lambda p, *args: costs.append(p.cost) or solve(p, *args))
        for m, d, blocks in projection_cases():
            runs = m.packing().edge_stack.runs
            state = mrflp.projections.ProjectionState(m)
            exact.clear()
            M.project_primal_energy(m, blocks, state)
            kept = dict(state.bases)
            assert len(kept) == len(runs) and set(vars(state)) == {"model", "bases"}
            costs.clear()
            seeded = M.project_primal_free_energy(m, d, blocks, 0.5, state)
            # the entropic projection reads the bases and writes nothing
            assert state.bases == kept
            # padded cells cost +inf in the exact solve's input; padded rows and
            # columns have no mass, so the entropic solve pins them whatever they cost
            for (c, res), cost in zip(exact, costs, strict=True):
                u, v, real = res.row_potentials, res.col_potentials, np.isfinite(c)
                np.testing.assert_array_equal(cost[real], (c - u[:, :, None] - v[:, None, :])[real])
            costs.clear()
            cold = M.project_primal_free_energy(m, d, blocks, 0.5)
            for (c, _), cost in zip(exact, costs, strict=True):
                real = np.isfinite(c)
                np.testing.assert_array_equal(cost[real], c[real])
                assert np.all(cost[~real] == 0.0)
            np.testing.assert_allclose(seeded.flat, cold.flat, rtol=0, atol=1e-9)

    def test_state_of_another_model_is_refused(self):
        m, other = M.generate_grid(2, 2, 2, seed=1), M.generate_grid(2, 2, 2, seed=1)
        blocks, state = np.ones(m.packing().node_dim), mrflp.projections.ProjectionState(other)
        with pytest.raises(ValueError, match="another model"):
            M.project_primal_energy(m, blocks, state)
        with pytest.raises(ValueError, match="another model"):
            M.project_primal_free_energy(m, M.decompose_grid(m), blocks, 0.5, state)


class TestPrimalFreeEnergyProjection:
    def test_symmetric_instance_gives_uniform_plans(self):
        m = M.MrfModel.create(
            [2, 2], [(0, 1)], [np.zeros(2), np.zeros(2)], [np.zeros((2, 2))]
        )
        d = M.decompose_by_coloring(m, [0])
        proj = M.project_primal_free_energy(m, d, np.full(4, 0.5), rho=1.0)
        np.testing.assert_allclose(proj.edge_blocks[0], 0.25, atol=1e-9)

    def test_small_rho_limit_matches_energy_projection(self):
        m = M.generate_grid(2, 2, 3, seed=7)
        d = M.decompose_grid(m)
        rng = np.random.default_rng(2)
        blocks = np.concatenate([rng.random(3) for _ in range(4)])
        a = M.project_primal_free_energy(m, d, blocks, rho=1e-6)
        b = M.project_primal_energy(m, blocks)
        assert M.relaxed_energy(m, a) == pytest.approx(M.relaxed_energy(m, b), abs=1e-4)

    def test_feasibility(self):
        m = M.generate_grid(3, 2, 2, seed=8)
        d = M.decompose_grid(m)
        rng = np.random.default_rng(3)
        for rho in (1.0, 0.1):
            blocks = np.concatenate([rng.uniform(-0.5, 1.5, 2) for _ in range(6)])
            proj = M.project_primal_free_energy(m, d, blocks, rho)
            assert M.constraint_residual(m, proj) <= 1e-9

    def test_smoothed_objective_matches_scalar_oracle_on_two_nodes(self):
        from scipy.optimize import minimize_scalar

        rng = np.random.default_rng(4)
        c = rng.uniform(-1, 1, (2, 2))
        m = M.MrfModel.create([2, 2], [(0, 1)], [np.zeros(2), np.zeros(2)], [c])
        d = M.decompose_by_coloring(m, [0])
        blocks = [np.array([0.35, 0.65]), np.array([0.55, 0.45])]
        rho = 0.7
        proj = M.project_primal_free_energy(m, d, np.concatenate(blocks), rho)
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
        rng = np.random.default_rng(6)
        blocks = np.concatenate([rng.random(c) * (rng.random(c) > 0.2) + 0.01 for c in m.label_counts])
        for rho in (0.05, 0.5):
            proj = M.project_primal_free_energy(m, d, blocks, rho)
            for e, (u, v) in enumerate(m.edges):
                p = M.TransportProblem(m.pairwise[e], proj.node_blocks[u], proj.node_blocks[v])
                res = M.solve_transport_entropic(p, rho, int(d.edge_counts[e]), p.row_marginal, p.col_marginal)
                np.testing.assert_allclose(res.plan, proj.edge_blocks[e], rtol=0, atol=1e-15)


def packed_messages(m, msgs):
    """Dual vector holding one ``(from_u, from_v)`` pair per edge, bounds 0."""
    return M.DualPoint.from_blocks(np.zeros(m.n_nodes), np.zeros(m.n_edges), msgs).nu


class TestDualProjection:
    def test_zero_messages_give_table_minima(self):
        m = M.generate_grid(2, 2, 3, seed=5)
        point = M.project_dual(m, np.zeros(m.packing().dual_dim))
        for v in range(m.n_nodes):
            assert point.node_bounds[v] == pytest.approx(float(m.unary[v].min()))
        for e in range(m.n_edges):
            assert point.edge_bounds[e] == pytest.approx(float(m.pairwise[e].min()))

    def test_single_node(self):
        m = M.MrfModel.create([2], [], [np.array([3.0, 5.0])], [])
        point = M.project_dual(m, np.zeros(1))
        assert point.node_bounds[0] == pytest.approx(3.0)
        assert M.dual_value(m, point) == pytest.approx(3.0)

    def test_margin_is_exactly_nonnegative_at_large_costs(self):
        # costs up to 1e6 and messages up to 1e8: every bound is rounded,
        # and none may leave a negative slack
        m = M.generate_lp_tight(5, 5, 3, 25, 1e6, 0.4, seed=2)[0]
        rng = np.random.default_rng(3)
        for scale in 10.0 ** np.arange(-2, 9):
            for _ in range(5):
                point = M.project_dual(m, scale * rng.standard_normal(m.packing().dual_dim))
                assert M.dual_feasibility_margin(m, point) >= 0.0

    def test_feasibility_margin_nonnegative_for_random_messages(self):
        rng = np.random.default_rng(5)
        for m in (M.generate_grid(2, 2, 3, seed=6), oracles.mixed_label_grid(seed=6)):
            counts = m.label_counts
            for _ in range(20):
                msgs = [(rng.standard_normal(counts[u]), rng.standard_normal(counts[v])) for u, v in m.edges]
                point = M.project_dual(m, packed_messages(m, msgs))
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
            point = M.project_dual(m, packed_messages(m, msgs))
            bound = M.dual_value(m, point)
            x = rng.integers(0, 2, 4)
            mixture = M.project_primal_energy(m, np.concatenate([rng.random(2) for _ in range(4)]))
            assert bound <= M.energy(m, x) + 1e-9
            assert bound <= M.relaxed_energy(m, mixture) + 1e-9

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_messages_must_be_finite(self, value):
        m = M.generate_grid(2, 2, 2, seed=0)
        nu = np.zeros(m.packing().dual_dim)
        nu[0] = value  # a node bound: ignored
        assert M.project_dual(m, nu).nu.tolist() == M.project_dual(m, np.zeros_like(nu)).nu.tolist()
        nu[m.n_nodes + m.n_edges + 2] = value
        with pytest.raises(ValueError, match="dual messages must be finite"):
            M.project_dual(m, nu)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("entry", [0, 10], ids=["bound", "message"])
    def test_non_finite_point_has_margin_minus_inf(self, value, entry):
        m = M.generate_grid(2, 2, 2, seed=0)
        nu = M.project_dual(m, np.zeros(m.packing().dual_dim)).nu.copy()
        nu[entry] = value
        point = M.DualPoint(nu, m.n_nodes, m.packing().edge_shapes)
        assert M.dual_feasibility_margin(m, point) == -np.inf

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
        est = oracles.lipschitz_linear(m)
        assert est.node == est.edge == est.joint == 0.0

    def test_three_four_five(self):
        m = M.MrfModel.create([2], [], [np.array([3.0, 4.0])], [])
        est = oracles.lipschitz_linear(m)
        assert est.node == pytest.approx(5.0)
        assert est.edge == 0.0
        assert est.joint == pytest.approx(5.0)

    def test_joint_bound_on_random_pairs(self):
        m = M.generate_grid(2, 2, 3, seed=10)
        est = oracles.lipschitz_linear(m)
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
        assert oracles.lipschitz_entropy(0.0, 1, 1 / e, 1 / e) == pytest.approx(0.0, abs=1e-12)
        assert oracles.lipschitz_entropy(2.0, 3, 0.1, 1.0) == pytest.approx(5.907755278982137)

    def test_entropy_constant_bounds_increments(self):
        rng = np.random.default_rng(8)
        n = 4
        a = rng.standard_normal(n)
        eps, big = 0.05, 2.0
        bound = oracles.lipschitz_entropy(float(np.linalg.norm(a)), n, eps, big)

        def f(z):
            return float(a @ z + np.sum(z * np.log(z)))

        for _ in range(200):
            z1 = rng.uniform(eps, big, n)
            z2 = rng.uniform(eps, big, n)
            assert abs(f(z1) - f(z2)) <= bound * np.linalg.norm(z1 - z2) + 1e-9

    def test_entropy_constant_parameter_errors(self):
        with pytest.raises(ValueError):
            oracles.lipschitz_entropy(1.0, 2, 0.0, 1.0)
        with pytest.raises(ValueError):
            oracles.lipschitz_entropy(1.0, 2, 0.5, 0.1)


class TestProjectionContinuityBound:
    def test_projected_energy_error_bounded_by_distance(self):
        # the projected point's suboptimality exceeds the input's by at most
        # (node + edge Lipschitz constants) times the distance to the polytope
        m = M.generate_grid(2, 2, 2, seed=12)
        lp_val, _ = oracles.lp_optimum(m)
        est = oracles.lipschitz_linear(m)
        rng = np.random.default_rng(9)
        for _ in range(10):
            node_blocks = [rng.uniform(0, 1, 2) for _ in range(4)]
            edge_blocks = [rng.uniform(0, 1, (2, 2)) for _ in range(4)]
            z = M.Marginals.from_blocks(node_blocks=tuple(node_blocks), edge_blocks=tuple(edge_blocks))
            z_flat = oracles.pack_marginals_flat(m, z)
            projected = M.project_primal_energy(m, np.concatenate(node_blocks))
            euclid = oracles.dykstra_project(m, z_flat)
            dist = float(np.linalg.norm(z_flat - euclid))
            lhs = abs(M.relaxed_energy(m, projected) - lp_val)
            rhs = abs(M.relaxed_energy(m, z) - lp_val) + (est.node + est.edge) * dist
            assert lhs <= rhs + 1e-7
