import math

import numpy as np
import pytest

import mrflp as M
from mrflp.errors import InfeasibleMarginalsError, NumericalError

import oracles


def tree_decomposition(model):
    return M.decompose_by_coloring(model, [e % 2 for e in range(model.n_edges)])


def random_tree_model(n, labels, seed):
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    return M.MrfModel.create(
        [labels] * n,
        edges,
        [rng.uniform(-1, 1, labels) for _ in range(n)],
        [rng.uniform(-1, 1, (labels, labels)) for _ in range(n - 1)],
    )


class TestStepSize:
    def test_diminishing_start(self):
        assert M.step_size("diminishing", 0, tau0=1.0, alpha=1.0) == 1.0

    def test_diminishing_conditions_by_shape(self):
        # tau_t -> 0 while the partial sums grow without bound: compare the
        # tail against the divergent integral bound
        tau0, alpha = 1.0, 0.51
        t_big = 10**6
        assert M.step_size("diminishing", t_big, tau0=tau0, alpha=alpha) < 1e-3
        # integral lower bound of the series up to T
        total_lb = ((1 + t_big) ** (1 - alpha) - 1) / (1 - alpha)
        assert total_lb > 1e2

    def test_adaptive_example(self):
        tau = M.step_size("adaptive", 0, gamma=1.0, best_primal=1.0, dual=0.0, grad_norm_sq=4.0)
        assert tau == pytest.approx(0.25)

    def test_adaptive_clipped_by_envelope(self):
        tau = M.step_size(
            "adaptive", 0, tau0=0.1, gamma=1.0, best_primal=10.0, dual=0.0, grad_norm_sq=1.0
        )
        assert tau == pytest.approx(0.1)

    def test_zero_subgradient_rejected(self):
        with pytest.raises(ValueError):
            M.step_size("adaptive", 1, best_primal=1.0, dual=0.0, grad_norm_sq=0.0)

    def test_alpha_range_enforced(self):
        with pytest.raises(ValueError):
            M.step_size("diminishing", 0, alpha=0.5)


class TestGapCertificate:
    def test_tree_optimal_pair(self):
        m = random_tree_model(6, 3, seed=1)
        d = tree_decomposition(m)
        report = M.solve_subgradient(m, d, M.SolverConfig(max_iters=3000, epoch=20, tol=1e-9))
        gap, rel = M.gap_certificate(m, report.marginals, report.dual_bound)
        assert gap <= 1e-9

    def test_embedding_vs_trivial_dual(self):
        m = M.generate_grid(2, 2, 3, seed=2)
        x = np.array([0, 1, 2, 1])
        trivial = M.project_dual(m, [(np.zeros(3), np.zeros(3)) for _ in range(4)])
        gap, rel = M.gap_certificate(m, M.embed_labeling(m, x), M.dual_value(m, trivial))
        expected = M.energy(m, x) - sum(float(u.min()) for u in m.unary) - sum(
            float(p.min()) for p in m.pairwise
        )
        assert gap == pytest.approx(expected, abs=1e-9)
        assert gap >= 0

    def test_infeasible_marginals_refused(self):
        m = M.generate_grid(2, 2, 2, seed=3)
        bad = M.Marginals.from_blocks(
            node_blocks=tuple(np.array([0.9, 0.0]) for _ in range(4)),
            edge_blocks=tuple(np.full((2, 2), 0.25) for _ in range(4)),
        )
        with pytest.raises(InfeasibleMarginalsError) as err:
            M.gap_certificate(m, bad, 0.0)
        assert err.value.residual > 0.05

    def test_negative_gap_raises(self):
        m = M.generate_grid(2, 2, 2, seed=3)
        mu = M.embed_labeling(m, [0, 0, 0, 0])
        with pytest.raises(NumericalError):
            M.gap_certificate(m, mu, M.energy(m, [0, 0, 0, 0]) + 1.0)


class TestSubgradientSolver:
    def test_single_node_converges_immediately(self):
        m = M.MrfModel.create([3], [], [np.array([2.0, 1.0, 5.0])], [])
        d = M.decompose_grid(m)
        report = M.solve_subgradient(m, d, M.SolverConfig(max_iters=100, epoch=10))
        assert report.termination == "dual-optimal"
        assert report.records[0].iteration == 0
        assert report.gap == pytest.approx(0.0, abs=1e-12)
        assert report.dual_bound == pytest.approx(1.0)

    @pytest.mark.parametrize("averaging", ["uniform", "step-weighted"])
    def test_tree_reaches_exhaustive_optimum(self, averaging):
        m = random_tree_model(7, 2, seed=4)
        d = tree_decomposition(m)
        cfg = M.SolverConfig(max_iters=4000, epoch=20, tol=1e-8)
        report = M.solve_subgradient(m, d, cfg, averaging=averaging)
        best, _ = oracles.exhaustive_map(m)
        assert report.relative_gap <= 1e-8
        assert report.dual_bound == pytest.approx(best, abs=1e-6)
        assert report.primal_bound == pytest.approx(best, abs=1e-6)

    def test_record_layout_and_weak_duality(self):
        # frustrated instance: the budget runs out, which pins the logging grid
        m = M.generate_grid(4, 4, 3, law="uniform_sym", radius=1.0, seed=2)
        d = M.decompose_grid(m)
        cfg = M.SolverConfig(max_iters=95, epoch=20, tol=0.0, step_law="diminishing", tau0=0.05)
        report = M.solve_subgradient(m, d, cfg)
        assert report.termination == "max-iters"
        iters = [r.iteration for r in report.records]
        assert iters == [0, 20, 40, 60, 80, 95]
        assert len(report.records) == math.ceil(95 / 20) + 1
        for r in report.records:
            assert r.primal_bound >= r.dual_bound - 1e-9
            assert r.gap == pytest.approx(r.primal_bound - r.dual_bound)
            assert r.integer_bound >= r.primal_bound - 1e-12

    def test_determinism(self):
        m = M.generate_grid(3, 3, 3, seed=6)
        d = M.decompose_grid(m)
        cfg = M.SolverConfig(max_iters=200, epoch=20, seed=3)
        a = M.solve_subgradient(m, d, cfg)
        b = M.solve_subgradient(m, d, cfg)
        for ra, rb in zip(a.records, b.records):
            assert ra.iteration == rb.iteration
            assert ra.dual_bound == rb.dual_bound
            assert ra.primal_bound == rb.primal_bound
            assert ra.integer_bound == rb.integer_bound
            assert ra.gap == rb.gap

    def test_best_dual_sequence_monotone(self):
        m = M.generate_grid(4, 4, 3, seed=7)
        d = M.decompose_grid(m)
        report = M.solve_subgradient(m, d, M.SolverConfig(max_iters=300, epoch=20))
        duals = [r.dual_bound for r in report.records]
        assert all(b >= a for a, b in zip(duals, duals[1:]))


class TestNesterovSolver:
    def test_first_step_ascends(self):
        rng = np.random.default_rng(8)
        for seed in range(3):
            m = M.generate_grid(2, 3, 2, seed=seed)
            d = M.decompose_grid(m)
            ctx = M.DualContext(m, d)
            rho = 1.0
            v0, grad, _ = ctx.smoothed(np.zeros(sum(m.label_counts)), rho)
            v1 = ctx.smoothed_value(grad / (4.0 / rho), rho)
            assert v1 >= v0

    def test_tree_gap_vanishes_with_schedule(self):
        m = random_tree_model(8, 3, seed=9)
        d = tree_decomposition(m)
        cfg = M.SolverConfig(max_iters=4000, epoch=20, tol=1e-7, rho=1.0,
                             rho_schedule="halving", rho_min=1e-4)
        report = M.solve_nesterov(m, d, cfg)
        best, _ = oracles.exhaustive_map(m)
        assert report.relative_gap <= 1e-7
        assert report.dual_bound == pytest.approx(best, abs=1e-5)

    def test_smoothed_gap_logged_and_nonnegative(self):
        m = M.generate_grid(2, 2, 2, seed=10)
        d = M.decompose_grid(m)
        report = M.solve_nesterov(m, d, M.SolverConfig(max_iters=100, epoch=25, rho=0.5))
        for r in report.records:
            assert r.rho is not None
            assert r.smoothed_gap is not None
            assert r.smoothed_gap >= -1e-9

    @pytest.mark.parametrize("rho", [1.0, 2.0])
    def test_smoothed_gap_on_lp_tight_instance(self, rho):
        # forbidden entries of 1e6 next to near-zero node marginals: the
        # entropic projection used to give up on some edges and lose the run
        m, _ = M.generate_lp_tight(4, 4, 3, 25.0, 1e6, 0.4, seed=0)
        report = M.solve_nesterov(m, M.decompose_grid(m), M.SolverConfig(max_iters=40, epoch=20, rho=rho))
        assert report.termination != "numerical-failure"
        assert all(r.smoothed_gap is not None for r in report.records)

    def test_halving_cap_keeps_the_records(self, monkeypatch):
        # an ascent check that always fails doubles the smoothness estimate
        # until the cap; the run ends there and keeps its t = 0 record
        monkeypatch.setattr(M.DualContext, "smoothed_value", lambda self, lam, rho: -np.inf)
        m = M.generate_grid(4, 4, 3, seed=1)
        report = M.solve_nesterov(m, M.decompose_grid(m), M.SolverConfig(max_iters=40, epoch=20, rho=1.0))
        assert report.termination == "numerical-failure"
        assert report.step_halvings == 201
        assert len(report.records) >= 1
        assert M.constraint_residual(m, report.marginals) <= 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_stops_once_the_gap_is_round_off(self, seed):
        # on LP-tight instances the dual at lambda = 0 is already optimal, so
        # the certified gap is round-off of either sign from the first epoch
        m, _ = M.generate_lp_tight(6, 6, 3, 25.0, 1e6, 0.4, seed=seed)
        cfg = M.SolverConfig(max_iters=80, epoch=20, rho=2.0, log_smoothed_gap=False)
        report = M.solve_nesterov(m, M.decompose_grid(m), cfg)
        assert report.termination == "gap-tolerance"
        assert len(report.records) == 1


class TestFpdSolver:
    def test_single_node_indicator(self):
        m = M.MrfModel.create([2], [], [np.array([1.0, 0.0])], [])
        report = M.solve_fpd(m, M.SolverConfig(max_iters=400, epoch=50, tol=1e-9))
        assert report.gap <= 1e-8
        np.testing.assert_allclose(report.marginals.node_blocks[0], [0.0, 1.0], atol=1e-6)

    def test_tree_meets_exhaustive_optimum(self):
        m = random_tree_model(6, 2, seed=11)
        report = M.solve_fpd(m, M.SolverConfig(max_iters=30000, epoch=200, tol=1e-8))
        best, _ = oracles.exhaustive_map(m)
        assert report.relative_gap <= 1e-8
        assert report.dual_bound == pytest.approx(best, abs=1e-5)
        assert report.primal_bound == pytest.approx(best, abs=1e-5)

    def test_dual_point_is_feasible(self):
        m = M.generate_grid(3, 3, 3, seed=12)
        report = M.solve_fpd(m, M.SolverConfig(max_iters=500, epoch=100))
        assert report.dual_point is not None
        assert M.dual_feasibility_margin(m, report.dual_point) >= -1e-12
        assert M.dual_value(m, report.dual_point) == pytest.approx(
            report.records[-1].dual_bound, abs=1e-6
        ) or M.dual_value(m, report.dual_point) <= report.dual_bound + 1e-9

    def test_marginals_certified(self):
        m = M.generate_grid(3, 3, 2, seed=13)
        report = M.solve_fpd(m, M.SolverConfig(max_iters=400, epoch=100))
        assert M.constraint_residual(m, report.marginals) <= 1e-9

    def test_determinism(self):
        m = M.generate_grid(3, 3, 2, seed=14)
        cfg = M.SolverConfig(max_iters=300, epoch=50, seed=5)
        a = M.solve_fpd(m, cfg)
        b = M.solve_fpd(m, cfg)
        for ra, rb in zip(a.records, b.records):
            assert ra.dual_bound == rb.dual_bound
            assert ra.primal_bound == rb.primal_bound


class TestCrossSolverAgreement:
    def test_all_solvers_bracket_the_relaxed_optimum(self):
        m = M.generate_grid(3, 3, 2, seed=15)
        d = M.decompose_grid(m)
        lp_val, _ = oracles.lp_optimum(m)
        reports = [
            M.solve_subgradient(m, d, M.SolverConfig(max_iters=400, epoch=20)),
            M.solve_subgradient(m, d, M.SolverConfig(max_iters=400, epoch=20), "step-weighted"),
            M.solve_nesterov(m, d, M.SolverConfig(max_iters=400, epoch=20, rho=0.5,
                                                  rho_schedule="halving")),
            M.solve_fpd(m, M.SolverConfig(max_iters=2000, epoch=100)),
        ]
        for report in reports:
            assert report.dual_bound <= lp_val + 1e-7
            assert report.primal_bound >= lp_val - 1e-7
