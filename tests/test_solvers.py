import collections
import dataclasses
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mrflp as M
import mrflp._packing
import mrflp.projections
import mrflp.solvers
from mrflp.errors import InfeasibleMarginalsError, NumericalError
from mrflp.tolerances import EQ_TOL

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
        assert M.step_size("diminishing", 0, tau0=1.0) == 1.0

    def test_diminishing_conditions_by_shape(self):
        # tau_t -> 0 while the partial sums grow without bound: compare the
        # tail against the divergent integral bound
        tau0, alpha = 1.0, mrflp.solvers.STEP_ALPHA
        t_big = 10**6
        assert M.step_size("diminishing", t_big, tau0=tau0) < 1e-3
        # integral lower bound of the series up to T
        total_lb = ((1 + t_big) ** (1 - alpha) - 1) / (1 - alpha)
        assert total_lb > 1e2

    def test_adaptive_example(self):
        tau = M.step_size("adaptive", 0, best_primal=1.0, dual=0.0, grad_norm_sq=4.0)
        assert tau == pytest.approx(0.25)

    def test_adaptive_clipped_by_envelope(self):
        tau = M.step_size("adaptive", 0, tau0=0.1, best_primal=10.0, dual=0.0, grad_norm_sq=1.0)
        assert tau == pytest.approx(0.1)

    def test_zero_subgradient_rejected(self):
        with pytest.raises(ValueError):
            M.step_size("adaptive", 1, best_primal=1.0, dual=0.0, grad_norm_sq=0.0)

    @pytest.mark.parametrize("best_primal", [1.0, math.inf, None])
    @pytest.mark.parametrize("dual, grad_norm_sq", [(math.nan, 1.0), (-math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)])
    def test_non_finite_dual_or_norm_rejected(self, best_primal, dual, grad_norm_sq):
        # min(envelope, nan) is the envelope, which would hide them
        with pytest.raises(ValueError, match="finite dual value and subgradient norm"):
            M.step_size("adaptive", 1, best_primal=best_primal, dual=dual, grad_norm_sq=grad_norm_sq)

    @pytest.mark.parametrize("best_primal", [None, math.inf])
    def test_adaptive_falls_back_to_the_envelope_without_a_primal_bound(self, best_primal):
        envelope = M.step_size("diminishing", 1)
        assert M.step_size("adaptive", 1, best_primal=best_primal, dual=0.0, grad_norm_sq=1.0) == envelope


class TestSolverConfig:
    def test_unknown_step_law_rejected(self):
        with pytest.raises(ValueError):
            M.SolverConfig(step_law="bogus")

    def test_nonpositive_tau0_rejected(self):
        with pytest.raises(ValueError):
            M.SolverConfig(tau0=-1.0)
        with pytest.raises(ValueError):
            M.SolverConfig(tau0=0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize(
        "make",
        [
            lambda x: M.SolverConfig(tau0=x),
            lambda x: M.SolverConfig(rho=x),
            lambda x: M.SolverConfig(tol=x),
            lambda x: M.SolverConfig(time_budget_s=x),
            lambda x: M.step_size("diminishing", 0, tau0=x),
        ],
        ids=["tau0", "rho", "tol", "time_budget_s", "step_size-tau0"],
    )
    def test_non_finite_options_rejected(self, make, value):
        # a NaN fails every comparison, so a check written `x <= 0` lets it through
        with pytest.raises(ValueError, match="finite"):
            make(value)

    def test_numpy_integer_counts_accepted(self):
        cfg = M.SolverConfig(max_iters=np.int64(5), epoch=np.int32(2))
        assert (cfg.max_iters, cfg.epoch) == (5, 2)

    def test_halving_without_smoothed_gap_rejected(self):
        # the logged smoothed gap drives the halving: without it rho never changes
        with pytest.raises(ValueError, match="rho_schedule.*log_smoothed_gap"):
            M.SolverConfig(rho_schedule="halving", log_smoothed_gap=False)


@pytest.mark.parametrize("call, message", [
    (lambda: M.SolverConfig(max_iters=0), "max_iters and epoch must be positive"),
    (lambda: M.SolverConfig(max_iters=5.0), "max_iters and epoch must be integers"),
    (lambda: M.SolverConfig(epoch=2.5), "max_iters and epoch must be integers"),
    (lambda: M.SolverConfig(max_iters=True), "max_iters and epoch must be integers"),
    (lambda: M.SolverConfig(epoch=np.float64(20)), "max_iters and epoch must be integers"),
    (lambda: M.SolverConfig(rho_schedule="cosine"), "rho_schedule must be None or 'halving'"),
    (lambda: M.step_size("diminishing", -1), "t must be nonnegative"),
    (lambda: M.step_size("constant", 0), "unknown step law 'constant'"),
    (lambda: M.solve_subgradient(m := random_tree_model(3, 2, seed=0), tree_decomposition(m), M.SolverConfig(),
                                 averaging="median"),
     "averaging must be 'uniform' or 'step-weighted'"),
], ids=["max-iters", "max-iters-float", "epoch-float", "max-iters-bool", "epoch-numpy-float",
        "rho-schedule", "negative-t", "step-law", "averaging"])
def test_solver_options_refuse_bad_values(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


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
        trivial = M.project_dual(m, np.zeros(m.packing().dual_dim))
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

    @pytest.mark.parametrize("bound", [math.nan, -math.inf, math.inf])
    def test_non_finite_dual_bound_refused(self, bound):
        m = M.generate_grid(2, 2, 2, seed=3)
        with pytest.raises(ValueError, match="dual bound must be finite"):
            M.gap_certificate(m, M.embed_labeling(m, [0, 0, 0, 0]), bound)

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
        assert report.termination == "gap-tolerance"
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

    @pytest.mark.parametrize("solver", ["sg-ave", "sg-wei", "nest", "fpd"])
    def test_record_layout_and_weak_duality(self, solver):
        # frustrated instance: the budget runs out, which pins the logging grid
        # of every solver: each epoch of t % epoch == 0, then t == max_iters.
        # Every solver ends here with a gap of 0.6 or more
        m = M.generate_grid(4, 4, 4, law="uniform_sym", radius=1.0, seed=0)
        d = M.decompose_grid(m)
        cfg = M.SolverConfig(max_iters=95, epoch=20, tol=0.0, step_law="diminishing", tau0=0.05)
        report = M.run_solver(m, solver, cfg, d)
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
        cfg = M.SolverConfig(max_iters=200, epoch=20)
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
        cfg = M.SolverConfig(max_iters=4000, epoch=20, tol=1e-7, rho=1.0, rho_schedule="halving")
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

    def test_entropic_projection_failure_keeps_the_records(self, monkeypatch):
        # the 2nd smoothed-gap projection fails: the run ends there and keeps
        # the t = 0 epoch's record and bounds
        real = mrflp.solvers.project_primal_free_energy
        calls = []

        def failing_second(*args):
            calls.append(1)
            if len(calls) == 2:
                raise NumericalError("injected entropic projection failure")
            return real(*args)

        monkeypatch.setattr(mrflp.solvers, "project_primal_free_energy", failing_second)
        m = M.generate_grid(4, 4, 3, seed=3)
        report = M.solve_nesterov(m, M.decompose_grid(m), M.SolverConfig(max_iters=100, epoch=20, rho=0.5))
        assert len(calls) == 2
        assert report.termination == "numerical-failure"
        assert len(report.records) >= 1
        assert M.constraint_residual(m, report.marginals) <= 1e-9

    def test_determinism(self):
        m = M.generate_grid(3, 3, 3, seed=6)
        d = M.decompose_grid(m)
        cfg = M.SolverConfig(max_iters=200, epoch=20, rho=0.5, rho_schedule="halving")
        a = M.solve_nesterov(m, d, cfg)
        b = M.solve_nesterov(m, d, cfg)
        assert len(a.records) > 1
        assert [dataclasses.replace(r, time_s=0.0) for r in a.records] == [
            dataclasses.replace(r, time_s=0.0) for r in b.records
        ]
        np.testing.assert_array_equal(a.lam, b.lam)
        assert (a.termination, a.step_halvings) == (b.termination, b.step_halvings)

    @pytest.mark.parametrize("seed", range(8))
    def test_stops_once_the_gap_is_round_off(self, seed):
        # on LP-tight instances the dual at lambda = 0 is already optimal, so
        # the certified gap is round-off of either sign from the first epoch
        m, _ = M.generate_lp_tight(6, 6, 3, 25.0, 1e6, 0.4, seed=seed)
        cfg = M.SolverConfig(max_iters=80, epoch=20, rho=2.0, log_smoothed_gap=False)
        report = M.solve_nesterov(m, M.decompose_grid(m), cfg)
        assert report.termination == "gap-tolerance"
        assert len(report.records) == 1


FPD_MODELS = {
    # 2-5 labels: all 16 (L_u, L_v) edge shapes
    "mixed-labels": lambda: oracles.two_forest_model([int(c) for c in np.arange(40) % 4 + 2], seed=1)[0],
    "single-node": lambda: M.MrfModel.create([3], [], [np.array([1.0, 0.0, 2.0])], []),
    "no-edges": lambda: M.MrfModel.create([2, 4, 3], [], [np.zeros(2), np.ones(4), np.arange(3.0)], []),
    "lp-tight": lambda: M.generate_lp_tight(20, 20, 3, 25, 1e6, 0.4, seed=0)[0],
    # forbidden entries at 1e6: rounding the bounds left slacks of -1.2e-10
    "mixed-labels-1e6": lambda: oracles.two_forest_model([2 + i % 4 for i in range(40)], seed=1, big=1e6)[0],
}


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

    def test_dual_dips_leave_the_gap_closing(self):
        # the dual objective is not monotone: its dips are no sign of divergence
        report = M.solve_fpd(M.generate_grid(4, 4, 4, seed=0), M.SolverConfig(max_iters=1000, epoch=20))
        assert report.step_halvings == 0
        assert report.relative_gap <= 2e-3

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_diagonal_steps_close_the_gap(self, seed):
        # certifying the dual iterate alone, the diagonal steps reached
        # 5.5e-4, 1.8e-4 and 5.6e-4 here, and one scalar step 0.99/|A| for
        # both sides 1.07e-3 on seed 2
        m = M.generate_grid(10, 10, 4, law="uniform01", seed=seed)
        report = M.solve_fpd(m, M.SolverConfig(max_iters=600, epoch=20))
        assert report.relative_gap <= 7e-4

    @pytest.mark.parametrize("model", ["mixed-labels", "single-node", "no-edges", "lp-tight"])
    def test_steps_meet_the_step_condition(self, model):
        # |Sigma^1/2 A T^1/2| <= 1 before fpd's 0.99 scale, on every edge
        # shape; the norm near 1 shows that the steps are not needlessly small
        m = FPD_MODELS[model]()
        packing = m.packing()
        norm = oracles.preconditioned_norm(packing, *mrflp.solvers._fpd_steps(packing))
        assert 0.99 <= norm <= 1.0 + 1e-9

    @pytest.mark.parametrize("model", ["mixed-labels", "lp-tight"])
    def test_certificates_hold_without_a_guard(self, model):
        # no restore and no errstate: the run is warning-clean under the
        # suite's RuntimeWarning filter and every certificate holds
        m = FPD_MODELS[model]()
        report = M.solve_fpd(m, M.SolverConfig(max_iters=400, epoch=20))
        assert report.termination != "numerical-failure"
        for r in report.records:
            assert all(math.isfinite(v) for v in (r.dual_bound, r.primal_bound, r.integer_bound, r.gap,
                                                   r.projected_energy))
            assert r.primal_bound >= r.dual_bound - EQ_TOL
        assert M.dual_feasibility_margin(m, report.dual_point) >= -EQ_TOL

    @pytest.mark.parametrize("model", ["mixed-labels-1e6", "lp-tight"])
    def test_dual_point_has_no_negative_slack(self, model):
        m = FPD_MODELS[model]()
        report = M.solve_fpd(m, M.SolverConfig(max_iters=400, epoch=20))
        assert M.dual_feasibility_margin(m, report.dual_point) >= 0.0

    def test_marginals_certified(self):
        m = M.generate_grid(3, 3, 2, seed=13)
        report = M.solve_fpd(m, M.SolverConfig(max_iters=400, epoch=100))
        assert M.constraint_residual(m, report.marginals) <= 1e-9

    def test_infeasible_projection_keeps_the_records(self, monkeypatch):
        # the 2nd energy projection's point fails its certificate: the run
        # ends there and keeps the t = 0 epoch's record
        real = mrflp.projections.constraint_residual
        calls = []

        def failing_second(model, marginals):
            calls.append(None)
            return 1.0 if len(calls) == 2 else real(model, marginals)

        monkeypatch.setattr(mrflp.projections, "constraint_residual", failing_second)
        m = M.generate_grid(3, 3, 2, seed=1)
        report = M.solve_fpd(m, M.SolverConfig(max_iters=60, epoch=20))
        assert len(calls) == 2
        assert report.termination == "numerical-failure"
        assert [r.iteration for r in report.records] == [0]
        assert real(m, report.marginals) <= EQ_TOL

    def test_determinism(self):
        m = M.generate_grid(3, 3, 2, seed=14)
        cfg = M.SolverConfig(max_iters=300, epoch=50)
        a = M.solve_fpd(m, cfg)
        b = M.solve_fpd(m, cfg)
        for ra, rb in zip(a.records, b.records):
            assert ra.dual_bound == rb.dual_bound
            assert ra.primal_bound == rb.primal_bound


class TestStackedFpd:
    """The iterate on the padded edge stack against the flat loop it
    replaced (``oracles.reference_fpd``)."""

    CFG = M.SolverConfig(max_iters=400, epoch=20)

    @pytest.mark.parametrize("model, tol", [
        # one unpadded stack run steps bit for bit
        *((name, 0.0) for name in ("grid", "lp-tight", "single-node", "no-edges")),
        # padding and the node-side bincount order change the round-off only
        *((name, 1e-12) for name in ("mixed-labels", "mixed-labels-1e6")),
    ])
    def test_matches_the_flat_loop(self, model, tol):
        m = M.generate_grid(5, 6, 3) if model == "grid" else FPD_MODELS[model]()
        new, ref = M.solve_fpd(m, self.CFG), oracles.reference_fpd(m, self.CFG)
        assert (new.termination, len(new.records)) == (ref.termination, len(ref.records))
        for a, b in zip(new.records, ref.records):
            for f in ("dual_bound", "primal_bound", "integer_bound", "projected_energy"):
                assert abs(getattr(a, f) - getattr(b, f)) <= tol * max(1.0, abs(getattr(b, f)))
        np.testing.assert_allclose(new.marginals.flat, ref.marginals.flat, rtol=0, atol=tol)

    @pytest.mark.parametrize("model", ["mixed-labels", "mixed-labels-1e6"])
    def test_padding_stays_exactly_zero(self, monkeypatch, model):
        # padded cells cost +inf and padded message rows have step 0, so
        # neither ever leaves 0; checked after every step
        step = mrflp.solvers._FpdIterate.step
        padded = []

        def checked(it):
            step(it)
            stack = it.packing.edge_stack
            cells = it.mu[np.isinf(stack.theta)]
            rows = it.dual[stack.index == it.packing.dual_dim]
            padded.append(cells.size + rows.size)
            assert np.all(cells == 0.0) and np.all(rows == 0.0)

        monkeypatch.setattr(mrflp.solvers._FpdIterate, "step", checked)
        report = M.solve_fpd(FPD_MODELS[model](), self.CFG)
        assert len(padded) == 400 and len(report.records) == 21
        assert min(padded) > 0

    def test_one_product_pair_per_step(self, monkeypatch):
        # every step applies A^T and A once each, and the dual candidates go to
        # the flat layout and back only at epochs, for project_dual: the
        # iterate at all 6 epochs, the average at the 5 after the first; the
        # certificates' own products are counted apart
        calls = []

        def counted(name):
            method = getattr(mrflp._packing.Packing, name)

            def call(self, *args):
                calls.append((name, sys._getframe(1).f_code.co_name))
                return method(self, *args)

            monkeypatch.setattr(mrflp._packing.Packing, name, call)

        for name in ("apply_at", "apply_a_packed", "stack_dual", "unstack_dual"):
            counted(name)
        m = M.generate_grid(6, 6, 3, seed=2)
        report = M.solve_fpd(m, M.SolverConfig(max_iters=100, epoch=20))
        assert len(report.records) == 6
        sites = collections.Counter(calls)
        assert sites[("apply_at", "step")] == sites[("apply_a_packed", "step")] == 100
        assert sites[("unstack_dual", "solve_fpd")] == sites[("stack_dual", "project_dual")] == 11
        assert sites[("apply_at", "project_dual")] == 11
        assert {site for _, site in calls} == {"step", "solve_fpd", "project_dual", "constraint_residual", "__init__"}
        # the step's dual weights, gathered once when the iterate is built
        assert sites[("stack_dual", "__init__")] == 1


class TestAveragedDual:
    """``fpd``'s epochs certify the better of the dual iterate and the
    iteration-weighted average of the dual iterates."""

    @staticmethod
    def candidates(monkeypatch, m, cfg):
        """The run's report and each epoch's candidate dual values: the
        iterate's, then from the second epoch on the average's."""
        values = []
        project = mrflp.solvers.project_dual

        def valued(model, nu):
            point = project(model, nu)
            values.append(M.dual_value(model, point))
            return point

        monkeypatch.setattr(mrflp.solvers, "project_dual", valued)
        report = M.solve_fpd(m, cfg)
        assert len(values) == 2 * len(report.records) - 1
        return report, [values[:1], *zip(values[1::2], values[2::2])]

    def test_records_take_the_better_candidate(self, monkeypatch):
        m = M.generate_grid(10, 10, 4, law="uniform01", seed=0)
        report, epochs = self.candidates(monkeypatch, m, M.SolverConfig(max_iters=200, epoch=20))
        assert len(epochs) == len(report.records) == 11
        best = best_iterate = -math.inf
        for record, values in zip(report.records, epochs):
            best, best_iterate = max(best, *values), max(best_iterate, values[0])
            assert record.dual_bound == best >= best_iterate
        # the average raised the bound above every iterate's
        assert best > best_iterate
        assert M.dual_value(m, report.dual_point) == report.dual_bound

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_the_average_tightens_the_gap(self, seed):
        # 3.33e-4, 7.5e-5 and 1.32e-4 here, against 5.5e-4, 1.8e-4 and 5.6e-4
        # from the iterate alone (test_diagonal_steps_close_the_gap)
        m = M.generate_grid(10, 10, 4, law="uniform01", seed=seed)
        report = M.solve_fpd(m, M.SolverConfig(max_iters=600, epoch=20))
        assert report.relative_gap <= 3.5e-4

    def test_the_iterate_still_sets_the_bound(self, monkeypatch):
        # on an LP-tight grid the iterate converges fast, while the average
        # still carries the early iterates: the iterate wins every epoch here
        m = M.generate_lp_tight(10, 10, 3, 5, 1e6, 0.4, seed=0)[0]
        report, epochs = self.candidates(monkeypatch, m, M.SolverConfig(max_iters=200, epoch=20))
        assert any(iterate > average and record.dual_bound == iterate
                   for record, (iterate, average) in zip(report.records[1:], epochs[1:]))


def entropic_residuals(monkeypatch):
    """Per entropic projection of the solves that follow, the residuals
    before rounding of its edge problems, one array per projection."""
    projections = []
    project, solve = mrflp.solvers.project_primal_free_energy, mrflp.projections.solve_transport_entropic

    def opened(*args):
        projections.append([])
        return project(*args)

    def recorded(*args):
        result = solve(*args)
        projections[-1].append(np.atleast_1d(result.residual))
        return result

    monkeypatch.setattr(mrflp.solvers, "project_primal_free_energy", opened)
    monkeypatch.setattr(mrflp.projections, "solve_transport_entropic", recorded)
    return projections


class TestSeededEntropicEpoch:
    """``nest``'s smoothed epoch: one exact projection, whose potentials seed
    the entropic one."""

    def test_exact_call_comes_first(self, monkeypatch):
        calls = []

        def logged(name):
            fn = getattr(mrflp.solvers, name)

            def call(*args):
                calls.append((name, args[-1]))
                return fn(*args)
            monkeypatch.setattr(mrflp.solvers, name, call)

        logged("project_primal_energy")
        logged("project_primal_free_energy")
        m = M.generate_grid(4, 4, 3, seed=3)
        report = M.solve_nesterov(m, M.decompose_grid(m), M.SolverConfig(max_iters=60, epoch=20, rho=0.5))
        assert len(report.records) == 4
        assert [name for name, _ in calls] == ["project_primal_energy", "project_primal_free_energy"] * 4
        # both read the run's one state
        assert len({id(state) for _, state in calls}) == 1

    def test_a_failed_exact_projection_skips_the_entropic_one(self, monkeypatch):
        exact, entropic = [], []
        real = mrflp.solvers.project_primal_energy
        free = mrflp.solvers.project_primal_free_energy

        def failing_second(*args):
            exact.append(None)
            if len(exact) == 2:
                raise NumericalError("injected exact projection failure")
            return real(*args)

        monkeypatch.setattr(mrflp.solvers, "project_primal_energy", failing_second)
        monkeypatch.setattr(mrflp.solvers, "project_primal_free_energy",
                            lambda *args: entropic.append(None) or free(*args))
        m = M.generate_grid(4, 4, 3, seed=3)
        report = M.solve_nesterov(m, M.decompose_grid(m), M.SolverConfig(max_iters=100, epoch=20, rho=0.5))
        assert report.termination == "numerical-failure"
        assert (len(exact), len(entropic)) == (2, 1)
        assert [r.iteration for r in report.records] == [0]

    @pytest.mark.parametrize("make, cfg", [
        pytest.param(lambda: M.generate_grid(6, 6, 3, seed=4),
                     M.SolverConfig(max_iters=200, epoch=20, rho=0.5, rho_schedule="halving"), id="grid"),
        pytest.param(lambda: M.generate_lp_tight(20, 20, 3, 25.0, 1e6, 0.4, seed=0)[0],
                     M.SolverConfig(max_iters=60, epoch=20, rho=2.0), id="lp-tight"),
        pytest.param(lambda: oracles.mixed_label_grid(2),
                     M.SolverConfig(max_iters=200, epoch=20, rho=0.5, rho_schedule="halving"), id="mixed"),
    ])
    def test_smoothed_gap_is_nonnegative(self, make, cfg):
        m = make()
        report = M.solve_nesterov(m, M.decompose_grid(m), cfg)
        assert report.termination != "numerical-failure"
        assert report.records and all(r.smoothed_gap >= 0.0 for r in report.records)

    def test_no_stall_where_mass_moves_through_underflowed_entries(self, monkeypatch):
        # forbidden entries of 1e6 at rho 2: from a cold start Newton saw no
        # curvature in the underflowed entries, and 7 of 760 edges stopped at
        # residuals up to 1.35e-7
        residuals = entropic_residuals(monkeypatch)
        m, _ = M.generate_lp_tight(20, 20, 3, 25.0, 1e6, 0.4, seed=0)
        M.solve_nesterov(m, M.decompose_grid(m), M.SolverConfig(max_iters=40, epoch=20, rho=2.0))
        assert residuals
        for projection in residuals:
            assert np.concatenate(projection).max() <= 1e-9

    def test_few_stalls_at_small_rho(self, monkeypatch):
        # at rho 1e-3 a cold start left about a quarter of the edges above
        # 1e-9; a RuntimeWarning would fail the run (see pyproject.toml)
        residuals = entropic_residuals(monkeypatch)
        m = M.generate_grid(10, 10, 4, law="uniform01", seed=0)
        M.solve_nesterov(m, M.decompose_grid(m), M.SolverConfig(max_iters=40, epoch=20, rho=1e-3))
        assert len(residuals) == 3
        for projection in residuals:
            assert np.mean(np.concatenate(projection) > 1e-9) <= 0.03


class TestEpochCertification:
    def test_each_point_is_checked_once(self, monkeypatch):
        # the projection checks its own point, the tracker only a newly
        # embedded labeling, and the weak-duality check reuses the primal value
        calls = {}

        def count(owner, name):
            fn = getattr(owner, name)
            calls[owner.__name__, name] = 0

            def wrapped(*args, **kwargs):
                calls[owner.__name__, name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, wrapped)

        for owner, name in ((mrflp.projections, "constraint_residual"), (mrflp.solvers, "constraint_residual"),
                            (mrflp.solvers, "relaxed_energy"), (mrflp.solvers, "embed_labeling")):
            count(owner, name)
        m = M.generate_grid(4, 4, 3, seed=3)
        report = M.solve_subgradient(m, M.decompose_grid(m), M.SolverConfig(max_iters=100, epoch=10))
        epochs = len(report.records)
        assert calls["mrflp.projections", "constraint_residual"] == epochs
        assert calls["mrflp.solvers", "relaxed_energy"] == epochs
        assert 1 <= calls["mrflp.solvers", "embed_labeling"] == calls["mrflp.solvers", "constraint_residual"]

    def test_the_smoothed_gap_reads_the_certified_entropic_point(self, monkeypatch):
        # nest's smoothed gap takes the free energy of the entropic projection's
        # point, which that projection certified: its residual is not computed again
        calls = {"projections": 0, "dualdec": 0}
        for owner in (mrflp.projections, mrflp.dualdec):
            fn = owner.constraint_residual
            key = owner.__name__.split(".")[1]
            monkeypatch.setattr(owner, "constraint_residual",
                                lambda *a, fn=fn, key=key: calls.__setitem__(key, calls[key] + 1) or fn(*a))
        m = M.generate_grid(4, 4, 3, seed=3)
        report = M.solve_nesterov(m, M.decompose_grid(m), M.SolverConfig(max_iters=40, epoch=10, rho=0.5))
        epochs = len(report.records)
        assert epochs > 1 and all(r.smoothed_gap is not None for r in report.records)
        assert calls == {"projections": 2 * epochs, "dualdec": 0}
        mu = report.marginals
        assert M.free_energy(m, mu, 0.5, certified=True) == M.free_energy(m, mu, 0.5)


class TestTimeBudget:
    @pytest.mark.parametrize("solver, site", [
        *(pytest.param(name, "project_primal_energy", id=name) for name in ("sg-ave", "sg-wei", "nest", "fpd")),
        pytest.param("nest", "project_primal_free_energy", id="nest-entropic"),
        pytest.param("fpd", "project_dual", id="fpd-dual"),
    ])
    def test_stops_before_an_epoch_that_would_overrun(self, monkeypatch, solver, site):
        # each call of one projection kind takes 0.2 s: after the first epoch the
        # elapsed time plus one more projection exceeds the 0.3 s budget, so the
        # run stops there, and the sleeps count as projection time
        calls = []
        project = getattr(mrflp.solvers, site)

        def slow(*args, **kwargs):
            calls.append(None)
            time.sleep(0.2)
            return project(*args, **kwargs)
        monkeypatch.setattr(mrflp.solvers, site, slow)
        m = M.generate_grid(4, 4, 3, seed=3)
        cfg = M.SolverConfig(max_iters=1000, epoch=20, time_budget_s=0.3, rho=0.5)
        report = M.run_solver(m, solver, cfg)
        assert report.termination == "time-budget"
        assert len(calls) == len(report.records) == 1
        assert report.projection_time_s >= 0.2 * len(calls)

    def test_a_failed_projection_counts(self, monkeypatch):
        # the 2nd entropic projection takes 0.2 s and then fails: its time is
        # still projection time
        real = mrflp.solvers.project_primal_free_energy
        calls = []

        def slow_failing_second(*args):
            calls.append(None)
            if len(calls) == 2:
                time.sleep(0.2)
                raise NumericalError("injected entropic projection failure")
            return real(*args)

        monkeypatch.setattr(mrflp.solvers, "project_primal_free_energy", slow_failing_second)
        m = M.generate_grid(4, 4, 3, seed=3)
        report = M.solve_nesterov(m, M.decompose_grid(m), M.SolverConfig(max_iters=100, epoch=20, rho=0.5))
        assert report.termination == "numerical-failure"
        assert [r.iteration for r in report.records] == [0]
        assert report.projection_time_s >= 0.2


class TestWeakDualityFailure:
    @pytest.mark.parametrize("solver", ["fpd", "nest"])
    def test_violation_keeps_the_consistent_records(self, monkeypatch, solver):
        # inflate the third epoch's dual candidates by 1e6: that epoch breaks
        # weak duality, and the run must end with the two epochs before it.
        # fpd's first epoch values one dual point, each later epoch two
        calls = []
        third = (4, 5) if solver == "fpd" else (3,)

        def inflate(fn):
            def wrapped(*args, **kwargs):
                calls.append(None)
                out = fn(*args, **kwargs)
                if len(calls) not in third:
                    return out
                return out + 1e6 if solver == "fpd" else (out[0] + 1e6, *out[1:])
            return wrapped

        m = M.generate_grid(4, 4, 3, seed=3)
        cfg = M.SolverConfig(max_iters=100, epoch=20, rho=0.5, log_smoothed_gap=False)
        if solver == "fpd":
            monkeypatch.setattr(mrflp.solvers, "dual_value", inflate(mrflp.solvers.dual_value))
            report = M.solve_fpd(m, cfg)
        else:
            monkeypatch.setattr(M.DualContext, "value_and_subgradient",
                                inflate(M.DualContext.value_and_subgradient))
            report = M.solve_nesterov(m, M.decompose_grid(m), cfg)
        assert report.termination == "numerical-failure"
        assert [r.iteration for r in report.records] == [0, 20]
        for r in report.records:
            assert r.primal_bound >= r.dual_bound
        last = report.records[-1]
        assert (report.dual_bound, report.primal_bound) == (last.dual_bound, last.primal_bound)
        assert M.constraint_residual(m, report.marginals) <= 1e-9
        if solver == "fpd":
            assert M.dual_value(m, report.dual_point) == last.dual_bound


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


@pytest.mark.parametrize("solver", ["nest", "sg-ave", "sg-wei"])
def test_bounds_do_not_depend_on_forest_order(solver):
    # one chain as a row and as a column: the same tables and edges, but
    # decompose_grid puts every edge in forest 0 for the row, in forest 1 for
    # the column, so each forest's argmin labeling is the other's
    row, col = M.generate_grid(1, 5, 3, seed=0), M.generate_grid(5, 1, 3, seed=0)
    np.testing.assert_array_equal(row.theta, col.theta)
    assert row.edges == col.edges
    assert list(M.decompose_grid(row).colors) == [0] * 4 and list(M.decompose_grid(col).colors) == [1] * 4
    cfg = M.SolverConfig(max_iters=40, epoch=5)
    a, b = M.run_solver(row, solver, cfg), M.run_solver(col, solver, cfg)
    assert len(a.records) == len(b.records) > 1
    assert a.termination == b.termination
    assert [r.iteration for r in a.records] == [r.iteration for r in b.records]
    for ra, rb in zip(a.records, b.records):
        assert ra.primal_bound == rb.primal_bound
        assert ra.dual_bound == pytest.approx(rb.dual_bound, rel=0, abs=1e-12)


class TestWarmProjections:
    """Runs whose exact projections start warm from the run's projection
    state, against the same runs with every projection solved cold."""

    @pytest.mark.parametrize("solver", ["fpd", "sg-ave", "nest"])
    @pytest.mark.parametrize("name", ["grid", "mixed"])
    def test_dropping_the_state_keeps_the_bounds(self, monkeypatch, solver, name):
        m = M.generate_grid(6, 6, 3, seed=4) if name == "grid" else oracles.mixed_label_grid(2)
        cfg = M.SolverConfig(max_iters=200, epoch=10, rho=0.5,
                             rho_schedule="halving" if solver == "nest" else None)
        starts = []
        solve = mrflp.projections._solve_stack
        monkeypatch.setattr(mrflp.projections, "_solve_stack",
                            lambda c, r, s, start: starts.append(start is not None) or solve(c, r, s, start))
        warm = M.run_solver(m, solver, cfg)
        assert any(starts)

        states = []
        project = mrflp.solvers.project_primal_energy

        def stateless(model, node_blocks, state=None):
            states.append(state)
            return project(model, node_blocks)

        monkeypatch.setattr(mrflp.solvers, "project_primal_energy", stateless)
        starts.clear()
        cold = M.run_solver(m, solver, cfg)
        assert states and all(s is not None for s in states) and not any(starts)
        assert (warm.termination, len(warm.records)) == (cold.termination, len(cold.records))
        for a, b in zip(warm.records, cold.records):
            for field in ("dual_bound", "primal_bound", "integer_bound", "projected_energy"):
                assert getattr(a, field) == pytest.approx(getattr(b, field), rel=1e-9, abs=1e-12)


def test_bounds_do_not_depend_on_the_blas_thread_count():
    # a BLAS dot product's rounding follows its thread count; the certificates
    # use numpy reductions, whose summation order is fixed
    script = (
        "import mrflp as M\n"
        "m = M.generate_grid(30, 30, 4, law='uniform01', seed=1)\n"
        "print(repr(M.solve_fpd(m, M.SolverConfig(max_iters=40, epoch=20)).primal_bound))\n"
    )
    src = str(Path(M.__file__).resolve().parents[1])
    bounds = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        bounds.append(proc.stdout)
    assert bounds[0] == bounds[1]
