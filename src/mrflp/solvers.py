"""Iterative solvers with certified bounds at every logging epoch.

All solvers log the same way: at every epoch the current (generally
infeasible) primal estimate is made feasible by the energy projection, the
current dual estimate is a valid lower bound, and the record carries the
best certified pair seen so far.  The primal bound also absorbs rounded
integer labelings (their embeddings are feasible points), so the integer
bound can never undercut it and the recorded gap never increases.

Solvers:

* ``solve_subgradient`` - ascent on the nonsmooth two-forest dual with
  uniform or step-weighted averaging of argmin labelings,
* ``solve_nesterov`` - accelerated gradient ascent on the smoothed dual,
  optionally with a geometrically diminishing smoothing level,
* ``solve_fpd`` - first-order primal-dual iteration on the explicit LP,
  with streaming constraint products (the constraint matrix is never built).
"""

from __future__ import annotations

import dataclasses
import math
import time
from collections import deque

import numpy as np

from .dualdec import DualContext, _accumulate_labelings, free_energy
from .errors import InfeasibleMarginalsError, NumericalError
from .model import (
    ConvergenceRecord,
    Decomposition,
    DualPoint,
    Marginals,
    MrfModel,
    constraint_residual,
    embed_labeling,
    energy,
    relaxed_energy,
    round_to_labeling,
)
from .projections import dual_value, project_dual, project_primal_energy, project_primal_free_energy
from .tolerances import EQ_TOL


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Shared solver options; fields irrelevant to a scheme are ignored."""

    max_iters: int = 1000
    time_budget_s: float | None = None
    epoch: int = 20
    tol: float = 0.0
    seed: int = 0
    # subgradient step law
    step_law: str = "adaptive"
    tau0: float = 1.0
    alpha: float = 0.51
    gamma: float = 1.0
    # smoothing
    rho: float = 1.0
    rho_schedule: str | None = None
    rho_shrink_threshold: float = 1.0
    rho_min: float = 1e-4
    log_smoothed_gap: bool = True
    divergence_window: int = 30

    def __post_init__(self):
        if self.max_iters < 1 or self.epoch < 1:
            raise ValueError("max_iters and epoch must be positive")
        if self.time_budget_s is not None and self.time_budget_s <= 0:
            raise ValueError("time budget must be positive")
        if self.rho <= 0:
            raise ValueError("rho must be positive")
        if self.rho_schedule not in (None, "halving"):
            raise ValueError("rho_schedule must be None or 'halving'")
        if self.tol < 0:
            raise ValueError("tol must be nonnegative")


@dataclasses.dataclass(frozen=True)
class SolverReport:
    solver: str
    marginals: Marginals
    dual_point: DualPoint | None
    lam: np.ndarray | None
    best_labeling: np.ndarray
    records: tuple[ConvergenceRecord, ...]
    termination: str
    dual_bound: float
    primal_bound: float
    integer_bound: float
    gap: float
    relative_gap: float
    projection_time_s: float
    step_halvings: int = 0
    divergence_flag: bool = False
    adaptive_step_used: bool = False


def step_size(
    law: str,
    t: int,
    tau0: float = 1.0,
    alpha: float = 0.51,
    gamma: float = 1.0,
    best_primal: float | None = None,
    dual: float | None = None,
    grad_norm_sq: float | None = None,
) -> float:
    """Step size at iteration ``t``.

    ``diminishing`` is ``tau0 / (1 + t)**alpha`` with ``alpha`` in (0.5, 1],
    which vanishes while its series diverges.  ``adaptive`` takes the
    gap-over-norm-squared step ``gamma * (best_primal - dual) / |g|^2``
    clipped from above by the diminishing envelope; it falls back to the
    envelope until a certified primal bound exists.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if tau0 <= 0:
        raise ValueError("tau0 must be positive")
    if not 0.5 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0.5, 1]")
    envelope = tau0 / (1.0 + t) ** alpha
    if law == "diminishing":
        return envelope
    if law == "adaptive":
        if not 0.0 < gamma < 2.0:
            raise ValueError("gamma must lie in (0, 2)")
        if best_primal is None or dual is None or not math.isfinite(best_primal):
            return envelope
        if grad_norm_sq is None or grad_norm_sq <= 0.0:
            raise ValueError("adaptive step undefined for a zero subgradient")
        return min(envelope, gamma * max(best_primal - dual, 0.0) / grad_norm_sq)
    raise ValueError(f"unknown step law {law!r}")


def gap_certificate(model: MrfModel, marginals: Marginals, dual_bound: float) -> tuple[float, float]:
    """Certified duality gap of a feasible primal point against a dual bound.

    Refuses infeasible marginals, and refuses gaps below ``-1e-9`` (those
    indicate an invalid dual bound rather than convergence).
    """
    residual = constraint_residual(model, marginals)
    if residual > EQ_TOL:
        raise InfeasibleMarginalsError(
            f"marginals are infeasible (residual {residual:.3e})", residual=residual
        )
    gap = relaxed_energy(model, marginals) - float(dual_bound)
    if gap < -EQ_TOL:
        raise NumericalError(f"negative duality gap {gap:.3e}: dual bound is not valid")
    return gap, gap / max(1.0, abs(float(dual_bound)))


class _Tracker:
    """Best-so-far certified bounds plus the convergence records."""

    def __init__(self, model: MrfModel):
        self.model = model
        self.t0 = time.perf_counter()
        self.best_dual = -math.inf
        self.best_primal = math.inf
        self.best_point: Marginals | None = None
        self.best_integer = math.inf
        self.best_labeling: np.ndarray | None = None
        self.records: list[ConvergenceRecord] = []
        self.projection_time = 0.0

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def observe(
        self,
        iteration: int,
        node_blocks,
        dual_candidate: float,
        rho: float | None = None,
        smoothed_gap: float | None = None,
        extra_labeling: np.ndarray | None = None,
    ) -> ConvergenceRecord:
        start = time.perf_counter()
        projected = project_primal_energy(self.model, node_blocks)
        self.projection_time += time.perf_counter() - start
        value = relaxed_energy(self.model, projected)
        labeling = round_to_labeling(projected)
        candidates = [labeling] if extra_labeling is None else [labeling, extra_labeling]
        for lab in candidates:
            ival = energy(self.model, lab)
            if ival < self.best_integer:
                self.best_integer = ival
                self.best_labeling = np.asarray(lab, dtype=np.int64)
            if ival < self.best_primal:
                self.best_primal = ival
                self.best_point = embed_labeling(self.model, lab)
        if value < self.best_primal:
            self.best_primal = value
            self.best_point = projected
        self.best_dual = max(self.best_dual, float(dual_candidate))
        if self.best_primal < self.best_dual - EQ_TOL:
            raise NumericalError(
                f"weak duality violated: primal {self.best_primal} < dual {self.best_dual}"
            )
        record = ConvergenceRecord(
            iteration=iteration,
            time_s=self.elapsed(),
            dual_bound=self.best_dual,
            primal_bound=self.best_primal,
            integer_bound=self.best_integer,
            gap=self.best_primal - self.best_dual,
            rho=rho,
            smoothed_gap=smoothed_gap,
            projected_energy=value,
        )
        self.records.append(record)
        return record

    def relative_gap(self) -> float:
        return (self.best_primal - self.best_dual) / max(1.0, abs(self.best_dual))

    def final_marginals(self) -> Marginals:
        if self.best_point is None:
            raise NumericalError("no feasible point was ever recorded")
        return self.best_point

    def report(
        self,
        solver: str,
        termination: str,
        lam: np.ndarray | None = None,
        dual_point: DualPoint | None = None,
        step_halvings: int = 0,
        divergence_flag: bool = False,
        adaptive_step_used: bool = False,
    ) -> SolverReport:
        return SolverReport(
            solver=solver,
            marginals=self.final_marginals(),
            dual_point=dual_point,
            lam=lam,
            best_labeling=self.best_labeling,
            records=tuple(self.records),
            termination=termination,
            dual_bound=self.best_dual,
            primal_bound=self.best_primal,
            integer_bound=self.best_integer,
            gap=self.best_primal - self.best_dual,
            relative_gap=self.relative_gap(),
            projection_time_s=self.projection_time,
            step_halvings=step_halvings,
            divergence_flag=divergence_flag,
            adaptive_step_used=adaptive_step_used,
        )


def _should_stop(tracker: _Tracker, cfg: SolverConfig) -> str | None:
    # a certified gap below EQ_TOL cannot be told from zero: its sign is round-off
    if tracker.relative_gap() <= cfg.tol or tracker.best_primal - tracker.best_dual <= EQ_TOL:
        return "gap-tolerance"
    if cfg.time_budget_s is not None and tracker.elapsed() > cfg.time_budget_s:
        return "time-budget"
    return None


def _diverging(recent: deque, window: int) -> bool:
    if len(recent) < window:
        return False
    vals = list(recent)
    return all(b < a - 1e-6 for a, b in zip(vals, vals[1:]))


def solve_subgradient(
    model: MrfModel,
    decomposition: Decomposition,
    cfg: SolverConfig,
    averaging: str = "uniform",
) -> SolverReport:
    """Subgradient ascent on the two-forest dual.

    ``averaging`` selects the primal reconstruction: ``"uniform"`` averages
    the argmin labelings of both forests over time, ``"step-weighted"``
    weighs each entry by its step size.
    """
    if averaging not in ("uniform", "step-weighted"):
        raise ValueError("averaging must be 'uniform' or 'step-weighted'")
    ctx = DualContext(model, decomposition)
    packing = ctx.packing
    lam = np.zeros(packing.node_dim)
    acc = np.zeros(packing.node_dim)
    acc_w = 0.0
    tracker = _Tracker(model)
    recent: deque = deque(maxlen=cfg.divergence_window)
    termination = "max-iters"
    stopped = False

    for t in range(cfg.max_iters):
        value, g, (x1, x2) = ctx.value_and_subgradient(lam)
        recent.append(value)
        gsq = float(g @ g)
        # zero: both forests agree on one labeling, a certified dual optimum
        optimal = gsq == 0.0
        if optimal:
            tau = step_size("diminishing", t, tau0=cfg.tau0, alpha=cfg.alpha)
        else:
            tau = step_size(
                cfg.step_law,
                t,
                tau0=cfg.tau0,
                alpha=cfg.alpha,
                gamma=cfg.gamma,
                best_primal=tracker.best_primal,
                dual=value,
                grad_norm_sq=gsq,
            )
        w = 1.0 if averaging == "uniform" else tau
        if w > 0.0:
            _accumulate_labelings(acc, packing, (x1, x2), (w, w))
            acc_w += 2.0 * w
        if (optimal or t % cfg.epoch == 0) and acc_w > 0.0:
            tracker.observe(t, acc / acc_w, value, extra_labeling=x1)
            reason = "dual-optimal" if optimal else _should_stop(tracker, cfg)
            if reason is None and _diverging(recent, cfg.divergence_window):
                reason = "numerical-failure"
            if reason is not None:
                termination = reason
                stopped = True
                break
        lam = lam + tau * g
    if not stopped:
        value, _, (x1, _) = ctx.value_and_subgradient(lam)
        tracker.observe(cfg.max_iters, acc / acc_w if acc_w > 0 else acc, value, extra_labeling=x1)
    return tracker.report(
        solver="sg-ave" if averaging == "uniform" else "sg-wei",
        termination=termination,
        lam=lam,
        adaptive_step_used=cfg.step_law == "adaptive",
    )


def solve_nesterov(model: MrfModel, decomposition: Decomposition, cfg: SolverConfig) -> SolverReport:
    """Accelerated gradient ascent on the smoothed two-forest dual.

    The gradient-smoothness estimate ``4 / rho`` (two forests, each node
    shared by both) is doubled whenever an iteration fails its ascent check.
    The recorded dual bound is the nonsmooth dual at the iterate, which is
    always a valid lower bound; the feasible primal bound comes from the
    energy projection of the averaged marginal maps.  With
    ``rho_schedule="halving"`` the smoothing level halves whenever the
    smoothed relative gap drops below ``rho_shrink_threshold * rho``.  If
    the ascent check fails more than 200 times in all, the run ends with
    ``termination="numerical-failure"`` and the records so far.
    """
    ctx = DualContext(model, decomposition)
    packing = ctx.packing
    rho = cfg.rho
    lam = np.zeros(packing.node_dim)
    y = lam.copy()
    tk = 1.0
    lip = 4.0 / rho
    halvings = 0
    tracker = _Tracker(model)
    termination = "max-iters"
    stopped = False

    def log_epoch(iteration: int) -> ConvergenceRecord:
        u_val, _, (x1, _) = ctx.value_and_subgradient(lam)
        uh_val, _, maps = ctx.smoothed(lam, rho)
        blocks = (maps[0] + maps[1]) / 2.0
        smoothed_gap = None
        if cfg.log_smoothed_gap:
            start = time.perf_counter()
            feas = project_primal_free_energy(model, decomposition, blocks, rho)
            tracker.projection_time += time.perf_counter() - start
            smoothed_gap = free_energy(model, decomposition, feas, rho) - uh_val
        return tracker.observe(
            iteration, blocks, u_val, rho=rho, smoothed_gap=smoothed_gap, extra_labeling=x1
        )

    for t in range(cfg.max_iters):
        if t % cfg.epoch == 0:
            record = log_epoch(t)
            reason = _should_stop(tracker, cfg)
            if reason is not None:
                termination = reason
                stopped = True
                break
            if (
                cfg.rho_schedule == "halving"
                and rho > cfg.rho_min
                and record.smoothed_gap is not None
                and record.smoothed_gap / max(1.0, abs(tracker.best_dual)) < cfg.rho_shrink_threshold * rho
            ):
                rho = max(rho / 2.0, cfg.rho_min)
                lip = 4.0 / rho
                tk = 1.0
                y = lam.copy()
        v_y, grad, _ = ctx.smoothed(y, rho)
        gsq = float(grad @ grad)
        while halvings <= 200:
            lam_new = y + grad / lip
            v_new = ctx.smoothed_value(lam_new, rho)
            if v_new >= v_y + gsq / (2.0 * lip) - 1e-10 * (1.0 + abs(v_y)):
                break
            lip *= 2.0
            halvings += 1
        else:
            # the ascent step kept failing: the smoothness estimate diverged
            termination = "numerical-failure"
            stopped = True
            break
        tk_next = (1.0 + math.sqrt(1.0 + 4.0 * tk * tk)) / 2.0
        y = lam_new + ((tk - 1.0) / tk_next) * (lam_new - lam)
        lam = lam_new
        tk = tk_next
    if not stopped:
        log_epoch(cfg.max_iters)
    return tracker.report(
        solver="nest",
        termination=termination,
        lam=lam,
        step_halvings=halvings,
    )


def solve_fpd(model: MrfModel, cfg: SolverConfig) -> SolverReport:
    """First-order primal-dual iteration on the explicit local-polytope LP.

    The primal step is a nonnegativity-clipped gradient step, the dual step
    a gradient step at the over-relaxed primal point; the step sizes satisfy
    ``sigma * tau * |A|^2 <= 1`` with the operator norm estimated by power
    iteration on the streaming constraint products.  Both feasibility
    projections run at logging epochs only.
    """
    packing = model.packing()
    theta = packing.theta
    # right-hand side of apply_a_packed: node and edge normalization
    b = np.zeros(packing.dual_dim)
    b[: model.n_nodes + model.n_edges] = 1.0
    rng = np.random.default_rng(cfg.seed)
    x = rng.standard_normal(packing.total_dim)
    norm_sq = 1.0
    for _ in range(50):
        y = packing.apply_at(packing.apply_a_packed(x))
        ny = float(np.linalg.norm(y))
        if ny == 0.0:
            break
        x = y / ny
        norm_sq = ny
    norm_a = math.sqrt(max(norm_sq, 1e-12))
    sigma = tau = 0.99 / norm_a

    # uniform node and edge blocks
    sizes = np.concatenate([packing.label_counts, packing.block_sizes])
    mu = np.repeat(1.0 / sizes, sizes)
    nu = np.zeros(packing.dual_dim)
    tracker = _Tracker(model)
    termination = "max-iters"
    stopped = False
    halvings = 0
    diverged = False
    recent: deque = deque(maxlen=max(3, cfg.divergence_window // cfg.epoch))
    snapshot = (mu.copy(), nu.copy())

    def log_epoch(iteration: int):
        nonlocal mu, nu, sigma, tau, halvings, diverged, snapshot
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(nu))):
            mu, nu = snapshot[0].copy(), snapshot[1].copy()
            sigma /= 2.0
            tau /= 2.0
            halvings += 1
            diverged = True
        start = time.perf_counter()
        point = project_dual(model, nu)
        tracker.projection_time += time.perf_counter() - start
        d_val = dual_value(model, point)
        recent.append(d_val)
        if _diverging(recent, recent.maxlen):
            sigma /= 2.0
            tau /= 2.0
            halvings += 1
            diverged = True
            recent.clear()
        snapshot = (mu.copy(), nu.copy())
        return tracker.observe(iteration, mu[: packing.node_dim], d_val), point

    dual_point = None
    for t in range(cfg.max_iters):
        if t % cfg.epoch == 0:
            _, dual_point = log_epoch(t)
            reason = _should_stop(tracker, cfg)
            if reason is not None:
                termination = reason
                stopped = True
                break
        mu_new = np.maximum(mu - tau * (theta - packing.apply_at(nu)), 0.0)
        mu_bar = 2.0 * mu_new - mu
        mu = mu_new
        nu = nu + sigma * (b - packing.apply_a_packed(mu_bar))
    if not stopped:
        _, dual_point = log_epoch(cfg.max_iters)
    return tracker.report(
        solver="fpd",
        termination=termination,
        dual_point=dual_point,
        step_halvings=halvings,
        divergence_flag=diverged,
    )
