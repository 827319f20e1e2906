"""Iterative solvers with certified bounds at every logging epoch.

* ``solve_subgradient`` - ascent on the nonsmooth two-forest dual with
  uniform or step-weighted averaging of argmin labelings,
* ``solve_nesterov`` - accelerated gradient ascent on the smoothed dual,
  optionally with a geometrically diminishing smoothing level,
* ``solve_fpd`` - first-order primal-dual iteration on the explicit LP,
  with streaming constraint products (the constraint matrix is never built)
  and diagonal steps that follow from the layout alone.

All three share one epoch protocol.  The loop runs ``t = 0, ..., max_iters``
and steps after every ``t < max_iters``.  Before the step an epoch runs at
``t % epoch == 0``, at ``t == max_iters`` and, for ``sg-*``, at a zero
subgradient.  It projects ``fpd``'s dual iterate onto the dual feasible set
(the others' nonsmooth dual at the iterate is a valid bound as it is),
``nest``'s averaged maps by the entropic projection when the smoothed gap is
logged, and, in ``_Tracker.observe``, the primal estimate by the exact energy
projection.  That feasible point competes with rounded labelings (feasible as
embeddings) for the primal bound, so the integer bound never undercuts it.
The record carries the best certified pair so far: its gap never increases.

Every projection runs in ``_Tracker.project``, which adds its time, failed or
not, to ``projection_time_s`` and keeps a :class:`NumericalError` as the run's
failure; ``observe`` keeps a weak-duality violation the same way.  The
tracker owns the run's :class:`ProjectionState`: both primal projections read
the model's one layout of the edge stack, and each exact projection starts
warm from the optimal bases of the one before.  An epoch with a failure logs no record:
the run ends with ``numerical-failure`` and keeps the records and bounds
before it.  After each epoch the stop tests run
in order: a failure (``numerical-failure``), the last iteration
(``max-iters``), an ``sg-*`` zero subgradient (``dual-optimal``), a relative
gap at most ``tol`` or a gap below ``EQ_TOL`` (``gap-tolerance``), and the
elapsed time plus this epoch's projection time above ``time_budget_s``
(``time-budget``).
"""

from __future__ import annotations

import dataclasses
import math
import time

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
from .projections import (
    ProjectionState,
    dual_value,
    project_dual,
    project_primal_energy,
    project_primal_free_energy,
)
from .tolerances import EQ_TOL

# diminishing step envelope tau0 / (1 + t)**STEP_ALPHA, in (0.5, 1]
STEP_ALPHA = 0.51
# relaxation of the adaptive gap-over-norm-squared step, in (0, 2)
STEP_GAMMA = 1.0
# halving schedule: halve rho once the smoothed relative gap is below
# RHO_SHRINK_THRESHOLD * rho, and never below RHO_MIN
RHO_SHRINK_THRESHOLD = 1.0
RHO_MIN = 1e-4


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Shared solver options; fields irrelevant to a scheme are ignored.

    The step law's ``STEP_ALPHA`` and ``STEP_GAMMA`` and the halving
    schedule's ``RHO_SHRINK_THRESHOLD`` and ``RHO_MIN`` are fixed module
    constants, not options.  The logged smoothed gap drives the halving
    schedule, so ``rho_schedule="halving"`` needs ``log_smoothed_gap=True``.
    A run stops, with its records, after the first logging epoch at which
    the elapsed time plus that epoch's projection time exceeds
    ``time_budget_s``; while projections take steady time, it overruns the
    budget by at most one epoch of iterations.
    """

    max_iters: int = 1000
    time_budget_s: float | None = None
    epoch: int = 20
    tol: float = 0.0
    # subgradient step law
    step_law: str = "adaptive"
    tau0: float = 1.0
    # smoothing
    rho: float = 1.0
    rho_schedule: str | None = None
    log_smoothed_gap: bool = True

    def __post_init__(self):
        if self.max_iters < 1 or self.epoch < 1:
            raise ValueError("max_iters and epoch must be positive")
        if self.time_budget_s is not None and not 0 < self.time_budget_s < math.inf:
            raise ValueError("time budget must be positive and finite")
        if self.step_law not in ("adaptive", "diminishing"):
            raise ValueError("step_law must be 'adaptive' or 'diminishing'")
        if not 0 < self.tau0 < math.inf:
            raise ValueError("tau0 must be positive and finite")
        if not 0 < self.rho < math.inf:
            raise ValueError("rho must be positive and finite")
        if self.rho_schedule not in (None, "halving"):
            raise ValueError("rho_schedule must be None or 'halving'")
        if self.rho_schedule == "halving" and not self.log_smoothed_gap:
            raise ValueError("rho_schedule='halving' needs log_smoothed_gap=True: the smoothed gap drives it")
        if not 0 <= self.tol < math.inf:
            raise ValueError("tol must be nonnegative and finite")


@dataclasses.dataclass(frozen=True, eq=False)
class SolverReport:
    solver: str
    marginals: Marginals
    best_labeling: np.ndarray
    records: tuple[ConvergenceRecord, ...]
    termination: str
    dual_bound: float
    primal_bound: float
    integer_bound: float
    gap: float
    relative_gap: float
    projection_time_s: float
    dual_point: DualPoint | None = None
    lam: np.ndarray | None = None
    # nest's line-search halvings; always 0 for sg-* and fpd
    step_halvings: int = 0


def step_size(
    law: str,
    t: int,
    tau0: float = 1.0,
    best_primal: float | None = None,
    dual: float | None = None,
    grad_norm_sq: float | None = None,
) -> float:
    """Step size at iteration ``t``.

    ``diminishing`` is ``tau0 / (1 + t)**STEP_ALPHA``, which vanishes while
    its series diverges.  ``adaptive`` takes the gap-over-norm-squared step
    ``STEP_GAMMA * (best_primal - dual) / |g|^2`` clipped from above by the
    diminishing envelope; it falls back to the envelope until a certified
    primal bound exists.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not 0 < tau0 < math.inf:
        raise ValueError("tau0 must be positive and finite")
    envelope = tau0 / (1.0 + t) ** STEP_ALPHA
    if law == "diminishing":
        return envelope
    if law == "adaptive":
        if best_primal is None or dual is None or not math.isfinite(best_primal):
            return envelope
        if grad_norm_sq is None or grad_norm_sq <= 0.0:
            raise ValueError("adaptive step undefined for a zero subgradient")
        return min(envelope, STEP_GAMMA * max(best_primal - dual, 0.0) / grad_norm_sq)
    raise ValueError(f"unknown step law {law!r}")


def _check_feasible(model: MrfModel, marginals: Marginals) -> None:
    residual = constraint_residual(model, marginals)
    if residual > EQ_TOL:
        raise InfeasibleMarginalsError(f"marginals are infeasible (residual {residual:.3e})", residual=residual)


def _relative_gap(gap: float, dual_bound: float) -> float:
    return gap / max(1.0, abs(dual_bound))


def _weak_duality_gap(primal: float, dual_bound: float) -> tuple[float, float]:
    gap = primal - float(dual_bound)
    if gap < -EQ_TOL:
        raise NumericalError(f"negative duality gap {gap:.3e}: dual bound is not valid")
    return gap, _relative_gap(gap, float(dual_bound))


def gap_certificate(model: MrfModel, marginals: Marginals, dual_bound: float) -> tuple[float, float]:
    """Certified duality gap of a feasible primal point against a dual bound.

    Refuses infeasible marginals, and refuses gaps below ``-EQ_TOL`` (those
    indicate an invalid dual bound rather than convergence).
    """
    _check_feasible(model, marginals)
    return _weak_duality_gap(relaxed_energy(model, marginals), dual_bound)


class _Tracker:
    """Best-so-far certified bounds plus the convergence records, and the
    run's projection state."""

    def __init__(self, model: MrfModel):
        self.model = model
        self.projection_state = ProjectionState(model)
        self.t0 = time.perf_counter()
        self.best_dual = -math.inf
        self.best_primal = math.inf
        self.best_point: Marginals | None = None
        self.best_integer = math.inf
        self.best_labeling: np.ndarray | None = None
        self.records: list[ConvergenceRecord] = []
        self.projection_time = 0.0
        self.projection_mark = 0.0  # projection_time at the last stopping test: a new epoch's is the rest
        self.failure: NumericalError | None = None

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def project(self, fn, *args):
        """``fn(*args)``, one of an epoch's projections, timed into
        ``projection_time``; a :class:`NumericalError` is kept in ``failure``
        and the result is then ``None``."""
        start = time.perf_counter()
        try:
            return fn(*args)
        except NumericalError as exc:
            self.failure = exc
            return None
        finally:
            self.projection_time += time.perf_counter() - start

    def observe(self, iteration: int, node_blocks, dual_candidate: float, rho: float | None = None,
                smoothed_gap: float | None = None,
                extra_labeling: np.ndarray | None = None) -> ConvergenceRecord | None:
        """Fold one epoch into the best certified bounds and log its record.

        The node blocks are projected to a feasible point, which competes
        with its rounded labeling (and ``extra_labeling``) for the primal
        bound.  If this or an earlier projection of the epoch failed, or the
        weak-duality check raises :class:`NumericalError`, the bounds and
        records of the last consistent epoch stay, the error is kept in
        ``failure`` and the result is ``None``.
        """
        projected = (self.project(project_primal_energy, self.model, node_blocks, self.projection_state)
                     if self.failure is None else None)
        if projected is None:
            return None
        try:
            value = relaxed_energy(self.model, projected)
            labelings = [round_to_labeling(projected)] + ([] if extra_labeling is None else [extra_labeling])
            ivals = [energy(self.model, lab) for lab in labelings]
            k = int(np.argmin(ivals))
            # feasibility is checked once per point: by the projection or on embedding
            primal, point = self.best_primal, self.best_point
            if ivals[k] < primal and ivals[k] <= value:
                primal, point = ivals[k], embed_labeling(self.model, labelings[k])
                _check_feasible(self.model, point)
            elif value < primal:
                primal, point = value, projected
            dual = max(self.best_dual, float(dual_candidate))
            _weak_duality_gap(primal, dual)
        except NumericalError as exc:
            self.failure = exc
            return None
        if ivals[k] < self.best_integer:
            self.best_integer, self.best_labeling = ivals[k], np.asarray(labelings[k], dtype=np.int64)
        self.best_primal, self.best_point, self.best_dual = primal, point, dual
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

    def stop(self, cfg: SolverConfig, t: int, dual_optimal: bool = False) -> str | None:
        """The first stop test that the epoch at iteration ``t`` meets, if any."""
        if self.failure is not None:
            return "numerical-failure"
        if t == cfg.max_iters:
            return "max-iters"
        if dual_optimal:
            return "dual-optimal"
        # a certified gap below EQ_TOL cannot be told from zero: its sign is round-off
        gap = self.best_primal - self.best_dual
        if _relative_gap(gap, self.best_dual) <= cfg.tol or gap <= EQ_TOL:
            return "gap-tolerance"
        last, self.projection_mark = self.projection_time - self.projection_mark, self.projection_time
        if cfg.time_budget_s is not None and self.elapsed() + last > cfg.time_budget_s:
            return "time-budget"
        return None

    def report(self, solver: str, termination: str, **extras) -> SolverReport:
        """The run's report; ``extras`` are the solver's own fields."""
        if self.best_point is None:
            raise NumericalError("no feasible point was ever recorded") from self.failure
        gap = self.best_primal - self.best_dual
        return SolverReport(
            solver=solver,
            marginals=self.best_point,
            best_labeling=self.best_labeling,
            records=tuple(self.records),
            termination=termination,
            dual_bound=self.best_dual,
            primal_bound=self.best_primal,
            integer_bound=self.best_integer,
            gap=gap,
            relative_gap=_relative_gap(gap, self.best_dual),
            projection_time_s=self.projection_time,
            **extras,
        )


def solve_subgradient(model: MrfModel, decomposition: Decomposition, cfg: SolverConfig,
                      averaging: str = "uniform") -> SolverReport:
    """Subgradient ascent on the two-forest dual.

    ``averaging`` selects the primal reconstruction: ``"uniform"`` averages
    the argmin labelings of both forests over time, ``"step-weighted"``
    weighs each entry by its step size.  The last epoch logs the average
    over the ``max_iters`` iterations before it.
    """
    if averaging not in ("uniform", "step-weighted"):
        raise ValueError("averaging must be 'uniform' or 'step-weighted'")
    ctx = DualContext(model, decomposition)
    packing = ctx.packing
    lam = np.zeros(packing.node_dim)
    acc = np.zeros(packing.node_dim)
    acc_w = 0.0
    tracker = _Tracker(model)

    for t in range(cfg.max_iters + 1):
        value, g, (x1, x2) = ctx.value_and_subgradient(lam)
        gsq = float(np.add.reduce(g * g))  # not BLAS, as in relaxed_energy
        # zero: both forests agree on one labeling, a certified dual optimum
        optimal = gsq == 0.0
        law = "diminishing" if optimal else cfg.step_law
        tau = step_size(law, t, tau0=cfg.tau0, best_primal=tracker.best_primal, dual=value, grad_norm_sq=gsq)
        w = 1.0 if averaging == "uniform" else tau
        if w > 0.0 and t < cfg.max_iters:
            _accumulate_labelings(acc, packing, (x1, x2), (w, w))
            acc_w += 2.0 * w
        if optimal or t % cfg.epoch == 0 or t == cfg.max_iters:
            # acc_w > 0: the first step, tau0 or 1, has positive weight
            tracker.observe(t, acc / acc_w, value, extra_labeling=x1)
            termination = tracker.stop(cfg, t, dual_optimal=optimal)
            if termination is not None:
                break
        lam = lam + tau * g
    return tracker.report("sg-ave" if averaging == "uniform" else "sg-wei", termination, lam=lam)


def solve_nesterov(model: MrfModel, decomposition: Decomposition, cfg: SolverConfig) -> SolverReport:
    """Accelerated gradient ascent on the smoothed two-forest dual.

    The gradient-smoothness estimate ``4 / rho`` (two forests, each node
    shared by both) is doubled whenever an iteration fails its ascent check.
    The recorded dual bound is the nonsmooth dual at the iterate, which is
    always a valid lower bound; the feasible primal bound comes from the
    energy projection of the averaged marginal maps.  With
    ``rho_schedule="halving"`` the smoothing level halves whenever the
    smoothed relative gap drops below ``RHO_SHRINK_THRESHOLD * rho``, down
    to ``RHO_MIN``.  If the ascent check fails more than 200 times in all,
    the run ends with ``termination="numerical-failure"`` and the records
    so far.
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

    for t in range(cfg.max_iters + 1):
        if t % cfg.epoch == 0 or t == cfg.max_iters:
            u_val, _, (x1, _) = ctx.value_and_subgradient(lam)
            uh_val, _, maps = ctx.smoothed(lam, rho)
            blocks = (maps[0] + maps[1]) / 2.0
            smoothed_gap = None
            if cfg.log_smoothed_gap:
                state = tracker.projection_state
                feas = tracker.project(project_primal_free_energy, model, decomposition, blocks, rho, state)
                if feas is not None:
                    smoothed_gap = free_energy(model, feas, rho) - uh_val
            tracker.observe(t, blocks, u_val, rho=rho, smoothed_gap=smoothed_gap, extra_labeling=x1)
            termination = tracker.stop(cfg, t)
            if termination is not None:
                break
            if (
                cfg.rho_schedule == "halving"
                and rho > RHO_MIN
                and _relative_gap(smoothed_gap, tracker.best_dual) < RHO_SHRINK_THRESHOLD * rho
            ):
                rho = max(rho / 2.0, RHO_MIN)
                lip = 4.0 / rho
                tk = 1.0
                y = lam.copy()
        v_y, grad, _ = ctx.smoothed(y, rho)
        gsq = float(np.add.reduce(grad * grad))  # not BLAS, as in relaxed_energy
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
            break
        tk_next = (1.0 + math.sqrt(1.0 + 4.0 * tk * tk)) / 2.0
        y = lam_new + ((tk - 1.0) / tk_next) * (lam_new - lam)
        lam = lam_new
        tk = tk_next
    return tracker.report("nest", termination, lam=lam, step_halvings=halvings)


def _fpd_steps(packing) -> tuple[np.ndarray, np.ndarray]:
    """``fpd``'s unscaled primal and dual steps: Pock & Chambolle's diagonal
    preconditioner (ICCV 2011, Lemma 2, alpha = 1), one over each column's and
    each row's count of nonzeros in ``A``, whose entries are in {-1, 0, 1}.

    ``tau`` is ``1 / (1 + deg v)`` on node entries and ``1 / 3`` on edge cells.
    ``sigma``, in :meth:`Packing.split_dual`'s order, is ``1 / L_v`` on node
    rows, ``1 / (L_u L_v)`` on edge rows, ``1 / (1 + L_v)`` on u-side rows and
    ``1 / (1 + L_u)`` on v-side rows.  They give ``|Sigma^1/2 A T^1/2| <= 1``.
    """
    counts = packing.label_counts
    lu, lv = packing.edge_shapes.T
    degree = np.bincount(packing.edge_ends.ravel(), minlength=len(counts))
    tau = np.concatenate([np.repeat(1.0 / (1.0 + degree), counts), np.full(packing.edge_dim, 1.0 / 3.0)])
    sigma = 1.0 / np.concatenate([counts, packing.block_sizes, np.repeat(1 + lv, lu), np.repeat(1 + lu, lv)])
    return tau, sigma


def solve_fpd(model: MrfModel, cfg: SolverConfig) -> SolverReport:
    """Chambolle-Pock primal-dual iteration on the explicit local-polytope LP.

    The primal step is a nonnegativity-clipped gradient step, the dual step
    a gradient step at the over-relaxed primal point.  The steps are
    :func:`_fpd_steps`' vectors, which follow from the layout alone, scaled by
    0.99 so that ``|Sigma^1/2 A T^1/2| < 1`` by construction: there is no norm
    estimate and no guard.  The dual objective is not monotone, and its dips
    are not divergence.  Both projections run at epochs only.
    """
    packing = model.packing()
    theta = packing.theta
    # right-hand side of apply_a_packed: node and edge normalization
    b = np.zeros(packing.dual_dim)
    b[: model.n_nodes + model.n_edges] = 1.0
    tau, sigma = (0.99 * step for step in _fpd_steps(packing))

    # uniform node and edge blocks
    sizes = np.concatenate([packing.label_counts, packing.block_sizes])
    mu = np.repeat(1.0 / sizes, sizes)
    nu = np.zeros(packing.dual_dim)
    tracker = _Tracker(model)
    dual_point = None

    for t in range(cfg.max_iters + 1):
        if t % cfg.epoch == 0 or t == cfg.max_iters:
            point = tracker.project(project_dual, model, nu)
            if point is not None:
                d_val = dual_value(model, point)
                record = tracker.observe(t, mu[: packing.node_dim], d_val)
                # keep the point that set the certified dual bound
                if record is not None and d_val >= record.dual_bound:
                    dual_point = point
            termination = tracker.stop(cfg, t)
            if termination is not None:
                break
        mu_new = np.maximum(mu - tau * (theta - packing.apply_at(nu)), 0.0)
        mu_bar = 2.0 * mu_new - mu
        mu = mu_new
        nu = nu + sigma * (b - packing.apply_a_packed(mu_bar))
    return tracker.report("fpd", termination, dual_point=dual_point)
