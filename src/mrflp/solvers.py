"""Iterative solvers with certified bounds at every logging epoch.

* ``solve_subgradient`` - ascent on the nonsmooth two-forest dual with
  uniform or step-weighted averaging of argmin labelings,
* ``solve_nesterov`` - accelerated gradient ascent on the smoothed dual,
  optionally with a geometrically diminishing smoothing level,
* ``solve_fpd`` - first-order primal-dual iteration on the explicit LP,
  with diagonal steps that follow from the layout alone.  Its iterate lives
  on the packing's padded edge stack and steps with the packing's stacked
  products ``A`` and ``A^T``, the same two that every certificate reads; the
  constraint matrix is never built, and the flat dual vector only at epochs.

All three share one epoch protocol.  The loop runs ``t = 0, ..., max_iters``
and steps after every ``t < max_iters``.  Before the step an epoch runs at
``t % epoch == 0`` and at ``t == max_iters``.  It projects ``fpd``'s dual
iterate and, after the first step, its iteration-weighted dual average onto
the dual feasible set (the others' nonsmooth dual at the iterate is a valid
bound as it is), then the primal estimate by the exact energy projection,
and, when ``nest`` logs the smoothed gap, the same averaged maps by the
entropic projection, which the exact one's potentials seed: one exact solve
serves both.  ``_Tracker.observe`` folds in the exact point and alone picks
the certified points.  Its primal candidates are that feasible point, its
rounding and every labeling the solver read off its dual (both forests'
argmins for ``sg-*`` and ``nest``), feasible as embeddings, so no forest is
preferred and the integer bound never undercuts the primal bound.  Of
``fpd``'s two dual points it is handed the one of the higher value, and
keeps it by the rule that raises the dual bound.  The record carries the
best certified pair so far: its gap never increases.

Every projection runs in ``_Tracker.project``, which adds its time, failed or
not, to ``projection_time_s`` and keeps a :class:`NumericalError` as the run's
failure; ``observe`` keeps a weak-duality violation the same way.  The
tracker owns the run's :class:`ProjectionState`, from whose bases each exact
projection starts warm and whose bases' potentials seed each entropic
projection.
A failed projection skips the epoch's later ones, and an epoch with a
failure logs no record: the run ends with ``numerical-failure`` and keeps
the records, bounds and points before it.  After each epoch four stop tests
run in order: a failure (``numerical-failure``), the last iteration
(``max-iters``), a relative gap at most ``tol`` or a gap below ``EQ_TOL``
(``gap-tolerance``), and the elapsed time plus this epoch's projection time
above ``time_budget_s`` (``time-budget``).  At an ``sg-*`` zero subgradient both forests pick one
labeling; the next epoch scores it, and the gap it closes ends the run.
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
        if not all(isinstance(c, (int, np.integer)) and not isinstance(c, bool) for c in (self.max_iters, self.epoch)):
            raise ValueError("max_iters and epoch must be integers")
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
    primal bound exists; a non-finite ``dual`` or ``grad_norm_sq`` is
    refused.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if not 0 < tau0 < math.inf:
        raise ValueError("tau0 must be positive and finite")
    envelope = tau0 / (1.0 + t) ** STEP_ALPHA
    if law == "diminishing":
        return envelope
    if law == "adaptive":
        if any(x is not None and not math.isfinite(x) for x in (dual, grad_norm_sq)):
            raise ValueError("adaptive step needs a finite dual value and subgradient norm")
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

    Refuses infeasible marginals, a non-finite dual bound, and gaps below
    ``-EQ_TOL`` (those indicate an invalid dual bound rather than
    convergence).
    """
    if not math.isfinite(dual_bound):
        raise ValueError("dual bound must be finite")
    _check_feasible(model, marginals)
    return _weak_duality_gap(relaxed_energy(model, marginals), dual_bound)


class _Tracker:
    """Best-so-far certified bounds, the points that set them, the
    convergence records, and the run's projection state."""

    def __init__(self, model: MrfModel):
        self.model = model
        self.projection_state = ProjectionState(model)
        self.t0 = time.perf_counter()
        self.best_dual = -math.inf
        self.best_dual_point: DualPoint | None = None
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

    def project_exact(self, node_blocks) -> Marginals | None:
        """The exact energy projection of the node blocks from the run's
        state, through :meth:`project`."""
        return self.project(project_primal_energy, self.model, node_blocks, self.projection_state)

    def observe(self, iteration: int, projected: Marginals | None, dual_candidate: float, rho: float | None = None,
                smoothed_gap: float | None = None, labelings: tuple[np.ndarray, ...] = (),
                dual_point: DualPoint | None = None) -> ConvergenceRecord | None:
        """Fold one epoch into the best certified bounds and log its record.

        ``projected``, the epoch's :meth:`project_exact` point, competes with
        its rounded labeling and every one of ``labelings`` for the primal
        bound; the first of the lowest energy wins a tie.  ``dual_point``,
        whose value is ``dual_candidate``, replaces the kept one when that
        value is at least the best dual bound so far.  If a projection of the
        epoch failed, or the weak-duality check raises
        :class:`NumericalError`, the bounds, points and records of the last
        consistent epoch stay, the error is kept in ``failure`` and the
        result is ``None``.
        """
        if self.failure is not None:
            return None
        try:
            value = relaxed_energy(self.model, projected)
            labelings = [round_to_labeling(projected), *labelings]
            ivals = [energy(self.model, lab) for lab in labelings]
            k = int(np.argmin(ivals))
            # feasibility is checked once per point: by the projection or on embedding
            primal, point = self.best_primal, self.best_point
            if ivals[k] < primal and ivals[k] <= value:
                primal, point = ivals[k], embed_labeling(self.model, labelings[k])
                _check_feasible(self.model, point)
            elif value < primal:
                primal, point = value, projected
            dual, dual_point = ((float(dual_candidate), dual_point) if dual_candidate >= self.best_dual
                                else (self.best_dual, self.best_dual_point))
            _weak_duality_gap(primal, dual)
        except NumericalError as exc:
            self.failure = exc
            return None
        if ivals[k] < self.best_integer:
            self.best_integer, self.best_labeling = ivals[k], np.asarray(labelings[k], dtype=np.int64)
        self.best_primal, self.best_point = primal, point
        self.best_dual, self.best_dual_point = dual, dual_point
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

    def stop(self, cfg: SolverConfig, t: int) -> str | None:
        """The first of the four stop tests that the epoch at ``t`` meets, if any."""
        if self.failure is not None:
            return "numerical-failure"
        if t == cfg.max_iters:
            return "max-iters"
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
            dual_point=self.best_dual_point,
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
        # the adaptive step is undefined at a zero subgradient, where lam stays put
        law = "diminishing" if gsq == 0.0 else cfg.step_law
        tau = step_size(law, t, tau0=cfg.tau0, best_primal=tracker.best_primal, dual=value, grad_norm_sq=gsq)
        w = 1.0 if averaging == "uniform" else tau
        if w > 0.0 and t < cfg.max_iters:
            _accumulate_labelings(acc, packing, (x1, x2), (w, w))
            acc_w += 2.0 * w
        if t % cfg.epoch == 0 or t == cfg.max_iters:
            # acc_w > 0: the first step, tau0 or 1, has positive weight
            tracker.observe(t, tracker.project_exact(acc / acc_w), value, labelings=(x1, x2))
            termination = tracker.stop(cfg, t)
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
    exact energy projection of the averaged marginal maps.  When the
    smoothed gap is logged, the entropic projection of the same maps runs
    after it, seeded by its potentials.  With
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
            u_val, _, argmins = ctx.value_and_subgradient(lam)
            uh_val, _, maps = ctx.smoothed(lam, rho)
            blocks = (maps[0] + maps[1]) / 2.0
            projected = tracker.project_exact(blocks)
            smoothed_gap = None
            if cfg.log_smoothed_gap and projected is not None:
                state = tracker.projection_state
                feas = tracker.project(project_primal_free_energy, model, decomposition, blocks, rho, state)
                if feas is not None:
                    smoothed_gap = free_energy(model, feas, rho, certified=True) - uh_val
            tracker.observe(t, projected, u_val, rho=rho, smoothed_gap=smoothed_gap, labelings=argmins)
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


class _FpdIterate:
    """``fpd``'s primal and dual iterate, one stacked primal and one stacked
    dual vector on the model's padded edge stack, stepped by the packing's
    stacked products, and the running sum ``sum_t t nu_t`` of the dual
    iterates after steps ``t = 1, 2, ...``.  Padded cells cost ``+inf``, so
    the primal step pins them at 0; a padded message row has step 0 and stays
    0, in the sum too.  On a stack of one unpadded run, the iterate steps bit
    for bit as on the flat layout."""

    def __init__(self, model: MrfModel):
        self.packing = packing = model.packing()
        nd = packing.node_dim
        tau, sigma = (0.99 * step for step in _fpd_steps(packing))
        # every edge cell has the same step; copied, so that tau itself is freed
        self.tau_nodes, self.tau_edges = tau[:nd].copy(), tau[nd : nd + 1].copy()
        self.sigma = packing.stack_dual(sigma)
        sizes = np.concatenate([packing.label_counts, packing.block_sizes])
        self.mu = packing.stack_primal(np.repeat(1.0 / sizes, sizes))
        self.bar = np.empty_like(self.mu)
        self.dual = np.zeros_like(self.sigma)
        self.dual_sum = np.zeros_like(self.sigma)
        self.steps = 0

    def dual_average(self) -> np.ndarray:
        """The dual iterates after steps ``1, ..., t`` weighted by ``1, ..., t``,
        whose total is ``t (t + 1) / 2``; undefined before the first step."""
        return self.dual_sum / (self.steps * (self.steps + 1) / 2)

    def step(self) -> None:
        """One primal step from the dual iterate, then one dual step at the
        over-relaxed primal point."""
        packing, nd, bounds = self.packing, self.packing.node_dim, self.packing.edge_stack.messages_u.start
        # max(mu - tau (theta - A^T nu), 0), 2 mu - mu_old and sigma (b - A bar) in place:
        # fresh iterate-sized arrays made a step on a 30x30x4 grid about 1.4x slower
        mu = packing.apply_at(self.dual)
        np.subtract(packing.edge_stack.theta, mu, out=mu)
        mu[:nd] *= self.tau_nodes
        mu[nd:] *= self.tau_edges
        np.subtract(self.mu, mu, out=mu)
        np.maximum(mu, 0.0, out=mu)
        bar = np.multiply(mu, 2.0, out=self.bar)
        bar -= self.mu
        self.mu = mu
        # b is 1 on the node and edge rows, which come first, and 0 on the rest
        res = packing.apply_a_packed(bar)
        np.subtract(1.0, res[:bounds], out=res[:bounds])
        np.negative(res[bounds:], out=res[bounds:])
        res *= self.sigma
        self.dual += res
        self.steps += 1
        self.dual_sum += np.multiply(self.dual, self.steps, out=res)


def solve_fpd(model: MrfModel, cfg: SolverConfig) -> SolverReport:
    """Chambolle-Pock primal-dual iteration on the explicit local-polytope LP.

    The primal step is a nonnegativity-clipped gradient step, the dual step
    a gradient step at the over-relaxed primal point.  The steps are
    :func:`_fpd_steps`' vectors, which follow from the layout alone, scaled by
    0.99 so that ``|Sigma^1/2 A T^1/2| < 1`` by construction: there is no norm
    estimate and no guard.  The dual objective is not monotone, and its dips
    are not divergence.  The iterate lives on the padded edge stack (see
    :class:`_FpdIterate`), starting from uniform node and edge blocks and a
    zero dual.

    Chambolle & Pock's ``O(1/N)`` gap bound holds for ergodic averages, not
    for the iterate.  So each epoch after the first projects two dual
    candidates onto the dual feasible set: the iterate and
    :meth:`_FpdIterate.dual_average`.  The one of the higher value, the
    iterate on a tie, competes for the dual bound.  The average sets it on
    slowly converging grids, the iterate where it converges fast.  The
    primal side projects the iterate's node blocks only.  Flat dual vectors
    are built at epochs only, for the dual projection, and all projections
    run at epochs only.
    """
    it = _FpdIterate(model)
    tracker = _Tracker(model)
    for t in range(cfg.max_iters + 1):
        if t % cfg.epoch == 0 or t == cfg.max_iters:
            best = None
            for nu in (it.dual, it.dual_average()) if t else (it.dual,):
                point = tracker.project(project_dual, model, it.packing.unstack_dual(nu))
                if point is None:
                    break
                value = dual_value(model, point)
                if best is None or value > best[0]:
                    best = value, point
            else:
                tracker.observe(t, tracker.project_exact(it.mu[: it.packing.node_dim]), best[0], dual_point=best[1])
            termination = tracker.stop(cfg, t)
            if termination is not None:
                break
        it.step()
    return tracker.report("fpd", termination)
