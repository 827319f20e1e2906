"""Iterative solvers with certified bounds at every logging epoch.

* ``solve_subgradient`` - ascent on the nonsmooth two-forest dual with
  uniform or step-weighted averaging of argmin labelings,
* ``solve_nesterov`` - accelerated gradient ascent on the smoothed dual,
  optionally with a geometrically diminishing smoothing level,
* ``solve_fpd`` - first-order primal-dual iteration on the explicit LP,
  with diagonal steps that follow from the layout alone.  It steps on the
  projections' padded edge stack, where ``A`` is row and column sums of each
  run's cells and ``A^T``'s edge side one broadcast per run; the constraint
  matrix is never built, and the flat dual vector only at epochs.

All three share one epoch protocol.  The loop runs ``t = 0, ..., max_iters``
and steps after every ``t < max_iters``.  Before the step an epoch runs at
``t % epoch == 0`` and at ``t == max_iters``.  It projects ``fpd``'s dual
iterate onto the dual feasible set (the others' nonsmooth dual at the
iterate is a valid bound as it is),
``nest``'s averaged maps by the entropic projection when the smoothed gap is
logged, and, in ``_Tracker.observe``, the primal estimate by the exact energy
projection.  ``observe`` alone picks the certified points.  Its primal
candidates are that feasible point, its rounding and every labeling the
solver read off its dual (both forests' argmins for ``sg-*`` and ``nest``),
feasible as embeddings, so no forest is preferred and the integer bound
never undercuts the primal bound.  It keeps ``fpd``'s dual point by the rule
that raises the dual bound.  The record carries the best certified pair so
far: its gap never increases.

Every projection runs in ``_Tracker.project``, which adds its time, failed or
not, to ``projection_time_s`` and keeps a :class:`NumericalError` as the run's
failure; ``observe`` keeps a weak-duality violation the same way.  The
tracker owns the run's :class:`ProjectionState`, from whose bases each exact
projection starts warm.  An epoch with a failure logs no record: the run
ends with ``numerical-failure`` and keeps the records, bounds and points
before it.  After each epoch four stop tests run in order: a failure
(``numerical-failure``), the last iteration (``max-iters``), a relative gap
at most ``tol`` or a gap below ``EQ_TOL`` (``gap-tolerance``), and the
elapsed time plus this epoch's projection time above ``time_budget_s``
(``time-budget``).  At an ``sg-*`` zero subgradient both forests pick one
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
from .transport import _fsum

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

    def observe(self, iteration: int, node_blocks, dual_candidate: float, rho: float | None = None,
                smoothed_gap: float | None = None, labelings: tuple[np.ndarray, ...] = (),
                dual_point: DualPoint | None = None) -> ConvergenceRecord | None:
        """Fold one epoch into the best certified bounds and log its record.

        The node blocks are projected to a feasible point, which competes
        with its rounded labeling and every one of ``labelings`` for the
        primal bound; the first of the lowest energy wins a tie.
        ``dual_point``, whose value is ``dual_candidate``, replaces the kept
        one when that value is at least the best dual bound so far.  If this
        or an earlier projection of the epoch failed, or the weak-duality
        check raises :class:`NumericalError`, the bounds, points and records
        of the last consistent epoch stay, the error is kept in ``failure``
        and the result is ``None``.
        """
        projected = (self.project(project_primal_energy, self.model, node_blocks, self.projection_state)
                     if self.failure is None else None)
        if projected is None:
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
            tracker.observe(t, acc / acc_w, value, labelings=(x1, x2))
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
            u_val, _, argmins = ctx.value_and_subgradient(lam)
            uh_val, _, maps = ctx.smoothed(lam, rho)
            blocks = (maps[0] + maps[1]) / 2.0
            smoothed_gap = None
            if cfg.log_smoothed_gap:
                state = tracker.projection_state
                feas = tracker.project(project_primal_free_energy, model, decomposition, blocks, rho, state)
                if feas is not None:
                    smoothed_gap = free_energy(model, feas, rho) - uh_val
            tracker.observe(t, blocks, u_val, rho=rho, smoothed_gap=smoothed_gap, labelings=argmins)
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


def _add_rows(a: np.ndarray, out: np.ndarray) -> None:
    """``a.sum(axis=0)`` into ``out``, added one row at a time in order, as
    ``np.bincount`` adds."""
    np.copyto(out, a[0])
    for row in a[1:]:
        out += row


@dataclasses.dataclass(eq=False)
class _FpdRun:
    """One run of the edge stack in ``fpd``'s iterate: its cells ``(w_u, w_v,
    k)``, their costs (``+inf`` where padded), and the slices of its edge
    bounds, u-side and v-side messages in the stacked dual."""

    cells: np.ndarray
    theta: np.ndarray
    bounds: slice
    rows_u: slice
    rows_v: slice


class _FpdIterate:
    """``fpd``'s primal and dual iterate, laid out on the runs of the model's
    padded edge stack (:attr:`~mrflp._packing.Packing.edge_stack`), stack-last.

    Node blocks stay flat.  Each run keeps its edge cells as one ``(w_u,
    w_v, k)`` array.  The dual is one vector: the node bounds, then every
    run's edge bounds, then every run's u-side messages ``(w_u, k)``, then
    every run's v-side messages ``(w_v, k)``.  So ``A^T``'s edge side is one
    broadcast ``eb - (m_u[:, None] + m_v[None])`` per run, ``A``'s row and
    column sums add whole ``k``-vectors, and ``A^T``'s node side is one
    ``np.bincount`` per side.  Padded cells cost ``+inf``, so the primal step
    pins them at 0; a padded message row stays 0, as both terms of its
    residual are 0.  Every sum adds in the order of the flat products of
    :class:`~mrflp._packing.Packing`, so a model whose stack is one unpadded
    run steps bit for bit as on the flat layout.  The flat dual vector is
    built only on request, for :func:`project_dual`, through ``index``: each
    entry's flat position, from the runs' ``edges``, ``dual_u`` and ``dual_v``.
    """

    def __init__(self, model: MrfModel):
        self.packing = packing = model.packing()
        stack = packing.edge_stack
        tau, sigma = (0.99 * step for step in _fpd_steps(packing))
        counts, nd = packing.label_counts, packing.node_dim
        n = len(counts)
        start_u = n + len(packing.edge_starts)
        start_v = start_u + sum(run.dual_u.size for run in stack)
        self.messages_u, self.messages_v = slice(start_u, start_v), slice(start_v, None)
        self.runs = []
        # node-segment index of each message row, padded rows -> node_dim
        gather_u, gather_v = [np.arange(0)], [np.arange(0)]  # a model may have no edges
        at_e, at_u, at_v = n, start_u, start_v
        for run in stack:
            k, wu, wv = run.cost.shape
            gather_u.append(packing.node_pad[run.u, :wu].T.ravel())
            gather_v.append(packing.node_pad[run.v, :wv].T.ravel())
            cells = np.where(run.real, 1.0 / (counts[run.u] * counts[run.v])[:, None, None], 0.0)
            self.runs.append(_FpdRun(np.ascontiguousarray(cells.transpose(1, 2, 0)),
                                     np.ascontiguousarray(np.where(run.real, run.cost, np.inf).transpose(1, 2, 0)),
                                     slice(at_e, at_e + k), slice(at_u, at_u + wu * k),
                                     slice(at_v, at_v + wv * k)))
            at_e, at_u, at_v = at_e + k, at_u + wu * k, at_v + wv * k
        self.index = np.concatenate([np.arange(n), *(n + run.edges for run in stack),
                                     *(run.dual_u.ravel() for run in stack), *(run.dual_v.ravel() for run in stack)])
        self.gather_u, self.gather_v = np.concatenate(gather_u), np.concatenate(gather_v)
        self.sigma = np.append(sigma, 0.0)[self.index]
        self.tau_nodes = tau[:nd].copy()
        # every edge cell has the same step
        self.tau_edges = tau[nd:nd + 1].copy()
        self.nodes = np.repeat(1.0 / counts, counts)
        self.dual = np.zeros(len(self.index))

    def flat_dual(self) -> np.ndarray:
        """The dual iterate in the :meth:`Packing.split_dual` layout."""
        nu = np.empty(self.packing.dual_dim + 1)
        nu[self.index] = self.dual
        return nu[:-1]

    def step(self) -> None:
        """One primal step from the dual iterate, then one dual step at the
        over-relaxed primal point."""
        packing, dual = self.packing, self.dual
        nd, n = packing.node_dim, len(packing.label_counts)
        w = np.bincount(self.gather_u, dual[self.messages_u], minlength=nd + 1)[:nd]
        w = w + np.bincount(self.gather_v, dual[self.messages_v], minlength=nd + 1)[:nd]
        step = self.tau_nodes * (packing.unary - (w + np.repeat(dual[:n], packing.label_counts)))
        nodes = np.maximum(self.nodes - step, 0.0)
        nodes_bar = 2.0 * nodes - self.nodes
        self.nodes = nodes
        # b - A mu_bar: one minus the block sums on node and edge rows, the row
        # sums minus the node entries on message rows
        res = np.empty_like(dual)
        np.subtract(1.0, np.add.reduceat(nodes_bar, packing.node_starts), out=res[:n])
        for run in self.runs:
            wu, wv, k = run.cells.shape
            msg_u, msg_v = dual[run.rows_u].reshape(wu, k), dual[run.rows_v].reshape(wv, k)
            # max(mu - tau (theta - (eb - (m_u + m_v))), 0) in one buffer
            cells = np.add(msg_u[:, None], msg_v[None])
            np.subtract(dual[run.bounds], cells, out=cells)
            np.subtract(run.theta, cells, out=cells)
            cells *= self.tau_edges
            np.subtract(run.cells, cells, out=cells)
            np.maximum(cells, 0.0, out=cells)
            bar = np.multiply(cells, 2.0)
            bar -= run.cells
            run.cells = cells
            # numpy's reduceat adds the first cell to the others' pairwise sum
            flat = bar.reshape(wu * wv, k)
            np.subtract(1.0, flat[0] + _fsum(flat[1:]), out=res[run.bounds])
            _add_rows(bar.swapaxes(0, 1), res[run.rows_u].reshape(wu, k))
            _add_rows(bar, res[run.rows_v].reshape(wv, k))
        nodes_bar = np.append(nodes_bar, 0.0)
        res[self.messages_u] -= nodes_bar[self.gather_u]
        res[self.messages_v] -= nodes_bar[self.gather_v]
        dual += self.sigma * res


def solve_fpd(model: MrfModel, cfg: SolverConfig) -> SolverReport:
    """Chambolle-Pock primal-dual iteration on the explicit local-polytope LP.

    The primal step is a nonnegativity-clipped gradient step, the dual step
    a gradient step at the over-relaxed primal point.  The steps are
    :func:`_fpd_steps`' vectors, which follow from the layout alone, scaled by
    0.99 so that ``|Sigma^1/2 A T^1/2| < 1`` by construction: there is no norm
    estimate and no guard.  The dual objective is not monotone, and its dips
    are not divergence.  The iterate lives on the padded edge stack (see
    :class:`_FpdIterate`), starting from uniform node and edge blocks and a
    zero dual; its flat dual vector is built at epochs only, for the dual
    projection.  Both projections run at epochs only.
    """
    it = _FpdIterate(model)
    tracker = _Tracker(model)
    for t in range(cfg.max_iters + 1):
        if t % cfg.epoch == 0 or t == cfg.max_iters:
            point = tracker.project(project_dual, model, it.flat_dual())
            if point is not None:
                tracker.observe(t, it.nodes, dual_value(model, point), dual_point=point)
            termination = tracker.stop(cfg, t)
            if termination is not None:
                break
        it.step()
    return tracker.report("fpd", termination)
