"""In-memory span tracing of the solver layers, from outside the program.

Each layer's public entry points are wrapped at the names their callers look
up (module globals such as ``mrflp.solvers.project_primal_energy``, or class
attributes such as ``ForestPlan.soft_min``).  A wrapped call records one span
``[name, start, end, parent]``; the originals are put back when the tracer
exits, so untraced solves run the unmodified program.
"""

from __future__ import annotations

import functools
import statistics
import time

import mrflp.dualdec
import mrflp.projections
import mrflp.solvers
from mrflp._packing import Packing
from mrflp.dualdec import DualContext, ForestPlan

# (span name, owner, attribute): every lookup site of each layer's entry points
SPAN_SITES = (
    ("projections.primal_exact", mrflp.solvers, "project_primal_energy"),
    ("projections.primal_entropic", mrflp.solvers, "project_primal_free_energy"),
    ("projections.dual", mrflp.solvers, "project_dual"),
    ("transport.entropic", mrflp.projections, "solve_transport_entropic"),
    ("packing.simplex", mrflp.projections, "project_simplex_blocks"),
    ("packing.apply", Packing, "apply_at"),
    ("packing.apply", Packing, "apply_a_packed"),
    ("dualdec.min_sum", ForestPlan, "min_sum"),
    ("dualdec.soft_min", ForestPlan, "soft_min"),
    ("dualdec.plan_build", DualContext, "__init__"),
    ("dualdec.free_energy", mrflp.solvers, "free_energy"),
    ("model.certify", mrflp.solvers, "constraint_residual"),
    ("model.certify", mrflp.solvers, "embed_labeling"),
    ("model.certify", mrflp.solvers, "energy"),
    ("model.certify", mrflp.solvers, "relaxed_energy"),
    ("model.certify", mrflp.solvers, "round_to_labeling"),
    ("model.certify", mrflp.projections, "constraint_residual"),
    ("model.certify", mrflp.dualdec, "constraint_residual"),
    ("model.certify", mrflp.dualdec, "relaxed_energy"),
)

# counted, not timed: each call is one attempted smoothed ascent step
COUNT_SITES = (("dualdec.step_attempts", DualContext, "smoothed_value"),)

# spans whose last call's arguments and result are kept for the count re-solves
KEEP_LAST = ("projections.primal_exact", "projections.primal_entropic")

ROOT = "solvers"


class Tracer:
    """Span recorder; use as a context manager around one solve."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.last: dict[str, tuple] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _open(self, name: str) -> list:
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = time.perf_counter()
        self._stack.pop()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _span_wrapper(self, name: str, fn):
        keep = name in KEEP_LAST

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if keep:
                self.last[name] = (args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, name: str, fn):
        self.counts[name] = 0

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self) -> "Tracer":
        for name, owner, attr in SPAN_SITES:
            self._patch(owner, attr, self._span_wrapper(name, owner.__dict__[attr]))
        for name, owner, attr in COUNT_SITES:
            self._patch(owner, attr, self._count_wrapper(name, owner.__dict__[attr]))
        self._root = self._open(ROOT)
        return self

    def __exit__(self, *exc) -> None:
        self._close(self._root)
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @property
    def total_s(self) -> float:
        return self._root[2] - self._root[1]

    def layers(self) -> dict[str, dict]:
        """Per span name: self time (span minus its direct children), call
        count and the median inclusive duration of one call."""
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict[str, dict] = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            entry = out.setdefault(name, {"self_s": 0.0, "calls": 0, "durations": []})
            entry["self_s"] += (end - start) - child_s[i]
            entry["calls"] += 1
            entry["durations"].append(end - start)
        for entry in out.values():
            entry["call_ms_p50"] = 1e3 * statistics.median(entry.pop("durations"))
        return out
