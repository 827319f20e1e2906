"""Self-test of the benchmark at tiny sizes: metric names and units, the
correctness checks, seed handling, span accounting and failure counting."""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import run
from checks import lp_bracket
from workloads import WORKLOADS

import mrflp.solvers
from mrflp import NumericalError

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def tiny(name: str, trace: bool, seed: int = 1):
    return run.run_workload(name, seed, seconds=0.01, trace=trace, tiny=True)


def test_benchmark_json_matches_the_metrics():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_pass_reports_every_metric_and_passes_its_checks(name):
    for trace, names in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        result, info = tiny(name, trace)
        assert result["correct"] and result["failed"] == 0, info["failures"]
        assert info["lp_check"]["ok"]
        assert {k: v["unit"] for k, v in result["metrics"].items()} == names
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    # traced: untraced and traced solves, the LP check and the re-solves
    assert result["attempted"] >= 2 * run.MIN_SOLVES + 2
    layers = result["metrics"]
    self_total = sum(v["value"] for k, v in layers.items() if k.endswith(".self_s"))
    assert self_total == pytest.approx(layers["trace.solve_s"]["value"], rel=1e-9)


def test_seed_changes_inputs_not_metric_names():
    for name, workload in WORKLOADS.items():
        a = workload.build(1, True).model
        b = workload.build(2, True).model
        assert not all(np.array_equal(x, y) for x, y in zip(a.pairwise, b.pairwise)), name
        c = workload.build(1, True).model
        assert all(np.array_equal(x, y) for x, y in zip(a.pairwise, c.pairwise)), name
    first, _ = tiny("grid-fpd", False, seed=1)
    second, _ = tiny("grid-fpd", False, seed=2)
    assert first["metrics"].keys() == second["metrics"].keys()


def test_tracer_restores_the_program():
    original = mrflp.solvers.project_primal_energy
    result, _ = tiny("forest-nest", True)
    assert result["correct"]
    assert mrflp.solvers.project_primal_energy is original
    assert result["metrics"]["dualdec.soft_min.calls"]["value"] > 0


def _with_report(monkeypatch, change):
    solve = mrflp.solvers.solve_fpd
    monkeypatch.setattr(mrflp.solvers, "solve_fpd", lambda *a, **k: change(solve(*a, **k)))


def _raise(report):
    raise NumericalError("injected")


@pytest.mark.parametrize(
    "change, op, cls",
    [
        (_raise, "solve", "NumericalError"),
        (lambda r: dataclasses.replace(r, termination="numerical-failure"), "solve", "CheckFailed"),
        (lambda r: dataclasses.replace(r, records=r.records[::-1]), "solve", "CheckFailed"),
        (lambda r: dataclasses.replace(r, dual_bound=r.dual_bound + 1.0), "solve", "CheckFailed"),
    ],
    ids=["exception", "numerical-failure", "gap-grows", "bound-not-reproduced"],
)
def test_injected_failures_are_counted_not_fatal(monkeypatch, change, op, cls):
    _with_report(monkeypatch, change)
    result, info = tiny("grid-fpd", False)
    assert not result["correct"]
    assert result["failed"] >= 1 and result["attempted"] >= result["failed"]
    assert result["metrics"]["ok_frac"]["value"] < 1.0
    assert {"op": op, "class": cls} == {k: info["failures"][0][k] for k in ("op", "class")}


def test_lp_bracket_rejects_a_dual_bound_above_the_optimum():
    model = WORKLOADS["grid-fpd"].build(1, True).model
    good = lp_bracket(model, -np.inf, np.inf)
    assert good["ok"]
    bad = lp_bracket(model, good["optimum"] + 1e-3, np.inf)
    assert not bad["ok"] and "exceeds the LP optimum" in bad["problem"]


def test_count_cross_check_mismatch_is_a_failure(monkeypatch):
    real = run.exact_counts
    monkeypatch.setattr(run, "exact_counts", lambda *a: {**real(*a), "max_plan_diff": 1.0})
    result, info = tiny("tight-nest", True)
    assert not result["correct"] and result["failed"] == 1
    assert info["failures"][0]["op"] == "count-cross-check"
