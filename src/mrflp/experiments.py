"""Benchmark experiments: solver comparison and forbidden-value scaling.

``run_gap_convergence`` runs all four solvers on one random grid and emits
one convergence CSV per solver.  ``run_infinity_scaling`` generates a family
of planted-optimum instances that differ only in the finite value standing
in for infinity, runs the smoothed solver on each, and summarizes the
offsets between the log-scale projected-energy curves at matched epochs
(the offsets track the ratio of the infinity surrogates).
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .dualdec import decompose_grid
from .fileio import write_convergence_csv, write_summary
from .generators import generate_grid, generate_lp_tight
from .model import MrfModel, energy
from .solvers import SolverConfig, SolverReport, solve_fpd, solve_nesterov, solve_subgradient

SOLVERS = ("sg-ave", "sg-wei", "nest", "fpd")
DEFAULT_INFINITIES = (1e4, 1e5, 1e6, 1e7)
# each experiment's solver options: the functions' defaults, and the CLI's
GAP_CONVERGENCE_CFG = SolverConfig(max_iters=2000, epoch=20, rho=0.1, rho_schedule="halving")
INFINITY_SCALING_CFG = SolverConfig(max_iters=600, epoch=20, rho=2.0, log_smoothed_gap=False)


def run_solver(model: MrfModel, solver: str, cfg: SolverConfig, decomposition=None) -> SolverReport:
    if solver == "fpd":
        return solve_fpd(model, cfg)
    if decomposition is None:
        decomposition = decompose_grid(model)
    if solver == "sg-ave":
        return solve_subgradient(model, decomposition, cfg, averaging="uniform")
    if solver == "sg-wei":
        return solve_subgradient(model, decomposition, cfg, averaging="step-weighted")
    if solver == "nest":
        return solve_nesterov(model, decomposition, cfg)
    raise ValueError(f"unknown solver {solver!r}; choose from {', '.join(SOLVERS)}")


def report_summary(report: SolverReport) -> dict:
    """The JSON summary of one run: its bounds, how it stopped and what it cost."""
    return {
        "dual_bound": report.dual_bound,
        "primal_bound": report.primal_bound,
        "integer_bound": report.integer_bound,
        "gap": report.gap,
        "relative_gap": report.relative_gap,
        "termination": report.termination,
        "iterations": report.records[-1].iteration,
        "n_records": len(report.records),
        "wall_time_s": report.records[-1].time_s,
        "projection_time_s": report.projection_time_s,
        "step_halvings": report.step_halvings,
    }


def run_gap_convergence(
    out_dir,
    rows: int = 30,
    cols: int = 30,
    labels: int = 4,
    seed: int = 0,
    cfg: SolverConfig = GAP_CONVERGENCE_CFG,
) -> dict:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    model = generate_grid(rows, cols, labels, law="uniform01", seed=seed)
    decomposition = decompose_grid(model)
    summary: dict = {
        "experiment": "gap-convergence",
        "rows": rows,
        "cols": cols,
        "labels": labels,
        "seed": seed,
        "solvers": {},
    }
    for solver in SOLVERS:
        report = run_solver(model, solver, cfg, decomposition)
        write_convergence_csv(report.records, out / f"{solver}.csv")
        summary["solvers"][solver] = {**report_summary(report), "csv": f"{solver}.csv"}
    write_summary(summary, out / "summary.json")
    return summary


def log_energy_offsets(reports: dict[float, SolverReport], optima: dict[float, float]) -> dict:
    """Mean offsets between consecutive log(projected energy - optimum) curves.

    Only epochs where both curves sit strictly above the optimum enter the
    mean.  Returns per-pair means and the overall mean.
    """
    infinities = sorted(reports)
    pairs = []
    for lo, hi in zip(infinities, infinities[1:]):
        recs_lo = reports[lo].records
        recs_hi = reports[hi].records
        offsets = []
        for r_lo, r_hi in zip(recs_lo, recs_hi):
            if r_lo.iteration != r_hi.iteration:
                raise ValueError("records are not iteration-matched")
            d_lo = r_lo.projected_energy - optima[lo]
            d_hi = r_hi.projected_energy - optima[hi]
            if d_lo > 0.0 and d_hi > 0.0:
                offsets.append(math.log(d_hi) - math.log(d_lo))
        pairs.append(
            {
                "low_infinity": lo,
                "high_infinity": hi,
                "mean_offset": float(np.mean(offsets)) if offsets else float("nan"),
                "n_epochs": len(offsets),
            }
        )
    means = [p["mean_offset"] for p in pairs if not math.isnan(p["mean_offset"])]
    return {
        "pairs": pairs,
        "overall_mean_offset": float(np.mean(means)) if means else float("nan"),
        "log10": math.log(10.0),
    }


def run_infinity_scaling(
    out_dir,
    rows: int = 20,
    cols: int = 20,
    labels: int = 3,
    seed: int = 0,
    margin: float = 25.0,
    forbidden_fraction: float = 0.4,
    infinities=DEFAULT_INFINITIES,
    cfg: SolverConfig = INFINITY_SCALING_CFG,
) -> dict:
    """A margin above the potential range (20) makes every planted entry the
    strict minimum of its table, which guarantees the relaxation is tight at
    the planted labeling; the smoothing level controls how much mass the
    marginal maps leak onto forbidden entries.  ``infinities`` must hold two
    or more distinct values, since the offsets compare consecutive curves.

    At the defaults every run stops at iteration 0 with ``gap-tolerance``:
    the rounded labeling is the planted optimum, so the certified gap is 0
    and each curve is a single record."""
    if len(infinities) < 2 or len(set(infinities)) < len(infinities):
        raise ValueError(f"infinities must be two or more distinct values, got {list(infinities)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    reports: dict[float, SolverReport] = {}
    optima: dict[float, float] = {}
    curves: dict = {}
    for infinity in infinities:
        model, planted = generate_lp_tight(
            rows, cols, labels, margin=margin, infinity_value=infinity,
            forbidden_fraction=forbidden_fraction, seed=seed,
        )
        decomposition = decompose_grid(model)
        report = solve_nesterov(model, decomposition, cfg)
        reports[infinity] = report
        optima[infinity] = energy(model, planted)
        write_convergence_csv(report.records, out / f"infinity_{infinity:.0e}.csv")
        curves[f"{infinity:.0e}"] = {
            "planted_energy": optima[infinity],
            "iterations": [r.iteration for r in report.records],
            "projected_energy": [r.projected_energy for r in report.records],
        }
    offsets = log_energy_offsets(reports, optima)
    summary = {
        "experiment": "infinity-scaling",
        "rows": rows,
        "cols": cols,
        "labels": labels,
        "seed": seed,
        "margin": margin,
        "forbidden_fraction": forbidden_fraction,
        "infinities": list(infinities),
        "offsets": offsets,
        "curves": curves,
    }
    write_summary(summary, out / "summary.json")
    return summary
