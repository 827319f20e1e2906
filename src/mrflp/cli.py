"""Command-line front end.

Subcommands: ``generate`` (grid / lp-tight instances), ``solve`` (any of the
four schemes, writing a convergence CSV, the certified feasible point as
``marginals.json`` (node and edge blocks), an integer labeling and a JSON
summary; ``fpd`` also writes its certified dual point to
``dual_point.json``), ``verify`` (feasibility and primal bound of written
marginals, and their duality gap with the dual point given by ``--dual``)
and ``experiment`` (benchmark replication).

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 numerical
failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .dualdec import decompose_by_coloring
from .errors import MrflpError, NumericalError
from .experiments import (
    DEFAULT_INFINITIES,
    GAP_CONVERGENCE_CFG,
    INFINITY_SCALING_CFG,
    SOLVERS,
    report_summary,
    run_gap_convergence,
    run_infinity_scaling,
    run_solver,
)
from .fileio import (
    read_dual_point,
    read_marginals,
    read_uai,
    write_convergence_csv,
    write_dual_point,
    write_labeling,
    write_marginals,
    write_summary,
    write_uai,
)
from .generators import generate_grid, generate_lp_tight
from .model import constraint_residual, relaxed_energy
from .projections import dual_feasibility_margin, dual_value
from .solvers import SolverConfig
from .tolerances import EQ_TOL

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mrflp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a model instance")
    gen.set_defaults(handler=_cmd_generate)
    gen_sub = gen.add_subparsers(dest="mode", required=True)

    grid = gen_sub.add_parser("grid", help="random 4-connected grid")
    grid.add_argument("--rows", type=int, required=True)
    grid.add_argument("--cols", type=int, required=True)
    grid.add_argument("--labels", type=int, required=True)
    grid.add_argument("--law", choices=("uniform01", "uniform_sym"), default="uniform01")
    grid.add_argument("--law-radius", type=float, default=1.0)
    grid.add_argument("--seed", type=int, default=0)
    grid.add_argument("--out", required=True)

    tight = gen_sub.add_parser("lp-tight", help="grid with planted relaxation-tight optimum")
    tight.add_argument("--rows", type=int, required=True)
    tight.add_argument("--cols", type=int, required=True)
    tight.add_argument("--labels", type=int, required=True)
    tight.add_argument("--margin", type=float, default=5.0)
    tight.add_argument("--infinity", type=float, required=True)
    tight.add_argument("--forbidden-fraction", type=float, default=0.25)
    tight.add_argument("--seed", type=int, default=0)
    tight.add_argument("--out", required=True)
    tight.add_argument("--labeling-out", default=None)
    tight.add_argument("--meta-out", default=None)

    solve = sub.add_parser("solve", help="run a solver on a model file")
    solve.set_defaults(handler=_cmd_solve)
    solve.add_argument("--model", required=True)
    solve.add_argument("--solver", choices=SOLVERS, required=True)
    default = SolverConfig()
    solve.add_argument("--max-iters", type=int, default=default.max_iters)
    solve.add_argument("--time-budget-s", type=float, default=default.time_budget_s,
                       help="tested after each logging epoch's projections, counting that epoch's "
                            "projection time once more: a run overruns it by about one epoch at most")
    solve.add_argument("--epoch", type=int, default=default.epoch)
    solve.add_argument("--rho", type=float, default=default.rho)
    solve.add_argument("--rho-schedule", choices=("halving",), default=default.rho_schedule)
    solve.add_argument("--step-law", choices=("adaptive", "diminishing"), default=default.step_law)
    solve.add_argument("--tau0", type=float, default=default.tau0)
    solve.add_argument("--tol", type=float, default=default.tol)
    solve.add_argument("--out-dir", required=True)
    solve.add_argument("--decomposition", default=None,
                       help="JSON file with one 0/1 color per edge (forests); grids decompose automatically")

    verify = sub.add_parser("verify", help="certify written marginals (and optionally a dual point)")
    verify.set_defaults(handler=_cmd_verify)
    verify.add_argument("--model", required=True)
    verify.add_argument("--marginals", required=True)
    verify.add_argument("--dual", default=None)

    exp = sub.add_parser("experiment", help="benchmark replication")
    exp.set_defaults(handler=_cmd_experiment)
    exp_sub = exp.add_subparsers(dest="name", required=True)

    gapc = exp_sub.add_parser("gap-convergence", help="all four solvers on one grid")
    gapc.add_argument("--rows", type=int, default=30)
    gapc.add_argument("--cols", type=int, default=30)
    gapc.add_argument("--labels", type=int, default=4)
    gapc.add_argument("--seed", type=int, default=0)
    gapc.add_argument("--out-dir", required=True)

    inf = exp_sub.add_parser("infinity-scaling", help="smoothed solver across infinity surrogates (at the "
                             "defaults each run certifies the planted optimum at iteration 0: one record per curve)")
    inf.add_argument("--rows", type=int, default=20)
    inf.add_argument("--cols", type=int, default=20)
    inf.add_argument("--labels", type=int, default=3)
    inf.add_argument("--seed", type=int, default=0)
    inf.add_argument("--margin", type=float, default=25.0)
    inf.add_argument("--forbidden-fraction", type=float, default=0.4)
    inf.add_argument("--infinities", default=",".join(f"{x:g}" for x in DEFAULT_INFINITIES))
    inf.add_argument("--out-dir", required=True)

    for experiment, cfg in ((gapc, GAP_CONVERGENCE_CFG), (inf, INFINITY_SCALING_CFG)):
        experiment.add_argument("--max-iters", type=int, default=cfg.max_iters)
        experiment.add_argument("--epoch", type=int, default=cfg.epoch)
        experiment.add_argument("--rho", type=float, default=cfg.rho)

    return parser


def _cmd_generate(args) -> int:
    if args.mode == "grid":
        model = generate_grid(args.rows, args.cols, args.labels, law=args.law,
                              radius=args.law_radius, seed=args.seed)
        write_uai(model, args.out)
        print(f"wrote {args.out} ({model.n_nodes} nodes, {model.n_edges} edges)")
        return 0
    model, planted = generate_lp_tight(
        args.rows, args.cols, args.labels, margin=args.margin,
        infinity_value=args.infinity, forbidden_fraction=args.forbidden_fraction, seed=args.seed,
    )
    write_uai(model, args.out)
    labeling_out = args.labeling_out or str(Path(args.out).with_suffix(".labels.txt"))
    meta_out = args.meta_out or str(Path(args.out).with_suffix(".meta.json"))
    write_labeling(planted, labeling_out)
    write_summary({
        "infinity_value": args.infinity,
        "margin": args.margin,
        "forbidden_fraction": args.forbidden_fraction,
        "seed": args.seed,
        "rows": args.rows,
        "cols": args.cols,
        "labels": args.labels,
    }, meta_out)
    print(f"wrote {args.out}, {labeling_out}, {meta_out}")
    return 0


def _cmd_solve(args) -> int:
    model = read_uai(args.model)
    cfg = SolverConfig(
        max_iters=args.max_iters,
        time_budget_s=args.time_budget_s,
        epoch=args.epoch,
        tol=args.tol,
        step_law=args.step_law,
        tau0=args.tau0,
        rho=args.rho,
        rho_schedule=args.rho_schedule,
    )
    decomposition = None
    if args.decomposition is not None:
        colors = json.loads(Path(args.decomposition).read_text())
        decomposition = decompose_by_coloring(model, colors)
    report = run_solver(model, args.solver, cfg, decomposition)

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_convergence_csv(report.records, out / "convergence.csv")
    write_marginals(report.marginals, out / "marginals.json")
    write_labeling(report.best_labeling, out / "labeling.txt")
    if report.dual_point is not None:
        write_dual_point(model, report.dual_point, out / "dual_point.json")
    write_summary(
        {
            "solver": report.solver,
            "model": str(args.model),
            "n_nodes": model.n_nodes,
            "n_edges": model.n_edges,
            **report_summary(report),
        },
        out / "summary.json",
    )
    print(
        f"{report.solver}: dual={report.dual_bound:.6f} primal={report.primal_bound:.6f} "
        f"gap={report.gap:.3e} ({report.termination})"
    )
    if report.termination == "numerical-failure":
        return 3
    return 0


def _cmd_verify(args) -> int:
    model = read_uai(args.model)
    marginals = read_marginals(args.marginals)
    residual = constraint_residual(model, marginals)
    primal = relaxed_energy(model, marginals)
    print(f"constraint_residual={residual:.6e}")
    print(f"primal_bound={primal!r}")
    ok = residual <= EQ_TOL
    if args.dual is not None:
        point = read_dual_point(args.dual, model.edges)
        margin = dual_feasibility_margin(model, point)
        bound = dual_value(model, point)
        print(f"dual_feasibility_margin={margin:.6e}")
        print(f"dual_bound={bound!r}")
        gap = primal - bound
        print(f"gap={gap!r}")
        print(f"relative_gap={gap / max(1.0, abs(bound))!r}")
        ok = ok and margin >= -EQ_TOL and gap >= -EQ_TOL
    print("verdict=OK" if ok else "verdict=FAIL")
    return 0 if ok else 1


def _cmd_experiment(args) -> int:
    base = GAP_CONVERGENCE_CFG if args.name == "gap-convergence" else INFINITY_SCALING_CFG
    cfg = dataclasses.replace(base, max_iters=args.max_iters, epoch=args.epoch, rho=args.rho)
    if args.name == "gap-convergence":
        summary = run_gap_convergence(args.out_dir, rows=args.rows, cols=args.cols,
                                      labels=args.labels, seed=args.seed, cfg=cfg)
        for solver, info in summary["solvers"].items():
            print(f"{solver}: gap={info['gap']:.4e} ({info['termination']})")
        return 0
    infinities = tuple(float(tok) for tok in str(args.infinities).split(",") if tok)
    summary = run_infinity_scaling(
        args.out_dir, rows=args.rows, cols=args.cols, labels=args.labels, seed=args.seed,
        margin=args.margin, forbidden_fraction=args.forbidden_fraction,
        infinities=infinities, cfg=cfg,
    )
    offsets = summary["offsets"]
    for pair in offsets["pairs"]:
        print(
            f"infinity {pair['low_infinity']:g} -> {pair['high_infinity']:g}: "
            f"mean log-energy offset {pair['mean_offset']:.4f} (log 10 = {offsets['log10']:.4f})"
        )
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (MrflpError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
