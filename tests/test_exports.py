import argparse
import ast
import dataclasses
import inspect
from pathlib import Path

import mrflp as M
import mrflp._packing
import mrflp.solvers
import mrflp.transport
from mrflp.cli import _build_parser

EXPORTS = [
    "ConvergenceRecord", "Decomposition", "DualContext", "DualPoint", "EntropicTransportResult",
    "ForestPlan", "InfeasibleMarginalsError", "InvalidLabelingError", "Marginals", "MrfModel",
    "MrflpError", "NumericalError", "SolverConfig", "SolverReport", "StructureError",
    "TransportProblem", "TransportResult", "constraint_residual", "decompose_by_coloring",
    "decompose_grid", "decomposition_entropy", "dual_feasibility_margin", "dual_value", "embed_labeling",
    "energy", "free_energy", "gap_certificate", "generate_grid", "generate_lp_tight", "grid_edges",
    "infer_grid_shape", "project_dual", "project_primal_energy", "project_primal_free_energy",
    "read_convergence_csv", "read_dual_point", "read_labeling", "read_marginals", "read_summary",
    "read_uai", "relaxed_energy", "round_to_labeling", "run_gap_convergence", "run_infinity_scaling",
    "run_solver", "solve_fpd", "solve_nesterov", "solve_subgradient", "solve_transport",
    "solve_transport_entropic", "step_size", "validate_labeling", "write_convergence_csv",
    "write_dual_point", "write_labeling", "write_marginals", "write_summary", "write_uai",
]


def test_packing_takes_only_the_sum_from_transport():
    # the exact solver prices the stack's padded cells: the layout needs none
    # of its star or basis code
    tree = ast.parse(Path(mrflp._packing.__file__).read_text())
    names = [a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module == "transport"
             for a in node.names]
    assert names == ["_fsum"]


def test_public_surface_is_pinned():
    # every name the package imports into its namespace, against the list above
    tree = ast.parse(Path(M.__file__).read_text())
    names = [a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom) for a in node.names]
    assert sorted(names) == EXPORTS


CONFIG_FIELDS = [
    "max_iters", "time_budget_s", "epoch", "tol", "step_law", "tau0", "rho", "rho_schedule", "log_smoothed_gap",
]
REPORT_FIELDS = [
    "solver", "marginals", "best_labeling", "records", "termination", "dual_bound", "primal_bound",
    "integer_bound", "gap", "relative_gap", "projection_time_s", "dual_point", "lam", "step_halvings",
]
TRANSPORT_FIELDS = {
    "TransportResult": ["plan", "cost", "row_potentials", "col_potentials", "pivots", "simplex_basis"],
    "SimplexBasis": ["slots", "inverse"],
    "EntropicTransportResult": ["plan", "objective", "iterations", "residual"],
}
SOLVE_TRANSPORT_PARAMETERS = ["problem", "start"]
PROJECTION_PARAMETERS = {
    "project_primal_energy": ["model", "node_blocks", "state"],
    "project_primal_free_energy": ["model", "decomposition", "node_blocks", "rho", "state"],
}
SOLVE_OPTIONS = [
    "--decomposition", "--epoch", "--help", "--max-iters", "--model", "--out-dir", "--rho",
    "--rho-schedule", "--solver", "--step-law", "--tau0", "--time-budget-s", "--tol", "-h",
]


def test_settable_surface_is_pinned():
    # every solver option, every report field, the decomposition's one field,
    # the transport results' fields, the exact solver's parameters and every
    # flag of ``mrflp solve``: a new knob or echo field shows up here
    assert [f.name for f in dataclasses.fields(M.SolverConfig)] == CONFIG_FIELDS
    assert [f.name for f in dataclasses.fields(M.SolverReport)] == REPORT_FIELDS
    assert [f.name for f in dataclasses.fields(M.Decomposition)] == ["colors"]
    for name, fields in TRANSPORT_FIELDS.items():
        assert [f.name for f in dataclasses.fields(getattr(mrflp.transport, name))] == fields
    assert list(inspect.signature(M.solve_transport).parameters) == SOLVE_TRANSPORT_PARAMETERS
    commands = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(s for a in commands.choices["solve"]._actions for s in a.option_strings) == SOLVE_OPTIONS


def test_projection_contract_is_pinned():
    # the solvers call both primal projections by their module-global names,
    # which is where a caller wraps them, and ``rho`` is the fourth argument
    for name, params in PROJECTION_PARAMETERS.items():
        assert getattr(mrflp.solvers, name) is getattr(M, name)
        assert list(inspect.signature(getattr(M, name)).parameters) == params
