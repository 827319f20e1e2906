"""Local-polytope LP toolkit for pairwise MRF energy minimization.

Builds provably feasible primal and dual estimates from the infeasible
iterates of first-order dual solvers, and certifies duality gaps at every
logging epoch.
"""

from .errors import (
    InfeasibleMarginalsError,
    InvalidLabelingError,
    MrflpError,
    NumericalError,
    StructureError,
)
from .model import (
    ConvergenceRecord,
    Decomposition,
    DualPoint,
    Marginals,
    MrfModel,
    constraint_residual,
    embed_labeling,
    energy,
    grid_edges,
    infer_grid_shape,
    relaxed_energy,
    round_to_labeling,
    validate_labeling,
)
from .generators import generate_grid, generate_lp_tight
from .transport import (
    EntropicTransportResult,
    TransportProblem,
    TransportResult,
    solve_transport,
    solve_transport_entropic,
)
from .projections import (
    dual_feasibility_margin,
    dual_value,
    project_dual,
    project_primal_energy,
    project_primal_free_energy,
)
from .dualdec import (
    DualContext,
    ForestPlan,
    decompose_by_coloring,
    decompose_grid,
    decomposition_entropy,
    free_energy,
)
from .solvers import (
    SolverConfig,
    SolverReport,
    gap_certificate,
    solve_fpd,
    solve_nesterov,
    solve_subgradient,
    step_size,
)
from .fileio import (
    read_convergence_csv,
    read_dual_point,
    read_labeling,
    read_marginals,
    read_summary,
    read_uai,
    write_convergence_csv,
    write_dual_point,
    write_labeling,
    write_marginals,
    write_summary,
    write_uai,
)
from .experiments import run_gap_convergence, run_infinity_scaling, run_solver

__version__ = "0.1.0"
