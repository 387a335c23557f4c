"""Universal gradient methods for composite convex problems.

Online primal (upgm) and dual (udgm) variants with modulus line search,
a stochastic surrogate method (sug) with linear convergence under strong
regularizer convexity, and an experiment harness that verifies the
aggregate regret and convergence bounds on recorded traces.
"""

from .bregman import (
    LineSearchOverflow,
    ModelSolveError,
    ModelValue,
    backtrack,
    bregman_map,
    bregman_map_numeric,
    gamma,
    soft_threshold,
)
from .geometry import ProxFunction, squared_euclidean
from .harness import (
    ReferenceSolution,
    RegretReport,
    RunConfig,
    check_bounds,
    evaluate_regret,
    problem_from_descriptor,
    reference_solution,
    run_experiment,
    sample_order,
)
from .oracles import (
    ComponentOracle,
    CompositeProblem,
    NonFiniteOracleValue,
    Regularizer,
    UnsupportedRegularizer,
)
from .problems import (
    LassoInstance,
    SteinerInstance,
    lasso_batch_bregman_step,
    lasso_bregman_step,
    lasso_dual_average,
    lasso_problem,
    load_samples,
    save_samples,
    steiner_batch_bregman_step,
    steiner_bregman_step,
    steiner_dual_average,
    steiner_problem,
    synth_lasso,
    synth_steiner,
)
from .sug import (
    SugConfig,
    SurrogateTable,
    sug_bound,
    sug_high_prob_iters,
    sug_init,
    sug_iteration_estimate,
    sug_rho,
    sug_run,
    sug_subproblem,
    sug_update,
)
from .trace import CSV_COLUMNS, RunTrace, parse_trace_csv, write_trace_csv
from .udgm import DualModel, check_dual_target_bound, udgm_fixed_step_run, udgm_run
from .upgm import upgm_fixed_step_run, upgm_run

__version__ = "0.1.0"

__all__ = [
    "CSV_COLUMNS",
    "ComponentOracle",
    "CompositeProblem",
    "DualModel",
    "LassoInstance",
    "LineSearchOverflow",
    "ModelSolveError",
    "ModelValue",
    "NonFiniteOracleValue",
    "ProxFunction",
    "ReferenceSolution",
    "RegretReport",
    "Regularizer",
    "RunConfig",
    "RunTrace",
    "SteinerInstance",
    "SugConfig",
    "SurrogateTable",
    "UnsupportedRegularizer",
    "backtrack",
    "bregman_map",
    "bregman_map_numeric",
    "check_bounds",
    "check_dual_target_bound",
    "evaluate_regret",
    "gamma",
    "lasso_batch_bregman_step",
    "lasso_bregman_step",
    "lasso_dual_average",
    "lasso_problem",
    "load_samples",
    "parse_trace_csv",
    "problem_from_descriptor",
    "reference_solution",
    "run_experiment",
    "sample_order",
    "save_samples",
    "soft_threshold",
    "squared_euclidean",
    "steiner_batch_bregman_step",
    "steiner_bregman_step",
    "steiner_dual_average",
    "steiner_problem",
    "sug_bound",
    "sug_high_prob_iters",
    "sug_init",
    "sug_iteration_estimate",
    "sug_rho",
    "sug_run",
    "sug_subproblem",
    "sug_update",
    "synth_lasso",
    "synth_steiner",
    "udgm_fixed_step_run",
    "udgm_run",
    "upgm_fixed_step_run",
    "upgm_run",
    "write_trace_csv",
]
