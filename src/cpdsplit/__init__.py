"""Constrained CP decomposition of third-order tensors: alternating
optimization with a primal-dual splitting inner solver, an ADMM baseline,
and a synthetic benchmark harness."""

from .admm import AdmmState, UnsupportedSpecError, ao_admm_factorize, solve_subproblem_admm
from .bench import (
    ExperimentConfig,
    SyntheticSpec,
    default_benchmark_config,
    generate_synthetic,
    run_experiment,
)
from .driver import (
    DriverConfig,
    FitResult,
    ModeSpec,
    TraceRecord,
    factorize,
    init_factors,
    objective,
)
from .metrics import best_column_permutation, mse
from .operators import (
    LinOp,
    ProxFn,
    Projection,
    group_replicate_op,
    identity_op,
    linop_adjoint,
    linop_forward,
    overlapping_group_lasso,
    project,
    prox_apply,
    prox_conjugate,
    prox_value,
    row_difference_op,
)
from .pds import StepSizes, SubproblemState, compute_stepsizes, solve_subproblem, subproblem_gradient
from .tensor import (
    FactorSet,
    apply_mask,
    cp_reconstruct,
    frobenius_norm_sq,
    khatri_rao,
    matricize,
    tensorize,
)
from .tensorio import read_mask, read_tensor, write_mask, write_tensor

__version__ = "0.1.0"

__all__ = [
    "AdmmState",
    "DriverConfig",
    "ExperimentConfig",
    "FactorSet",
    "FitResult",
    "LinOp",
    "ModeSpec",
    "ProxFn",
    "Projection",
    "StepSizes",
    "SubproblemState",
    "SyntheticSpec",
    "TraceRecord",
    "UnsupportedSpecError",
    "ao_admm_factorize",
    "apply_mask",
    "best_column_permutation",
    "compute_stepsizes",
    "cp_reconstruct",
    "default_benchmark_config",
    "factorize",
    "frobenius_norm_sq",
    "generate_synthetic",
    "group_replicate_op",
    "identity_op",
    "init_factors",
    "khatri_rao",
    "linop_adjoint",
    "linop_forward",
    "matricize",
    "mse",
    "objective",
    "overlapping_group_lasso",
    "project",
    "prox_apply",
    "prox_conjugate",
    "prox_value",
    "read_mask",
    "read_tensor",
    "row_difference_op",
    "run_experiment",
    "solve_subproblem",
    "solve_subproblem_admm",
    "subproblem_gradient",
    "tensorize",
    "write_mask",
    "write_tensor",
]
