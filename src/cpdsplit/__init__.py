"""Constrained CP decomposition of third-order tensors: alternating
optimization with a primal-dual splitting inner solver, an ADMM baseline,
and a synthetic benchmark harness.

The top level holds what callers use; the inner solvers' plumbing stays in
its submodules (:mod:`cpdsplit.pds`, :mod:`cpdsplit.operators`, ...)."""

from .admm import UnsupportedSpecError, ao_admm_factorize
from .bench import (
    ExperimentConfig,
    SyntheticSpec,
    default_benchmark_config,
    generate_synthetic,
    run_experiment,
)
from .driver import DriverConfig, FitResult, ModeSpec, TraceRecord, factorize, objective
from .metrics import mse
from .operators import (
    LinOp,
    ProxFn,
    Projection,
    group_replicate_op,
    identity_op,
    overlapping_group_lasso,
    row_difference_op,
)
from .tensor import FactorSet, cp_reconstruct
from .tensorio import read_mask, read_tensor, write_mask, write_tensor

__version__ = "0.1.0"

__all__ = [
    "DriverConfig",
    "ExperimentConfig",
    "FactorSet",
    "FitResult",
    "LinOp",
    "ModeSpec",
    "ProxFn",
    "Projection",
    "SyntheticSpec",
    "TraceRecord",
    "UnsupportedSpecError",
    "ao_admm_factorize",
    "cp_reconstruct",
    "default_benchmark_config",
    "factorize",
    "generate_synthetic",
    "group_replicate_op",
    "identity_op",
    "mse",
    "objective",
    "overlapping_group_lasso",
    "read_mask",
    "read_tensor",
    "row_difference_op",
    "run_experiment",
    "write_mask",
    "write_tensor",
]
