"""Gaussian-process regression with structured kernel interpolation on sparse grids."""

__version__ = "0.1.0"

from .bench import (
    ExperimentResult,
    SyntheticTask,
    fit_loglog_slope,
    gen_synthetic,
    matched_dense_side,
    run_gp_study,
    run_interp_accuracy,
    run_mvm_scaling,
)
from .grids import (
    GridCapExceeded,
    SparseGrid,
    build_sparse_grid,
    sparse_grid_size,
)
from .interp import (
    BaseRule,
    UniformLattice,
    WeightMatrix,
    assemble_W,
    combination_weights,
    interpolate_direct,
    subsampled_weights,
)
from .kernels import ProductKernel
from .sgmvm import (
    MvmPlan,
    NaiveDenseKernel,
    build_plan,
    naive_kernel_mvm,
    sg_mvm,
    sg_mvm_batched,
)
from .ski import (
    CgConfig,
    CgFailure,
    CgStats,
    GpConfig,
    GpModel,
    cg_solve,
    exact_gp_oracle,
    fit,
    load_model,
)

__all__ = [
    "BaseRule",
    "CgConfig",
    "CgFailure",
    "CgStats",
    "ExperimentResult",
    "GpConfig",
    "GpModel",
    "GridCapExceeded",
    "MvmPlan",
    "NaiveDenseKernel",
    "ProductKernel",
    "SparseGrid",
    "SyntheticTask",
    "UniformLattice",
    "WeightMatrix",
    "assemble_W",
    "build_plan",
    "build_sparse_grid",
    "cg_solve",
    "combination_weights",
    "exact_gp_oracle",
    "fit",
    "fit_loglog_slope",
    "gen_synthetic",
    "interpolate_direct",
    "load_model",
    "matched_dense_side",
    "naive_kernel_mvm",
    "run_gp_study",
    "run_interp_accuracy",
    "run_mvm_scaling",
    "sg_mvm",
    "sg_mvm_batched",
    "sparse_grid_size",
    "subsampled_weights",
]
