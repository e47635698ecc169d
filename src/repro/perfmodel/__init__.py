"""Calibrated analytical performance model (substitute for 2013 silicon).

Reconstructs the paper's evaluation hardware behaviour: machine specs
(Table I), loop transfer analysis (Tables II/III), and a roofline-style
predictor with gather/scatter, serialization, vectorization and
scheduling terms, calibrated against the paper's own per-kernel
breakdowns.  See DESIGN.md section 3 for the substitution rationale.
"""

from .calibration import CALIBRATION, ArchCalibration
from .config import (
    ALL_CONFIGS,
    AUTOVEC_OPENMP,
    CUDA,
    CUDA_BLOCK_PERMUTE,
    CUDA_FULL_PERMUTE,
    OPENCL,
    SCALAR_MPI,
    SCALAR_OPENMP,
    VEC_BLOCK_PERMUTE,
    VEC_FULL_PERMUTE,
    VEC_MPI,
    VEC_OPENMP,
    ExecConfig,
)
from .machine import MACHINES, MachineSpec, table1_rows
from .roofline import AppPrediction, KernelPrediction, predict_app, predict_kernel
from .transfers import LoopTransfer, analyze_loop, classify_loop, indirect_inc_values
from .workloads import (
    AIRFOIL_SIZES_LARGE,
    AIRFOIL_SIZES_SMALL,
    VOLNA_SIZES,
    AppWorkload,
    KernelProfile,
    airfoil_workload,
    volna_workload,
)

__all__ = [
    "AIRFOIL_SIZES_LARGE",
    "AIRFOIL_SIZES_SMALL",
    "ALL_CONFIGS",
    "AUTOVEC_OPENMP",
    "AppPrediction",
    "AppWorkload",
    "ArchCalibration",
    "CALIBRATION",
    "CUDA",
    "CUDA_BLOCK_PERMUTE",
    "CUDA_FULL_PERMUTE",
    "ExecConfig",
    "KernelPrediction",
    "KernelProfile",
    "LoopTransfer",
    "MACHINES",
    "MachineSpec",
    "OPENCL",
    "SCALAR_MPI",
    "SCALAR_OPENMP",
    "VEC_BLOCK_PERMUTE",
    "VEC_FULL_PERMUTE",
    "VEC_MPI",
    "VEC_OPENMP",
    "VOLNA_SIZES",
    "airfoil_workload",
    "analyze_loop",
    "classify_loop",
    "indirect_inc_values",
    "predict_app",
    "predict_kernel",
    "table1_rows",
    "volna_workload",
]
