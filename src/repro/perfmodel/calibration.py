"""Per-architecture calibration of the analytical performance model.

Every constant here is a *fraction of a measured hardware ceiling* (the
STREAM bandwidth or GEMM throughput of Table I) or a cycle cost, fitted
once against the paper's own per-kernel breakdowns (Tables V, VII, VIII
— see EXPERIMENTS.md for the fit quality).  The fractions encode the
paper's qualitative findings:

* direct streams run near STREAM speed everywhere (CPUs 70-90%, Phi
  60-75% scalar, GPU 80-95% — Section 6.6);
* indirect (gather) traffic halves CPU efficiency, and collapses on the
  in-order Phi cores unless vectorized gathers are used;
* colored scatters (indirect INC) are the slowest class, hurt further by
  the loss of inter-block reuse;
* scalar transcendental throughput is poor (the paper quotes 1 sqrt per
  44 cycles) and improves with vector width;
* the auto-vectorized permute schemes trade serialization for extra
  gathers and lost temporal locality — a net loss on scatter kernels
  (Fig 8a / Table VIII).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass(frozen=True)
class ArchCalibration:
    """Model constants for one architecture class."""

    # Fraction of STREAM bandwidth achieved per kernel class, scalar
    # execution and explicitly vectorized execution.
    mem_eff_scalar: Dict[str, float] = field(default_factory=dict)
    mem_eff_vec: Dict[str, float] = field(default_factory=dict)
    # Auto-vectorized (permute-ordered) execution: the compiler
    # vectorizes, but direct data must now be gathered and reuse is lost.
    mem_eff_auto: Dict[str, float] = field(default_factory=dict)

    # Cycles per useful FLOP for scalar code (non-FMA, address arith...).
    cycles_per_flop_scalar: float = 1.0
    # Vectorized compute: fraction of the machine's GEMM throughput an
    # irregular kernel sustains.
    vec_compute_eff: float = 0.55
    # Scalar transcendental cost (cycles per op, DP; SP is ~25% cheaper).
    transc_cycles_scalar: float = 12.0
    # Vectorized transcendental speedup factor (per element).
    transc_vec_speedup: float = 4.0

    # Serialized-scatter cost: cycles per scattered value under the
    # two-level scheme (the sequential store out of a vector register).
    scatter_cycles: float = 3.0

    # Per-parallel-loop scheduling overhead, seconds (OpenMP fork/join +
    # plan bookkeeping; OpenCL enqueue is modelled separately).
    openmp_loop_overhead_s: float = 20e-6
    # Extra loss of inter-block reuse under colored OpenMP execution.
    openmp_reuse_penalty: float = 0.90

    # OpenCL: per-work-group scheduling cost (TBB task each, Section 4.1)
    # and the quality of implicit vectorization relative to intrinsics
    # (0 = scalar speed, 1 = intrinsics speed).
    opencl_block_overhead_s: float = 0.4e-6
    opencl_vec_quality: float = 0.5

    # MPI wait fraction of total runtime (imbalance + synchronization,
    # Section 6.5), for the large and small problem variants.
    mpi_wait_large: float = 0.04
    mpi_wait_small: float = 0.07
    # Extra messaging penalty for pure MPI at very high rank counts
    # (Phi: >120 processes, Section 6.5).
    pure_mpi_penalty: float = 0.0

    # Fig 8a scheme multipliers on scatter-kernel memory efficiency.
    scheme_eff: Dict[str, float] = field(
        default_factory=lambda: {"two_level": 1.0, "full_permute": 1.0,
                                 "block_permute": 1.0}
    )


CALIBRATION: Dict[str, ArchCalibration] = {
    # ------------------------------------------------------------------
    # Sandy Bridge / Ivy Bridge Xeons.  Fit: Tables V & VII, CPU 1+2.
    # ------------------------------------------------------------------
    "cpu": ArchCalibration(
        mem_eff_scalar={"direct": 0.78, "gather": 0.45, "scatter": 0.40},
        mem_eff_vec={"direct": 0.78, "gather": 0.47, "scatter": 0.52},
        mem_eff_auto={"direct": 0.70, "gather": 0.35, "scatter": 0.25},
        cycles_per_flop_scalar=0.8,
        vec_compute_eff=0.55,
        transc_cycles_scalar=12.0,
        transc_vec_speedup=4.0,
        scatter_cycles=3.0,
        openmp_loop_overhead_s=25e-6,
        openmp_reuse_penalty=0.90,
        opencl_block_overhead_s=0.5e-6,
        opencl_vec_quality=0.35,
        mpi_wait_large=0.04,
        mpi_wait_small=0.07,
        scheme_eff={"two_level": 1.0, "full_permute": 0.72,
                    "block_permute": 0.80},
    ),
    # ------------------------------------------------------------------
    # Xeon Phi 5110P (in-order cores, IMCI).  Fit: Table VIII.
    # ------------------------------------------------------------------
    "phi": ArchCalibration(
        mem_eff_scalar={"direct": 0.48, "gather": 0.075, "scatter": 0.085},
        mem_eff_vec={"direct": 0.58, "gather": 0.21, "scatter": 0.16},
        mem_eff_auto={"direct": 0.50, "gather": 0.14, "scatter": 0.045},
        cycles_per_flop_scalar=2.0,
        vec_compute_eff=0.35,
        transc_cycles_scalar=20.0,
        transc_vec_speedup=8.0,
        scatter_cycles=4.0,
        openmp_loop_overhead_s=60e-6,
        openmp_reuse_penalty=0.95,
        opencl_block_overhead_s=1.0e-6,
        opencl_vec_quality=0.55,
        mpi_wait_large=0.13,
        mpi_wait_small=0.30,
        pure_mpi_penalty=0.10,
        scheme_eff={"two_level": 1.0, "full_permute": 0.60,
                    "block_permute": 0.78},
    ),
    # ------------------------------------------------------------------
    # Tesla K40 (CUDA, SoA, two-level coloring).  Fit: Table V CUDA col.
    # ------------------------------------------------------------------
    "gpu": ArchCalibration(
        mem_eff_scalar={"direct": 0.93, "gather": 0.46, "scatter": 0.26},
        mem_eff_vec={"direct": 0.93, "gather": 0.46, "scatter": 0.26},
        mem_eff_auto={"direct": 0.90, "gather": 0.40, "scatter": 0.20},
        cycles_per_flop_scalar=1.0,
        vec_compute_eff=0.45,
        transc_cycles_scalar=2.0,     # SFUs make transcendentals cheap
        transc_vec_speedup=1.0,
        scatter_cycles=0.0,           # serialization folded into mem_eff
        openmp_loop_overhead_s=8e-6,  # kernel launch latency
        openmp_reuse_penalty=1.0,
        opencl_block_overhead_s=0.0,
        opencl_vec_quality=0.8,
        mpi_wait_large=0.02,
        mpi_wait_small=0.03,
        # Fig 8a: on the K40's tiny cache, full permute (simple, no
        # reuse anyway) beats block permute; both lose to the original.
        scheme_eff={"two_level": 1.0, "full_permute": 0.80,
                    "block_permute": 0.62},
    ),
}
