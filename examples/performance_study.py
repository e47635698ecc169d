#!/usr/bin/env python3
"""Performance study: the paper's evaluation in one script.

Uses the calibrated performance model to reproduce the cross-platform
story (Figures 5-9) and prints the headline speedups next to the paper's
claims.  Wall-clock measurements of this library's backends come from
the end-to-end benchmark, ``python3 bench_e2e/run.py``.

Run:  python examples/performance_study.py
"""

import _bootstrap  # noqa: F401  (sys.path setup for source checkouts)

import numpy as np

from repro.perfmodel import (
    AUTOVEC_OPENMP,
    CUDA,
    MACHINES,
    OPENCL,
    SCALAR_MPI,
    SCALAR_OPENMP,
    VEC_MPI,
    VEC_OPENMP,
    airfoil_workload,
    predict_app,
)


def main() -> None:
    wl = airfoil_workload("large")

    print("=" * 68)
    print("Modelled Airfoil totals (2.8M cells, 1000 iterations)")
    print("=" * 68)
    rows = [
        ("CPU 1", SCALAR_MPI, "scalar MPI"),
        ("CPU 1", VEC_MPI, "vectorized MPI"),
        ("CPU 2", SCALAR_MPI, "scalar MPI"),
        ("CPU 2", VEC_MPI, "vectorized MPI"),
        ("Xeon Phi", SCALAR_OPENMP, "scalar MPI+OpenMP"),
        ("Xeon Phi", AUTOVEC_OPENMP, "auto-vectorized"),
        ("Xeon Phi", OPENCL, "OpenCL"),
        ("Xeon Phi", VEC_OPENMP, "vectorized MPI+OpenMP"),
        ("K40", CUDA, "CUDA"),
    ]
    print(f"{'machine':10s} {'strategy':24s} {'SP (s)':>8s} {'DP (s)':>8s}")
    for mname, cfg, label in rows:
        m = MACHINES[mname]
        sp = predict_app(wl, m, cfg, np.float32).total_s
        dp = predict_app(wl, m, cfg, np.float64).total_s
        print(f"{mname:10s} {label:24s} {sp:8.1f} {dp:8.1f}")

    print("\nHeadline claims vs model:")
    cpu1 = MACHINES["CPU 1"]
    phi = MACHINES["Xeon Phi"]
    claims = [
        ("CPU vectorization speedup, SP (paper 1.6-2.0x)",
         predict_app(wl, cpu1, SCALAR_MPI, np.float32).total_s
         / predict_app(wl, cpu1, VEC_MPI, np.float32).total_s),
        ("CPU vectorization speedup, DP (paper 1.1-1.4x)",
         predict_app(wl, cpu1, SCALAR_MPI, np.float64).total_s
         / predict_app(wl, cpu1, VEC_MPI, np.float64).total_s),
        ("Phi vectorization speedup, SP (paper 2.0-2.2x)",
         predict_app(wl, phi, SCALAR_OPENMP, np.float32).total_s
         / predict_app(wl, phi, VEC_OPENMP, np.float32).total_s),
        ("K40 over CPU 1, DP (paper 2.5-3x)",
         predict_app(wl, cpu1, VEC_MPI, np.float64).total_s
         / predict_app(wl, MACHINES["K40"], CUDA, np.float64).total_s),
        ("K40 over Phi, DP (paper ~2.5x)",
         predict_app(wl, phi, VEC_OPENMP, np.float64).total_s
         / predict_app(wl, MACHINES["K40"], CUDA, np.float64).total_s),
    ]
    for label, value in claims:
        print(f"  {label:50s} -> {value:.2f}x")

    print("\nPer-kernel bottlenecks on CPU 1 (scalar -> vectorized):")
    scalar = predict_app(wl, cpu1, SCALAR_MPI, np.float64)
    vec = predict_app(wl, cpu1, VEC_MPI, np.float64)
    for name in ("save_soln", "adt_calc", "res_calc", "update"):
        s, v = scalar.kernels[name], vec.kernels[name]
        print(f"  {name:10s} {s.bound:9s} -> {v.bound:9s}  "
              f"({s.time_s:5.1f}s -> {v.time_s:5.1f}s)")

    print("\nMeasured wall-clock times on this machine: "
          "python3 bench_e2e/run.py")


if __name__ == "__main__":
    main()
