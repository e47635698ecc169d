#!/usr/bin/env python3
"""Airfoil: the paper's CFD benchmark, end to end.

Generates an O-mesh around an airfoil-like body, runs the non-linear
inviscid solver (save_soln / adt_calc / res_calc / bres_calc / update),
reports residual convergence, and compares backend wall-clocks — the
live counterpart of the paper's scalar-vs-vectorized experiment.

Run:  python examples/airfoil_simulation.py [ni] [nj] [iters]
"""

import _bootstrap  # noqa: F401  (sys.path setup for source checkouts)

import sys
import time

import numpy as np

from repro.apps.airfoil import AirfoilSim
from repro.core import Runtime
from repro.mesh import make_airfoil_mesh


def main() -> None:
    ni = int(sys.argv[1]) if len(sys.argv) > 1 else 60
    nj = int(sys.argv[2]) if len(sys.argv) > 2 else 30
    iters = int(sys.argv[3]) if len(sys.argv) > 3 else 50

    mesh = make_airfoil_mesh(ni, nj)
    print(f"mesh: {mesh.summary()}")

    # --- convergence run under the "auto" runtime --------------------
    # backend="auto" is a fixed rule: the native backend (its vectorized
    # tier when no C compiler builds) on SoA storage, chained steps.
    sim = AirfoilSim(mesh, runtime=Runtime("auto", block_size=256))
    print(f"\nfree stream: q_inf = {sim.constants.qinf().round(4)}")
    print(f"{'iter':>6s} {'RMS residual':>14s}")
    for it in range(1, iters + 1):
        rms = sim.step()
        if it % max(1, iters // 10) == 0 or it == 1:
            print(f"{it:6d} {rms:14.6e}")
    drop = sim.rms_history[0] / sim.rms_history[-1]
    print(f"residual dropped {drop:.1f}x over {iters} iterations")

    # --- lift indicator: pressure asymmetry from angle of attack -----
    q = sim.q
    gm1 = sim.constants.gm1
    p = gm1 * (q[:, 3] - 0.5 * (q[:, 1] ** 2 + q[:, 2] ** 2) / q[:, 0])
    cent = mesh.cell_centroids()
    wall = np.hypot(cent[:, 0], cent[:, 1]) < 1.0
    upper = wall & (cent[:, 1] > 0)
    lower = wall & (cent[:, 1] < 0)
    print(
        f"near-body pressure, upper {p[upper].mean():.4f} vs lower "
        f"{p[lower].mean():.4f}  (lower > upper -> lift, alpha = "
        f"{sim.constants.alpha_deg} deg)"
    )

    # --- backend comparison (the paper's core experiment) ------------
    print("\nper-step wall-clock by backend (3 steps each):")
    timings = {}
    for label, backend in [
        ("scalar (sequential)", "sequential"),
        ("vectorized (intrinsics analogue)", "vectorized"),
    ]:
        s = AirfoilSim(mesh, runtime=Runtime(backend, block_size=256))
        s.step()  # warm-up: plans get built and cached
        t0 = time.perf_counter()
        s.run(3)
        timings[label] = (time.perf_counter() - t0) / 3
        print(f"  {label:34s} {timings[label] * 1e3:9.2f} ms/step")
    speedup = timings["scalar (sequential)"] / timings[
        "vectorized (intrinsics analogue)"
    ]
    print(f"\nvectorized speedup over scalar: {speedup:.1f}x "
          "(the Python analogue of the paper's ~2x intrinsics result)")


if __name__ == "__main__":
    main()
