"""CLI: regenerate every table and figure.

Usage::

    python -m repro.bench                # all tables + figures
    python -m repro.bench table5         # one artifact
    python -m repro.bench --dump-kernel res_calc   # generated kernel sources

Wall-clock performance is measured by ``bench_e2e/run.py``.
"""

from __future__ import annotations

import argparse
import sys

from .figures import ALL_FIGURES
from .harness import RESULTS_DIR
from .tables import ALL_TABLES


def dump_kernel(name: str) -> int:
    """Print the kernelc-generated vector kernel for one application kernel.

    Shapes are harvested from a real traced time step (a tiny sim run
    with a chained sequential runtime), so the dump shows exactly what
    the vectorized backend compiles: the batched vector kernel for that
    loop's argument signature.
    """
    import numpy as np

    from ..apps.airfoil import AirfoilSim
    from ..apps.volna import VolnaSim
    from ..core import Runtime
    from ..kernelc import UnvectorizableKernel, vector_source_for
    from ..mesh import make_airfoil_mesh, make_tri_mesh

    from ..apps.aero import AeroSim

    loops = {}

    class Recording(Runtime):
        """Keeps the first traced ``(kernel, args)`` of every kernel."""

        def compiled_chain_for(self, specs, tiling=None):
            for spec in specs:
                loops.setdefault(spec.kernel.name, (spec.kernel, spec.args))
            return super().compiled_chain_for(specs, tiling)

    for build in (
        lambda: AirfoilSim(make_airfoil_mesh(6, 3),
                           runtime=Recording("sequential"), chained=True),
        lambda: VolnaSim(make_tri_mesh(4, 3, 100_000.0, 75_000.0),
                         dtype=np.float64,
                         runtime=Recording("sequential"), chained=True),
        lambda: AeroSim(make_airfoil_mesh(8, 4),
                        runtime=Recording("sequential"), chained=True),
    ):
        build().step()
    if name not in loops:
        print(f"unknown kernel {name!r}; traced kernels: "
              f"{', '.join(sorted(loops))}")
        return 1
    kernel, args = loops[name]
    print(f"# ---- {name}: generated vector kernel "
          f"(repro.kernelc.vector) ----")
    try:
        print(vector_source_for(kernel, args))
    except UnvectorizableKernel as exc:
        print(f"# not vectorizable (scalar fallback at run time): {exc}\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "artifacts", nargs="*",
        help="names to generate (default: everything)",
    )
    parser.add_argument(
        "--dump-kernel", metavar="NAME", default=None,
        help="print the kernelc-generated vector kernel "
             "for one application kernel (e.g. res_calc, compute_flux)",
    )
    parser.add_argument("--outdir", default=None, help="output directory")
    args = parser.parse_args(argv)

    if args.dump_kernel is not None:
        return dump_kernel(args.dump_kernel)

    registry = {**ALL_TABLES, **ALL_FIGURES}

    names = args.artifacts or list(registry)
    unknown = [n for n in names if n not in registry]
    if unknown:
        parser.error(f"unknown artifacts {unknown}; known: {sorted(registry)}")

    for name in names:
        artifact = registry[name]()
        print(artifact.render())
        path = artifact.save(name, args.outdir)
        print(f"[saved {path}]\n")

    print(f"Results under {args.outdir or RESULTS_DIR}/")
    return 0


if __name__ == "__main__":
    sys.exit(main())
