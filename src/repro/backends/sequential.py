"""Scalar reference backend — the paper's non-vectorized pure-MPI stub.

Executes the scalar kernel element by element in set order, exactly like
the generated code of Fig 2b running on one process.  It is the semantic
ground truth every other backend is tested against, and the "Scalar MPI"
baseline of the performance study.
"""

from __future__ import annotations

from .base import Backend, run_scalar_element


class SequentialBackend(Backend):
    name = "sequential"

    def _run(self, kernel, set_, args, plan, n, reductions) -> None:
        scalar = kernel.scalar
        for e in range(n):
            run_scalar_element(scalar, args, e, reductions)

    def tiled_profile(self, compiled) -> str:
        # Plain ascending element sweeps: any monotone contiguous
        # re-slicing of [0, n) replays the identical operation
        # sequence, so the generic tiled executor is bitwise-safe.
        return "ascending"
