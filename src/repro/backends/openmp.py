"""Scalar plan-ordered backend — OP2's non-vectorized OpenMP execution.

Blocks (mini-partitions) execute grouped by block color; inside a block,
elements run in element order.  On real hardware same-colored blocks run
on different OpenMP threads with no synchronization (paper Section 3);
here the ordering is materialized serially, which preserves the exact
floating-point summation order of the threaded execution (each indirect
target is touched by a deterministic block sequence) and exercises the
plan data structures end-to-end.
"""

from __future__ import annotations

from .base import Backend, run_scalar_element


class OpenMPBackend(Backend):
    name = "openmp"

    def _run(self, kernel, set_, args, plan, n, reductions) -> None:
        scalar = kernel.scalar
        layout = plan.layout
        for color_blocks in plan.blocks_by_color:
            for b in color_blocks:
                lo, hi = layout.block_range(int(b))
                for e in range(lo, hi):
                    run_scalar_element(scalar, args, e, reductions)

    def tiled_profile(self, compiled):
        # Block-color-major scalar sweeps are exactly the plan's
        # two_level phase order, so the canonical ("phases") schedule
        # slices this backend's eager sequence.  Permute-scheme plans
        # would phase in permutation order while _run keeps block
        # order — not sliceable; fall back to the fused program.
        for bl in compiled.loops:
            if not bl.plan.is_direct and bl.plan.scheme != "two_level":
                return None
        return "phases"
