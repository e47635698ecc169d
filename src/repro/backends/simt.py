"""SIMT backend — the OpenCL/CUDA execution model of the paper (Fig 3a).

Work-groups are the plan's mini-partitions; work-items are the elements of
a block executing in lockstep.  The generated OpenCL kernel (Fig 3a)

1. computes indirection indices per work-item,
2. runs the user kernel with indirect increments redirected into private
   (per-work-item) accumulators,
3. applies the accumulators *color by color* using the second-level
   element coloring, which serializes conflicting increments while
   same-colored items proceed together.

On CPU, work-groups run sequentially (one per TBB task) — which is why the
paper can drop work-group barriers; we reproduce the same semantics by
executing blocks color-group by color-group.  The lockstep work-item
bundle is realized as one batched NumPy call over the whole block when the
kernel has a vector form and the (modelled) OpenCL compiler agrees to
vectorize it; otherwise work-items run scalar, mirroring the AVX
compiler's refusals recorded in Table VI.
"""

from __future__ import annotations

import numpy as np

from ..core.access import Access
from .base import Backend, fold_lanes, gather_batch, run_scalar_element


class SIMTBackend(Backend):
    """OpenCL-analogue backend.

    Parameters
    ----------
    device:
        ``"cpu"`` or ``"phi"``.  Controls which kernels the modelled
        OpenCL compiler vectorizes: the Phi's IMCI gather/scatter support
        lets it vectorize everything with a vector form, while the AVX
        compiler only accepts kernels flagged ``vectorizable_simt``
        (paper Table VI, right columns).
    """

    name = "simt"

    def __init__(self, device: str = "cpu") -> None:
        super().__init__()
        if device not in ("cpu", "phi"):
            raise ValueError(f"Unknown SIMT device {device!r}")
        self.device = device

    def _vectorizes(self, kernel, args):
        """The batched form the modelled OpenCL compiler emits, or None."""
        if self.device == "cpu" and not kernel.vectorizable_simt:
            return None
        return kernel.vector_for(args)

    # ------------------------------------------------------------------
    def _run(self, kernel, set_, args, plan, n, reductions) -> None:
        vfn = self._vectorizes(kernel, args)
        layout = plan.layout
        elem_colors = plan.elem_colors
        for color_blocks in plan.blocks_by_color:
            for b in color_blocks:
                lo, hi = layout.block_range(int(b))
                if lo >= hi:
                    continue
                if vfn is not None:
                    self._run_block_vector(
                        vfn, args, lo, hi, elem_colors,
                        int(plan.block_ncolors[int(b)]), reductions,
                    )
                else:
                    self._run_block_scalar(
                        kernel, args, lo, hi, elem_colors,
                        int(plan.block_ncolors[int(b)]), reductions,
                    )

    # ------------------------------------------------------------------
    def _run_block_vector(
        self, vfn, args, lo, hi, elem_colors, ncolors, reductions
    ) -> None:
        elems = np.arange(lo, hi)
        batch = gather_batch(args, elems)
        vfn(*batch.arrays)
        self._colored_scatter(args, batch, elems, elem_colors, ncolors, reductions)

    def _run_block_scalar(
        self, kernel, args, lo, hi, elem_colors, ncolors, reductions
    ) -> None:
        # Scalar work-items still use the colored-increment structure: the
        # kernel writes into private accumulators which are applied by
        # color, reproducing Fig 3a's ``if (col2==col)`` loop ordering.
        has_race = any(arg.races for arg in args)
        if not has_race:
            for e in range(lo, hi):
                run_scalar_element(kernel.scalar, args, e, reductions)
            return
        if elem_colors is None:
            colors = np.zeros(hi - lo, dtype=np.int32)
            ncolors = 1
        else:
            colors = elem_colors[lo:hi]
        for col in range(ncolors):
            for off in np.nonzero(colors == col)[0]:
                e = lo + int(off)
                run_scalar_element(kernel.scalar, args, e, reductions)

    # ------------------------------------------------------------------
    def _colored_scatter(
        self, args, batch, elems, elem_colors, ncolors, reductions
    ) -> None:
        """Apply indirect increments color-by-color (block-level barrier-free
        serialization), then fold reductions."""
        inc_writebacks = []
        other_writebacks = []
        for i, idx in batch.writebacks:
            if args[i].access is Access.INC and args[i].is_indirect:
                inc_writebacks.append((i, idx))
            else:
                other_writebacks.append((i, idx))

        if inc_writebacks:
            if elem_colors is None:
                colors = np.zeros(elems.size, dtype=np.int32)
                ncolors = 1
            else:
                colors = elem_colors[elems]
            for col in range(ncolors):
                sel = colors == col
                if not sel.any():
                    continue
                for i, idx in inc_writebacks:
                    dat = args[i].dat
                    # Within one color the targets are unique, so the
                    # free add is safe — and the lockstep lanes of one
                    # color commit together, as on hardware.  A vector
                    # argument's own slots may coincide (degenerate mesh
                    # entities), so its lanes accumulate serially.
                    dat.scatter_add(
                        idx[sel].reshape(-1),
                        batch.arrays[i][sel].reshape(-1, dat.dim),
                        serialize=args[i].is_vector,
                    )

        for i, idx in other_writebacks:
            args[i].dat.scatter(idx, batch.arrays[i])

        for i in batch.reduction_slots:
            fold_lanes(args[i].access, reductions[i], batch.arrays[i])
