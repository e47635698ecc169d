"""Auto-vectorization analogue backend (paper Sections 4 and 6.5).

The paper makes compiler auto-vectorization *possible* by switching to the
full-permute / block-permute orderings (independent inner-loop iterations
plus ``#pragma ivdep``).  Whether the compiler then actually vectorizes a
loop is a separate question — on AVX it mostly refused, on the Phi it
vectorized everything yet ran slower than scalar because of the gathers
the permutation introduces.

This backend realizes the auto-vectorized execution: whole color groups
execute as single batched NumPy calls (unbounded "vector length"), with
free (unserialized) scatters since color groups are independent.  Kernels
without a vector form run scalar — the compiler bail-out case.

By default it rides the whole-color mega-batch fast path (``batch=
"color"``): every color phase is one fused gather → kernel → scatter
using the plan's cached index arrays (see
:meth:`repro.core.plan.Plan.phases`), so a steady-state time step does no
per-chunk Python iteration and no index reconstruction.  ``batch=
"chunk"`` falls back to looping color slices through the chunked
machinery — the configuration the batched-vs-chunked ablation compares
against.
"""

from __future__ import annotations

from .vectorized import VectorizedBackend


class AutoVecBackend(VectorizedBackend):
    """Whole-color batched execution over permute orderings.

    A thin specialization of :class:`VectorizedBackend`: the "vector
    width" is unbounded (a compiler vectorizing an independent loop covers
    the whole trip count), so each color group is one fused gather /
    compute / scatter.  Plans must use the ``full_permute`` or
    ``block_permute`` scheme for indirect loops; direct loops work with
    any scheme.
    """

    name = "autovec"

    def __init__(self, batch: str | None = None) -> None:
        super().__init__(vec=None, batch=batch)

    def _run(self, kernel, set_, args, plan, n, reductions) -> None:
        if not plan.is_direct and plan.scheme == "two_level":
            raise ValueError(
                "AutoVecBackend requires a full_permute or block_permute "
                "plan for indirect loops (iteration independence is what "
                "enables auto-vectorization); got a two_level plan for "
                f"kernel {kernel.name!r}"
            )
        super()._run(kernel, set_, args, plan, n, reductions)

    def _group_batchable(self, group) -> bool:
        # Chained fast path: never fuse an indirect two_level group —
        # fall through to execute(), which raises the same scheme error
        # eager execution would (chained and eager must behave alike).
        if not group.plan.is_direct and group.plan.scheme == "two_level":
            return False
        return super()._group_batchable(group)

    def _tiled_batchable(self, compiled) -> bool:
        # Tiled fast path: an indirect two_level plan anywhere in the
        # chain sends the whole schedule down the fused/eager fallback,
        # which raises the same scheme error eager execution would.
        for bl in compiled.loops:
            if not bl.plan.is_direct and bl.plan.scheme == "two_level":
                return False
        return super()._tiled_batchable(compiled)
