"""Explicit-SIMD backend — the paper's vector-intrinsics code path (Fig 3b).

Every phase of a loop's plan (:meth:`~repro.core.plan.Plan.phases`)
runs as consecutive *strips* of at most ``vec`` lanes
(:meth:`~repro.core.plan.Phase.strips`), in ascending order.  Each
strip follows the generated intrinsics code:

1. indirection indices are loaded (cached per strip and (map, slot)),
   indirect reads *gathered* into packed per-lane arrays and direct
   reads passed as contiguous views;
2. the kernel's **vector form** runs once over all the strip's lanes;
3. indirect increments are *scattered serially* — lane by lane in index
   order, one 1-D ``np.add.at`` per component
   (:meth:`~repro.core.dat.Dat.scatter_add`) — the paper's sequential
   scatter out of the vector register that beat masked scatters.

Under ``two_level`` a racing loop is one ascending phase.  The paper
colours blocks for OpenMP threads and elements for SIMD lanes; this
backend runs on one thread and its scatter is already serial in
element order, so colours would buy it no safety.  Without them every
target receives its increments in ``sequential``'s order — results
are bitwise equal to the interpreter's — no colouring is built at
set-up, and every strip is a contiguous range whose direct arguments
are zero-copy views.  Under the ``full_permute``/``block_permute``
schemes the lanes of a colour phase are independent, so the scatter
needs no serialization — the configuration measured in Fig 8a — and
results differ from the interpreter's at rounding level.

Why strips: the generated kernel allocates one temporary per operation
over every lane it is handed.  Over a whole phase (~40k lanes of one
``res_calc`` colour on an 80k-cell airfoil) each temporary has left L2 before
the next operation reads it; a strip keeps the kernel's working set in
cache.  Strips change no value: they ascend within a phase, so every
target receives its increments in the whole phase's order, and Global
reductions fold per-lane partials left to right across strip
boundaries (:func:`~repro.backends.base.fold_lanes`).

Every strip runs as a prepared
:class:`~repro.backends.base.StripProgram`, whichever way the loop is
dispatched: eager execution prepares a loop's programs at each call,
while a chained or tiled replay prepares them once per chain shape and
keeps them, so a warm replay runs only the NumPy calls.  One executor
serves all three, so their results agree bitwise by construction.
"""

from __future__ import annotations

import time

from ..core.access import Access, is_scalar_loop
from ..tiling.schedule import BarrierLoop
from .base import (
    Backend,
    LoopStats,
    _fold_reductions,
    _init_reductions,
    prepare_strips,
    run_scalar_element,
)

#: Default lanes per strip (``vec``).  Chosen by a width sweep on the
#: 80k-cell airfoil (float64) and on Volna (float32); see CHANGES.md.
STRIP_WIDTH = 8192


def _batch_kernel(kernel, args, plan):
    """The vector form a loop runs its strips with, or ``None`` when it
    takes the scalar sweep.

    ``None`` when the kernel has no vector form (the paper's
    non-vectorizable case), or when it races through anything but
    increments under ``two_level`` — indirect WRITE/RW lanes may
    collide inside a phase under the original ordering, and only
    commutative increments serialize safely (OP2 likewise restricts
    vectorization to INC-style races).
    """
    vfn = kernel.vector_for(args)
    if plan.is_direct or plan.scheme != "two_level" or not any(
        arg.races and arg.access is not Access.INC for arg in args
    ):
        return vfn
    return None


class VectorizedBackend(Backend):
    """SIMD-intrinsics analogue over cache-sized strips.

    Parameters
    ----------
    vec:
        Lanes per strip, ``W``: every phase runs as consecutive
        strips of at most ``vec`` lanes (default :data:`STRIP_WIDTH`).
        Any width gives the same bits; it only sets how much of a
        phase one gather → kernel → scatter round holds in cache.
    """

    name = "vectorized"

    def __init__(self, vec: int = STRIP_WIDTH) -> None:
        super().__init__()
        if vec < 1:
            raise ValueError(f"vector width must be >= 1, got {vec}")
        self.vec = vec

    # ------------------------------------------------------------------
    def _run(self, kernel, set_, args, plan, n, reductions) -> None:
        """One prepared :class:`~repro.backends.base.StripProgram` per
        strip of each phase, run in ascending order.  The phases,
        their strips and the strips' gather indices are memoized on the
        plan, so preparing costs only the per-argument decisions."""
        vfn = _batch_kernel(kernel, args, plan)
        if vfn is None:
            for e in range(n):
                run_scalar_element(kernel.scalar, args, e, reductions)
            return
        pool = {}
        for phase in plan.phases(n):
            for program in prepare_strips(vfn, args, phase.strips(self.vec),
                                          pool):
                program.run(args, reductions)

    # ------------------------------------------------------------------
    # Chained execution: precompiled fused fast path (see core/chain.py).
    # ------------------------------------------------------------------
    def run_chain(self, compiled, repeat=None):
        """Execute a compiled chain through a prepared replay program
        (under ``repeat``: once per trip, ``Backend.run_chain``).

        On first sight of a :class:`~repro.core.chain.CompiledChain`
        this backend *prepares* it: every batchable loop's strips become
        :class:`~repro.backends.base.StripProgram` s — argument
        classification, contiguous direct ranges, gather-index arrays,
        increment/reduction buffers all bound once; the Dats come from
        ``compiled``'s loops at every call.  Steady-state replay then
        runs only the numpy calls themselves, none of the per-argument
        preparation eager execution repeats every time step.

        Fused (multi-loop) groups run *strip-interleaved*: one pass
        over the shared plan's strips, executing every loop per strip,
        sharing the strip's memoized gather-index arrays.  Chain
        legality (:func:`repro.core.chain.pair_fusable`) admits only
        elementwise (direct-direct) dependencies between them, so the
        interleaving is bitwise identical to eager loop-at-a-time
        execution.  Groups the fast path cannot take (scalar-only
        kernels, WRITE/RW races under ``two_level``) fall back to the
        eager :meth:`execute` per loop.
        """
        if repeat is not None:
            return Backend.run_chain(self, compiled, repeat)
        program = compiled.exec_cache.get(self)
        if program is None:
            pool = {}
            program = [self._prepare_group(g, pool) for g in compiled.groups]
            compiled.exec_cache[self] = program
        for run_group, group in zip(program, compiled.groups):
            run_group(group.loops)

    def _group_batchable(self, group) -> bool:
        """Whether every loop of a group can take the strip fast path."""
        return all(
            not is_scalar_loop(bl.args)  # Backend.execute's scalar path
            and _batch_kernel(bl.kernel, bl.args, group.plan) is not None
            for bl in group.loops
        )

    def _prepare_group(self, group, pool: dict):
        """Compile one group into a zero-re-analysis replay closure
        (gathering into the program's ``pool``), run with the group's
        loops of each flush."""
        if not self._group_batchable(group):
            # Conservative fallback: eager execution per loop (which
            # itself falls back to scalar sweeps etc. exactly as an
            # un-chained par_loop would).
            def run_eager(loops) -> None:
                for bl in loops:
                    self.execute(bl.kernel, bl.set, bl.args, bl.plan)

            return run_eager

        n = group.loops[0].n
        strips = [
            strip for phase in group.plan.phases(n)
            for strip in phase.strips(self.vec)
        ]
        # execs[k][s]: loop k's prepared execution of strip s.
        execs = [
            prepare_strips(bl.kernel.vector_for(bl.args), bl.args, strips,
                           pool)
            for bl in group.loops
        ]
        stats = self.stats

        def run_group(loops) -> None:
            args = [bl.args for bl in loops]
            reductions = [_init_reductions(a) for a in args]
            elapsed = [0.0] * len(loops)
            for s in range(len(strips)):
                for k in range(len(loops)):
                    t0 = time.perf_counter()
                    execs[k][s].run(args[k], reductions[k])
                    elapsed[k] += time.perf_counter() - t0
            for k, bl in enumerate(loops):
                _fold_reductions(bl.args, reductions[k])
                stats.setdefault(bl.kernel.name, LoopStats()).record(
                    elapsed[k], n
                )

        return run_group

    # ------------------------------------------------------------------
    # Sparse-tiled execution: precompiled per-tile replay programs.
    # ------------------------------------------------------------------
    def run_tiled(self, compiled, repeat=None):
        """Execute a tiled chain through prepared per-tile programs
        (under ``repeat``: once per trip, ``Backend.run_tiled``).

        The analogue of :meth:`run_chain`'s prepared replay, transposed
        tile-major: on first sight every segment is compiled into, per
        tile, the :class:`~repro.backends.base.StripProgram` s for the
        strips of each loop's sub-phases
        (:meth:`repro.core.plan.Plan.phase_slices`) — direct contiguous
        slices stay zero-copy views, gather indices are cached per
        strip, increment buffers preallocated.  Replay then walks tiles
        in ascending order running only the numpy calls; each loop's
        sub-phases concatenate to its eager phase sequence, so results
        are bitwise identical to eager execution while consecutive
        loops reuse the tile's cache-resident data.

        Falls back to the fused :meth:`run_chain` program whenever any
        sliced loop cannot take the batched fast path (scalar-only
        kernels, WRITE/RW races under ``two_level``) — correctness is
        never traded for tiling.
        """
        if repeat is not None:
            return Backend.run_tiled(self, compiled, repeat)
        if compiled.tiled is None or not self._tiled_batchable(compiled):
            self.run_chain(compiled)
            return
        program = compiled.exec_cache.get((self, "tiled"))
        if program is None:
            program = self._prepare_tiled(compiled)
            compiled.exec_cache[(self, "tiled")] = program
        for run_part in program:
            run_part(compiled.loops)

    def _tiled_batchable(self, compiled) -> bool:
        """Whether every sliced loop can take the batched fast path."""
        for part in compiled.tiled.parts:
            if isinstance(part, BarrierLoop):  # barrier loops run eagerly
                continue
            for k in part.loop_indices:
                bl = compiled.loops[k]
                if _batch_kernel(bl.kernel, bl.args, bl.plan) is None:
                    return False
        return True

    def _prepare_tiled(self, compiled):
        """Compile the tiled schedule into zero-re-analysis closures,
        each run with the chain's loops of each flush."""
        loops = compiled.loops
        program = []
        pool = {}
        for part in compiled.tiled.parts:
            if isinstance(part, BarrierLoop):
                def run_barrier(loops, k=part.loop_index) -> None:
                    bl = loops[k]
                    self.execute(bl.kernel, bl.set, bl.args, bl.plan)

                program.append(run_barrier)
                continue

            seg_loops = [loops[k] for k in part.loop_indices]
            # tiles[t]: [(loop position, prepared strip exec), ...]
            tiles = [[] for _ in range(part.n_tiles)]
            for j, bl in enumerate(seg_loops):
                cuts = part.slices[j].cuts
                owned = [
                    (t, strip) for t in range(part.n_tiles)
                    for sub in bl.plan.phase_slices(
                        bl.n, 0, int(cuts[t]), int(cuts[t + 1])
                    )
                    for strip in sub.strips(self.vec)
                ]
                execs = prepare_strips(
                    bl.kernel.vector_for(bl.args), bl.args,
                    [strip for _, strip in owned], pool,
                )
                for (t, _), pe in zip(owned, execs):
                    tiles[t].append((j, pe))
            stats = self.stats

            def run_segment(loops, indices=part.loop_indices,
                            tiles=tiles) -> None:
                seg_loops = [loops[k] for k in indices]
                reductions = [_init_reductions(bl.args) for bl in seg_loops]
                elapsed = [0.0] * len(seg_loops)
                for execs in tiles:
                    for j, pe in execs:
                        t0 = time.perf_counter()
                        pe.run(seg_loops[j].args, reductions[j])
                        elapsed[j] += time.perf_counter() - t0
                for j, bl in enumerate(seg_loops):
                    _fold_reductions(bl.args, reductions[j])
                    stats.setdefault(bl.kernel.name, LoopStats()).record(
                        elapsed[j], bl.n
                    )

            program.append(run_segment)
        return program
