"""Native backend — chains compiled to C, replayed through cffi.

The end of the performance ladder: where :class:`VectorizedBackend`
batches NumPy work per conflict-free color, this backend hands a whole
traced loop chain to :mod:`repro.kernelc.native`, which emits ONE C
translation unit — per-element gathers, kernel body and scatters fused
per loop, AoS/SoA strides and constants baked in — compiles it once,
and replays it with zero per-element Python cost.

Determinism contract
--------------------
Every native path executes elements in **ascending order** and maps
each floating-point step onto the exact machine operation NumPy's
scalar path performs (see the emitter's module docstring), so native
eager, chained and tiled results are all bitwise identical to the
sequential backend — the repo-wide acceptance bar.  A chained (or
repeat) call of a large chain runs on all cores by owner-computes, which
keeps that order per target (``kernelc/native.py``: ``LoopVerdict``);
eager and tiled dispatch stay on one thread.  ``thread_verdicts`` says
how each chain program runs its loops (``Runtime.stats()["native"]``).

Fallback policy (two tiers)
---------------------------
1. *No C toolchain* (``REPRO_NATIVE_DISABLE_CC=1``, or no ``cc``/cffi):
   the backend degrades to its :class:`VectorizedBackend` base
   everywhere — still fast, still internally bitwise-consistent across
   eager/chained/tiled.
2. *Toolchain present but a kernel or chain falls outside the C
   emitter's subset*: that work runs through the generic scalar paths
   (``Backend.run_chain`` / ``run_tiled`` / an ascending
   ``run_scalar_element`` sweep) — **never** the color-phased
   vectorized path — so mixed nativizability cannot break the
   ascending-order bitwise contract within a run.
"""

from __future__ import annotations

import time

from ..kernelc.native import (
    NativeUnsupported,
    build_chain_program,
    build_eager_program,
    compiler_available,
    count_native_fallback,
)
from ..core.chain import RepeatResult
from ..tiling.schedule import BarrierLoop
from .base import Backend, LoopStats, replay_trips, run_scalar_element
from .vectorized import VectorizedBackend

#: exec_cache marker for "this chain is not nativizable" (don't retry).
_UNSUPPORTED = None


class NativeBackend(VectorizedBackend):
    """Compile-and-replay backend over :mod:`repro.kernelc.native`."""

    name = "native"

    def __init__(self) -> None:
        super().__init__()
        #: Eager single-loop programs, keyed by kernel + argument shape
        #: signature (value ``None`` marks a known-unsupported kernel).
        self._eager_programs = {}
        #: How each chain program built so far runs its loops, keyed by
        #: the chain's kernel names: ``[(kernel, elements, verdict)]``.
        self.thread_verdicts = {}

    # ------------------------------------------------------------------
    # Eager dispatch
    # ------------------------------------------------------------------
    def _run(self, kernel, set_, args, plan, n, reductions, start=0) -> None:
        if not compiler_available():
            super()._run(kernel, set_, args, plan, n, reductions, start)
            return
        key = self._eager_key(kernel, args, n, start)
        program = self._eager_programs.get(key, _UNSUPPORTED)
        if key not in self._eager_programs:
            try:
                program = build_eager_program(kernel, args, n, start)
            except NativeUnsupported:
                program = _UNSUPPORTED
                count_native_fallback()
            self._eager_programs[key] = program
        if program is not None:
            program.run_eager(args, reductions)
            return
        # Unsupported kernel: scalar ascending sweep (the sequential
        # backend's loop), keeping the whole backend ascending-ordered.
        scalar = kernel.scalar
        for e in range(start, n):
            run_scalar_element(scalar, args, e, reductions)

    @staticmethod
    def _eager_key(kernel, args, n, start):
        """Everything the emitted source depends on, minus array
        identity — plus the slot-dedupe *pattern*, because the compiled
        pointer table tells aliased arguments apart by slot."""
        slots = {}

        def slot(array):
            return slots.setdefault(id(array), len(slots))

        parts = [kernel._uid, int(n), int(start)]
        for arg in args:
            if arg.is_global:
                parts.append(
                    ("g", arg.access.name, arg.dat.dim, slot(arg.dat._data))
                )
                continue
            dat = arg.dat
            parts.append((
                "d", arg.access.name, int(arg.index), dat.layout, dat.dim,
                dat._storage.shape, str(dat.dtype), slot(dat._storage),
                None if arg.map is None
                else (arg.map.arity, slot(arg.map.values)),
            ))
        return tuple(parts)

    # ------------------------------------------------------------------
    # Chained dispatch
    # ------------------------------------------------------------------
    def _chain_program(self, compiled, repeat=None):
        """The chain's compiled program; with ``repeat`` the one whose
        TU also carries that back edge (a separate program: every chain
        flushed without a repeat keeps its TU byte for byte)."""
        cache_key = (self, "native") if repeat is None else (
            self, "native", repeat.until._uid, repeat.record._uid)
        if cache_key in compiled.exec_cache:
            return compiled.exec_cache[cache_key]
        try:
            program = build_chain_program(
                compiled.loops, name=f"chain:{len(compiled.loops)}loops",
                repeat=repeat,
            )
        except NativeUnsupported:
            program = _UNSUPPORTED
            count_native_fallback()
        else:
            label = " > ".join(bl.kernel.name for bl in compiled.loops)
            self.thread_verdicts[label] = program.verdicts
        compiled.exec_cache[cache_key] = program
        return program

    def _record_split(self, loops, dt: float, calls: int = 1) -> None:
        """``dt`` seconds over ``calls`` executions of every loop."""
        share = dt / max(1, len(loops))
        for bl in loops:
            self.stats.setdefault(bl.kernel.name, LoopStats()).record(
                share, bl.n - bl.start, calls
            )

    def run_chain(self, compiled, repeat=None):
        """One cffi call per chain — and, with ``repeat``, per *repeat*:
        the back edge, its flag test and the per-trip record are in the
        TU (``kc_run_repeat``).  Without a compiler, or with a loop the
        emitter cannot lower, the trips replay one by one down the same
        ladder a plain chain takes, with the reason returned."""
        if not compiler_available():
            if repeat is not None:
                return replay_trips(
                    lambda: self.run_chain(compiled), repeat, "no compiler"
                )
            super().run_chain(compiled)
            return None
        program = self._chain_program(compiled, repeat)
        if program is _UNSUPPORTED:
            if repeat is not None:
                return replay_trips(
                    lambda: self.run_chain(compiled), repeat,
                    "un-nativizable loop",
                )
            # Generic per-loop path: each loop re-enters self._run,
            # which is native-or-scalar, always ascending.
            Backend.run_chain(self, compiled)
            return None
        for bl in compiled.loops:
            for arg in bl.args:
                arg.dat._sync()
        t0 = time.perf_counter()
        if repeat is None:
            program.run_fused()
            self._record_split(compiled.loops, time.perf_counter() - t0)
            return None
        recorded = program.run_fused(repeat=repeat)
        self._record_split(
            compiled.loops, time.perf_counter() - t0, calls=len(recorded)
        )
        return RepeatResult(recorded, None)

    # ------------------------------------------------------------------
    # Tiled dispatch
    # ------------------------------------------------------------------
    def tiled_profile(self, compiled):
        if not compiler_available():
            return super().tiled_profile(compiled)
        # Native loops execute elements in plain ascending order, so
        # cuts must slice that order (same profile as sequential).
        return "ascending"

    @staticmethod
    def _slices_are_ascending(schedule, loops) -> bool:
        """Belt-and-braces check that every sliced order is the plain
        ``arange(start, n)`` the emitted C assumes (contiguous ranges
        let tiles replay as ``[start + cuts[t], start + cuts[t+1])``)."""
        for part in schedule.parts:
            if isinstance(part, BarrierLoop):
                continue
            for k, sl in zip(part.loop_indices, part.slices):
                bl = loops[k]
                span = bl.n - bl.start
                if sl.order.size != span:
                    return False
                if span and (
                    int(sl.order[0]) != bl.start
                    or int(sl.order[-1]) != bl.n - 1
                ):
                    return False
        return True

    def run_tiled(self, compiled, repeat=None):
        if repeat is not None:
            return Backend.run_tiled(self, compiled, repeat)
        if not compiler_available():
            super().run_tiled(compiled)
            return
        if compiled.tiled is None:
            self.run_chain(compiled)
            return
        schedule = compiled.tiled_for(self.tiled_profile(compiled))
        if schedule is None:
            self.run_chain(compiled)
            return
        program = self._chain_program(compiled)
        if program is _UNSUPPORTED or not self._slices_are_ascending(
            schedule, compiled.loops
        ):
            Backend.run_tiled(self, compiled)
            return
        loops = compiled.loops
        for bl in loops:
            for arg in bl.args:
                arg.dat._sync()
        t0 = time.perf_counter()
        program._refresh()
        for part in schedule.parts:
            if isinstance(part, BarrierLoop):
                j = part.loop_index
                bl = loops[j]
                program.loop_init(j)
                program.run_loop(j, bl.start, bl.n)
                program.loop_fold(j)
                continue
            # Reduction loops are always barriers (inspector invariant),
            # so segment init/fold calls are no-ops kept for symmetry.
            for j in part.loop_indices:
                program.loop_init(j)
            for t in range(part.n_tiles):
                for j, sl in zip(part.loop_indices, part.slices):
                    lo = loops[j].start + int(sl.cuts[t])
                    hi = loops[j].start + int(sl.cuts[t + 1])
                    if hi > lo:
                        program.run_loop(j, lo, hi)
            for j in part.loop_indices:
                program.loop_fold(j)
        self._record_split(loops, time.perf_counter() - t0)
