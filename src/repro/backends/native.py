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
eager and chained results are bitwise identical to the sequential
backend — the repo-wide acceptance bar.  A chained (or repeat) call of
a large chain runs on all cores by owner-computes, which keeps that
order per target (``kernelc/native.py``: ``LoopVerdict``); eager
dispatch stays on one thread.  A tiled request (``tiling=``) runs the
chain untiled (:meth:`NativeBackend.run_tiled`).  ``thread_verdicts``
says how each chain program runs its loops, and whether it was built
or reused (``Runtime.stats()["native"]``).

A program binds the live arrays of the loops it is handed on every
call.  It is kept on the compiled chain, whose cache entry is itself a
function of the trace's shape, so a fresh sim's flush finds its
program there without a lookup of its own; a chain new to the runtime
looks it up by shape (:meth:`NativeBackend._shape_key`) in the
backend's program cache — no emission, no hashing, no library load
when an earlier chain had that shape.

Fallback policy (two tiers)
---------------------------
1. *No C toolchain* (``REPRO_NATIVE_DISABLE_CC=1``, or no ``cc``/cffi):
   the backend degrades to its :class:`VectorizedBackend` base for
   eager and chained work — still fast, still internally
   bitwise-consistent across eager/chained.
2. *Toolchain present but a kernel or chain falls outside the C
   emitter's subset*: that work runs through the generic scalar paths
   (``Backend.run_chain`` / an ascending ``run_scalar_element``
   sweep) — **never** the color-phased
   vectorized path — so mixed nativizability cannot break the
   ascending-order bitwise contract within a run.
"""

from __future__ import annotations

import time
from collections import OrderedDict

from ..kernelc.build import (
    compiler_available,
    count_native_fallback,
    count_program_hit,
)
from ..kernelc.native import (
    NativeUnsupported,
    build_chain_program,
    build_eager_program,
)
from ..core.chain import RepeatResult
from .base import Backend, LoopStats, replay_trips, run_scalar_element
from .vectorized import VectorizedBackend

#: exec_cache marker for "this chain is not nativizable" (don't retry).
_UNSUPPORTED = None
_MISSING = object()

#: LRU bound of a backend's program cache (the runtime's chain-cache
#: bound: a program is worth keeping as long as a chain of its shape).
PROGRAM_CACHE_ENTRIES = 64


class NativeBackend(VectorizedBackend):
    """Compile-and-replay backend over :mod:`repro.kernelc.native`."""

    name = "native"

    def __init__(self) -> None:
        super().__init__()
        #: Compiled programs, eager and chained, by :meth:`_shape_key`
        #: (value ``None``: a shape the emitter cannot lower).  A program
        #: holds its library and slot recipe but no loop's arrays — the
        #: live ones are bound at call time — so a fresh sim over the
        #: same mesh reuses its program without emitting or loading
        #: anything.
        self._programs = OrderedDict()
        #: How each chain program runs its loops, keyed by the chain's
        #: kernel names: ``[(kernel, elements, verdict, lanes)]``, plus
        #: whether the last chain of that name ``built`` or ``reused``
        #: its program.
        self.thread_verdicts = {}

    def _program(self, key, build):
        """The cached program of shape ``key``, else ``build()``'s (or
        ``None`` when it raises :class:`NativeUnsupported`); returns
        ``(program, reused)``."""
        if key in self._programs:
            self._programs.move_to_end(key)
            return self._programs[key], True
        try:
            program = build()
        except NativeUnsupported:
            program = _UNSUPPORTED
            count_native_fallback()
        self._programs[key] = program
        while len(self._programs) > PROGRAM_CACHE_ENTRIES:
            self._programs.popitem(last=False)
        return program, False

    @staticmethod
    def _shape_key(loops, repeat=None):
        """Everything the TU of ``loops`` (``(kernel, args, n)``
        triples) depends on, minus array identity:
        per loop the kernel (its identity: closure constants are baked
        into the source) and extent, per argument its access, layout,
        dim, storage shape, dtype and map arity — plus the slot-dedupe
        *pattern*, because the pointer table tells aliased arguments
        apart by slot, and each map by identity (a threaded TU's owner
        facets are a function of its connectivity, and identity keys it
        without reading a byte of it).  A repeat adds the slots of its
        flag and record."""
        slots = {}

        def slot(array):
            return slots.setdefault(id(array), len(slots))

        parts = []
        for kernel, args, n in loops:
            parts.append((kernel._uid, int(n)))
            for arg in args:
                if arg.is_global:
                    parts.append((
                        "g", arg.access.name, arg.dat.dim,
                        arg.dat._data.dtype, slot(arg.dat._data),
                    ))
                    continue
                dat, map_ = arg.dat, arg.map
                parts.append((
                    "d", arg.access.name, int(arg.index), dat.layout, dat.dim,
                    dat._storage.shape, dat.dtype, slot(dat._storage),
                    None if map_ is None else (
                        map_.arity, slot(map_.values), map_._uid),
                ))
        if repeat is not None:
            parts.append((slot(repeat.until._data), slot(repeat.record._data)))
        return tuple(parts)

    # ------------------------------------------------------------------
    # Eager dispatch
    # ------------------------------------------------------------------
    def _run(self, kernel, set_, args, plan, n, reductions) -> None:
        if not compiler_available():
            super()._run(kernel, set_, args, plan, n, reductions)
            return
        key = ("eager", self._shape_key([(kernel, args, n)]))
        program, _ = self._program(
            key, lambda: build_eager_program(kernel, args, n)
        )
        if program is not None:
            program.run_eager(args, reductions)
            return
        # Unsupported kernel: scalar ascending sweep (the sequential
        # backend's loop), keeping the whole backend ascending-ordered.
        scalar = kernel.scalar
        for e in range(n):
            run_scalar_element(scalar, args, e, reductions)

    # ------------------------------------------------------------------
    # Chained dispatch
    # ------------------------------------------------------------------
    def _chain_program(self, compiled, repeat=None):
        """The chain's compiled program; with ``repeat`` the one whose
        TU also carries that back edge (a separate program: every chain
        flushed without a repeat keeps its TU byte for byte, and the
        flag's and record's slots in the trace select it).  Looked up
        on the compiled chain first, then by shape in the backend's
        program cache; built only when neither has it."""
        cache_key = (self, "native") if repeat is None else (
            self, "native", compiled.dats.index(repeat.until),
            compiled.dats.index(repeat.record))
        loops = compiled.loops
        program = compiled.exec_cache.get(cache_key, _MISSING)
        reused = True
        if program is _MISSING:
            program, reused = self._program(
                ("chain", self._shape_key(
                    [(bl.kernel, bl.args, bl.n) for bl in loops], repeat)),
                lambda: build_chain_program(
                    loops, name=f"chain:{len(loops)}loops", repeat=repeat,
                ),
            )
            compiled.exec_cache[cache_key] = program
        elif not compiled.rebound:
            return program
        if program is not _UNSUPPORTED:
            if reused:
                count_program_hit()
            label = " > ".join(bl.kernel.name for bl in loops)
            self.thread_verdicts[label] = (
                program.verdicts, "reused" if reused else "built"
            )
        return program

    def _record_split(self, loops, dt: float, calls: int = 1) -> None:
        """``dt`` seconds over ``calls`` executions of every loop."""
        share = dt / max(1, len(loops))
        for bl in loops:
            self.stats.setdefault(bl.kernel.name, LoopStats()).record(
                share, bl.n, calls
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
            program.run_fused(compiled.loops)
            self._record_split(compiled.loops, time.perf_counter() - t0)
            return None
        recorded = program.run_fused(compiled.loops, repeat=repeat)
        self._record_split(
            compiled.loops, time.perf_counter() - t0, calls=len(recorded)
        )
        return RepeatResult(recorded, None)

    # ------------------------------------------------------------------
    # Tiled dispatch
    # ------------------------------------------------------------------
    def run_tiled(self, compiled, repeat=None):
        """Native never tiles: a tiled request runs the untiled chain.

        A fused chain runs on every core in one call; a tile walk would
        call the single-threaded per-loop entry once per tile and slice,
        which measured slower than the chain it replaces.  So no tiled
        schedule is built, and a tiled ``repeat`` is one
        ``kc_run_repeat`` call like any other."""
        return self.run_chain(compiled, repeat)
