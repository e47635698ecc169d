"""Explicit-SIMD backend — the paper's vector-intrinsics code path (Fig 3b).

Every conflict-free colour phase of a loop's plan
(:meth:`~repro.core.plan.Plan.phases`) runs as consecutive *strips* of
at most ``vec`` lanes (:meth:`~repro.core.plan.Phase.strips`), in
ascending order.  Each strip follows the generated intrinsics code:

1. indirection indices are loaded (cached per strip and (map, slot)),
   indirect reads *gathered* into packed per-lane arrays and direct
   reads passed as contiguous views;
2. the kernel's **vector form** runs once over all the strip's lanes;
3. indirect increments are *scattered serially* — lane by lane in index
   order, one 1-D ``np.add.at`` per component
   (:meth:`~repro.core.dat.Dat.scatter_add`) — the paper's sequential
   scatter out of the vector register that beat masked scatters.

Under the ``full_permute``/``block_permute`` schemes the lanes of a
phase are independent, so the scatter needs no serialization — the
configuration measured in Fig 8a.

Why strips: the generated kernel allocates one temporary per operation
over every lane it is handed.  Over a whole colour phase (~40k lanes of
``res_calc`` on an 80k-cell airfoil) each temporary has left L2 before
the next operation reads it; a strip keeps the kernel's working set in
cache.  Strips change no value: they ascend within a phase, so every
target receives its increments in the whole phase's order, and Global
reductions fold per-lane partials left to right across strip
boundaries (:func:`~repro.backends.base.fold_lanes`).

A chained replay (:class:`_PhaseExec`) prebinds every strip's
operations once, shares one set of strip-sized scratch buffers across
a loop's strips, and packs every single-slot operand and increment into
column-major lanes — component ``k`` of all lanes one contiguous row,
the paper's AoS -> SoA packing.  It takes its Dats from the loops of
each flush, so it serves every chain of its shape.  Its results are
bitwise those of the eager strips.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.access import Access, is_scalar_loop
from ..tiling.schedule import BarrierLoop
from .base import (
    Backend,
    LoopStats,
    _fold_reductions,
    _init_reductions,
    fold_lanes,
    gather_batch,
    inc_group_slots,
    interleave_inc_group,
    run_scalar_element,
    scatter_batch,
    serialized_inc_group_key,
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


def _lane_buffer(n: int, dat) -> np.ndarray:
    """A zeroed ``(n, dim)`` lane array for ``dat``, stored column-major.

    Component ``k`` of all ``n`` lanes is one contiguous row — the SoA
    vector register the paper packs indirect AoS data into — so the
    generated kernel's whole-lane column operations (``q[:, k]``) run
    at unit stride whatever the Dat's layout.
    """
    return np.zeros((dat.dim, n), dtype=dat.dtype).T


def _prebound_gather(dat, idx: np.ndarray, lanes: bool, flat) -> tuple:
    """One gather of a prepared strip, into strip scratch.

    Returns ``(axis, out, copy, view)``: the gather is
    ``np.take(storage, idx, axis, out=out)`` (then, when ``copy`` is
    set, a copy of ``out``'s transpose into it), and ``view`` is what
    the kernel is handed — a column-major ``(n, dim)`` lane array for a
    single-slot ``idx`` (``lanes``, see :func:`_lane_buffer`), or
    :meth:`~repro.core.dat.Dat.gather`'s ``(n, arity, dim)`` for a 2-D
    one.  ``flat(key, per_lane)`` is ``n * per_lane`` contiguous
    elements of the program's gather pool (:func:`_pooled`).  The
    values are the gather's; only where they live differs.
    """
    n, dim = idx.shape[0], dat.dim
    per_lane = idx.size // max(1, n) * dim
    if dat.layout == "soa":
        out = flat("gather", per_lane).reshape(dim, *idx.shape)
        return 1, out, None, out.T if lanes else np.moveaxis(out, 0, -1)
    if not lanes:
        out = flat("gather", per_lane).reshape(*idx.shape, dim)
        return 0, out, None, out
    if dim == 1:  # one column is column-major already
        out = flat("gather", 1).reshape(n, 1)
        return 0, out, None, out
    # AoS rows through a staging buffer (one per dtype and dim, shared
    # by the program's gathers), transposed into the lanes.
    rows = flat(("rows", dat.dtype.str, dim), dim).reshape(n, dim)
    copy = flat("gather", dim).reshape(dim, n)
    return 0, rows, copy, copy.T


def _merged_inc_groups(args) -> dict:
    """Arg position -> its merge group (positions, ascending), for every
    serialized single-slot INC argument that shares its Dat with another
    (:func:`~repro.backends.base.serialized_inc_group_key`)."""
    groups = {}
    for i, arg in enumerate(args):
        key = serialized_inc_group_key(arg)
        if key is not None:
            groups.setdefault(key, []).append(i)
    return {i: g for g in groups.values() if len(g) > 1 for i in g}


class _PhaseExec:
    """One loop's *prepared* execution of one strip.

    Mirrors :func:`~repro.backends.base.gather_batch` /
    :func:`~repro.backends.base.scatter_batch` operation-for-operation,
    but with every per-argument decision resolved at preparation time.
    It holds no Dat or Global: :meth:`run` takes them from the
    arguments it is handed, so one prepared program serves every trace
    of its chain's shape.

    * direct contiguous arguments are zero-copy views, one slice per
      run;
    * READ globals are their value arrays;
    * gather-index arrays come from the strip's per-(map, slot) cache,
      bound once, and every gather lands in ``scratch`` too
      (:func:`_prebound_gather`) — a strip allocates nothing;
    * increment accumulators and global-reduction partials are views of
      ``scratch`` — one buffer per argument position at ``cap`` lanes,
      shared by all the loop's strips and refilled in place each run; a
      merged INC group (several single-slot INC arguments on one Dat)
      shares one interleaved accumulator whose slot views the kernel
      writes, so no per-run interleave copy is made.

    Single-slot gathered operands and increment accumulators are
    column-major lane arrays (:func:`_prebound_gather` /
    :func:`_lane_buffer`): the paper's AoS -> SoA packing, so the
    generated kernel reads and writes each component of all lanes at
    unit stride.  Memory order changes no value, and a
    steady-state replay performs the very gathers, elementwise kernel
    operations, scatters and reduction folds of eager execution, in
    the same order on the same operands — results stay bitwise
    identical while the per-argument Python dispatch is shed.
    """

    __slots__ = ("kernel_vec", "proto", "views", "fills", "gathers",
                 "writebacks", "folds")

    def __init__(self, bl, phase, scratch: dict, cap: int,
                 pool: dict) -> None:
        args = bl.args
        elems = phase.elems
        nl = elems.size
        # Generated (or explicitly attached) batched form for this
        # loop's argument shapes, from the kernelc compile cache.
        self.kernel_vec = bl.kernel.vector_for(args)
        self.proto = [None] * len(args)  # prebound buffer, or None
        self.views = []       # (pos, slice of the argument's values)
        # (pos, index array, *_prebound_gather's operation)
        self.gathers = []
        # (pos, index array, accumulator, serialize) into argument pos's
        # Dat: an accumulator is scatter_add-ed, None scatters
        # arrays[pos].
        self.writebacks = []
        self.folds = []       # (pos, access mode)
        self.fills = []       # (buffer, fill value)

        def strip_buffer(pos, make, rows=1):
            """The first ``nl * rows`` lane rows of position ``pos``'s
            scratch, made once as ``make(cap * rows)``."""
            buf = scratch.get(pos)
            if buf is None:
                buf = scratch[pos] = make(cap * rows)
            return buf[:nl * rows]

        merged = _merged_inc_groups(args) if phase.serialize else {}
        for i, arg in enumerate(args):
            dat = arg.dat
            if arg.is_global:
                if arg.access.is_reduction:
                    acc = strip_buffer(
                        i, lambda m: np.zeros((m, dat.dim), dtype=dat.dtype)
                    )
                    fill = (
                        0 if arg.access is Access.INC
                        else dat.identity_for(arg.access)
                    )
                    self.proto[i] = acc
                    self.fills.append((acc, fill))
                    self.folds.append((i, arg.access))
                else:
                    self.views.append((i, slice(None)))
                continue
            if arg.is_direct and phase.contiguous:
                lo = int(elems[0])
                # Zero-copy in-place view, exactly what gather_batch
                # passes; writes land directly, no writeback.
                self.views.append((i, slice(lo, lo + nl)))
                continue
            idx = elems if arg.is_direct else phase.index_for(arg)
            if arg.access is not Access.INC:
                def flat(key, per_lane, g=len(self.gathers), dtype=dat.dtype):
                    if key == "gather":  # the loop's g-th gather
                        key = (key, g)
                    return _pooled(pool, key, cap * per_lane,
                                   dtype)[:nl * per_lane]

                self.gathers.append((i, idx, *_prebound_gather(
                    dat, idx, not arg.is_vector, flat
                )))
                if arg.access.writes:
                    self.writebacks.append((i, idx, None, None))
            elif arg.is_vector:
                # Vector-INC lanes flatten (strip, arity) targets; one
                # element's own slots may coincide, so always serialize
                # (same rule as scatter_batch).
                buf = strip_buffer(i, lambda m: np.zeros(
                    (m, arg.map.arity, dat.dim), dtype=dat.dtype
                ))
                self.proto[i] = buf
                self.fills.append((buf, 0))
                self.writebacks.append(
                    (i, idx.reshape(-1), buf.reshape(-1, dat.dim), True)
                )
            elif i in merged:
                # Same merge rule and interleave as scatter_batch:
                # res_calc's two p_res slots apply per element, the
                # scalar kernel body's order, in one joint scatter at
                # the first member's writeback position.
                group = merged[i]
                if i != group[0]:
                    continue
                joint = strip_buffer(
                    i, lambda m: _lane_buffer(m, dat), rows=len(group)
                )
                for m, slot in zip(group, inc_group_slots(joint, len(group))):
                    self.proto[m] = slot
                self.fills.append((joint, 0))
                gidx = interleave_inc_group(
                    [phase.index_for(args[m]) for m in group]
                )
                self.writebacks.append((i, gidx, joint, True))
            else:
                # Zeroed accumulator + delta scatter_add.  For a
                # non-contiguous direct INC (Mat staging) this mirrors
                # gather_batch: a gathered copy would double-count.
                buf = strip_buffer(i, lambda m: _lane_buffer(m, dat))
                self.proto[i] = buf
                self.fills.append((buf, 0))
                self.writebacks.append((i, idx, buf, phase.serialize))

    def run(self, args, reductions) -> None:
        """One strip over ``args`` (a loop of this program's shape)."""
        arrays = self.proto.copy()
        for pos, part in self.views:
            arrays[pos] = args[pos].dat._data[part]
        for buf, fill in self.fills:
            buf[...] = fill
        for pos, idx, axis, out, copy, view in self.gathers:
            dat = args[pos].dat
            dat._sync()
            # Indices come from range-checked Maps and plan element
            # arrays; "clip" spares take() a buffered copy of ``out``.
            np.take(dat._storage, idx, axis=axis, out=out, mode="clip")
            if copy is not None:
                copy[...] = out.T
            arrays[pos] = view
        self.kernel_vec(*arrays)
        for pos, idx, acc, ser in self.writebacks:
            if acc is None:
                args[pos].dat.scatter(idx, arrays[pos])
            else:
                args[pos].dat.scatter_add(idx, acc, serialize=ser)
        for pos, mode in self.folds:
            fold_lanes(mode, reductions[pos], arrays[pos])


def _pooled(pool: dict, key, size: int, dtype) -> np.ndarray:
    """``size`` elements of the program-wide gather buffer ``key``
    (grown when a loop needs more).  A strip's gathers are spent by the
    time its run returns, so every loop of a program can share them."""
    key = (key, np.dtype(dtype).str)
    buf = pool.get(key)
    if buf is None or buf.size < size:
        buf = pool[key] = np.empty(size, dtype=dtype)
    return buf[:size]


def _prepare_strips(bl, strips, pool: dict) -> list:
    """Loop ``bl``'s prepared execution of each of ``strips``, all
    sharing one set of scratch buffers sized to the largest strip, and
    gathering into the program's ``pool`` (:func:`_pooled`)."""
    cap = max((s.elems.size for s in strips), default=0)
    scratch = {}
    return [_PhaseExec(bl, s, scratch, cap, pool) for s in strips]


class VectorizedBackend(Backend):
    """SIMD-intrinsics analogue over cache-sized strips.

    Parameters
    ----------
    vec:
        Lanes per strip, ``W``: every colour phase runs as consecutive
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
        vfn = _batch_kernel(kernel, args, plan)
        if vfn is None:
            for e in range(n):
                run_scalar_element(kernel.scalar, args, e, reductions)
            return
        self._run_phases(vfn, args, plan, n, reductions)

    def _run_phases(self, vfn, args, plan, n, reductions) -> None:
        """One gather/compute/scatter per strip of each colour phase.

        ``plan.phases`` memoizes the phase element arrays,
        :meth:`~repro.core.plan.Phase.strips` the strips and (via each
        strip's index cache) the per-(map, slot) gather indices, so the
        steady state is one NumPy gather per argument per strip and
        zero index reconstruction.
        """
        for phase in plan.phases(n):
            for strip in phase.strips(self.vec):
                batch = gather_batch(args, strip.elems, phase=strip)
                vfn(*batch.arrays)
                scatter_batch(args, batch, reductions,
                              serialize_inc=strip.serialize)

    # ------------------------------------------------------------------
    # Chained execution: precompiled fused fast path (see core/chain.py).
    # ------------------------------------------------------------------
    def run_chain(self, compiled, repeat=None):
        """Execute a compiled chain through a prepared replay program
        (under ``repeat``: once per trip, ``Backend.run_chain``).

        On first sight of a :class:`~repro.core.chain.CompiledChain`
        this backend *prepares* it: every batchable loop's per-strip
        gather → vector-kernel → scatter sequence is resolved into
        prebound operations (:class:`_PhaseExec`) — argument
        classification, contiguous direct ranges, gather-index arrays,
        increment/reduction buffers all bound once; the Dats come from
        ``compiled``'s loops at every call.  Steady-state
        replay then runs only the numpy calls themselves, none of the
        per-argument Python dispatch the eager path repeats every time
        step.

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
        execs = [_prepare_strips(bl, strips, pool) for bl in group.loops]
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
        tile, the list of :class:`_PhaseExec` programs for the strips
        of each loop's sub-phases
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
                execs = _prepare_strips(
                    bl, [strip for _, strip in owned], pool
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
