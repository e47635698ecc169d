"""Explicit-SIMD backend — the paper's vector-intrinsics code path (Fig 3b).

Execution follows the generated intrinsics code exactly:

1. elements are processed in chunks of the vector width ``vec`` (4/8/16
   lanes depending on ISA and precision);
2. indirection indices are loaded, indirect reads *gathered* into packed
   per-lane arrays and direct reads loaded contiguously (aligned loads);
3. the kernel's **vector form** runs once per chunk over all lanes;
4. indirect increments are *scattered serially* — lane by lane in index
   order, one 1-D ``np.add.at`` per component
   (:meth:`~repro.core.dat.Dat.scatter_add`) — the paper's sequential
   scatter out of the vector register that beat masked scatters;
5. a scalar *post-sweep* handles the remainder elements that do not fill
   a whole vector (the paper generates scalar pre/main/post loops because
   iteration ranges are rarely divisible by the vector length).

Under the ``full_permute``/``block_permute`` schemes, lanes within a chunk
are guaranteed independent, so the scatter needs no serialization — this
is the configuration measured in Fig 8a.

The whole-color mega-batch fast path
------------------------------------
Chunked execution is faithful to the hardware but pays Python-interpreter
overhead per chunk — the exact cost the paper's generated code avoids by
compiling.  When ``vec=None`` (unbounded lanes) the backend instead asks
the plan for its :meth:`~repro.core.plan.Plan.phases`: each conflict-free
color becomes **one** fused gather → vector-kernel → scatter over the
entire color's element array, with the gather/scatter index arrays cached
on the plan so repeated invocations (time steps) rebuild nothing.  A
chained replay (:class:`_PhaseExec`) also packs every single-slot operand
and increment into column-major lanes — component ``k`` of all lanes one
contiguous row, the paper's AoS -> SoA packing.  Batch
results are bitwise identical to chunked execution — phases preserve the
chunked element order, serialized INC scatters apply lanes in that same
order, and free scatters touch each target exactly once either way.
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


def _lane_buffer(n: int, dat) -> np.ndarray:
    """A zeroed ``(n, dim)`` lane array for ``dat``, stored column-major.

    Component ``k`` of all ``n`` lanes is one contiguous row — the SoA
    vector register the paper packs indirect AoS data into — so the
    generated kernel's whole-lane column operations (``q[:, k]``) run
    at unit stride whatever the Dat's layout.
    """
    return np.zeros((dat.dim, n), dtype=dat.dtype).T


def _gather_lanes(dat, idx: np.ndarray) -> np.ndarray:
    """:meth:`~repro.core.dat.Dat.gather` of a 1-D ``idx`` into a
    column-major ``(n, dim)`` array (see :func:`_lane_buffer`).

    An SoA gather already is one; an AoS gather of whole rows is
    transposed into lanes, the paper's AoS -> SoA packing.  The values
    are the gather's, only their memory order differs.
    """
    rows = dat.gather(idx)
    if rows.flags.f_contiguous:
        return rows
    lanes = np.empty((dat.dim, idx.size), dtype=rows.dtype).T
    lanes[...] = rows
    return lanes


class _PhaseExec:
    """One loop's *prepared* execution of one conflict-free phase.

    Mirrors :func:`~repro.backends.base.gather_batch` /
    :func:`~repro.backends.base.scatter_batch` operation-for-operation,
    but with every per-argument decision resolved at preparation time:

    * direct contiguous arguments are prebound zero-copy views (no
      per-run work at all);
    * READ globals are prebound to their (stable) value arrays;
    * gather-index arrays come from the phase's per-(map, slot) cache,
      bound once;
    * increment accumulators and global-reduction partials are
      preallocated and refilled in place each run instead of
      reallocated; a merged INC group (several single-slot INC
      arguments on one Dat) shares one interleaved accumulator whose
      slot views the kernel writes, so no per-run interleave copy is
      made.

    Single-slot gathered operands and increment accumulators are
    column-major lane arrays (:func:`_gather_lanes` /
    :func:`_lane_buffer`): the paper's AoS -> SoA packing, so the
    generated kernel reads and writes each component of all lanes at
    unit stride.  Memory order changes no value, and a
    steady-state replay performs the very gathers, elementwise kernel
    operations, scatters and reduction folds of eager execution, in
    the same order on the same operands — results stay bitwise
    identical while the per-argument Python dispatch is shed.
    """

    __slots__ = ("kernel_vec", "proto", "fills", "gathers", "writebacks",
                 "folds")

    def __init__(self, bl, phase) -> None:
        args = bl.args
        elems = phase.elems
        nl = elems.size
        serialize = phase.serialize
        # Generated (or explicitly attached) batched form for this
        # loop's argument shapes, from the kernelc compile cache.
        self.kernel_vec = bl.kernel.vector_for(bl.args)
        self.proto = []       # per-arg prebound array, or None (gathered)
        self.gathers = []     # (pos, dat, index array, as lanes?)
        # (dat, index array, pos, accumulator, serialize): a prebound
        # accumulator is scatter_add-ed, None scatters arrays[pos].
        self.writebacks = []
        self.folds = []       # (reduction slot, pos, access mode)
        fills = {}            # pos -> (buffer, fill value)
        merge = {}            # dat uid -> writeback indices to merge
        for i, arg in enumerate(args):
            dat = arg.dat
            if arg.is_global:
                if arg.access.is_reduction:
                    acc = np.zeros((nl, dat.dim), dtype=dat.dtype)
                    fill = (
                        0 if arg.access is Access.INC
                        else dat.identity_for(arg.access)
                    )
                    self.proto.append(acc)
                    fills[i] = (acc, fill)
                    self.folds.append((i, i, arg.access))
                else:
                    self.proto.append(dat.data)  # stable value array
                continue
            if arg.is_direct and phase.contiguous:
                lo = int(elems[0])
                # Zero-copy in-place view, exactly what gather_batch
                # passes; writes land directly, no writeback.
                self.proto.append(dat._data[lo:lo + nl])
                continue
            idx = elems if arg.is_direct else phase.index_for(arg)
            if arg.access is not Access.INC:
                self.proto.append(None)
                self.gathers.append((i, dat, idx, not arg.is_vector))
                if arg.access.writes:
                    self.writebacks.append((dat, idx, i, None, None))
            elif arg.is_vector:
                # Vector-INC lanes flatten (chunk, arity) targets; one
                # element's own slots may coincide, so always serialize
                # (same rule as scatter_batch).
                buf = np.zeros((nl, arg.map.arity, dat.dim), dtype=dat.dtype)
                self.proto.append(buf)
                fills[i] = (buf, 0)
                self.writebacks.append(
                    (dat, idx.reshape(-1), i, buf.reshape(-1, dat.dim), True)
                )
            else:
                # Zeroed accumulator + delta scatter_add.  For a
                # non-contiguous direct INC (Mat staging) this mirrors
                # gather_batch: a gathered copy would double-count.
                buf = _lane_buffer(nl, dat)
                self.proto.append(buf)
                fills[i] = (buf, 0)
                if serialize and serialized_inc_group_key(arg) is not None:
                    merge.setdefault(dat._uid, []).append(
                        len(self.writebacks)
                    )
                self.writebacks.append((dat, idx, i, buf, serialize))
        for members in merge.values():
            if len(members) > 1:
                self._merge_serialized_incs(members, fills)
        self.writebacks = [wb for wb in self.writebacks if wb is not None]
        self.fills = list(fills.values())

    def _merge_serialized_incs(self, members, fills) -> None:
        """Fuse one Dat's serialized single-slot INC writebacks into one
        element-major joint application.

        Same merge rule and interleave as the eager
        :func:`~repro.backends.base.scatter_batch`
        (:func:`~repro.backends.base.serialized_inc_group_key` /
        :func:`~repro.backends.base.inc_group_slots`): several INC
        arguments targeting one Dat (res_calc's two ``p_res`` slots)
        interleave per element — the scalar kernel body's order — so
        the operation sequence depends only on the element sequence and
        sub-phase slicing (sparse tiling) cannot perturb it.  The
        arguments' accumulators become slot views of one joint buffer,
        applied in the first member's writeback position.
        """
        group = [self.writebacks[m] for m in members]
        dat, idx = group[0][0], group[0][1]
        joint = _lane_buffer(idx.size * len(group), dat)
        gidx = interleave_inc_group([wb[1] for wb in group])
        for wb, slot in zip(group, inc_group_slots(joint, len(group))):
            self.proto[wb[2]] = slot
            del fills[wb[2]]
        fills[group[0][2]] = (joint, 0)
        self.writebacks[members[0]] = (dat, gidx, None, joint, True)
        for m in members[1:]:
            self.writebacks[m] = None

    def run(self, reductions) -> None:
        arrays = self.proto.copy()
        for buf, fill in self.fills:
            buf[...] = fill
        for pos, dat, idx, lanes in self.gathers:
            arrays[pos] = _gather_lanes(dat, idx) if lanes else dat.gather(idx)
        self.kernel_vec(*arrays)
        for dat, idx, pos, acc, ser in self.writebacks:
            if acc is None:
                dat.scatter(idx, arrays[pos])
            else:
                dat.scatter_add(idx, acc, serialize=ser)
        for slot, pos, mode in self.folds:
            fold_lanes(mode, reductions[slot], arrays[pos])


class VectorizedBackend(Backend):
    """SIMD-intrinsics analogue with a configurable vector width.

    Parameters
    ----------
    vec:
        Lanes per chunk.  ``None`` (the default) executes each
        conflict-free color as one fused call using the plan's cached
        gather indices — the fastest NumPy realization; a concrete width
        (4, 8, 16) models the hardware register faithfully, chunk by
        chunk, including the scalar remainder sweep.
    """

    name = "vectorized"

    def __init__(self, vec: int | None = None) -> None:
        super().__init__()
        if vec is not None and vec < 1:
            raise ValueError(f"vector width must be >= 1, got {vec}")
        self.vec = vec

    # ------------------------------------------------------------------
    def _run(self, kernel, set_, args, plan, n, reductions) -> None:
        vfn = kernel.vector_for(args)
        if vfn is None:
            # No vector form derivable: the intrinsics backend degenerates
            # to the scalar sweep (the paper's non-vectorizable case).
            for e in range(n):
                run_scalar_element(kernel.scalar, args, e, reductions)
            return

        if plan.is_direct:
            if self.vec is None:
                self._run_phases(kernel, vfn, args, plan, n, reductions)
            else:
                self._run_range(
                    kernel, vfn, args, np.arange(n), reductions,
                    serialize=False,
                )
            return

        scheme = plan.scheme
        if scheme == "two_level" and any(
            arg.races and arg.access is not Access.INC for arg in args
        ):
            # Indirect WRITE/RW lanes may collide inside a chunk under the
            # original ordering; only commutative increments can be
            # serialized safely, so everything else takes the scalar path
            # (OP2 likewise restricts vectorization to INC-style races).
            for e in range(n):
                run_scalar_element(kernel.scalar, args, e, reductions)
            return
        if self.vec is None:
            self._run_phases(kernel, vfn, args, plan, n, reductions)
        elif scheme == "two_level":
            self._run_two_level(kernel, vfn, args, plan, reductions)
        elif scheme == "full_permute":
            self._run_full_permute(kernel, vfn, args, plan, reductions)
        elif scheme == "block_permute":
            self._run_block_permute(kernel, vfn, args, plan, reductions)
        else:  # pragma: no cover - schemes validated at plan build
            raise ValueError(f"Unknown plan scheme {scheme!r}")

    # ------------------------------------------------------------------
    # Whole-color mega-batch path.
    # ------------------------------------------------------------------
    def _run_phases(self, kernel, vfn, args, plan, n, reductions) -> None:
        """One fused gather/compute/scatter per conflict-free color.

        ``plan.phases`` memoizes both the phase element arrays and (via
        each phase's index cache) the per-(map, slot) gather indices, so
        this path's steady state is exactly one NumPy gather per argument
        per color and zero index reconstruction.
        """
        for phase in plan.phases(n):
            batch = gather_batch(args, phase.elems, phase=phase)
            vfn(*batch.arrays)
            scatter_batch(args, batch, reductions,
                          serialize_inc=phase.serialize)

    # ------------------------------------------------------------------
    # Chained execution: precompiled fused fast path (see core/chain.py).
    # ------------------------------------------------------------------
    def run_chain(self, compiled, repeat=None):
        """Execute a compiled chain through a prepared replay program
        (under ``repeat``: once per trip, ``Backend.run_chain``).

        On first sight of a :class:`~repro.core.chain.CompiledChain`
        this backend *prepares* it: every batchable loop's per-phase
        gather → vector-kernel → scatter sequence is resolved into
        prebound operations (:class:`_PhaseExec`) — argument
        classification, contiguous direct views, gather-index arrays,
        increment/reduction buffers all bound once.  Steady-state
        replay then runs only the numpy calls themselves, none of the
        per-argument Python dispatch the eager path repeats every time
        step.

        Fused (multi-loop) groups run *phase-interleaved*: one pass
        over the shared plan's conflict-free phases, executing every
        loop per phase, sharing the phase's memoized gather-index
        arrays.  Chain legality
        (:func:`repro.core.chain.pair_fusable`) guarantees the
        interleaving — and the buffer reuse — is bitwise identical to
        eager loop-at-a-time execution.  Groups the fast path cannot
        take (scalar-only kernels, chunked mode, WRITE/RW races under
        ``two_level``) fall back to the eager :meth:`execute` per loop.
        """
        if repeat is not None:
            return Backend.run_chain(self, compiled, repeat)
        program = compiled.exec_cache.get(self)
        if program is None:
            program = [self._prepare_group(g) for g in compiled.groups]
            compiled.exec_cache[self] = program
        for run_group in program:
            run_group()

    def _group_batchable(self, group) -> bool:
        """Whether every loop of a group can take the phase fast path."""
        if self.vec is not None:
            return False
        plan = group.plan
        for bl in group.loops:
            if is_scalar_loop(bl.args):  # Backend.execute's scalar path
                return False
            if bl.kernel.vector_for(bl.args) is None:
                return False
            if (
                not plan.is_direct
                and plan.scheme == "two_level"
                and any(
                    arg.races and arg.access is not Access.INC
                    for arg in bl.args
                )
            ):
                return False
        return True

    def _prepare_group(self, group):
        """Compile one group into a zero-re-analysis replay closure."""
        if not self._group_batchable(group):
            # Conservative fallback: eager execution per loop (which
            # itself falls back to scalar sweeps etc. exactly as an
            # un-chained par_loop would).
            def run_eager() -> None:
                for bl in group.loops:
                    self.execute(bl.kernel, bl.set, bl.args, bl.plan)

            return run_eager

        loops = group.loops
        n = loops[0].n
        phases = group.plan.phases(n)
        # phase_execs[k][p]: loop k's prepared execution of phase p.
        phase_execs = [
            [_PhaseExec(bl, phase) for phase in phases] for bl in loops
        ]
        stats = self.stats

        def run_group() -> None:
            reductions = [_init_reductions(bl.args) for bl in loops]
            elapsed = [0.0] * len(loops)
            for p in range(len(phases)):
                for k in range(len(loops)):
                    t0 = time.perf_counter()
                    phase_execs[k][p].run(reductions[k])
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
        tile, the list of :class:`_PhaseExec` programs for each loop's
        sub-phases (:meth:`repro.core.plan.Plan.phase_slices`) — direct
        contiguous slices stay zero-copy views, gather indices are
        cached per sub-phase, increment buffers preallocated.  Replay
        then walks tiles in ascending order running only the numpy
        calls; each loop's sub-phases concatenate to its eager phase
        sequence, so results are bitwise identical to eager execution
        while consecutive loops reuse the tile's cache-resident data.

        Falls back to the fused :meth:`run_chain` program whenever any
        sliced loop cannot take the batched fast path (chunked mode,
        scalar-only kernels, WRITE/RW races under ``two_level``) —
        correctness is never traded for tiling.
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
            run_part()

    def _tiled_batchable(self, compiled) -> bool:
        """Whether every sliced loop can take the batched fast path."""
        if self.vec is not None:
            return False
        for part in compiled.tiled.parts:
            if isinstance(part, BarrierLoop):  # barrier loops run eagerly
                continue
            for k in part.loop_indices:
                bl = compiled.loops[k]
                if bl.kernel.vector_for(bl.args) is None:
                    return False
                plan = bl.plan
                if (
                    not plan.is_direct
                    and plan.scheme == "two_level"
                    and any(
                        arg.races and arg.access is not Access.INC
                        for arg in bl.args
                    )
                ):
                    return False
        return True

    def _prepare_tiled(self, compiled):
        """Compile the tiled schedule into zero-re-analysis closures."""
        loops = compiled.loops
        program = []
        for part in compiled.tiled.parts:
            if isinstance(part, BarrierLoop):
                bl = loops[part.loop_index]

                def run_barrier(bl=bl) -> None:
                    self.execute(bl.kernel, bl.set, bl.args, bl.plan)

                program.append(run_barrier)
                continue

            seg_loops = [loops[k] for k in part.loop_indices]
            # tiles[t]: [(loop position, prepared sub-phase exec), ...]
            tiles = []
            for t in range(part.n_tiles):
                execs = []
                for j, bl in enumerate(seg_loops):
                    cuts = part.slices[j].cuts
                    lo, hi = int(cuts[t]), int(cuts[t + 1])
                    if lo == hi:
                        continue
                    for sub in bl.plan.phase_slices(bl.n, 0, lo, hi):
                        execs.append((j, _PhaseExec(bl, sub)))
                tiles.append(execs)
            stats = self.stats

            def run_segment(seg_loops=seg_loops, tiles=tiles) -> None:
                reductions = [_init_reductions(bl.args) for bl in seg_loops]
                elapsed = [0.0] * len(seg_loops)
                for execs in tiles:
                    for j, pe in execs:
                        t0 = time.perf_counter()
                        pe.run(reductions[j])
                        elapsed[j] += time.perf_counter() - t0
                for j, bl in enumerate(seg_loops):
                    _fold_reductions(bl.args, reductions[j])
                    stats.setdefault(bl.kernel.name, LoopStats()).record(
                        elapsed[j], bl.n
                    )

            program.append(run_segment)
        return program

    # ------------------------------------------------------------------
    # Chunked (hardware-faithful) path.
    # ------------------------------------------------------------------
    def _chunks(self, elems: np.ndarray):
        """Split an element list into vector-width chunks plus remainder."""
        if elems.size <= self.vec:
            if elems.size:
                yield elems, False
            return
        main = (elems.size // self.vec) * self.vec
        for lo in range(0, main, self.vec):
            yield elems[lo : lo + self.vec], False
        if main < elems.size:
            # Remainder: the scalar post-sweep of the generated code.
            yield elems[main:], True

    def _run_range(
        self,
        kernel,
        vfn,
        args,
        elems: np.ndarray,
        reductions,
        serialize: bool,
    ) -> None:
        for chunk, is_remainder in self._chunks(elems):
            if is_remainder:
                for e in chunk:
                    run_scalar_element(kernel.scalar, args, int(e), reductions)
                continue
            batch = gather_batch(args, chunk)
            vfn(*batch.arrays)
            scatter_batch(args, batch, reductions, serialize_inc=serialize)

    # ------------------------------------------------------------------
    def _run_two_level(self, kernel, vfn, args, plan, reductions) -> None:
        # Pure-SIMD over the original ordering: within a chunk, lanes may
        # share an indirect target, so increments scatter serialized.
        layout = plan.layout
        for color_blocks in plan.blocks_by_color:
            for b in color_blocks:
                lo, hi = layout.block_range(int(b))
                if lo >= hi:
                    continue
                self._run_range(
                    kernel, vfn, args, np.arange(lo, hi), reductions,
                    serialize=True,
                )

    def _run_full_permute(self, kernel, vfn, args, plan, reductions) -> None:
        perm = plan.permutation
        for c in range(perm.ncolors):
            elems = perm.color_slice(c)
            if elems.size:
                self._run_range(kernel, vfn, args, elems, reductions,
                                serialize=False)

    def _run_block_permute(self, kernel, vfn, args, plan, reductions) -> None:
        bp = plan.block_permutation
        for color_blocks in plan.blocks_by_color:
            for b in color_blocks:
                for c in range(bp.block_ncolors(int(b))):
                    elems = bp.block_color_slice(int(b), c)
                    if elems.size:
                        self._run_range(
                            kernel, vfn, args, elems, reductions,
                            serialize=False,
                        )
