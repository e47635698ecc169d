"""Backend interface and shared gather/scatter machinery.

A backend executes one parallel loop over a range of set elements given a
:class:`~repro.core.plan.Plan`.  The concrete backends model the paper's
parallelization strategies:

========================  =====================================================
``sequential``            scalar element-at-a-time loop — the generated pure
                          MPI stub of Fig 2b (one single-threaded process)
``openmp``                scalar execution ordered by the two-level coloring
                          plan — OP2's non-vectorized OpenMP backend
``vectorized``            explicit SIMD: gather → batched vector kernel →
                          serialized/colored scatter, with scalar pre/post
                          sweeps (Fig 3b); under a ``full_permute`` /
                          ``block_permute`` plan it is the compiler
                          auto-vectorization analogue (Section 6.5):
                          whole-color batches, free scatters
``simt``                  OpenCL/CUDA analogue: work-groups = plan blocks in
                          lockstep, block-level colored increments (Fig 3a)
========================  =====================================================

All backends must produce results identical (to floating-point reordering
tolerance) to ``sequential`` — the central correctness property of the
test suite, swept across both data layouts.

The gather/scatter contract
---------------------------
:func:`gather_batch` packs one chunk/phase of elements into batched
arrays: indirect reads become mapped gathers (fresh copies), direct
reads contiguous views, indirect INC arguments zeroed accumulators.
:func:`scatter_batch` writes results back under the
serialize-vs-colored rule: INC with ``serialize_inc=True`` applies lanes
in element order (one 1-D ``np.add.at`` per component — correct when
lanes collide, the two_level case); ``serialize_inc=False`` is the
permute schemes' free fused scatter, valid only for conflict-free
targets; WRITE/RW scatters always require distinct targets.  All of it
routes through the layout-aware :class:`~repro.core.dat.Dat`
primitives, so AoS and SoA Dats take the same code path
(``docs/architecture.md`` sections 2 and 4).  The prepared replay
(``backends/vectorized.py: _PhaseExec``) adds column-major lane arrays
on top of the same primitives.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.access import Access, Arg, is_scalar_loop
from ..core.chain import RepeatResult
from ..core.kernel import Kernel
from ..core.plan import Plan, is_contiguous_range
from ..core.set import Set
from ..tiling.schedule import BarrierLoop


@dataclass
class LoopStats:
    """Per-kernel execution accounting (OP2's ``op_timing`` analogue)."""

    calls: int = 0
    elapsed: float = 0.0
    elements: int = 0

    def record(self, dt: float, n: int, calls: int = 1) -> None:
        """``calls`` executions of ``n`` elements each, ``dt`` in total."""
        self.calls += calls
        self.elapsed += dt
        self.elements += n * calls


class Backend:
    """Abstract parallel-loop executor."""

    #: Registry name, overridden by subclasses.
    name = "abstract"

    def __init__(self) -> None:
        self.stats: Dict[str, LoopStats] = {}

    # ------------------------------------------------------------------
    def execute(
        self,
        kernel: Kernel,
        set_: Set,
        args: Sequence[Arg],
        plan: Plan,
    ) -> None:
        """Run ``kernel`` over every element of ``set_``."""
        n = set_.size
        # Flush any pending loop chain touching an argument (another
        # runtime may be mid-trace over shared data).  Synced once per
        # loop here so the per-element helpers below can read the raw
        # ``_data`` storage without per-access barrier checks.
        for arg in args:
            arg.dat._sync()
        t0 = time.perf_counter()
        reductions = _init_reductions(args)
        if is_scalar_loop(args):
            # One element, Globals stored in place: nothing to batch or
            # colour, so every backend takes the interpreter's path.
            for e in range(n):
                run_scalar_element(kernel.scalar, args, e, reductions)
        else:
            self._run(kernel, set_, args, plan, n, reductions)
        _fold_reductions(args, reductions)
        dt = time.perf_counter() - t0
        self.stats.setdefault(kernel.name, LoopStats()).record(dt, n)

    def _run(self, kernel, set_, args, plan, n, reductions) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    def run_chain(self, compiled, repeat=None):
        """Execute a :class:`~repro.core.chain.CompiledChain`.

        Generic fallback: run every recorded loop in order through
        :meth:`execute` — trivially bitwise identical to eager
        execution.  Backends with a batched fast path (vectorized,
        native) override this to execute fused groups
        phase-interleaved with shared coloring and gather indices.

        With ``repeat`` (a :class:`~repro.core.chain.Repeat`) the chain
        is one trip of a loop with a back edge: this method replays it
        trip by trip (:func:`replay_trips`) and returns the
        :class:`~repro.core.chain.RepeatResult`.
        """
        if repeat is not None:
            return replay_trips(
                lambda: self.run_chain(compiled), repeat,
                f"{self.name} backend",
            )
        for bl in compiled.loops:
            self.execute(bl.kernel, bl.set, bl.args, bl.plan)

    # ------------------------------------------------------------------
    def tiled_profile(self, compiled) -> Optional[str]:
        """Which eager element order this backend's per-loop execution
        follows — the order the sparse-tiling inspector may slice.

        ``"ascending"`` (plain ``0..n`` sweeps), ``"phases"`` (the
        plan's color-phase order) or ``None`` when this backend's
        execution is not sliceable bitwise-safely (batch-boundary-
        sensitive machinery like SIMT per-block gathers or finite
        vector widths with scalar remainder sweeps).  The base class
        answers ``None``: correctness first — an unknown backend falls
        back to the fused program.
        """
        return None

    def run_tiled(self, compiled, repeat=None):
        """Execute a tiled :class:`~repro.core.chain.CompiledChain`
        (under ``repeat``: once per trip, see :meth:`run_chain`).

        Generic executor: walk the schedule's parts in program order —
        barrier loops through :meth:`execute`, tiled segments
        tile-by-tile with every slice run element-at-a-time through the
        scalar kernel in the slice's stored eager order.  Because the
        schedule slices this backend's own eager element order
        monotonically and contiguously (see
        :mod:`repro.tiling.inspector`), the per-loop operation sequence
        is exactly the eager one and results are bitwise identical.

        Backends whose :meth:`tiled_profile` answers ``None`` fall back
        to :meth:`run_chain` (untiled, trivially identical).  The
        batched backends override this with prepared per-tile replay
        programs.
        """
        if repeat is not None:
            return replay_trips(
                lambda: self.run_tiled(compiled), repeat, "tiled"
            )
        profile = self.tiled_profile(compiled)
        schedule = (
            compiled.tiled_for(profile) if profile is not None else None
        )
        if schedule is None:
            self.run_chain(compiled)
            return
        loops = compiled.loops
        for part in schedule.parts:
            if isinstance(part, BarrierLoop):
                bl = loops[part.loop_index]
                self.execute(bl.kernel, bl.set, bl.args, bl.plan)
                continue
            seg_loops = [loops[k] for k in part.loop_indices]
            for bl in seg_loops:
                for arg in bl.args:
                    arg.dat._sync()
            reductions = [_init_reductions(bl.args) for bl in seg_loops]
            elapsed = [0.0] * len(seg_loops)
            for t in range(part.n_tiles):
                for j, bl in enumerate(seg_loops):
                    elems = part.slices[j].tile_elems(t)
                    if not elems.size:
                        continue
                    scalar = bl.kernel.scalar
                    t0 = time.perf_counter()
                    for e in elems:
                        run_scalar_element(
                            scalar, bl.args, int(e), reductions[j]
                        )
                    elapsed[j] += time.perf_counter() - t0
            for j, bl in enumerate(seg_loops):
                _fold_reductions(bl.args, reductions[j])
                self.stats.setdefault(
                    bl.kernel.name, LoopStats()
                ).record(elapsed[j], bl.n)

    def reset_stats(self) -> None:
        self.stats.clear()


def replay_trips(run_trip, repeat, fallback: str) -> RepeatResult:
    """The back edge in Python: one compiled trip per iteration.

    Runs ``run_trip()`` until ``repeat.until`` is non-zero after a trip
    or ``repeat.max_trips`` trips ran (at least one: the test follows
    the body).  Each trip replays the already-compiled chain, and the
    flag and record are read from their raw storage — nothing is
    re-recorded or looked up per trip.  ``fallback`` says why the back
    edge is not inside one native call.
    """
    flag, record = repeat.until._data, repeat.record._data
    recorded = []
    while len(recorded) < repeat.max_trips:
        run_trip()
        recorded.append(record[0])
        if flag[0] != 0:
            break
    return RepeatResult(np.array(recorded, dtype=record.dtype), fallback)


# ----------------------------------------------------------------------
# The element-major serialized-increment merge rule.
# ----------------------------------------------------------------------
def serialized_inc_group_key(arg: Arg) -> Optional[int]:
    """Grouping key for the element-major joint INC application.

    THE single definition of which arguments merge: single-slot
    *indirect* INC arguments, grouped per target Dat, and only under a
    serialized scatter.  Both the eager :func:`scatter_batch` and the
    prepared-replay :class:`~repro.backends.vectorized._PhaseExec` must
    use this rule — the sparse-tiling bitwise-identity guarantee rests
    on the two paths performing operation-for-operation identical
    scatters.  Returns the Dat uid, or ``None`` when the argument never
    participates.
    """
    if arg.access is Access.INC and arg.is_indirect and not arg.is_vector:
        return arg.dat._uid
    return None


def inc_group_slots(joint: np.ndarray, n_parts: int) -> list:
    """Per-argument slot views of a merge group's interleaved array.

    THE single definition of the interleave: row ``e * n_parts + g`` of
    ``joint`` belongs to element ``e`` of the group's ``g``-th argument
    — ``e0.arg_a, e0.arg_b, e1.arg_a, ...``, the order the scalar
    kernel body applies the increments.  :func:`interleave_inc_group`
    fills these views; the prepared-replay ``_PhaseExec`` hands them to
    the kernel as its increment buffers, so the kernel writes its lanes
    straight into scatter order and the two paths can never disagree
    on operation order.
    """
    return [joint[g::n_parts] for g in range(n_parts)]


def interleave_inc_group(parts) -> np.ndarray:
    """Interleave a merge group's per-argument arrays element-major.

    ``parts`` holds one array per grouped argument — either ``(n,)``
    index arrays or ``(n, dim)`` value arrays — and the result is the
    ``(n * len(parts), ...)`` array whose :func:`inc_group_slots` views
    are ``parts``.
    """
    first = parts[0]
    joint = np.empty(
        (first.shape[0] * len(parts),) + first.shape[1:], dtype=first.dtype
    )
    for slot, part in zip(inc_group_slots(joint, len(parts)), parts):
        slot[...] = part
    return joint


# ----------------------------------------------------------------------
# Global-reduction scaffolding shared by every backend.
# ----------------------------------------------------------------------
def _init_reductions(args: Sequence[Arg]) -> Dict[int, np.ndarray]:
    """Scalar per-loop accumulators for global reduction arguments."""
    acc: Dict[int, np.ndarray] = {}
    for i, arg in enumerate(args):
        if arg.is_global and arg.access.is_reduction:
            acc[i] = arg.dat.identity_for(arg.access)
    return acc


def _fold_reductions(args: Sequence[Arg], reductions: Dict[int, np.ndarray]) -> None:
    for i, partial in reductions.items():
        args[i].dat.combine(args[i].access, partial)


def fold_lanes(access: Access, acc: np.ndarray, partial: np.ndarray) -> None:
    """Fold a batch's per-lane reduction partials ``(chunk, dim)`` into
    the loop accumulator ``acc``; ``partial`` is scratch afterwards.

    INC folds strictly left to right *continuing from* ``acc`` —
    ``((acc + p0) + p1) + ...`` — so the sum is a function of the
    element sequence alone, not of where batch, phase-slice or tile
    boundaries fall (the element-major invariant of
    :func:`scatter_batch`, extended to Globals), and over an ascending
    phase it is the very sum the sequential interpreter forms whenever
    the kernel increments each component once per element.
    """
    if access is Access.INC:
        if partial.shape[0]:
            partial[0] += acc
            np.add.accumulate(partial, axis=0, out=partial)
            acc[...] = partial[-1]
    elif access is Access.MIN:
        np.minimum(acc, partial.min(axis=0), out=acc)
    else:
        np.maximum(acc, partial.max(axis=0), out=acc)


# ----------------------------------------------------------------------
# Scalar per-element argument views.
# ----------------------------------------------------------------------
def scalar_views(args: Sequence[Arg], e: int, reductions: Dict[int, np.ndarray]):
    """Build the per-element argument tuple for a scalar kernel call.

    Direct and single-slot indirect Dat arguments become in-place views;
    vector (``IDX_ALL``) arguments fancy-index, which copies — so writing
    vector arguments get a private buffer plus a writeback record (second
    return value).  READ globals pass the raw value, reduction globals
    the loop accumulator.
    """
    views = []
    writebacks = []
    for i, arg in enumerate(args):
        # Per-element hot path: read the raw ``_data`` storage — the
        # caller (Backend.execute) synced every argument's barrier once
        # up front, so the logical view is current and the per-access
        # property dispatch is avoided.
        if arg.is_global:
            views.append(reductions[i] if i in reductions else arg.dat._data)
        elif arg.is_direct:
            views.append(arg.dat._data[e])
        elif arg.is_vector:
            idx = arg.map.values[e].astype(np.intp)
            if arg.access is Access.INC:
                # Private zeroed accumulator (as OP2's generated code
                # passes arg*_l locals), applied serially afterwards.
                buf = np.zeros((arg.map.arity, arg.dat.dim), arg.dat.dtype)
                writebacks.append((i, idx, buf, True))
            else:
                buf = arg.dat._data[idx]  # gathered copy
                if arg.access.writes:
                    writebacks.append((i, idx, buf, False))
            views.append(buf)
        else:
            views.append(arg.dat._data[arg.map.values[e, arg.index]])
    return tuple(views), writebacks


def run_scalar_element(
    scalar,
    args: Sequence[Arg],
    e: int,
    reductions: Dict[int, np.ndarray],
) -> None:
    """Execute the scalar kernel on one element, applying writebacks."""
    views, writebacks = scalar_views(args, e, reductions)
    scalar(*views)
    for i, idx, buf, is_inc in writebacks:
        if is_inc:
            np.add.at(args[i].dat._data, idx, buf)
        else:
            args[i].dat._data[idx] = buf


# ----------------------------------------------------------------------
# Batched gather / scatter used by vectorized-style backends.
# ----------------------------------------------------------------------
@dataclass
class BatchArgs:
    """Materialized batched arguments for one chunk of elements."""

    arrays: List[np.ndarray] = field(default_factory=list)
    #: (arg position, gathered index array) pairs that must scatter back.
    writebacks: List[tuple] = field(default_factory=list)
    #: (arg position,) of vector reduction accumulators, shape (chunk, dim).
    reduction_slots: List[int] = field(default_factory=list)


def gather_batch(
    args: Sequence[Arg],
    elems: np.ndarray,
    phase=None,
) -> BatchArgs:
    """Gather a chunk of elements into batched ``(chunk, ...)`` arrays.

    This is the Python analogue of the paper's explicit packing into
    vector registers (Fig 3b): indirect reads become mapped gathers,
    direct reads become contiguous loads (views when the chunk is a
    slice-like contiguous range), and indirect increments start as zeroed
    accumulators that the caller scatters afterwards.

    Gathers go through :meth:`~repro.core.dat.Dat.gather` (one
    ``np.take`` along the physical storage's element axis), so the same
    code serves AoS and SoA Dats.  When ``phase`` (a
    :class:`~repro.core.plan.Phase` covering exactly ``elems``) is given,
    indirection index arrays come from the phase's per-(map, slot) cache
    instead of being fancy-indexed out of the maps anew — the whole-color
    fast path's steady-state invariant is that *no* index array is
    rebuilt after the first time step.
    """
    batch = BatchArgs()
    nl = elems.size
    contiguous = (
        phase.contiguous if phase is not None else is_contiguous_range(elems)
    )
    for i, arg in enumerate(args):
        if arg.is_global:
            if arg.access.is_reduction:
                acc = np.zeros((nl, arg.dat.dim), dtype=arg.dat.dtype)
                if arg.access is Access.MIN:
                    acc[...] = arg.dat.identity_for(arg.access)
                elif arg.access is Access.MAX:
                    acc[...] = arg.dat.identity_for(arg.access)
                batch.arrays.append(acc)
                batch.reduction_slots.append(i)
            else:
                batch.arrays.append(arg.dat.data)
            continue

        if arg.is_direct:
            if contiguous:
                view = arg.dat.data[elems[0] : elems[0] + nl]
            elif arg.access is Access.INC:
                # Non-contiguous direct INC: a gathered *copy* would be
                # double-counted by the scatter_add writeback (old + old
                # + delta), so hand the kernel a zeroed accumulator and
                # scatter only the delta — the same contract indirect
                # INC arguments get.  Matrix staging (core/mat.py) is
                # the canonical direct-INC client of this path.
                view = np.zeros((nl, arg.dat.dim), dtype=arg.dat.dtype)
                batch.writebacks.append((i, elems))
                batch.arrays.append(view)
                continue
            else:
                view = arg.dat.data[elems]
            if arg.access.writes and not contiguous:
                batch.writebacks.append((i, elems))
            batch.arrays.append(view)
            continue

        # Indirect argument: mapped gather (indices cached on the phase
        # when one is supplied).
        if phase is not None:
            idx = phase.index_for(arg)
        elif arg.is_vector:
            idx = arg.map.values[elems].astype(np.intp)  # (chunk, arity)
        else:
            idx = arg.map.values[elems, arg.index].astype(np.intp)  # (chunk,)
        if arg.access is Access.INC:
            shape = (
                (nl, arg.map.arity, arg.dat.dim) if arg.is_vector else (nl, arg.dat.dim)
            )
            local = np.zeros(shape, dtype=arg.dat.dtype)
            batch.arrays.append(local)
            batch.writebacks.append((i, idx))
        else:
            local = arg.dat.gather(idx)
            batch.arrays.append(local)
            if arg.access.writes:
                batch.writebacks.append((i, idx))
    return batch


def scatter_batch(
    args: Sequence[Arg],
    batch: BatchArgs,
    reductions: Dict[int, np.ndarray],
    serialize_inc: bool = True,
    elems: Optional[np.ndarray] = None,
) -> None:
    """Scatter batched results back to their Dats and fold reductions.

    ``serialize_inc=True`` applies lanes in index order (one 1-D
    ``np.add.at`` per component, :meth:`~repro.core.dat.Dat.scatter_add`)
    — the colored/serialized increment of the paper, correct even when
    lanes share a target.
    ``serialize_inc=False`` models the permute schemes' free scatter
    (one fused ``+=``), valid only when all lane targets are unique.
    Scatters route through :meth:`~repro.core.dat.Dat.scatter` /
    :meth:`~repro.core.dat.Dat.scatter_add` so both layouts write their
    physical storage along the contiguous axis.

    The element-major invariant
    ---------------------------
    Serialized increments are applied **element-major**: when several
    single-slot INC arguments target the same Dat (Airfoil's
    ``res_calc`` incrementing ``p_res`` through both edge slots), their
    lanes are interleaved per element — ``e0.arg_a, e0.arg_b, e1.arg_a,
    ...`` (:func:`interleave_inc_group`) — in one joint serialized
    ``scatter_add``, exactly the order the scalar
    kernel body applies them.  (Vector INC arguments already flatten
    element-major on their own.)  This makes the order of every
    order-sensitive floating-point operation a pure function of the
    *element sequence*, independent of batch boundaries — the property
    that lets the sparse-tiling executor (:mod:`repro.tiling`) re-slice
    a loop's element sequence into tiles with bitwise-identical
    results.
    """
    joint: Dict[int, list] = {}
    if serialize_inc:
        for i, idx in batch.writebacks:
            key = serialized_inc_group_key(args[i])
            if key is not None:
                joint.setdefault(key, []).append((i, idx))
        joint = {k: v for k, v in joint.items() if len(v) > 1}
    applied = set()
    for i, idx in batch.writebacks:
        arg = args[i]
        local = batch.arrays[i]
        if arg.access is Access.INC:
            if arg.is_vector:
                # Vector args flatten (chunk, arity) targets; one element's
                # own slots may coincide on degenerate meshes, so always
                # accumulate serially for them.
                arg.dat.scatter_add(
                    idx.reshape(-1), local.reshape(-1, arg.dat.dim),
                    serialize=True,
                )
                continue
            group = (
                joint.get(serialized_inc_group_key(arg))
                if serialize_inc else None
            )
            if group is not None:
                if i in applied:
                    continue
                # Joint element-major application (see docstring).
                gidx = interleave_inc_group([g[1] for g in group])
                gloc = interleave_inc_group(
                    [batch.arrays[g[0]] for g in group]
                )
                arg.dat.scatter_add(gidx, gloc, serialize=True)
                applied.update(g[0] for g in group)
            else:
                arg.dat.scatter_add(idx, local, serialize=serialize_inc)
        else:
            # WRITE / RW scatter: lane targets must be distinct (guaranteed
            # by coloring for indirect args; direct non-contiguous gathers
            # are bijective by construction).
            arg.dat.scatter(idx, local)

    for i in batch.reduction_slots:
        fold_lanes(args[i].access, reductions[i], batch.arrays[i])
