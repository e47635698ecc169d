"""Backend interface and shared gather/scatter machinery.

A backend executes one parallel loop over a range of set elements given a
:class:`~repro.core.plan.Plan`.  The concrete backends model the paper's
parallelization strategies:

========================  =====================================================
``sequential``            scalar element-at-a-time loop — the generated pure
                          MPI stub of Fig 2b (one single-threaded process)
``vectorized``            explicit SIMD: gather → batched vector kernel →
                          serialized/colored scatter over cache-sized
                          strips of each phase (Fig 3b); under a
                          ``full_permute`` / ``block_permute`` plan it is
                          the compiler auto-vectorization analogue
                          (Section 6.5): free scatters
``native``                one compiled C program per loop chain
                          (:mod:`repro.backends.native`): owner-computes
                          threads and SIMD lanes in ascending order
========================  =====================================================

Results fall in two classes against ``sequential``, swept across both
data layouts by the test suite: under ``two_level`` ``native`` and
``vectorized`` are bitwise equal to it (both apply every indirect
increment in element order); only the ``full_permute`` /
``block_permute`` schemes run colour phases, so indirect increments
reach a target in a different order and results differ at rounding
level.

The strip executor
------------------
The vectorized backend runs each phase of a loop as strips, and
each strip as one :class:`StripProgram`: the paper's gather -> vector
kernel -> serialized scatter sequence (Fig 3b) with every per-argument
decision (zero-copy view, gather, zeroed accumulator, merged INC group,
reduction partial) made once, when the program is prepared.  Eager,
chained and tiled dispatch all run these programs, so they agree
bitwise by construction; :func:`gather_batch` / :func:`scatter_batch`
run one program's two halves around a caller's kernel call.  Indirect
increments apply element-major, lane by lane in index order, whenever
lanes may collide (the two_level case); the permute schemes' free
fused scatter is valid only for conflict-free targets; WRITE/RW
scatters always require distinct targets.  Gathers are one
``np.take`` along the physical storage's element axis and scatters go
through the layout-aware :class:`~repro.core.dat.Dat` primitives, so
AoS and SoA Dats take the same code path (``docs/architecture.md``
sections 2 and 4).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

import numpy as np

from ..core.access import Access, Arg, is_scalar_loop
from ..core.chain import RepeatResult
from ..core.kernel import Kernel
from ..core.plan import Phase, Plan
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
        execution is not sliceable bitwise-safely.  The base class
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


def fold_lanes(access: Access, acc: np.ndarray, partial: np.ndarray,
               updates: Optional[Sequence] = None) -> None:
    """Fold a batch's per-lane reduction partials ``(chunk, dim)`` into
    the loop accumulator ``acc``; ``partial`` is scratch afterwards.

    INC folds strictly left to right *continuing from* ``acc`` —
    ``((acc + p0) + p1) + ...`` — so the sum is a function of the
    element sequence alone, not of where strip, phase-slice or tile
    boundaries fall (the element-major invariant of
    :class:`StripProgram`'s scatters, extended to Globals), and over an
    ascending phase it is the very sum the sequential interpreter forms
    whenever the kernel increments each component once per element.

    MIN / MAX replay, per component, the kernel's own update in element
    order from ``acc``: ``updates[c]`` is its ``(op, operand_first)``
    (:func:`repro.kernelc.cache.lane_folds`; ``None``: builtin
    ``min``/``max`` with the accumulator first).  Each lane's partial is
    that update applied once to the lane start (:func:`lane_start`),
    which leaves the element's operand, or a value the replay treats
    alike.
    """
    if access is Access.INC:
        if partial.shape[0]:
            partial[0] += acc
            np.add.accumulate(partial, axis=0, out=partial)
            acc[...] = partial[-1]
        return
    default = ("min" if access is Access.MIN else "max", False)
    for c in range(acc.shape[0]):
        op, first = (updates[c] if updates else None) or default
        acc[c] = _replay(op, first, np.concatenate((acc[c:c + 1],
                                                    partial[:, c])))


def lane_start(access: Access, dat, updates: Optional[Sequence]):
    """What a MIN / MAX lane partial starts from: the reduction's
    identity, except NaN in a floating Global under builtin
    ``min(x, g)`` / ``max(x, g)``, where the identity would win over an
    infinite operand and NaN gives the operand itself (an integer
    operand always beats or ties its identity)."""
    start = dat.identity_for(access)
    if dat.dtype.kind == "f":
        for c, update in enumerate(updates or ()):
            if update is not None and update[0] in ("min", "max") \
                    and update[1]:
                start[c] = np.nan
    return start


def _replay(op: str, operand_first: bool, seq: np.ndarray):
    """``g = op(g, x)`` (``op(x, g)`` when ``operand_first``) over
    ``x`` in ``seq[1:]`` from ``g = seq[0]``, without a loop.  ``min`` /
    ``max`` are Python's (the second operand only when strictly
    better), ``fmin`` / ``fmax`` NumPy's (``kc_fmin``: the first when
    better or NaN)."""
    nan = np.isnan(seq)
    if op in ("min", "max"):
        if operand_first:
            # x wins ties and a NaN g: start after the last NaN.
            after = np.flatnonzero(nan)[-1] + 1 if nan.any() else 0
            if after == seq.size:
                return seq[-1]
            window, last = np.arange(seq.size) >= after, True
        else:
            # A NaN g stays; a NaN x never wins; g wins ties.
            if nan[0]:
                return seq[0]
            window, last = ~nan, False
    elif nan.any():  # NaN sticks: the first one, or each later one
        nans = np.flatnonzero(nan)
        return seq[nans[-1] if operand_first else nans[0]]
    else:
        window, last = np.ones(seq.size, dtype=bool), not operand_first
    vals = seq[window]
    best = vals.min() if op in ("min", "fmin") else vals.max()
    hits = np.flatnonzero(window & (seq == best))
    return seq[hits[-1] if last else hits[0]]


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
# The strip executor: gather -> vector kernel -> scatter of one strip.
# ----------------------------------------------------------------------
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
    single-slot ``idx`` (``lanes``, see :func:`_lane_buffer`), or the
    ``(n, arity, dim)`` rows of a 2-D one.  ``flat(key, per_lane)`` is
    ``n * per_lane`` contiguous elements of the program's gather pool
    (:func:`_pooled`).  The values are those of the row fancy-index
    ``dat.data[idx]``; only where they live differs.
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
    """Arg position -> its merge group (positions, ascending): single-slot
    *indirect* INC arguments grouped per target Dat, for every group of
    more than one."""
    groups = {}
    for i, arg in enumerate(args):
        if arg.access is Access.INC and arg.is_indirect and not arg.is_vector:
            groups.setdefault(arg.dat._uid, []).append(i)
    return {i: g for g in groups.values() if len(g) > 1 for i in g}


def _pooled(pool: dict, key, size: int, dtype) -> np.ndarray:
    """``size`` elements of the program-wide gather buffer ``key``
    (grown when a loop needs more).  A strip's gathers are spent by the
    time its run returns, so every loop of a program can share them."""
    key = (key, np.dtype(dtype).str)
    buf = pool.get(key)
    if buf is None or buf.size < size:
        buf = pool[key] = np.empty(size, dtype=dtype)
    return buf[:size]


class StripProgram:
    """One loop's prepared gather → vector kernel → scatter over one
    strip (a :class:`~repro.core.plan.Phase`): the vectorized backend's
    only implementation of the paper's Fig 3b sequence, run by its
    eager, chained and tiled dispatch alike.

    Every per-argument decision is made once, at preparation:

    * direct arguments over a contiguous strip are zero-copy views, one
      slice per run, and READ globals their value arrays — writes land
      in place;
    * every other non-increment argument (indirect, or direct over a
      non-contiguous strip) is gathered — indices from the strip's
      per-(map, slot) cache, values into pooled scratch
      (:func:`_prebound_gather`) — and scattered back when the access
      writes (lane targets are distinct: colouring for indirect
      arguments, a bijection for direct ones);
    * increments start as zeroed accumulators and are ``scatter_add``-ed
      — a non-contiguous direct INC (matrix staging) too, since a
      gathered copy would count the old value twice.  Under a
      serialized strip they apply lane by lane in index order, the
      paper's sequential scatter; otherwise (permute schemes) as one
      fused add over distinct targets.  Vector (``IDX_ALL``) increments
      flatten ``(strip, arity)`` targets and always serialize: one
      element's own slots may coincide;
    * under a serialized strip, single-slot indirect INC arguments on
      one Dat (``res_calc``'s two ``p_res`` slots) merge: they share one
      accumulator interleaved element-major — row ``e * G + g`` is
      element ``e`` of the group's ``g``-th argument, the order the
      scalar kernel body applies them — whose slot views the kernel
      writes, scattered once at the first member's position;
    * global reductions get per-lane partials, folded left to right
      (:func:`fold_lanes`).

    So every order-sensitive operation is a function of the loop's
    element sequence alone, whatever the strip or tile boundaries.
    Accumulators and partials are views of ``scratch`` — one buffer per
    argument position at ``cap`` lanes, shared by all the loop's strips
    and refilled in place each run — and single-slot gathers and
    accumulators are column-major lane arrays (:func:`_lane_buffer`):
    the paper's AoS -> SoA packing, so the generated kernel touches each
    component of all lanes at unit stride.  Memory order changes no
    value.  A program holds no Dat or Global: each run takes them from
    the arguments it is handed, so one program serves every trace of
    its shape.  :func:`gather_batch` / :func:`scatter_batch` run its two
    halves around a caller's kernel call.
    """

    __slots__ = ("kernel_vec", "serialize", "proto", "views", "fills",
                 "gathers", "writebacks", "folds")

    def __init__(self, kernel_vec, args, phase, scratch: dict, cap: int,
                 pool: dict) -> None:
        elems = phase.elems
        # How the MIN / MAX reductions fold (kernelc's lane folds; a
        # hand-written vector form keeps the default fold).
        folds = getattr(kernel_vec, "lane_folds", {})
        nl = elems.size
        self.kernel_vec = kernel_vec
        self.serialize = phase.serialize
        self.proto = [None] * len(args)  # prebound buffer, or None
        self.views = []       # (pos, slice of the values, or None: all)
        # (pos, index array, *_prebound_gather's operation)
        self.gathers = []
        # (pos, index array, accumulator, serialize) into argument pos's
        # Dat: an accumulator is scatter_add-ed, None scatters
        # arrays[pos].
        self.writebacks = []
        self.folds = []       # (pos, access mode, lane_folds' updates)
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
                        else lane_start(arg.access, dat, folds.get(i))
                    )
                    self.proto[i] = acc
                    self.fills.append((acc, fill))
                    self.folds.append((i, arg.access, folds.get(i)))
                else:
                    self.views.append((i, None))
                continue
            if arg.is_direct and phase.contiguous:
                lo = int(elems[0])
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
                buf = strip_buffer(i, lambda m: np.zeros(
                    (m, arg.map.arity, dat.dim), dtype=dat.dtype
                ))
                self.proto[i] = buf
                self.fills.append((buf, 0))
                self.writebacks.append(
                    (i, idx.reshape(-1), buf.reshape(-1, dat.dim), True)
                )
            elif i in merged:
                group = merged[i]
                if i != group[0]:
                    continue
                n_parts = len(group)
                joint = strip_buffer(
                    i, lambda m: _lane_buffer(m, dat), rows=n_parts
                )
                joint_idx = np.empty(nl * n_parts, dtype=np.intp)
                for g, m in enumerate(group):
                    self.proto[m] = joint[g::n_parts]
                    joint_idx[g::n_parts] = phase.index_for(args[m])
                self.fills.append((joint, 0))
                self.writebacks.append((i, joint_idx, joint, True))
            else:
                buf = strip_buffer(i, lambda m: _lane_buffer(m, dat))
                self.proto[i] = buf
                self.fills.append((buf, 0))
                self.writebacks.append((i, idx, buf, phase.serialize))

    def gather(self, args) -> list:
        """The kernel's arguments for one run over ``args`` (a loop of
        this program's shape): views bound, accumulators refilled,
        operands gathered."""
        arrays = self.proto.copy()
        for pos, part in self.views:
            data = args[pos].dat._data
            arrays[pos] = data if part is None else data[part]
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
        return arrays

    def write_back(self, args, arrays, reductions) -> None:
        """Write the kernel's results back and fold reduction partials
        into ``reductions`` (arg position -> loop accumulator)."""
        for pos, idx, acc, ser in self.writebacks:
            if acc is None:
                args[pos].dat.scatter(idx, arrays[pos])
            else:
                args[pos].dat.scatter_add(idx, acc, serialize=ser)
        for pos, mode, updates in self.folds:
            fold_lanes(mode, reductions[pos], arrays[pos], updates)

    def run(self, args, reductions) -> None:
        """One strip over ``args``: gather, vector kernel, scatter."""
        arrays = self.gather(args)
        self.kernel_vec(*arrays)
        self.write_back(args, arrays, reductions)


def prepare_strips(kernel_vec, args, strips, pool: dict) -> list:
    """A loop's :class:`StripProgram` for each of ``strips``, all
    sharing one set of scratch buffers sized to the largest strip, and
    gathering into ``pool`` (:func:`_pooled`)."""
    cap = max((s.elems.size for s in strips), default=0)
    scratch = {}
    return [StripProgram(kernel_vec, args, s, scratch, cap, pool)
            for s in strips]


@dataclass
class BatchArgs:
    """One strip's kernel arguments and the program that scatters them."""

    arrays: list
    program: StripProgram


def gather_batch(args: Sequence[Arg], elems: np.ndarray,
                 phase=None) -> BatchArgs:
    """Prepare one strip over ``elems`` and run its gathers: the first
    half of :meth:`StripProgram.run`, for a caller that runs the kernel
    on ``batch.arrays`` itself and then calls :func:`scatter_batch`.

    ``phase`` (a :class:`~repro.core.plan.Phase` covering exactly
    ``elems``) supplies cached gather indices and the scatter rule;
    without one, ``elems`` is a serialized strip.
    """
    if phase is None:
        phase = Phase(elems, serialize=True)
    for arg in args:
        arg.dat._sync()
    program = StripProgram(None, args, phase, {}, phase.elems.size, {})
    return BatchArgs(program.gather(args), program)


def scatter_batch(args: Sequence[Arg], batch: BatchArgs,
                  reductions: Dict[int, np.ndarray],
                  serialize_inc: bool = True) -> None:
    """The second half of :func:`gather_batch`'s strip: its writebacks,
    scatters and reduction folds.  ``serialize_inc`` must be the
    strip's own rule (``Phase.serialize``)."""
    if serialize_inc != batch.program.serialize:
        raise ValueError(
            f"serialize_inc={serialize_inc} disagrees with the strip "
            f"prepared by gather_batch (serialize={batch.program.serialize})"
        )
    batch.program.write_back(args, batch.arrays, reductions)
