"""Deferred-execution loop chains — trace, fuse, and batch ``par_loop``s.

The paper's speedups come from doing expensive analysis once and
amortizing it over many identical time steps.  The eager path already
caches plans per call site, but it still validates, dispatches and
synchronizes every loop independently.  A :class:`LoopChain` treats a
*sequence* of loops as the unit of execution instead (Luporini et al.'s
"loop chain" abstraction, PAPERS.md), traced Dr.Jit-style::

    with runtime.chain():
        par_loop(save_soln, cells, ...)     # recorded, not executed
        par_loop(adt_calc, cells, ...)
        ...
    # exit (or any read of a traced Dat/Global) flushes the chain

Recording is cheap: each ``par_loop`` becomes a :class:`LoopSpec` node.
At flush time the chain is *compiled* — validation, plan resolution
through the runtime's two cache levels, fusion of adjacent compatible
loops (:func:`fusion_groups`) — and the compiled schedule is handed to
the backend's
:meth:`~repro.backends.base.Backend.run_chain` entry point.  Compiled
chains are memoized on the runtime by the trace's *shape*
(:func:`chain_signature`: kernels, sets and maps by identity, Dats and
Globals by first-occurrence ordinal and description — the *third*
cache level, above the loop cache) and bound to the live arguments at
each flush (:class:`BoundChain`), so a steady-state time step — or a
fresh sim with the same mesh — replays a pre-analyzed, pre-fused
schedule with zero re-analysis, and no cached chain keeps a Dat alive.

Flush points
------------
A chain flushes when

1. the ``with`` block exits (the normal case),
2. any Dat or Global *touched by a recorded loop* is accessed from host
   code — :attr:`Dat.data` / :attr:`Global.value` carry a version
   barrier that forces the pending loops to execute first, so a stale
   read is impossible, or
3. :meth:`LoopChain.flush` is called explicitly.

An exception inside the ``with`` block *discards* the recorded loops
(they never executed, so no partial state exists).

The back edge
-------------
A solver is a loop chain with a convergence-tested back edge, and a
chain can carry one: ``runtime.chain(repeat=Repeat(max_trips,
until=flag, record=resid))`` records its body **once** and the flush
executes it until ``flag`` (a Global some recorded loop stores into) is
non-zero after a trip, or ``max_trips`` trips ran — Dr.Jit's recorded
loop: a data-dependent trip count traced once.  ``record``'s value is
kept after every trip (``LoopChain.recorded``, with ``trips``).  The
scalar algebra between the mesh-sized loops — ``alpha = rs / pAp``,
"rotate, zero the accumulators, raise the flag" — is traced too, as
*scalar loops*: a ``par_loop`` over a single-element set may store into
Globals (``WRITE``/``RW``), runs through the scalar kernel on every
backend, and is a barrier to fusion and tiling.

``repeat`` rides the one dispatch path: ``flush`` → ``Runtime.
compiled_chain_for`` → ``Backend.run_chain(compiled, repeat=...)`` (or
``run_tiled``).  The base backend replays the compiled chain once per
trip; the native backend emits the back edge in C and runs the whole
repeat in one call.  Either way nothing is re-recorded or looked up per
trip.

*Capturability.*  Only ``par_loop`` calls are traced, so a body that also
runs host code over Dats or Globals (reads ``x.data``, calls NumPy on
it, dispatches on another runtime) cannot be replayed from its trace.
While the body records, every host access to any Dat/Global is noticed;
such a chain is marked ``captured = False``, the block executes as one
host-driven trip, and :meth:`LoopChain.run` — the complete form —
calls the body once per trip instead.  Host code that touches no
Dat/Global is not seen, as with any tracer.

Fusion legality
---------------
A chain never reorders its loops.  Adjacent loops fuse into one
:class:`FusedGroup` (executed phase-interleaved by the batched
backends, sharing coloring and cached gather-index arrays) only when
the fusion is *provably bitwise identical* to eager execution:

1. same iteration set;
2. identical plan (same structural plan signature — trivially true when
   both loops are race-free/direct);
3. every Dat accessed by two fused loops where at least one access
   writes must be accessed **directly** by both (element ``e`` only
   touches row ``e``, so per-phase interleaving preserves each
   element's read-after-write order exactly);
4. a Global reduced by one fused loop may not be read by another, and
   two loops reducing the same Global must use the same reduction mode
   (per-loop accumulators are folded in loop order, as eager does).

Anything else stays a singleton group and executes exactly as the eager
path would — the conservative fallback keeps chained execution bitwise
identical to eager on every backend, which the test suite asserts over
the full backend × layout matrix.
"""

from __future__ import annotations

import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import dat as _dat
from .access import Arg, is_scalar_loop
from .glob import Global
from .kernel import Kernel
from .plan import Plan
from .set import Set


@dataclass(frozen=True)
class LoopSpec:
    """One recorded (deferred) ``par_loop`` invocation."""

    kernel: Kernel
    set: Set
    args: Tuple[Arg, ...]
    plan: Optional[Plan] = None


def chain_signature(specs: Sequence[LoopSpec], tiling=None) -> Tuple:
    """A trace's structural key, and its Dats and Globals in order.

    Per loop the key holds the kernel, the set, the plan override and,
    per argument, its map, slot and access by identity; the Dat or
    Global enters by *ordinal* (first occurrence in the trace), and the
    key ends with each ordinal's description — dim and dtype, plus
    layout and home set for a Dat.  Two traces with one key differ only
    in which objects carry the data, so everything compiled from the
    key (fusion partition, plans, schedules, prepared programs) serves
    both; the second value, ``dats``, is what a run binds.  The walk
    hashes nothing.
    """
    slots: Dict[int, int] = {}
    dats: List = []
    loops = []
    for spec in specs:
        tokens = [spec.kernel, spec.set, spec.plan]
        for arg in spec.args:
            dat = arg.dat
            slot = slots.get(id(dat))
            if slot is None:
                slot = slots[id(dat)] = len(dats)
                dats.append(dat)
            tokens.append((slot, arg.map, arg.index, arg.access))
        loops.append(tuple(tokens))
    described = tuple(
        (d.dim, d.dtype) if isinstance(d, Global)
        else (d.dim, d.dtype, d.layout, d.set)
        for d in dats
    )
    return (tiling, tuple(loops), described), dats


@dataclass(frozen=True)
class Repeat:
    """The back edge of a loop chain (``runtime.chain(repeat=...)``).

    The chain's body is one *trip*; it is executed until ``until`` — a
    Global some loop of the body stores into — is non-zero after a
    trip, or ``max_trips`` trips ran.  The test follows the body, so at
    least one trip runs.  ``record`` (component 0 of a Global the body
    also stores into) is kept after every trip.
    """

    max_trips: int
    until: Global
    record: Global

    def __post_init__(self) -> None:
        if int(self.max_trips) < 1:
            raise ValueError(
                f"Repeat needs max_trips >= 1, got {self.max_trips}"
            )
        for role in ("until", "record"):
            if not isinstance(getattr(self, role), Global):
                raise TypeError(f"Repeat {role}= must be a Global")

    def check_body(self, specs: Sequence[LoopSpec]) -> None:
        """Reject a body that never stores into the flag or the record
        (it could only ever run ``max_trips`` identical trips)."""
        stored = {
            arg.dat._uid for spec in specs for arg in spec.args
            if arg.access.writes and arg.is_global
        }
        for role in ("until", "record"):
            glob = getattr(self, role)
            if glob._uid not in stored:
                raise ValueError(
                    f"Repeat {role}= Global {glob.name!r} is not written "
                    f"by any loop of the recorded body"
                )


class RepeatResult(NamedTuple):
    """What ``Backend.run_chain(compiled, repeat=...)`` returns."""

    #: ``repeat.record`` after every executed trip (length = trips).
    recorded: np.ndarray
    #: ``None`` when the back edge ran inside one native call; else why
    #: the backend replayed the chain once per trip.
    fallback: Optional[str]


# ----------------------------------------------------------------------
# Fusion
# ----------------------------------------------------------------------
def pair_fusable(a: LoopSpec, b: LoopSpec) -> bool:
    """Whether two loops may execute phase-interleaved bitwise-safely.

    Implements legality rules 3 and 4 of the module docstring (set /
    range / plan compatibility are the group's responsibility).
    """
    touched: Dict[object, List[Arg]] = {}
    for arg in a.args:
        touched.setdefault(arg.dat, []).append(arg)
    for arg in b.args:
        for other in touched.get(arg.dat, ()):
            if not (arg.access.writes or other.access.writes):
                continue  # concurrent reads never conflict
            if arg.is_global:
                # Same-mode reductions fold per-loop accumulators in
                # loop order — identical to eager.  Anything else
                # (read vs reduce, mixed modes) must not interleave.
                if not (
                    arg.access is other.access
                    and arg.access.is_reduction
                ):
                    return False
            else:
                # Elementwise (direct-direct) dependencies survive
                # phase interleaving; anything through a map may cross
                # elements and must keep whole-loop ordering.
                if not (arg.is_direct and other.is_direct):
                    return False
    return True


def fusion_groups(
    specs: Sequence[LoopSpec], plans: Sequence[Plan]
) -> List[List[int]]:
    """Partition the trace into maximal runs of fusable adjacent loops.

    Order is never changed: groups are consecutive index runs, and a
    loop joins the open group only if it is fusable against *every*
    member (legality is pairwise but must hold group-wide).  A scalar
    loop (one that stores into a Global) is a barrier: always alone.
    """
    groups: List[List[int]] = []
    for i, spec in enumerate(specs):
        if groups and not is_scalar_loop(spec.args):
            g = groups[-1]
            head = specs[g[0]]
            if (
                not is_scalar_loop(head.args)
                and spec.set is head.set
                and plans[i] is plans[g[0]]
                and all(pair_fusable(specs[j], spec) for j in g)
            ):
                g.append(i)
                continue
        groups.append([i])
    return groups


# ----------------------------------------------------------------------
# Compiled form
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class BoundLoop:
    """A recorded loop with its plan resolved — ready to execute.

    A loop runs every element of its set: its range ``[start, n)`` is
    ``[0, set.size)``, the range the plan facets are asked for.
    """

    kernel: Kernel
    set: Set
    args: Tuple[Arg, ...]
    plan: Plan

    start = 0

    @property
    def n(self) -> int:
        return self.set.size


@dataclass(frozen=True)
class FusedGroup:
    """A maximal run of fusable loops sharing one plan (and set).

    Batched backends execute a multi-loop group phase-interleaved (one
    pass over the plan's conflict-free phases, running every loop's
    gather → kernel → scatter per phase, sharing the phase's cached
    gather-index arrays); everything else executes the loops in order.
    """

    loops: Tuple[BoundLoop, ...]
    plan: Plan

    @property
    def fused(self) -> bool:
        return len(self.loops) > 1


@dataclass(eq=False)
class CompiledChain:
    """A pre-analyzed schedule for one trace *shape*
    (:func:`chain_signature`) — the chain cache's entry.

    It holds no Dat or Global: the fusion ``partition`` (consecutive
    loop-index runs), the resolved ``plans`` and, built on first use,
    the tiled schedules and the backends' prepared programs — all
    functions of the key.  :meth:`bind` puts it over one trace's live
    arguments (:class:`BoundChain`), which is what backends run.

    For a chain traced with ``tiling=`` a **tiled schedule** — the
    sparse-tiling inspector's tile-major decomposition
    (:mod:`repro.tiling`) — is built by :meth:`BoundChain.tiled_for`
    the first time a backend's
    :meth:`~repro.backends.base.Backend.run_tiled` asks for it.  A
    backend that does not tile (native) never asks, and one that cannot
    slice bitwise-safely falls back to the fused program.
    """

    partition: Tuple[Tuple[int, ...], ...]
    plans: Tuple[Plan, ...]
    #: The ``tiling=`` request this chain was compiled under
    #: (``None`` | ``"auto"`` | int) — part of the cache key.
    tiling: object = None
    #: Resolved seed tile size (0 when untiled).
    tile_size: int = 0
    #: Per-backend prepared executor programs (populated lazily by
    #: backends that specialize replay, e.g. the vectorized backend's
    #: per-strip gather/kernel/scatter operations).  A program takes
    #: its Dats from the bound chain it is run with, never from the one
    #: it was prepared from.
    exec_cache: Dict = field(default_factory=dict, repr=False)
    #: Tiled schedules built so far, by element-order profile.
    tiled_profiles: Dict = field(default_factory=dict, repr=False)
    #: Live :class:`BoundChain` views, weakly, by their Dats' uids: a
    #: flush over the same objects gets the same view back while
    #: someone holds it.
    views: weakref.WeakValueDictionary = field(
        default_factory=weakref.WeakValueDictionary, repr=False
    )
    #: The uids the last flush bound.
    last_bound: Tuple[int, ...] = field(default=(), repr=False)

    @property
    def n_loops(self) -> int:
        return len(self.plans)

    def bind(self, specs: Sequence[LoopSpec], dats: List) -> "BoundChain":
        """This chain over ``specs``' live arguments (a trace of its
        key; ``dats`` is the trace's :func:`chain_signature` list)."""
        uids = tuple([d._uid for d in dats])
        view = self.views.get(uids)
        if view is None:
            view = self.views[uids] = BoundChain(self, specs, dats)
        view.rebound = self.last_bound != uids and bool(self.last_bound)
        self.last_bound = uids
        return view


class BoundChain:
    """A :class:`CompiledChain` bound to one trace's arguments.

    ``groups`` and ``loops`` carry the live Dats and Globals; the rest
    reads through to the shared ``chain``.  Built per flush unless an
    earlier view over the same objects is still held, so a cached
    chain keeps no caller's data alive.  ``rebound`` says whether this
    flush binds other objects than the chain's previous flush did (a
    fresh sim's, say): programs prepared for them now serve these.
    """

    def __init__(self, chain: CompiledChain, specs: Sequence[LoopSpec],
                 dats: List) -> None:
        self.chain = chain
        self.dats = dats
        self.rebound = False
        plans = chain.plans
        bound = [
            BoundLoop(kernel=spec.kernel, set=spec.set, args=spec.args,
                      plan=plan)
            for spec, plan in zip(specs, plans)
        ]
        self.groups = tuple(
            FusedGroup(loops=tuple(bound[i] for i in run), plan=plans[run[0]])
            for run in chain.partition
        )
        self.loops = tuple(bound)
        self.tiling = chain.tiling
        self.exec_cache = chain.exec_cache

    @property
    def tiled(self):
        """The canonical (``"phases"`` profile) tiled schedule, built on
        first access; ``None`` when the chain was not compiled with
        tiling."""
        return self.tiled_for("phases")

    @property
    def tiled_built(self) -> bool:
        """Whether any tiled schedule of this chain has been built —
        i.e. a backend ran it tiled (or tried to)."""
        return bool(self.chain.tiled_profiles)

    def tiled_for(self, profile: str):
        """The tiled schedule sliced against one eager element order.

        Built the first time it is asked for, by the sparse-tiling
        inspector, and memoized per profile on the chain — the cuts
        differ per order because bitwise identity requires slicing each
        backend's *own* eager sequence contiguously.  ``None`` when the
        chain was not compiled with tiling.
        """
        from ..tiling import inspector

        chain = self.chain
        if chain.tiling is None:
            return None
        sched = chain.tiled_profiles.get(profile)
        if sched is None:
            sched = inspector.build_tiled_schedule(
                self.loops, chain.tile_size, profile=profile
            )
            chain.tiled_profiles[profile] = sched
        return sched


def compile_chain(
    specs: Sequence[LoopSpec], runtime, tiling=None
) -> CompiledChain:
    """Validate, resolve plans, fuse — and resolve the tiling request.

    Validation happens here — once per distinct trace shape — rather
    than per recorded call: a malformed loop raises at the first flush
    of the trace containing it, and a memoized replay (which by
    construction re-records a trace of a validated shape) pays no
    validation at all.

    With ``tiling`` (``"auto"`` or a seed tile size) the result records
    the request and its seed tile size; the
    :class:`~repro.tiling.schedule.TiledSchedule` itself is built by
    :meth:`BoundChain.tiled_for` when a backend first runs the chain
    tiled.  The runtime's chain cache keys on the tiling request, so
    tiled and untiled compilations of the same trace coexist.
    """
    from .loop import validate_loop

    for spec in specs:
        validate_loop(spec.kernel, spec.set, spec.args)
    plans = tuple(
        spec.plan
        if spec.plan is not None
        else runtime.plan_for(spec.kernel, spec.set, spec.args)
        for spec in specs
    )
    tile_size = 0
    if tiling is not None:
        from ..tiling import auto_tile_size, check_tiling

        tiling = check_tiling(tiling)
        tile_size = (
            auto_tile_size(specs) if tiling == "auto" else int(tiling)
        )
    return CompiledChain(
        partition=tuple(tuple(g) for g in fusion_groups(specs, plans)),
        plans=plans,
        tiling=tiling,
        tile_size=tile_size,
    )


# ----------------------------------------------------------------------
# The user-facing trace object
# ----------------------------------------------------------------------
class LoopChain:
    """A deferred-execution trace bound to one runtime.

    Use as a context manager (``with runtime.chain() as ch:``); inside
    the block every ``par_loop`` against that runtime records instead of
    executing.  See the module docstring for flush semantics.
    """

    def __init__(self, runtime, tiling=None, repeat=None) -> None:
        from ..tiling import check_tiling

        self.runtime = runtime
        #: Sparse-tiling request: ``None`` (fused loop-major execution),
        #: ``"auto"`` or a seed tile size (tile-major execution through
        #: the inspector/executor of :mod:`repro.tiling`).
        self.tiling = check_tiling(tiling)
        if repeat is not None and not isinstance(repeat, Repeat):
            raise TypeError(f"repeat= must be a Repeat, got {repeat!r}")
        #: The back edge (see the module docstring), or ``None``.
        self.repeat: Optional[Repeat] = repeat
        #: Repeat chains: trips executed so far, ``repeat.record`` after
        #: each, and whether the body could be replayed from its trace.
        self.trips = 0
        self.recorded: List = []
        self.captured = repeat is not None
        self._specs: List[LoopSpec] = []
        self._touched: List[object] = []
        self._flushing = False
        #: Loops executed through this chain (diagnostics/tests).
        self.flushed_loops = 0
        self.flushes = 0

    # -- recording -----------------------------------------------------
    def record(
        self,
        kernel: Kernel,
        set_: Set,
        args: Sequence[Arg],
        plan: Optional[Plan] = None,
    ) -> None:
        """Append one loop to the trace and arm read barriers.

        Validation is deferred to :func:`compile_chain` (once per
        distinct trace signature) — recording stays cheap in steady
        state; a malformed loop still raises at its trace's first flush.
        """
        self._specs.append(
            LoopSpec(kernel=kernel, set=set_, args=tuple(args), plan=plan)
        )
        # Barrier every touched Dat/Global — reads too, so a host write
        # to a Dat a pending loop *reads* also flushes first (the
        # pending loop must observe the pre-write values, as eager
        # execution would have).  A Dat already barriered by a
        # *different* chain (two runtimes tracing over shared data) has
        # that chain flushed first: its pending loops precede ours in
        # program order, and the single barrier slot must end up
        # guarding the latest pending writer.
        for arg in args:
            barrier = arg.dat._barrier
            if barrier is not None and barrier is not self:
                barrier.flush()
                barrier = arg.dat._barrier
            if barrier is None:
                arg.dat._barrier = self
                self._touched.append(arg.dat)

    def __len__(self) -> int:
        return len(self._specs)

    # -- execution -----------------------------------------------------
    def flush(self) -> None:
        """Compile (or fetch the memoized schedule) and execute the trace.

        Idempotent and re-entrancy safe: barriers are disarmed before
        execution, so backend data accesses do not recurse.
        """
        if self._flushing or not self._specs:
            return
        specs, self._specs = self._specs, []
        self._disarm()
        if self.runtime._active_chain is self:
            # Flushed from inside the block: host code needs a value
            # now, so the rest of the body depends on host code.
            self.captured = False
        repeat = self.repeat if self.captured else None
        if repeat is not None:
            repeat.check_body(specs)
        compiled = self.runtime.compiled_chain_for(specs, tiling=self.tiling)
        backend = self.runtime.backend
        run = backend.run_tiled if compiled.tiling is not None \
            else backend.run_chain
        self._flushing = True
        t0 = time.perf_counter()
        try:
            if repeat is None:
                run(compiled)
            else:
                result = run(compiled, repeat=repeat)
        finally:
            self._flushing = False
        # Per-chain wall time for stats()["profile"] (repro/tune): one
        # perf_counter pair per flush, negligible next to execution.
        profile = getattr(self.runtime, "profile", None)
        if profile is not None:
            profile.record_chain(
                tuple(s.kernel.name for s in specs),
                time.perf_counter() - t0,
                tiled=compiled.tiled_built,
            )
        self.flushed_loops += len(specs)
        self.flushes += 1
        if repeat is not None:
            self._count_trips(result.recorded, result.fallback)

    def _count_trips(self, recorded, fallback: Optional[str]) -> None:
        profile = getattr(self.runtime, "profile", None)
        if profile is not None:
            profile.record_repeat(
                len(recorded), fallback, new_solve=self.trips == 0
            )
        self.trips += len(recorded)
        self.recorded.extend(recorded)

    def run(self, body) -> "LoopChain":
        """Execute ``body()`` under this chain, to completion.

        Without ``repeat`` that is ``with self: body()``.  With it the
        body is traced once and replayed until the flag or
        ``max_trips`` — unless it turns out not capturable (module
        docstring), in which case it is *called* once per trip, each
        call a plain chain: the same trips, host code included.
        """
        self.trips, self.recorded = 0, []
        self.captured = self.repeat is not None
        with self:
            body()
        repeat = self.repeat
        if repeat is not None and not self.captured:
            flag = repeat.until._data
            while self.trips < repeat.max_trips and flag[0] == 0:
                with self:
                    body()
        return self

    def discard(self) -> None:
        """Drop recorded loops without executing (exception path)."""
        self._specs = []
        self._disarm()

    def _disarm(self) -> None:
        for obj in self._touched:
            if obj._barrier is self:
                obj._barrier = None
        self._touched = []

    # -- context manager ----------------------------------------------
    def _host_access(self) -> None:
        self.captured = False

    def __enter__(self) -> "LoopChain":
        if self.runtime._active_chain is not None:
            raise RuntimeError(
                "a LoopChain is already active on this runtime; "
                "chains do not nest"
            )
        self.runtime._active_chain = self
        if self.captured:
            _dat._on_host_access = self._host_access
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.runtime._active_chain = None
        if self.repeat is not None:
            _dat._on_host_access = None
        if exc_type is not None:
            self.discard()
            return
        self.flush()
        if self.repeat is not None and not self.captured:
            # The block was one host-driven trip.
            self._count_trips(
                [self.repeat.record._data[0]], "body not capturable"
            )


def chain(runtime=None, tiling=None, repeat=None) -> LoopChain:
    """Module-level convenience: a chain over the default runtime."""
    from .runtime import default_runtime

    return LoopChain(
        runtime if runtime is not None else default_runtime(),
        tiling=tiling, repeat=repeat,
    )
