"""Execution plans — OP2's ``op_plan`` analogue.

A :class:`Plan` captures everything a backend needs to execute a parallel
loop free of data races: the mini-partition (block) layout, the block
coloring, and — for the alternative schemes of Section 4 — the
full-permute or block-permute orderings.  Colourings are expensive
(graph coloring over the whole mesh) and depend only on the loop's
*access structure*, not on the data values, so they are cached and
reused across time steps exactly as OP2 does.

Batched schedules and the gather-index cache
--------------------------------------------
On top of the raw coloring, a plan can serve :meth:`Plan.phases`: the
loop's iteration range regrouped into **phases**, each a single flat
element array that a batched backend executes strip by strip
(gather → vector kernel → scatter, the
:class:`~repro.backends.vectorized.VectorizedBackend`).  Each
:class:`Phase` memoizes the per-``(map, slot)`` gather/scatter index
arrays on first use — ``map.values[elems]`` fancy-indexing is pure
overhead to repeat every time step, since neither the plan nor the maps
change between invocations.  Phases (and with them the index arrays) are
cached on the plan keyed by ``(n, start)``, and plans themselves are
cached by loop structure (:class:`PlanCache`), so steady-state
``par_loop`` calls re-derive nothing.

The serialize-vs-colored scatter rule
-------------------------------------
A phase carries ``serialize``: ``True`` means lanes inside the phase may
share an indirect target and INC scatters must apply lanes in element
order (one 1-D ``np.add.at`` per component, ``Dat.scatter_add`` —
correct and deterministic, but serial per element).  ``False`` means
the coloring guarantees all lane targets are distinct and the scatter
can be one fused array operation.  Under ``two_level`` a racing loop is
one ascending phase with ``serialize=True``: the batched executor runs
on one thread, so the paper's block and element colours (which keep
OpenMP threads and SIMD lanes apart) buy it no safety, and applying
every increment in element order makes its results bitwise equal to
``sequential``.  Under ``full_permute``/``block_permute`` every phase is
a same-color group and scatters free.  Backends must never use a free
scatter on a ``serialize=True`` phase for INC arguments; WRITE/RW races
are excluded from batching altogether (the planner cannot order them
safely).

``docs/architecture.md`` (sections 3–4) covers the plan/schedule design
and its cache levels end to end.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from ..coloring import (
    BlockLayout,
    BlockPermutation,
    Permutation,
    block_permute,
    color_blocks,
    conflict_targets,
    full_permute,
    make_blocks,
    racing_slots,
)
from .access import Arg, IDX_ALL
from .set import Set

#: Default mini-partition size — OP2's default; Fig 8b sweeps this knob.
DEFAULT_BLOCK_SIZE = 256

#: Supported execution orderings (paper Section 4).
SCHEMES = ("two_level", "full_permute", "block_permute")


class Phase:
    """One conflict-free batch of a plan's iteration range.

    ``elems`` is the flat element array the batched backends execute in a
    single fused call; ``serialize`` records whether lanes may share an
    indirect target (see the module docstring's scatter rule).  Gather
    index arrays are memoized per ``(map uid, slot)`` so every loop that
    shares the plan — and every subsequent time step — reuses them.
    """

    __slots__ = ("elems", "serialize", "contiguous", "_indices", "_counters",
                 "_strips")

    def __init__(
        self,
        elems: np.ndarray,
        serialize: bool,
        counters: Optional[Dict[str, int]] = None,
    ) -> None:
        self.elems = elems
        self.serialize = serialize
        self._counters = counters if counters is not None else {}
        #: True when ``elems`` is an ascending unit-stride range, letting
        #: direct arguments pass zero-copy views instead of gathers.
        self.contiguous = bool(
            elems.size
            and elems[0] + elems.size - 1 == elems[-1]
            and np.all(np.diff(elems) == 1)
        )
        self._indices: Dict[Tuple[int, int], np.ndarray] = {}
        self._strips: Dict[int, List["Phase"]] = {}

    def index_for(self, arg: Arg) -> np.ndarray:
        """Cached gather/scatter indices for one indirect argument.

        ``(chunk,)`` for a single-slot argument, ``(chunk, arity)`` for a
        vector (``IDX_ALL``) argument.  Computed once per (map, slot) and
        phase; ``Plan.gather_stats["hits"/"misses"]`` count reuse.
        """
        slot = IDX_ALL if arg.is_vector else arg.index
        key = (arg.map._uid, slot)
        idx = self._indices.get(key)
        if idx is None:
            if arg.is_vector:
                idx = arg.map.values[self.elems]
            else:
                idx = arg.map.values[self.elems, arg.index]
            # Map tables are 4-byte; NumPy would widen an int32 index
            # array to intp on *every* fancy-index call, so widen once
            # here, where the array is cached for the plan's lifetime.
            idx = idx.astype(np.intp)
            self._indices[key] = idx
            self._counters["misses"] = self._counters.get("misses", 0) + 1
        else:
            self._counters["hits"] = self._counters.get("hits", 0) + 1
        return idx

    def slice(self, lo: int, hi: int) -> "Phase":
        """A sub-phase over ``elems[lo:hi]`` — the unit of the vectorized
        executor's strips (:meth:`strips`) and of sparse tiles.

        The slice preserves the parent's element order and ``serialize``
        flag, so executing a phase as a sequence of its slices performs
        the exact same operations in the exact same order — the bitwise
        foundation of strips and of sparse tiling (``repro/tiling``).
        Shares the parent's gather-stats counters; index arrays are
        cached on the sub-phase itself (sub-phases are long-lived, held
        by strip lists and prepared tile programs).
        """
        return Phase(
            self.elems[lo:hi], self.serialize, counters=self._counters
        )

    def strips(self, width: int) -> List["Phase"]:
        """This phase as consecutive :meth:`slice` s of at most ``width``
        elements, ascending — ``[self]`` when it fits in one.  Memoized
        per width, so the strips' gather indices are built once."""
        strips = self._strips.get(width)
        if strips is None:
            n = self.elems.size
            strips = [self] if n <= width else [
                self.slice(lo, min(lo + width, n))
                for lo in range(0, n, width)
            ]
            self._strips[width] = strips
        return strips


@dataclass
class Coloring:
    """The expensive half of a plan: colours and colour-sorted orders.

    Everything here is the output of a graph colouring over the whole
    iteration set — what the plan store persists, and what no backend
    reads under ``two_level``, where every loop runs in plain ascending
    order.  :class:`Plan` materialises one on first access to any of
    its colour facets.
    """

    block_colors: np.ndarray
    n_block_colors: int
    permutation: Optional[Permutation] = None
    block_permutation: Optional[BlockPermutation] = None
    stats: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class OwnerRanges:
    """An owner-computes cut of one loop's iteration range.

    The loop's written target sets are each cut into ``k`` contiguous
    ranges — chunk ``c`` owns targets ``[c*n_t//k, (c+1)*n_t//k)`` of
    every target set of extent ``n_t`` — and ``bounds[c] = (lo, hi)`` is
    one element range holding every element that touches a target chunk
    ``c`` owns.  Running each chunk's range in ascending order and
    applying only owned writes replays every target's updates in the
    sequential order, so chunks may run concurrently with no colouring
    and no atomics.  Elements on a cut belong to two ranges and run
    twice; ``dup`` is the executed-to-logical element ratio.
    """

    k: int
    bounds: np.ndarray  # (k, 2) int64, C-contiguous
    elements: int
    build_ms: float

    @property
    def dup(self) -> float:
        ran = int((self.bounds[:, 1] - self.bounds[:, 0]).sum())
        return ran / self.elements if self.elements else 1.0


def owner_ranges(racing, n: int, start: int, k: int) -> OwnerRanges:
    """Owner element ranges of a loop over ``[start, n)`` (see
    :class:`OwnerRanges`); ``racing`` are its written ``(map, index)``
    columns (``index == IDX_ALL`` for every column of the map).

    Computed in target space, O(elements x columns): per map, the
    column-wise min and max target of each element, a running maximum
    of the max and a reversed running minimum of the min — both
    ascending — and two ``searchsorted`` calls against the chunk
    bounds.  Every element left of ``lo`` has all targets below the
    chunk, every element from ``hi`` on has all targets above it.
    """
    t0 = time.perf_counter()
    lo = np.full(k, n, dtype=np.int64)
    hi = np.full(k, start, dtype=np.int64)
    cols: Dict[int, Tuple[object, List[int]]] = {}
    for map_, index in racing:
        idx = range(map_.arity) if index == IDX_ALL else (index,)
        entry = cols.setdefault(map_._uid, (map_, []))
        entry[1].extend(i for i in idx if i not in entry[1])
    for map_, idx in cols.values():
        if n <= start:
            break
        rows = map_.values[start:n]
        tmin = tmax = rows[:, idx[0]]
        for i in idx[1:]:
            tmin = np.minimum(tmin, rows[:, i])
            tmax = np.maximum(tmax, rows[:, i])
        first_above = np.maximum.accumulate(tmax)
        last_below = np.minimum.accumulate(tmin[::-1])[::-1]
        extent = map_.to_set.size
        cuts = np.arange(k + 1, dtype=np.int64) * extent // k
        m_lo = np.searchsorted(first_above, cuts[:-1]) + start
        m_hi = np.searchsorted(last_below, cuts[1:]) + start
        # A chunk owning no target of this map (n_t < k) runs nothing.
        touched = (m_lo < m_hi) & (cuts[:-1] < cuts[1:])
        lo = np.where(touched, np.minimum(lo, m_lo), lo)
        hi = np.where(touched, np.maximum(hi, m_hi), hi)
    hi = np.maximum(hi, lo)  # untouched chunks: empty ranges
    bounds = np.ascontiguousarray(np.stack([lo, hi], axis=1))
    return OwnerRanges(
        k=int(k), bounds=bounds, elements=max(int(n) - int(start), 0),
        build_ms=(time.perf_counter() - t0) * 1e3,
    )


def _colour_facet(name: str) -> property:
    def get(self):
        return getattr(self.coloring(), name)

    get.__doc__ = f"``Coloring.{name}`` (materialises the colouring)."
    return property(get)


class Plan:
    """A race-free execution schedule for one loop shape.

    The cheap facets — ``set``, ``scheme``, ``layout`` (the contiguous
    mini-partition layout) and ``is_direct`` (no racing argument at
    all) — are plain attributes.  The **colour facets** materialise on
    first access, through the ``colorer`` the plan was created with
    (:class:`PlanCache` passes one that consults the plan store, then
    builds and persists):

    block_colors / n_block_colors:
        Block coloring: same-colored blocks never share an indirect
        write target (``block_permute`` groups its phases by it).
    permutation:
        Global color-sorted order (``full_permute`` scheme only).
    block_permutation:
        Per-block color-sorted order (``block_permute`` scheme only).

    ``phases()`` and everything derived from it (``execution_order``,
    ``phase_slices``) read the colour facets of a permute-scheme plan
    only: a direct plan and a ``two_level`` plan are one ascending
    phase.  So under ``two_level`` no backend — native, sequential or
    vectorized — builds, persists or decodes a colouring.  The paper's
    second-level element colours have no executor here;
    ``elem_colors`` / ``block_ncolors`` answer ``None``.

    The **owner facet** :meth:`owner_ranges` is lazy too, and cheaper
    (~20 ms a map on a million elements, so it is never persisted): the
    owner-computes cut the native backend threads indirect-increment
    loops with.
    """

    def __init__(
        self,
        set: Set,
        scheme: str,
        layout: BlockLayout,
        is_direct: bool,
        coloring: Optional[Coloring] = None,
        colorer=None,
        racing: Sequence = (),
    ) -> None:
        if coloring is None and colorer is None:
            raise ValueError("a Plan needs a coloring or a colorer")
        self.set = set
        self.scheme = scheme
        self.layout = layout
        self.is_direct = is_direct
        self._coloring = coloring
        self._colorer = colorer
        #: Memoized phase lists, keyed by ``(n, start)``.
        self._phase_cache: Dict[Tuple[int, int], List[Phase]] = {}
        #: Memoized canonical element orders / phase offsets.
        self._order_cache: Dict[Tuple, np.ndarray] = {}
        #: Gather-index cache accounting shared by all this plan's phases.
        self.gather_stats: Dict[str, int] = {}
        #: The written ``(map, index)`` columns the owner facet cuts.
        self._racing = tuple((a.map, a.index) for a in racing)
        self._owner_cache: Dict[Tuple[int, int, int], OwnerRanges] = {}

    def coloring(self) -> Coloring:
        """The colour facets, materialised on first call."""
        coloring = self._coloring
        if coloring is None:
            coloring = self._coloring = self._colorer()
            self._colorer = None
        return coloring

    @property
    def colored(self) -> bool:
        """Whether the colour facets have been materialised."""
        return self._coloring is not None

    block_colors = _colour_facet("block_colors")
    n_block_colors = _colour_facet("n_block_colors")
    elem_colors = None
    block_ncolors = None
    permutation = _colour_facet("permutation")
    block_permutation = _colour_facet("block_permutation")

    def owner_ranges(self, k: int, n: Optional[int] = None,
                     start: int = 0) -> OwnerRanges:
        """The owner-computes cut of ``[start, n)`` into ``k`` chunks
        (:func:`owner_ranges`), built on first call per ``(k, n,
        start)``."""
        n = self.set.size if n is None else int(n)
        key = (int(k), n, int(start))
        facet = self._owner_cache.get(key)
        if facet is None:
            facet = owner_ranges(self._racing, n, int(start), int(k))
            self._owner_cache[key] = facet
        return facet

    @property
    def owner_facets(self) -> List[OwnerRanges]:
        """The owner facets built so far."""
        return list(self._owner_cache.values())

    @property
    def nblocks(self) -> int:
        return self.layout.nblocks

    # ------------------------------------------------------------------
    # Whole-color batched schedule (the mega-batch fast path).
    # ------------------------------------------------------------------
    def phases(self, n: int, start: int = 0) -> List["Phase"]:
        """The phases covering ``[start, n)``.

        Phase construction per scheme (see the module docstring for the
        scatter rule each phase's ``serialize`` flag encodes):

        ``direct``
            One contiguous phase — the loop has no races at all.
        ``two_level``
            One ascending phase with ``serialize=True``: increments
            apply in element order, exactly as ``sequential`` applies
            them, so INC results do not depend on how the phase is cut
            into strips or tiles.  No colouring is read.
        ``full_permute``
            One phase per global element color (``serialize=False``).
        ``block_permute``
            One phase per (block color, local element color): blocks of a
            color group are mutually race-free and each contributes only
            its color-``c`` elements, so the union is conflict-free
            (``serialize=False``).

        Results are memoized on the plan keyed by ``(n, start)``.
        """
        key = (int(n), int(start))
        cached = self._phase_cache.get(key)
        if cached is not None:
            return cached
        phases = self._build_phases(int(n), int(start))
        self._phase_cache[key] = phases
        return phases

    # ------------------------------------------------------------------
    # Per-tile iteration slices (the sparse-tiling executor's view).
    # ------------------------------------------------------------------
    def phase_offsets(self, n: int, start: int = 0) -> np.ndarray:
        """Cumulative start positions of each phase in the canonical
        order: ``offsets[p] .. offsets[p+1]`` are phase ``p``'s
        positions; ``offsets[-1]`` is the total element count."""
        key = ("offsets", int(n), int(start))
        cached = self._order_cache.get(key)
        if cached is None:
            sizes = [ph.elems.size for ph in self.phases(n, start)]
            cached = np.concatenate(
                ([0], np.cumsum(sizes, dtype=np.int64))
            ) if sizes else np.zeros(1, dtype=np.int64)
            self._order_cache[key] = cached
        return cached

    def execution_order(self, n: int, start: int = 0) -> np.ndarray:
        """The canonical element execution order over ``[start, n)``:
        the concatenation of the plan's phases (``[start, n)`` itself
        under ``two_level``).  This is the order the batched backend
        performs its per-element operations in; the sparse-tiling
        inspector slices against it."""
        key = ("order", int(n), int(start))
        cached = self._order_cache.get(key)
        if cached is None:
            phases = self.phases(n, start)
            cached = (
                np.concatenate([ph.elems for ph in phases])
                if phases else np.empty(0, dtype=np.int64)
            )
            self._order_cache[key] = cached
        return cached

    def phase_slices(
        self, n: int, start: int, lo: int, hi: int
    ) -> List["Phase"]:
        """The phases (or sub-phases) covering canonical positions
        ``[lo, hi)`` — one tile's slice of this plan's schedule.

        Whole phases are returned by reference (sharing their cached
        gather indices); partial overlaps become :meth:`Phase.slice`
        sub-phases.  Executing the returned list for consecutive
        ``[lo, hi)`` windows replays the eager phase sequence
        operation-for-operation.
        """
        phases = self.phases(n, start)
        offsets = self.phase_offsets(n, start)
        out: List[Phase] = []
        for p, ph in enumerate(phases):
            p_lo, p_hi = int(offsets[p]), int(offsets[p + 1])
            s, e = max(lo, p_lo), min(hi, p_hi)
            if s >= e:
                continue
            if s == p_lo and e == p_hi:
                out.append(ph)
            else:
                out.append(ph.slice(s - p_lo, e - p_lo))
        return out

    def _build_phases(self, n: int, start: int) -> List["Phase"]:
        stats = self.gather_stats
        if self.is_direct or self.scheme == "two_level":
            elems = np.arange(start, n, dtype=np.int64)
            if not elems.size:
                return []
            return [Phase(elems, serialize=not self.is_direct,
                          counters=stats)]

        phases: List[Phase] = []
        if self.scheme == "full_permute":
            for c in range(self.permutation.ncolors):
                elems = self.permutation.color_slice(c)
                elems = elems[(elems >= start) & (elems < n)]
                if elems.size:
                    phases.append(Phase(elems, serialize=False, counters=stats))
        elif self.scheme == "block_permute":
            bp = self.block_permutation
            block_colors = self.block_colors
            for colour in range(self.n_block_colors):
                color_blocks = np.nonzero(block_colors == colour)[0]
                max_c = max(
                    (bp.block_ncolors(int(b)) for b in color_blocks), default=0
                )
                for c in range(max_c):
                    slices = []
                    for b in color_blocks:
                        if c >= bp.block_ncolors(int(b)):
                            continue
                        elems = bp.block_color_slice(int(b), c)
                        elems = elems[(elems >= start) & (elems < n)]
                        if elems.size:
                            slices.append(elems)
                    if slices:
                        phases.append(
                            Phase(np.concatenate(slices), serialize=False,
                                  counters=stats)
                        )
        else:  # pragma: no cover - schemes validated at plan build
            raise ValueError(f"Unknown plan scheme {self.scheme!r}")
        return phases


def plan_signature(
    set_: Set, args: Sequence[Arg], block_size: int, scheme: str
) -> Tuple:
    """Hashable cache key: the *structure* of a loop, not its data.

    Two loops share a plan iff they iterate the same set with the same
    racing (map, slot) columns, block size and scheme.  Read-only and
    direct arguments do not influence the plan, so e.g. ``adt_calc``
    (indirect reads only) maps to the trivial direct plan.
    """
    racing = tuple(
        sorted(
            (arg.map._uid, arg.index)
            for arg in args
            if arg.races
        )
    )
    return (set_._uid, set_.size, racing, int(block_size), scheme)


def plan_shape(
    set_: Set, args: Sequence[Arg], block_size: int, scheme: str
) -> Tuple[BlockLayout, bool]:
    """The cheap facets of a plan: ``(layout, is_direct)``."""
    if scheme not in SCHEMES:
        raise ValueError(f"Unknown scheme {scheme!r}; expected one of {SCHEMES}")
    return make_blocks(set_.size, block_size), not racing_slots(args)


def build_coloring(
    layout: BlockLayout,
    args: Sequence[Arg],
    scheme: str,
    coloring_method: str = "auto",
) -> Coloring:
    """Colour one loop's iteration set (the expensive plan half)."""
    n = layout.n_elements
    targets, extent = conflict_targets(args, n)
    if targets is None:
        # Direct loops need no permutation under any scheme.
        return Coloring(
            block_colors=np.zeros(layout.nblocks, dtype=np.int32),
            n_block_colors=1 if layout.nblocks else 0,
            stats={"n_block_colors": float(1 if layout.nblocks else 0)},
        )

    block_colors, n_block_colors = color_blocks(layout, targets, extent)
    coloring = Coloring(
        block_colors=block_colors,
        n_block_colors=n_block_colors,
        stats={"n_block_colors": float(n_block_colors)},
    )
    stats = coloring.stats
    if scheme == "full_permute":
        coloring.permutation = full_permute(
            targets, n, extent, method=coloring_method
        )
        stats["n_elem_colors"] = float(coloring.permutation.ncolors)
    elif scheme == "block_permute":
        coloring.block_permutation = block_permute(
            layout, targets, extent, method=coloring_method
        )
        stats["max_elem_colors"] = float(
            max(
                (coloring.block_permutation.block_ncolors(b)
                 for b in range(layout.nblocks)),
                default=1,
            )
        )
    return coloring


def build_plan(
    set_: Set,
    args: Sequence[Arg],
    block_size: int = DEFAULT_BLOCK_SIZE,
    scheme: str = "two_level",
    coloring_method: str = "auto",
) -> Plan:
    """Construct a fully coloured execution plan for a loop over ``set_``.

    The plan covers every element of ``set_``.  This is the eager
    builder; :class:`PlanCache` hands out plans that call it only when a
    colour facet is first read.
    """
    layout, is_direct = plan_shape(set_, args, block_size, scheme)
    return Plan(
        set_, scheme, layout, is_direct,
        coloring=build_coloring(layout, args, scheme, coloring_method),
        racing=[a for a in args if a.races],
    )


class _RacingSlot(NamedTuple):
    """What colouring and its store key read of a racing :class:`Arg`
    (``racing_slots``, ``conflict_targets``, ``store.plan_key``)."""

    map: object
    index: int
    races: bool = True

    @property
    def is_vector(self) -> bool:
        return self.index == IDX_ALL


#: Default LRU bound for :class:`PlanCache` (plans are mesh-sized, so a
#: long-running process must not accumulate them without limit).
DEFAULT_PLAN_CACHE_ENTRIES = 256


class PlanCache:
    """Memoizes plans by loop structure (OP2 keeps an identical cache).

    The cache is LRU-bounded: with more than ``max_entries`` distinct
    loop structures the least-recently-used plan is dropped (and
    rebuilt on next use).  ``max_entries=None`` disables eviction.
    ``hits`` / ``misses`` / ``evictions`` counters feed
    :meth:`repro.core.runtime.Runtime.stats`.
    """

    def __init__(
        self, max_entries: Optional[int] = DEFAULT_PLAN_CACHE_ENTRIES
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self._plans: OrderedDict[Tuple, Plan] = OrderedDict()
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def colourings_materialized(self) -> int:
        """Cached indirect plans whose colour facets some backend
        actually read (store hit or build) — zero for a run that only
        ever executes ascending."""
        return sum(
            1 for plan in self._plans.values()
            if plan.colored and not plan.is_direct
        )

    @property
    def owner_facets(self) -> List[OwnerRanges]:
        """Owner facets built on the cached plans (native threading)."""
        return [f for plan in self._plans.values() for f in plan.owner_facets]

    def get(
        self,
        set_: Set,
        args: Sequence[Arg],
        block_size: int = DEFAULT_BLOCK_SIZE,
        scheme: str = "two_level",
        coloring_method: str = "auto",
    ) -> Plan:
        key = plan_signature(set_, args, block_size, scheme)
        plan = self._plans.get(key)
        if plan is not None:
            self.hits += 1
            self._plans.move_to_end(key)
            return plan
        self.misses += 1
        plan = self._load_or_build(
            set_, args, block_size, scheme, coloring_method
        )
        self._plans[key] = plan
        if self.max_entries is not None:
            while len(self._plans) > self.max_entries:
                self._plans.popitem(last=False)
                self.evictions += 1
        return plan

    def _load_or_build(
        self,
        set_: Set,
        args: Sequence[Arg],
        block_size: int,
        scheme: str,
        coloring_method: str,
    ) -> Plan:
        """A plan whose colouring is deferred to first use.

        The cheap facets are computed here; the colouring — and the
        disk layer below it — is touched only when a backend reads a
        colour facet.  Direct loops colour trivially and never consult
        the store.
        """
        layout, is_direct = plan_shape(set_, args, block_size, scheme)
        # Colouring (and its store key) is a function of the racing
        # (map, slot) columns only.  The closure outlives this call —
        # for good on a backend that never colours — so it keeps those,
        # not the Args (whose Dats are mesh-sized) nor this cache.
        racing = tuple(
            _RacingSlot(arg.map, arg.index) for arg in args if arg.races
        )

        def colorer() -> Coloring:
            if is_direct:
                return build_coloring(layout, (), scheme, coloring_method)
            return _load_or_build_coloring(
                set_, layout, racing, block_size, scheme, coloring_method
            )

        return Plan(set_, scheme, layout, is_direct, colorer=colorer,
                    racing=racing)

    def clear(self) -> None:
        self._plans.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._plans)


def _load_or_build_coloring(
    set_: Set,
    layout: BlockLayout,
    args: Sequence[Arg],
    block_size: int,
    scheme: str,
    coloring_method: str,
) -> Coloring:
    """Disk layer below a colouring miss: decode a persisted colouring
    onto ``layout``, or build one (the expensive graph coloring) and
    persist it.  A malformed document counts as corrupt and falls back
    to a build — a broken store never surfaces to the execution path."""
    from .. import store

    skey = store.plan_key(set_, args, block_size, scheme, coloring_method)
    pstore = store.store_for("plan")
    payload = pstore.get(skey)
    if payload is not None:
        try:
            return store.decode_plan(payload, layout)
        except store.DECODE_ERRORS:
            store.bump("plan", "corrupt")
            store.unlink_quiet(pstore.path_for(skey))
    store.count_build("plan")
    # Through ``build_plan``, not ``build_coloring``: it is the one
    # builder external tracers hook (bench_e2e times it as plan.build).
    coloring = build_plan(
        set_, args, block_size, scheme, coloring_method
    ).coloring()
    pstore.put(skey, store.encode_plan(coloring))
    return coloring
