"""The sparse-tiling inspector: dependency-aware tile assignment.

Sparse tiling (Strout et al.'s full sparse tiling; Luporini et al.,
"Automated Tiling of Unstructured Mesh Computations"; Sulyok et al.,
"Locality Optimized Unstructured Mesh Algorithms on GPUs" — PAPERS.md)
splits a *loop chain* into tiles that are executed cross-loop: the
inspector partitions the first loop's iterations into seed tiles, then
*projects* the tiling through the chain's maps so every later loop's
iterations land in a tile that respects all data dependencies.  The
executor then replays all loops tile-by-tile while the tile's data is
hot in cache.

This inspector produces schedules that are **bitwise identical** to
eager execution, which is stronger than the usual "correct up to FP
reassociation" guarantee.  Two ingredients make that possible:

1. **Element-major operation order.**  The backends apply every
   order-sensitive scatter element-major (see
   ``backends/base.py: scatter_batch``), so the sequence of
   floating-point operations a loop performs is a pure function of the
   sequence of elements it executes.

2. **Monotone contiguous slicing.**  For each loop the inspector
   computes per-element *minimum tiles* from a last-touch projection
   (below), then takes the running maximum over the loop's eager
   element order.  The resulting tile assignment is non-decreasing
   along that order, so each tile's slice is a contiguous run of it and
   the concatenation of slices in tile order *is* the eager order —
   the per-loop operation sequence is untouched; only other loops'
   slices are interleaved between its chunks.

The last-touch projection
-------------------------
For every Dat row the inspector tracks ``last_tile[row]``: the highest
tile of any already-assigned iteration (of any earlier loop in the
segment) that touched the row — reads included.  An iteration's minimum
tile is the max of ``last_tile`` over every row it touches.  This
enforces, per shared row, *program order across loops*:

* RAW — a reader lands in a tile ≥ every earlier writer's tile, so by
  the time its tile runs, all writes it must observe have completed
  (and in their original relative order, by ingredient 2);
* WAR — a writer lands in a tile ≥ every earlier reader's tile, so no
  read can observe a future write early;
* WAW / INC-INC — later writes and increments land in tiles ≥ earlier
  ones, preserving the exact accumulation order bitwise (increments
  commute mathematically, but tiling must not reassociate them).

Tracking reads as touches is slightly conservative (read-read imposes
no real ordering) but it doubles as the *affinity* heuristic that gives
tiling its locality: an iteration is placed in the tile that last had
its data in cache.

Barriers
--------
Loops the inspector cannot slice bitwise-safely execute whole, as full
synchronization points that also reset the projection:

* loops reducing into a ``Global`` — a conservative choice, not a
  bitwise requirement: the batched fold (``backends.base.fold_lanes``)
  is a function of the element sequence alone;
* scalar loops (a single-element loop storing into a ``Global``):
  every later loop may read what they store;
* loops where an indirectly-written Dat is also *read* in the same loop
  — eager phase execution observes earlier phases' writes in a phase-
  major order that slicing cannot reproduce;
* loops mixing a vector (``IDX_ALL``) increment with another write to
  the same Dat — the element-major merge in the backends covers
  single-slot groups only;
* single-loop segments, where tiling has nothing to gain.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..coloring.tiles import color_tiles
from ..core.access import Access, Arg
from .schedule import (
    BarrierLoop,
    LoopSlices,
    SchedulePart,
    TiledSchedule,
    TiledSegment,
)

#: Eager element orders the inspector can slice against.
PROFILES = ("phases", "ascending")

#: Per-tile working-set target for ``tiling="auto"`` (bytes).  Sized for
#: a typical per-core L2: a tile's slice of every Dat the chain touches
#: should fit, leaving headroom for gather indices.
AUTO_TILE_BYTES = 1 << 20


def check_tiling(tiling) -> object:
    """Validate a ``tiling=`` argument (``None`` | ``"auto"`` | int >= 1)."""
    if tiling is None or tiling == "auto":
        return tiling
    size = int(tiling)
    if size < 1:
        raise ValueError(f"tile size must be >= 1, got {tiling!r}")
    return size


def auto_tile_size(loops: Sequence) -> int:
    """Pick a seed tile size so one tile's working set ~fits in cache.

    Estimates the chain's bytes-per-seed-element as (total bytes of all
    distinct Dats touched) / (seed loop's iteration count) and sizes
    tiles at :data:`AUTO_TILE_BYTES` / that.
    """
    if not loops:
        return 1
    seen = {}
    for bl in loops:
        for arg in bl.args:
            if not arg.is_global:
                seen[arg.dat._uid] = arg.dat
    total_bytes = sum(
        d._data.shape[0] * d.dim * d.dtype.itemsize for d in seen.values()
    )
    seed_n = max(loops[0].n, 1)
    per_elem = max(total_bytes / seed_n, 1.0)
    return max(256, int(AUTO_TILE_BYTES / per_elem))


# ----------------------------------------------------------------------
# Sliceability (barrier) analysis
# ----------------------------------------------------------------------
def barrier_reason(bl) -> Optional[str]:
    """Why a loop must execute whole, or ``None`` when it can be sliced."""
    by_dat: Dict[int, List[Arg]] = {}
    for arg in bl.args:
        if arg.is_global:
            if arg.access.is_reduction:
                return "global-reduction"
            if arg.access.writes:
                return "scalar-loop"
            continue
        by_dat.setdefault(arg.dat._uid, []).append(arg)
    for args in by_dat.values():
        indirect_writes = [a for a in args if a.races]
        if not indirect_writes:
            continue
        if any(a.access in (Access.READ, Access.RW) for a in args):
            return "indirect-write-and-read"
        writers = [a for a in args if a.access.writes]
        if len(writers) > 1 and any(a.is_vector for a in writers):
            return "vector-inc-group"
    return None


# ----------------------------------------------------------------------
# Eager element orders
# ----------------------------------------------------------------------
def loop_order(bl, profile: str) -> np.ndarray:
    """The eager element execution order the profile's backends use."""
    if profile == "ascending":
        return np.arange(bl.n, dtype=np.int64)
    if profile == "phases":
        return bl.plan.execution_order(bl.n)
    raise ValueError(f"Unknown tiling profile {profile!r}; expected {PROFILES}")


def _arg_rows(arg: Arg, elems: np.ndarray) -> Optional[np.ndarray]:
    """Dat rows touched per element, shape ``(n, k)`` (``None`` = global)."""
    if arg.is_global:
        return None
    if arg.is_direct:
        return elems.reshape(-1, 1)
    if arg.is_vector:
        return arg.map.values[elems]
    return arg.map.values[elems, arg.index].reshape(-1, 1)


# ----------------------------------------------------------------------
# The inspector proper
# ----------------------------------------------------------------------
def _assign_segment(
    loops: Sequence, indices: List[int], tile_size: int, profile: str
) -> TiledSegment:
    """Tile one barrier-free run of loops (the projection/expansion pass)."""
    orders = [loop_order(loops[k], profile) for k in indices]
    seed_n = orders[0].size
    n_tiles = max(1, math.ceil(seed_n / tile_size))

    #: Per Dat uid: highest tile that touched each row so far (-1 = none).
    last_tile: Dict[int, np.ndarray] = {}

    def touched(dat) -> np.ndarray:
        arr = last_tile.get(dat._uid)
        if arr is None:
            arr = np.full(dat._data.shape[0], -1, dtype=np.int64)
            last_tile[dat._uid] = arr
        return arr

    slices: List[LoopSlices] = []
    for pos, k in enumerate(indices):
        bl = loops[k]
        order = orders[pos]
        n_el = order.size
        if n_el == 0:
            slices.append(
                LoopSlices(order=order, cuts=np.zeros(n_tiles + 1, np.int64))
            )
            continue
        # Balanced position-proportional tiles for unconstrained
        # iterations (and the whole seed loop).
        prop = (np.arange(n_el, dtype=np.int64) * n_tiles) // n_el
        if pos == 0:
            t_pos = prop
        else:
            # Minimum tile per iteration: the last-touch projection.
            m = np.full(n_el, -1, dtype=np.int64)
            for arg in bl.args:
                rows = _arg_rows(arg, order)
                if rows is None:
                    continue
                lt = touched(arg.dat)[rows]
                np.maximum(m, lt.max(axis=1), out=m)
            base = np.where(m >= 0, m, prop)
            # Monotone along the eager order -> contiguous slices whose
            # concatenation is exactly the eager order (the bitwise
            # identity invariant).
            t_pos = np.minimum(
                np.maximum.accumulate(base), n_tiles - 1
            )
        cuts = np.searchsorted(t_pos, np.arange(n_tiles + 1), side="left")
        cuts = cuts.astype(np.int64)
        cuts[-1] = n_el
        slices.append(LoopSlices(order=order, cuts=cuts))

        # Project this loop's touches forward (reads included: they are
        # both WAR constraints for later writers and the locality
        # affinity for later readers).
        for arg in bl.args:
            rows = _arg_rows(arg, order)
            if rows is None:
                continue
            arr = touched(arg.dat)
            flat = rows.reshape(-1)
            np.maximum.at(arr, flat, np.repeat(t_pos, rows.shape[1]))

    segment = TiledSegment(
        loop_indices=tuple(indices),
        n_tiles=n_tiles,
        slices=tuple(slices),
        tile_colors=np.zeros(n_tiles, dtype=np.int32),
        n_tile_colors=1 if n_tiles else 0,
    )
    colors, n_colors = color_tiles(segment_written_rows(loops, segment))
    return dataclasses.replace(
        segment, tile_colors=colors, n_tile_colors=n_colors
    )


def segment_written_rows(
    loops: Sequence, segment: TiledSegment
) -> List[List[Tuple[int, np.ndarray]]]:
    """Per tile: the ``(dat uid, written rows)`` pairs of its slices.

    The tile-graph conflict structure (input to
    :func:`repro.coloring.tiles.color_tiles`); also the reference
    recomputation the property tests validate schedule colorings
    against.
    """
    rows_per_tile: List[List[Tuple[int, np.ndarray]]] = [
        [] for _ in range(segment.n_tiles)
    ]
    for j, k in enumerate(segment.loop_indices):
        bl = loops[k]
        for arg in bl.args:
            if arg.is_global or not arg.access.writes:
                continue
            for t in range(segment.n_tiles):
                elems = segment.slices[j].tile_elems(t)
                if elems.size:
                    rows_per_tile[t].append(
                        (arg.dat._uid, _arg_rows(arg, elems).reshape(-1))
                    )
    return rows_per_tile


def build_tiled_schedule(
    loops: Sequence, tile_size: int, profile: str = "phases"
) -> TiledSchedule:
    """Run the inspector over a compiled chain's flat loop list.

    ``loops`` is a sequence of plan-resolved loops
    (:class:`repro.core.chain.BoundLoop`); ``tile_size`` the seed tile
    size in iterations of each segment's first loop; ``profile`` which
    eager element order to slice against (``"phases"`` for the batched
    and plan-ordered backends, ``"ascending"`` for the scalar ones).
    """
    if profile not in PROFILES:
        raise ValueError(
            f"Unknown tiling profile {profile!r}; expected one of {PROFILES}"
        )
    tile_size = int(tile_size)
    if tile_size < 1:
        raise ValueError(f"tile size must be >= 1, got {tile_size}")

    parts: List[SchedulePart] = []
    pending: List[int] = []

    def close_segment() -> None:
        if not pending:
            return
        if len(pending) == 1:
            # A lone loop gains nothing from tiling; run it whole.
            parts.append(BarrierLoop(pending[0], reason="singleton-segment"))
        else:
            parts.append(
                _assign_segment(loops, list(pending), tile_size, profile)
            )
        pending.clear()

    for k, bl in enumerate(loops):
        reason = barrier_reason(bl)
        if reason is not None:
            close_segment()
            parts.append(BarrierLoop(k, reason=reason))
        else:
            pending.append(k)
    close_segment()

    return TiledSchedule(
        parts=tuple(parts), tile_size=tile_size, profile=profile
    )
