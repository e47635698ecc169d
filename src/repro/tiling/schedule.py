"""The :class:`TiledSchedule` artifact — output of the sparse-tiling inspector.

A tiled schedule reorganizes a compiled loop chain from *loop-major*
execution (run loop 0 over the whole mesh, then loop 1, ...) into
*tile-major* execution (run every loop of a segment over tile 0's
slices, then tile 1's, ...), so the data a tile touches stays in cache
across all the loops that reuse it.  The schedule is a pure description
— which elements of which loop belong to which tile — and carries no
backend state; executors (:meth:`repro.backends.base.Backend.run_tiled`
and the vectorized fast path) interpret it.

Structure
---------
A schedule is a sequence of *parts* in program order:

:class:`TiledSegment`
    A run of *sliceable* loops executed tile-by-tile.  Per loop it
    stores the loop's eager element ``order`` (the sequence the owning
    backend would execute eagerly) and ``cuts``, a monotone array of
    ``n_tiles + 1`` positions into that order: tile ``t`` executes
    ``order[cuts[t]:cuts[t+1]]`` for every loop before tile ``t + 1``
    starts.  Because the cuts slice each loop's eager order *contiguously
    and monotonically*, the per-loop sequence of floating-point
    operations is exactly the eager sequence — only interleaved with
    other loops' slices — which is what makes tiled execution bitwise
    identical to eager execution (see ``docs/architecture.md`` §7).

:class:`BarrierLoop`
    A loop the inspector refuses to slice (global reduction, intra-loop
    read of an indirectly-written Dat, ...).  It executes whole, after
    every tile of the preceding segment and before any tile of the next
    — a full synchronization point, which also resets the inspector's
    dependency projections.

Tile colors
-----------
Each segment carries a conflict coloring of its tiles (two tiles of the
same color write no common Dat row — :mod:`repro.coloring.tiles`), the
standard sparse-tiling parallelism artifact: same-colored tiles could
run concurrently on a parallel machine.  The Python executors run tiles
in ascending order regardless (serial execution is what preserves
bitwise identity); the coloring is validated by the property tests and
reported by :meth:`TiledSchedule.stats`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple, Union

import numpy as np


@dataclass(frozen=True)
class LoopSlices:
    """One sliced loop's tile decomposition inside a segment."""

    #: The loop's eager element execution order, shape ``(n - start,)``.
    order: np.ndarray
    #: Monotone cut positions into ``order``, shape ``(n_tiles + 1,)``;
    #: tile ``t`` executes ``order[cuts[t]:cuts[t+1]]``.
    cuts: np.ndarray

    def tile_elems(self, t: int) -> np.ndarray:
        return self.order[int(self.cuts[t]) : int(self.cuts[t + 1])]


@dataclass(frozen=True)
class TiledSegment:
    """A run of sliceable loops executed tile-by-tile."""

    #: Indices into the compiled chain's flat loop list, program order.
    loop_indices: Tuple[int, ...]
    n_tiles: int
    #: One :class:`LoopSlices` per entry of ``loop_indices``.
    slices: Tuple[LoopSlices, ...]
    #: Conflict-free tile coloring (two same-colored tiles write no
    #: common Dat row); shape ``(n_tiles,)``.
    tile_colors: np.ndarray
    n_tile_colors: int


@dataclass(frozen=True)
class BarrierLoop:
    """A loop executed whole, synchronizing the tiles around it."""

    loop_index: int
    #: Why the inspector refused to slice it (diagnostics / stats).
    reason: str


SchedulePart = Union[TiledSegment, BarrierLoop]


@dataclass(frozen=True)
class TiledSchedule:
    """A complete tile-by-tile execution recipe for one loop chain."""

    parts: Tuple[SchedulePart, ...]
    tile_size: int
    #: Which eager element order the cuts were computed against:
    #: ``"phases"`` (plan phase order — the batched backends) or
    #: ``"ascending"`` (plain element order — the scalar backend).
    profile: str

    # ------------------------------------------------------------------
    @property
    def segments(self) -> List[TiledSegment]:
        return [p for p in self.parts if isinstance(p, TiledSegment)]

    @property
    def barriers(self) -> List[BarrierLoop]:
        return [p for p in self.parts if isinstance(p, BarrierLoop)]

    @property
    def n_sliced_loops(self) -> int:
        return sum(len(s.loop_indices) for s in self.segments)

    # ------------------------------------------------------------------
    def covers_exactly_once(self) -> Dict[int, bool]:
        """Per sliced loop index: do its tile slices partition its range?

        The central inspector invariant (property-tested): concatenating
        a loop's slices across tiles in execution order reproduces its
        eager order exactly — every iteration executed exactly once, in
        the eager relative order.
        """
        out: Dict[int, bool] = {}
        for seg in self.segments:
            for k, sl in zip(seg.loop_indices, seg.slices):
                cuts = sl.cuts
                ok = (
                    cuts.shape == (seg.n_tiles + 1,)
                    and int(cuts[0]) == 0
                    and int(cuts[-1]) == sl.order.size
                    and bool(np.all(np.diff(cuts) >= 0))
                )
                out[k] = ok
        return out

    def stats(self) -> Dict[str, object]:
        """Shape summary for benches, tests and docs."""
        segs = self.segments
        tile_spans = [
            int(sl.cuts[t + 1] - sl.cuts[t])
            for seg in segs
            for sl in seg.slices
            for t in range(seg.n_tiles)
        ]
        nonempty = [s for s in tile_spans if s]
        return {
            "profile": self.profile,
            "tile_size": self.tile_size,
            "n_parts": len(self.parts),
            "n_segments": len(segs),
            "n_barriers": len(self.barriers),
            "barrier_reasons": sorted({b.reason for b in self.barriers}),
            "n_sliced_loops": self.n_sliced_loops,
            "n_tiles": sum(seg.n_tiles for seg in segs),
            "max_tile_colors": max(
                (seg.n_tile_colors for seg in segs), default=0
            ),
            "mean_slice_elems": (
                float(np.mean(nonempty)) if nonempty else 0.0
            ),
        }
