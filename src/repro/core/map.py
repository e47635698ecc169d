"""Connectivity between sets (OP2 ``op_map``).

A :class:`Map` stores, for each element of ``from_set``, ``arity`` indices
into ``to_set`` — e.g. ``edge2node`` with arity 2 or ``cell2node`` with
arity 4 on a quad mesh.  Maps drive every indirect access in a parallel
loop, and therefore also drive conflict-graph construction for coloring.
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from .set import Set

_map_counter = itertools.count()

#: Index type of every map table — 4 bytes, as in OP2 (and as
#: ``UnstructuredMesh.memory_footprint`` has always accounted them for
#: Table IV).  The native emitter reads tables through ``const int *``;
#: NumPy paths convert to ``intp`` once, where an index array is cached.
MAP_DTYPE = np.int32


class Map:
    """A fixed-arity mapping from one set to another.

    Parameters
    ----------
    from_set, to_set:
        Source and target :class:`~repro.core.set.Set`.
    arity:
        Number of target indices per source element.
    values:
        Integer array of shape ``(from_set.size, arity)`` (a flat
        array of the right length is also accepted and reshaped); stored
        as :data:`MAP_DTYPE` after a range check.
    name:
        Identifier used in plan cache keys and reports.
    """

    def __init__(
        self,
        from_set: Set,
        to_set: Set,
        arity: int,
        values: np.ndarray,
        name: Optional[str] = None,
    ) -> None:
        if not isinstance(from_set, Set) or not isinstance(to_set, Set):
            raise TypeError("from_set and to_set must be Set instances")
        if arity < 1:
            raise ValueError(f"Map arity must be >= 1, got {arity}")
        self.from_set = from_set
        self.to_set = to_set
        self.arity = int(arity)
        self.name = name if name is not None else f"map_{next(_map_counter)}"
        self._uid = next(_map_counter)
        self._gather_span: Optional[float] = None
        #: Structure derived from this map (and a partner map) alone,
        #: by key — a Mat sparsity (:func:`repro.core.mat.sparsity`).
        #: Lives as long as the map.
        self._derived: dict = {}

        values = np.asarray(values)
        expected = from_set.size * arity
        if values.size != expected:
            raise ValueError(
                f"Map {self.name!r} expects {expected} entries "
                f"({from_set.size} x {arity}), got {values.size}"
            )
        # Range-check in the caller's dtype, *before* narrowing: the
        # target set's size must itself fit the 4-byte index type.
        extent = to_set.size
        if extent > np.iinfo(MAP_DTYPE).max:
            raise ValueError(
                f"Map {self.name!r}: target extent {extent} does not fit "
                f"{np.dtype(MAP_DTYPE).name} indices"
            )
        if values.size:
            lo = int(values.min())
            hi = int(values.max())
            if lo < 0 or hi >= extent:
                raise ValueError(
                    f"Map {self.name!r} indices [{lo}, {hi}] out of range "
                    f"for target set of extent {extent}"
                )
        self.values = np.ascontiguousarray(
            values.reshape(from_set.size, arity), dtype=MAP_DTYPE
        )

    # ------------------------------------------------------------------
    def column(self, index: int) -> np.ndarray:
        """Indices for one map slot, shape ``(from_set.size,)``."""
        if not (0 <= index < self.arity):
            raise IndexError(f"Map slot {index} out of range for arity {self.arity}")
        return self.values[:, index]

    def __getitem__(self, element: int) -> np.ndarray:
        """Target indices of a single source element."""
        return self.values[element]

    def gather_span(self) -> float:
        """:func:`gather_span` of this map's table (memoised — a map's
        values never change after construction)."""
        span = self._gather_span
        if span is None:
            span = self._gather_span = gather_span(self.values)
        return span

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Map({self.name!r}, {self.from_set.name} -> {self.to_set.name}, "
            f"arity={self.arity})"
        )


def gather_span(values: np.ndarray) -> float:
    """Mean distance, in target rows, between consecutive rows' lowest
    targets — how far apart two successive elements of a loop gather.

    The locality measure of ``mesh.renumber.localize`` and of
    ``Runtime.stats()["profile"]``: below ~1 successive elements reuse
    the cache lines the previous one touched; in the hundreds every
    element lands on new lines (and, at mesh scale, new pages).
    """
    values = np.asarray(values)
    if values.shape[0] < 2:
        return 0.0
    lowest = row_min(values).astype(np.int64)
    return float(np.abs(np.diff(lowest)).mean())


def row_min(values: np.ndarray) -> np.ndarray:
    """``values.min(axis=1)`` for a tall, narrow map table, folded
    column by column (NumPy's reduction over a 2-4 wide axis is ~10x
    slower on mesh-sized tables)."""
    lowest = values[:, 0]
    for k in range(1, values.shape[1]):
        lowest = np.minimum(lowest, values[:, k])
    return lowest


def identity_map(s: Set, name: Optional[str] = None) -> Map:
    """A 1-ary map from a set onto itself (useful in tests)."""
    return Map(s, s, 1, np.arange(s.size, dtype=np.int64), name=name)
