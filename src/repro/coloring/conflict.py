"""Conflict-target extraction for race-free execution planning.

In the OP2 model (paper Section 3), two iteration-set elements *conflict*
exactly when they both modify the same target element through some
indirection — e.g. two edges incrementing the residual of a shared cell in
``res_calc``.  This module reduces a parallel loop's argument list to a
dense ``(n_elements, n_slots)`` integer array of *conflict targets*, with
targets of distinct (map → target-set) groups offset into disjoint index
ranges so a single coloring pass handles loops that race through several
different maps at once.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from ..core.access import Arg


def racing_slots(args: Sequence[Arg]) -> List[Tuple[object, int]]:
    """List of ``(map, slot)`` pairs through which the loop may race.

    A slot appears once per racing argument column; duplicates (the same
    map slot used by two INC arguments) are collapsed since they impose
    the same constraint.
    """
    seen = set()
    slots: List[Tuple[object, int]] = []
    for arg in args:
        if not arg.races:
            continue
        if arg.is_vector:
            indices: Iterable[int] = range(arg.map.arity)
        else:
            indices = (arg.index,)
        for idx in indices:
            key = (arg.map, idx)
            if key not in seen:
                seen.add(key)
                slots.append(key)
    return slots


def conflict_targets(args: Sequence[Arg], n_elements: int):
    """Build the conflict-target matrix for a loop's arguments.

    Returns
    -------
    targets:
        ``(n_elements, n_slots)`` int64 array, or ``None`` when the loop
        has no racing arguments (every element is independent — the
        "direct loop" case of the paper, e.g. ``save_soln``/``update``).
    extent:
        Size of the combined (offset) target index space.
    """
    slots = racing_slots(args)
    if not slots:
        return None, 0

    # Offset each distinct target set into its own index range so a shared
    # integer means a genuinely shared mesh element.
    offsets = {}
    extent = 0
    for map_, _ in slots:
        if map_.to_set not in offsets:
            offsets[map_.to_set] = extent
            extent += map_.to_set.size

    cols = []
    for map_, idx in slots:
        col = map_.values[:n_elements, idx].astype(np.int64, copy=True)
        col += offsets[map_.to_set]
        cols.append(col)
    targets = np.stack(cols, axis=1)
    return targets, extent


def is_valid_coloring(
    colors: np.ndarray, targets: np.ndarray | None
) -> bool:
    """Check that no two same-colored elements share a conflict target.

    Used by tests and as an internal assertion; vectorized via sorting so
    it stays usable on large meshes.
    """
    if targets is None:
        return True
    colors = np.asarray(colors)
    if colors.min(initial=0) < 0:
        return False
    n, k = targets.shape
    # Pair every (color, target) occurrence and look for duplicates.
    pairs = np.empty((n * k, 2), dtype=np.int64)
    pairs[:, 0] = np.repeat(colors, k)
    pairs[:, 1] = targets.reshape(-1)
    order = np.lexsort((pairs[:, 1], pairs[:, 0]))
    sp = pairs[order]
    dup = np.all(sp[1:] == sp[:-1], axis=1)
    if not dup.any():
        return True
    # A duplicate pair is only a conflict when it comes from two *different*
    # elements (one element may legitimately hit the same target through
    # two slots, e.g. a degenerate edge in a test mesh).
    elems = np.repeat(np.arange(n, dtype=np.int64), k)[order]
    bad = dup & (elems[1:] != elems[:-1])
    return not bad.any()
