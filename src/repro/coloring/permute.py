"""Full-permute and block-permute execution orderings (paper Section 4).

Beyond the original two-level coloring (which serializes indirect
increments inside a block), the paper introduces two orderings that make
*vector lanes* independent so scatters need no serialization:

* **full permute** — one global element coloring; elements execute sorted
  by color.  Trivial parallelism, but temporal locality is destroyed
  because all same-colored elements run before any reuse can happen.
* **block permute** — elements are permuted *within* their block by color,
  so lanes stay independent while block-level cache locality survives;
  the price is that formerly-contiguous direct accesses become gathers.

Both produce a permutation (a bijection over elements, property-tested)
plus color offsets describing the independent groups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .block import BlockLayout
from .greedy import color_elements


@dataclass(frozen=True)
class Permutation:
    """Color-sorted execution order.

    ``order[k]`` is the element executed in slot ``k``; slots
    ``[color_offsets[c], color_offsets[c+1])`` form color group ``c``,
    inside which every element is independent of every other.
    """

    order: np.ndarray          # (n,) int64 bijection
    color_offsets: np.ndarray  # (ncolors + 1,)

    @property
    def ncolors(self) -> int:
        return len(self.color_offsets) - 1

    def color_slice(self, c: int) -> np.ndarray:
        lo, hi = int(self.color_offsets[c]), int(self.color_offsets[c + 1])
        return self.order[lo:hi]


def full_permute(
    targets: Optional[np.ndarray],
    n_elements: int,
    extent: int = 0,
    method: str = "auto",
) -> Permutation:
    """Global color-sorted ordering ("full permute")."""
    colors, ncolors = color_elements(targets, n_elements, extent, method=method)
    if n_elements == 0:
        return Permutation(
            np.zeros(0, dtype=np.int64), np.zeros(1, dtype=np.int64)
        )
    # Stable sort keeps ascending element order inside each color, which
    # preserves whatever locality the base numbering had.
    order = np.argsort(colors, kind="stable").astype(np.int64)
    counts = np.bincount(colors, minlength=ncolors)
    offsets = np.zeros(ncolors + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return Permutation(order, offsets)


@dataclass(frozen=True)
class BlockPermutation:
    """Per-block color-sorted orderings ("block permute").

    For block ``b``, elements ``order[off[b]:off[b+1]]`` are grouped by
    color with boundaries ``color_offsets[b]`` (local to the block).
    """

    layout: BlockLayout
    order: np.ndarray                 # (n,) bijection, blocks contiguous
    color_offsets: List[np.ndarray]   # per block, (ncolors_b + 1,) abs offsets

    def block_color_slice(self, b: int, c: int) -> np.ndarray:
        off = self.color_offsets[b]
        return self.order[int(off[c]) : int(off[c + 1])]

    def block_ncolors(self, b: int) -> int:
        return len(self.color_offsets[b]) - 1


def block_permute(
    layout: BlockLayout,
    targets: Optional[np.ndarray],
    extent: int = 0,
    method: str = "auto",
) -> BlockPermutation:
    """Per-block color-sorted ordering ("block permute")."""
    n = layout.n_elements
    order = np.empty(n, dtype=np.int64)
    color_offsets: List[np.ndarray] = []
    for b in range(layout.nblocks):
        lo, hi = layout.block_range(b)
        size = hi - lo
        if targets is None:
            order[lo:hi] = np.arange(lo, hi, dtype=np.int64)
            color_offsets.append(np.array([lo, hi], dtype=np.int64))
            continue
        colors, ncolors = color_elements(
            targets[lo:hi], size, extent, method=method
        )
        local = np.argsort(colors, kind="stable").astype(np.int64)
        order[lo:hi] = lo + local
        counts = np.bincount(colors, minlength=ncolors)
        off = np.zeros(ncolors + 1, dtype=np.int64)
        np.cumsum(counts, out=off[1:])
        color_offsets.append(off + lo)
    return BlockPermutation(layout, order, color_offsets)
