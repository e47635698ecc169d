"""Race-free execution orderings: conflict graphs, coloring, permutations.

This package implements the three execution schemes the paper evaluates
(Section 4 / Fig 8a): the original two-level coloring, "full permute" and
"block permute".
"""

from .block import (
    BlockLayout,
    color_blocks,
    is_valid_block_coloring,
    make_blocks,
)
from .conflict import conflict_targets, is_valid_coloring, racing_slots
from .greedy import color_elements, greedy_color, jp_color
from .permute import (
    BlockPermutation,
    Permutation,
    block_permute,
    full_permute,
)
from .tiles import color_tiles, is_valid_tile_coloring, pack_tile_targets

__all__ = [
    "BlockLayout",
    "BlockPermutation",
    "Permutation",
    "block_permute",
    "color_blocks",
    "color_elements",
    "color_tiles",
    "conflict_targets",
    "full_permute",
    "greedy_color",
    "is_valid_block_coloring",
    "is_valid_coloring",
    "is_valid_tile_coloring",
    "jp_color",
    "make_blocks",
    "pack_tile_targets",
    "racing_slots",
]
