"""The plan codec: a :class:`~repro.core.plan.Coloring` ↔ a plain
persistable document.

A plan document carries only what was expensive to compute — the
block colouring and the permute schemes' colour-sorted orders — as
arrays, ints and strings (no live ``Set``/``Map``/``Dat`` references).
The cheap facets (block layout, directness) are recomputed by
``plan_shape`` on every load, and the decoded colouring is grafted onto
that layout; phase lists and gather indices rebuild lazily exactly as
for a freshly built plan.

The decoder trusts the store's schema/key validation: a payload that
reaches it has the right schema version and was stored under the key
the caller just computed.  A malformed payload (a truncated write that
still unpickles, a hand-edited file) raises one of
:data:`DECODE_ERRORS`; callers treat those as a corrupt entry —
counted, unlinked, recomputed — never as a user-facing failure.
"""

from __future__ import annotations

import numpy as np

from ..coloring import BlockLayout, BlockPermutation, Permutation
from ..core.plan import Coloring


#: What a decoder raises on a malformed payload: a missing field
#: (``KeyError``), a short list (``IndexError``), a field of the wrong
#: type or shape (``TypeError`` / ``AttributeError``), or a value that
#: does not fit the live layout (``ValueError``).
DECODE_ERRORS = (KeyError, IndexError, TypeError, AttributeError, ValueError)


def _arr(a) -> np.ndarray:
    """Validate an array field of a decoded payload."""
    if not isinstance(a, np.ndarray):
        raise TypeError(f"expected ndarray, got {type(a).__name__}")
    return a


def encode_plan(coloring: Coloring) -> dict:
    """Strip a colouring to plain arrays (the plan kind's document)."""
    perm, bperm = coloring.permutation, coloring.block_permutation
    return {
        "block_colors": coloring.block_colors,
        "n_block_colors": int(coloring.n_block_colors),
        "permutation": (
            None if perm is None else (perm.order, perm.color_offsets)
        ),
        "block_permutation": (
            None if bperm is None
            else (bperm.order, list(bperm.color_offsets))
        ),
        "build_stats": dict(coloring.stats),
    }


def decode_plan(payload: dict, layout: BlockLayout) -> Coloring:
    """Rebuild a colouring over the session's block ``layout``."""
    block_colors = _arr(payload["block_colors"])
    if len(block_colors) != layout.nblocks:
        raise ValueError("plan document does not match the block layout")
    permutation = None
    if payload["permutation"] is not None:
        order, color_offsets = payload["permutation"]
        permutation = Permutation(
            order=_arr(order), color_offsets=_arr(color_offsets)
        )
    block_permutation = None
    if payload["block_permutation"] is not None:
        order, color_offsets = payload["block_permutation"]
        block_permutation = BlockPermutation(
            layout=layout,
            order=_arr(order),
            color_offsets=[_arr(o) for o in color_offsets],
        )
    return Coloring(
        block_colors=block_colors,
        n_block_colors=int(payload["n_block_colors"]),
        permutation=permutation,
        block_permutation=block_permutation,
        stats=dict(payload["build_stats"]),
    )
