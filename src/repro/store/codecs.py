"""Artifact (en/de)coders: live objects ↔ plain persistable documents.

Each codec pair turns one artifact into a dict of arrays/ints/strings
(no live ``Set``/``Map``/``Dat``/``Kernel`` references, no memoized
caches) and back.  Decoding **rebinds to live storage** the way native
``.so`` replay does: the document carries only what was expensive to
compute — colorings, permutations, fusion decisions, tile cuts,
generated source — and the decoder grafts it onto the session's live
objects, leaving every lazily-built structure (phase lists, gather
indices, executor programs) to rebuild on demand exactly as a
freshly-constructed artifact would.

The decoders trust the store's schema/key validation: a payload that
reaches them has the right schema version and was stored under the key
the caller just computed.  Malformed payloads (a truncated write that
still unpickles, a hand-edited file) raise one of
:data:`DECODE_ERRORS` inside the decoder; callers treat those as a
corrupt entry — counted, unlinked, recomputed — never as a user-facing
failure.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from ..coloring import BlockLayout, BlockPermutation, Permutation
from ..core.plan import Coloring, Plan
from ..tiling.schedule import (
    BarrierLoop,
    LoopSlices,
    TiledSchedule,
    TiledSegment,
)


#: What a decoder raises on a malformed payload: a missing field
#: (``KeyError``), a short list (``IndexError``), a field of the wrong
#: type or shape (``TypeError`` / ``AttributeError``), or a value that
#: does not fit the live trace (``ValueError``).
DECODE_ERRORS = (KeyError, IndexError, TypeError, AttributeError, ValueError)


def _arr(a) -> np.ndarray:
    """Validate-and-copy an array field out of a decoded payload."""
    if not isinstance(a, np.ndarray):
        raise TypeError(f"expected ndarray, got {type(a).__name__}")
    return a


# ----------------------------------------------------------------------
# Plan
# ----------------------------------------------------------------------
def encode_plan(plan: Plan) -> dict:
    """Strip a plan to its expensive content (colorings, permutations).

    Reads the plan's colour facets — materialising them if nothing has
    yet — so only call this on a plan that was coloured anyway.
    The phase/order/gather caches rebuild lazily — they are cheap
    relative to the graph coloring this skips.
    """
    coloring = plan.coloring()
    return {
        "scheme": plan.scheme,
        "is_direct": bool(plan.is_direct),
        "layout": (
            int(plan.layout.n_elements),
            int(plan.layout.block_size),
            plan.layout.offsets,
        ),
        "block_colors": coloring.block_colors,
        "n_block_colors": int(coloring.n_block_colors),
        "permutation": (
            None
            if coloring.permutation is None
            else (coloring.permutation.order,
                  coloring.permutation.color_offsets)
        ),
        "block_permutation": (
            None
            if coloring.block_permutation is None
            else (
                coloring.block_permutation.order,
                list(coloring.block_permutation.color_offsets),
            )
        ),
        "build_stats": dict(coloring.stats),
    }


def decode_plan(payload: dict, set_) -> Plan:
    """Rebuild a live (coloured) plan over the session's ``set_``."""
    n_elements, block_size, offsets = payload["layout"]
    layout = BlockLayout(
        n_elements=int(n_elements),
        block_size=int(block_size),
        offsets=_arr(offsets),
    )
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
    coloring = Coloring(
        block_colors=_arr(payload["block_colors"]),
        n_block_colors=int(payload["n_block_colors"]),
        permutation=permutation,
        block_permutation=block_permutation,
        stats=dict(payload["build_stats"]),
    )
    return Plan(
        set_, str(payload["scheme"]), layout, bool(payload["is_direct"]),
        coloring=coloring,
    )


# ----------------------------------------------------------------------
# Tiled schedule
# ----------------------------------------------------------------------
def encode_tiled(sched: TiledSchedule) -> dict:
    parts: List[dict] = []
    for part in sched.parts:
        if isinstance(part, TiledSegment):
            parts.append({
                "kind": "segment",
                "loop_indices": list(part.loop_indices),
                "n_tiles": int(part.n_tiles),
                "slices": [(sl.order, sl.cuts) for sl in part.slices],
                "tile_colors": part.tile_colors,
                "n_tile_colors": int(part.n_tile_colors),
            })
        else:
            parts.append({
                "kind": "barrier",
                "loop_index": int(part.loop_index),
                "reason": part.reason,
            })
    return {
        "parts": parts,
        "tile_size": int(sched.tile_size),
        "profile": sched.profile,
    }


def decode_tiled(payload: dict) -> TiledSchedule:
    parts: List = []
    for doc in payload["parts"]:
        if doc["kind"] == "segment":
            parts.append(TiledSegment(
                loop_indices=tuple(int(k) for k in doc["loop_indices"]),
                n_tiles=int(doc["n_tiles"]),
                slices=tuple(
                    LoopSlices(order=_arr(order), cuts=_arr(cuts))
                    for order, cuts in doc["slices"]
                ),
                tile_colors=_arr(doc["tile_colors"]),
                n_tile_colors=int(doc["n_tile_colors"]),
            ))
        elif doc["kind"] == "barrier":
            parts.append(BarrierLoop(
                loop_index=int(doc["loop_index"]), reason=str(doc["reason"])
            ))
        else:
            raise ValueError(f"unknown schedule part kind {doc['kind']!r}")
    return TiledSchedule(
        parts=tuple(parts),
        tile_size=int(payload["tile_size"]),
        profile=str(payload["profile"]),
    )


# ----------------------------------------------------------------------
# Compiled chain
# ----------------------------------------------------------------------
def encode_chain(compiled) -> dict:
    """Persist a compiled chain's *decisions*.

    The expensive outputs of :func:`repro.core.chain.compile_chain` are
    the validation pass, the fusion partition and the resolved tile
    size; plans come from the plan store.  Tiled schedules, one per
    element-order profile, are persisted separately under the ``tiled``
    kind when a backend builds them.
    """
    return {
        "groups": [list(run) for run in compiled.partition],
        "tiling": compiled.tiling,
        "tile_size": int(compiled.tile_size),
        "n_loops": compiled.n_loops,
    }


def decode_chain(payload: dict, plans):
    """Rebuild a compiled chain's partition over resolved ``plans``.

    Skips validation and fusion — the persisted decisions are functions
    of the structural trace the key guarantees identical.  The chain
    holds no Dat: the runtime binds the live trace at each flush, and a
    tiled schedule is built (or loaded from the tiled store) only when
    a backend first asks for it (:meth:`BoundChain.tiled_for`).
    """
    from ..core.chain import CompiledChain

    if int(payload["n_loops"]) != len(plans):
        raise ValueError("chain document does not match the live trace")
    partition = tuple(
        tuple(int(i) for i in run) for run in payload["groups"]
    )
    if [i for run in partition for i in run] != list(range(len(plans))) \
            or not all(partition):
        raise ValueError("chain fusion groups do not partition the trace")
    return CompiledChain(
        partition=partition,
        plans=tuple(plans),
        tiling=payload["tiling"],
        tile_size=int(payload["tile_size"]),
    )


# ----------------------------------------------------------------------
# Generated kernel source (kernelc)
# ----------------------------------------------------------------------
def encode_kernelc(source: Optional[str]) -> dict:
    """``source=None`` records a negative entry (unvectorizable kernel)."""
    return {"source": source}


def decode_kernelc(payload: dict) -> Optional[str]:
    source = payload["source"]
    if source is not None and not isinstance(source, str):
        raise TypeError("kernelc payload source must be a string or None")
    return source
