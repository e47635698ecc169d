"""Structural (cross-process) keys for persisted plans.

In-process caches key by object identity (``_uid`` counters): cheap,
and exactly right while the objects live.  A persistent store needs
keys that two *different processes* agree on, so a plan key is a
content digest of what a colouring depends on: the iteration set's
size and each racing ``(map, slot)`` column, a
:class:`~repro.core.map.Map` keyed by its **values** (plus arity and
endpoint extents) — a colouring is a function of connectivity, not of
which ``Map`` object carries it.

Data values are deliberately **not** keyed: a colouring is a pure
function of structure (the paper's plan-reuse argument), which is what
makes replay across time steps — and across processes — sound.

Keys are hex digests (filename-safe).
"""

from __future__ import annotations

import hashlib
from typing import Sequence


def digest(*parts) -> str:
    """sha256 over a flat token stream (ints/strings/bytes/None)."""
    h = hashlib.sha256()
    for p in parts:
        if isinstance(p, bytes):
            h.update(b"B" + p)
        else:
            h.update(repr(p).encode())
        h.update(b"\x1f")
    return h.hexdigest()


def map_key(m) -> str:
    """Content digest of one Map: connectivity values + endpoint extents
    (cached on the map, whose values never change)."""
    cached = getattr(m, "_struct_key", None)
    if cached is None:
        cached = digest(
            "map",
            int(m.arity),
            int(m.from_set.size),
            int(m.to_set.size),
            m.values.tobytes(),
        )
        m._struct_key = cached
    return cached


def set_token(s) -> int:
    return int(s.size)


def plan_key(
    set_, args: Sequence, block_size: int, scheme: str, coloring_method: str
) -> str:
    """Key of one plan's colouring: the disk twin of ``plan_signature``.

    Same structural notion — iteration-set extent plus the racing
    ``(map, slot)`` columns — but with maps keyed by connectivity
    content and ``coloring_method`` included (the in-process cache may
    omit it because a runtime fixes one method; the shared store cannot).
    """
    racing = sorted(
        (map_key(arg.map), int(arg.index)) for arg in args if arg.races
    )
    return digest(
        "plan", set_token(set_), racing,
        int(block_size), scheme, coloring_method,
    )


__all__ = ["digest", "map_key", "set_token", "plan_key"]
