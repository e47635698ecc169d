"""Mesh sets — the iteration spaces of the OP2 abstraction.

A :class:`Set` is nothing more than a named size (e.g. ``nodes``, ``edges``,
``cells``): data (:class:`~repro.core.dat.Dat`) and connectivity
(:class:`~repro.core.map.Map`) attach to sets, and parallel loops iterate
over every element of them.
"""

from __future__ import annotations

import itertools
from typing import Optional

_set_counter = itertools.count()


class Set:
    """An abstract collection of mesh elements.

    Parameters
    ----------
    size:
        Number of elements.
    name:
        Identifier used in plan caching, debugging and reports.
    """

    def __init__(self, size: int, name: Optional[str] = None) -> None:
        if size < 0:
            raise ValueError(f"Set size must be non-negative, got {size}")
        self.size = int(size)
        self.name = name if name is not None else f"set_{next(_set_counter)}"
        self._uid = next(_set_counter)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Set({self.name!r}, size={self.size})"
