"""Data-movement analysis of parallel loops.

Two accounting conventions, both used by the paper:

* **per-element counts** (Tables II/III): floating-point values touched
  per iteration-set element, with INC counted as read+write and no
  caching credit — gives the naive FLOP/byte ratios;
* **useful bytes** (Tables V-VIII bandwidth columns): every distinct
  element of every accessed dat counted once per loop ("infinite cache
  for the duration of a single loop", Section 6.1) — the minimal traffic
  a perfect cache would generate, from which achieved bandwidth is
  computed as ``useful_bytes / time``.

Counts are derived *from the loop's argument list*, exactly the
information the OP2 API exposes — so Tables II/III regenerate from the
application source rather than being transcribed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence

import numpy as np

from ..core.access import Access, Arg


@dataclass
class LoopTransfer:
    """Transfer profile of one parallel loop.

    Per-element counts are in values (not bytes); ``unique_per_elem``
    maps a set name to values-touched per *iteration* element under the
    infinite-cache convention (scale-invariant for a mesh family, so
    profiles built on a small mesh extrapolate to paper-size meshes).
    """

    iter_set: str
    direct_read: int = 0
    direct_write: int = 0
    indirect_read: int = 0
    indirect_write: int = 0
    unique_per_elem: Dict[str, float] = field(default_factory=dict)

    @property
    def per_element_values(self) -> int:
        return (
            self.direct_read
            + self.direct_write
            + self.indirect_read
            + self.indirect_write
        )

    def per_element_bytes(self, itemsize: int) -> int:
        return self.per_element_values * itemsize

    def flop_per_byte(self, flops: int, itemsize: int) -> float:
        b = self.per_element_bytes(itemsize)
        return flops / b if b else 0.0

    #: Per set name, total accessed dat values per target element (sum
    #: over distinct dats of dim * directions); caps the unique-touch
    #: extrapolation at the set's full extent.  Filled by analyze_loop.
    _set_caps: Dict[str, float] = field(default_factory=dict)

    def useful_bytes(
        self, n_elements: int, sizes: Dict[str, int], itemsize: int
    ) -> int:
        """Infinite-cache traffic for one loop execution.

        Each set's contribution is ``unique-values-per-iteration-element
        * n_elements``, capped at the set's full extent: a loop cannot
        usefully touch more distinct elements than the set has.
        """
        total = 0.0
        for set_name, per_elem in self.unique_per_elem.items():
            touched = per_elem * n_elements
            cap = self._set_caps.get(set_name, float("inf")) * sizes.get(
                set_name, float("inf")
            )
            total += min(touched, cap)
        return int(total * itemsize)


def analyze_loop(
    iter_set_name: str,
    args: Sequence[Arg],
    set_names: Dict[object, str],
    n_elements: int | None = None,
) -> LoopTransfer:
    """Build a :class:`LoopTransfer` from a loop's argument list.

    ``set_names`` maps :class:`~repro.core.set.Set` objects to canonical
    names ("cells", "nodes", ...).  ``n_elements`` defaults to the
    iteration set's size and is used to compute the unique-touch ratios
    from the actual map contents.
    """
    lt = LoopTransfer(iter_set=iter_set_name)

    # --- per-element counts (Tables II/III convention) -----------------
    for arg in args:
        if arg.is_global:
            continue  # globals are negligible traffic
        dim = arg.dat.dim
        slots = arg.map.arity if arg.is_vector else 1
        values = dim * slots
        reads = values if arg.access.reads else 0
        writes = values if arg.access.writes else 0
        if arg.is_direct:
            lt.direct_read += reads
            lt.direct_write += writes
        else:
            lt.indirect_read += reads
            lt.indirect_write += writes

    # --- unique-touch accounting (bandwidth convention) -----------------
    # Group by dat so one dat read through two slots counts once.
    by_dat: Dict[object, Dict[str, object]] = {}
    for arg in args:
        if arg.is_global:
            continue
        info = by_dat.setdefault(
            arg.dat, {"reads": False, "writes": False, "args": []}
        )
        info["reads"] = info["reads"] or arg.access.reads
        info["writes"] = info["writes"] or arg.access.writes
        info["args"].append(arg)

    iter_n = None
    for arg in args:
        if not arg.is_global and arg.is_direct:
            iter_n = arg.dat.set.size
            break
        if arg.is_indirect:
            iter_n = arg.map.from_set.size
            break
    if n_elements is None:
        n_elements = iter_n if iter_n is not None else 0

    caps: Dict[str, float] = {}
    for dat, info in by_dat.items():
        set_name = set_names.get(dat.set, dat.set.name)
        directions = (1 if info["reads"] else 0) + (1 if info["writes"] else 0)
        values_per_target = dat.dim * directions
        caps[set_name] = caps.get(set_name, 0.0) + values_per_target

        # Count distinct touched targets from the actual maps.
        maps_used = {
            (a.map) for a in info["args"] if a.is_indirect
        }
        if not maps_used:
            touched = n_elements  # direct: the iteration elements
        else:
            # Distinct targets by counting, not sorting: np.unique over
            # the gather columns of a 720k-cell mesh was most of a warm
            # process's first step.
            cols = [m.values[:n_elements].reshape(-1) for m in maps_used]
            touched = int(np.count_nonzero(
                np.bincount(np.concatenate(cols)))) if n_elements else 0
        ratio = (touched / n_elements) if n_elements else 0.0
        lt.unique_per_elem[set_name] = (
            lt.unique_per_elem.get(set_name, 0.0)
            + ratio * values_per_target
        )
    lt._set_caps = caps
    return lt


def classify_loop(args: Sequence[Arg]) -> str:
    """Kernel class for the performance model.

    ``direct``  — no indirection at all;
    ``gather``  — indirect reads only (no races);
    ``scatter`` — indirect increments/writes (needs coloring).
    """
    has_indirect = any(a.is_indirect for a in args)
    has_race = any(a.races for a in args)
    if has_race:
        return "scatter"
    if has_indirect:
        return "gather"
    return "direct"


def indirect_inc_values(args: Sequence[Arg]) -> int:
    """Values scattered per element with serialization (INC args)."""
    total = 0
    for a in args:
        if a.is_indirect and a.access is Access.INC:
            slots = a.map.arity if a.is_vector else 1
            total += a.dat.dim * slots
    return total
