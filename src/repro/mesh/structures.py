"""Unstructured mesh container shared by the applications.

Bundles the OP2 sets and maps a finite-volume code needs (nodes, cells,
interior edges, boundary edges, plus the standard connectivity), together
with node coordinates.  Generators in :mod:`repro.mesh.airfoil_mesh` and
:mod:`repro.mesh.tri_mesh` produce instances; applications attach their
Dats on top.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from ..core.map import Map
from ..core.set import Set


@dataclass
class UnstructuredMesh:
    """Sets, maps and geometry of a 2-D unstructured mesh.

    Attributes
    ----------
    nodes, cells, edges, bedges:
        The four OP2 sets (``bedges`` may be empty for closed meshes).
    maps:
        Named connectivity: at least ``edge2node``, ``edge2cell``,
        ``cell2node``; generators add ``bedge2node``/``bedge2cell`` and,
        for triangle meshes, ``cell2edge``.
    coords:
        ``(n_nodes, 2)`` node coordinates.
    meta:
        Generator-specific extras (boundary flags, cell volumes...).
    """

    nodes: Set
    cells: Set
    edges: Set
    bedges: Set
    maps: Dict[str, Map]
    coords: np.ndarray
    meta: Dict[str, np.ndarray] = field(default_factory=dict)
    #: Memo of :func:`repro.mesh.renumber.localize` for this mesh object
    #: (meshes are treated as immutable once built).
    _localization: object = field(
        default=None, init=False, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    def map(self, name: str) -> Map:
        if name not in self.maps:
            raise KeyError(
                f"Mesh has no map {name!r}; available: {sorted(self.maps)}"
            )
        return self.maps[name]

    def summary(self) -> Dict[str, int]:
        return {
            "nodes": self.nodes.size,
            "cells": self.cells.size,
            "edges": self.edges.size,
            "bedges": self.bedges.size,
        }

    def validate(self) -> None:
        """Structural sanity checks used by tests and after renumbering."""
        for name, m in self.maps.items():
            hi = int(m.values.max(initial=-1))
            lo = int(m.values.min(initial=0))
            if lo < 0 or hi >= m.to_set.size:
                raise ValueError(
                    f"map {name!r} indices [{lo}, {hi}] exceed target set "
                    f"{m.to_set.name!r} of size {m.to_set.size}"
                )
        if self.coords.shape != (self.nodes.size, 2):
            raise ValueError(
                f"coords shape {self.coords.shape} != ({self.nodes.size}, 2)"
            )

    def memory_footprint(
        self, dat_dims: Dict[str, int], dtype=np.float64, map_itemsize: int = 4
    ) -> Dict[str, int]:
        """Byte footprint accounting for Table IV.

        ``dat_dims`` gives per-set total Dat arity, e.g. Airfoil carries
        2 doubles per node (x) and 13 per cell (q, qold, res, adt).
        """
        itemsize = np.dtype(dtype).itemsize
        sizes = {
            "nodes": self.nodes.size,
            "cells": self.cells.size,
            "edges": self.edges.size,
            "bedges": self.bedges.size,
        }
        data_bytes = sum(
            sizes[set_name] * dim * itemsize for set_name, dim in dat_dims.items()
        )
        map_bytes = sum(
            m.values.shape[0] * m.arity * map_itemsize for m in self.maps.values()
        )
        return {
            "data": int(data_bytes),
            "maps": int(map_bytes),
            "total": int(data_bytes + map_bytes),
        }

    def cell_centroids(self) -> np.ndarray:
        """Cell centroid coordinates (partitioner input)."""
        c2n = self.map("cell2node").values
        return self.coords[c2n].mean(axis=1)
