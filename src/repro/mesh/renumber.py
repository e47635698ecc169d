"""Mesh renumbering for cache locality.

OP2's contiguous mini-partitions (Section 3's blocks) and its 4-byte
maps presuppose a locality-friendly base numbering: consecutive elements
of a loop should gather from neighbouring rows.  The generators here do
*not* guarantee one — ``make_airfoil_mesh`` numbers consecutive edges a
whole mesh row of cells apart, and a ``scramble``-d mesh models an
arbitrarily badly ordered input file — so the application drivers do not
trust the input: they run on :func:`localize`'s internal numbering and
translate their accessors back (Sulyok et al., "Locality Optimized
Unstructured Mesh Algorithms on GPUs": measure each map's gather span,
order the root set by an RCM order of its graph, every from-set by its
targets, every to-set by first touch).

The primitives underneath — :func:`permute_numbering`,
:func:`rcm_renumber_cells`, :func:`scramble`, :func:`bandwidth` — stay
public for tests and benches.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import reverse_cuthill_mckee

from ..core.map import MAP_DTYPE, Map, gather_span, row_min
from .structures import UnstructuredMesh

_SET_NAMES = ("nodes", "cells", "edges", "bedges")

#: ``meta`` arrays that live on a set and move with its numbering.
_PER_SET_META = {"bedges": ("bound",), "edges": ("is_boundary_edge",)}

#: A set is non-local when consecutive rows of the map that defines its
#: order gather, on average, more than this many target rows apart —
#: past that every element of a loop lands on cache lines the previous
#: one did not touch.
SPAN_LOCAL_ROWS = 8.0

#: The root set (cells) is non-local when the mean ``|c0 - c1|`` over
#: ``edge2cell`` exceeds this multiple of ``sqrt(n_cells)``.  A 2-D mesh
#: cannot do better than ~sqrt(n); the generators sit at 0.5-0.8, an RCM
#: order at <= 1, a scrambled one at ``sqrt(n) / 3``.
CELL_SPAN_FACTOR = 2.0


def _inverse(perm: np.ndarray) -> np.ndarray:
    inv = np.empty_like(perm)
    inv[perm] = np.arange(perm.size, dtype=perm.dtype)
    return inv


def _check_permutation(new_of_old: np.ndarray, n: int) -> np.ndarray:
    new_of_old = np.asarray(new_of_old, dtype=np.int64)
    if (
        new_of_old.shape != (n,)
        or (n and (new_of_old.min() < 0 or new_of_old.max() >= n))
        or not np.all(np.bincount(new_of_old, minlength=n) == 1)
    ):
        raise ValueError("new_of_old must be a permutation of the set")
    return new_of_old


def permute_numbering(
    mesh: UnstructuredMesh, new_of_old: Dict[str, np.ndarray]
) -> UnstructuredMesh:
    """Renumber several sets at once: element ``old`` of set ``name``
    becomes ``new_of_old[name][old]``.

    Every map touching a renumbered set is rebuilt exactly once (rows
    permuted for its ``from`` set, values relabelled for its ``to``
    set); a map touching none is the *same object* in the result, as
    are the four sets.  Coordinates and per-set ``meta`` arrays follow
    their set.  Returns a new mesh; the input is untouched.
    """
    sets = {name: getattr(mesh, name) for name in _SET_NAMES}
    forward, backward = {}, {}  # keyed by set name
    for name, perm in new_of_old.items():
        if name not in sets:
            raise KeyError(f"Unknown set {name!r}")
        forward[name] = _check_permutation(perm, sets[name].size)
        backward[name] = _inverse(forward[name])
    name_of = {s: name for name, s in sets.items()}

    maps: Dict[str, Map] = {}
    for name, m in mesh.maps.items():
        rows = backward.get(name_of.get(m.from_set))
        relabel = forward.get(name_of.get(m.to_set))
        if rows is None and relabel is None:
            maps[name] = m
            continue
        values = m.values
        if rows is not None:
            values = values[rows]
        if relabel is not None:
            values = relabel[values]
        maps[name] = Map(m.from_set, m.to_set, m.arity, values, m.name)

    coords = mesh.coords
    if "nodes" in backward:
        coords = coords[backward["nodes"]]
    meta = dict(mesh.meta)
    for name, old_of_new in backward.items():
        for key in _PER_SET_META.get(name, ()):
            if key in meta:
                meta[key] = meta[key][old_of_new]

    return UnstructuredMesh(
        nodes=mesh.nodes, cells=mesh.cells, edges=mesh.edges,
        bedges=mesh.bedges, maps=maps, coords=coords, meta=meta,
    )


def permute_set_numbering(
    mesh: UnstructuredMesh, set_name: str, new_of_old: np.ndarray
) -> UnstructuredMesh:
    """Renumber one set (see :func:`permute_numbering`)."""
    return permute_numbering(mesh, {set_name: new_of_old})


def scramble(mesh: UnstructuredMesh, set_name: str, seed: int = 0
             ) -> UnstructuredMesh:
    """Randomly permute a set's numbering (worst-case locality)."""
    sets = mesh.summary()
    rng = np.random.default_rng(seed)
    perm = rng.permutation(sets[set_name]).astype(np.int64)
    return permute_set_numbering(mesh, set_name, perm)


def _rcm_new_of_old(adj: sparse.csr_matrix) -> np.ndarray:
    """Reverse-Cuthill-McKee order of a symmetric graph as a
    ``new_of_old`` permutation."""
    order = np.asarray(
        reverse_cuthill_mckee(adj, symmetric_mode=True), dtype=np.int64
    )
    return _inverse(order)


def rcm_renumber_cells(mesh: UnstructuredMesh) -> UnstructuredMesh:
    """Reverse-Cuthill-McKee renumbering of cells via shared nodes: two
    cells are adjacent when they share a node."""
    c2n = mesh.map("cell2node").values
    n_cells, arity = c2n.shape
    incidence = sparse.csr_matrix(
        (np.ones(c2n.size, dtype=np.int8),
         (np.repeat(np.arange(n_cells), arity), c2n.reshape(-1))),
        shape=(n_cells, mesh.nodes.size),
    )
    adj = (incidence @ incidence.T).tocsr()
    adj.setdiag(0)
    adj.eliminate_zeros()
    return permute_set_numbering(mesh, "cells", _rcm_new_of_old(adj))


def bandwidth(map_values: np.ndarray) -> int:
    """Max spread of a map row — the locality proxy RCM minimizes."""
    mv = np.asarray(map_values)
    if mv.size == 0:
        return 0
    return int((mv.max(axis=1) - mv.min(axis=1)).max())


# ----------------------------------------------------------------------
# Locality at plan time
# ----------------------------------------------------------------------
@dataclass
class Localization:
    """What :func:`localize` decided for one mesh.

    ``mesh`` is the internal mesh the drivers run on — the input object
    itself when nothing was renumbered.  ``new_of_old`` holds one
    permutation per renumbered set; ``report`` is the drivers'
    ``sim.numbering``: ``{"sets": {set: method}, "spans": {map:
    {"before", "after"}}, "cell_span": {"before", "after"},
    "seconds"}``.
    """

    mesh: UnstructuredMesh
    new_of_old: Dict[str, np.ndarray] = field(default_factory=dict)
    report: Dict[str, object] = field(default_factory=dict)

    def to_caller(self, set_name: str, rows: np.ndarray) -> np.ndarray:
        """Per-element data of ``set_name`` in internal numbering →
        the caller's numbering (a view when the set was not moved)."""
        perm = self.new_of_old.get(set_name)
        return rows if perm is None else rows[perm]

    def to_internal(self, set_name: str, rows: np.ndarray) -> np.ndarray:
        """The inverse of :meth:`to_caller`."""
        perm = self.new_of_old.get(set_name)
        if perm is None:
            return rows
        out = np.empty_like(rows)
        out[perm] = rows
        return out


def cell_span(edge2cell_values: np.ndarray) -> float:
    """Mean ``|c0 - c1|`` over ``edge2cell`` rows: how far apart, in
    cell rows, the two sides of an average face live."""
    v = np.asarray(edge2cell_values)
    if v.shape[0] == 0 or v.shape[1] < 2:
        return 0.0
    return float(np.abs(v[:, 0].astype(np.int64) - v[:, 1]).mean())


def _localize_cells(mesh: UnstructuredMesh) -> Optional[np.ndarray]:
    e2c = mesh.maps.get("edge2cell")
    n = mesh.cells.size
    if e2c is None or n < 2 or e2c.arity < 2 or e2c.values.shape[0] == 0:
        return None
    v = e2c.values
    before = cell_span(v)
    if before <= CELL_SPAN_FACTOR * np.sqrt(n):
        return None
    rows = np.concatenate([v[:, 0], v[:, 1]])  # each face, both ways
    cols = np.concatenate([v[:, 1], v[:, 0]])
    graph = sparse.csr_matrix(
        (np.ones(rows.size, dtype=np.int8), (rows, cols)), shape=(n, n)
    )
    perm = _rcm_new_of_old(graph)
    return perm if cell_span(perm[v]) < before else None


def _localize_from_set(
    values: np.ndarray, cell_perm: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    """Stable order of a from-set by its minimum adjacent cell."""
    if values.shape[0] < 2:
        return None
    if cell_perm is not None:
        values = cell_perm[values]
    before = gather_span(values)
    if before <= SPAN_LOCAL_ROWS:
        return None
    key = row_min(values)
    order = np.argsort(key, kind="stable")
    # A sorted key has the least total variation of any order; equal
    # means the rows were already monotone.
    after = float(key[order[-1]] - key[order[0]]) / (key.size - 1)
    return _inverse(order) if after < before else None


def _localize_nodes(
    mesh: UnstructuredMesh, cell_perm: Optional[np.ndarray]
) -> Optional[np.ndarray]:
    """First-touch order of the nodes from ``cell2node``."""
    c2n = mesh.maps.get("cell2node")
    if c2n is None or c2n.values.shape[0] < 2:
        return None
    rows = c2n.values
    if cell_perm is not None:
        rows = rows[_inverse(cell_perm)]
    before = gather_span(rows)
    if before <= SPAN_LOCAL_ROWS:
        return None
    flat = rows.reshape(-1)
    # Position of each node's first appearance; nodes no cell names
    # keep the sentinel and sort last, in their original order.
    first = np.full(mesh.nodes.size, flat.size, dtype=np.int64)
    np.minimum.at(first, flat, np.arange(flat.size, dtype=np.int64))
    perm = _inverse(np.argsort(first, kind="stable"))
    return perm if gather_span(perm[rows]) < before else None


def localize(mesh: UnstructuredMesh) -> Localization:
    """A locality-friendly internal numbering of ``mesh``, measured.

    Each set is renumbered only where its numbering is measurably
    non-local *and* the candidate order measurably better:

    * ``cells`` (the root set): reverse Cuthill-McKee over the
      ``edge2cell`` graph when :func:`cell_span` exceeds
      ``CELL_SPAN_FACTOR * sqrt(n_cells)``;
    * ``edges`` / ``bedges`` (from-sets): stably by minimum adjacent
      cell, in the new cell numbering, when consecutive rows gather more
      than ``SPAN_LOCAL_ROWS`` cell rows apart;
    * ``nodes`` (a to-set): by first touch from ``cell2node`` in the new
      cell order, under the same row threshold.

    The permutations compose into one :func:`permute_numbering` call, so
    each internal map is built once and every map no renumbered set
    touches is shared with ``mesh``.  On an already-local mesh the
    result *is* ``mesh``.  Memoised on the mesh object; the internal
    mesh is its own localization, so ``localize(localize(m).mesh)`` is
    the identity.
    """
    memo = mesh._localization
    if memo is not None:
        return memo
    t0 = time.perf_counter()
    perms: Dict[str, np.ndarray] = {}
    methods: Dict[str, str] = {}

    cell_perm = _localize_cells(mesh)
    if cell_perm is not None:
        perms["cells"] = cell_perm
        methods["cells"] = "rcm(edge2cell)"
    for set_name, map_name in (("edges", "edge2cell"),
                               ("bedges", "bedge2cell")):
        m = mesh.maps.get(map_name)
        perm = None if m is None else _localize_from_set(m.values, cell_perm)
        if perm is not None:
            perms[set_name] = perm
            methods[set_name] = f"sort(min {map_name})"
    node_perm = _localize_nodes(mesh, cell_perm)
    if node_perm is not None:
        perms["nodes"] = node_perm
        methods["nodes"] = "first-touch(cell2node)"

    internal = permute_numbering(mesh, perms) if perms else mesh
    # Kept for the life of the mesh: 4-byte, like the maps.
    loc = Localization(
        internal, {k: v.astype(MAP_DTYPE) for k, v in perms.items()},
        _report(mesh, internal, methods),
    )
    loc.report["seconds"] = time.perf_counter() - t0
    mesh._localization = loc
    if internal is not mesh:
        # The internal mesh is its own (identity) localization.
        internal._localization = Localization(
            internal, {}, _report(internal, internal, {})
        )
    return loc


def _report(before: UnstructuredMesh, after: UnstructuredMesh,
            methods: Dict[str, str]) -> Dict[str, object]:
    report: Dict[str, object] = {
        "sets": methods,
        "spans": {
            name: {"before": m.gather_span(),
                   "after": after.maps[name].gather_span()}
            for name, m in before.maps.items()
        },
        "seconds": 0.0,
    }
    if "edge2cell" in before.maps:
        report["cell_span"] = {
            "before": cell_span(before.maps["edge2cell"].values),
            "after": cell_span(after.maps["edge2cell"].values),
        }
    return report
