"""Sparse-matrix arguments — OP2's ``op_mat`` analogue (the aero workload).

Finite-element assembly has a fundamentally different access pattern from
the finite-volume apps: each iteration-set element computes a dense
*local* matrix (a ``(arity, arity)`` block for one element's basis
functions) that scatters into a global sparse operator addressed through
a **pair of maps** — rows through ``rmap``, columns through ``cmap``.  A
:class:`Mat` is that operator: declared over the ``(rmap, cmap)`` pair,
its CSR sparsity derived from the mesh connectivity the first time it is
needed, and accepted by :func:`~repro.core.loop.par_loop` as an ``INC``
argument (built with :func:`arg_mat`) alongside ``Dat``/``Global``.

Two-phase deterministic assembly
--------------------------------
OP2 scatters element contributions straight into CSR under the loop's
coloring, which makes the assembled values depend on the color order —
a different answer per backend/scheme.  We split assembly in two:

1. **Element-local staging** — ``arg_mat(mat, INC)`` hands the kernel a
   flat ``(rmap.arity * cmap.arity,)`` local-matrix row of a staging
   ``Dat`` on the iteration set (``K[cmap.arity * i + j]`` is local
   entry ``(i, j)``).  Every element owns its row, so the par_loop is
   race-free on every backend, under every scheme, layout, chaining and
   tiling mode — and the staged values are *bitwise identical* across
   all of them.
2. **Canonical reduction** — :meth:`Mat.assemble` folds the staged
   contributions into CSR in one fixed order: CSR slot major, element
   minor, each slot summed left to right from ``0.0`` over a
   precomputed fixed-width contribution table (:attr:`Mat.fold_table`,
   padded with a synthetic always-zero contribution).  The order is
   *explicit* — a plain sequential sum a generated kernel can replicate
   term for term — rather than delegated to a NumPy reduction whose
   internal association is an implementation detail, and it is
   independent of how the loop executed.

The assembled CSR is therefore a pure function of the mesh and the
kernel: the reproducibility guarantee the aero acceptance tests pin over
the whole backend x layout x {eager, chained, tiled} matrix.

The solver view
---------------
CG consumes the operator through :meth:`Mat.solver_view`: a padded
fixed-arity (ELL-style) row view — ``row_slots`` maps every row to its
CSR value slots, ``row_cols`` to the matching column indices, both
padded to the maximum row degree with a dedicated always-zero slot.
SpMV then *is* a ``par_loop`` over rows (gather values + gather x +
fixed-order dot per row; see :mod:`repro.solve`), with no inline CSR
index arithmetic anywhere outside this module — vectorizing unstructured
SpMV by padding to a rectangular gather is the classic ELLPACK rewrite
the paper's SIMD model favours.

Lifecycle::

    mat = Mat(cell2node, cell2node, name="K")
    mat.zero()
    par_loop(assemble, cells, ..., arg_mat(mat, INC))
    mat.assemble()                  # staged -> CSR, canonical order
    mat.set_dirichlet(bc_mask)      # rows/cols -> identity (host-side)
    y = mat @ x                     # dense-vector product (host-side)
"""

from __future__ import annotations

import itertools
from typing import Optional, Tuple

import numpy as np

from .access import Access, Arg, IDX_ID
from .dat import Dat
from .map import Map
from .set import Set

_mat_counter = itertools.count()


class Mat:
    """A sparse matrix declared over a ``(row map, column map)`` pair.

    Parameters
    ----------
    rmap, cmap:
        Maps from the *assembly* iteration set (e.g. cells) to the row
        and column sets (e.g. nodes).  Both must share their ``from_set``;
        the sparsity is the union over elements of all
        ``(rmap[e, i], cmap[e, j])`` pairs.
    dtype:
        Value dtype (the library is dtype-parametric).
    name:
        Identifier used in reports and staging/CSR Dat names.
    """

    def __init__(
        self,
        rmap: Map,
        cmap: Map,
        dtype: np.dtype = np.float64,
        name: Optional[str] = None,
    ) -> None:
        if not isinstance(rmap, Map) or not isinstance(cmap, Map):
            raise TypeError("Mat must be declared over a (Map, Map) pair")
        if rmap.from_set is not cmap.from_set:
            raise ValueError(
                f"Mat maps must share their from_set: {rmap.name!r} is over "
                f"{rmap.from_set.name!r}, {cmap.name!r} over "
                f"{cmap.from_set.name!r}"
            )
        self.rmap = rmap
        self.cmap = cmap
        self.elem_set = rmap.from_set
        self.row_set = rmap.to_set
        self.col_set = cmap.to_set
        self.name = name if name is not None else f"mat_{next(_mat_counter)}"
        self._uid = next(_mat_counter)
        #: Element-local contribution staging: one flat
        #: ``(rmap.arity * cmap.arity,)`` local matrix per element,
        #: race-free by construction (each element owns its row).
        self.staging = Dat(
            self.elem_set,
            rmap.arity * cmap.arity,
            dtype=dtype,
            name=f"{self.name}_elem",
        )
        # CSR sparsity + canonical-reduction machinery, derived from the
        # map pair on first use ("plan time": connectivity only, no data).
        self._indptr: Optional[np.ndarray] = None
        self._indices: Optional[np.ndarray] = None
        self._nnz = 0
        self._fold_table: Optional[np.ndarray] = None
        self._fold_width = 0
        self._n_staged = 0
        self._slot_rows: Optional[np.ndarray] = None
        self._nnz_set: Optional[Set] = None
        self._values: Optional[Dat] = None
        self._solver_view: Optional[Tuple[Map, Map]] = None
        self._dirichlet_cache: Optional[
            Tuple[np.ndarray, np.ndarray, np.ndarray]
        ] = None
        self.assembled = False
        #: Number of :meth:`assemble` folds performed over this Mat's
        #: lifetime — the matrix-free acceptance tests pin "at most one
        #: assemble per solve" on this counter.
        self.assemble_calls = 0

    # ------------------------------------------------------------------
    @property
    def nrows(self) -> int:
        return self.row_set.size

    @property
    def ncols(self) -> int:
        return self.col_set.size

    @property
    def dtype(self) -> np.dtype:
        return self.staging.dtype

    @property
    def local_shape(self) -> Tuple[int, int]:
        """Shape of one element's local matrix block."""
        return (self.rmap.arity, self.cmap.arity)

    # ------------------------------------------------------------------
    # Sparsity construction (lazy, connectivity-only).
    # ------------------------------------------------------------------
    def _ensure_sparsity(self) -> None:
        if self._indptr is not None:
            return
        a1, a2 = self.rmap.arity, self.cmap.arity
        # COO triplets in staging order: entry (e, i, j) lives at staged
        # column a2 * i + j of element e.
        rows = np.repeat(self.rmap.values, a2, axis=1).reshape(-1)
        cols = np.tile(self.cmap.values, (1, a1)).reshape(-1)
        keys = rows.astype(np.int64) * self.ncols + cols
        # ``np.unique`` sorts keys => (row, col) lexicographic = CSR
        # order; ``inverse`` is each staged entry's CSR slot.
        uniq, inverse = np.unique(keys, return_inverse=True)
        self._nnz = int(uniq.size)
        self._indices = (uniq % self.ncols).astype(np.int64)
        uniq_rows = (uniq // self.ncols).astype(np.int64)
        counts = np.bincount(uniq_rows, minlength=self.nrows)
        self._indptr = np.concatenate(
            ([0], np.cumsum(counts))
        ).astype(np.int64)
        # Canonical reduction order: CSR slot major, staging (= element)
        # order minor — the stable sort pins the element-minor tiebreak,
        # so the fold order never depends on how the loop executed.  The
        # order is materialized as a fixed-width per-slot contribution
        # table (row = CSR slot, columns = staged-entry indices in fold
        # order, padded with the synthetic zero contribution
        # ``n_staged``): assemble() sums its columns left to right, and
        # the matrix-free action kernels replicate exactly that fold.
        n_staged = inverse.size
        order = np.argsort(inverse, kind="stable")
        slot_counts = np.bincount(inverse, minlength=self._nnz)
        starts = np.concatenate(
            ([0], np.cumsum(slot_counts)[:-1])
        ).astype(np.int64)
        width = int(slot_counts.max(initial=1))
        self._n_staged = int(n_staged)
        self._fold_width = max(width, 1)
        table = np.full(
            (self._nnz + 1, self._fold_width), n_staged, dtype=np.int64
        )
        slot_ids = np.repeat(
            np.arange(self._nnz, dtype=np.int64), slot_counts
        )
        pos = np.arange(n_staged, dtype=np.int64) - starts[slot_ids]
        table[slot_ids, pos] = order
        self._fold_table = table
        # Row index of every CSR slot (shared by set_dirichlet, the
        # solver view and the host-side conveniences).
        self._slot_rows = np.repeat(
            np.arange(self.nrows, dtype=np.int64), counts
        )
        # Values live in a Dat over the nonzero set so SpMV can read
        # them through maps like any other par_loop operand; one extra
        # trailing slot stays 0.0 forever — the padding target of the
        # fixed-arity solver view.
        self._nnz_set = Set(self._nnz + 1, f"{self.name}_nnz")
        self._values = Dat(
            self._nnz_set, 1, dtype=self.staging.dtype,
            name=f"{self.name}_csr",
        )

    @property
    def indptr(self) -> np.ndarray:
        self._ensure_sparsity()
        return self._indptr

    @property
    def indices(self) -> np.ndarray:
        self._ensure_sparsity()
        return self._indices

    @property
    def nnz(self) -> int:
        self._ensure_sparsity()
        return self._nnz

    @property
    def fold_table(self) -> np.ndarray:
        """Canonical-fold contribution table, ``(nnz + 1, fold_width)``.

        Row ``s`` lists the staged-entry indices that accumulate into
        CSR slot ``s``, in the canonical (element-minor) order, padded
        with the synthetic zero contribution ``n_staged``; the trailing
        row (the solver view's always-zero pad slot) is all padding.
        :meth:`assemble` sums the columns left to right from ``0.0``,
        which is the exact fold the matrix-free kernels replicate.
        """
        self._ensure_sparsity()
        return self._fold_table

    @property
    def fold_width(self) -> int:
        """Maximum contributions per CSR slot (fold-table width)."""
        self._ensure_sparsity()
        return self._fold_width

    @property
    def n_staged(self) -> int:
        """Staged contribution count (= elements × local entries)."""
        self._ensure_sparsity()
        return self._n_staged

    @property
    def values(self) -> Dat:
        """Assembled CSR values as a ``Dat`` over the nonzero set.

        Rows ``[0, nnz)`` hold the CSR data; row ``nnz`` is the
        always-zero padding slot of the solver view.
        """
        self._ensure_sparsity()
        return self._values

    @property
    def data(self) -> np.ndarray:
        """The assembled ``(nnz,)`` CSR value array (host view)."""
        return self.values.data[: self.nnz, 0]

    # ------------------------------------------------------------------
    # Assembly lifecycle.
    # ------------------------------------------------------------------
    def zero(self) -> None:
        """Clear staged contributions (and any previously assembled CSR)."""
        self.staging.zero()
        if self._values is not None:
            self._values.zero()
        self.assembled = False

    def assemble(self) -> "Mat":
        """Fold staged element contributions into CSR, canonically.

        Reading ``staging.data`` here is also the deferred-execution
        barrier: a pending loop chain that recorded the assembly loop
        flushes first, so ``assemble()`` always folds the final staged
        values.  The fold is an explicit left-to-right sum from ``0.0``
        over :attr:`fold_table` (CSR-slot-major, element-minor, padded
        entries contributing an exact ``+0.0``) — a fixed, term-for-term
        replicable summation order, independent of backend, scheme,
        layout, chaining and tiling, and reproduced bit for bit by the
        matrix-free coefficient kernels.
        """
        self._ensure_sparsity()
        staged = self.staging.data
        flat = np.ascontiguousarray(staged).reshape(-1)[: self._n_staged]
        padded = np.concatenate(
            [flat, np.zeros(1, dtype=flat.dtype)]
        )
        acc = np.zeros(self._nnz, dtype=flat.dtype)
        table = self._fold_table
        for c in range(self._fold_width):
            acc += padded[table[: self._nnz, c]]
        self._values.data[: self._nnz, 0] = acc
        self.assembled = True
        self.assemble_calls += 1
        return self

    def set_dirichlet(self, row_mask: np.ndarray, diag: float = 1.0) -> None:
        """Impose Dirichlet rows/columns on the assembled operator.

        Rows flagged by ``row_mask`` become ``diag`` on the diagonal and
        zero elsewhere; flagged *columns* are zeroed in the remaining
        rows (the symmetric elimination — move the known-value coupling
        to the right-hand side first, e.g. via ``mat @ lift``).  Host
        side and deterministic, like :meth:`assemble`.

        The drop/diagonal slot selections depend only on the sparsity
        and the mask, so they are memoized: Picard iterations reapplying
        the same boundary mask every step pay two fancy-indexed stores
        and nothing else (no per-step index allocation).
        """
        self._ensure_sparsity()
        mask = np.asarray(row_mask, dtype=bool)
        if mask.shape != (self.nrows,):
            raise ValueError(
                f"row_mask must have shape ({self.nrows},), got {mask.shape}"
            )
        cached = self._dirichlet_cache
        if cached is None or not np.array_equal(cached[0], mask):
            rows = self._slot_rows
            drop = mask[rows] | mask[self._indices]
            diag_slots = (rows == self._indices) & mask[rows]
            cached = (mask.copy(), drop, diag_slots)
            self._dirichlet_cache = cached
        _, drop, diag_slots = cached
        vals = self._values.data
        vals[: self._nnz, 0][drop] = 0.0
        vals[: self._nnz, 0][diag_slots] = diag

    # ------------------------------------------------------------------
    # Fixed-arity (padded ELL) row view for the par_loop SpMV.
    # ------------------------------------------------------------------
    @property
    def max_row_nnz(self) -> int:
        """Maximum row degree — the solver view's padded arity."""
        self._ensure_sparsity()
        return int(np.diff(self._indptr).max(initial=0))

    def solver_view(self) -> Tuple[Map, Map]:
        """``(row_slots, row_cols)`` — the padded fixed-arity row view.

        ``row_slots`` maps each row to ``max_row_nnz`` CSR value slots
        (padded with the always-zero slot ``nnz``); ``row_cols`` maps to
        the matching column elements (padded with the row itself — the
        gathered x value is multiplied by the zero pad slot, so the pad
        column never contributes).  Built once and cached; the maps are
        connectivity, so re-assembly and Dirichlet edits reuse them.
        """
        if self._solver_view is not None:
            return self._solver_view
        self._ensure_sparsity()
        if self.row_set is not self.col_set:
            raise ValueError(
                "solver_view requires a square operator "
                "(row and column sets must be the same Set)"
            )
        width = self.max_row_nnz
        slots = np.full((self.nrows, width), self._nnz, dtype=np.int64)
        cols = np.tile(
            np.arange(self.nrows, dtype=np.int64)[:, None], (1, width)
        )
        rows = self._slot_rows
        position = np.arange(self._nnz, dtype=np.int64) - self._indptr[rows]
        slots[rows, position] = np.arange(self._nnz, dtype=np.int64)
        cols[rows, position] = self._indices
        self._solver_view = (
            Map(self.row_set, self._nnz_set, width, slots,
                f"{self.name}_row_slots"),
            Map(self.row_set, self.col_set, width, cols,
                f"{self.name}_row_cols"),
        )
        return self._solver_view

    # ------------------------------------------------------------------
    # Host-side conveniences (tests, RHS construction, diagnostics).
    # ------------------------------------------------------------------
    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """Dense CSR matrix-vector product on the host (``mat @ x``)."""
        x = np.asarray(x, dtype=self.dtype).reshape(-1)
        if x.size != self.ncols:
            raise ValueError(
                f"operand has {x.size} entries, matrix has {self.ncols} columns"
            )
        vals = self.data
        y = np.zeros(self.nrows, dtype=self.dtype)
        np.add.at(y, self._slot_rows, vals * x[self._indices])
        return y

    def todense(self) -> np.ndarray:
        """Dense ``(nrows, ncols)`` copy (small meshes / tests only)."""
        self._ensure_sparsity()
        dense = np.zeros((self.nrows, self.ncols), dtype=self.dtype)
        dense[self._slot_rows, self._indices] = self.data
        return dense

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        shape = f"{self.nrows}x{self.ncols}" if self._indptr is not None \
            else f"{self.row_set.size}x{self.col_set.size} (sparsity pending)"
        return (
            f"Mat({self.name!r}, {shape}, local={self.local_shape}, "
            f"dtype={self.dtype})"
        )

    def __hash__(self) -> int:
        return hash(("Mat", self._uid))

    def __eq__(self, other: object) -> bool:
        return self is other


def arg_mat(mat: Mat, access: Access = Access.INC) -> Arg:
    """OP2-style ``op_arg_mat``: pass a :class:`Mat` to a ``par_loop``.

    The kernel parameter receives the element's flat local-matrix row
    (``(rmap.arity * cmap.arity,)``; entry ``(i, j)`` at index
    ``cmap.arity * i + j``) to increment — assembly kernels never see
    CSR indices.  Only ``INC`` access is meaningful: contributions
    accumulate, and :meth:`Mat.assemble` folds them canonically.
    """
    if not isinstance(mat, Mat):
        raise TypeError(f"arg_mat expects a Mat, got {type(mat)!r}")
    if access is not Access.INC:
        raise ValueError(
            "Mat arguments must use INC access (element contributions "
            f"accumulate); got {access}"
        )
    return Arg(dat=mat.staging, index=IDX_ID, map=None, access=access)
