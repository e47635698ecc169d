"""Data defined on mesh sets (OP2 ``op_dat``) with configurable layout.

A :class:`Dat` is logically an ``(set.size, dim)`` array plus
metadata.  *Physically* the values live in one of two layouts (paper
Section 5; "A study of vectorization for matrix-free finite element
methods" studies the same trade-off):

``aos`` (array-of-structures)
    Storage shape ``(extent, dim)``, C-contiguous — one element's ``dim``
    components are adjacent.  This is the paper's CPU layout: a scalar
    loop touching all components of one element gets them in one cache
    line.

``soa`` (structure-of-arrays)
    Storage shape ``(dim, extent)``, C-contiguous — one *component* of
    all elements is adjacent.  This is the paper's GPU / wide-SIMD
    layout: a batched kernel reading component ``k`` of many elements
    streams one contiguous row.

The layout is **transparent**: :attr:`Dat.data` always presents the
logical ``(extent, dim)`` shape (for SoA it is a transposed view of the
storage, aliasing the same memory), so kernels, backends and tests are
layout-agnostic.  Performance-sensitive code gathers with one
``np.take`` along the physical storage's element axis — whole rows for
AoS, one row per component for SoA (``backends/base.py:
StripProgram``) — and writes back through :meth:`Dat.scatter` /
:meth:`Dat.scatter_add`, which index the storage the same way.

The scatter contract
--------------------
``scatter(idx, values)`` writes rows back and requires **unique**
targets in ``idx`` — it is the free scatter of the permute schemes.
``scatter_add(idx, values, serialize=True)`` accumulates; with
``serialize=True`` it applies lanes in index order, which is correct
even when lanes share a target — the paper's sequential scatter out of
the vector register.  It runs one 1-D ``np.add.at`` per component:
the ``(row, k)`` targets of different components never interact, and
each still receives its lanes in index order, so the result is bitwise
that of a lane-by-lane loop.  With ``serialize=False`` targets must be
unique (conflict-free color), and the add is one fused operation.

A process-wide default layout can be set with :func:`set_default_layout`
or scoped with the :func:`dat_layout` context manager; a
:class:`~repro.core.runtime.Runtime` carries a ``layout`` attribute that
the application drivers apply when allocating their state.  The layout
subsystem is described end-to-end in ``docs/architecture.md`` (section 2).

Example
-------
>>> nodes = Set(100, "nodes")
>>> x = Dat(nodes, 3, layout="soa")     # explicit per-Dat layout
>>> with dat_layout("soa"):
...     y = Dat(nodes, 3)               # scoped default
>>> x.data.shape, x.storage.shape
((100, 3), (3, 100))
"""

from __future__ import annotations

import contextlib
import itertools
from typing import Iterator, Optional

import numpy as np

from .set import Set

_dat_counter = itertools.count()

#: Supported physical layouts.
LAYOUTS = ("aos", "soa")

_default_layout = "aos"

#: Called on every host access to *any* Dat or Global while a repeat
#: chain records its body (``LoopChain.__enter__`` arms it, ``__exit__``
#: clears it): host code between recorded loops is invisible to the
#: trace, so a body that runs some cannot be replayed from it.
_on_host_access = None


def _check_layout(layout: str) -> str:
    if layout not in LAYOUTS:
        raise ValueError(f"Unknown layout {layout!r}; expected one of {LAYOUTS}")
    return layout


def get_default_layout() -> str:
    """The process-wide layout used when ``Dat(layout=None)``."""
    return _default_layout


def set_default_layout(layout: str) -> str:
    """Set the process-wide default layout; returns the previous one."""
    global _default_layout
    previous = _default_layout
    _default_layout = _check_layout(layout)
    return previous


@contextlib.contextmanager
def dat_layout(layout: Optional[str]) -> Iterator[None]:
    """Scoped default layout (``None`` is a no-op passthrough).

    >>> with dat_layout("soa"):
    ...     q = Dat(cells, 4)    # q.layout == "soa"
    """
    if layout is None:
        yield
        return
    previous = set_default_layout(layout)
    try:
        yield
    finally:
        set_default_layout(previous)


class Dat:
    """A dense dataset attached to a :class:`~repro.core.set.Set`.

    Parameters
    ----------
    set_:
        The set this data lives on.
    dim:
        Arity (number of components per element), e.g. 4 flow variables.
    data:
        Optional initial values, broadcastable to ``(set.size, dim)``.
        Zeros when omitted.
    dtype:
        Floating (or integer) dtype; the whole library is dtype-parametric
        so single/double precision runs use the same code path.
    name:
        Identifier used in reports and plan debugging.
    layout:
        ``"aos"`` (default) or ``"soa"`` physical storage layout; ``None``
        takes the process default (see :func:`set_default_layout`).  The
        logical :attr:`data` interface is identical under both — only the
        memory order (and therefore gather/scatter locality) changes.
    """

    def __init__(
        self,
        set_: Set,
        dim: int,
        data: Optional[np.ndarray] = None,
        dtype: np.dtype = np.float64,
        name: Optional[str] = None,
        layout: Optional[str] = None,
    ) -> None:
        if not isinstance(set_, Set):
            raise TypeError("Dat must be attached to a Set")
        if dim < 1:
            raise ValueError(f"Dat dim must be >= 1, got {dim}")
        self.set = set_
        self.dim = int(dim)
        self.layout = _check_layout(layout if layout is not None else _default_layout)
        self.name = name if name is not None else f"dat_{next(_dat_counter)}"
        self._uid = next(_dat_counter)
        extent = set_.size
        if data is None:
            aos = np.zeros((extent, dim), dtype=dtype)
        else:
            arr = np.asarray(data, dtype=dtype)
            if arr.size == extent * dim:
                aos = arr.reshape(extent, dim)
            else:
                aos = np.broadcast_to(arr, (extent, dim))
        if self.layout == "soa":
            self._storage = np.ascontiguousarray(aos.T)
        else:
            self._storage = np.ascontiguousarray(aos)
        # Logical (extent, dim) array, writable, aliasing the storage.
        # For AoS this *is* the storage; for SoA it is a transposed view.
        # All element-wise access patterns (data[e], data[idx],
        # data[lo:hi], np.add.at(data, ...)) work identically under both
        # layouts.  The view is bound once (the storage is never
        # rebound); the :attr:`data` property only adds the deferred-
        # execution read barrier check on top.
        self._data = self._storage.T if self.layout == "soa" else self._storage
        #: Pending :class:`~repro.core.chain.LoopChain` that has recorded
        #: (but not yet executed) loops touching this Dat.  Any host
        #: access through :attr:`data` / :attr:`storage` flushes it
        #: first, so deferred execution can never serve a stale read.
        self._barrier = None

    # ------------------------------------------------------------------
    def _sync(self) -> None:
        """Flush the pending loop chain (if any) before host access."""
        if _on_host_access is not None:
            _on_host_access()
        barrier = self._barrier
        if barrier is not None:
            barrier.flush()

    @property
    def data(self) -> np.ndarray:
        """Logical ``(extent, dim)`` array, writable, aliasing the storage.

        Reading it while a :class:`~repro.core.chain.LoopChain` has
        pending loops touching this Dat flushes the chain first (the
        read/write-version barrier of the deferred-execution API); the
        returned view is then always up to date.
        """
        self._sync()
        return self._data

    @property
    def storage(self) -> np.ndarray:
        """The physical C-contiguous array: ``(extent, dim)`` for AoS,
        ``(dim, extent)`` for SoA.  Exposed for diagnostics and layout-aware
        fast paths; mutate through :attr:`data` unless you know the layout.
        """
        self._sync()
        return self._storage

    @property
    def dtype(self) -> np.dtype:
        return self._storage.dtype

    @property
    def itemsize(self) -> int:
        return self._storage.dtype.itemsize

    @property
    def nbytes(self) -> int:
        """Memory footprint of the owned portion (dim * size * itemsize)."""
        return self.set.size * self.dim * self.itemsize

    # ------------------------------------------------------------------
    # Layout-aware scatter primitives (used by the vectorized backend).
    # ------------------------------------------------------------------
    def scatter(self, idx: np.ndarray, values: np.ndarray) -> None:
        """Write rows back (WRITE/RW scatter).

        ``values`` has shape ``idx.shape + (dim,)``; ``idx`` targets must
        be unique — guaranteed by coloring for indirect arguments.
        """
        self._sync()
        if self.layout == "soa":
            self._storage[:, idx] = np.moveaxis(values, -1, 0)
        else:
            self._storage[idx] = values

    def scatter_add(
        self, idx: np.ndarray, values: np.ndarray, serialize: bool = True
    ) -> None:
        """Accumulate rows (INC scatter); ``values`` is ``idx.shape + (dim,)``.

        ``serialize=True`` applies lanes strictly in index order —
        correct when lanes collide (two_level scheme).  It runs one 1-D
        ``np.add.at`` per component: every ``(row, k)`` target still
        receives its lanes in index order, so the result is bitwise
        that of one 2-D ``np.add.at`` over whole rows, without the
        row-wise indexing machinery.  ``serialize=False`` is the permute
        schemes' free scatter: one fused ``+=`` that requires unique
        targets.
        """
        self._sync()
        if serialize:
            data = self._data
            for k in range(self.dim):
                np.add.at(data[:, k], idx, values[..., k])
        elif self.layout == "soa":
            self._storage[:, idx] += np.moveaxis(values, -1, 0)
        else:
            self._storage[idx] += values

    # ------------------------------------------------------------------
    def soa(self) -> np.ndarray:
        """Structure-of-arrays ``(dim, extent)`` *copy* of the values.

        Models the paper's GPU SoA transposition for AoS Dats; callers
        that mutate the copy must write it back with :meth:`from_soa`.
        (An SoA-layout Dat still returns a copy so the contract is
        layout-independent.)
        """
        self._sync()
        if self.layout == "soa":
            return self._storage.copy()
        return np.ascontiguousarray(self._storage.T)

    def from_soa(self, soa: np.ndarray) -> None:
        """Write back a (possibly modified) SoA copy from :meth:`soa`."""
        extent = self.data.shape[0]
        if soa.shape != (self.dim, extent):
            raise ValueError(
                f"SoA shape {soa.shape} does not match ({self.dim}, {extent})"
            )
        self.data[...] = soa.T

    def copy(self, name: Optional[str] = None) -> "Dat":
        """Deep copy (same set, fresh storage, same layout)."""
        return Dat(
            self.set, self.dim, np.array(self.data), self.dtype,
            name=name, layout=self.layout,
        )

    def zero(self) -> None:
        """In-place reset — cheaper than reallocating (guide: in-place ops)."""
        self._sync()
        self._storage[...] = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"Dat({self.name!r}, set={self.set.name}, dim={self.dim}, "
            f"dtype={self.dtype}, layout={self.layout})"
        )
