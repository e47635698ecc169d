"""Global scalars/small vectors with reduction semantics (OP2 ``op_gbl``).

Airfoil's ``update`` kernel accumulates an RMS residual and Volna's
``numerical_flux`` computes a global minimum time step; both are expressed
as :class:`Global` arguments with ``INC``/``MIN`` access.  Backends combine
per-lane / per-thread partial reductions exactly the way the paper's
OpenCL backend does (vector accumulator, folded at the end).
"""

from __future__ import annotations

import itertools
from typing import Optional

import numpy as np

from . import dat as _dat
from .access import Access

_gbl_counter = itertools.count()


class Global:
    """A global value shared by every iteration of a parallel loop."""

    def __init__(
        self,
        dim: int,
        value=0.0,
        dtype: np.dtype = np.float64,
        name: Optional[str] = None,
    ) -> None:
        if dim < 1:
            raise ValueError(f"Global dim must be >= 1, got {dim}")
        self.dim = int(dim)
        self.name = name if name is not None else f"gbl_{next(_gbl_counter)}"
        # One uid space with Dats: a loop argument's uid says which
        # object it touches without asking what kind it is.
        self._uid = next(_dat._dat_counter)
        self._data = np.zeros(dim, dtype=dtype)
        self._data[...] = value
        #: Pending :class:`~repro.core.chain.LoopChain` touching this
        #: global; host access through :attr:`value` or :attr:`data`
        #: flushes it first (mirrors the :class:`~repro.core.dat.Dat`
        #: read barrier).
        self._barrier = None

    def _sync(self) -> None:
        if _dat._on_host_access is not None:
            _dat._on_host_access()
        barrier = self._barrier
        if barrier is not None:
            barrier.flush()

    @property
    def data(self) -> np.ndarray:
        """The ``(dim,)`` value array.

        Reading it while a loop chain has pending loops touching this
        global flushes the chain first, so host code can never observe
        a stale reduction value through either accessor.
        """
        self._sync()
        return self._data

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def value(self):
        """Scalar convenience accessor for dim-1 globals.

        Reading *or writing* it flushes any pending loop chain first: a
        pending reduction must land before a read, and a pending reader
        must observe the pre-write value — exactly eager ordering.
        """
        self._sync()
        return self._data[0] if self.dim == 1 else self._data.copy()

    @value.setter
    def value(self, v) -> None:
        self._sync()
        self._data[...] = v

    def identity_for(self, access: Access) -> np.ndarray:
        """Reduction identity element for a given access mode."""
        if access is Access.INC:
            return np.zeros(self.dim, dtype=self.dtype)
        if access is Access.MIN:
            return np.full(self.dim, _type_max(self.dtype), dtype=self.dtype)
        if access is Access.MAX:
            return np.full(self.dim, _type_min(self.dtype), dtype=self.dtype)
        raise ValueError(f"No reduction identity for access {access}")

    def combine(self, access: Access, partial: np.ndarray) -> None:
        """Fold a partial reduction result into the global value.

        Backend-side: folds run after barriers are disarmed, so this
        writes the raw storage directly.
        """
        partial = np.asarray(partial, dtype=self.dtype).reshape(self.dim)
        if access is Access.INC:
            self._data += partial
        elif access is Access.MIN:
            np.minimum(self._data, partial, out=self._data)
        elif access is Access.MAX:
            np.maximum(self._data, partial, out=self._data)
        else:
            raise ValueError(f"Cannot combine with access {access}")

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Global({self.name!r}, dim={self.dim}, value={self.data!r})"


def _type_max(dtype: np.dtype):
    return np.finfo(dtype).max if np.issubdtype(dtype, np.floating) else np.iinfo(dtype).max


def _type_min(dtype: np.dtype):
    return np.finfo(dtype).min if np.issubdtype(dtype, np.floating) else np.iinfo(dtype).min
