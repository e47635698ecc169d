"""Per-shape kernel compile cache — the runtime's fourth cache kind.

The paper's build flow generates each kernel's vectorized incarnation
once and reuses it for the whole run; here compilation happens lazily at
first execution and is memoized per ``(kernel, argument-shape)`` pair:

* the **IR parse** is cached on the :class:`~repro.core.kernel.Kernel`
  object itself (one parse per kernel, shared by every shape), and
* the **compiled vector callable** is cached here, keyed by the kernel's
  uid, the tuple of per-argument lane flags (READ globals are broadcast
  constants and stay scalar-shaped; every other argument gains the
  ``lanes`` axis) and the loop's compute dtype — all the emitter
  depends on.

Unvectorizable kernels cache a negative entry, so the scalar fallback
decision is also O(1) after first sight.  Counters (hits / misses /
failures / evictions) surface through :meth:`Runtime.stats` next to the
loop, plan and chain cache counters.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.access import IDX_ALL, Access, Arg
from ..core.glob import Global
from .ir import KernelIR, UnvectorizableKernel, parse_kernel
from .vector import compile_vector, emit_vector_source

#: Default LRU bound for compiled vector kernels.
DEFAULT_KERNELC_CACHE_ENTRIES = 512


def param_shapes(args: Sequence[Arg]) -> Tuple[Tuple[bool, Optional[int]], ...]:
    """Per-parameter (batched, fuse_dim) signature for the emitter.

    ``fuse_dim`` is the trailing-axis extent a ``range(dim)`` loop over
    the parameter may be fused across: the Dat's ``dim`` for plain data
    arguments and reduction globals, ``None`` for vector (``IDX_ALL``)
    arguments — whose single trailing index selects a map slot, not a
    component — and for scalar-shaped READ globals.
    """
    # Hot path: one call per eager par_loop dispatch, so classify with
    # direct attribute checks instead of the (lazily importing) Arg
    # properties.
    shapes = []
    for arg in args:
        dat = arg.dat
        if isinstance(dat, Global):
            if arg.access is Access.READ:
                shapes.append((False, None))
            else:
                shapes.append((True, int(dat.dim)))
        elif arg.index == IDX_ALL:
            shapes.append((True, None))
        else:
            shapes.append((True, int(dat.dim)))
    return tuple(shapes)


def compute_dtype(args: Sequence[Arg]) -> str:
    """The loop's floating compute dtype: its floating arguments'
    promoted dtype (``float64`` when it has none), the type the vector
    emitter casts lane-free select operands to."""
    ft = None
    for arg in args:
        dt = arg.dat.dtype
        if dt.kind == "f":
            ft = dt if ft is None else np.promote_types(ft, dt)
    return "float64" if ft is None else ft.name


def kernel_ir(kernel) -> KernelIR:
    """The kernel's parsed IR, cached on the Kernel object.

    Raises :class:`UnvectorizableKernel` (also cached) when the scalar
    source falls outside the vectorizable subset.
    """
    cached = getattr(kernel, "_kernelc_ir", None)
    if cached is None:
        try:
            cached = parse_kernel(kernel.scalar)
        except UnvectorizableKernel as exc:
            cached = exc
        kernel._kernelc_ir = cached
    if isinstance(cached, UnvectorizableKernel):
        raise cached
    return cached


def vectorizable(kernel) -> bool:
    """Whether a vector form can be derived from the scalar source."""
    try:
        kernel_ir(kernel)
    except UnvectorizableKernel:
        return False
    return True


class KernelCompileCache:
    """LRU-bounded map of (kernel uid, shape) -> compiled vector kernel."""

    def __init__(self, max_entries: Optional[int] = DEFAULT_KERNELC_CACHE_ENTRIES) -> None:
        self.max_entries = max_entries
        self._entries: OrderedDict[Tuple, Optional[object]] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.failures = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def vector_for(self, kernel, args: Sequence[Arg]):
        """Compiled batched kernel for this shape, or None (scalar only)."""
        key = (kernel._uid, param_shapes(args), compute_dtype(args))
        if key in self._entries:
            self.hits += 1
            self._entries.move_to_end(key)
            return self._entries[key]
        self.misses += 1
        try:
            fn = compile_vector(kernel_ir(kernel), *key[1:])
        except UnvectorizableKernel:
            self.failures += 1
            fn = None
        self._entries[key] = fn
        if self.max_entries is not None:
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
        return fn

    def vector_source_for(self, kernel, args: Sequence[Arg]) -> str:
        """Generated source text (for --dump-kernel and golden tests)."""
        return emit_vector_source(kernel_ir(kernel), param_shapes(args),
                                  compute_dtype(args))

    def stats(self) -> Dict[str, object]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "failures": self.failures,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "max_entries": self.max_entries,
        }

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.failures = 0
        self.evictions = 0


#: Process-wide cache: kernels and their generated forms are immutable,
#: so one cache serves every Runtime (stats are surfaced per-runtime
#: through Runtime.stats()).
GLOBAL_CACHE = KernelCompileCache()


def vector_kernel_for(kernel, args: Sequence[Arg]):
    return GLOBAL_CACHE.vector_for(kernel, args)


def vector_source_for(kernel, args: Sequence[Arg]) -> str:
    return GLOBAL_CACHE.vector_source_for(kernel, args)


def cache_stats() -> Dict[str, object]:
    return GLOBAL_CACHE.stats()


def clear_cache() -> None:
    GLOBAL_CACHE.clear()
