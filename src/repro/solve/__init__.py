"""Sparse linear solvers built *on top of* the par_loop abstraction.

The aero workload closes with a conjugate-gradient solve; instead of a
host-side solver this package expresses *all* of it — SpMV, the vector
updates, the dot products (``Global`` reductions folded in ascending
element order) and the scalar algebra between them (single-element
loops that store into Globals) — as ordinary parallel loops, so the
solver inherits every runtime capability for free: backend choice, data
layouts, deferred-execution tracing and sparse tiling, and a whole
solve is one loop chain with a convergence-tested back edge
(``runtime.chain(repeat=...)``) with every CG scalar bitwise identical
across backends.
"""

from .cg import CGResult, MatOperator, cg
from .kernels import make_cg_kernels, make_spmv_kernel
from .matfree import (
    MAX_FOLD_CONTRIBUTIONS,
    MatFreeOperator,
    make_matfree_kernels,
)

__all__ = [
    "CGResult",
    "MatOperator",
    "MatFreeOperator",
    "MAX_FOLD_CONTRIBUTIONS",
    "cg",
    "make_cg_kernels",
    "make_matfree_kernels",
    "make_spmv_kernel",
]
