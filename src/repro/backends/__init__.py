"""Execution backends for parallel loops.

See :mod:`repro.backends.base` for the mapping between backends and the
paper's parallelization strategies.
"""

from .base import Backend, LoopStats, gather_batch, scatter_batch
from .native import NativeBackend
from .sequential import SequentialBackend
from .vectorized import VectorizedBackend

__all__ = [
    "Backend",
    "LoopStats",
    "NativeBackend",
    "SequentialBackend",
    "VectorizedBackend",
    "gather_batch",
    "scatter_batch",
]
