"""SIMD substrate: branchless intrinsics and the host's vector ISA.

The intrinsics (``select``, ``vsqrt``, ...) are the vocabulary vector
kernels use instead of branches; ``repro.kernelc`` lowers them to NumPy
calls and C expressions.  :func:`host_isa` / :func:`isa_flags` are the
lane front-end of the generated C (``kernelc/native.py``): the widest
vector ISA this host runs, and the compiler flags that target it.
"""

import functools
import platform
from typing import List

from .intrinsics import select, vabs, vfma, vmax, vmin, vrecip, vsqrt

#: CPU features (as named by NumPy's runtime dispatch table) of the
#: x86-64 micro-architecture levels the generated C targets, widest
#: first, with the compiler flag for each.
_X86_LEVELS = (
    ("avx512", "-march=x86-64-v4",
     {"AVX512F", "AVX512BW", "AVX512CD", "AVX512DQ", "AVX512VL"}),
    ("avx2", "-march=x86-64-v3",
     {"AVX", "AVX2", "BMI", "BMI2", "F16C", "FMA3", "LZCNT", "MOVBE"}),
)


def _cpu_flags() -> set:
    """The CPU features NumPy detected at import (CPUID plus OS support
    for the wider register state).  A feature an older NumPy does not
    know is absent, so it can only narrow the chosen ISA."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # NumPy 1.x
        try:
            from numpy.core._multiarray_umath import __cpu_features__
        except ImportError:
            return set()
    return {name for name, on in __cpu_features__.items() if on}


@functools.lru_cache(maxsize=None)
def host_isa() -> str:
    """The widest vector ISA of this host that the generated C targets:
    ``"avx512"`` or ``"avx2"`` (x86-64 levels v4 / v3), else
    ``"baseline"`` — the compiler's default target (SSE2 on x86-64,
    NEON on arm64)."""
    if platform.machine() in ("x86_64", "AMD64"):
        flags = _cpu_flags()
        for isa, _, needs in _X86_LEVELS:
            if needs <= flags:
                return isa
    return "baseline"


def isa_flags() -> List[str]:
    """C compiler flags targeting :func:`host_isa`.  They pick
    instructions, never results: the emitted C forbids contraction and
    reassociation, so every ISA computes the same bits."""
    isa = host_isa()
    return [flag for name, flag, _ in _X86_LEVELS if name == isa]


__all__ = [
    "host_isa",
    "isa_flags",
    "select",
    "vabs",
    "vfma",
    "vmax",
    "vmin",
    "vrecip",
    "vsqrt",
]
