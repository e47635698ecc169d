"""SIMD substrate: vector-register emulation, branchless intrinsics and
the host's vector ISA.

``VecReg``/``IntVec``/``Mask`` model the paper's C++ wrapper classes over
AVX/IMCI registers (Fig 4); the intrinsics helpers (``select``, ``vsqrt``,
...) are the vocabulary vector kernels use instead of branches.
:func:`host_isa` / :func:`isa_flags` are the lane front-end of the
generated C (``kernelc/native.py``): the widest vector ISA this host
runs, and the compiler flags that target it.

Vector widths, following the paper: AVX holds 4 doubles / 8 floats
(256-bit), IMCI holds 8 doubles / 16 floats (512-bit).
"""

import functools
import platform
from typing import List

import numpy as np

from .intrinsics import select, vabs, vfma, vmax, vmin, vrecip, vsqrt
from .vecreg import IntVec, Mask, VecReg

#: Hardware vector widths in *lanes* per dtype (paper Section 2).
VECTOR_WIDTH = {
    ("avx", np.dtype(np.float64)): 4,
    ("avx", np.dtype(np.float32)): 8,
    ("imci", np.dtype(np.float64)): 8,
    ("imci", np.dtype(np.float32)): 16,
}


def vector_width(isa: str, dtype) -> int:
    """Lanes per register for an ISA/dtype pair."""
    key = (isa, np.dtype(dtype))
    if key not in VECTOR_WIDTH:
        raise KeyError(f"No vector width known for ISA {isa!r} dtype {dtype!r}")
    return VECTOR_WIDTH[key]


#: CPU flags (``/proc/cpuinfo``) of the x86-64 micro-architecture levels
#: the generated C targets, widest first, with the compiler flag for each.
_X86_LEVELS = (
    ("avx512", "-march=x86-64-v4",
     {"avx512f", "avx512bw", "avx512cd", "avx512dq", "avx512vl"}),
    ("avx2", "-march=x86-64-v3",
     {"avx", "avx2", "bmi1", "bmi2", "f16c", "fma", "abm", "movbe",
      "xsave"}),
)


def _cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


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
    "IntVec",
    "Mask",
    "VECTOR_WIDTH",
    "VecReg",
    "host_isa",
    "isa_flags",
    "select",
    "vabs",
    "vfma",
    "vmax",
    "vmin",
    "vrecip",
    "vsqrt",
    "vector_width",
]
