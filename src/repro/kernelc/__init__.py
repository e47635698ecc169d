"""kernelc — the kernel-compilation subsystem (IR, one lowering, two printers).

The paper's central mechanism is a code generator that turns one
high-level kernel into specialized scalar *and* vectorized
implementations (Fig 2b's generated stubs; Section 4's cross-element
SIMD kernels).  This package is that generator:

``ir``
    :func:`parse_kernel` reads a scalar Python kernel with :mod:`ast`
    and lowers it into a small validated IR (straight-line statements,
    per-argument loads/stores, branches, bounded ``range`` loops).
``lower``
    What each operation of the IR means — the op table (scalar
    semantics, C spelling, NumPy lane form, flop price), literal typing
    against the loop's compute dtype, compile-time folding, helpers.
``vector``
    The NumPy printer: one batched function over ``(lanes, dim)``
    gathered blocks per argument-shape signature, branches lowered to
    ``select`` masks, results bitwise identical to the scalar form.
``native`` and ``build``
    The C printer: a whole traced loop chain (or one eager loop) as a
    single C translation unit, bitwise identical to sequential eager
    execution; ``build`` compiles it with the system compiler, caches
    the ``.so`` by sha256 (the runtime's fifth cache kind) and loads it
    through cffi.
``cache``
    The per-shape vector compile cache (the runtime's fourth cache kind,
    surfaced in :meth:`Runtime.stats`).

Applications write **only scalar kernels**; every batched backend
requests the generated vector form through
:meth:`repro.core.kernel.Kernel.vector_for`.
"""

from .flops import estimate_flops
from .cache import (
    DEFAULT_KERNELC_CACHE_ENTRIES,
    GLOBAL_CACHE,
    KernelCompileCache,
    cache_stats,
    clear_cache,
    compute_dtype,
    kernel_ir,
    param_shapes,
    vector_kernel_for,
    vector_source_for,
    vectorizable,
)
from .ir import KernelIR, UnvectorizableKernel, parse_kernel
from .build import (
    compiler_available,
    native_cache_dir,
    native_cache_stats,
    reset_native_cache,
    source_key,
)
from .native import (
    NativeUnsupported,
    build_chain_program,
    build_eager_program,
    emit_chain_source,
)
from .vector import VectorEmitter, compile_vector, emit_vector_source

__all__ = [
    "DEFAULT_KERNELC_CACHE_ENTRIES",
    "GLOBAL_CACHE",
    "KernelCompileCache",
    "KernelIR",
    "NativeUnsupported",
    "UnvectorizableKernel",
    "VectorEmitter",
    "build_chain_program",
    "build_eager_program",
    "cache_stats",
    "clear_cache",
    "compile_vector",
    "compiler_available",
    "compute_dtype",
    "emit_chain_source",
    "emit_vector_source",
    "estimate_flops",
    "kernel_ir",
    "native_cache_dir",
    "native_cache_stats",
    "param_shapes",
    "parse_kernel",
    "reset_native_cache",
    "source_key",
    "vector_kernel_for",
    "vector_source_for",
    "vectorizable",
]
