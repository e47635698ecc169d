"""kernelc — the kernel-compilation subsystem (IR + three emitters).

The paper's central mechanism is a code generator that turns one
high-level kernel into specialized scalar *and* vectorized
implementations (Fig 2b's generated stubs; Section 4's cross-element
SIMD kernels).  This package is that generator:

``ir``
    :func:`parse_kernel` reads a scalar Python kernel with :mod:`ast`
    and lowers it into a small validated IR (straight-line statements,
    per-argument loads/stores, branches, bounded ``range`` loops).
``scalar``
    The specialized per-shape *loop stub* emitter, covering direct,
    indirect, vector — including vector INC — and global-reduction
    arguments.
``vector``
    The batched-kernel emitter: one NumPy function over ``(lanes, dim)``
    gathered blocks per argument-shape signature, branches lowered to
    ``select`` masks, results bitwise identical to the scalar form.
``native``
    The chain-level C emitter: a whole traced loop chain (or one eager
    loop) lowered to a single C translation unit, compiled with the
    system compiler and replayed through cffi — bitwise identical to
    sequential eager execution, with a sha256-keyed on-disk ``.so``
    cache (the runtime's sixth cache kind).
``cache``
    The per-shape compile cache (the runtime's fifth cache kind,
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
    batched_flags,
    cache_stats,
    clear_cache,
    kernel_ir,
    param_shapes,
    vector_kernel_for,
    vector_source_for,
    vectorizable,
)
from .ir import KernelIR, UnvectorizableKernel, parse_kernel
from .native import (
    NativeUnsupported,
    build_chain_program,
    build_eager_program,
    compiler_available,
    emit_chain_source,
    native_cache_dir,
    native_cache_stats,
    reset_native_cache,
    source_key,
)
from .scalar import compile_loop, generate_loop_source, loop_shape_key, supports
from .vector import VectorEmitter, compile_vector, emit_vector_source

__all__ = [
    "DEFAULT_KERNELC_CACHE_ENTRIES",
    "GLOBAL_CACHE",
    "KernelCompileCache",
    "KernelIR",
    "NativeUnsupported",
    "UnvectorizableKernel",
    "VectorEmitter",
    "batched_flags",
    "build_chain_program",
    "build_eager_program",
    "cache_stats",
    "clear_cache",
    "compile_loop",
    "compile_vector",
    "compiler_available",
    "emit_chain_source",
    "emit_vector_source",
    "estimate_flops",
    "generate_loop_source",
    "kernel_ir",
    "loop_shape_key",
    "native_cache_dir",
    "native_cache_stats",
    "param_shapes",
    "parse_kernel",
    "reset_native_cache",
    "source_key",
    "supports",
    "vector_kernel_for",
    "vector_source_for",
    "vectorizable",
]
