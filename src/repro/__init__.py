"""repro — reproduction of "Vectorizing Unstructured Mesh Computations for
Many-core Architectures" (Reguly, László, Mudalige, Giles).

An OP2-like domain-specific library for unstructured-mesh computations
with scalar, explicitly-vectorized (SIMD) and native-C execution
backends, three applications (the Airfoil CFD benchmark, the Volna
shallow-water tsunami solver and an aero FEM solve), and a calibrated
performance model regenerating every table and figure of the paper's
evaluation.

Quickstart::

    import numpy as np
    from repro import Set, Dat, Map, par_loop, arg_dat, READ, INC, kernel

    nodes = Set(4, "nodes")
    edges = Set(3, "edges")
    e2n = Map(edges, nodes, 2, np.array([[0, 1], [1, 2], [2, 3]]), "e2n")
    w = Dat(edges, 1, np.ones(3), name="weights")
    acc = Dat(nodes, 1, name="acc")

    @kernel("spmv_row", flops=2)
    def spmv(wt, out0, out1):
        out0[0] += wt[0]
        out1[0] += wt[0]

    # Batched (SIMD-style) forms are generated automatically from the
    # scalar source by the kernel compiler (repro.kernelc) — users
    # write scalar kernels only.
    par_loop(spmv, edges,
             arg_dat(w, -1, None, READ),
             arg_dat(acc, 0, e2n, INC),
             arg_dat(acc, 1, e2n, INC))
"""

from .core import (
    IDX_ALL,
    IDX_ID,
    INC,
    MAX,
    MIN,
    READ,
    RW,
    WRITE,
    Access,
    Arg,
    Dat,
    Global,
    Kernel,
    KernelInfo,
    LoopChain,
    Map,
    Plan,
    Repeat,
    Runtime,
    Set,
    arg_dat,
    arg_gbl,
    build_plan,
    chain,
    default_runtime,
    identity_map,
    kernel,
    make_backend,
    par_loop,
    set_backend,
)

__version__ = "1.0.0"

__all__ = [
    "Access",
    "Arg",
    "Dat",
    "Global",
    "IDX_ALL",
    "IDX_ID",
    "INC",
    "Kernel",
    "KernelInfo",
    "LoopChain",
    "MAX",
    "MIN",
    "Map",
    "Plan",
    "READ",
    "RW",
    "Repeat",
    "Runtime",
    "Set",
    "WRITE",
    "arg_dat",
    "arg_gbl",
    "build_plan",
    "chain",
    "default_runtime",
    "identity_map",
    "kernel",
    "make_backend",
    "par_loop",
    "set_backend",
    "__version__",
]
