#!/usr/bin/env python3
"""Quickstart: the OP2-style API in ~80 lines — eager and chained.

Builds a tiny unstructured problem (a ring of edges over nodes), declares
data and connectivity, and runs one indirect parallel loop — the
sparse-matrix-vector pattern of the paper's Fig 1b — two ways:

1. **eager**: every ``par_loop`` dispatches immediately;
2. **chained** (deferred): ``with rt.chain():`` records the loops and
   flushes them as one pre-analyzed, fused, memoized schedule — the
   loop-chain execution model a steady-state time step wants;
3. **tiled**: ``with rt.chain(tiling=...):`` additionally runs the whole
   chain tile-by-tile (sparse tiling, ``repro/tiling``) so data written
   by one loop is still cache-hot when the next loop reads it.

All styles produce bitwise-identical results on every backend.

Run:  python examples/quickstart.py
"""

import _bootstrap  # noqa: F401  (sys.path setup for source checkouts)

import numpy as np

from repro import (
    INC,
    READ,
    WRITE,
    Dat,
    Map,
    Runtime,
    Set,
    arg_dat,
    kernel,
    par_loop,
)

# 1. Sets: the mesh is just named sizes.
N = 1000
nodes = Set(N, "nodes")
edges = Set(N, "edges")

# 2. Connectivity: each edge links node i to node i+1 (a ring).
conn = np.stack([np.arange(N), (np.arange(N) + 1) % N], axis=1)
edge2node = Map(edges, nodes, 2, conn, "edge2node")

# 3. Data on sets.
rng = np.random.default_rng(7)
weights = Dat(edges, 1, rng.random(N), name="weights")
result = Dat(nodes, 1, name="result")
scaled = Dat(edges, 1, name="scaled")


# 4. Elementary kernels: scalar form only — the batched (vectorized)
#    incarnation is *generated* from this source by the kernel compiler
#    (repro.kernelc), exactly as the paper's code generator derives the
#    intrinsics version from the user kernel.  Inspect the generated
#    code with `python -m repro.bench --dump-kernel <name>`.
@kernel("scale_edge", flops=1, description="direct scale")
def scale_edge(w, s):
    s[0] = 3.0 * w[0]


@kernel("spmv_edge", flops=4, description="SpMV over edges")
def spmv_edge(s, r0, r1):
    r0[0] += s[0]
    r1[0] += 2.0 * s[0]


def loops(rt):
    """The two-loop 'time step': a direct scale feeding an indirect SpMV."""
    par_loop(
        scale_edge, edges,
        arg_dat(weights, -1, None, READ),
        arg_dat(scaled, -1, None, WRITE),
        runtime=rt,
    )
    par_loop(
        spmv_edge, edges,
        arg_dat(scaled, -1, None, READ),     # direct read
        arg_dat(result, 0, edge2node, INC),  # indirect increment, slot 0
        arg_dat(result, 1, edge2node, INC),  # indirect increment, slot 1
        runtime=rt,
    )


def run_eager(backend: str, scheme: str = "two_level") -> np.ndarray:
    result.zero()
    rt = Runtime(backend=backend, scheme=scheme, block_size=128)
    loops(rt)
    return result.data.copy()


def run_chained(backend: str, scheme: str = "two_level") -> np.ndarray:
    result.zero()
    rt = Runtime(backend=backend, scheme=scheme, block_size=128)
    # 5. Deferred execution: the par_loops inside the block are *traced*,
    #    not run.  At exit the chain analyzes dependencies (the SpMV
    #    reads what the scale wrote), fuses what is provably safe, and
    #    replays a memoized schedule on every subsequent identical trace.
    with rt.chain():
        loops(rt)
    # (Reading result.data below is also a legal flush point: Dats carry
    # read barriers, so a chained program can never observe stale data.)
    return result.data.copy()


def run_tiled(backend: str, scheme: str = "two_level") -> np.ndarray:
    result.zero()
    rt = Runtime(backend=backend, scheme=scheme, block_size=128)
    # 6. Sparse tiling: the inspector splits the chain into seed tiles of
    #    the first loop, projects them through edge2node so the SpMV's
    #    slices respect every dependency, and the executor replays both
    #    loops tile-by-tile — cross-loop cache locality, same bits.
    with rt.chain(tiling=128):
        loops(rt)
    return result.data.copy()


if __name__ == "__main__":
    reference = run_eager("sequential")
    print(f"sequential   result[:4] = {reference[:4].ravel().round(4)}")
    for backend, scheme in [
        ("vectorized", "two_level"),
        ("vectorized", "full_permute"),
        ("vectorized", "block_permute"),
    ]:
        eager = run_eager(backend, scheme)
        chained = run_chained(backend, scheme)
        tiled = run_tiled(backend, scheme)
        ok = np.allclose(eager, reference)
        identical = np.array_equal(chained, eager)
        tiled_identical = np.array_equal(tiled, eager)
        print(
            f"{backend:11s} ({scheme:13s}) matches sequential: {ok}  "
            f"chained == eager bitwise: {identical}  "
            f"tiled == eager bitwise: {tiled_identical}"
        )
        assert ok and identical and tiled_identical
    print(
        "\nAll backends agree, and the deferred LoopChain execution is "
        "bitwise identical to eager dispatch — same coloring machinery, "
        "one pre-analyzed schedule per time step."
    )
