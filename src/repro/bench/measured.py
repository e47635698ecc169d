"""Measured (wall-clock) experiments on this machine's Python backends.

The analytical model reconstructs the paper's 2013 hardware; these
functions measure what *our* implementation actually achieves here:
the scalar-interpreter vs batched-NumPy gap plays the role of the
scalar-vs-intrinsics gap (one interpreted instruction per element vs one
per vector), so the headline "vectorization pays ~2x" claim has a live,
measured counterpart.
"""

from __future__ import annotations

import time
from typing import Dict, Optional

import numpy as np

from ..apps.aero import AeroSim
from ..apps.airfoil import AirfoilSim
from ..apps.volna import VolnaSim
from ..core import Runtime, make_backend
from ..mesh import UnstructuredMesh, make_airfoil_mesh, make_tri_mesh
from .harness import ReportTable

#: Backend configurations measured, mirroring the paper's strategies.
#: "vectorized" defaults to the whole-color batched fast path; the
#: chunked entry keeps the hardware-faithful per-chunk loop for contrast.
MEASURED_CONFIGS = {
    "scalar (sequential)": ("sequential", "two_level", {}),
    "scalar generated stub (codegen)": ("codegen", "two_level", {}),
    "scalar colored (openmp)": ("openmp", "two_level", {}),
    "SIMT (opencl analogue)": ("simt", "two_level", {"device": "cpu"}),
    "vectorized chunked (vec=8)": ("vectorized", "two_level", {"vec": 8}),
    "vectorized (intrinsics analogue)": ("vectorized", "two_level", {}),
    "vectorized full permute": ("vectorized", "full_permute", {}),
    "vectorized block permute": ("vectorized", "block_permute", {}),
    "auto-vectorized (autovec)": ("autovec", "full_permute", {}),
}


def time_app(
    app: str,
    backend: str,
    scheme: str,
    options: Dict,
    mesh: Optional[UnstructuredMesh] = None,
    steps: int = 2,
    block_size: int = 256,
    repeats: int = 1,
    layout: Optional[str] = None,
    cold_caches: bool = False,
    chained: Optional[bool] = False,
    tiling=None,
    strip_vector_forms: bool = False,
    operator: Optional[str] = None,
    cg_tol: Optional[float] = None,
    warm_steps: int = 1,
) -> float:
    """Median wall-clock seconds for ``steps`` solver steps.

    ``layout`` selects the Dat storage layout the sim allocates under
    (``"aos"``/``"soa"``); ``cold_caches=True`` drops the runtime's plan
    and loop caches before every step, so each step pays full plan
    construction and gather-index rebuild — the caching ablation's
    baseline.  ``chained=True`` runs the time step as a deferred loop
    chain (trace → memoized fused schedule) instead of eager per-loop
    dispatch; ``tiling`` additionally lowers the chain to a sparse-tiled
    schedule (``"auto"`` or a seed tile size — see ``repro/tiling``).
    ``strip_vector_forms=True`` removes any explicitly attached
    ``Kernel.vector`` callables so the batched backends must run
    kernelc-generated kernels (the kernelc ablation's knob; a no-op
    when the app ships only scalar kernels).

    ``backend="auto"`` measures the auto-tuning runtime: the sim is
    built under ``Runtime("auto")`` (probe + decide happens during
    construction, outside the timed region) and then timed on whatever
    configuration the tuner picked; pass ``chained=None`` to leave the
    dispatch mode to the tuner too.

    ``operator`` and ``cg_tol`` are aero-only: the operator realization
    knob ("assembled"/"matfree"; ``None`` keeps the driver default,
    which under ``backend="auto"`` leaves the axis to the tuner) and an
    override for the fixed CG tolerance (the matfree ablation measures
    the assembly-dominated loose-tolerance regime).  ``warm_steps``
    runs extra untimed steps beyond the cache warm-up — aero's early
    Picard steps spend far more CG iterations than the warm-started
    steady state, so build-phase ablations warm past them.
    """
    times = []
    for _ in range(max(1, repeats)):
        if backend == "auto":
            rt = Runtime(
                backend="auto", scheme=scheme, block_size=block_size,
                layout=layout,
            )
        else:
            rt = Runtime(
                backend=make_backend(backend, **options),
                scheme=scheme, block_size=block_size, layout=layout,
            )
        if app == "airfoil":
            sim = AirfoilSim(
                mesh if mesh is not None else make_airfoil_mesh(48, 24),
                runtime=rt, chained=chained, tiling=tiling,
            )
        elif app == "volna":
            sim = VolnaSim(
                mesh if mesh is not None else make_tri_mesh(
                    28, 21, 100_000.0, 75_000.0
                ),
                dtype=np.float64, runtime=rt, chained=chained,
                tiling=tiling,
            )
        elif app == "aero":
            # One "step" = one Picard iteration (assembly + CG solve);
            # fixed solver controls keep steps comparable across
            # backends (the iterate sequence is bitwise identical, so
            # every backend runs the same CG iteration count).
            sim = AeroSim(
                mesh if mesh is not None else make_airfoil_mesh(24, 12),
                runtime=rt, chained=chained, tiling=tiling,
                cg_tol=1e-8 if cg_tol is None else cg_tol, cg_maxiter=100,
                **({} if operator is None else {"operator": operator}),
            )
        else:
            raise ValueError(f"Unknown app {app!r}")
        if strip_vector_forms:
            for k in sim.kernels.values():
                k.vector = None
        for _ in range(max(1, warm_steps)):  # builds and caches all plans
            sim.step()
        if cold_caches:
            t0 = time.perf_counter()
            for _ in range(steps):
                rt.clear_caches()
                sim.step()
        else:
            t0 = time.perf_counter()
            sim.run(steps)
        times.append((time.perf_counter() - t0) / steps)
    return float(np.median(times))


def measured_speedups(
    app: str = "airfoil",
    mesh: Optional[UnstructuredMesh] = None,
    steps: int = 2,
    configs: Optional[Dict] = None,
) -> ReportTable:
    """Wall-clock per-step times and speedups over the scalar backend."""
    configs = configs if configs is not None else MEASURED_CONFIGS
    t = ReportTable(f"Measured backend performance - {app} (this machine)")
    for label, (backend, scheme, options) in configs.items():
        dt = time_app(app, backend, scheme, options, mesh=mesh, steps=steps)
        t.add(Backend=label, **{"s/step": dt})
    # Speedups from the raw times; round for display only afterwards.
    t.add_speedup_column("s/step")
    for r in t.rows:
        r["s/step"] = round(float(r["s/step"]), 4)
    t.note(
        "Python analogue of the paper's scalar-vs-intrinsics gap: "
        "batched NumPy execution is the SIMD stand-in "
        "(docs/architecture.md section 4)."
    )
    return t


# ----------------------------------------------------------------------
# Ablations for the layout / batching / caching knobs.
# ----------------------------------------------------------------------

def batch_ablation(
    app: str = "airfoil",
    mesh: Optional[UnstructuredMesh] = None,
    steps: int = 3,
    schemes=("two_level", "full_permute", "block_permute"),
) -> ReportTable:
    """Whole-color mega-batch vs chunked execution, per scheme.

    The headline number for the fast path: the same vectorized backend
    run (a) chunked at a hardware-faithful vec=8, (b) chunked with
    unbounded lanes (the old vec=None behaviour: one batched call per
    block/color *slice*), and (c) whole-color batched with cached gather
    indices (one fused call per conflict-free color).
    """
    t = ReportTable(
        f"Ablation: whole-color batched vs chunked execution - {app}"
    )
    t.meta.update({"app": app, "steps": steps, "knob": "batch"})
    for scheme in schemes:
        chunk8 = time_app(app, "vectorized", scheme, {"vec": 8},
                          mesh=mesh, steps=steps)
        chunk = time_app(app, "vectorized", scheme, {"batch": "chunk"},
                         mesh=mesh, steps=steps)
        color = time_app(app, "vectorized", scheme, {},
                         mesh=mesh, steps=steps)
        t.add(
            scheme=scheme,
            **{
                "chunked vec=8 ms/step": round(chunk8 * 1e3, 2),
                "chunked ms/step": round(chunk * 1e3, 2),
                "whole-color ms/step": round(color * 1e3, 2),
                "speedup vs chunked": round(chunk / color, 2),
                "speedup vs vec=8": round(chunk8 / color, 2),
            },
        )
    t.note(
        "Whole-color batching executes an entire conflict-free color as "
        "one fused gather/kernel/scatter with plan-cached indices "
        "(core/plan.py Phase); chunked loops pay per-chunk Python "
        "dispatch, the analogue of the function-pointer overhead OP2's "
        "code generation removes."
    )
    return t


def layout_ablation(
    app: str = "airfoil",
    mesh: Optional[UnstructuredMesh] = None,
    steps: int = 3,
) -> ReportTable:
    """AoS vs SoA Dat storage under the batched backends (paper Sec. 5)."""
    configs = {
        "vectorized two_level": ("vectorized", "two_level", {}),
        "vectorized full permute": ("vectorized", "full_permute", {}),
        "autovec full permute": ("autovec", "full_permute", {}),
        "SIMT (opencl analogue)": ("simt", "two_level", {"device": "cpu"}),
    }
    t = ReportTable(f"Ablation: AoS vs SoA data layout - {app}")
    t.meta.update({"app": app, "steps": steps, "knob": "layout"})
    for label, (backend, scheme, options) in configs.items():
        aos = time_app(app, backend, scheme, options, mesh=mesh,
                       steps=steps, layout="aos")
        soa = time_app(app, backend, scheme, options, mesh=mesh,
                       steps=steps, layout="soa")
        t.add(
            Backend=label,
            **{
                "AoS ms/step": round(aos * 1e3, 2),
                "SoA ms/step": round(soa * 1e3, 2),
                "SoA speedup": round(aos / soa, 2),
            },
        )
    t.note(
        "Results are bitwise layout-independent (Dat presents the same "
        "logical view); only gather/scatter memory order changes.  NumPy "
        "fancy-indexing absorbs much of the locality gap the paper "
        "measures on real SIMD/GPU hardware."
    )
    return t


def cache_ablation(
    app: str = "airfoil",
    mesh: Optional[UnstructuredMesh] = None,
    steps: int = 3,
) -> ReportTable:
    """Warm plan/loop/gather-index caches vs cold re-planning each step."""
    t = ReportTable(f"Ablation: cached vs cold planning - {app}")
    t.meta.update({"app": app, "steps": steps, "knob": "plan cache"})
    for label, (backend, scheme, options) in {
        "vectorized whole-color": ("vectorized", "two_level", {}),
        "vectorized full permute": ("vectorized", "full_permute", {}),
    }.items():
        warm = time_app(app, backend, scheme, options, mesh=mesh,
                        steps=steps)
        cold = time_app(app, backend, scheme, options, mesh=mesh,
                        steps=steps, cold_caches=True)
        t.add(
            Backend=label,
            **{
                "cold ms/step": round(cold * 1e3, 2),
                "warm ms/step": round(warm * 1e3, 2),
                "caching speedup": round(cold / warm, 2),
            },
        )
    t.note(
        "Cold runs clear the runtime's two-level plan cache before every "
        "step: each step pays coloring, plan build and gather-index "
        "reconstruction.  Warm runs re-derive nothing — OP2's "
        "plan-reuse argument, measured."
    )
    return t


def loop_chain_ablation(
    mesh: Optional[UnstructuredMesh] = None,
    steps: int = 20,
) -> ReportTable:
    """Chained (deferred, fused, memoized) vs eager warm execution.

    Both sides run with warm plan/loop caches — the comparison isolates
    what the loop-chain redesign adds *on top of* plan caching: no
    per-loop validation or cache lookups, fused adjacent direct loops,
    and a precompiled replay program with prebound views, gather
    indices and buffers (``ablation_loop_chain`` is the acceptance
    artifact: chained ≥ 1.2x on the vectorized backend).
    """
    configs = {
        ("airfoil", "vectorized two_level"): ("airfoil", "vectorized",
                                              "two_level", {}),
        ("airfoil", "vectorized full permute"): ("airfoil", "vectorized",
                                                 "full_permute", {}),
        ("airfoil", "autovec full permute"): ("airfoil", "autovec",
                                              "full_permute", {}),
        ("airfoil", "scalar (sequential)"): ("airfoil", "sequential",
                                             "two_level", {}),
        ("volna", "vectorized two_level"): ("volna", "vectorized",
                                            "two_level", {}),
    }
    t = ReportTable(
        "Ablation: deferred loop chain vs eager dispatch (warm caches)"
    )
    t.meta.update({"steps": steps, "knob": "loop chain"})
    for (app, label), (app_, backend, scheme, options) in configs.items():
        m = mesh if app == "airfoil" else None
        eager = time_app(app_, backend, scheme, options, mesh=m,
                         steps=steps, chained=False)
        chained = time_app(app_, backend, scheme, options, mesh=m,
                           steps=steps, chained=True)
        t.add(
            app=app,
            Backend=label,
            **{
                "eager ms/step": round(eager * 1e3, 3),
                "chained ms/step": round(chained * 1e3, 3),
                "chained speedup": round(eager / chained, 2),
            },
        )
    t.note(
        "Chained steps trace par_loops into a LoopChain, replay a "
        "memoized pre-fused schedule (runtime chain cache), and on the "
        "batched backends execute through prepared per-phase programs "
        "(core/chain.py, backends/vectorized.py).  The sequential row "
        "shows the generic fallback: correctness without the fast path."
    )
    return t


def tiling_ablation(
    steps: int = 10,
    tile_sizes=("auto", 4096, 16384),
    meshes=None,
) -> ReportTable:
    """Sparse-tiled vs fused chained execution, tile size × backend.

    Both sides are warm deferred chains replaying prepared programs —
    the comparison isolates what tile-major execution adds on top of
    the fused fast path: consecutive loops of a time-step segment walk
    one cache-resident tile at a time instead of streaming the whole
    mesh per loop (``ablation_tiling`` is the acceptance artifact:
    warm tiled ≥ 1.1x over warm fused for at least one backend /
    mesh-size point at paper-scale meshes).
    """
    if meshes is None:
        meshes = {
            ("airfoil", "480x240"): make_airfoil_mesh(480, 240),
            ("airfoil", "720x360"): make_airfoil_mesh(720, 360),
            ("volna", "340x255"): make_tri_mesh(
                340, 255, 100_000.0, 75_000.0
            ),
        }
    configs = {
        "vectorized two_level": ("vectorized", "two_level", {}),
        "vectorized block permute": ("vectorized", "block_permute", {}),
    }
    t = ReportTable(
        "Ablation: sparse-tiled vs fused loop-chain execution (warm)"
    )
    t.meta.update({"steps": steps, "knob": "sparse tiling",
                   "tile_sizes": [str(s) for s in tile_sizes]})
    # One mesh object per entry, shared by every config and tile size
    # (so its memoised ``localize`` numbering is too), keeps
    # fused-vs-tiled apples-to-apples.
    for (app, mesh_name), mesh in meshes.items():
        for label, (backend, scheme, options) in configs.items():
            fused = time_app(app, backend, scheme, options, mesh=mesh,
                             steps=steps, chained=True)
            row = {
                "app": app,
                "mesh": mesh_name,
                "Backend": label,
                "fused ms/step": round(fused * 1e3, 2),
            }
            best = 0.0
            for size in tile_sizes:
                tiled = time_app(app, backend, scheme, options, mesh=mesh,
                                 steps=steps, chained=True, tiling=size)
                row[f"tile={size} ms/step"] = round(tiled * 1e3, 2)
                best = max(best, fused / tiled)
            row["best tiled speedup"] = round(best, 2)
            t.add(**row)
    t.note(
        "Tiled chains replay the sparse-tiling inspector's schedule "
        "(repro/tiling): per tile, every loop of a dependency segment "
        "executes its slice while the tile's Dats are cache-resident; "
        "results are bitwise identical to fused and eager execution. "
        "Both sides run on the drivers' internal numbering "
        "(mesh/renumber.py: localize)."
    )
    return t


def kernelc_ablation(
    steps: int = 5,
    meshes=None,
) -> ReportTable:
    """Generated vector kernels vs scalar codegen stubs (warm caches).

    The kernel-compiler acceptance artifact: per app, the same time step
    run (a) scalar interpreted (``sequential``), (b) through the
    generated *scalar* stubs (``codegen`` — the Fig 2b specialization),
    and (c) on the vectorized backend with kernelc-**generated** batched
    kernels (any explicitly attached ``Kernel.vector`` is stripped, so
    this column always measures the vector emitter's output).  The
    one-off generated-vs-hand-written acceptance comparison (bar: warm
    generated-vec within 5% of hand-vec) was recorded before the
    hand-written kernels were deleted and lives in
    ``bench_results/ablation_kernelc_predeletion.json``.
    """
    if meshes is None:
        meshes = {
            ("airfoil", "96x48"): make_airfoil_mesh(96, 48),
            ("volna", "64x48"): make_tri_mesh(64, 48, 100_000.0, 75_000.0),
        }
    t = ReportTable(
        "Ablation: kernelc-generated vector kernels vs scalar codegen"
    )
    t.meta.update({"steps": steps, "knob": "kernel compiler"})
    for (app, mesh_name), mesh in meshes.items():
        scalar = time_app(app, "sequential", "two_level", {}, mesh=mesh,
                          steps=steps)
        stub = time_app(app, "codegen", "two_level", {}, mesh=mesh,
                        steps=steps)
        generated = time_app(app, "vectorized", "two_level", {}, mesh=mesh,
                             steps=steps, repeats=5,
                             strip_vector_forms=True)
        t.add(
            app=app,
            mesh=mesh_name,
            **{
                "scalar ms/step": round(scalar * 1e3, 2),
                "codegen stub ms/step": round(stub * 1e3, 2),
                "generated vec ms/step": round(generated * 1e3, 2),
                "vec speedup vs stub": round(stub / generated, 2),
            },
        )
    t.note(
        "Applications write only scalar kernels; repro.kernelc parses "
        "them into an IR and emits both the specialized scalar stubs "
        "(codegen backend) and the batched vector kernels every batched "
        "backend runs (docs/architecture.md, kernel compilation).  "
        "Results are bitwise identical across all columns."
    )
    return t


def aero_ablation(
    steps: int = 3,
    mesh: Optional[UnstructuredMesh] = None,
    repeats: int = 3,
) -> ReportTable:
    """The aero workload across backends and execution modes.

    One step is a whole Picard iteration — density evaluation, sparse
    assembly through the Mat staging, canonical CSR fold, padded-row
    SpMV and the CG solve — so this table measures the FEM
    assemble+solve pipeline end to end.  Results are bitwise identical
    across every row (the aero acceptance property), so the comparison
    is pure execution efficiency: scalar interpretation vs generated
    scalar stubs vs batched vectorized execution, eager vs chained vs
    tiled dispatch.
    """
    if mesh is None:
        mesh = make_airfoil_mesh(72, 36)
    configs = {
        "scalar (sequential)": ("sequential", "two_level", {}, False, None),
        "scalar generated stub (codegen)": ("codegen", "two_level", {},
                                            False, None),
        "vectorized eager": ("vectorized", "two_level", {}, False, None),
        "vectorized chained": ("vectorized", "two_level", {}, True, None),
        "vectorized tiled (auto)": ("vectorized", "two_level", {}, True,
                                    "auto"),
        "autovec chained": ("autovec", "full_permute", {}, True, None),
    }
    t = ReportTable("Ablation: aero FEM assembly + CG solve (warm caches)")
    t.meta.update({
        "app": "aero", "steps": steps, "knob": "aero pipeline",
        "mesh_cells": mesh.cells.size,
    })
    times = {}
    for label, (backend, scheme, options, chained, tiling) in configs.items():
        times[label] = time_app(
            "aero", backend, scheme, options, mesh=mesh, steps=steps,
            repeats=repeats, chained=chained, tiling=tiling,
        )
    base = times["scalar (sequential)"]
    eager = times["vectorized eager"]
    for label, dt in times.items():
        t.add(
            Backend=label,
            **{
                "ms/step": round(dt * 1e3, 3),
                "speedup vs scalar": round(base / dt, 2),
                "speedup vs vec eager": round(eager / dt, 2),
            },
        )
    t.note(
        "Aero assembles a sparse operator (core/mat.py: element-local "
        "staging + canonical CSR fold) and solves it with the par_loop "
        "CG (repro/solve); all rows produce bitwise-identical CSR values "
        "and solutions (docs/architecture.md, sparse matrices)."
    )
    return t


def native_ablation(
    mesh: Optional[UnstructuredMesh] = None,
    steps: int = 10,
    repeats: int = 3,
) -> ReportTable:
    """Native C chain replay vs the batched-NumPy fast path (warm).

    Every row replays a warm memoized loop chain; the comparison
    isolates what chain-level native compilation adds on top of the
    vectorized replay programs: one C translation unit per chain with
    gathers, compute and scatters fused and the SoA/AoS index
    arithmetic baked in, entered once per step through cffi
    (``ablation_native`` is the acceptance artifact: warm native ≥ 2x
    over warm generated-vec for the airfoil chain).
    """
    from ..kernelc import compiler_available, native_cache_stats

    if mesh is None:
        mesh = make_airfoil_mesh(48, 24)
    configs = {
        ("airfoil", "native chained"): ("airfoil", "native", True, None),
        ("airfoil", "vectorized chained"): ("airfoil", "vectorized", True,
                                            None),
        ("airfoil", "scalar (sequential)"): ("airfoil", "sequential",
                                             False, None),
        ("volna", "native chained"): ("volna", "native", True, None),
        ("volna", "vectorized chained"): ("volna", "vectorized", True,
                                          None),
    }
    t = ReportTable(
        "Ablation: native C chain replay vs vectorized fast path (warm)"
    )
    t.meta.update({
        "steps": steps, "knob": "native chain JIT",
        "compiler_available": bool(compiler_available()),
    })
    times = {}
    for key, (app, backend, chained, tiling) in configs.items():
        m = mesh if app == "airfoil" else None
        times[key] = time_app(
            app, backend, "two_level", {}, mesh=m, steps=steps,
            repeats=repeats, chained=chained, tiling=tiling,
        )
    for (app, label), dt in times.items():
        vec = times[(app, "vectorized chained")]
        t.add(
            app=app,
            Backend=label,
            **{
                "ms/step": round(dt * 1e3, 3),
                "native speedup vs vec": round(vec / dt, 2),
            },
        )
    t.meta["native_cache"] = native_cache_stats()
    t.note(
        "The native backend compiles each traced chain into a single C "
        "shared object (repro/kernelc/native.py) and replays it through "
        "cffi; results are bitwise identical to sequential eager on "
        "every row.  Without a C compiler the native rows silently run "
        "the vectorized path (ratio ~1.0) — see the compiler_available "
        "meta flag."
    )
    return t


def matfree_ablation(
    mesh: Optional[UnstructuredMesh] = None,
    steps: int = 5,
    repeats: int = 5,
    cg_tol: float = 1e-3,
) -> ReportTable:
    """Assembled CSR vs generated matrix-free operator (warm, native).

    The matrix-free acceptance artifact: the same warm-started aero
    Picard steps run with (a) the assembled pipeline (element staging →
    host CSR fold → Dirichlet masking → padded-row SpMV), (b) the
    matrix-free operator (generated A·p action kernels, no host work in
    the hot path), and (c) ``backend="auto"`` with the operator axis
    left to the tuner.  A loose CG tolerance plus warm-started timing
    (the first Picard steps, with their long cold CG solves, run
    untimed) keeps the steps assembly-dominated — the regime the
    operator knob exists for.  All
    three rows produce bitwise-identical solutions (pinned by
    ``tests/test_matfree.py``), so the ratios are pure execution cost
    (acceptance: warm matfree ≥ 1.2x warm assembled; guarded by
    ``repro.bench.regression``).
    """
    from ..kernelc import compiler_available

    if mesh is None:
        mesh = make_airfoil_mesh(96, 48)
    t = ReportTable(
        "Ablation: assembled CSR vs matrix-free operator - aero (warm)"
    )
    t.meta.update({
        "app": "aero", "steps": steps, "repeats": repeats,
        "knob": "operator", "cg_tol": cg_tol,
        "mesh_cells": mesh.cells.size,
        "compiler_available": bool(compiler_available()),
    })
    times = {}
    for operator in ("assembled", "matfree", "auto"):
        auto = operator == "auto"
        times[operator] = time_app(
            "aero", "auto" if auto else "native", "two_level", {},
            mesh=mesh, steps=steps, repeats=repeats,
            chained=None if auto else True,
            operator=None if auto else operator, cg_tol=cg_tol,
            warm_steps=4,
        )
    base = times["assembled"]
    for operator, dt in times.items():
        # The auto row reports under its own column: the tuner may
        # legitimately pick assembled on machines where matfree does
        # not pay, so its ratio is informational, not a guarded
        # fast-path entry (bench/regression.py keys on the metric name).
        metric = ("auto vs assembled" if operator == "auto"
                  else "speedup vs assembled")
        t.add(
            operator=operator,
            **{
                "ms/step": round(dt * 1e3, 3),
                metric: round(base / dt, 2),
            },
        )
    t.note(
        "Matfree rebuilds the operator coefficients per Picard step as "
        "ordinary generated par_loops (repro/solve/matfree.py) and "
        "never calls Mat.assemble(); the auto row lets the tuner "
        "negotiate the operator axis alongside backend/layout/dispatch "
        "(docs/architecture.md, matrix-free operators)."
    )
    return t


def autotune_ablation(
    steps: int = 3,
    repeats: int = 5,
    meshes=None,
) -> ReportTable:
    """``backend="auto"`` vs the best hand-picked configuration per app.

    The auto-tuning acceptance artifact: for each app, every plausible
    hand-picked configuration is timed (median of ``repeats``), and the
    same workload runs under ``Runtime("auto")`` — probing and decision
    application happen during sim construction, outside the timed
    region, so the auto column measures the *tuned steady state*.  The
    guarded ratio is best-hand-time / auto-time: ≥ 1.0 means the tuner
    matched or beat every hand pick; ``repro.bench.regression`` fails
    CI below 0.90 (auto more than 10% behind the best hand pick).
    """
    from ..kernelc import compiler_available
    from ..tune import tune_cache_stats

    if meshes is None:
        meshes = {
            "airfoil": make_airfoil_mesh(24, 12),
            "volna": make_tri_mesh(20, 15, 100_000.0, 75_000.0),
            "aero": make_airfoil_mesh(16, 8),
        }
    hand = {
        "vectorized eager": ("vectorized", False, None),
        "vectorized chained": ("vectorized", True, None),
        "vectorized tiled (auto)": ("vectorized", True, "auto"),
    }
    if compiler_available():
        hand["native chained"] = ("native", True, None)
    t = ReportTable(
        "Ablation: auto-tuned runtime vs best hand-picked configuration"
    )
    t.meta.update({"steps": steps, "repeats": repeats, "knob": "autotune"})
    for app, mesh in meshes.items():
        hand_times = {}
        for label, (backend, chained, tiling) in hand.items():
            hand_times[label] = time_app(
                app, backend, "two_level", {}, mesh=mesh, steps=steps,
                repeats=repeats, chained=chained, tiling=tiling,
            )
        auto = time_app(
            app, "auto", "two_level", {}, mesh=mesh, steps=steps,
            repeats=repeats, chained=None,
        )
        best_label = min(hand_times, key=hand_times.get)
        best = hand_times[best_label]
        t.add(
            app=app,
            **{
                "auto ms/step": round(auto * 1e3, 3),
                "best hand ms/step": round(best * 1e3, 3),
                "best hand config": best_label,
                "auto vs best": round(best / auto, 2),
            },
        )
    t.meta["tune_cache"] = tune_cache_stats()
    t.note(
        "Runtime(\"auto\") profiles the traced chain, ranks candidate "
        "(backend, layout, dispatch, tile) configurations with the "
        "perfmodel roofline, probes the top few, and persists the "
        "winner in the on-disk tuning DB (repro/tune); later runs "
        "replay the decision with zero probes.  Ratios near 1.0 mean "
        "the tuner found the best hand pick on its own."
    )
    return t


#: Registry of measured ablation artifacts (`python -m repro.bench --ablations`).
def _cold_warm_ablation(**kw):
    # Deferred import: warmstart imports time_app from this module.
    from .warmstart import cold_warm_ablation

    return cold_warm_ablation(**kw)


ALL_ABLATIONS = {
    "ablation_batch": batch_ablation,
    "ablation_layout": layout_ablation,
    "ablation_cache": cache_ablation,
    "ablation_cold_warm": _cold_warm_ablation,
}
