"""Per-layer metrics: derived from spans, or timed by direct calls.

A layer is a module under ``src/repro/``.  Everything here measures it
from outside — spans recorded by :mod:`spans` around public entry
points, or the public function called directly and timed around the
call.  Byte and flop figures come from the per-element estimates in
``Runtime.stats()["profile"]`` and are *computed*, not counted.
"""

from __future__ import annotations

import statistics
from pathlib import Path
from time import perf_counter

from spans import END, LABEL, NAME, PARENT, START, UNIT, outermost

#: Unit ids at or above this mark eager (un-chained) units.
EAGER_UNIT0 = 1000


def median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def _dur(s) -> float:
    return s[END] - s[START]


def _by_unit(spans, indices):
    out = {}
    for i in indices:
        out.setdefault(spans[i][UNIT], []).append(i)
    return out


def _sum_by_unit(spans, indices, units):
    groups = _by_unit(spans, indices)
    return [sum(_dur(spans[i]) for i in groups.get(u, ())) for u in units]


def _descendant_time(spans, children, i, prefix) -> float:
    """Time under span ``i`` covered by outermost ``prefix*`` descendants."""
    total = 0.0
    for c in children.get(i, ()):
        if spans[c][NAME].startswith(prefix):
            total += _dur(spans[c])
        else:
            total += _descendant_time(spans, children, c, prefix)
    return total


#: Spans of kernel emission and library loading, which the backends
#: trigger on first sight of a chain from inside their run methods.
_COMPILE_SPANS = ("kernelc.native_emit", "kernelc.native_cc",
                  "kernelc.vector_emit")


def _execution_time(spans, children, i) -> float:
    """A backend span minus the compilation it triggered."""
    return _dur(spans[i]) - _descendant_time(
        spans, children, i, _COMPILE_SPANS)


def _children(spans):
    out = {}
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            out.setdefault(s[PARENT], []).append(i)
    return out


# ----------------------------------------------------------------------
# Span-derived metrics
# ----------------------------------------------------------------------
def dispatch_metrics(spans, unit_wall: dict) -> dict:
    """``core.*`` dispatch metrics and the harness residual.

    ``unit_wall`` maps a traced (chained) unit id to its wall seconds.
    All per-unit figures are medians over those units.

    ``core.dispatch_us`` is trace + flush - backend execution, where the
    execution of the native backend is its compiled program's entry
    point (``kernelc.native_run``: pointer-table refresh and the one
    cffi call) and that of the vectorized backend, whose program *is*
    Python issuing NumPy calls, its whole ``run_chain``.
    ``backends.run_chain_ms`` is the whole ``run_chain`` either way.
    """
    units = sorted(unit_wall)
    named = {}
    for i, s in enumerate(spans):
        if s[UNIT] in unit_wall:
            named.setdefault(s[NAME], []).append(i)
    children = _children(spans)
    par_loops = named.get("core.par_loop", [])
    lookups = named.get("core.chain_lookup", [])
    flushes = [i for i in outermost(spans, "core.flush")
               if spans[i][UNIT] in unit_wall]
    backend = [i for i in outermost(spans, "backends.")
               if spans[i][UNIT] in unit_wall]
    top = [i for i, s in enumerate(spans)
           if s[UNIT] in unit_wall and s[PARENT] < 0]

    trace_s = _sum_by_unit(spans, par_loops, units)
    flush_s = _sum_by_unit(spans, flushes, units)
    groups = _by_unit(spans, backend)
    backend_s = [sum(_execution_time(spans, children, i)
                     for i in groups.get(u, ())) for u in units]
    native_s = _sum_by_unit(spans, named.get("kernelc.native_run", []), units)
    exec_s = [n if n else b for n, b in zip(native_s, backend_s)]
    top_s = _sum_by_unit(spans, top, units)
    # A flush that found recorded loops looks its chain up; the
    # block-exit flush of an already-flushed chain does not.
    real = [i for i in flushes
            if any(spans[c][NAME] == "core.chain_lookup"
                   for c in children.get(i, ()))]
    real_per_unit = [len(v) for v in
                     (_by_unit(spans, real).get(u, ()) for u in units)]
    loops_per_unit = [len(v) for v in
                      (_by_unit(spans, par_loops).get(u, ()) for u in units)]
    dispatch_s = [t + f - x for t, f, x in zip(trace_s, flush_s, exec_s)]
    wall = [unit_wall[u] for u in units]
    return {
        "core.trace_us": median(t * 1e6 for t in trace_s),
        "core.chain_lookup_us": median(_dur(spans[i]) * 1e6 for i in lookups),
        "core.flush_us": median(f * 1e6 for f in flush_s),
        "core.flushes_per_unit": median(real_per_unit),
        "core.loops_per_flush": median(
            n / f for n, f in zip(loops_per_unit, real_per_unit) if f),
        "core.dispatch_us": median(d * 1e6 for d in dispatch_s),
        "core.dispatch_share": median(
            d / w for d, w in zip(dispatch_s, wall)),
        "backends.run_chain_ms": median(b * 1e3 for b in backend_s),
        "backends.native_call_ms": median(n * 1e3 for n in native_s),
        "harness.residual_pct": median(
            100.0 * (w - t) / w for w, t in zip(wall, top_s)),
    }


def self_time_table(spans, unit_wall: dict) -> dict:
    """Median per-unit self time (ms) of every span name, plus the part
    of the unit under no span at all — where a unit's wall time went."""
    units = sorted(unit_wall)
    own = [_dur(s) for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= _dur(s)
    per = {}
    for i, s in enumerate(spans):
        if s[UNIT] in unit_wall:
            per.setdefault(s[NAME], dict.fromkeys(units, 0.0))[s[UNIT]] += own[i]
    table = {name: median(v.values()) * 1e3 for name, v in per.items()}
    covered = {u: sum(v[u] for v in per.values()) for u in units}
    table["(no span)"] = median(unit_wall[u] - covered[u] for u in units) * 1e3
    table["(unit)"] = median(unit_wall.values()) * 1e3
    return table


def solve_metrics(spans, unit_wall: dict, iterations: dict) -> dict:
    """``solve.*`` per traced unit, from the ``solve.cg`` spans.

    The recorder wraps ``solve.cg`` on every workload; a unit that never
    calls it (one ``step()`` of airfoil or volna) spends no time there
    and reads 0 on all three — a measured zero, not a missing value.
    ``solve.build_ms`` is the operator-build chain: the unit's top-level
    ``core`` spans outside ``cg``.
    """
    units = sorted(unit_wall)
    cg = [i for i, s in enumerate(spans)
          if s[NAME] == "solve.cg" and s[UNIT] in unit_wall]
    build = [i for i, s in enumerate(spans)
             if s[UNIT] in unit_wall and s[PARENT] < 0
             and s[NAME] in ("core.par_loop", "core.flush")] if cg else []
    return {
        "solve.cg_iterations": median(iterations.get(u, 0) for u in units),
        "solve.cg_ms": median(
            t * 1e3 for t in _sum_by_unit(spans, cg, units)),
        "solve.build_ms": median(
            t * 1e3 for t in _sum_by_unit(spans, build, units)),
    }


def eager_loop_metrics(spans, profile_loops: dict, top_kernels,
                       triad_gbs: float):
    """Per-kernel time / GB/s / GFLOP/s from eager units.

    Returns ``(metrics, table_rows, eager_ms_per_unit)``; the rows cover
    every distinct loop of the app (the paper-style table), the metrics
    ``backends.loop<k>_*`` the workload's three slots (``top_kernels``,
    kernel-name prefixes, most expensive first).
    """
    per = {}  # kernel -> unit -> [durations]
    for s in spans:
        if s[NAME] == "backends.execute" and s[UNIT] >= EAGER_UNIT0:
            per.setdefault(s[LABEL], {}).setdefault(s[UNIT], []).append(
                _dur(s))
    rows, metrics = [], {}
    units = sorted({u for k in per.values() for u in k})
    eager_unit_s = [
        sum(sum(k.get(u, ())) for k in per.values()) for u in units
    ]
    for kernel, by_unit in sorted(per.items()):
        calls = int(median(len(v) for v in by_unit.values()))
        sec = median(sum(v) / len(v) for v in by_unit.values())
        info = profile_loops.get(kernel, {})
        n = float(info.get("n", 0))
        gbs = float(info.get("bytes_per_element", 0.0)) * n / sec / 1e9 \
            if sec else 0.0
        gflops = float(info.get("flops_per_element", 0.0)) * n / sec / 1e9 \
            if sec else 0.0
        rows.append((kernel, calls, sec * 1e3, gbs, gflops))
        for slot, prefix in enumerate(top_kernels, 1):
            if kernel.startswith(prefix):
                metrics[f"backends.loop{slot}_ms"] = sec * 1e3
                metrics[f"backends.loop{slot}_gbs"] = gbs
                metrics[f"backends.loop{slot}_gflops"] = gflops
                metrics[f"backends.loop{slot}_pct_triad"] = (
                    100.0 * gbs / triad_gbs if triad_gbs else 0.0)
    rows.sort(key=lambda r: -r[1] * r[2])
    return metrics, rows, median(eager_unit_s) * 1e3


def setup_metrics(spans, n_setup: int) -> dict:
    """Cold set-up attribution from the spans recorded before unit 0."""
    setup = spans[:n_setup]
    children = _children(setup)
    out = {"plan.build_s": 0.0, "kernelc.native_cc_s": 0.0,
           "core.chain_compile_s": 0.0, "mesh.build_s": 0.0}
    for i, s in enumerate(setup):
        if s[NAME] == "plan.build":
            out["plan.build_s"] += _dur(s)
        elif s[NAME] == "kernelc.native_cc":
            out["kernelc.native_cc_s"] += _dur(s)
        elif s[NAME] == "mesh.build":
            out["mesh.build_s"] += _dur(s)
        elif s[NAME] == "core.compile_chain":
            out["core.chain_compile_s"] += _dur(s) - _descendant_time(
                setup, children, i, "core.plan_for")
    return out


def warm_store_metrics(spans) -> dict:
    """``store.*_load_s`` from a traced warm set-up (same public calls
    as the cold builds, answered by the store this time)."""
    children = _children(spans)
    plan = sum(_dur(spans[i]) for i in outermost(spans, "core.plan_for"))
    chain = sum(
        _dur(spans[i]) - _descendant_time(spans, children, i, "core.plan_for")
        for i in outermost(spans, "core.chain_lookup")
    )
    native = sum(_dur(s) for s in spans if s[NAME] == "kernelc.native_cc")
    emit = sum(_dur(s) for s in spans if s[NAME] == "kernelc.native_emit")
    mesh = sum(_dur(s) for s in spans if s[NAME] == "mesh.build")
    construct = sum(_dur(spans[i])
                    for i in outermost(spans, "apps.construct"))
    backend = sum(_execution_time(spans, children, i)
                  for i in outermost(spans, "backends."))
    return {
        "store.plan_load_s": plan, "store.chain_load_s": chain,
        "store.native_load_s": native,
        # Not per-layer metrics of their own: the rest of the warm
        # set-up attribution printed beside them.
        "_warm.mesh_build_s": mesh, "_warm.construct_s": construct,
        "_warm.native_emit_s": emit,
        "_warm.backend_s": backend,
    }


# ----------------------------------------------------------------------
# Direct measurements
# ----------------------------------------------------------------------
def distinct_loops(chains):
    """Distinct ``(kernel, args)`` loops over the compiled chains."""
    seen, out = set(), []
    for compiled in chains:
        for bl in compiled.loops:
            if bl.kernel.name not in seen:
                seen.add(bl.kernel.name)
                out.append(bl)
    return out


def working_set_mb(chains) -> float:
    """Bytes of every distinct Dat storage and Map table the chains touch."""
    arrays = {}
    for compiled in chains:
        for bl in compiled.loops:
            for arg in bl.args:
                if arg.is_global:
                    continue
                arrays[id(arg.dat._storage)] = arg.dat._storage.nbytes
                if arg.map is not None:
                    arrays[id(arg.map.values)] = arg.map.values.nbytes
    return sum(arrays.values()) / 1e6


def plan_colors(loops) -> dict:
    block = max((int(bl.plan.n_block_colors) for bl in loops), default=0)
    elem = max(
        (int(bl.plan.block_ncolors.max(initial=1)) for bl in loops
         if bl.plan.block_ncolors is not None), default=0)
    return {"plan.block_colors_max": float(block),
            "plan.elem_colors_max": float(elem)}


def kernelc_direct(chains, loops, native: bool) -> dict:
    """Parse, vector-emit and native-emit called directly, cold.

    ``compile_vector`` and ``emit_chain_source`` take no cache or store
    on their way, so calling them again *is* the cold cost.  A workload
    that is not ``native`` generates no C: its emission time and source
    size are 0 by configuration, stated here rather than filled in.
    """
    from repro.kernelc import (
        UnvectorizableKernel, compile_vector, emit_chain_source,
        param_shapes, parse_kernel,
    )

    parse_s = vec_s = emit_s = 0.0
    source_bytes = 0
    for bl in loops:
        t0 = perf_counter()
        try:
            ir = parse_kernel(bl.kernel.scalar)
        except UnvectorizableKernel:
            ir = None
        parse_s += perf_counter() - t0
        if ir is None:
            continue
        t0 = perf_counter()
        try:
            compile_vector(ir, param_shapes(bl.args))
        except UnvectorizableKernel:
            pass
        vec_s += perf_counter() - t0
    if native:
        for compiled in chains:
            t0 = perf_counter()
            source = emit_chain_source(compiled.loops)
            emit_s += perf_counter() - t0
            source_bytes += len(source)
    return {"kernelc.parse_s": parse_s, "kernelc.vector_emit_s": vec_s,
            "kernelc.native_emit_s": emit_s,
            "kernelc.native_source_bytes": float(source_bytes)}


def dir_bytes(path: Path, pattern: str = "*") -> int:
    try:
        return sum(p.stat().st_size for p in path.rglob(pattern)
                   if p.is_file())
    except OSError:
        return 0


def phase_breakdown(bl, repeats: int = 3) -> dict:
    """Gather / vector kernel / scatter of one loop, per plan phase.

    The vectorized backend's own sequence (``_run_phases``) through the
    same public helpers, each leg timed around its call — the paper's
    scheme applied to this loop.  On a native workload the sum is what
    the same loop costs on the fallback path at the same size (compare
    ``backends.loop1_ms``).  Mutates the loop's INC targets — call after
    every state-sensitive measurement.
    """
    from repro.backends.base import gather_batch, scatter_batch

    vfn = bl.kernel.vector_for(bl.args)
    phases = bl.plan.phases(bl.n, bl.start)
    totals = []
    for _ in range(repeats):
        g = k = s = 0.0
        for phase in phases:
            t0 = perf_counter()
            batch = gather_batch(bl.args, phase.elems, phase=phase)
            t1 = perf_counter()
            vfn(*batch.arrays)
            t2 = perf_counter()
            scatter_batch(bl.args, batch, {}, serialize_inc=phase.serialize)
            t3 = perf_counter()
            g += t1 - t0
            k += t2 - t1
            s += t3 - t2
        totals.append((g, k, s))
    return {
        "backends.gather_ms": median(t[0] for t in totals) * 1e3,
        "backends.kernel_ms": median(t[1] for t in totals) * 1e3,
        "backends.scatter_ms": median(t[2] for t in totals) * 1e3,
    }


def store_counters() -> dict:
    """Disk-layer hits and builds summed over the six persistent kinds."""
    from repro import store

    hits = builds = 0
    for kind in store.SCHEMA_VERSIONS:
        c = store.counters(kind)
        hits += int(c.get("disk_hits", 0))
        builds += int(c.get("builds", 0))
    return {"store.disk_hits": float(hits), "store.builds": float(builds)}
