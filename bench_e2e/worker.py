"""One workload process: set-up, units of work, checks — or a traced run.

``run.py`` starts this file as a fresh subprocess per (workload, store
state), with ``REPRO_CACHE_DIR`` pointing at a private store that is
either empty (``--phase cold``) or was filled by the previous process
(``--phase warm``).  The result is one JSON document written to
``--out``.

``--mode e2e`` measures the end-to-end metrics with no instrumentation
at all.  ``--mode trace`` installs the span recorders of :mod:`spans`
and produces the per-layer metrics; end-to-end numbers never come from
it.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import layers  # noqa: E402
import roofline  # noqa: E402
import workloads as wl  # noqa: E402
from spans import Recorder, parents_nest, write_chrome_trace  # noqa: E402

#: Units of each kind in a traced run (full size / smoke).
TRACE_UNITS = {"untraced": (10, 4), "traced": (20, 4), "eager": (4, 2),
               "tiled": (10, 3), "tuned": (5, 2)}
#: Alternating untraced/traced blocks the first two kinds are split into.
TRACE_BLOCKS = 2
#: The checking process of an e2e run measures at least this many units
#: whatever its time share: ``aero_solve`` grows ~7 MB a unit until the
#: 64-entry chain cache is full (4 chains a unit), and ``peak_rss_mb``
#: must not depend on how many units fitted into the window.
MIN_UNITS_FIRST = 20
#: Units whose spans go into the Chrome-trace file.
CHROME_TRACE_UNITS = 3


def _import_apps() -> None:
    """Import every module whose aliases the recorder must rebind."""
    import repro.apps.aero  # noqa: F401
    import repro.apps.airfoil  # noqa: F401
    import repro.apps.volna  # noqa: F401
    import repro.solve  # noqa: F401
    import repro.tiling  # noqa: F401


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_units(inst, seconds=None, count=None, recorder=None, unit0=0,
                 exact_elements=True):
    """Run units back to back for ``seconds`` and at least ``count``
    units (either may be ``None``); per-unit wall seconds and failures.

    A unit fails when it raises or returns a non-finite scalar; a unit
    whose loop-element count differs from the first one's is a failure
    too (``melem_per_s`` rests on that count being exact) unless
    ``exact_elements`` is off.
    """
    samples, failures, elems = [], [], []
    t_end = perf_counter() + seconds if seconds is not None else None
    k = 0
    while (count is not None and k < count) or (
        t_end is not None and perf_counter() < t_end
    ):
        if recorder is not None:
            recorder.unit = unit0 + k
        e0 = inst.elements_done()
        t0 = perf_counter()
        try:
            out = inst.unit()
            dt = perf_counter() - t0
            if not math.isfinite(out):
                failures.append(f"unit {k}: non-finite result {out!r}")
        except Exception as exc:  # a failed unit is counted, not fatal
            dt = perf_counter() - t0
            failures.append(f"unit {k}: {type(exc).__name__}: {exc}")
        samples.append(dt)
        elems.append(inst.elements_done() - e0)
        k += 1
    if recorder is not None:
        recorder.unit = -1
    if exact_elements and any(e != elems[0] for e in elems):
        failures.append(f"loop elements per unit not constant: {set(elems)}")
    return samples, failures, (elems[0] if elems else 0)


def _history_json(history):
    return [list(h) if isinstance(h, tuple) else float(h) for h in history]


# ----------------------------------------------------------------------
def run_e2e(args) -> dict:
    w = wl.WORKLOADS[args.workload]
    t0 = perf_counter()
    mesh = wl.build_mesh(w, args.seed, twin=args.smoke)
    inst = wl.Instance(w, mesh)
    first_failed = []
    try:
        first = inst.unit()
        if not math.isfinite(first):
            first_failed.append(f"first unit: non-finite result {first!r}")
    except Exception as exc:
        first_failed.append(f"first unit: {type(exc).__name__}: {exc}")
    setup_s = perf_counter() - t0

    q_first = None
    if args.checks and w.app == "airfoil" and not first_failed:
        q_first = inst.state()["q"].copy()
    samples, failures, elems = _timed_units(
        inst, seconds=args.seconds,
        count=MIN_UNITS_FIRST if args.checks and not args.smoke else None)
    rss = _peak_rss_mb()  # before the checks allocate their references
    failures = first_failed + failures
    attempted = 1 + len(samples)
    checks = wl.finite_check(inst) if not first_failed else []
    if args.checks:
        if q_first is not None:
            checks += wl.reference_check(w, mesh, q_first, inst.history[0])
        checks += wl.twin_check(w, args.seed)
    if w.app == "aero" and len(set(inst.history)) > 1:
        checks.append(("aero.cg_iterations_constant", False,
                       f"{sorted(set(inst.history))}"))
    attempted += len(checks)
    failures += [f"check {n}: {d}" for n, ok, d in checks if not ok]
    return {
        "workload": w.name, "phase": args.phase,
        "dims": wl.dims(w, args.seed, twin=args.smoke),
        "sizes": mesh.summary(),
        "setup_s": setup_s, "unit_s": samples, "elements_per_unit": elems,
        "peak_rss_mb": rss, "history": _history_json(inst.history),
        "attempted": attempted, "failed": len(failures),
        "failures": failures,
        "checks": [[n, bool(ok), d] for n, ok, d in checks],
        "store": layers.store_counters(),
    }


# ----------------------------------------------------------------------
def run_trace_warm(args) -> dict:
    """Traced set-up against the store a cold process filled."""
    from repro import store

    w = wl.WORKLOADS[args.workload]
    _import_apps()
    rec = Recorder()
    rec.install()
    t0 = perf_counter()
    with rec.span("mesh.build"):
        mesh = wl.build_mesh(w, args.seed, twin=args.smoke)
    inst = wl.Instance(w, mesh, recorder=rec)
    inst.unit()
    setup_s = perf_counter() - t0
    rec.uninstall()
    spans = rec.rows()
    metrics = layers.warm_store_metrics(spans)
    metrics.update(layers.store_counters())
    metrics["store.bytes"] = float(layers.dir_bytes(store.cache_root()))
    metrics["_warm.setup_s"] = setup_s
    return {"workload": w.name, "phase": "warm", "metrics": metrics,
            "nest_ok": parents_nest(spans), "spans": len(spans),
            "attempted": 1, "failed": 0, "failures": []}


def run_trace_cold(args) -> dict:
    from repro.kernelc import compiler_available, native_cache_dir

    w = wl.WORKLOADS[args.workload]
    pick = 1 if args.smoke else 0
    n_units = {k: v[pick] for k, v in TRACE_UNITS.items()}
    _import_apps()
    rec = Recorder()
    failures = []
    metrics = {}

    # -- cold set-up, traced ------------------------------------------
    rec.install()
    with rec.span("mesh.build"):
        mesh = wl.build_mesh(w, args.seed, twin=args.smoke)
    inst = wl.Instance(w, mesh, recorder=rec)
    inst.unit()
    rec.uninstall()
    n_setup = len(rec)
    setup_chains = list(rec.chains.values())
    rt = inst.runtime
    native = w.backend == "native" and compiler_available()
    loops = layers.distinct_loops(setup_chains)
    metrics["mesh.cells"] = float(mesh.cells.size)
    metrics["mesh.working_set_mb"] = layers.working_set_mb(setup_chains)
    metrics.update(layers.plan_colors(loops))
    metrics["kernelc.native_so_bytes"] = float(
        layers.dir_bytes(native_cache_dir(), "*.so")) if native else 0.0

    # -- untraced and traced units, in alternating blocks so machine
    # drift (~10 % over tens of seconds here) hits both alike ----------
    untraced, traced = [], []
    first_traced = []
    for _ in range(TRACE_BLOCKS):
        samples, f, _ = _timed_units(
            inst, count=n_units["untraced"] // TRACE_BLOCKS)
        untraced += samples
        failures += f
        rec.install()
        first_traced.append(len(inst.history))
        samples, f, _ = _timed_units(
            inst, count=n_units["traced"] // TRACE_BLOCKS, recorder=rec,
            unit0=len(traced))
        rec.uninstall()
        traced += samples
        failures += f
    metrics.update(_tiling(w, mesh, rt, rec, n_units["tiled"],
                           layers.median(untraced), failures))
    unit_wall = dict(enumerate(traced))
    per_block = n_units["traced"] // TRACE_BLOCKS
    iters = {k: int(sum(inst.history[
        first_traced[k // per_block] + k % per_block]))
        for k in unit_wall} if w.app == "aero" else {}

    # -- the same units eagerly: per-kernel time ----------------------
    rec.install()
    inst.set_chained(False)
    _timed_units(inst, count=1, recorder=rec, unit0=-2)  # compiles, warms
    _, f, _ = _timed_units(inst, count=n_units["eager"], recorder=rec,
                           unit0=layers.EAGER_UNIT0)
    failures += f
    inst.set_chained(True)
    rec.uninstall()

    # -- metrics derived from the spans -------------------------------
    spans = rec.rows()
    metrics.update(layers.setup_metrics(spans, n_setup))
    metrics.update(layers.dispatch_metrics(spans, unit_wall))
    metrics.update(layers.solve_metrics(spans, unit_wall, iters))

    # -- direct calls --------------------------------------------------
    metrics.update(layers.kernelc_direct(setup_chains, loops, native))
    metrics.update(_tune(w, mesh, n_units["tuned"], layers.median(untraced),
                         failures))
    loop1 = next(bl for bl in loops
                 if bl.kernel.name.startswith(w.top_kernels[0]))
    metrics.update(layers.phase_breakdown(loop1))
    machine = roofline.measure_machine(Path(args.workdir), quick=args.smoke)
    for key in ("triad_gbs_1t", "triad_gbs_all", "fma_gflops_1t",
                "llc_bytes", "nproc"):
        metrics[f"machine.{key}"] = float(machine[key])
    # Per-element byte/flop estimates the runtime registered per loop
    # (the static half of Runtime.stats()["profile"], plus set sizes).
    loop_metrics, rows, eager_ms = layers.eager_loop_metrics(
        spans, rt.profile.loops, w.top_kernels, machine["triad_gbs_1t"])
    metrics.update(loop_metrics)
    run_chain_ms = metrics.get("backends.run_chain_ms", 0.0)
    metrics["backends.fused_over_eager"] = (
        eager_ms / run_chain_ms if run_chain_ms else 0.0)

    p50_untraced = layers.median(untraced)
    metrics["harness.trace_overhead_pct"] = (
        100.0 * (layers.median(traced) - p50_untraced) / p50_untraced)
    metrics["harness.unit_ms_p90"] = float(
        np.percentile(untraced, 90)) * 1e3
    metrics["_cold.untraced_unit_ms_p50"] = p50_untraced * 1e3

    if not all(ok for _, ok, _ in wl.finite_check(inst)):
        failures.append("non-finite state after the traced run")
    trace_path = Path(args.trace_out) if args.trace_out else None
    if trace_path is not None:
        trace_path.parent.mkdir(parents=True, exist_ok=True)
        write_chrome_trace(spans, trace_path, CHROME_TRACE_UNITS)
    return {
        "workload": w.name, "phase": "cold", "metrics": metrics,
        "dims": wl.dims(w, args.seed, twin=args.smoke),
        "sizes": mesh.summary(), "machine": machine,
        "kernel_table": [list(r) for r in rows],
        "self_ms": layers.self_time_table(spans, unit_wall),
        "nest_ok": parents_nest(spans), "spans": len(spans),
        # the set-up unit and the eager warm-up unit, then every unit run
        "attempted": 2 + len(untraced) + len(traced) + n_units["eager"]
        + n_units["tiled"] + n_units["tuned"],
        "failed": len(failures), "failures": failures,
    }


def _tiling(w, mesh, rt, rec, n_tiled, untiled_p50, failures) -> dict:
    """``tiling="auto"`` against the untiled chain on the same runtime."""
    tiled = wl.Instance(w, mesh, runtime=rt, tiling="auto", recorder=rec)
    first = len(rec)
    rec.install()
    tiled.unit()
    rec.uninstall()
    inspect_s = sum(
        rec.ends[i] - rec.starts[i] for i in range(first, len(rec))
        if rec.names[i] == "tiling.inspect")
    samples, f, _ = _timed_units(tiled, count=n_tiled)
    failures += f
    p50 = layers.median(samples)
    return {"tiling.inspect_s": inspect_s, "tiling.unit_ms": p50 * 1e3,
            "tiling.speedup": untiled_p50 / p50 if p50 else 0.0}


def _tune(w, mesh, n_tuned, pinned_p50, failures) -> dict:
    """Cold-DB negotiation of ``Runtime("auto")`` and its regret: unit
    time of the tuner's choice over the workload's pinned configuration
    (below 1 where the pin is not the fastest, as on ``airfoil_fallback``,
    pinned to the vectorized backend on purpose)."""
    from repro.core import Runtime

    # The first sim constructed on the runtime negotiates.
    t0 = perf_counter()
    auto = wl.Instance(w, mesh, runtime=Runtime("auto"))
    if auto.sim is None:  # aero: every unit constructs its own sim
        auto.construct()
    negotiate_s = perf_counter() - t0
    # Every sim constructed under "auto" re-applies the decision, which
    # installs a fresh backend and so restarts the element counters.
    samples, f, _ = _timed_units(auto, count=n_tuned, exact_elements=False)
    failures += f
    p50 = layers.median(samples)
    return {"tune.negotiate_s": negotiate_s,
            "tune.regret": p50 / pinned_p50 if pinned_p50 else 0.0}


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("e2e", "trace"), default="e2e")
    ap.add_argument("--phase", choices=("cold", "warm"), default="cold")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--checks", action="store_true",
                    help="e2e: also run the reference and twin checks")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--trace-out", default=None)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    if "REPRO_CACHE_DIR" not in os.environ:
        ap.error("REPRO_CACHE_DIR must point at the run's private store")
    if args.mode == "e2e":
        doc = run_e2e(args)
    elif args.phase == "warm":
        doc = run_trace_warm(args)
    else:
        doc = run_trace_cold(args)
    Path(args.out).write_text(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
