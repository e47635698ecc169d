#!/usr/bin/env python3
"""bench_e2e — the repo's end-to-end benchmark (see README.md here).

    python bench_e2e/run.py                       # all four workloads
    python bench_e2e/run.py --workload aero_solve --trace
    python bench_e2e/run.py --smoke               # twin sizes, < 1 min
    python bench_e2e/run.py --calibrate           # two sets, spreads vs bounds

Closed loop, one client: each workload runs in fresh subprocesses
(``worker.py``), one after the other, each issuing units of work back to
back against a private artifact store under ``bench_e2e/.work/`` that is
removed afterwards.  Nothing is written outside this directory unless
``--history PATH`` is given.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
DEFAULT_SEED = 20140215
#: A worker that takes longer than this is killed and counted failed.
WORKER_TIMEOUT_S = 170
#: Seconds of units a ``--smoke`` run measures per workload.
SMOKE_SECONDS = 2.0
#: Share of ``--seconds`` the first (cold, checking) process measures;
#: the other processes of the run split the rest equally.
FIRST_SHARE = 0.4
#: Runs per ``--calibrate`` set: the driver judges the benchmark on the
#: quartiles of ten runs, and bounds calibrated at another count would
#: not be comparable with the committed ones.
CALIBRATE_RUNS = 10


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Worker processes
# ----------------------------------------------------------------------
def _worker_env(store: Path, tmp: Path) -> dict:
    """Pinned configuration: no inherited ``REPRO_*`` knob survives, the
    store and every temp file live under the run's work directory."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["REPRO_CACHE_DIR"] = str(store)
    env["TMPDIR"] = str(tmp)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


def _spawn(workdir: Path, store: Path, tag: str, **opts) -> dict:
    """Run one worker to completion; a crash becomes a failed result."""
    out = workdir / f"{tag}.json"
    tmp = workdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--out", str(out),
           "--workdir", str(workdir)]
    for key, value in opts.items():
        flag = "--" + key.replace("_", "-")
        if value is True:
            cmd.append(flag)
        elif value not in (False, None):
            cmd += [flag, str(value)]
    try:
        proc = subprocess.run(
            cmd, env=_worker_env(store, tmp), capture_output=True, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
        error = None if proc.returncode == 0 else (
            f"worker {tag} exited {proc.returncode}: {proc.stderr[-2000:]}")
    except subprocess.TimeoutExpired:
        error = f"worker {tag} exceeded {WORKER_TIMEOUT_S} s"
    if error is None and out.exists():
        return json.loads(out.read_text())
    return {"attempted": 1, "failed": 1, "failures": [error or "no output"],
            "crashed": True}


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
def tail_percentile(n: int):
    """Highest usual percentile with at least ten samples beyond it."""
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100.0 >= 10:
            return pct
    return None


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q[2] - q[0]) / med if med else 0.0


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def run_e2e(w, seed: int, seconds: float, smoke: bool, workdir: Path) -> dict:
    """End-to-end metrics of one workload, untraced.

    Every process of the run sets up and then runs units for its share
    of ``seconds``: the machine's speed drifts by tens of percent over
    tens of seconds, so several short windows spread over the run are
    steadier than one long one.  The first cold process gets the largest
    share, samples the peak RSS and runs the output checks.
    """
    n_cold, n_warm = (1, 1) if smoke else (w.cold_runs, w.warm_runs)
    # (phase, store) in execution order: the first cold process, then
    # cold+warm pairs on fresh stores, then the remaining warm processes
    # on the first store (the furthest in time from the process that
    # filled it).
    schedule = [("cold", 0)]
    for r in range(1, n_cold):
        schedule += [("cold", r), ("warm", r)]
    schedule += [("warm", 0)] * (n_warm - (n_cold - 1))
    rest = (1.0 - FIRST_SHARE) / (len(schedule) - 1)
    docs, failures = [], []
    attempted = failed = 0
    for k, (phase, r) in enumerate(schedule):
        doc = _spawn(
            workdir, workdir / f"store{r}", f"e2e-{k}-{phase}",
            workload=w.name, seed=seed, mode="e2e", phase=phase, smoke=smoke,
            seconds=seconds * (FIRST_SHARE if k == 0 else rest),
            checks=(k == 0))
        attempted += doc["attempted"]
        failed += doc["failed"]
        failures += doc["failures"]
        docs.append(doc)
    for r in range(n_cold):
        shutil.rmtree(workdir / f"store{r}", ignore_errors=True)
    if any(doc.get("crashed") for doc in docs):
        return {"attempted": attempted, "failed": max(failed, 1),
                "failures": failures, "metrics": {}, "info": {}}

    first = docs[0]
    # Cross-process checks: every process must replay the first one.
    cross = []
    for k, doc in enumerate(docs[1:], 1):
        n = min(len(first["history"]), len(doc["history"]))
        cross.append((f"replay.{k}.history_identical",
                      first["history"][:n] == doc["history"][:n],
                      f"first {n} units"))
        cross.append((f"replay.{k}.elements_identical",
                      first["elements_per_unit"] == doc["elements_per_unit"],
                      f"{first['elements_per_unit']} vs "
                      f"{doc['elements_per_unit']}"))
        if doc["phase"] == "warm":
            cross.append((f"replay.{k}.warm_store_builds_zero",
                          doc["store"]["store.builds"] == 0,
                          f"builds={doc['store']['store.builds']}"))
    attempted += len(cross)
    for name, ok, detail in cross:
        if not ok:
            failed += 1
            failures.append(f"check {name}: {detail}")

    cold_s = [d["setup_s"] for d in docs if d["phase"] == "cold"]
    warm_s = [d["setup_s"] for d in docs if d["phase"] == "warm"]
    samples = [s for d in docs for s in d["unit_s"]]
    p50 = statistics.median(samples) if samples else 0.0
    tail = tail_percentile(len(samples))
    metrics = {
        "setup_s": statistics.median(cold_s),
        "warm_setup_s": statistics.median(warm_s),
        "unit_ms_p50": p50 * 1e3,
        "melem_per_s": first["elements_per_unit"] / p50 / 1e6 if p50 else 0.0,
        "peak_rss_mb": max(d["peak_rss_mb"] for d in docs),
    }
    q = statistics.quantiles(samples, n=4) if len(samples) > 1 else [p50] * 3
    info = {
        "dims": first["dims"], "sizes": first["sizes"], "n": len(samples),
        "elements_per_unit": first["elements_per_unit"],
        "unit_ms_q1": q[0] * 1e3, "unit_ms_q3": q[2] * 1e3,
        "tail_pct": tail,
        "unit_ms_tail": statistics.quantiles(
            samples, n=100, method="inclusive")[tail - 1] * 1e3
        if tail else None,
        "setup_samples": cold_s, "warm_setup_samples": warm_s,
        "fail_share": failed / attempted,
        "checks": first["checks"] + [[n_, ok, d] for n_, ok, d in cross],
    }
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics, "info": info}


def run_trace(w, seed: int, smoke: bool, workdir: Path, trace_out,
              names) -> dict:
    """Per-layer metrics of one workload: a traced cold process, then a
    traced warm set-up against the store it filled.

    Every metric of ``names`` is measured on every workload and none is
    filled in: one the workers did not report is a failed check.  A
    metric reads 0 only where the workload never runs that code (no
    ``solve.cg`` in a step app, no generated C on the vectorized
    backend) — see README, "Zeros".
    """
    store = workdir / "store-trace"
    cold = _spawn(workdir, store, "trace-cold", workload=w.name, seed=seed,
                  mode="trace", phase="cold", smoke=smoke,
                  trace_out=trace_out)
    warm = _spawn(workdir, store, "trace-warm", workload=w.name, seed=seed,
                  mode="trace", phase="warm", smoke=smoke)
    shutil.rmtree(store, ignore_errors=True)
    metrics = {**cold.get("metrics", {}), **warm.get("metrics", {})}
    failures = cold["failures"] + warm["failures"]
    attempted = cold["attempted"] + warm["attempted"] + 2
    failed = cold["failed"] + warm["failed"]
    nest_ok = bool(cold.get("nest_ok")) and bool(warm.get("nest_ok"))
    if not nest_ok:
        failed += 1
        failures.append("check trace.parents_nest: a span escapes its parent")
    missing = sorted(set(names) - set(metrics) - {"harness.fail_share"})
    if missing:
        failed += 1
        failures.append(f"check trace.every_metric_measured: {missing}")
    metrics["harness.fail_share"] = failed / attempted
    info = {k: cold.get(k) for k in
            ("dims", "sizes", "machine", "kernel_table", "spans",
             "self_ms")}
    info["nest_ok"] = nest_ok
    info["trace_file"] = trace_out
    return {"attempted": attempted, "failed": failed, "failures": failures,
            "metrics": metrics, "info": info}


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def provenance() -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    from repro.tune.signature import machine_fingerprint

    import roofline

    def first_line(cmd):
        try:
            return subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=10).stdout.splitlines()[0]
        except (OSError, IndexError, subprocess.TimeoutExpired):
            return "none"

    try:
        import cffi
        cffi_version = cffi.__version__
    except ImportError:
        cffi_version = "none"
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        from threadpoolctl import threadpool_info
        blas = max((p.get("num_threads", 0) for p in threadpool_info()
                    if p.get("user_api") == "blas"), default=0)
    except ImportError:
        blas = os.environ.get("OMP_NUM_THREADS", "default (<= nproc)")
    cc = shutil.which(os.environ.get("CC") or "cc") or shutil.which("gcc")
    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = first_line(["git", "-C", str(ROOT), "rev-parse", "HEAD"])
    return {
        "commit": commit, "machine": machine_fingerprint(),
        "python": platform.python_version(), "numpy": np.__version__,
        "cffi": cffi_version,
        "cc": first_line([cc, "--version"]) if cc else
        "none (native workloads fall back to the vectorized backend)",
        "cpu": cpu, "nproc": os.cpu_count(),
        "caches": {f"L{k}": v for k, v in
                   sorted(roofline.cache_levels().items())},
        "blas_threads": blas,
    }


def print_header(prov: dict, seed: int, seconds: float, mode: str) -> None:
    print(f"# bench_e2e  mode={mode}  seed={seed}  seconds={seconds:g}")
    for key in ("commit", "machine", "python", "numpy", "cffi", "cc", "cpu",
                "nproc", "caches", "blas_threads"):
        print(f"#   {key}: {prov[key]}")


def print_result(name: str, res: dict, units: dict, trace: bool) -> None:
    info = res["info"]
    print(f"\n== {name} ==")
    if info.get("dims"):
        print(f"  effective size: nx, ny = {info['dims']}  {info['sizes']}")
    for metric, value in sorted(res["metrics"].items()):
        if not metric.startswith("_"):  # "_": attribution parts, below
            print(f"  {metric:<44}{value:>16.6g} {units.get(metric, '')}")
    if trace:
        import workloads as wl
        m = res["metrics"]
        print("  loop slots: " + "  ".join(
            f"loop{k} = {kernel}" for k, kernel in
            enumerate(wl.WORKLOADS[name].top_kernels, 1))
            + "  (gather/kernel/scatter: loop1 on the vectorized scheme)")
        if m.get("solve.cg_iterations"):
            print(f"  {'solve.cg_ms / solve.cg_iterations':<44}"
                  f"{1e3 * m['solve.cg_ms'] / m['solve.cg_iterations']:>16.6g}"
                  " us")
        if info.get("kernel_table"):
            import roofline
            print("  per-kernel table (eager loops, most expensive first):")
            rows = [tuple(r) for r in info["kernel_table"]]
            for line in roofline.kernel_table(
                    rows, info["machine"]).splitlines():
                print("    " + line)
        if info.get("self_ms"):
            unit = info["self_ms"]["(unit)"]
            print("  self time per traced unit (median ms; share of unit):")
            for name, ms in sorted(info["self_ms"].items(),
                                   key=lambda kv: -kv[1]):
                if name != "(unit)":
                    print(f"    {name:<28}{ms:>12.4f}{100 * ms / unit:>8.1f} %")
        if "_warm.setup_s" in m:
            parts = {k: m.get(k, 0.0) for k in (
                "_warm.mesh_build_s", "_warm.construct_s",
                "store.plan_load_s",
                "store.chain_load_s", "store.native_load_s",
                "_warm.native_emit_s", "_warm.backend_s")}
            rest = m["_warm.setup_s"] - sum(parts.values())
            print(f"  warm set-up {m['_warm.setup_s']:.3f} s (traced) = "
                  + " + ".join(f"{k.split('.')[-1]} {v:.3f}"
                               for k, v in parts.items())
                  + f" + residual {rest:.3f}")
        print(f"  spans: {info.get('spans')}  parents nest: "
              f"{info.get('nest_ok')}  chrome trace: {info.get('trace_file')}")
    elif info:
        tail = (f"p{info['tail_pct']} {info['unit_ms_tail']:.3f} ms"
                if info.get("tail_pct") else "tail: fewer than 10 beyond p75")
        print(f"  unit_ms: n={info['n']}  q1 {info['unit_ms_q1']:.3f}  "
              f"q3 {info['unit_ms_q3']:.3f}  {tail}  "
              f"elements/unit={info['elements_per_unit']}")
        print(f"  setup samples {['%.3f' % s for s in info['setup_samples']]}"
              f"  warm {['%.3f' % s for s in info['warm_setup_samples']]}")
        print(f"  {'fail_share':<44}{info['fail_share']:>16.6g} share "
              f"({res['failed']} of {res['attempted']})")
    for failure in res["failures"]:
        print(f"  FAILED: {failure}")


def contract_json(res: dict, units: dict) -> dict:
    """The driver's result object for one workload.

    The driver wants every metric named even when a worker crashed; a
    metric with no value then reads 0, and ``correct`` is false (a
    missing metric is a failed check, see ``run_trace`` / ``run_e2e``).
    """
    metrics = {
        n: {"value": float(res["metrics"].get(n, 0.0)), "unit": unit}
        for n, unit in units.items()
    }
    return {"correct": res["failed"] == 0, "attempted": int(res["attempted"]),
            "failed": int(res["failed"]), "metrics": metrics}


# ----------------------------------------------------------------------
# Modes
# ----------------------------------------------------------------------
def _fresh_workdir() -> Path:
    workdir = WORK / f"run-{os.getpid()}-{time.time_ns()}"
    workdir.mkdir(parents=True)
    return workdir


def measure(contract, workload_names, seed, seconds, trace, smoke,
            trace_out=None):
    """Run the named workloads; ``{name: result}`` in order."""
    import workloads as wl

    per_layer = [m["name"] for m in contract["per_layer"]]
    results = {}
    workdir = _fresh_workdir()
    try:
        for name in workload_names:
            w = wl.WORKLOADS[name]
            sub = workdir / name
            sub.mkdir()
            if trace:
                # main() admits --trace-out only with a single workload
                out = trace_out or str(WORK / "traces" / f"{name}.trace.json")
                results[name] = run_trace(w, seed, smoke, sub, out,
                                          per_layer)
            else:
                results[name] = run_e2e(w, seed, seconds, smoke, sub)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return results


def smoke(contract: dict, seed: int) -> int:
    """All workloads at twin sizes, both modes; every contract metric
    must come out named, with a unit and a finite value."""
    names = [w["name"] for w in contract["workloads"]]
    problems = []
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        units = {m["name"]: m["unit"] for m in contract[key]}
        results = measure(contract, names, seed, SMOKE_SECONDS, trace,
                          smoke=True)
        for name, res in results.items():
            print_result(name, res, units, trace)
            for metric, unit in units.items():
                value = res["metrics"].get(metric)
                if value is None or not math.isfinite(value) or not unit:
                    problems.append(f"{name}: {metric} = {value!r} [{unit}]")
            if res["failed"]:
                problems.append(f"{name}: {res['failed']} failed "
                                f"({'trace' if trace else 'e2e'})")
            if trace and not res["info"].get("nest_ok"):
                problems.append(f"{name}: span parents do not nest")
    for p in problems:
        print(f"SMOKE PROBLEM: {p}")
    print(json.dumps({"smoke_ok": not problems, "problems": problems}))
    return 1 if problems else 0


def calibrate(contract: dict, seed: int, seconds: float, write: bool) -> int:
    """Two full sets back to back; spreads and medians against bounds."""
    names = [w["name"] for w in contract["workloads"]]
    e2e = contract["end_to_end"]
    sets = []
    for s in range(2):
        per = {n: {m["name"]: [] for m in e2e} for n in names}
        exact = {n: [] for n in names}
        for r in range(CALIBRATE_RUNS):
            results = measure(contract, names, seed + r, seconds, False,
                              False)
            for n, res in results.items():
                for m in e2e:
                    per[n][m["name"]].append(res["metrics"].get(m["name"]))
                exact[n].append((res["info"].get("elements_per_unit"),
                                 res["failed"]))
            print(f"# calibrate set {s} run {r} done", flush=True)
        sets.append((per, exact))
    bad = 0
    proposed = {}
    print(f"\n{'workload':<18}{'metric':<14}{'median A':>12}{'median B':>12}"
          f"{'spread A':>10}{'spread B':>10}{'drift':>9}{'bound':>7}")
    for n in names:
        for m in e2e:
            a, b = sets[0][0][n][m["name"]], sets[1][0][n][m["name"]]
            ma, mb = statistics.median(a), statistics.median(b)
            worse = (mb - ma) / ma if m["better"] == "lower" \
                else (ma - mb) / ma
            sa, sb = spread(a), spread(b)
            observed = max(sa, sb, abs(worse))
            proposed[m["name"]] = max(proposed.get(m["name"], 0.0), observed)
            flag = ""
            if worse > m["bound"] or max(sa, sb) > m["bound"]:
                bad += 1
                flag = "  <-- outside bound"
            print(f"{n:<18}{m['name']:<14}{ma:>12.5g}{mb:>12.5g}{sa:>10.3f}"
                  f"{sb:>10.3f}{worse:>+9.3f}{m['bound']:>7.2f}{flag}")
            print("    A: " + " ".join(f"{v:.5g}" for v in a))
            print("    B: " + " ".join(f"{v:.5g}" for v in b))
        if sets[0][1][n] != sets[1][1][n]:
            bad += 1
            print(f"{n}: exact counts differ between the sets")
    print("\nlargest observed spread/drift per metric, and the bound a "
          "third of which covers it (contract cap 0.25):")
    for m in e2e:
        obs = proposed[m["name"]]
        want = min(0.25, max(0.10, math.ceil(obs * 3 * 20) / 20))
        ok = want >= obs
        print(f"  {m['name']:<14} observed {obs:.3f}  -> bound {want:.2f}"
              f"{'' if ok else '  REFUSED: spread exceeds the 0.25 cap'}")
        if write and ok and want > m["bound"]:
            m["bound"] = want
        elif not ok:
            bad += 1
    if write:
        (ROOT / "BENCHMARK.json").write_text(
            json.dumps(contract, indent=2) + "\n")
        print("BENCHMARK.json bounds rewritten (never below the spread).")
    return 1 if bad else 0


def append_history(path: Path, prov: dict, seed: int, results: dict) -> None:
    row = {"commit": prov["commit"], "machine": prov["machine"], "seed": seed,
           "time": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
           "metrics": {n: {k: v for k, v in r["metrics"].items()
                           if not k.startswith("_")}
                       for n, r in results.items()}}
    with open(path, "a") as f:
        f.write(json.dumps(row) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", default=None)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None,
                    help="seconds of units measured per run "
                         "(default: BENCHMARK.json run_seconds)")
    ap.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                    help="1: traced run reporting the per-layer metrics")
    ap.add_argument("--trace-out", default=None,
                    help="Chrome-trace path; needs --workload (default "
                         "bench_e2e/.work/traces/<workload>.trace.json)")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--calibrate", action="store_true")
    ap.add_argument("--write-bounds", action="store_true")
    ap.add_argument("--history", default=None,
                    help="append one JSONL row of every metric to PATH")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"bench_e2e: {ROOT / 'src' / 'repro'} not found — the "
              "benchmark measures the repro package of its checkout",
              file=sys.stderr)
        return 2
    contract = load_contract()
    sys.path.insert(0, str(HERE))
    import workloads as wl

    seconds = args.seconds if args.seconds is not None \
        else float(contract["run_seconds"])
    if args.smoke:
        return smoke(contract, args.seed)
    if args.calibrate:
        return calibrate(contract, args.seed, seconds, args.write_bounds)
    names = [w["name"] for w in contract["workloads"]]
    if args.workload is not None:
        if args.workload not in wl.WORKLOADS:
            ap.error(f"unknown workload {args.workload!r}; one of {names}")
        names = [args.workload]
    elif args.trace_out:
        ap.error("--trace-out names one file: give --workload too")
    trace = bool(args.trace)
    key = "per_layer" if trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in contract[key]}
    prov = provenance()
    print_header(prov, args.seed, seconds, "trace" if trace else "e2e")
    results = measure(contract, names, args.seed, seconds, trace, False,
                      args.trace_out)
    for name, res in results.items():
        print_result(name, res, units, trace)
    if args.history:
        append_history(Path(args.history), prov, args.seed, results)
    if len(names) == 1:
        final = contract_json(results[names[0]], units)
    else:
        final = {
            "correct": all(r["failed"] == 0 for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{n}.{k}": v
                for n, r in results.items()
                for k, v in contract_json(r, units)["metrics"].items()
            },
        }
    print()
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
