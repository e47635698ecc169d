"""Measured machine roofline: STREAM triad and an FMA-peak loop.

Both kernels are compiled with the system C compiler and loaded through
cffi inside the benchmark process (the same toolchain ``repro`` uses for
its native backend), so the denominators of ``loop_pct_triad`` are
measured in the same run as the loops they judge.  Without a compiler
the triad falls back to NumPy ``a = b + s * c`` (two passes, flagged
``fallback=True``) and the FMA peak is reported as 0.

Triad arrays are sized at 4x the detected last-level cache (the sum of
LLC instances the run can use), capped at one eighth of available RAM
per array and at :data:`MAX_ARRAY_BYTES`; both sizes are stated in the
result.  Bytes are the STREAM convention, 3 x 8 x n per pass (no
write-allocate traffic counted) — *computed*, like every byte count in
this benchmark.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import threading
from pathlib import Path
from time import perf_counter

import numpy as np

#: Upper bound per triad array: keeps the measurement to a few seconds
#: on hosts whose reported LLC is a whole shared socket's (a cloud VM
#: here reports 260 MiB; 4x that per array would take ~10 s a run).
MAX_ARRAY_BYTES = 512 << 20

_C_SOURCE = r"""
#include <stddef.h>
void be_triad(double *a, const double *b, const double *c, double s, long n)
{
    for (long i = 0; i < n; i++) a[i] = b[i] + s * c[i];
}
typedef double v8 __attribute__((vector_size(64)));
double be_fma(long iters)
{
    v8 m = {1.0000001, 1.0000002, 1.0000003, 1.0000004,
            1.0000005, 1.0000006, 1.0000007, 1.0000008};
    v8 c = {1e-9, 2e-9, 3e-9, 4e-9, 5e-9, 6e-9, 7e-9, 8e-9};
    v8 a0 = c, a1 = c + c, a2 = a1 + c, a3 = a2 + c,
       a4 = a3 + c, a5 = a4 + c, a6 = a5 + c, a7 = a6 + c;
    for (long i = 0; i < iters; i++) {
        a0 = a0 * m + c; a1 = a1 * m + c; a2 = a2 * m + c; a3 = a3 * m + c;
        a4 = a4 * m + c; a5 = a5 * m + c; a6 = a6 * m + c; a7 = a7 * m + c;
    }
    v8 s = a0 + a1 + a2 + a3 + a4 + a5 + a6 + a7;
    double r = 0.0;
    for (int k = 0; k < 8; k++) r += s[k];
    return r;
}
"""
_CDEF = """
void be_triad(double *a, const double *b, const double *c, double s, long n);
double be_fma(long iters);
"""
#: Flops per ``be_fma`` iteration: 8 accumulators x 8 lanes x (mul+add).
_FMA_FLOPS_PER_ITER = 8 * 8 * 2


def cache_levels() -> dict:
    """Data/unified cache bytes per level, summed over the instances the
    run can use (``{1: ..., 2: ..., 3: ...}``; empty without sysfs)."""
    levels, seen = {}, set()
    for idx in Path("/sys/devices/system/cpu").glob("cpu[0-9]*/cache/index*"):
        try:
            level = int((idx / "level").read_text())
            kind = (idx / "type").read_text().strip()
            size = (idx / "size").read_text().strip()
            shared = (idx / "shared_cpu_list").read_text().strip()
        except (OSError, ValueError):
            continue
        if kind == "Instruction" or (level, shared) in seen:
            continue
        seen.add((level, shared))
        mult = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1])
        levels[level] = levels.get(level, 0) + (
            int(size[:-1]) * mult if mult else int(size))
    return levels


def detect_llc_bytes() -> int:
    """Bytes of last-level cache the run can use (all instances)."""
    levels = cache_levels()
    return levels[max(levels)] if levels else 0


def _mem_available_bytes() -> int:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                return int(line.split()[1]) * 1024
    except OSError:
        pass
    return 0


def _compile(workdir: Path):
    """Build and dlopen the two kernels; ``None`` without cc or cffi."""
    cc = next((p for p in (shutil.which(c) for c in
                           (os.environ.get("CC") or "cc", "gcc", "clang"))
               if p), None)
    if cc is None:
        return None
    try:
        import cffi
    except ImportError:
        return None
    workdir.mkdir(parents=True, exist_ok=True)
    so = workdir / f"roofline-{os.getpid()}.so"
    proc = subprocess.run(
        [cc, "-O2", "-march=native", "-fPIC", "-shared", "-x", "c", "-",
         "-o", str(so)],
        input=_C_SOURCE, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        return None
    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    return ffi, ffi.dlopen(str(so))


def _best_rate(fn, work: float, min_seconds: float, min_reps: int) -> float:
    """Highest work/second over repeated calls (the STREAM convention:
    contention only ever slows a pass down)."""
    best = 0.0
    t_end = perf_counter() + min_seconds
    reps = 0
    while reps < min_reps or perf_counter() < t_end:
        t0 = perf_counter()
        fn()
        best = max(best, work / (perf_counter() - t0))
        reps += 1
    return best


def measure_machine(workdir: Path, quick: bool = False) -> dict:
    """Triad GB/s on one and on all cores, FMA GFLOP/s on one core.

    ``quick`` (the smoke run) shrinks the arrays to 8 MiB: the numbers
    are then cache-resident and say so (``capped``).
    """
    nproc = os.cpu_count() or 1
    llc = detect_llc_bytes()
    want = max(4 * llc, 64 << 20)
    cap = MAX_ARRAY_BYTES
    avail = _mem_available_bytes()
    if avail:
        cap = min(cap, avail // 8)
    if quick:
        cap = 8 << 20
    nbytes = min(want, cap)
    n = nbytes // 8
    a = np.zeros(n)
    b = np.full(n, 1.5)
    c = np.full(n, 2.5)
    built = _compile(workdir)
    secs = 0.2 if quick else 1.0
    out = {
        "nproc": nproc, "llc_bytes": llc, "array_bytes": int(n * 8),
        "wanted_array_bytes": int(want), "capped": bool(nbytes < want),
        "fallback": built is None,
    }
    triad_bytes = 3.0 * 8.0 * n
    if built is None:
        def triad_np():
            np.multiply(c, 3.0, out=a)
            np.add(a, b, out=a)

        out["triad_gbs_1t"] = _best_rate(triad_np, triad_bytes, secs, 3) / 1e9
        out["triad_gbs_all"] = out["triad_gbs_1t"]
        out["fma_gflops_1t"] = 0.0
        return out
    ffi, lib = built
    pa, pb, pc = (ffi.cast("double *", x.ctypes.data) for x in (a, b, c))
    out["triad_gbs_1t"] = _best_rate(
        lambda: lib.be_triad(pa, pb, pc, 3.0, n), triad_bytes, secs, 3) / 1e9

    # All cores: one Python thread per core, each streaming its own
    # contiguous slice (cffi releases the GIL around the call).
    bounds = [n * k // nproc for k in range(nproc + 1)]

    def triad_all():
        threads = [
            threading.Thread(
                target=lib.be_triad,
                args=(pa + bounds[k], pb + bounds[k], pc + bounds[k], 3.0,
                      bounds[k + 1] - bounds[k]),
            )
            for k in range(nproc)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

    out["triad_gbs_all"] = _best_rate(triad_all, triad_bytes, secs, 3) / 1e9
    iters = 2_000_000 if quick else 20_000_000
    out["fma_gflops_1t"] = _best_rate(
        lambda: lib.be_fma(iters), _FMA_FLOPS_PER_ITER * float(iters),
        secs / 2, 2) / 1e9
    return out


def kernel_table(rows, machine: dict) -> str:
    """The paper's per-kernel table from measured loops.

    ``rows``: ``(kernel, calls_per_unit, ms_per_call, gbs, gflops)``;
    GB/s and GFLOP/s are computed from the per-element estimates in
    ``Runtime.stats()["profile"]``, not counted by hardware.
    """
    triad = machine.get("triad_gbs_1t") or 0.0
    lines = [
        f"{'kernel':<26}{'calls':>6}{'ms/call':>10}{'GB/s*':>9}"
        f"{'GFLOP/s*':>10}{'% triad':>9}",
    ]
    for name, calls, ms, gbs, gflops in rows:
        pct = 100.0 * gbs / triad if triad else 0.0
        lines.append(
            f"{name:<26}{calls:>6d}{ms:>10.3f}{gbs:>9.2f}{gflops:>10.2f}"
            f"{pct:>9.1f}"
        )
    lines.append(
        f"* computed from per-element byte/flop estimates; triad 1T = "
        f"{triad:.2f} GB/s measured over {machine.get('array_bytes', 0) >> 20}"
        f" MiB arrays (LLC {machine.get('llc_bytes', 0) >> 20} MiB"
        f"{', capped' if machine.get('capped') else ''}"
        f"{', NumPy fallback' if machine.get('fallback') else ''})"
    )
    return "\n".join(lines)
