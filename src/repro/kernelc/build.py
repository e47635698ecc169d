"""Building native chains: compile flags, the compiler, the ``.so`` cache.

:mod:`repro.kernelc.native` prints a chain as one C translation unit;
this module compiles it with the IEEE-strict :data:`CFLAGS` plus the
optional lane and OpenMP flag groups — a compiler that rejects a group
builds the same source without it, with the same bits — and loads it
through cffi.  Libraries are cached in memory by source hash and on
disk (the artifact store's ``native`` kind, the runtime's fifth cache
kind) by source and flags, with a checksum verified before ``dlopen``.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from ..simd import host_isa, isa_flags
from .lower import NativeUnsupported


def source_key(source: str) -> str:
    """Content hash of an emitted TU — the native cache key.  Everything
    behavior-affecting (kernel bodies, strides, layouts, extents, loop
    ranges, constants) is baked into the source text, so equal keys mean
    interchangeable shared objects."""
    return hashlib.sha256(source.encode()).hexdigest()


_CDEF = """
void kc_loop_run(long long j, void **P, long long lo, long long hi);
void kc_loop_init(long long j);
void kc_loop_partial(long long j, void **P);
void kc_run_fused(void **P);
long long kc_run_repeat(void **P, long long max_trips, void *hist);
int kc_threads(void);
"""

#: cc flags: IEEE-strict (no contraction, no reassociation) — the
#: determinism contract depends on these.
#: ``-fno-builtin-pow``: GCC otherwise expands ``pow(x, 2.0)`` into
#: ``x * x`` at compile time, which rounds one ulp away from libm pow —
#: the numpy-scalar semantics the oracle interpreter exhibits.
CFLAGS = ["-O2", "-fPIC", "-shared", "-fno-fast-math", "-ffp-contract=off",
          "-fno-builtin-pow", "-fno-builtin-powf"]
#: Added for a TU with a loop lowered across elements:
#: ``-fopenmp-simd`` honours ``omp simd`` (and no other OpenMP);
#: ``-fno-math-errno`` lets ``sqrt`` be one instruction instead of a
#: call that may set ``errno``, so it can vectorize; 256-bit vectors,
#: no straight-line SLP and no vectorized epilogue cut the AVX-512
#: build's extra time from ~0.25 to ~0.08 s on airfoil_large's TU, and
#: keep scrambled Volna's gain.  None changes a result.  Plus the
#: host's vector ISA (:func:`repro.simd.isa_flags`).  A compiler that
#: rejects them builds the same source without, scalar, counted under
#: ``scalar_builds``.
LANE_FLAGS = ["-fopenmp-simd", "-fno-math-errno", "-mprefer-vector-width=256",
              "-fno-tree-slp-vectorize", "--param", "vect-epilogues-nomask=0"]
#: Added for a threaded TU.  A compiler that rejects it builds the same
#: source without (pragmas ignored: one thread, the same bits), and the
#: build is counted under ``serial_builds``.
OPENMP_FLAGS = ["-fopenmp"]

_stats = dict.fromkeys(("compiles", "disk_hits", "mem_hits", "failures",
                        "fallbacks", "program_hits"), 0)
#: Why chains fell back: a ``NativeUnsupported`` message's first line.
_fallback_reasons: Dict[str, int] = {}
_mem_libs: Dict[str, tuple] = {}
_cc_probe: Dict[tuple, Optional[str]] = {}
#: ``(compiler, flag group)`` pairs seen rejected in this process.
_rejected: set = set()
#: Team size last observed by a threaded call; threaded TUs built
#: without OpenMP, and TUs built without the lane flags, by reason.
_threads: Dict[str, object] = {"threads": None, "serial_builds": {},
                               "scalar_builds": {}}


def native_cache_stats() -> Dict[str, int]:
    """Counters for the native compile cache (the runtime's fifth cache
    kind, ``Runtime.stats()["native_cache"]``); ``fallback_reasons``
    counts the ``fallbacks`` by reason."""
    out = dict(_stats)
    out["entries"] = len(_mem_libs)
    out["fallback_reasons"] = dict(_fallback_reasons)
    return out


def native_thread_stats() -> Dict[str, object]:
    """``threads``: the OpenMP team size a threaded chain last ran with
    (``None`` before any did); ``serial_builds``: threaded TUs compiled
    without OpenMP, by reason; ``scalar_builds``: TUs compiled without
    the lane flags, by reason; ``isa``: the vector ISA TUs target."""
    return {"threads": _threads["threads"],
            "serial_builds": dict(_threads["serial_builds"]),
            "scalar_builds": dict(_threads["scalar_builds"]),
            "isa": host_isa()}


def _count_build(counter: str, reason: str) -> None:
    builds = _threads[counter]
    builds[reason] = builds.get(reason, 0) + 1


def count_native_fallback(reason: str) -> None:
    """Record one chain/loop that fell back off the native path, and
    why (the first line of ``reason``)."""
    _stats["fallbacks"] += 1
    line = reason.splitlines()[0] if reason else ""
    _fallback_reasons[line] = _fallback_reasons.get(line, 0) + 1


def note_threads(team: int) -> None:
    """Record the team size a threaded chain just ran with."""
    _threads["threads"] = team


def count_program_hit() -> None:
    """Record one chain served by a program built for an earlier chain
    of its shape: nothing emitted, hashed or loaded."""
    _stats["program_hits"] += 1


def reset_native_cache() -> None:
    """Drop in-memory compiled libraries and zero the counters (tests).
    The on-disk cache is left alone — remove ``native_cache_dir()`` to
    clear it."""
    from .. import store

    _mem_libs.clear()
    _cc_probe.clear()
    _rejected.clear()
    for k in _stats:
        _stats[k] = 0
    _fallback_reasons.clear()
    _threads.update(threads=None, serial_builds={}, scalar_builds={})
    c = store.counters("native")
    for k in c:
        c[k] = 0


def native_cache_dir() -> Path:
    """Directory holding compiled ``.so``/``.c`` pairs.

    Binaries live in the unified artifact store
    (``$REPRO_CACHE_DIR/native/``) under a machine-fingerprint
    subdirectory — compiled code is not portable across machines the
    way pickled plan documents are.
    """
    from .. import store
    from ..tune.signature import machine_fingerprint

    return store.cache_root() / "native" / machine_fingerprint()


def library_key(source: str, flags: Sequence[str]) -> str:
    """Disk key of one compiled TU: source content **plus the flags it
    is compiled with**.

    Unlike :func:`source_key` (the pure source digest, the in-memory
    key), the disk key folds in the compile flags: they are
    behavior-affecting (``-fno-builtin-pow`` changes rounding, a
    threaded TU built without ``-fopenmp`` runs on one thread), so a
    flags change must invalidate every cached binary.
    """
    return hashlib.sha256(
        "\x1f".join([source, *flags]).encode()
    ).hexdigest()


def is_threaded(source: str) -> bool:
    return "#pragma omp parallel" in source


def _flag_groups(source: str) -> List[Tuple[str, List[str], str, str]]:
    """The optional flag groups of a TU: ``(name, flags, counter,
    reason)`` — the lane flags for a TU with a lowered loop, and
    :data:`OPENMP_FLAGS` for a threaded one.  Without either the same
    source builds and gives the same bits."""
    groups = []
    if "#pragma omp simd" in source:
        lanes = LANE_FLAGS + isa_flags()
        groups.append(("lanes", lanes, "scalar_builds",
                       "no " + " ".join(lanes)))
    if is_threaded(source):
        groups.append(("openmp", OPENMP_FLAGS, "serial_builds",
                       "no -fopenmp"))
    return groups


def _compile_flags(source: str, cc: Optional[str]) -> List[str]:
    """The flags a TU is built with: :data:`CFLAGS` plus each optional
    group ``cc`` is not known to reject (a dropped one is counted)."""
    flags = list(CFLAGS)
    for name, group, counter, reason in _flag_groups(source):
        if (cc, name) in _rejected:
            _count_build(counter, reason)
        else:
            flags += group
    return flags


def _note_rejected(source: str, cc: str) -> bool:
    """After a failed build: probe ``cc`` with each optional group not
    yet known rejected, by building an empty shared object with it.
    True when one is newly found rejected (a retry without it may
    succeed); False means the source itself does not compile."""
    found = False
    for name, group, _, _ in _flag_groups(source):
        if (cc, name) in _rejected:
            continue
        with tempfile.TemporaryDirectory() as tmp:
            proc = subprocess.run(
                [cc, *CFLAGS, *group, "-x", "c", "-", "-o",
                 os.path.join(tmp, "probe.so")],
                input="int kc_probe;\n", capture_output=True, text=True,
            )
        if proc.returncode != 0:
            _rejected.add((cc, name))
            found = True
    return found


def _so_checksum_ok(so_path: Path) -> bool:
    """True when the ``.sum`` sidecar matches the binary's content."""
    try:
        data = so_path.read_bytes()
        expected = so_path.with_suffix(".sum").read_bytes()
        return hashlib.sha256(data).hexdigest().encode() == expected.strip()
    except OSError:
        return False


def _find_cc() -> Optional[str]:
    key = (os.environ.get("CC"), os.environ.get("PATH"))
    if key in _cc_probe:
        return _cc_probe[key]
    cc = os.environ.get("CC")
    if cc and shutil.which(cc):
        _cc_probe[key] = shutil.which(cc)
        return _cc_probe[key]
    for cand in ("cc", "gcc", "clang"):
        found = shutil.which(cand)
        if found:
            _cc_probe[key] = found
            return found
    _cc_probe[key] = None
    return None


def compiler_available() -> bool:
    """Can this process compile and load native chains?

    ``REPRO_NATIVE_DISABLE_CC=1`` forces False (the CI fallback job);
    otherwise require both a C compiler on PATH and cffi.
    """
    if os.environ.get("REPRO_NATIVE_DISABLE_CC"):
        return False
    try:
        import cffi  # noqa: F401
    except ImportError:  # pragma: no cover - cffi is baked into the image
        return False
    return _find_cc() is not None


def load_native_library(source: str):
    """Compile (or fetch from cache) one TU; returns ``(ffi, lib, key)``."""
    from .. import store

    sha = source_key(source)
    cached = _mem_libs.get(sha)
    if cached is not None:
        _stats["mem_hits"] += 1
        return cached + (sha,)
    import cffi

    ffi = cffi.FFI()
    ffi.cdef(_CDEF)
    disk_ok = not store.store_disabled("native")
    cache_dir = native_cache_dir()
    cc = _find_cc()
    while True:
        flags = _compile_flags(source, cc)
        lib = _disk_load(ffi, cache_dir / f"{library_key(source, flags)}.so",
                         disk_ok)
        if lib is not None:
            break
        if cc is None:
            raise NativeUnsupported("no C compiler on PATH")
        lib, err = _compile_and_load(ffi, cc, source, flags, cache_dir,
                                     disk_ok)
        if lib is not None:
            break
        # The compiler may reject an optional flag group: then the same
        # source without it (serially, or scalar); else a real failure.
        if not _note_rejected(source, cc):
            _stats["failures"] += 1
            raise NativeUnsupported(err)
    _mem_libs[sha] = (ffi, lib)
    return ffi, lib, sha


def _disk_load(ffi, so_path: Path, disk_ok: bool):
    """The cached binary at ``so_path``, or ``None`` (a miss, or a
    corrupt artifact, which is removed)."""
    from .. import store

    if not disk_ok:
        return None
    if not so_path.exists():
        store.bump("native", "disk_misses")
        return None
    # Verify the checksum sidecar before dlopen: a truncated .so can map
    # cleanly and then SIGBUS at call time, so dlopen's own error path
    # cannot be the integrity check.
    if _so_checksum_ok(so_path):
        try:
            lib = ffi.dlopen(str(so_path))
        except OSError:  # stale/foreign artifact: recompile
            pass
        else:
            _stats["disk_hits"] += 1
            store.bump("native", "disk_hits")
            return lib
    store.bump("native", "corrupt")
    store.unlink_quiet(so_path)
    store.unlink_quiet(so_path.with_suffix(".sum"))
    return None


def _compile_and_load(ffi, cc: str, source: str, flags: Sequence[str],
                      cache_dir: Path, disk_ok: bool):
    """Compile ``source`` with ``flags`` and load it: ``(lib, None)``,
    or ``(None, error)`` when the compiler fails."""
    from .. import store

    lkey = library_key(source, flags)
    so_path = cache_dir / f"{lkey}.so"
    cache_dir.mkdir(parents=True, exist_ok=True)
    if disk_ok:
        # The .c rides along for debugging; the .so is the artifact.
        store.atomic_write_bytes(cache_dir / f"{lkey}.c", source.encode())
    fd, tmp_so = tempfile.mkstemp(
        suffix=".part", prefix=f".{lkey[:12]}-", dir=str(cache_dir)
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [cc, *flags, "-x", "c", "-", "-o", tmp_so, "-lm"],
            input=source, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            return None, f"cc failed ({proc.returncode}): {proc.stderr[-800:]}"
        _stats["compiles"] += 1
        store.count_build("native")
        if not disk_ok:
            # Persistence disabled: load the private temp binary and
            # unlink it (the dlopen mapping keeps it alive).
            return ffi.dlopen(tmp_so), None
        digest = hashlib.sha256(Path(tmp_so).read_bytes()).hexdigest()
        os.replace(tmp_so, so_path)
        store.atomic_write_bytes(so_path.with_suffix(".sum"), digest.encode())
        store.bump("native", "writes")
        store.lru_sweep(
            cache_dir, store.max_entries_for("native"), "native", ["*.so"],
        )
        return ffi.dlopen(str(so_path)), None
    finally:
        if os.path.exists(tmp_so):
            os.unlink(tmp_so)
