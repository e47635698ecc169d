"""The persistent artifact store — the disk layer under the caches.

One module owns every on-disk caching concern the runtime has: where
artifacts live (``$REPRO_CACHE_DIR``, default ``~/.cache/repro_artifacts``,
one subdirectory per *kind*), how they are written (``mkstemp`` +
``os.replace`` — concurrent writers of one key are last-writer-wins and a
reader can never observe a half-written file), how failures behave
(corrupt, truncated, stale-schema or mismatched-key entries are *counted
and unlinked, never raised* — a broken cache degrades to recomputation,
never to an exception on the execution path), and how growth is bounded
(per-kind mtime-LRU sweeps, amortized so a write does not pay a directory
scan every time).

Two storage flavours share that machinery:

* **documents** (:meth:`ArtifactStore.get` / :meth:`ArtifactStore.put`)
  hold one pickled, schema-versioned document per key — the ``plan``
  kind's colourings;
* **raw files** (:meth:`ArtifactStore.publish_file` /
  :meth:`ArtifactStore.raw_path`) hold artifacts that must remain plain
  files on disk — the ``native`` kind's ``.so``/``.c`` pairs, which
  ``dlopen`` needs as real paths.

Every kind reports the same counter schema through
:func:`store_stats` → :meth:`repro.core.runtime.Runtime.stats`:
``disk_hits`` / ``disk_misses`` / ``writes`` / ``corrupt`` /
``evictions`` / ``builds`` (expensive constructions actually performed)
plus ``disk_entries``.  The grep guard in CI keeps every other module
out of the serialization business: no ``pickle`` and no cache-file
writes anywhere under ``src/repro`` outside this package.
"""

from __future__ import annotations

import os
import pickle
import tempfile
from pathlib import Path
from typing import Dict, List, Optional

#: Serialization schema per artifact kind.  Bump a kind's version
#: whenever its document layout (or the semantics of the code that
#: consumes it) changes: old entries are then treated as stale —
#: tolerated, counted as ``corrupt``, unlinked and rebuilt — instead of
#: being misread.  plan is at 4: its document became the bare colouring
#: (the layout is recomputed on load).
SCHEMA_VERSIONS: Dict[str, int] = {
    "plan": 4,
    "native": 1,
}

#: Default per-kind mtime-LRU bound (entries, not bytes: artifacts are
#: mesh-sized and a count bound keeps the sweep cheap and predictable).
DEFAULT_MAX_ENTRIES = 512

#: Run the (directory-scanning) LRU sweep once per this many writes.
_SWEEP_EVERY = 16

#: Counter names every kind carries (the uniform disk-layer schema).
COUNTER_NAMES = (
    "disk_hits", "disk_misses", "writes", "corrupt", "evictions", "builds",
)

_counters: Dict[str, Dict[str, int]] = {}


def cache_root() -> Path:
    """Root directory of the unified store (``$REPRO_CACHE_DIR``)."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro_artifacts"


def max_entries_for(kind: str) -> int:
    """Per-kind LRU bound; ``$REPRO_CACHE_MAX_ENTRIES`` overrides all."""
    override = os.environ.get("REPRO_CACHE_MAX_ENTRIES")
    if override:
        try:
            return max(1, int(override))
        except ValueError:
            pass
    return DEFAULT_MAX_ENTRIES


def store_disabled(kind: str) -> bool:
    """Whether persistence is off for ``kind``.

    ``REPRO_STORE_DISABLE=1`` (or ``all``) disables every kind;
    a comma-separated list (``REPRO_STORE_DISABLE=plan,native``)
    disables only the named kinds.  Disabled kinds compute everything
    in-process exactly as before the store existed — no disk traffic.
    """
    raw = os.environ.get("REPRO_STORE_DISABLE", "")
    if not raw:
        return False
    if raw.strip() in ("1", "all", "true"):
        return True
    return kind in {part.strip() for part in raw.split(",")}


def counters(kind: str) -> Dict[str, int]:
    """The (process-wide) counter dict for one kind."""
    c = _counters.get(kind)
    if c is None:
        c = {name: 0 for name in COUNTER_NAMES}
        _counters[kind] = c
    return c


def bump(kind: str, name: str, n: int = 1) -> None:
    counters(kind)[name] = counters(kind).get(name, 0) + n


def count_build(kind: str) -> None:
    """Record one expensive construction actually performed (a plan
    coloured, a native library compiled).  The warm-start acceptance
    pins these at zero for a second process replaying an identical
    workload."""
    bump(kind, "builds")


def reset_store_stats() -> None:
    """Zero every kind's counters (tests).  On-disk state is left
    alone — point ``REPRO_CACHE_DIR`` somewhere fresh to clear it."""
    for c in _counters.values():
        for k in c:
            c[k] = 0
    for store in _stores.values():
        store._writes_since_sweep = 0


def store_stats(kind: str) -> Dict[str, object]:
    """Uniform disk-layer counters for one kind (+ disk entry count)."""
    out: Dict[str, object] = dict(counters(kind))
    store = store_for(kind)
    out["disk_entries"] = store.entry_count()
    out["max_entries"] = store.max_entries
    return out


# ----------------------------------------------------------------------
# Shared low-level file operations
# ----------------------------------------------------------------------
def atomic_write_bytes(path: Path, data: bytes) -> bool:
    """Atomically publish ``data`` at ``path``; False on any OS failure.

    The temp file uses a leading-dot, non-matching suffix so directory
    scans (entry counts, LRU sweeps, corrupt-smoke file pickers) never
    see a half-written entry; ``os.replace`` makes the publish atomic
    even against a concurrent writer of the same key.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            suffix=".part", prefix=f".{path.name[:16]}-", dir=str(path.parent)
        )
        try:
            with os.fdopen(fd, "wb") as f:
                f.write(data)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError:
        return False  # read-only cache dir: skip persistence, keep running
    return True


def unlink_quiet(path: Path) -> bool:
    try:
        path.unlink()
        return True
    except OSError:
        return False


def lru_sweep(
    directory: Path, max_entries: int, kind: str,
    patterns: Optional[List[str]] = None,
) -> None:
    """Drop oldest-touched files beyond ``max_entries`` (mtime LRU).

    ``patterns`` lists the glob patterns forming one logical entry set
    (default: every visible file); companion files sharing an evicted
    file's stem (e.g. a ``.c`` next to a ``.so``) are dropped with it.
    """
    try:
        files = [
            p
            for pat in (patterns or ["*"])
            for p in directory.glob(pat)
            if not p.name.startswith(".")
        ]
        files.sort(key=lambda p: p.stat().st_mtime)
    except OSError:
        return
    excess = len(files) - max_entries
    for p in files[: max(0, excess)]:
        if unlink_quiet(p):
            bump(kind, "evictions")
        for sibling in directory.glob(p.stem + ".*"):
            unlink_quiet(sibling)


# ----------------------------------------------------------------------
# The store proper
# ----------------------------------------------------------------------
class ArtifactStore:
    """One artifact kind's keyed slice of the unified on-disk store.

    Documents are pickled dicts wrapped in a ``(schema, kind, key)``
    header validated on load; anything that fails to read, unpickle or
    validate counts as ``corrupt``, is unlinked, and reads as a miss.
    Keys are content hashes (see :mod:`repro.store.keys`), so equal keys
    mean interchangeable artifacts and a write is always idempotent.
    """

    def __init__(self, kind: str, suffix: str = ".pkl") -> None:
        self.kind = kind
        self.suffix = suffix
        self.schema = SCHEMA_VERSIONS.get(kind, 1)
        self._writes_since_sweep = 0

    # -- layout --------------------------------------------------------
    @property
    def max_entries(self) -> int:
        return max_entries_for(self.kind)

    def directory(self) -> Path:
        """Resolved per call so tests can repoint ``REPRO_CACHE_DIR``."""
        return cache_root() / self.kind

    def enabled(self) -> bool:
        return not store_disabled(self.kind)

    def path_for(self, key: str) -> Path:
        return self.directory() / f"{key}{self.suffix}"

    def entry_count(self) -> int:
        try:
            d = self.directory()
            if not d.is_dir():
                return 0
            return sum(
                1 for p in d.glob(f"*{self.suffix}")
                if not p.name.startswith(".")
            )
        except OSError:
            return 0

    def entries(self) -> List[str]:
        try:
            d = self.directory()
            if not d.is_dir():
                return []
            return sorted(
                p.name[: -len(self.suffix)]
                for p in d.glob(f"*{self.suffix}")
                if not p.name.startswith(".")
            )
        except OSError:
            return []

    def clear(self) -> None:
        try:
            for p in self.directory().glob("*"):
                unlink_quiet(p)
        except OSError:
            pass

    # -- documents -----------------------------------------------------
    def get(self, key: str) -> Optional[dict]:
        """The stored payload for ``key``, or ``None``.

        A hit refreshes the file's mtime (LRU order).
        """
        if not self.enabled():
            return None
        path = self.path_for(key)
        try:
            raw = path.read_bytes()
        except FileNotFoundError:
            bump(self.kind, "disk_misses")
            return None
        except OSError:
            bump(self.kind, "disk_misses")
            bump(self.kind, "corrupt")
            unlink_quiet(path)
            return None
        try:
            doc = pickle.loads(raw)
        except Exception:
            bump(self.kind, "disk_misses")
            bump(self.kind, "corrupt")
            unlink_quiet(path)
            return None
        if (
            not isinstance(doc, dict)
            or doc.get("schema") != self.schema
            or doc.get("kind") != self.kind
            or doc.get("key") != key
            or "payload" not in doc
        ):
            bump(self.kind, "disk_misses")
            bump(self.kind, "corrupt")
            unlink_quiet(path)
            return None
        bump(self.kind, "disk_hits")
        try:
            os.utime(path)
        except OSError:
            pass
        return doc["payload"]

    def put(self, key: str, payload: dict) -> bool:
        """Atomically persist one document and amortize the LRU sweep."""
        if not self.enabled():
            return False
        doc = {
            "schema": self.schema,
            "kind": self.kind,
            "key": key,
            "payload": payload,
        }
        try:
            data = pickle.dumps(doc, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:
            return False
        if not atomic_write_bytes(self.path_for(key), data):
            return False
        bump(self.kind, "writes")
        self._maybe_sweep([f"*{self.suffix}"])
        return True

    # -- raw files (native .so / .c) -----------------------------------
    def raw_path(self, key: str, suffix: str) -> Path:
        """Path of a raw (non-document) artifact file for ``key``."""
        return self.directory() / f"{key}{suffix}"

    def publish_file(self, tmp_path: str, key: str, suffix: str) -> bool:
        """Atomically move a finished temp file into the store."""
        path = self.raw_path(key, suffix)
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            os.replace(tmp_path, path)
        except OSError:
            return False
        bump(self.kind, "writes")
        self._maybe_sweep([f"*{suffix}"])
        return True

    # ------------------------------------------------------------------
    def _maybe_sweep(self, patterns: List[str]) -> None:
        self._writes_since_sweep += 1
        if self._writes_since_sweep < _SWEEP_EVERY:
            return
        self._writes_since_sweep = 0
        try:
            lru_sweep(self.directory(), self.max_entries, self.kind, patterns)
        except OSError:
            pass


_stores: Dict[str, ArtifactStore] = {}


def store_for(kind: str) -> ArtifactStore:
    """The process-wide store instance for one artifact kind."""
    store = _stores.get(kind)
    if store is None:
        store = ArtifactStore(kind)
        _stores[kind] = store
    return store
