"""The persistent artifact store (``$REPRO_CACHE_DIR``).

Two persistent kinds, one disk layer: the permute schemes' colourings
(``plan``) and native ``.so`` binaries (``native``) persist through
:class:`~repro.store.base.ArtifactStore` — content-addressed keys
(:mod:`repro.store.keys`), versioned pickled documents, atomic
``os.replace`` publishes, corrupt/stale entries counted-and-unlinked
(never raised), mtime-LRU bounded per kind.  A second process running
an identical workload colours nothing and compiles nothing — the
cross-process extension of the paper's "inspect once, execute many
times" amortization argument.  Everything cheaper to rebuild than to
load (fusion decisions, tiled schedules, generated vector kernels) is
rebuilt in each process and kept only in memory.

See ``docs/architecture.md`` § "The cache hierarchy" for the lookup
order of every cache, and the README knob table for
``REPRO_CACHE_DIR`` / ``REPRO_CACHE_MAX_ENTRIES`` /
``REPRO_STORE_DISABLE``.
"""

from .base import (
    ArtifactStore,
    COUNTER_NAMES,
    DEFAULT_MAX_ENTRIES,
    SCHEMA_VERSIONS,
    atomic_write_bytes,
    bump,
    cache_root,
    count_build,
    counters,
    lru_sweep,
    max_entries_for,
    reset_store_stats,
    store_disabled,
    store_for,
    store_stats,
    unlink_quiet,
)
from .codecs import DECODE_ERRORS, decode_plan, encode_plan
from .keys import digest, map_key, plan_key, set_token

__all__ = [
    "ArtifactStore", "COUNTER_NAMES", "DEFAULT_MAX_ENTRIES",
    "SCHEMA_VERSIONS", "atomic_write_bytes", "bump", "cache_root",
    "count_build", "counters", "lru_sweep", "max_entries_for",
    "reset_store_stats", "store_disabled", "store_for", "store_stats",
    "unlink_quiet",
    "DECODE_ERRORS", "decode_plan", "encode_plan",
    "digest", "map_key", "plan_key", "set_token",
]
