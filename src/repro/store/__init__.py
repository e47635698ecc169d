"""The unified persistent artifact store (``$REPRO_CACHE_DIR``).

Five persistent cache kinds, one disk layer: execution plans, compiled
loop chains, tiled schedules, generated vector-kernel sources and
native ``.so`` binaries all persist through
:class:`~repro.store.base.ArtifactStore` — content-addressed keys
(:mod:`repro.store.keys`), versioned pickled documents, atomic
``os.replace`` publishes, corrupt/stale entries counted-and-unlinked
(never raised), mtime-LRU bounded per kind.  A second process running
an identical workload replays everything warm: zero plan construction,
zero tiling inspection, zero kernel emission, zero native compiles —
the cross-process extension of the paper's "inspect once, execute many
times" amortization argument, and the substrate the ROADMAP's
session-server item builds on.

See ``docs/architecture.md`` § "The cache hierarchy" for the full
lookup order of every kind, and the README knob table for
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
from .codecs import (
    DECODE_ERRORS,
    decode_chain,
    decode_kernelc,
    decode_plan,
    decode_tiled,
    encode_chain,
    encode_kernelc,
    encode_plan,
    encode_tiled,
)
from .keys import (
    chain_key,
    digest,
    kernel_key,
    kernelc_key,
    map_key,
    plan_key,
    set_token,
    tiled_key,
)

__all__ = [
    "ArtifactStore", "COUNTER_NAMES", "DEFAULT_MAX_ENTRIES",
    "SCHEMA_VERSIONS", "atomic_write_bytes", "bump", "cache_root",
    "count_build", "counters", "lru_sweep", "max_entries_for",
    "reset_store_stats", "store_disabled", "store_for", "store_stats",
    "unlink_quiet",
    "DECODE_ERRORS", "decode_chain", "decode_kernelc", "decode_plan",
    "decode_tiled",
    "encode_chain", "encode_kernelc", "encode_plan", "encode_tiled",
    "chain_key", "digest", "kernel_key", "kernelc_key", "map_key",
    "plan_key", "set_token", "tiled_key",
]
