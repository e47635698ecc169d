"""Runtime configuration: backend selection, plan caches, loop accounting.

OP2 separates the application (written once against the API) from the
backend chosen at build/run time; here the same separation is a runtime
:class:`Runtime` object.  A module-level default runtime keeps the common
case (serial experimentation) zero-ceremony, while benchmarks construct
isolated runtimes per configuration.

Four cache levels keep steady-state execution cheap:

1. the structural :class:`~repro.core.plan.PlanCache` (coloring reused by
   every loop with the same racing access structure),
2. a **loop cache** keyed by ``(kernel, set, args signature)`` — the
   exact call site — that skips even the signature normalization and
   returns the memoized plan directly.  Because plans memoize their
   whole-color phases and gather index arrays
   (:meth:`~repro.core.plan.Plan.phases`), a cache hit here means a
   repeated invocation rebuilds *no* index arrays at all; and
3. a **chain cache** keyed by the structural signature of a whole
   recorded loop sequence (:mod:`repro.core.chain`): a steady-state
   time step traced with ``with runtime.chain():`` replays a
   pre-analyzed, pre-fused schedule with zero re-analysis; and
4. the **kernel-compilation cache** (:mod:`repro.kernelc`): generated
   batched kernels memoized per (kernel, argument shape), so each
   kernel's vector form is derived from its scalar source exactly once
   per shape for the whole process.

All of them are LRU-bounded (configurable ``*_entries`` knobs) so
long-running processes cannot grow them without bound;
:meth:`Runtime.stats` exposes the hit/miss/eviction counters.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import Dict, Optional, Sequence, Set as SetOf, Tuple

from ..backends.base import Backend
from ..backends.codegen import CodegenBackend
from ..backends.openmp import OpenMPBackend
from ..backends.sequential import SequentialBackend
from ..backends.simt import SIMTBackend
from ..backends.vectorized import VectorizedBackend
from .access import Arg
from .chain import CompiledChain, LoopChain, LoopSpec, compile_chain
from .dat import _check_layout
from .kernel import Kernel
from .plan import (
    DEFAULT_BLOCK_SIZE,
    DEFAULT_PLAN_CACHE_ENTRIES,
    Plan,
    PlanCache,
)
from .set import Set

#: Default LRU bound for the call-site loop cache.
DEFAULT_LOOP_CACHE_ENTRIES = 1024

#: Default LRU bound for the compiled-chain cache.
DEFAULT_CHAIN_CACHE_ENTRIES = 64


def loop_signature(kernel: Kernel, set_: Set, args: Sequence[Arg]) -> Tuple:
    """Hashable identity of one ``par_loop`` call site.

    Unlike :func:`~repro.core.plan.plan_signature` (which keys only the
    racing structure), this keys the full argument *shape* — maps, slots
    and access modes per position — so it can stand in for re-normalizing
    the arguments on every invocation.  Dat identity is deliberately
    excluded: plans depend on access structure, never on which Dat flows
    through it, and keying on Dats would grow the cache without bound for
    apps that allocate scratch Dats every time step.
    """
    return (
        kernel.name,
        set_._uid,
        tuple(
            (
                arg.map._uid if arg.map is not None else -1,
                arg.index,
                arg.access.name,
            )
            for arg in args
        ),
    )


def make_backend(name: str, **options) -> Backend:
    """Instantiate a backend by registry name.

    Names: ``sequential``, ``openmp``, ``vectorized``, ``simt``,
    ``codegen``, ``native``.  Options are forwarded
    (``vec=`` for vectorized, ``device=`` for simt).
    """
    from ..backends.native import NativeBackend

    registry = {
        "sequential": SequentialBackend,
        "openmp": OpenMPBackend,
        "vectorized": VectorizedBackend,
        "simt": SIMTBackend,
        "codegen": CodegenBackend,
        "native": NativeBackend,
    }
    if name not in registry:
        raise KeyError(
            f"Unknown backend {name!r}; available: {sorted(registry)}"
        )
    return registry[name](**options)


class Runtime:
    """Execution context for parallel loops.

    Parameters
    ----------
    backend:
        Backend instance or registry name.
    block_size:
        Mini-partition size for plans (paper Fig 8b's tuning knob).
    scheme:
        Default execution ordering: ``two_level`` (original),
        ``full_permute`` or ``block_permute``.
    coloring_method:
        ``auto``, ``greedy`` (serial sweep) or ``jp`` (vectorized rounds).
    layout:
        Default :class:`~repro.core.dat.Dat` storage layout (``"aos"`` or
        ``"soa"``) the application drivers apply when allocating state;
        ``None`` leaves the process default untouched.
    plan_cache_entries / loop_cache_entries / chain_cache_entries:
        LRU bounds for the three cache levels (``None`` = unbounded).

    ``backend="auto"`` requests the auto-tuning runtime
    (:mod:`repro.tune`): execution starts on the vectorized default,
    and the first app driver constructed over this runtime negotiates
    ``(backend, layout, tile size, chained-vs-eager)`` — replaying a
    persisted decision when the tuning DB has one for this machine and
    workload, probing otherwise.  Explicit knobs (``layout=...``, a
    driver's ``chained=``/``tiling=``) are pins the tuner never
    overrides, and results stay bitwise identical to sequential eager
    whatever configuration wins.
    """

    def __init__(
        self,
        backend: Backend | str = "vectorized",
        block_size: int = DEFAULT_BLOCK_SIZE,
        scheme: str = "two_level",
        coloring_method: str = "auto",
        layout: Optional[str] = None,
        plan_cache_entries: Optional[int] = DEFAULT_PLAN_CACHE_ENTRIES,
        loop_cache_entries: Optional[int] = DEFAULT_LOOP_CACHE_ENTRIES,
        chain_cache_entries: Optional[int] = DEFAULT_CHAIN_CACHE_ENTRIES,
    ) -> None:
        #: True when constructed as ``Runtime("auto")``: app drivers
        #: will call :meth:`autotune` before their first step.
        self.autotune_requested = backend == "auto"
        if self.autotune_requested:
            backend = "vectorized"  # placeholder until a decision lands
        self.backend = (
            backend if isinstance(backend, Backend) else make_backend(backend)
        )
        self.block_size = int(block_size)
        self.scheme = scheme
        self.coloring_method = coloring_method
        #: Whether the caller pinned the layout explicitly (the tuner
        #: treats an explicit layout as non-negotiable).
        self.layout_explicit = layout is not None
        self.layout = _check_layout(layout) if layout is not None else None
        #: The tuner's decision applied to this runtime, if any.
        self.tuned_decision = None
        #: Always-on per-loop/per-chain instrumentation
        #: (``stats()["profile"]``); registration happens on loop-cache
        #: misses and chain flushes, so steady state pays nothing new.
        from ..tune.profile import RuntimeProfile

        self.profile = RuntimeProfile()
        self.plans = PlanCache(max_entries=plan_cache_entries)
        self.loop_cache_entries = loop_cache_entries
        self.chain_cache_entries = chain_cache_entries
        self._loop_plans: OrderedDict[Tuple, Plan] = OrderedDict()
        self.loop_cache_hits = 0
        self.loop_cache_misses = 0
        self.loop_cache_evictions = 0
        self._chains: OrderedDict[Tuple, CompiledChain] = OrderedDict()
        #: uid of every Dat/Global some cached chain was keyed on ->
        #: the keys of those chains (:meth:`_watch_chain`).
        self._chain_keys_of: Dict[int, SetOf[Tuple]] = {}
        self.chain_cache_hits = 0
        self.chain_cache_misses = 0
        self.chain_cache_evictions = 0
        #: The LoopChain currently recording par_loop calls (``with
        #: runtime.chain():`` sets and clears this), or ``None``.
        self._active_chain: Optional[LoopChain] = None

    # ------------------------------------------------------------------
    def plan_for(self, kernel: Kernel, set_: Set, args: Sequence[Arg]) -> Plan:
        """Plan lookup for one call site, through the two-level cache.

        First consults the loop cache (exact call-site identity); on a
        miss, falls through to the structural :class:`PlanCache` (which
        may still hit — e.g. two kernels sharing a racing structure) and
        records the resolved plan under the call-site key.
        """
        key = loop_signature(kernel, set_, args)
        plan = self._loop_plans.get(key)
        if plan is not None:
            self.loop_cache_hits += 1
            self._loop_plans.move_to_end(key)
            return plan
        self.loop_cache_misses += 1
        # First sight of a loop shape: record its transfer profile (kind
        # + bytes-per-element estimate) for stats()["profile"] and the
        # tuner's model seeding.  Once per call site, never per step.
        self.profile.register_loop(kernel, set_, args)
        plan = self.plans.get(
            set_, args, self.block_size, self.scheme, self.coloring_method
        )
        self._loop_plans[key] = plan
        if self.loop_cache_entries is not None:
            while len(self._loop_plans) > self.loop_cache_entries:
                self._loop_plans.popitem(last=False)
                self.loop_cache_evictions += 1
        return plan

    # ------------------------------------------------------------------
    # Deferred execution (see core/chain.py).
    # ------------------------------------------------------------------
    def chain(self, tiling=None, repeat=None) -> LoopChain:
        """A fresh deferred-execution trace bound to this runtime.

        Use as a context manager: ``with runtime.chain() as ch:`` —
        ``par_loop`` calls against this runtime record instead of
        executing until the block exits (or a traced Dat/Global is read).

        ``tiling`` selects the sparse-tiled lowering
        (:mod:`repro.tiling`): ``"auto"`` picks a cache-sized seed tile,
        an int fixes the seed tile size, ``None`` (default) keeps the
        fused loop-major execution.  Results are bitwise identical in
        every mode.

        ``repeat`` (a :class:`~repro.core.chain.Repeat`) gives the
        chain a back edge: the body is recorded once and executed until
        a flag Global is raised or ``max_trips`` — prefer
        ``runtime.chain(repeat=...).run(body)``, which also serves
        bodies that cannot be captured (:mod:`repro.core.chain`).
        """
        return LoopChain(self, tiling=tiling, repeat=repeat)

    def compiled_chain_for(
        self, specs: Sequence[LoopSpec], tiling=None
    ) -> CompiledChain:
        """Compiled schedule for a trace, through the chain cache.

        The cache key is the tiling request plus the tuple of per-loop
        structural signatures (kernel, set, per-arg dat/map/slot/access
        identities), so a steady-state time step that re-records the
        same loop sequence replays its memoized schedule — no fusion,
        tiling inspection or plan lookup at all — while tiled and
        untiled compilations of the same trace
        coexist as distinct cache entry kinds.
        """
        key = (tiling, tuple(spec.key() for spec in specs))
        compiled = self._chains.get(key)
        if compiled is not None:
            self.chain_cache_hits += 1
            self._chains.move_to_end(key)
            return compiled
        self.chain_cache_misses += 1
        compiled = self._load_or_compile_chain(specs, tiling)
        self._chains[key] = compiled
        self._watch_chain(key, specs)
        if self.chain_cache_entries is not None:
            while len(self._chains) > self.chain_cache_entries:
                self._drop_chain(next(iter(self._chains)))
                self.chain_cache_evictions += 1
        return compiled

    def _watch_chain(self, key: Tuple, specs: Sequence[LoopSpec]) -> None:
        """Tie a chain-cache entry to the life of what it was keyed on.

        A key names its Dats and Globals by uid and the compiled chain
        binds aliases of them (:func:`repro.core.chain.bind_args`), so
        the cache keeps their memory but not the caller's handles
        alive.  Once any of those handles is collected the key can
        never be recorded again: one finalizer per watched object drops
        every entry keyed on it — a runtime shared by many short-lived
        sims holds the chains of the live ones only.
        """
        for obj in {arg.dat for spec in specs for arg in spec.args}:
            keys = self._chain_keys_of.get(obj._uid)
            if keys is None:
                keys = self._chain_keys_of[obj._uid] = set()
                weakref.finalize(
                    obj, _drop_chains_of, weakref.ref(self), obj._uid
                ).atexit = False
            keys.add(key)

    def _drop_chain(self, key: Tuple) -> None:
        compiled = self._chains.pop(key, None)
        if compiled is not None:
            for uid in {a.dat._uid for bl in compiled.loops for a in bl.args}:
                self._chain_keys_of.get(uid, set()).discard(key)

    def _clear_chains(self) -> None:
        self._chains.clear()
        for keys in self._chain_keys_of.values():
            keys.clear()

    def _load_or_compile_chain(
        self, specs: Sequence[LoopSpec], tiling
    ) -> CompiledChain:
        """Memory-miss path: persistent chain store, then compilation.

        A warm process decodes the persisted fusion decisions and
        rebinds them over the live trace (plans resolve through
        :meth:`plan_for`, whose structural cache has its own disk
        layer) — zero validation or fusion; a tiled schedule comes from
        the tiled store when a backend first asks for it.  Decode
        failures count as corrupt and fall back to a full compile;
        traces with explicit plan overrides are unkeyable
        (``chain_key`` returns ``None``) and always compile.
        """
        from .. import store

        skey = store.chain_key(
            specs, tiling, self.block_size, self.scheme, self.coloring_method
        )
        cstore = store.store_for("chain")
        payload = cstore.get(skey)
        if payload is not None:
            try:
                plans = [
                    self.plan_for(s.kernel, s.set, s.args) for s in specs
                ]
                compiled = store.decode_chain(payload, specs, plans)
            except store.DECODE_ERRORS:
                store.bump("chain", "corrupt")
                store.unlink_quiet(cstore.path_for(skey))
            else:
                object.__setattr__(compiled, "store_key", skey)
                return compiled
        store.count_build("chain")
        compiled = compile_chain(specs, self, tiling=tiling, store_key=skey)
        cstore.put(skey, store.encode_chain(compiled))
        return compiled

    def clear_caches(self) -> None:
        """Drop all cache levels (cold-start; used by the cache ablation)."""
        self.plans.clear()
        self._loop_plans.clear()
        self.loop_cache_hits = 0
        self.loop_cache_misses = 0
        self.loop_cache_evictions = 0
        self._clear_chains()
        self.chain_cache_hits = 0
        self.chain_cache_misses = 0
        self.chain_cache_evictions = 0

    def stats(self) -> Dict[str, object]:
        """All runtime counters: the seven cache kinds, backend
        per-kernel timings, and the loop/chain profile.

        Every cache kind reports the canonical ``hits`` / ``misses`` /
        ``evictions`` / ``entries`` / ``max_entries`` schema
        (kind-specific extras ride alongside; the native cache keeps
        its historical ``compiles``/``disk_hits``/``mem_hits`` keys as
        deprecated aliases) — the observability surface for
        long-running processes (are my caches sized right? is steady
        state hitting?).  The six persistent kinds (plan, chain, tiled,
        kernelc, native, tune) additionally carry a ``store`` sub-dict
        with the uniform disk-layer counters of :mod:`repro.store`
        (``disk_hits`` / ``disk_misses`` / ``writes`` / ``corrupt`` /
        ``evictions`` / ``builds`` + ``disk_entries``) — the loop cache
        has none because call-site identity cannot persist.  The
        warm-start CI job asserts over these: a second process running
        an identical workload must show ``disk_hits > 0`` and
        ``builds == 0`` per kind.  ``profile`` joins the per-loop
        transfer estimates with the backend's measured timings;
        ``tune_cache`` covers the persistent tuning DB.
        """
        from .. import store as artifact_store
        from ..kernelc import cache_stats
        from ..kernelc.native import native_cache_stats, native_thread_stats
        from ..tune.store import tune_cache_stats

        def with_store(d: Dict[str, object], kind: str) -> Dict[str, object]:
            d = dict(d)
            d["store"] = artifact_store.store_stats(kind)
            return d

        native = dict(native_cache_stats())
        # Normalized aliases over the historical counter names: a disk
        # or memory hit is a hit; a compile (cold fill) or failed
        # compile is a miss; sha-keyed content addressing never evicts
        # in memory (the disk layer's mtime-LRU reports via "store").
        native["hits"] = native["mem_hits"] + native["disk_hits"]
        native["misses"] = native["compiles"] + native["failures"]
        native["evictions"] = 0
        native["max_entries"] = None

        # Tiled schedules have no in-memory LRU of their own (they live
        # on the compiled chains that own them), so the canonical keys
        # mirror the disk layer.
        tiled_store = artifact_store.store_stats("tiled")

        return {
            "loop_cache": {
                "hits": self.loop_cache_hits,
                "misses": self.loop_cache_misses,
                "evictions": self.loop_cache_evictions,
                "entries": len(self._loop_plans),
                "max_entries": self.loop_cache_entries,
            },
            "plan_cache": with_store({
                "hits": self.plans.hits,
                "misses": self.plans.misses,
                "evictions": self.plans.evictions,
                "entries": len(self.plans),
                "max_entries": self.plans.max_entries,
                # Indirect plans whose colour facets were actually read
                # (0 for a purely ascending-order run: native/sequential).
                "colourings_materialized":
                    self.plans.colourings_materialized,
            }, "plan"),
            "chain_cache": with_store({
                "hits": self.chain_cache_hits,
                "misses": self.chain_cache_misses,
                "evictions": self.chain_cache_evictions,
                "entries": len(self._chains),
                "max_entries": self.chain_cache_entries,
            }, "chain"),
            "tiled_cache": {
                "hits": tiled_store["disk_hits"],
                "misses": tiled_store["disk_misses"],
                "evictions": tiled_store["evictions"],
                "entries": tiled_store["disk_entries"],
                "max_entries": tiled_store["max_entries"],
                "store": tiled_store,
            },
            # Kernel-compilation cache (repro.kernelc): process-wide,
            # since generated kernels depend only on (kernel, shape).
            "kernelc_cache": with_store(cache_stats(), "kernelc"),
            # Native chain-compilation cache (repro.kernelc.native):
            # process-wide in memory, content-hash keyed on disk.
            "native_cache": with_store(native, "native"),
            # Owner-computes threads of the native chains: team size,
            # per-chain/per-loop verdicts, owner facet build time.
            "native": self._native_thread_stats(native_thread_stats()),
            # Persistent tuning DB (repro.tune.store): cross-process,
            # keyed by (machine, chain signature).
            "tune_cache": with_store(tune_cache_stats(), "tune"),
            "kernels": dict(self.backend.stats),
            "profile": self.profile.snapshot(self.backend.stats),
        }

    def _native_thread_stats(self, native: Dict[str, object]):
        facets = self.plans.owner_facets
        native["owner_facets"] = len(facets)
        native["owner_facet_ms"] = sum(f.build_ms for f in facets)
        native["chains"] = {
            label: [{"kernel": k, "elements": n, "verdict": v, "lanes": lanes}
                    for k, n, v, lanes in verdicts]
            for label, verdicts in getattr(
                self.backend, "thread_verdicts", {}).items()
        }
        return native

    # ------------------------------------------------------------------
    def configure(
        self,
        backend: Optional[Backend | str] = None,
        block_size: Optional[int] = None,
        scheme: Optional[str] = None,
        coloring_method: Optional[str] = None,
        layout: Optional[str] = None,
    ) -> "Runtime":
        """Update settings in place; plans are invalidated as needed."""
        if backend is not None:
            self.backend = (
                backend if isinstance(backend, Backend) else make_backend(backend)
            )
        if block_size is not None and block_size != self.block_size:
            self.block_size = int(block_size)
            self._loop_plans.clear()
            self._clear_chains()
        if scheme is not None:
            if scheme != self.scheme:
                self._loop_plans.clear()
                self._clear_chains()
            self.scheme = scheme
        if coloring_method is not None:
            self.coloring_method = coloring_method
            self.plans.clear()
            self._loop_plans.clear()
            self._clear_chains()
        if layout is not None:
            self.layout = _check_layout(layout)
        return self

    # ------------------------------------------------------------------
    # Auto-tuning (see repro/tune).
    # ------------------------------------------------------------------
    def apply_decision(self, decision) -> "Runtime":
        """Install a :class:`~repro.tune.TuneDecision` on this runtime.

        Backend and layout are runtime-wide; the chained/tiling half of
        a decision lives on the sims (``repro.tune.apps`` applies it).
        """
        self.configure(backend=decision.backend, layout=decision.layout)
        self.tuned_decision = decision
        return self

    def autotune(self, sim=None, *, signature=None, probe=None,
                 candidates=None, pins=None, store=None):
        """Negotiate this runtime's configuration (see :mod:`repro.tune`).

        ``runtime.autotune(sim)`` tunes for an app driver's workload —
        the same path ``backend="auto"`` triggers implicitly.  The
        keyword form negotiates a raw ``(signature, probe)`` pair for
        custom workloads; either way the winning decision is applied to
        this runtime and returned.
        """
        from ..tune import Tuner, autotune_sim

        if sim is not None:
            return autotune_sim(sim, runtime=self)
        if signature is None:
            raise ValueError("autotune() needs a sim or a signature")
        tuner = Tuner(store=store) if store is not None else Tuner()
        decision = tuner.negotiate(
            signature, probe=probe, candidates=candidates, pins=pins,
            loop_infos=self.profile.loop_infos(),
        )
        self.apply_decision(decision)
        return decision

    def reset_stats(self) -> None:
        self.backend.reset_stats()


def _drop_chains_of(runtime_ref, uid: int) -> None:
    """Finalizer of a watched Dat/Global (``Runtime._watch_chain``)."""
    runtime = runtime_ref()
    if runtime is not None:
        for key in list(runtime._chain_keys_of.get(uid, ())):
            runtime._drop_chain(key)
        runtime._chain_keys_of.pop(uid, None)


#: Default module-level runtime used when par_loop is called without one.
_default_runtime = Runtime()


def default_runtime() -> Runtime:
    return _default_runtime


def set_backend(backend: Backend | str, **options) -> Runtime:
    """Switch the default runtime's backend (convenience for scripts)."""
    if isinstance(backend, str):
        backend = make_backend(backend, **options)
    return _default_runtime.configure(backend=backend)
