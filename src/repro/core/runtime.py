"""Runtime configuration: backend selection, plan caches, loop accounting.

OP2 separates the application (written once against the API) from the
backend chosen at build/run time; here the same separation is a runtime
:class:`Runtime` object.  A module-level default runtime keeps the common
case (serial experimentation) zero-ceremony, while benchmarks construct
isolated runtimes per configuration.

Five cache kinds keep steady-state execution cheap (two of them, plan
and native, also persist in the two-kind :mod:`repro.store`), each
reported by :meth:`Runtime.stats` under the same ``hits`` / ``misses``
/ ``evictions`` / ``entries`` / ``max_entries`` keys:

1. ``plan_cache``: the structural :class:`~repro.core.plan.PlanCache`
   (phases and any coloring reused by every loop with the same
   racing access structure);
2. ``loop_cache``: keyed by ``(kernel, set, args signature)`` — the
   exact call site — it skips even the signature normalization and
   returns the memoized plan directly.  Because plans memoize their
   phases and gather index arrays
   (:meth:`~repro.core.plan.Plan.phases`), a cache hit here means a
   repeated invocation rebuilds *no* index arrays at all;
3. ``chain_cache``: keyed by the shape of a whole recorded loop
   sequence (:func:`~repro.core.chain.chain_signature`), its entries
   hold no Dat or Global and are bound to the live arguments at each
   flush: a steady-state time step traced with ``with
   runtime.chain():`` — or the same step of a fresh sim over the same
   mesh — replays a pre-analyzed, pre-fused schedule (and any tiled
   schedule built for it) with zero re-analysis;
4. ``kernelc_cache`` (:mod:`repro.kernelc`): generated batched kernels
   memoized per (kernel, argument shape), so each kernel's vector form
   is derived from its scalar source exactly once per shape for the
   whole process; and
5. ``native_cache`` (:mod:`repro.kernelc.build`): compiled C programs,
   in memory by content hash and chain shape.

The plan, loop, chain and kernelc caches are LRU-bounded (the
``*_CACHE_ENTRIES`` module constants) so long-running processes cannot
grow them without bound.  Only the plan cache's colourings and the
native libraries also persist, through :mod:`repro.store`: everything
else is cheaper to rebuild in a new process than to load.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Dict, Optional, Sequence, Tuple

from ..backends.base import Backend
from ..backends.sequential import SequentialBackend
from ..backends.vectorized import VectorizedBackend
from .access import Arg
from .chain import (
    BoundChain,
    CompiledChain,
    LoopChain,
    LoopSpec,
    chain_signature,
    compile_chain,
)
from .dat import _check_layout
from .kernel import Kernel
from .plan import DEFAULT_BLOCK_SIZE, DEFAULT_PLAN_CACHE_ENTRIES, Plan, PlanCache
from .set import Set

#: LRU bounds of the plan, call-site loop and compiled-chain caches
#: (``None`` = unbounded), read when a :class:`Runtime` is built.
PLAN_CACHE_ENTRIES = DEFAULT_PLAN_CACHE_ENTRIES
LOOP_CACHE_ENTRIES = 1024
CHAIN_CACHE_ENTRIES = 64


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


#: The backend registry names :func:`make_backend` accepts
#: (:class:`Runtime` also takes the ``"auto"`` rule).
BACKENDS = ("sequential", "vectorized", "native")


def make_backend(name: str, **options) -> Backend:
    """Instantiate a backend by registry name (one of :data:`BACKENDS`).

    Options are forwarded (``vec=`` — lanes per strip — for
    vectorized).
    """
    if name not in BACKENDS:
        raise KeyError(
            f"Unknown backend {name!r}; available: {list(BACKENDS)}"
        )
    from ..backends.native import NativeBackend

    registry = {
        "sequential": SequentialBackend,
        "vectorized": VectorizedBackend,
        "native": NativeBackend,
    }
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

    The three cache levels are bounded by :data:`PLAN_CACHE_ENTRIES`,
    :data:`LOOP_CACHE_ENTRIES` and :data:`CHAIN_CACHE_ENTRIES`.

    ``backend="auto"`` is a fixed rule, applied here and never
    revisited: the ``native`` backend (which runs its vectorized tier
    when no C compiler builds) on the SoA layout unless ``layout=`` is
    passed.  The app drivers run chained and untiled by default, and
    aero's ``operator="auto"`` resolves to ``matfree`` on float64 under
    this runtime only.  Nothing is probed or persisted.  Alternating
    A/B runs of the ``bench_e2e`` workloads on the native backend back
    the rule: SoA wins 17/20 pairs on ``airfoil_large`` (42.5 vs
    48.0 ms) and 19/20 on ``volna_scrambled`` (19.1 vs 22.3 ms), ties
    on ``airfoil_fallback``'s mesh (4.4 ms) and loses ``aero_solve``
    (99.3 vs 93.5 ms) by less than the quartile spread; matfree beats
    the assembled aero operator 10/10.
    """

    def __init__(
        self,
        backend: Backend | str = "vectorized",
        block_size: int = DEFAULT_BLOCK_SIZE,
        scheme: str = "two_level",
        coloring_method: str = "auto",
        layout: Optional[str] = None,
    ) -> None:
        #: True when constructed as ``Runtime("auto")`` (the rule above).
        self.auto = backend == "auto"
        if self.auto:
            backend = "native"
            layout = layout or "soa"
        self.backend = (
            backend if isinstance(backend, Backend) else make_backend(backend)
        )
        self.block_size = int(block_size)
        self.scheme = scheme
        self.coloring_method = coloring_method
        self.layout = _check_layout(layout) if layout is not None else None
        #: Always-on per-loop/per-chain instrumentation
        #: (``stats()["profile"]``); registration happens on loop-cache
        #: misses and chain flushes, so steady state pays nothing new.
        from ..tune.profile import RuntimeProfile

        self.profile = RuntimeProfile()
        self.plans = PlanCache(max_entries=PLAN_CACHE_ENTRIES)
        self.loop_cache_entries = LOOP_CACHE_ENTRIES
        self.chain_cache_entries = CHAIN_CACHE_ENTRIES
        self._loop_plans: OrderedDict[Tuple, Plan] = OrderedDict()
        self.loop_cache_hits = 0
        self.loop_cache_misses = 0
        self.loop_cache_evictions = 0
        self._chains: OrderedDict[Tuple, CompiledChain] = OrderedDict()
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
        # + bytes-per-element estimate) for stats()["profile"].  Once
        # per call site, never per step.
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
    ) -> BoundChain:
        """Compiled schedule for a trace, through the chain cache, bound
        to the trace's live arguments.

        The cache key is the trace's shape
        (:func:`~repro.core.chain.chain_signature`: the tiling request,
        kernels, sets and maps by identity, Dats and Globals by
        first-occurrence ordinal, dim, dtype, layout and home set), so a
        steady-state time step that re-records the same loop sequence —
        or a fresh sim over the same mesh — replays its memoized
        schedule with no fusion, tiling inspection, plan lookup or store
        access at all, while tiled and untiled compilations of the same
        trace coexist as distinct entries.  An entry holds no Dat, so
        the LRU bound is all that limits the cache.
        """
        key, dats = chain_signature(specs, tiling)
        compiled = self._chains.get(key)
        if compiled is not None:
            self.chain_cache_hits += 1
            self._chains.move_to_end(key)
        else:
            self.chain_cache_misses += 1
            compiled = compile_chain(specs, self, tiling=tiling)
            self._chains[key] = compiled
            if self.chain_cache_entries is not None:
                while len(self._chains) > self.chain_cache_entries:
                    self._chains.popitem(last=False)
                    self.chain_cache_evictions += 1
        return compiled.bind(specs, dats)

    def clear_caches(self) -> None:
        """Drop this runtime's plan, loop and chain caches and their
        counters (a cold start for this runtime; the process-wide
        kernelc and native caches are untouched)."""
        self.plans.clear()
        self._loop_plans.clear()
        self.loop_cache_hits = 0
        self.loop_cache_misses = 0
        self.loop_cache_evictions = 0
        self._chains.clear()
        self.chain_cache_hits = 0
        self.chain_cache_misses = 0
        self.chain_cache_evictions = 0

    def stats(self) -> Dict[str, object]:
        """All runtime counters: the five cache kinds (numbered in the
        module docstring), backend per-kernel timings, and the
        loop/chain profile.

        Every cache kind reports the canonical ``hits`` / ``misses`` /
        ``evictions`` / ``entries`` / ``max_entries`` schema
        (kind-specific extras ride alongside; the native cache keeps
        its historical ``compiles``/``disk_hits``/``mem_hits`` keys as
        deprecated aliases) — the observability surface for
        long-running processes (are my caches sized right? is steady
        state hitting?).  The two persistent kinds (plan, native)
        additionally carry a ``store`` sub-dict with the uniform
        disk-layer counters of :mod:`repro.store` (``disk_hits`` /
        ``disk_misses`` / ``writes`` / ``corrupt`` / ``evictions`` /
        ``builds`` + ``disk_entries``).  The warm-start CI job asserts
        over these: a second process running an identical workload must
        show ``disk_hits > 0`` and ``builds == 0`` for the plan kind and
        no native compile.  ``profile`` joins the per-loop transfer
        estimates with the backend's measured timings.
        """
        from .. import store as artifact_store
        from ..kernelc import cache_stats
        from ..kernelc.build import native_cache_stats, native_thread_stats

        def with_store(d: Dict[str, object], kind: str) -> Dict[str, object]:
            d = dict(d)
            d["store"] = artifact_store.store_stats(kind)
            return d

        native = dict(native_cache_stats())
        # Normalized aliases over the historical counter names: a disk
        # or memory hit is a hit, and so is a chain served by a program
        # of its shape (``program_hits``: nothing emitted or loaded); a
        # compile (cold fill) or failed compile is a miss; sha-keyed
        # content addressing never evicts in memory (the disk layer's
        # mtime-LRU reports via "store").
        native["hits"] = (native["mem_hits"] + native["disk_hits"]
                          + native["program_hits"])
        native["misses"] = native["compiles"] + native["failures"]
        native["evictions"] = 0
        native["max_entries"] = None

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
            "chain_cache": {
                "hits": self.chain_cache_hits,
                "misses": self.chain_cache_misses,
                "evictions": self.chain_cache_evictions,
                "entries": len(self._chains),
                "max_entries": self.chain_cache_entries,
            },
            # Kernel-compilation cache (repro.kernelc): process-wide,
            # since generated kernels depend only on (kernel, shape).
            "kernelc_cache": cache_stats(),
            # Native chain-compilation cache (repro.kernelc.build):
            # process-wide in memory, content-hash keyed on disk.
            "native_cache": with_store(native, "native"),
            # Owner-computes threads of the native chains: team size,
            # per-chain/per-loop verdicts, owner facet build time.
            "native": self._native_thread_stats(native_thread_stats()),
            "kernels": dict(self.backend.stats),
            "profile": self.profile.snapshot(self.backend.stats),
        }

    def _native_thread_stats(self, native: Dict[str, object]):
        facets = self.plans.owner_facets
        native["owner_facets"] = len(facets)
        native["owner_facet_ms"] = sum(f.build_ms for f in facets)
        native["chains"] = {
            label: [{"kernel": k, "elements": n, "verdict": v, "lanes": lanes,
                     "program": program}
                    for k, n, v, lanes in verdicts]
            for label, (verdicts, program) in getattr(
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
            self._chains.clear()
        if scheme is not None:
            if scheme != self.scheme:
                self._loop_plans.clear()
                self._chains.clear()
            self.scheme = scheme
        if coloring_method is not None:
            self.coloring_method = coloring_method
            self.plans.clear()
            self._loop_plans.clear()
            self._chains.clear()
        if layout is not None:
            self.layout = _check_layout(layout)
        return self

    def reset_stats(self) -> None:
        self.backend.reset_stats()


#: Default module-level runtime used when par_loop is called without one.
_default_runtime = Runtime()


def default_runtime() -> Runtime:
    return _default_runtime


def set_backend(backend: Backend | str, **options) -> Runtime:
    """Switch the default runtime's backend (convenience for scripts)."""
    if isinstance(backend, str):
        backend = make_backend(backend, **options)
    return _default_runtime.configure(backend=backend)
