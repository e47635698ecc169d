"""Runtime.stats() cache counters under eviction pressure.

The runtime exposes six cache kinds (loop -> plan -> chain [fused and
tiled entries] -> kernelc -> native); long-running processes
rely on the LRU bounds actually holding and on the hit/miss/eviction
counters telling the truth.  These tests squeeze each cache below its
working set and pin both; the native compile cache (process-global,
sha-keyed, disk-backed) gets its own counter pinning below, and the
normalized counter schema every kind shares (hits / misses / evictions
/ entries / max_entries, plus kind-specific extras) is pinned in
TestStatsSurface.
"""

import numpy as np

from repro.core import runtime as runtime_module
from repro.core import (
    INC,
    READ,
    WRITE,
    Dat,
    Map,
    Runtime,
    Set,
    arg_dat,
    kernel,
    par_loop,
)
from repro.core.access import IDX_ID
from repro.kernelc import KernelCompileCache


@kernel("stats_inc")
def stats_inc(w, a):
    a[0] += w[0]


@kernel("stats_copy")
def stats_copy(a, b):
    b[0] = a[0]


def ring(n=16, tag=""):
    nodes = Set(n, f"nodes{tag}")
    elems = Set(n, f"elems{tag}")
    conn = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    return nodes, elems, Map(elems, nodes, 2, conn, f"e2n{tag}")


def indirect_loop(rt, m, elems, nodes, slot=0):
    w = Dat(elems, 1, 1.0)
    acc = Dat(nodes, 1)
    par_loop(stats_inc, elems,
             arg_dat(w, IDX_ID, None, READ),
             arg_dat(acc, slot, m, INC), runtime=rt)


class TestLoopCacheEviction:
    def test_bound_held_and_counted(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "LOOP_CACHE_ENTRIES", 3)
        rt = Runtime("sequential")
        meshes = [ring(tag=str(i)) for i in range(5)]
        for nodes, elems, m in meshes:
            indirect_loop(rt, m, elems, nodes)
        s = rt.stats()["loop_cache"]
        assert s["max_entries"] == 3
        assert s["entries"] <= 3
        assert s["misses"] == 5
        assert s["evictions"] == 2
        # Replaying the evicted first shape misses again (was dropped).
        nodes, elems, m = meshes[0]
        indirect_loop(rt, m, elems, nodes)
        s = rt.stats()["loop_cache"]
        assert s["misses"] == 6
        # A warm shape hits without growing the cache.
        indirect_loop(rt, m, elems, nodes)
        s = rt.stats()["loop_cache"]
        assert s["hits"] == 1
        assert s["entries"] <= 3

    def test_lru_order_protects_recent(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "LOOP_CACHE_ENTRIES", 2)
        rt = Runtime("sequential")
        (n1, e1, m1), (n2, e2, m2), (n3, e3, m3) = [
            ring(tag=f"lru{i}") for i in range(3)
        ]
        indirect_loop(rt, m1, e1, n1)
        indirect_loop(rt, m2, e2, n2)
        indirect_loop(rt, m1, e1, n1)      # touch 1 -> 2 becomes LRU
        indirect_loop(rt, m3, e3, n3)      # evicts 2, keeps 1
        before = rt.stats()["loop_cache"]["hits"]
        indirect_loop(rt, m1, e1, n1)      # still cached
        assert rt.stats()["loop_cache"]["hits"] == before + 1


class TestPlanCacheEviction:
    def test_bound_held_and_rebuilt_on_return(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "PLAN_CACHE_ENTRIES", 2)
        monkeypatch.setattr(runtime_module, "LOOP_CACHE_ENTRIES", None)
        rt = Runtime("sequential")
        meshes = [ring(tag=f"p{i}") for i in range(4)]
        for nodes, elems, m in meshes:
            indirect_loop(rt, m, elems, nodes)
        s = rt.stats()["plan_cache"]
        assert s["max_entries"] == 2
        assert s["entries"] <= 2
        assert s["misses"] == 4
        assert s["evictions"] == 2
        # Different slot of a cached map's racing column = new structure.
        nodes, elems, m = meshes[-1]
        indirect_loop(rt, m, elems, nodes, slot=1)
        assert rt.stats()["plan_cache"]["misses"] == 5


class TestChainCacheEviction:
    def _trace(self, rt, dats, tiling=None):
        a, b = dats
        with rt.chain(tiling=tiling):
            par_loop(stats_copy, a.set,
                     arg_dat(a, IDX_ID, None, READ),
                     arg_dat(b, IDX_ID, None, WRITE), runtime=rt)

    def test_fused_and_tiled_are_distinct_entries(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "CHAIN_CACHE_ENTRIES", 4)
        rt = Runtime("vectorized")
        s1 = Set(16, "c1")
        dats = (Dat(s1, 1, 1.0), Dat(s1, 1))
        self._trace(rt, dats)
        self._trace(rt, dats, tiling=8)
        st = rt.stats()["chain_cache"]
        assert st["misses"] == 2       # same trace, two lowerings
        assert st["entries"] == 2
        self._trace(rt, dats)
        self._trace(rt, dats, tiling=8)
        st = rt.stats()["chain_cache"]
        assert st["hits"] == 2

    def test_bound_held_under_distinct_traces(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "CHAIN_CACHE_ENTRIES", 2)
        rt = Runtime("vectorized")
        sets = [Set(8, f"cc{i}") for i in range(4)]
        all_dats = [(Dat(s, 1, 1.0), Dat(s, 1)) for s in sets]
        for dats in all_dats:
            self._trace(rt, dats)
        st = rt.stats()["chain_cache"]
        assert st["max_entries"] == 2
        assert st["entries"] <= 2
        assert st["evictions"] == 2
        # The evicted first trace recompiles.
        self._trace(rt, all_dats[0])
        assert rt.stats()["chain_cache"]["misses"] == 5

    def test_tiled_entries_respect_the_same_bound(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "CHAIN_CACHE_ENTRIES", 2)
        rt = Runtime("vectorized")
        s1 = Set(32, "ct")
        dats = (Dat(s1, 1, 1.0), Dat(s1, 1))
        for tiling in (None, 8, 16):
            self._trace(rt, dats, tiling=tiling)
        st = rt.stats()["chain_cache"]
        assert st["entries"] <= 2
        assert st["evictions"] == 1


class TestKernelcCacheEviction:
    def test_bound_held_with_negative_entries(self):
        cache = KernelCompileCache(max_entries=2)

        def shape(dim):
            s = Set(4, f"k{dim}")
            a = Dat(s, dim, 1.0)
            b = Dat(s, dim)
            return (arg_dat(a, IDX_ID, None, READ),
                    arg_dat(b, IDX_ID, None, WRITE))

        @kernel("kc_copy")
        def kc_copy(a, b):
            b[0] = a[0]

        for dim in (1, 2, 3):
            assert cache.vector_for(kc_copy, shape(dim)) is not None
        s = cache.stats()
        assert s["max_entries"] == 2
        assert s["entries"] <= 2
        assert s["misses"] == 3
        assert s["evictions"] == 1
        # Unvectorizable kernels cache a *negative* entry (a lambda has
        # no retrievable body for the IR parser).
        from repro.core.kernel import Kernel

        bad = Kernel("bad", eval("lambda a, b: None"))
        assert cache.vector_for(bad, shape(1)) is None
        s = cache.stats()
        assert s["failures"] == 1
        assert cache.vector_for(bad, shape(1)) is None
        assert cache.stats()["hits"] >= 1

    def test_global_cache_surfaces_in_runtime_stats(self):
        rt = Runtime("vectorized")
        stats = rt.stats()
        assert set(stats["kernelc_cache"]) == {
            "hits", "misses", "failures", "evictions", "entries",
            "max_entries",
        }


class TestStatsSurface:
    #: Counter keys every cache kind reports (the normalized schema).
    CANONICAL = {"hits", "misses", "evictions", "entries", "max_entries"}
    #: Uniform disk-layer keys every persistent kind's ``store``
    #: sub-dict reports (repro.store.base.COUNTER_NAMES + entry count).
    STORE = {"disk_hits", "disk_misses", "writes", "corrupt", "evictions",
             "builds", "disk_entries", "max_entries"}

    def test_all_five_cache_kinds_reported(self):
        rt = Runtime("vectorized")
        s1 = Set(8, "surf")
        a, b = Dat(s1, 1, 1.0), Dat(s1, 1)
        with rt.chain(tiling=4):
            par_loop(stats_copy, s1,
                     arg_dat(a, IDX_ID, None, READ),
                     arg_dat(b, IDX_ID, None, WRITE), runtime=rt)
        stats = rt.stats()
        for kind in ("loop_cache", "plan_cache", "chain_cache",
                     "kernelc_cache", "native_cache"):
            assert self.CANONICAL <= set(stats[kind]), kind
        # The two persistent kinds report the uniform disk-layer
        # counters of repro.store; the in-memory kinds have none.
        for kind in ("plan_cache", "native_cache"):
            assert set(stats[kind]["store"]) == self.STORE, kind
        for kind in ("loop_cache", "chain_cache", "kernelc_cache"):
            assert "store" not in stats[kind], kind
        assert "tiled_cache" not in stats
        # The native compile cache keeps its historical sha-keyed
        # counters next to the normalized aliases.
        assert set(stats["native_cache"]) == self.CANONICAL | {
            "compiles", "disk_hits", "mem_hits", "failures", "fallbacks",
            "program_hits", "store",
        }
        assert "tune_cache" not in stats
        # The tiled lowering is a chain-cache entry kind: its key
        # includes the tiling request, so fused and tiled coexist.
        assert stats["chain_cache"]["entries"] >= 1
        assert "stats_copy" in stats["kernels"]

    def test_profile_snapshot_surfaces_in_stats(self):
        rt = Runtime("vectorized")
        s1 = Set(8, "prof")
        a, b = Dat(s1, 1, 1.0), Dat(s1, 1)
        par_loop(stats_copy, s1,
                 arg_dat(a, IDX_ID, None, READ),
                 arg_dat(b, IDX_ID, None, WRITE), runtime=rt)
        profile = rt.stats()["profile"]
        assert "stats_copy" in profile["loops"]
        entry = profile["loops"]["stats_copy"]
        assert entry["calls"] == 1
        assert entry["kind"] == "direct"
        assert entry["est_bytes"] > 0
        assert entry["seconds"] >= 0
        # The compute leg of the roofline profile: IR-derived flop
        # counts.
        assert entry["flops_per_element"] >= 0
        assert entry["est_flops"] >= 0
        assert entry["est_gflops"] >= 0

    def test_profile_counts_app_kernel_flops(self):
        from repro.apps.aero import AeroSim
        from repro.mesh import make_airfoil_mesh

        rt = Runtime("vectorized")
        sim = AeroSim(make_airfoil_mesh(12, 6), runtime=rt,
                      operator="matfree")
        sim.run(1)
        loops = rt.stats()["profile"]["loops"]
        rho = loops["rho_calc"]
        assert rho["flops_per_element"] > 0
        coeffs = next(v for k, v in loops.items()
                      if k.startswith("matfree_coeffs_w"))
        # The coefficient build's quadrature work.
        assert coeffs["flops_per_element"] > 100

    def test_clear_caches_resets_counters(self):
        rt = Runtime("sequential")
        nodes, elems, m = ring(tag="clr")
        indirect_loop(rt, m, elems, nodes)
        rt.clear_caches()
        s = rt.stats()
        assert s["loop_cache"]["entries"] == 0
        assert s["loop_cache"]["hits"] == 0
        assert s["plan_cache"]["entries"] == 0
        assert s["chain_cache"]["entries"] == 0


class TestNativeCacheCounters:
    """The 6th cache kind: chain-level native compilation counters."""

    def _chained_step(self, tag):
        rt = Runtime("native")
        s1 = Set(16, f"nat{tag}")
        a, b = Dat(s1, 1, 1.0, name="na"), Dat(s1, 1, name="nb")
        with rt.chain():
            par_loop(stats_copy, s1,
                     arg_dat(a, IDX_ID, None, READ),
                     arg_dat(b, IDX_ID, None, WRITE), runtime=rt)
        return rt, b

    def test_compile_then_memory_hit(self, tmp_path, monkeypatch):
        from repro.kernelc import compiler_available, reset_native_cache
        from repro.kernelc import native_cache_dir
        import pytest

        if not compiler_available():
            pytest.skip("no C compiler in this environment")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        reset_native_cache()
        rt, b = self._chained_step("a")
        s = rt.stats()["native_cache"]
        assert s["compiles"] == 1
        assert s["failures"] == 0
        assert s["fallbacks"] == 0
        assert s["entries"] == 1
        # The translation unit and its .so both land in the disk cache.
        assert len(list(native_cache_dir().glob("*.so"))) == 1
        assert len(list(native_cache_dir().glob("*.c"))) == 1
        # A fresh runtime re-traces the same chain: same source hash,
        # so the in-process library cache answers without the compiler.
        rt2, _ = self._chained_step("a")
        s = rt2.stats()["native_cache"]
        assert s["compiles"] == 1
        assert s["mem_hits"] >= 1

    def test_disabled_compiler_keeps_counters_silent(self, monkeypatch):
        from repro.kernelc import reset_native_cache

        monkeypatch.setenv("REPRO_NATIVE_DISABLE_CC", "1")
        reset_native_cache()
        rt, b = self._chained_step("off")
        assert np.array_equal(b.data, np.ones((16, 1)))  # vec fallback ran
        s = rt.stats()["native_cache"]
        store = s.pop("store")
        assert s == {"compiles": 0, "disk_hits": 0, "mem_hits": 0,
                     "failures": 0, "fallbacks": 0, "program_hits": 0,
                     "entries": 0,
                     "hits": 0, "misses": 0, "evictions": 0,
                     "max_entries": None}
        # The disk layer stayed silent too (reset_native_cache zeroed
        # it, and the disabled path never touched the store).
        assert store["disk_hits"] == 0 and store["builds"] == 0
