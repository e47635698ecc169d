"""Layout and caching subsystem tests.

Three properties pin the new execution engine down:

1. **Layout transparency** — every backend produces results identical to
   the sequential/AoS reference under both ``aos`` and ``soa`` storage
   (the logical ``Dat.data`` view hides the physical order).
2. **Whole-color batching equivalence** — the mega-batch fast path is
   bitwise identical to chunked execution (phases preserve chunked
   element order; see core/plan.py).
3. **Cache coherence** — warm plan/loop/gather-index caches return
   exactly what cold planning computes.
"""

import numpy as np
import pytest

from repro.apps.airfoil import AirfoilSim
from repro.core import (
    INC,
    READ,
    Dat,
    Map,
    Runtime,
    Set,
    arg_dat,
    dat_layout,
    get_default_layout,
    kernel,
    make_backend,
    par_loop,
    set_default_layout,
)
from repro.core.access import IDX_ID
from repro.testing import BACKEND_MATRIX, LAYOUT_MATRIX, runtime_for


# ----------------------------------------------------------------------
# Dat layout mechanics.
# ----------------------------------------------------------------------
class TestDatLayout:
    def test_soa_storage_is_transposed_contiguous(self):
        s = Set(10, "s")
        vals = np.arange(30.0).reshape(10, 3)
        d = Dat(s, 3, vals, layout="soa")
        assert d.layout == "soa"
        assert d.storage.shape == (3, 10)
        assert d.storage.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(d.data, vals)
        # The logical view aliases the storage.
        d.data[4, 1] = -7.0
        assert d.storage[1, 4] == -7.0

    def test_aos_default_unchanged(self):
        s = Set(5, "s")
        d = Dat(s, 2)
        assert d.layout == "aos"
        assert d.data is d.storage

    def test_gather_scatter_2d_index_matches_aos(self):
        """Vector (IDX_ALL) args scatter with (chunk, arity) indices —
        the SoA path must swap only the component axis, not reverse all
        axes (regression: .T wrote transposed rows / shape-mismatched)."""
        idx = np.array([[0, 3], [5, 1], [2, 7]])       # (chunk=3, arity=2)
        vals = np.arange(24.0).reshape(3, 2, 4)        # (chunk, arity, dim)
        results = {}
        for layout in LAYOUT_MATRIX:
            d = Dat(Set(8, "s"), 4, np.arange(32.0), layout=layout)
            np.testing.assert_array_equal(d.gather(idx), d.data[idx])
            d.scatter(idx, vals)
            results[layout] = np.array(d.data)
        np.testing.assert_array_equal(results["soa"], results["aos"])
        np.testing.assert_array_equal(results["aos"][3], vals[0, 1])

    @pytest.mark.parametrize("layout", LAYOUT_MATRIX)
    @pytest.mark.parametrize("scheme", ["full_permute", "block_permute"])
    def test_vector_write_arg_layout_equivalence(self, layout, scheme):
        """End-to-end: an IDX_ALL WRITE argument through the batched
        backend under both layouts (the scatter path the 2-D index
        regression above guards)."""
        from repro.core import IDX_ALL, WRITE

        @kernel("stamp_nodes", flops=1)
        def stamp_nodes(w, xs):
            xs[:, 0] = w[0]
            xs[:, 1] = -w[0]

        @stamp_nodes.vectorized
        def stamp_nodes_vec(w, xs):
            xs[:, :, 0] = w[:, 0][:, None]
            xs[:, :, 1] = -w[:, 0][:, None]

        def run(backend, scheme_, layout_):
            n = 12
            nodes = Set(2 * n, "nodes")
            elems = Set(n, "elems")
            conn = np.arange(2 * n).reshape(n, 2)      # disjoint targets
            m = Map(elems, nodes, 2, conn, "m")
            with dat_layout(layout_):
                w = Dat(elems, 1, np.arange(n, dtype=float).reshape(-1, 1))
                x = Dat(nodes, 2)
            rt = runtime_for(backend, scheme_, {}, block_size=4,
                             layout=layout_)
            par_loop(
                stamp_nodes, elems,
                arg_dat(w, IDX_ID, None, READ),
                arg_dat(x, IDX_ALL, m, WRITE),
                runtime=rt,
            )
            return np.array(x.data)

        ref = run("sequential", "two_level", "aos")
        got = run("vectorized", scheme, layout)
        np.testing.assert_array_equal(got, ref)

    def test_gather_scatter_roundtrip(self):
        s = Set(8, "s")
        for layout in LAYOUT_MATRIX:
            d = Dat(s, 2, np.arange(16.0), layout=layout)
            idx = np.array([5, 0, 3])
            g = d.gather(idx)
            np.testing.assert_array_equal(g, d.data[idx])
            d.scatter(idx, g * 2.0)
            np.testing.assert_array_equal(d.data[idx], g * 2.0)
            d.scatter_add(np.array([1, 1]), np.ones((2, 2)), serialize=True)
            np.testing.assert_array_equal(d.data[1], [4.0, 5.0])

    def test_soa_copy_and_roundtrip_preserve_layout(self):
        s = Set(6, "s")
        d = Dat(s, 4, np.arange(24.0), layout="soa")
        c = d.copy()
        assert c.layout == "soa"
        np.testing.assert_array_equal(c.data, d.data)
        soa = d.soa()
        assert soa.shape == (4, 6)
        soa *= 3.0
        d.from_soa(soa)
        np.testing.assert_array_equal(d.data, np.arange(24.0).reshape(6, 4) * 3.0)

    def test_default_layout_context(self):
        s = Set(3, "s")
        assert get_default_layout() == "aos"
        with dat_layout("soa"):
            assert Dat(s, 1).layout == "soa"
            with dat_layout(None):  # no-op passthrough
                assert Dat(s, 1).layout == "soa"
        assert Dat(s, 1).layout == "aos"
        previous = set_default_layout("soa")
        try:
            assert previous == "aos" and Dat(s, 1).layout == "soa"
        finally:
            set_default_layout(previous)

    def test_invalid_layout_rejected(self):
        s = Set(3, "s")
        with pytest.raises(ValueError, match="layout"):
            Dat(s, 1, layout="csr")
        with pytest.raises(ValueError, match="layout"):
            Runtime("sequential", layout="csr")


# ----------------------------------------------------------------------
# Backend equivalence across layouts.
# ----------------------------------------------------------------------
@kernel("flux_inc", flops=4)
def flux_inc(w, x0, x1, a0, a1):
    f = w[0] * (x0[0] - x1[0])
    a0[0] += f
    a1[0] -= f
    a0[1] += w[1]
    a1[1] -= w[1]


@flux_inc.vectorized
def flux_inc_vec(w, x0, x1, a0, a1):
    f = w[:, 0] * (x0[:, 0] - x1[:, 0])
    a0[:, 0] += f
    a1[:, 0] -= f
    a0[:, 1] += w[:, 1]
    a1[:, 1] -= w[:, 1]


def run_ring(backend, scheme, options, layout):
    rng = np.random.default_rng(7)
    n = 41
    nodes = Set(n, "nodes")
    edges = Set(n, "edges")
    conn = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    e2n = Map(edges, nodes, 2, conn, "e2n")
    with dat_layout(layout):
        w = Dat(edges, 2, rng.standard_normal((n, 2)), name="w")
        x = Dat(nodes, 2, rng.standard_normal((n, 2)), name="x")
        acc = Dat(nodes, 2, name="acc")
    rt = runtime_for(backend, scheme, options, block_size=8, layout=layout)
    par_loop(
        flux_inc, edges,
        arg_dat(w, IDX_ID, None, READ),
        arg_dat(x, 0, e2n, READ),
        arg_dat(x, 1, e2n, READ),
        arg_dat(acc, 0, e2n, INC),
        arg_dat(acc, 1, e2n, INC),
        runtime=rt,
    )
    return np.array(acc.data)


class TestLayoutEquivalence:
    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    @pytest.mark.parametrize("layout", LAYOUT_MATRIX)
    def test_matches_sequential_aos(self, backend, scheme, options, layout):
        ref = run_ring("sequential", "two_level", {}, "aos")
        got = run_ring(backend, scheme, options, layout)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("layout", LAYOUT_MATRIX)
    def test_airfoil_step_layout_equivalence(self, layout):
        mesh_args = (16, 8)
        from repro.mesh import make_airfoil_mesh

        ref_sim = AirfoilSim(
            make_airfoil_mesh(*mesh_args),
            runtime=Runtime("sequential", layout="aos"),
        )
        ref_sim.run(2)
        sim = AirfoilSim(
            make_airfoil_mesh(*mesh_args),
            runtime=Runtime("vectorized", layout=layout),
        )
        sim.run(2)
        assert sim.state.p_q.layout == layout
        np.testing.assert_allclose(
            sim.state.p_q.data, ref_sim.state.p_q.data, rtol=1e-10, atol=1e-12
        )


# ----------------------------------------------------------------------
# Whole-color batching vs chunked execution.
# ----------------------------------------------------------------------
class TestWholeColorBatching:
    @pytest.mark.parametrize(
        "scheme", ["two_level", "full_permute", "block_permute"]
    )
    def test_bitwise_identical_to_chunked(self, scheme):
        batched = run_ring("vectorized", scheme, {}, "aos")
        chunked = run_ring("vectorized", scheme, {"batch": "chunk"}, "aos")
        # Phases preserve the chunked element order, so the fast path is
        # not merely close — it is bitwise identical.
        np.testing.assert_array_equal(batched, chunked)

    def test_batch_mode_validation(self):
        with pytest.raises(ValueError, match="batch"):
            make_backend("vectorized", batch="mega")
        with pytest.raises(ValueError, match="vec=None"):
            make_backend("vectorized", vec=8, batch="color")

    def test_phase_index_cache_reused_across_steps(self):
        rt = Runtime("vectorized", block_size=64)
        from repro.mesh import make_airfoil_mesh

        # Eager mode: every step consults the phase index cache anew.
        sim = AirfoilSim(make_airfoil_mesh(16, 8), runtime=rt, chained=False)
        sim.step()
        plans = list(rt.plans._plans.values())
        stats_after_one = {
            id(p): dict(p.gather_stats) for p in plans if p.gather_stats
        }
        assert stats_after_one, "expected gather-index caches to populate"
        sim.step()
        for p in plans:
            if id(p) in stats_after_one:
                # Second step must hit the cache, never rebuild.
                assert p.gather_stats.get("misses", 0) == \
                    stats_after_one[id(p)].get("misses", 0)
                assert p.gather_stats.get("hits", 0) > \
                    stats_after_one[id(p)].get("hits", 0)

    def test_phase_index_cache_not_rebuilt_by_chained_replay(self):
        # Chained mode binds the gather indices once at replay-program
        # preparation; subsequent steps must not even *look up* the
        # index cache, let alone rebuild it.
        rt = Runtime("vectorized", block_size=64)
        from repro.mesh import make_airfoil_mesh

        sim = AirfoilSim(make_airfoil_mesh(16, 8), runtime=rt, chained=True)
        sim.step()
        plans = list(rt.plans._plans.values())
        misses_after_one = {
            id(p): p.gather_stats.get("misses", 0) for p in plans
        }
        hits_after_one = {id(p): p.gather_stats.get("hits", 0) for p in plans}
        sim.run(2)
        for p in plans:
            assert p.gather_stats.get("misses", 0) == misses_after_one[id(p)]
            assert p.gather_stats.get("hits", 0) == hits_after_one[id(p)]


@kernel("flux_inc_single", flops=1)
def flux_inc_single(w, a0):
    a0[0] += w[0]


@flux_inc_single.vectorized
def flux_inc_single_vec(w, a0):
    a0[:, 0] += w[:, 0]


# ----------------------------------------------------------------------
# Plan / loop cache regression: warm caches == cold planning.
# ----------------------------------------------------------------------
class TestCacheCoherence:
    def test_warm_cache_matches_cold_planning(self):
        from repro.mesh import make_airfoil_mesh

        warm_rt = Runtime("vectorized")
        warm = AirfoilSim(make_airfoil_mesh(16, 8), runtime=warm_rt)
        warm.run(3)
        assert warm_rt.loop_cache_hits > 0

        cold_rt = Runtime("vectorized")
        cold = AirfoilSim(make_airfoil_mesh(16, 8), runtime=cold_rt)
        for _ in range(3):
            cold_rt.clear_caches()
            cold.step()
        np.testing.assert_array_equal(
            warm.state.p_q.data, cold.state.p_q.data
        )

    def test_loop_cache_bounded_with_scratch_dats(self):
        """Allocating a fresh Dat per step must not grow the loop cache:
        the call-site key deliberately excludes Dat identity (plans never
        depend on which Dat flows through the access structure)."""
        n = 16
        nodes = Set(n, "nodes")
        edges = Set(n, "edges")
        conn = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        e2n = Map(edges, nodes, 2, conn, "e2n")
        w = Dat(edges, 1, np.ones((n, 1)), name="w")
        rt = Runtime("vectorized", block_size=8)
        for _ in range(5):
            scratch = Dat(nodes, 1, name="scratch")
            par_loop(
                flux_inc_single, edges,
                arg_dat(w, IDX_ID, None, READ),
                arg_dat(scratch, 0, e2n, INC),
                runtime=rt,
            )
        assert len(rt._loop_plans) == 1
        assert rt.loop_cache_hits == 4

    def test_clear_caches_resets_counters(self):
        rt = Runtime("vectorized")
        from repro.mesh import make_airfoil_mesh

        sim = AirfoilSim(make_airfoil_mesh(16, 8), runtime=rt)
        sim.step()
        assert rt.stats()["plan_cache"]["entries"] > 0
        rt.clear_caches()
        stats = rt.stats()
        for kind in ("loop_cache", "plan_cache", "chain_cache"):
            cache = stats[kind]
            assert (cache["hits"], cache["misses"], cache["entries"]) \
                == (0, 0, 0), kind
