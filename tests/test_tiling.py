"""Sparse-tiling inspector/executor: equivalence, coverage, coloring.

The central contract mirrors the chain suite's: tiled execution is
**bitwise identical** to eager execution — swept over the full
backend × scheme × layout matrix for Airfoil, plus Volna.  Around it:
inspector structure (segments, barriers, monotone cuts), the
exactly-once coverage and conflict-free tile-coloring properties
(randomized via hypothesis), cross-loop dependency ordering, the tiled
chain-cache entry kind, executor fallbacks, and tile-local mesh
renumbering.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    INC,
    READ,
    WRITE,
    Dat,
    Global,
    IDX_ID,
    Map,
    Runtime,
    Set,
    arg_dat,
    arg_gbl,
    kernel,
    par_loop,
)
from repro.coloring import is_valid_tile_coloring
from repro.testing import (
    BACKEND_MATRIX, LAYOUT_MATRIX, runtime_for, spy_chains,
)
from repro.tiling import (
    TiledSegment,
    auto_tile_size,
    barrier_reason,
    check_tiling,
    segment_written_rows,
)


# ----------------------------------------------------------------------
# Toy problem and kernels
# ----------------------------------------------------------------------
@kernel("tile_scale", flops=1)
def tile_scale(w, s):
    s[0] = 2.0 * w[0]


@tile_scale.vectorized
def tile_scale_vec(w, s):
    s[:, 0] = 2.0 * w[:, 0]


@kernel("tile_spmv", flops=2)
def tile_spmv(s, r0, r1):
    r0[0] += s[0]
    r1[0] += s[0]


@tile_spmv.vectorized
def tile_spmv_vec(s, r0, r1):
    r0[:, 0] += s[:, 0]
    r1[:, 0] += s[:, 0]


@kernel("tile_norm", flops=1)
def tile_norm(r, out):
    out[0] = r[0] * r[0]


@tile_norm.vectorized
def tile_norm_vec(r, out):
    out[:, 0] = r[:, 0] * r[:, 0]


def ring_problem(n=60, seed=7):
    nodes = Set(n, "nodes")
    edges = Set(n, "edges")
    conn = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    e2n = Map(edges, nodes, 2, conn, "e2n")
    w = Dat(edges, 1, np.random.default_rng(seed).random(n), name="w")
    s = Dat(edges, 1, name="s")
    r = Dat(nodes, 1, name="r")
    out = Dat(nodes, 1, name="out")
    return nodes, edges, e2n, w, s, r, out


def ring_chain_schedule(rt, tiling, n=60):
    """Record the scale → spmv → norm ring chain tiled; return
    (runtime, compiled chain, dats)."""
    nodes, edges, e2n, w, s, r, out = ring_problem(n)
    chains = spy_chains(rt)
    with rt.chain(tiling=tiling):
        par_loop(tile_scale, edges,
                 arg_dat(w, IDX_ID, None, READ),
                 arg_dat(s, IDX_ID, None, WRITE), runtime=rt)
        par_loop(tile_spmv, edges,
                 arg_dat(s, IDX_ID, None, READ),
                 arg_dat(r, 0, e2n, INC),
                 arg_dat(r, 1, e2n, INC), runtime=rt)
        par_loop(tile_norm, nodes,
                 arg_dat(r, IDX_ID, None, READ),
                 arg_dat(out, IDX_ID, None, WRITE), runtime=rt)
    compiled = chains[0]
    return compiled, (w, s, r, out)


# ----------------------------------------------------------------------
# Tiled == eager, bitwise, across the whole matrix
# ----------------------------------------------------------------------
class TestTiledEagerEquivalence:
    @pytest.mark.parametrize("layout", LAYOUT_MATRIX)
    @pytest.mark.parametrize("name,scheme,options", BACKEND_MATRIX)
    def test_airfoil_three_steps_bitwise(self, name, scheme, options, layout):
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh

        eager = AirfoilSim(
            make_airfoil_mesh(12, 6),
            runtime=runtime_for(name, scheme, options, layout=layout),
            chained=False,
        )
        tiled = AirfoilSim(
            make_airfoil_mesh(12, 6),
            runtime=runtime_for(name, scheme, options, layout=layout),
            chained=True, tiling=40,
        )
        eager.run(3)
        tiled.run(3)
        for field in ("p_q", "p_qold", "p_adt", "p_res"):
            a = getattr(eager.state, field).data
            b = getattr(tiled.state, field).data
            assert np.array_equal(a, b), (
                f"{field} diverged on {name}/{scheme}/{layout}"
            )
        assert eager.rms_history == tiled.rms_history

    @pytest.mark.parametrize("layout", LAYOUT_MATRIX)
    def test_volna_three_steps_bitwise(self, layout):
        from repro.apps.volna import VolnaSim
        from repro.mesh import make_tri_mesh

        eager = VolnaSim(
            make_tri_mesh(10, 8), dtype=np.float64,
            runtime=runtime_for("vectorized", "two_level", {}, layout=layout),
            chained=False,
        )
        tiled = VolnaSim(
            make_tri_mesh(10, 8), dtype=np.float64,
            runtime=runtime_for("vectorized", "two_level", {}, layout=layout),
            chained=True, tiling=32,
        )
        eager.run(3)
        tiled.run(3)
        assert np.array_equal(eager.state.q.data, tiled.state.q.data)
        assert np.array_equal(eager.state.rhs.data, tiled.state.rhs.data)
        assert eager.dt_history == tiled.dt_history

    def test_auto_tiling_smoke(self):
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh

        eager = AirfoilSim(
            make_airfoil_mesh(10, 5),
            runtime=Runtime("vectorized", block_size=32), chained=False,
        )
        tiled = AirfoilSim(
            make_airfoil_mesh(10, 5),
            runtime=Runtime("vectorized", block_size=32),
            chained=True, tiling="auto",
        )
        eager.run(2)
        tiled.run(2)
        assert np.array_equal(eager.state.p_q.data, tiled.state.p_q.data)

    def test_narrow_strips_take_the_prepared_tiled_replay(self):
        """vec=8 cuts every tile's sub-phases into strips of 8 lanes; the
        chain still runs as the prepared per-tile strip program (not the
        fused fallback) and matches eager bitwise."""
        from repro.apps.airfoil import AirfoilSim
        from repro.core import make_backend
        from repro.mesh import make_airfoil_mesh

        eager = AirfoilSim(
            make_airfoil_mesh(10, 5),
            runtime=Runtime(make_backend("vectorized", vec=8), block_size=32),
            chained=False,
        )
        rt = Runtime(make_backend("vectorized", vec=8), block_size=32)
        chains = spy_chains(rt)
        tiled = AirfoilSim(make_airfoil_mesh(10, 5), runtime=rt,
                           chained=True, tiling=40)
        eager.run(2)
        tiled.run(2)
        assert np.array_equal(eager.state.p_q.data, tiled.state.p_q.data)
        compiled = chains[0]
        assert (rt.backend, "tiled") in compiled.exec_cache
        assert rt.backend not in compiled.exec_cache  # no fused fallback

    def test_tiled_matches_fused_chained(self):
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh

        fused = AirfoilSim(
            make_airfoil_mesh(12, 6),
            runtime=Runtime("vectorized", block_size=32), chained=True,
        )
        tiled = AirfoilSim(
            make_airfoil_mesh(12, 6),
            runtime=Runtime("vectorized", block_size=32),
            chained=True, tiling=64,
        )
        fused.run(3)
        tiled.run(3)
        assert np.array_equal(fused.state.p_q.data, tiled.state.p_q.data)
        assert fused.rms_history == tiled.rms_history


# ----------------------------------------------------------------------
# Inspector structure
# ----------------------------------------------------------------------
class TestInspector:
    def test_check_tiling_validates(self):
        assert check_tiling(None) is None
        assert check_tiling("auto") == "auto"
        assert check_tiling(128) == 128
        with pytest.raises(ValueError, match="tile size"):
            check_tiling(0)

    def test_airfoil_schedule_shape(self):
        """One airfoil step: [save, adt, res, bres] | update | [adt,
        res, bres] | update — global-reduction updates are barriers."""
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh

        rt = Runtime("vectorized", block_size=32)
        chains = spy_chains(rt)
        sim = AirfoilSim(make_airfoil_mesh(12, 6), runtime=rt,
                         chained=True, tiling=48)
        sim.step()
        compiled = chains[0]
        sched = compiled.tiled
        kinds = [
            "seg" if isinstance(p, TiledSegment) else p.reason
            for p in sched.parts
        ]
        assert kinds == ["seg", "global-reduction", "seg",
                         "global-reduction"]
        assert [len(p.loop_indices) for p in sched.segments] == [4, 3]
        assert all(ok for ok in sched.covers_exactly_once().values())

    def test_monotone_contiguous_cuts(self):
        rt = Runtime("vectorized", block_size=16)
        compiled, _ = ring_chain_schedule(rt, tiling=16)
        sched = compiled.tiled
        assert len(sched.segments) == 1
        seg = sched.segments[0]
        assert seg.n_tiles == 4  # 60 edges / 16
        for sl in seg.slices:
            assert int(sl.cuts[0]) == 0
            assert int(sl.cuts[-1]) == sl.order.size
            assert np.all(np.diff(sl.cuts) >= 0)
            # Concatenating tile slices reproduces the eager order.
            cat = np.concatenate(
                [sl.tile_elems(t) for t in range(seg.n_tiles)]
            )
            assert np.array_equal(cat, sl.order)

    def test_cross_loop_dependencies_respected(self):
        """Semantic ordering property: if an earlier loop touches a row
        in tile t, any later loop's iteration touching that row sits in
        a tile >= t."""
        rt = Runtime("vectorized", block_size=16)
        compiled, _ = ring_chain_schedule(rt, tiling=16)
        seg = compiled.tiled.segments[0]
        loops = compiled.loops

        def rows_of(arg, elems):
            if arg.is_direct:
                return elems.reshape(-1, 1)
            if arg.is_vector:
                return arg.map.values[elems]
            return arg.map.values[elems, arg.index].reshape(-1, 1)

        last = {}
        for j, k in enumerate(seg.loop_indices):
            bl = loops[k]
            for t in range(seg.n_tiles):
                elems = seg.slices[j].tile_elems(t)
                if not elems.size:
                    continue
                for arg in bl.args:
                    if arg.is_global:
                        continue
                    for row in np.unique(rows_of(arg, elems)):
                        key = (arg.dat._uid, int(row))
                        prev = last.get(key, -1)
                        assert t >= prev, (
                            f"loop {k} tile {t} touches row {key} last "
                            f"touched in tile {prev}"
                        )
            # Update after the whole loop (constraints are cross-loop).
            for t in range(seg.n_tiles):
                elems = seg.slices[j].tile_elems(t)
                if not elems.size:
                    continue
                for arg in bl.args:
                    if arg.is_global:
                        continue
                    for row in np.unique(rows_of(arg, elems)):
                        key = (arg.dat._uid, int(row))
                        last[key] = max(last.get(key, -1), t)

    def test_tile_colors_conflict_free(self):
        rt = Runtime("vectorized", block_size=16)
        compiled, _ = ring_chain_schedule(rt, tiling=16)
        seg = compiled.tiled.segments[0]
        rows = segment_written_rows(compiled.loops, seg)
        assert seg.tile_colors.shape == (seg.n_tiles,)
        assert seg.n_tile_colors >= 1
        assert is_valid_tile_coloring(seg.tile_colors, rows)
        # A ring's neighbouring tiles share written nodes: > 1 color.
        assert seg.n_tile_colors > 1

    def test_barrier_reasons(self):
        nodes, edges, e2n, w, s, r, out = ring_problem()
        g = Global(1, name="g")

        class FakeLoop:
            def __init__(self, args):
                self.args = tuple(args)

        assert barrier_reason(FakeLoop([arg_gbl(g, INC)])) == (
            "global-reduction"
        )
        # Indirect INC + direct READ of the same Dat.
        rd = Dat(nodes, 1, name="rd")
        assert barrier_reason(FakeLoop([
            arg_dat(rd, 0, e2n, INC),
            arg_dat(rd, IDX_ID, None, READ),
        ])) == "indirect-write-and-read"
        # Plain sliceable loop.
        assert barrier_reason(FakeLoop([
            arg_dat(w, IDX_ID, None, READ),
            arg_dat(r, 0, e2n, INC),
            arg_dat(r, 1, e2n, INC),
        ])) is None

    def test_singleton_segment_becomes_barrier(self):
        nodes, edges, e2n, w, s, r, out = ring_problem()
        rt = Runtime("vectorized", block_size=16)
        chains = spy_chains(rt)
        with rt.chain(tiling=16):
            par_loop(tile_scale, edges,
                     arg_dat(w, IDX_ID, None, READ),
                     arg_dat(s, IDX_ID, None, WRITE), runtime=rt)
        compiled = chains[0]
        assert [p.reason for p in compiled.tiled.parts] == [
            "singleton-segment"
        ]

    def test_auto_tile_size_scales_with_data(self):
        rt = Runtime("vectorized", block_size=16)
        compiled, _ = ring_chain_schedule(rt, tiling=16)
        size = auto_tile_size(compiled.loops)
        assert size >= 256


# ----------------------------------------------------------------------
# Property-based: exactly-once coverage and valid colors on random meshes
# ----------------------------------------------------------------------
class TestInspectorProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        n=st.integers(min_value=3, max_value=120),
        tile_size=st.integers(min_value=1, max_value=64),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_every_iteration_exactly_once_and_colors_valid(
        self, n, tile_size, seed
    ):
        """For random ring meshes and tile sizes, every iteration of
        every sliced loop executes exactly once across all tiles, and
        the tile coloring is conflict-free."""
        rng = np.random.default_rng(seed)
        nodes = Set(n, "pnodes")
        edges = Set(n, "pedges")
        conn = np.stack(
            [rng.permutation(n), (rng.permutation(n))], axis=1
        )
        e2n = Map(edges, nodes, 2, conn, "pe2n")
        w = Dat(edges, 1, rng.random(n), name="pw")
        s = Dat(edges, 1, name="ps")
        r = Dat(nodes, 1, name="pr")
        out = Dat(nodes, 1, name="pout")
        rt = Runtime("vectorized", block_size=16)
        chains = spy_chains(rt)
        with rt.chain(tiling=tile_size):
            par_loop(tile_scale, edges,
                     arg_dat(w, IDX_ID, None, READ),
                     arg_dat(s, IDX_ID, None, WRITE), runtime=rt)
            par_loop(tile_spmv, edges,
                     arg_dat(s, IDX_ID, None, READ),
                     arg_dat(r, 0, e2n, INC),
                     arg_dat(r, 1, e2n, INC), runtime=rt)
            par_loop(tile_norm, nodes,
                     arg_dat(r, IDX_ID, None, READ),
                     arg_dat(out, IDX_ID, None, WRITE), runtime=rt)
        compiled = chains[0]
        sched = compiled.tiled
        for seg in sched.segments:
            for j, k in enumerate(seg.loop_indices):
                bl = compiled.loops[k]
                sl = seg.slices[j]
                cat = np.concatenate(
                    [sl.tile_elems(t) for t in range(seg.n_tiles)]
                )
                # Exactly once: the concatenation is a permutation of
                # the loop's range...
                assert np.array_equal(
                    np.sort(cat), np.arange(bl.start, bl.n)
                )
                # ...and in the loop's eager order.
                assert np.array_equal(cat, sl.order)
            assert is_valid_tile_coloring(
                seg.tile_colors,
                segment_written_rows(compiled.loops, seg),
            )
        # The numeric results equal eager execution bitwise.
        s_ref = 2.0 * w.data
        r_ref = np.zeros((n, 1))
        np.add.at(r_ref, conn[:, 0], s_ref)
        np.add.at(r_ref, conn[:, 1], s_ref)
        assert np.array_equal(s.data, s_ref)
        assert np.array_equal(out.data[:, 0], (r_ref * r_ref)[:, 0])

    @settings(max_examples=10, deadline=None)
    @given(
        nx=st.integers(min_value=3, max_value=10),
        ny=st.integers(min_value=3, max_value=10),
        tile_size=st.integers(min_value=8, max_value=96),
    )
    def test_random_tri_meshes_bitwise(self, nx, ny, tile_size):
        from repro.apps.volna import VolnaSim
        from repro.mesh import make_tri_mesh

        eager = VolnaSim(
            make_tri_mesh(nx, ny), dtype=np.float64,
            runtime=Runtime("vectorized", block_size=32), chained=False,
        )
        tiled = VolnaSim(
            make_tri_mesh(nx, ny), dtype=np.float64,
            runtime=Runtime("vectorized", block_size=32),
            chained=True, tiling=tile_size,
        )
        eager.run(2)
        tiled.run(2)
        assert np.array_equal(eager.state.q.data, tiled.state.q.data)
        assert eager.dt_history == tiled.dt_history


# ----------------------------------------------------------------------
# Cache entry kinds and executor plumbing
# ----------------------------------------------------------------------
class TestTiledCachesAndExecutors:
    def test_tiling_is_a_chain_cache_entry_kind(self):
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh

        rt = Runtime("vectorized", block_size=32)
        mesh = make_airfoil_mesh(10, 5)
        fused = AirfoilSim(mesh, runtime=rt, chained=True)
        fused.step()
        tiled = AirfoilSim(mesh, runtime=rt, chained=True, tiling=48)
        tiled.step()
        st_ = rt.stats()["chain_cache"]
        assert st_["entries"] == 2      # same trace, two lowerings
        assert st_["misses"] == 2
        tiled.step()                    # steady state replays
        assert rt.stats()["chain_cache"]["hits"] == 1

    def test_prepared_tiled_program_is_cached(self):
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh

        rt = Runtime("vectorized", block_size=32)
        chains = spy_chains(rt)
        sim = AirfoilSim(make_airfoil_mesh(10, 5), runtime=rt,
                         chained=True, tiling=48)
        sim.run(3)
        compiled = chains[0]
        keys = [k for k in compiled.exec_cache if isinstance(k, tuple)]
        assert keys, "tiled replay program was not cached"

    def test_scalar_backends_build_ascending_profile(self):
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh

        rt = Runtime("sequential", block_size=32)
        chains = spy_chains(rt)
        sim = AirfoilSim(make_airfoil_mesh(10, 5), runtime=rt,
                         chained=True, tiling=48)
        sim.step()
        compiled = chains[0]
        sched = compiled.tiled_for("ascending")
        assert sched is not None and sched.profile == "ascending"
        for seg in sched.segments:
            for sl in seg.slices:
                assert np.all(np.diff(sl.order) == 1)
        # Memoized.
        assert compiled.tiled_for("ascending") is sched

    def test_untiled_chain_has_no_schedule(self):
        rt = Runtime("vectorized", block_size=16)
        chains = spy_chains(rt)
        nodes, edges, e2n, w, s, r, out = ring_problem()
        with rt.chain():
            par_loop(tile_scale, edges,
                     arg_dat(w, IDX_ID, None, READ),
                     arg_dat(s, IDX_ID, None, WRITE), runtime=rt)
        compiled = chains[0]
        assert compiled.tiled is None
        assert compiled.tiled_for("phases") is None

    def test_schedule_stats_surface(self):
        rt = Runtime("vectorized", block_size=16)
        compiled, _ = ring_chain_schedule(rt, tiling=16)
        stats = compiled.tiled.stats()
        for key in ("profile", "tile_size", "n_segments", "n_barriers",
                    "n_sliced_loops", "n_tiles", "max_tile_colors"):
            assert key in stats
        assert stats["n_tiles"] == 4
