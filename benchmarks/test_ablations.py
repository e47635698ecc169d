"""Ablation benchmarks for the design choices DESIGN.md §5 calls out.

These are *measured* (wall-clock) experiments on this machine's
backends, quantifying the trade-offs the paper discusses qualitatively:
plan construction vs reuse, block-size locality vs balance, AoS vs SoA
gathers, and base-numbering locality.
"""

import numpy as np
import pytest

from repro.apps.airfoil import AirfoilSim
from repro.core import INC, Dat, Runtime, arg_dat, build_plan, make_backend
from repro.core.plan import plan_signature
from repro.mesh import (
    make_airfoil_mesh,
    rcm_renumber_cells,
    scramble,
)

from conftest import save_and_print


@pytest.fixture(scope="module")
def mesh():
    return make_airfoil_mesh(48, 24)


class TestPlanCacheAblation:
    """Plans are expensive; caching them across time steps is what makes
    the two-level scheme viable (OP2 does the same)."""

    def test_plan_build_vs_cached_loop(self, benchmark, mesh, results_dir):
        # Eager mode: this ablation measures the per-par_loop cache
        # levels; chained steps hit the chain cache instead and stop
        # consulting the loop cache at all.
        sim = AirfoilSim(mesh, runtime=Runtime("vectorized",
                                               block_size=256),
                         chained=False)
        loops = sim._loop_args()
        set_, *args = loops["res_calc"]

        benchmark.group = "ablation-plan-cache"
        benchmark.pedantic(
            lambda: build_plan(set_, args, block_size=256),
            rounds=3, iterations=1,
        )
        build_time = benchmark.stats.stats.mean

        sim.step()  # plans now cached
        import time as _time

        t0 = _time.perf_counter()
        sim.step()
        step_time = _time.perf_counter() - t0

        from repro.bench.harness import ReportTable

        t = ReportTable("Ablation: plan build cost vs cached step")
        t.add(**{"res_calc plan build s": round(build_time, 4),
                 "full cached step s": round(step_time, 4),
                 "builds amortized per step":
                     round(build_time / max(step_time, 1e-9), 2)})
        t.note("One uncached plan build costs a large fraction of (or "
               "more than) an entire cached time step — caching is "
               "mandatory, exactly as in OP2.")
        save_and_print(t, "ablation_plan_cache", results_dir)
        # The build must be non-trivial relative to a step; and the
        # two-level cache must make repeated steps plan-free: after the
        # warm-up step every call site answers from the loop cache and
        # no new structural plans are built.
        rt = sim.runtime
        misses_after_warm = rt.plans.misses
        sim.step()
        assert rt.plans.misses == misses_after_warm
        assert rt.loop_cache_hits > rt.loop_cache_misses

    def test_plan_signature_is_cheap(self, benchmark, mesh):
        sim = AirfoilSim(mesh)
        set_, *args = sim._loop_args()["res_calc"]
        benchmark.group = "ablation-plan-cache"
        result = benchmark(
            lambda: plan_signature(set_, args, 256, "two_level")
        )
        assert result is not None


class TestBlockSizeAblation:
    """Fig 8b's knob, measured: tiny blocks pay scheduling overhead,
    huge blocks lose nothing here (single thread) — the flat-right curve
    shows the overhead is per-block, motivating the paper's tuning."""

    @pytest.mark.parametrize("block_size", [16, 64, 256, 1024, 4096])
    def test_block_size_sweep(self, benchmark, mesh, block_size):
        sim = AirfoilSim(mesh, runtime=Runtime("vectorized",
                                               block_size=block_size))
        sim.step()
        benchmark.group = "ablation-block-size"
        benchmark(sim.step)

    def test_small_blocks_slower(self, benchmark, mesh, results_dir):
        import time as _time

        from repro.bench.harness import ReportTable

        t = ReportTable("Ablation: mini-partition (block) size")
        times = {}
        benchmark.group = "ablation-block-size"
        benchmark.pedantic(lambda: None, rounds=1, iterations=1)
        for bs in (16, 256, 4096):
            # One vector chunk per block keeps the per-block dispatch
            # loop this knob measures; the whole-color path concatenates
            # same-colored blocks and is insensitive to block size by
            # design.
            sim = AirfoilSim(mesh, runtime=Runtime(
                make_backend("vectorized", vec=1 << 30), block_size=bs,
            ), chained=False)
            sim.step()
            t0 = _time.perf_counter()
            sim.run(2)
            times[bs] = (_time.perf_counter() - t0) / 2
            t.add(**{"block size": bs, "s/step": round(times[bs], 4)})
        t.note("Per-block dispatch overhead dominates at tiny blocks; "
               "vectorized chunks amortize it as blocks grow. (Chunked "
               "path — the whole-color batch path is block-size "
               "insensitive.)")
        save_and_print(t, "ablation_block_size", results_dir)
        assert times[16] > times[256] * 1.2


class TestLayoutAblation:
    """AoS vs SoA gathers: the paper transposes GPU data to SoA so
    lockstep lanes read contiguously. The NumPy analogue: gathering rows
    of an (n, 4) AoS array vs gathering from 4 contiguous SoA columns."""

    @pytest.mark.parametrize("layout", ["aos", "soa"])
    def test_gather_layout(self, benchmark, layout):
        rng = np.random.default_rng(0)
        n, m = 200_000, 50_000
        idx = rng.integers(0, n, m)
        aos = rng.random((n, 4))
        soa = np.ascontiguousarray(aos.T)

        benchmark.group = "ablation-gather-layout"
        if layout == "aos":
            benchmark(lambda: aos[idx])
        else:
            benchmark(lambda: (soa[0][idx], soa[1][idx],
                               soa[2][idx], soa[3][idx]))

    def test_soa_roundtrip_preserves_data(self, benchmark):
        from repro.core import Dat, Set

        d = Dat(Set(100), 4, np.random.default_rng(1).random((100, 4)))
        before = d.data.copy()
        benchmark.group = "ablation-gather-layout"
        soa = benchmark(d.soa)
        d.from_soa(soa)
        np.testing.assert_array_equal(d.data, before)


class TestRenumberingAblation:
    """Base-numbering locality (Section 3's premise that contiguous
    blocks are geometrically compact): a scrambled mesh destroys it,
    RCM restores it; plan quality (block color count) tracks it."""

    def test_scrambled_vs_sorted_plan_quality(self, benchmark, results_dir):
        from repro.bench.harness import ReportTable
        from repro.mesh import permute_set_numbering

        base = make_airfoil_mesh(32, 16)
        bad = scramble(base, "edges", seed=5)
        # Restore locality: renumber edges by their lowest adjacent cell
        # (the ordering the generator produces naturally).
        order = np.argsort(bad.map("edge2cell").values.min(axis=1),
                           kind="stable")
        new_of_old = np.empty(bad.edges.size, dtype=np.int64)
        new_of_old[order] = np.arange(bad.edges.size)
        good = permute_set_numbering(bad, "edges", new_of_old)

        def count_colors(m):
            # res_calc's racing structure over *this* numbering — built
            # from the mesh, not through AirfoilSim, whose internal
            # mesh is localize()'s and so the same for all three.
            res = Dat(m.cells, 4)
            e2c = m.map("edge2cell")
            args = [arg_dat(res, 0, e2c, INC), arg_dat(res, 1, e2c, INC)]
            plan = build_plan(m.edges, args, block_size=128)
            return plan.n_block_colors, int(plan.block_ncolors.max())

        benchmark.group = "ablation-renumbering"
        colors = {}
        for label, m in (("original", base), ("scrambled", bad),
                         ("sorted", good)):
            colors[label] = count_colors(m)
        benchmark.pedantic(lambda: count_colors(base), rounds=1,
                           iterations=1)

        t = ReportTable("Ablation: edge numbering vs coloring quality")
        for label, (bc, ec) in colors.items():
            t.add(numbering=label,
                  **{"res_calc block colors": bc,
                     "max elem colors/block": ec})
        t.note("Scrambling the edge numbering makes blocks span the "
               "whole mesh, inflating block conflicts and within-block "
               "serialization; sorting by adjacent cell restores both "
               "(the locality premise of OP2's mini-partitions).")
        save_and_print(t, "ablation_renumbering", results_dir)
        assert colors["scrambled"][0] > colors["original"][0]
        assert colors["sorted"][0] <= colors["scrambled"][0]

    def test_rcm_on_cells_reduces_map_bandwidth(self, benchmark):
        from repro.mesh import bandwidth

        bad = scramble(make_airfoil_mesh(24, 12), "cells", seed=2)
        benchmark.group = "ablation-renumbering"
        good = benchmark.pedantic(rcm_renumber_cells, args=(bad,),
                                  rounds=1, iterations=1)
        assert bandwidth(good.map("edge2cell").values) < bandwidth(
            bad.map("edge2cell").values
        )

