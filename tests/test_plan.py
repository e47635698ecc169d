"""Tests for execution-plan construction and caching."""

import numpy as np
import pytest

from repro.core import (
    INC,
    READ,
    Dat,
    Map,
    Runtime,
    Set,
    arg_dat,
    build_plan,
    par_loop,
    plan_signature,
)
from repro.core.kernel import Kernel
from repro.core.plan import SCHEMES, PlanCache


def grid_loop(n=30, seed=2):
    rng = np.random.default_rng(seed)
    nodes = Set(n, "nodes")
    elems = Set(2 * n, "elems")
    conn = rng.integers(0, n, size=(2 * n, 2))
    m = Map(elems, nodes, 2, conn, "m")
    d = Dat(nodes, 1)
    w = Dat(elems, 1)
    args = [
        arg_dat(w, -1, None, READ),
        arg_dat(d, 0, m, INC),
        arg_dat(d, 1, m, INC),
    ]
    return elems, args, m


class TestBuildPlan:
    def test_direct_plan_trivial(self):
        s = Set(10, "s")
        d = Dat(s, 1)
        plan = build_plan(s, [arg_dat(d, -1, None, READ)], block_size=4)
        assert plan.is_direct
        assert plan.n_block_colors == 1
        assert plan.block_ncolors is None

    def test_indirect_read_is_direct_plan(self):
        elems, args, m = grid_loop()
        read_only = [args[0],
                     arg_dat(args[1].dat, 0, m, READ),
                     arg_dat(args[1].dat, 1, m, READ)]
        plan = build_plan(elems, read_only, block_size=8)
        assert plan.is_direct

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_schemes_populate_right_fields(self, scheme):
        elems, args, _ = grid_loop()
        plan = build_plan(elems, args, block_size=8, scheme=scheme)
        assert not plan.is_direct
        if scheme == "two_level":
            assert plan.elem_colors is None
            assert plan.permutation is None
        elif scheme == "full_permute":
            assert plan.permutation is not None
            assert sorted(plan.permutation.order.tolist()) == list(
                range(elems.size)
            )
        else:
            assert plan.block_permutation is not None

    @pytest.mark.parametrize("start", [0, 5])
    def test_two_level_racing_plan_is_one_ascending_phase(self, start):
        """The batched executor runs one thread, so a racing
        ``two_level`` loop is one ascending phase that scatters in
        element order, and nothing is coloured for it."""
        elems, args, _ = grid_loop()
        plan = PlanCache().get(elems, args, block_size=8)
        (phase,) = plan.phases(elems.size, start)
        assert phase.serialize and phase.contiguous
        np.testing.assert_array_equal(
            phase.elems, np.arange(start, elems.size))
        np.testing.assert_array_equal(
            plan.execution_order(elems.size, start), phase.elems)
        assert not plan.colored

    def test_block_colors_disjoint_targets(self):
        elems, args, m = grid_loop()
        plan = build_plan(elems, args, block_size=8)
        for c in range(plan.n_block_colors):
            seen = set()
            for b in np.flatnonzero(plan.block_colors == c):
                lo, hi = plan.layout.block_range(int(b))
                tgts = set(m.values[lo:hi].reshape(-1).tolist())
                assert not (seen & tgts)
                seen |= tgts

    def test_unknown_scheme_rejected(self):
        elems, args, _ = grid_loop()
        with pytest.raises(ValueError):
            build_plan(elems, args, scheme="rainbow")


class TestPlanSignatureAndCache:
    def test_signature_ignores_reads(self):
        elems, args, m = grid_loop()
        extra_read = arg_dat(args[1].dat, 0, m, READ)
        s1 = plan_signature(elems, args, 8, "two_level")
        s2 = plan_signature(elems, args + [extra_read], 8, "two_level")
        assert s1 == s2

    def test_signature_sensitive_to_racing_slot(self):
        elems, args, m = grid_loop()
        s1 = plan_signature(elems, args, 8, "two_level")
        s2 = plan_signature(elems, args[:2], 8, "two_level")  # one INC slot
        assert s1 != s2

    def test_signature_sensitive_to_block_size_and_scheme(self):
        elems, args, _ = grid_loop()
        sigs = {
            plan_signature(elems, args, bs, sch)
            for bs in (8, 16)
            for sch in ("two_level", "full_permute")
        }
        assert len(sigs) == 4

    def test_cache_hits(self):
        elems, args, _ = grid_loop()
        cache = PlanCache()
        p1 = cache.get(elems, args, 8, "two_level")
        p2 = cache.get(elems, args, 8, "two_level")
        assert p1 is p2
        assert cache.hits == 1 and cache.misses == 1 and len(cache) == 1
        cache.get(elems, args, 16, "two_level")
        assert cache.misses == 2
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0

    def test_runtime_reuses_plans_across_loops(self):
        elems, args, _ = grid_loop()
        rt = Runtime(backend="vectorized", block_size=8)

        def k(w, a0, a1):
            a0[0] += w[0]
            a1[0] += w[0]

        def kv(w, a0, a1):
            a0[:, 0] += w[:, 0]
            a1[:, 0] += w[:, 0]

        kern = Kernel("k", k, kv)
        par_loop(kern, elems, *args, runtime=rt)
        par_loop(kern, elems, *args, runtime=rt)
        # The repeated call site is answered by the loop cache; the
        # structural PlanCache built the plan exactly once.
        assert rt.loop_cache_hits == 1 and rt.loop_cache_misses == 1
        assert rt.plans.misses == 1 and len(rt.plans) == 1

    def test_loop_cache_shares_structural_plans(self):
        """Two kernels with the same racing structure share one plan."""
        elems, args, _ = grid_loop()
        rt = Runtime(backend="vectorized", block_size=8)

        def k(w, a0, a1):
            a0[0] += w[0]
            a1[0] += w[0]

        def kv(w, a0, a1):
            a0[:, 0] += w[:, 0]
            a1[:, 0] += w[:, 0]

        par_loop(Kernel("k1", k, kv), elems, *args, runtime=rt)
        par_loop(Kernel("k2", k, kv), elems, *args, runtime=rt)
        # Distinct call sites -> two loop-cache entries, but the second
        # falls through to a structural PlanCache hit (shared coloring).
        assert rt.loop_cache_misses == 2
        assert rt.plans.hits == 1 and len(rt.plans) == 1


class TestPlanOverride:
    def test_explicit_plan_used(self):
        elems, args, _ = grid_loop()
        plan = build_plan(elems, args, block_size=4, scheme="full_permute")
        rt = Runtime(backend="vectorized", block_size=999, scheme="two_level")

        def k(w, a0, a1):
            a0[0] += w[0]
            a1[0] += w[0]

        def kv(w, a0, a1):
            a0[:, 0] += w[:, 0]
            a1[:, 0] += w[:, 0]

        par_loop(Kernel("k", k, kv), elems, *args, runtime=rt, plan=plan)
        assert rt.plans.misses == 0  # cache bypassed
