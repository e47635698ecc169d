"""Deferred-execution loop chains: equivalence, fusion, barriers, caches.

The central contract: chained execution is **bitwise identical** to
eager execution — swept over the full backend × scheme matrix and both
data layouts for the Airfoil 5-loop time step, plus Volna.  Around it:
every cross-loop hazard (RAW/WAR/WAW, commuting and mixed reductions)
executed eager, chained and tiled on every backend, fusion legality
(including the rejections), the read/write barriers on Dat and Global,
the third-level chain cache, and the LRU bounds on all cache levels.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import (
    INC,
    MAX,
    MIN,
    READ,
    RW,
    WRITE,
    Dat,
    Global,
    IDX_ID,
    LoopSpec,
    Map,
    PlanCache,
    Runtime,
    Set,
    arg_dat,
    arg_gbl,
    kernel,
    pair_fusable,
    par_loop,
)
from repro.core import runtime as runtime_module
from repro.testing import (
    BACKEND_MATRIX, LAYOUT_MATRIX, runtime_for, spy_chains,
)


# ----------------------------------------------------------------------
# Shared toy problem
# ----------------------------------------------------------------------
@kernel("chain_scale", flops=1)
def chain_scale(w, s):
    s[0] = 2.0 * w[0]


@chain_scale.vectorized
def chain_scale_vec(w, s):
    s[:, 0] = 2.0 * w[:, 0]


@kernel("chain_spmv", flops=2)
def chain_spmv(s, r0, r1):
    r0[0] += s[0]
    r1[0] += s[0]


@chain_spmv.vectorized
def chain_spmv_vec(s, r0, r1):
    r0[:, 0] += s[:, 0]
    r1[:, 0] += s[:, 0]


def ring_problem(n=40, seed=3):
    nodes = Set(n, "nodes")
    edges = Set(n, "edges")
    conn = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    e2n = Map(edges, nodes, 2, conn, "e2n")
    w = Dat(edges, 1, np.random.default_rng(seed).random(n), name="w")
    s = Dat(edges, 1, name="s")
    r = Dat(nodes, 1, name="r")
    return nodes, edges, e2n, w, s, r


def dummy_spec(set_, *args, name="dummy"):
    """A LoopSpec for pure-analysis tests (kernel never executes)."""
    k = kernel(name)(lambda *a: None)
    return LoopSpec(kernel=k, set=set_, args=tuple(args))


# ----------------------------------------------------------------------
# Chained == eager, bitwise, across the whole matrix
# ----------------------------------------------------------------------
class TestChainEagerEquivalence:
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
        chained = AirfoilSim(
            make_airfoil_mesh(12, 6),
            runtime=runtime_for(name, scheme, options, layout=layout),
            chained=True,
        )
        eager.run(3)
        chained.run(3)
        for field in ("p_q", "p_qold", "p_adt", "p_res"):
            a = getattr(eager.state, field).data
            b = getattr(chained.state, field).data
            assert np.array_equal(a, b), f"{field} diverged on {name}/{scheme}/{layout}"
        assert eager.rms_history == chained.rms_history

    @pytest.mark.parametrize("layout", LAYOUT_MATRIX)
    def test_volna_three_steps_bitwise(self, layout):
        from repro.apps.volna import VolnaSim
        from repro.mesh import make_tri_mesh

        eager = VolnaSim(
            make_tri_mesh(10, 8), dtype=np.float64,
            runtime=runtime_for("vectorized", "two_level", {}, layout=layout),
            chained=False,
        )
        chained = VolnaSim(
            make_tri_mesh(10, 8), dtype=np.float64,
            runtime=runtime_for("vectorized", "two_level", {}, layout=layout),
            chained=True,
        )
        eager.run(3)
        chained.run(3)
        assert np.array_equal(eager.state.q.data, chained.state.q.data)
        assert np.array_equal(eager.state.rhs.data, chained.state.rhs.data)
        assert eager.dt_history == chained.dt_history

    def test_narrow_strips_take_the_prepared_replay(self):
        """vec=8 cuts every phase into strips of 8 lanes; the chain still
        runs as the prepared strip program (no eager fallback) and
        matches eager bitwise."""
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh
        from repro.core import make_backend

        eager = AirfoilSim(
            make_airfoil_mesh(10, 5),
            runtime=Runtime(make_backend("vectorized", vec=8), block_size=32),
            chained=False,
        )
        rt = Runtime(make_backend("vectorized", vec=8), block_size=32)
        chains = spy_chains(rt)
        chained = AirfoilSim(make_airfoil_mesh(10, 5), runtime=rt,
                             chained=True)
        eager.run(2)
        chained.run(2)
        assert np.array_equal(eager.state.p_q.data, chained.state.p_q.data)
        compiled = chains[0]
        program = compiled.exec_cache[rt.backend]
        assert [fn.__name__ for fn in program] == \
            ["run_group"] * len(compiled.groups)


# ----------------------------------------------------------------------
# Hazard order: every RAW / WAR / WAW pattern, on every backend
# ----------------------------------------------------------------------
@kernel("chain_shift", flops=1)
def chain_shift(x, y):
    y[0] = x[0] + 1.0


@chain_shift.vectorized
def chain_shift_vec(x, y):
    y[:, 0] = x[:, 0] + 1.0


@kernel("chain_inc", flops=1)
def chain_inc(s, r):
    r[0] += s[0]


@chain_inc.vectorized
def chain_inc_vec(s, r):
    r[:, 0] += s[:, 0]


@kernel("chain_gsum", flops=1)
def chain_gsum(w, g):
    g[0] += w[0]


@chain_gsum.vectorized
def chain_gsum_vec(w, g):
    g[:, 0] += w[:, 0]


@kernel("chain_gmin")
def chain_gmin(w, g):
    g[0] = min(g[0], w[0])


@chain_gmin.vectorized
def chain_gmin_vec(w, g):
    g[:, 0] = np.minimum(g[:, 0], w[:, 0])


@kernel("chain_gmax")
def chain_gmax(w, g):
    g[0] = max(g[0], w[0])


@chain_gmax.vectorized
def chain_gmax_vec(w, g):
    g[:, 0] = np.maximum(g[:, 0], w[:, 0])


HAZARD_FIELDS = ("w", "s", "t", "r", "u", "g")


def hazard_problem(n=40):
    """The ring problem with non-zero ``s``/``r`` (so a misordered
    read observes a different value), two zeroed outputs ``t`` (edges)
    and ``u`` (nodes), and a Global ``g`` = 0.5."""
    nodes, edges, e2n, w, _, _ = ring_problem(n)
    rng = np.random.default_rng(5)
    return SimpleNamespace(
        nodes=nodes, edges=edges, e2n=e2n, w=w,
        s=Dat(edges, 1, rng.random(n), name="s"),
        t=Dat(edges, 1, name="t"),
        r=Dat(nodes, 1, rng.random(n), name="r"),
        u=Dat(nodes, 1, name="u"),
        g=Global(1, 0.5, name="g"),
    )


def hazard_runs(body, name, scheme, options):
    """Run ``body(problem, runtime)`` eagerly, chained and tiled on one
    backend-matrix row; the three must agree bitwise.  Returns the eager
    outputs and the initial values, for the test's reference model."""
    out = {}
    for mode in ("eager", "chained", "tiled"):
        p = hazard_problem()
        rt = runtime_for(name, scheme, options, block_size=8)
        if mode == "eager":
            body(p, rt)
        else:
            with rt.chain(tiling=8 if mode == "tiled" else None):
                body(p, rt)
        out[mode] = {f: np.array(getattr(p, f).data) for f in HAZARD_FIELDS}
    for mode in ("chained", "tiled"):
        for f in HAZARD_FIELDS:
            assert np.array_equal(out["eager"][f], out[mode][f]), (
                f"{f} diverged {mode} on {name}/{scheme}"
            )
    p0 = hazard_problem()
    init = {f: np.array(getattr(p0, f).data) for f in HAZARD_FIELDS}
    return SimpleNamespace(**out["eager"]), SimpleNamespace(**init)


def shifted(x):
    """``x`` scattered through column 1 of the ring map (edge i ->
    node i+1)."""
    return np.roll(x, 1, axis=0)


@pytest.mark.parametrize("name,scheme,options", BACKEND_MATRIX)
class TestDependencyAnalysis:
    """Each cross-loop hazard keeps eager order when chained and tiled:
    the fusion rule's verdict on the pair, then execution (eager ==
    chained == tiled bitwise, eager == a NumPy model of program order)."""

    def test_raw_edge(self, name, scheme, options):
        def body(p, rt):
            par_loop(chain_scale, p.edges,
                     arg_dat(p.w, IDX_ID, None, READ),
                     arg_dat(p.s, IDX_ID, None, WRITE), runtime=rt)
            par_loop(chain_shift, p.edges,
                     arg_dat(p.s, IDX_ID, None, READ),
                     arg_dat(p.t, IDX_ID, None, WRITE), runtime=rt)

        p = hazard_problem()
        assert pair_fusable(  # elementwise RAW survives interleaving
            dummy_spec(p.edges, arg_dat(p.s, IDX_ID, None, WRITE)),
            dummy_spec(p.edges, arg_dat(p.s, IDX_ID, None, READ)),
        )
        got, init = hazard_runs(body, name, scheme, options)
        np.testing.assert_allclose(got.s, 2.0 * init.w)
        np.testing.assert_allclose(got.t, 2.0 * init.w + 1.0)

    def test_war_edge(self, name, scheme, options):
        def body(p, rt):
            par_loop(chain_shift, p.edges,
                     arg_dat(p.s, IDX_ID, None, READ),
                     arg_dat(p.t, IDX_ID, None, WRITE), runtime=rt)
            par_loop(chain_scale, p.edges,
                     arg_dat(p.w, IDX_ID, None, READ),
                     arg_dat(p.s, IDX_ID, None, WRITE), runtime=rt)

        got, init = hazard_runs(body, name, scheme, options)
        np.testing.assert_allclose(got.t, init.s + 1.0)
        np.testing.assert_allclose(got.s, 2.0 * init.w)

    def test_waw_edge(self, name, scheme, options):
        def body(p, rt):
            par_loop(chain_scale, p.edges,
                     arg_dat(p.w, IDX_ID, None, READ),
                     arg_dat(p.s, IDX_ID, None, WRITE), runtime=rt)
            par_loop(chain_shift, p.edges,
                     arg_dat(p.w, IDX_ID, None, READ),
                     arg_dat(p.s, IDX_ID, None, WRITE), runtime=rt)

        got, init = hazard_runs(body, name, scheme, options)
        np.testing.assert_allclose(got.s, init.w + 1.0)

    def test_inc_inc_commutes(self, name, scheme, options):
        def body(p, rt):
            for src in (p.s, p.w):  # same plan: only legality splits them
                par_loop(chain_spmv, p.edges,
                         arg_dat(src, IDX_ID, None, READ),
                         arg_dat(p.r, 0, p.e2n, INC),
                         arg_dat(p.r, 1, p.e2n, INC), runtime=rt)

        p = hazard_problem()
        # Increments commute in exact arithmetic only: interleaving two
        # indirect INC loops would reorder the floating-point sums.
        assert not pair_fusable(
            dummy_spec(p.edges, arg_dat(p.r, 0, p.e2n, INC)),
            dummy_spec(p.edges, arg_dat(p.r, 1, p.e2n, INC)),
        )
        got, init = hazard_runs(body, name, scheme, options)
        np.testing.assert_allclose(
            got.r,
            init.r + init.s + shifted(init.s) + init.w + shifted(init.w),
        )

    def test_min_min_commutes_but_mixed_modes_order(self, name, scheme,
                                                    options):
        def body(p, rt):
            par_loop(chain_gmin, p.edges,
                     arg_dat(p.w, IDX_ID, None, READ),
                     arg_gbl(p.g, MIN), runtime=rt)
            par_loop(chain_gmin, p.edges,
                     arg_dat(p.s, IDX_ID, None, READ),
                     arg_gbl(p.g, MIN), runtime=rt)
            par_loop(chain_gsum, p.edges,
                     arg_dat(p.w, IDX_ID, None, READ),
                     arg_gbl(p.g, INC), runtime=rt)

        p = hazard_problem()
        a = dummy_spec(p.edges, arg_gbl(p.g, MIN))
        assert pair_fusable(a, dummy_spec(p.edges, arg_gbl(p.g, MIN)))
        assert not pair_fusable(a, dummy_spec(p.edges, arg_gbl(p.g, INC)))
        got, init = hazard_runs(body, name, scheme, options)
        low = min(0.5, init.w.min(), init.s.min())
        np.testing.assert_allclose(got.g, [low + init.w.sum()])

    def test_read_after_inc_orders(self, name, scheme, options):
        def body(p, rt):
            par_loop(chain_inc, p.edges,
                     arg_dat(p.s, IDX_ID, None, READ),
                     arg_dat(p.r, 1, p.e2n, INC), runtime=rt)
            par_loop(chain_shift, p.nodes,
                     arg_dat(p.r, IDX_ID, None, READ),
                     arg_dat(p.u, IDX_ID, None, WRITE), runtime=rt)

        p = hazard_problem()
        assert not pair_fusable(
            dummy_spec(p.edges, arg_dat(p.r, 1, p.e2n, INC)),
            dummy_spec(p.nodes, arg_dat(p.r, IDX_ID, None, READ)),
        )
        got, init = hazard_runs(body, name, scheme, options)
        np.testing.assert_allclose(got.r, init.r + shifted(init.s))
        np.testing.assert_allclose(got.u, init.r + shifted(init.s) + 1.0)

    def test_inc_after_read_orders(self, name, scheme, options):
        def body(p, rt):
            par_loop(chain_shift, p.nodes,
                     arg_dat(p.r, IDX_ID, None, READ),
                     arg_dat(p.u, IDX_ID, None, WRITE), runtime=rt)
            par_loop(chain_inc, p.edges,
                     arg_dat(p.s, IDX_ID, None, READ),
                     arg_dat(p.r, 1, p.e2n, INC), runtime=rt)

        p = hazard_problem()
        assert not pair_fusable(
            dummy_spec(p.nodes, arg_dat(p.r, IDX_ID, None, READ)),
            dummy_spec(p.edges, arg_dat(p.r, 1, p.e2n, INC)),
        )
        got, init = hazard_runs(body, name, scheme, options)
        np.testing.assert_allclose(got.u, init.r + 1.0)
        np.testing.assert_allclose(got.r, init.r + shifted(init.s))

    def test_independent_loops_share_frontier(self, name, scheme, options):
        def body(p, rt):
            par_loop(chain_scale, p.edges,
                     arg_dat(p.w, IDX_ID, None, READ),
                     arg_dat(p.s, IDX_ID, None, WRITE), runtime=rt)
            par_loop(chain_shift, p.nodes,
                     arg_dat(p.r, IDX_ID, None, READ),
                     arg_dat(p.u, IDX_ID, None, WRITE), runtime=rt)

        p = hazard_problem()
        assert pair_fusable(
            dummy_spec(p.edges, arg_dat(p.s, IDX_ID, None, WRITE)),
            dummy_spec(p.nodes, arg_dat(p.r, IDX_ID, None, READ),
                       arg_dat(p.u, IDX_ID, None, WRITE)),
        )
        got, init = hazard_runs(body, name, scheme, options)
        np.testing.assert_allclose(got.s, 2.0 * init.w)
        np.testing.assert_allclose(got.u, init.r + 1.0)
        assert np.array_equal(got.r, init.r)

    def test_chain_of_three_levels(self, name, scheme, options):
        def body(p, rt):
            par_loop(chain_scale, p.edges,
                     arg_dat(p.w, IDX_ID, None, READ),
                     arg_dat(p.s, IDX_ID, None, WRITE), runtime=rt)
            par_loop(chain_spmv, p.edges,
                     arg_dat(p.s, IDX_ID, None, READ),
                     arg_dat(p.r, 0, p.e2n, INC),
                     arg_dat(p.r, 1, p.e2n, INC), runtime=rt)
            par_loop(chain_shift, p.nodes,
                     arg_dat(p.r, IDX_ID, None, READ),
                     arg_dat(p.u, IDX_ID, None, WRITE), runtime=rt)

        got, init = hazard_runs(body, name, scheme, options)
        s = 2.0 * init.w
        r = init.r + s + shifted(s)
        np.testing.assert_allclose(got.s, s)
        np.testing.assert_allclose(got.r, r)
        np.testing.assert_allclose(got.u, r + 1.0)


# ----------------------------------------------------------------------
# Fusion legality
# ----------------------------------------------------------------------
class TestFusionLegality:
    def setup_method(self):
        self.nodes, self.edges, self.e2n, self.w, self.s, self.r = (
            ring_problem()
        )

    def test_direct_direct_dependency_is_fusable(self):
        a = dummy_spec(self.edges,
                       arg_dat(self.w, IDX_ID, None, READ),
                       arg_dat(self.s, IDX_ID, None, WRITE))
        b = dummy_spec(self.edges,
                       arg_dat(self.s, IDX_ID, None, RW))
        assert pair_fusable(a, b)

    def test_indirect_shared_write_rejected(self):
        a = dummy_spec(self.edges, arg_dat(self.r, 0, self.e2n, INC))
        b = dummy_spec(self.edges, arg_dat(self.r, 1, self.e2n, INC))
        assert not pair_fusable(a, b)

    def test_direct_write_vs_indirect_read_rejected(self):
        rn = Dat(self.nodes, 1, name="rn")
        a = dummy_spec(self.nodes, arg_dat(rn, IDX_ID, None, WRITE))
        b = dummy_spec(self.edges, arg_dat(rn, 0, self.e2n, READ))
        assert not pair_fusable(a, b)

    def test_shared_reads_are_fusable(self):
        a = dummy_spec(self.edges, arg_dat(self.w, IDX_ID, None, READ))
        b = dummy_spec(self.edges, arg_dat(self.w, IDX_ID, None, READ))
        assert pair_fusable(a, b)

    def test_global_read_vs_reduction_rejected(self):
        g = Global(1, name="g")
        a = dummy_spec(self.edges, arg_gbl(g, INC))
        b = dummy_spec(self.edges, arg_gbl(g, READ))
        assert not pair_fusable(a, b)
        # Same-mode reductions fold in loop order — fusable.
        c = dummy_spec(self.edges, arg_gbl(g, INC))
        assert pair_fusable(a, c)

    def test_groups_split_on_set_change_and_illegal_pairs(self):
        rt = Runtime("vectorized", block_size=16)
        chains = spy_chains(rt)
        with rt.chain() as ch:
            par_loop(chain_scale, self.edges,
                     arg_dat(self.w, IDX_ID, None, READ),
                     arg_dat(self.s, IDX_ID, None, WRITE), runtime=rt)
            par_loop(chain_spmv, self.edges,
                     arg_dat(self.s, IDX_ID, None, READ),
                     arg_dat(self.r, 0, self.e2n, INC),
                     arg_dat(self.r, 1, self.e2n, INC), runtime=rt)
        compiled = chains[0]
        # scale (direct plan) and spmv (colored plan) cannot share a
        # plan: two singleton groups.
        assert [len(g.loops) for g in compiled.groups] == [1, 1]

    def test_airfoil_step_fuses_direct_cell_loops(self):
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh

        rt = Runtime("vectorized", block_size=32)
        chains = spy_chains(rt)
        sim = AirfoilSim(make_airfoil_mesh(10, 5), runtime=rt, chained=True)
        sim.step()
        compiled = chains[0]
        names = [
            [bl.kernel.name for bl in g.loops] for g in compiled.groups
        ]
        assert ["save_soln", "adt_calc"] in names
        assert ["update", "adt_calc"] in names


# ----------------------------------------------------------------------
# Barriers and flush semantics
# ----------------------------------------------------------------------
class TestBarriersAndFlush:
    def setup_method(self):
        self.nodes, self.edges, self.e2n, self.w, self.s, self.r = (
            ring_problem()
        )

    def _spmv_args(self):
        return (
            arg_dat(self.w, IDX_ID, None, READ),
            arg_dat(self.r, 0, self.e2n, INC),
            arg_dat(self.r, 1, self.e2n, INC),
        )

    def test_dat_read_flushes_mid_chain(self):
        rt = Runtime("vectorized", block_size=16)
        with rt.chain() as ch:
            par_loop(chain_spmv, self.edges, *self._spmv_args(), runtime=rt)
            assert len(ch) == 1
            observed = self.r.data.copy()   # read barrier -> flush
            assert len(ch) == 0
        ref = Dat(self.nodes, 1, name="ref")
        par_loop(chain_spmv, self.edges,
                 arg_dat(self.w, IDX_ID, None, READ),
                 arg_dat(ref, 0, self.e2n, INC),
                 arg_dat(ref, 1, self.e2n, INC),
                 runtime=Runtime("vectorized", block_size=16))
        assert np.array_equal(observed, ref.data)

    def test_global_value_read_flushes(self):
        g = Global(1, name="acc")

        @kernel("gsum")
        def gsum(w, a):
            a[0] += w[0]

        @gsum.vectorized
        def gsum_vec(w, a):
            a[:, 0] += w[:, 0]

        rt = Runtime("vectorized", block_size=16)
        with rt.chain() as ch:
            par_loop(gsum, self.edges,
                     arg_dat(self.w, IDX_ID, None, READ),
                     arg_gbl(g, INC), runtime=rt)
            val = float(g.value)            # barrier flush
            assert len(ch) == 0
        assert val == pytest.approx(float(self.w.data.sum()))

    def test_exception_discards_trace(self):
        rt = Runtime("vectorized", block_size=16)
        before = self.r.data.copy()
        with pytest.raises(RuntimeError, match="boom"):
            with rt.chain():
                par_loop(chain_spmv, self.edges, *self._spmv_args(),
                         runtime=rt)
                raise RuntimeError("boom")
        assert np.array_equal(self.r.data, before)  # loop never executed
        assert self.r._barrier is None              # barrier disarmed

    def test_second_chain_on_shared_dat_flushes_first(self):
        """Two runtimes tracing over a shared Dat: recording into the
        second chain flushes the first, so the barrier always guards
        the latest pending writer and no read can be stale."""
        rt1 = Runtime("vectorized", block_size=16)
        rt2 = Runtime("sequential", block_size=16)
        with rt1.chain() as ch1:
            par_loop(chain_scale, self.edges,
                     arg_dat(self.w, IDX_ID, None, READ),
                     arg_dat(self.s, IDX_ID, None, WRITE), runtime=rt1)
            assert len(ch1) == 1
            with rt2.chain() as ch2:
                par_loop(chain_spmv, self.edges,
                         arg_dat(self.s, IDX_ID, None, READ),
                         arg_dat(self.r, 0, self.e2n, INC),
                         arg_dat(self.r, 1, self.e2n, INC), runtime=rt2)
                # Arming rt2's trace on `s` flushed rt1's pending write.
                assert len(ch1) == 0
                assert self.s._barrier is ch2
        expected = 2.0 * self.w.data
        assert np.array_equal(self.s.data, expected)
        ref = Dat(self.nodes, 1, name="ref2")
        par_loop(chain_spmv, self.edges,
                 arg_dat(self.s, IDX_ID, None, READ),
                 arg_dat(ref, 0, self.e2n, INC),
                 arg_dat(ref, 1, self.e2n, INC),
                 runtime=Runtime("vectorized", block_size=16))
        assert np.array_equal(self.r.data, ref.data)

    def test_chains_do_not_nest(self):
        rt = Runtime("vectorized")
        with rt.chain():
            with pytest.raises(RuntimeError, match="nest"):
                with rt.chain():
                    pass

    def test_validation_surfaces_at_flush(self):
        rt = Runtime("vectorized", block_size=16)
        other = Set(7, "other")
        bad = Dat(other, 1, name="bad")
        with pytest.raises(ValueError, match="lives on set"):
            with rt.chain():
                par_loop(chain_scale, self.edges,
                         arg_dat(bad, IDX_ID, None, READ),
                         arg_dat(self.s, IDX_ID, None, WRITE), runtime=rt)



# ----------------------------------------------------------------------
# Barrier edge cases: Global.value flush points, WAR with commuting args
# ----------------------------------------------------------------------
@kernel("gscale")
def gscale(w, g, s):
    s[0] = g[0] * w[0]


@gscale.vectorized
def gscale_vec(w, g, s):
    s[:, 0] = g[0] * w[:, 0]


@kernel("gmin")
def gmin(w, g):
    if w[0] < g[0]:
        g[0] = w[0]


@gmin.vectorized
def gmin_vec(w, g):
    np.minimum(g[:, 0], w[:, 0], out=g[:, 0])


class TestGlobalBarrierEdgeCases:
    def setup_method(self):
        self.nodes, self.edges, self.e2n, self.w, self.s, self.r = (
            ring_problem()
        )

    def test_host_write_to_read_global_flushes_pending_reader(self):
        """Writing Global.value mid-chain must flush a pending loop that
        READS the global, so the loop observes the pre-write value —
        exactly what eager execution would have seen (the Volna
        ``dt_used`` pattern)."""
        g = Global(1, 3.0, name="gain")
        rt = Runtime("vectorized", block_size=16)
        with rt.chain() as ch:
            par_loop(gscale, self.edges,
                     arg_dat(self.w, IDX_ID, None, READ),
                     arg_gbl(g, READ),
                     arg_dat(self.s, IDX_ID, None, WRITE), runtime=rt)
            assert len(ch) == 1
            g.value = 100.0            # write barrier -> flush first
            assert len(ch) == 0
        assert np.array_equal(self.s.data[:, 0], 3.0 * self.w.data[:, 0])
        assert float(g.value) == 100.0

    def test_min_reduction_value_read_flushes(self):
        """Reading a MIN-reduced Global mid-chain flushes and observes
        the reduced value (the Volna ``dt`` CFL pattern)."""
        g = Global(1, np.inf, name="dt")
        rt = Runtime("vectorized", block_size=16)
        with rt.chain() as ch:
            par_loop(gmin, self.edges,
                     arg_dat(self.w, IDX_ID, None, READ),
                     arg_gbl(g, MIN), runtime=rt)
            val = float(g.value)
            assert len(ch) == 0
        assert val == pytest.approx(float(self.w.data.min()))

    def test_global_data_read_flushes_like_value(self):
        g = Global(1, np.inf, name="dt2")
        rt = Runtime("vectorized", block_size=16)
        with rt.chain() as ch:
            par_loop(gmin, self.edges,
                     arg_dat(self.w, IDX_ID, None, READ),
                     arg_gbl(g, MIN), runtime=rt)
            arr = g.data                # ndarray accessor, same barrier
            assert len(ch) == 0
        assert float(arr[0]) == pytest.approx(float(self.w.data.min()))

    def test_chained_global_read_then_host_write_matches_eager(self):
        """Record a reader, host-write the global, record another
        reader: the first must see the old value, the second the new —
        bitwise as eager."""
        def run(chained):
            g = Global(1, 2.0, name="k")
            out1 = Dat(self.edges, 1, name="o1")
            out2 = Dat(self.edges, 1, name="o2")
            rt = Runtime("vectorized", block_size=16)

            def body():
                par_loop(gscale, self.edges,
                         arg_dat(self.w, IDX_ID, None, READ),
                         arg_gbl(g, READ),
                         arg_dat(out1, IDX_ID, None, WRITE), runtime=rt)
                g.value = 5.0
                par_loop(gscale, self.edges,
                         arg_dat(self.w, IDX_ID, None, READ),
                         arg_gbl(g, READ),
                         arg_dat(out2, IDX_ID, None, WRITE), runtime=rt)

            if chained:
                with rt.chain():
                    body()
            else:
                body()
            return out1.data.copy(), out2.data.copy()

        e1, e2 = run(chained=False)
        c1, c2 = run(chained=True)
        assert np.array_equal(e1, c1)
        assert np.array_equal(e2, c2)


class TestCommutingWARAnalysis:
    """WAR ordering around commuting INC/MIN/MAX reductions."""

    def setup_method(self):
        self.nodes, self.edges, self.e2n, self.w, self.s, self.r = (
            ring_problem()
        )

    @pytest.mark.parametrize("name,scheme,options", BACKEND_MATRIX)
    def test_read_then_min_orders(self, name, scheme, options):
        def body(p, rt):
            par_loop(gscale, p.edges,
                     arg_dat(p.w, IDX_ID, None, READ),
                     arg_gbl(p.g, READ),
                     arg_dat(p.s, IDX_ID, None, WRITE), runtime=rt)
            par_loop(chain_gmin, p.edges,
                     arg_dat(p.w, IDX_ID, None, READ),
                     arg_gbl(p.g, MIN), runtime=rt)

        g = Global(1, name="g")
        assert not pair_fusable(  # WAR: reduce after read
            dummy_spec(self.edges, arg_gbl(g, READ)),
            dummy_spec(self.edges, arg_gbl(g, MIN)),
        )
        got, init = hazard_runs(body, name, scheme, options)
        np.testing.assert_allclose(got.s, 0.5 * init.w)
        np.testing.assert_allclose(got.g, [min(0.5, init.w.min())])

    @pytest.mark.parametrize("name,scheme,options", BACKEND_MATRIX)
    def test_inc_read_inc_sandwich(self, name, scheme, options):
        """INC; READ; INC — the read must order against both reducers
        (read-after-reduce RAW, then reduce-after-read WAR), even
        though the two INCs commute with each other."""
        def body(p, rt):
            par_loop(chain_inc, p.edges,
                     arg_dat(p.s, IDX_ID, None, READ),
                     arg_dat(p.r, 0, p.e2n, INC), runtime=rt)
            par_loop(chain_shift, p.nodes,
                     arg_dat(p.r, IDX_ID, None, READ),
                     arg_dat(p.u, IDX_ID, None, WRITE), runtime=rt)
            par_loop(chain_inc, p.edges,
                     arg_dat(p.s, IDX_ID, None, READ),
                     arg_dat(p.r, 1, p.e2n, INC), runtime=rt)

        got, init = hazard_runs(body, name, scheme, options)
        np.testing.assert_allclose(got.u, init.r + init.s + 1.0)
        np.testing.assert_allclose(got.r, init.r + init.s + shifted(init.s))

    @pytest.mark.parametrize("name,scheme,options", BACKEND_MATRIX)
    def test_mixed_reduction_modes_order_both_ways(self, name, scheme,
                                                   options):
        def body(p, rt):
            par_loop(chain_gsum, p.edges,
                     arg_dat(p.w, IDX_ID, None, READ),
                     arg_gbl(p.g, INC), runtime=rt)
            par_loop(chain_gmin, p.edges,
                     arg_dat(p.w, IDX_ID, None, READ),
                     arg_gbl(p.g, MIN), runtime=rt)
            par_loop(chain_gmax, p.edges,
                     arg_dat(p.s, IDX_ID, None, READ),
                     arg_gbl(p.g, MAX), runtime=rt)

        g = Global(1, name="g")
        inc = dummy_spec(self.edges, arg_gbl(g, INC))
        mn = dummy_spec(self.edges, arg_gbl(g, MIN))
        mx = dummy_spec(self.edges, arg_gbl(g, MAX))
        assert not pair_fusable(inc, mn) and not pair_fusable(mn, mx)
        got, init = hazard_runs(body, name, scheme, options)
        low = min(0.5 + init.w.sum(), init.w.min())
        np.testing.assert_allclose(got.g, [max(low, init.s.max())])

    @pytest.mark.parametrize("name,scheme,options", BACKEND_MATRIX)
    def test_write_after_commuting_reducers(self, name, scheme, options):
        """A plain WRITE after two commuting INCs must order against
        both (WAW through the reduction), and a subsequent INC starts
        from the written value."""
        def body(p, rt):
            par_loop(chain_inc, p.edges,
                     arg_dat(p.s, IDX_ID, None, READ),
                     arg_dat(p.r, 0, p.e2n, INC), runtime=rt)
            par_loop(chain_inc, p.edges,
                     arg_dat(p.s, IDX_ID, None, READ),
                     arg_dat(p.r, 1, p.e2n, INC), runtime=rt)
            par_loop(chain_shift, p.nodes,
                     arg_dat(p.u, IDX_ID, None, READ),
                     arg_dat(p.r, IDX_ID, None, WRITE), runtime=rt)
            par_loop(chain_inc, p.edges,
                     arg_dat(p.s, IDX_ID, None, READ),
                     arg_dat(p.r, 0, p.e2n, INC), runtime=rt)

        assert not pair_fusable(
            dummy_spec(self.edges, arg_dat(self.r, 1, self.e2n, INC)),
            dummy_spec(self.nodes, arg_dat(self.r, IDX_ID, None, WRITE)),
        )
        got, init = hazard_runs(body, name, scheme, options)
        np.testing.assert_allclose(got.r, 1.0 + init.s)

    def test_war_execution_matches_eager(self):
        """Execution-level WAR regression: a loop reading a Dat followed
        by commuting increments of the same Dat must observe pre-
        increment values when chained — bitwise as eager."""
        def run(chained):
            r = Dat(self.nodes, 1,
                    np.arange(self.nodes.size, dtype=np.float64),
                    name="racc")
            snap = Dat(self.nodes, 1, name="snap")
            rt = Runtime("vectorized", block_size=16)

            def body():
                par_loop(chain_scale, self.nodes,
                         arg_dat(r, IDX_ID, None, READ),
                         arg_dat(snap, IDX_ID, None, WRITE), runtime=rt)
                par_loop(chain_spmv, self.edges,
                         arg_dat(self.w, IDX_ID, None, READ),
                         arg_dat(r, 0, self.e2n, INC),
                         arg_dat(r, 1, self.e2n, INC), runtime=rt)

            if chained:
                with rt.chain():
                    body()
            else:
                body()
            return snap.data.copy(), r.data.copy()

        es, er = run(chained=False)
        cs, cr = run(chained=True)
        assert np.array_equal(es, cs)
        assert np.array_equal(er, cr)


# ----------------------------------------------------------------------
# The chain cache (third level) and LRU bounds
# ----------------------------------------------------------------------
class TestCaches:
    def test_chain_cache_hits_on_steady_state(self):
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh

        rt = Runtime("vectorized", block_size=32)
        sim = AirfoilSim(make_airfoil_mesh(10, 5), runtime=rt, chained=True)
        sim.step()
        st = rt.stats()["chain_cache"]
        assert st["misses"] == 1 and st["hits"] == 0
        sim.run(3)
        st = rt.stats()["chain_cache"]
        assert st["misses"] == 1 and st["hits"] == 3

    def test_plan_cache_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        sets = [Set(16, f"s{i}") for i in range(3)]
        for s in sets:
            cache.get(s, ())
        assert len(cache) == 2
        assert cache.evictions == 1
        # s0 was evicted: re-requesting it is a miss.
        misses = cache.misses
        cache.get(sets[0], ())
        assert cache.misses == misses + 1

    def test_plan_cache_lru_recency(self):
        cache = PlanCache(max_entries=2)
        s0, s1, s2 = (Set(16, f"t{i}") for i in range(3))
        cache.get(s0, ())
        cache.get(s1, ())
        cache.get(s0, ())   # refresh s0
        cache.get(s2, ())   # evicts s1, not s0
        hits = cache.hits
        cache.get(s0, ())
        assert cache.hits == hits + 1

    def test_loop_cache_lru_bound(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "LOOP_CACHE_ENTRIES", 2)
        rt = Runtime("vectorized", block_size=16)
        sets = [Set(8, f"u{i}") for i in range(4)]
        dats = [Dat(s, 1, name=f"d{i}") for i, s in enumerate(sets)]
        for s, d in zip(sets, dats):
            par_loop(chain_scale, s,
                     arg_dat(d, IDX_ID, None, READ),
                     arg_dat(Dat(s, 1), IDX_ID, None, WRITE), runtime=rt)
        st = rt.stats()["loop_cache"]
        assert st["entries"] == 2
        assert st["evictions"] == 2

    def test_chain_cache_lru_bound(self, monkeypatch):
        nodes, edges, e2n, w, s, r = ring_problem()
        monkeypatch.setattr(runtime_module, "CHAIN_CACHE_ENTRIES", 1)
        rt = Runtime("vectorized", block_size=16)
        out1 = Dat(edges, 1, name="out1")
        out2 = Dat(edges, 1, name="out2", layout="soa")
        for out in (out1, out2):  # two distinct trace shapes
            with rt.chain():
                par_loop(chain_scale, edges,
                         arg_dat(w, IDX_ID, None, READ),
                         arg_dat(out, IDX_ID, None, WRITE), runtime=rt)
        st = rt.stats()["chain_cache"]
        assert st["entries"] == 1
        assert st["evictions"] == 1

    def test_stats_exposes_all_levels(self):
        rt = Runtime("vectorized")
        st = rt.stats()
        for level in ("loop_cache", "plan_cache", "chain_cache"):
            assert {"hits", "misses", "evictions", "entries",
                    "max_entries"} <= set(st[level])
        assert "kernels" in st

    def test_clear_caches_clears_chains(self):
        nodes, edges, e2n, w, s, r = ring_problem()
        rt = Runtime("vectorized", block_size=16)
        with rt.chain():
            par_loop(chain_scale, edges,
                     arg_dat(w, IDX_ID, None, READ),
                     arg_dat(s, IDX_ID, None, WRITE), runtime=rt)
        assert rt.stats()["chain_cache"]["entries"] == 1
        rt.clear_caches()
        assert rt.stats()["chain_cache"]["entries"] == 0
