"""Backend equivalence: every backend must reproduce the sequential result.

This is the library's central correctness property (paper Section 3: the
abstraction assumes element order does not change results beyond FP
reordering).  We sweep the full backend x scheme matrix on a mix of loop
shapes: direct, indirect-read, indirect-INC, vector arguments, global
reductions, and kernels without vector forms.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    INC,
    MAX,
    MIN,
    READ,
    RW,
    WRITE,
    Dat,
    Global,
    Map,
    Runtime,
    Set,
    arg_dat,
    arg_gbl,
    kernel,
    make_backend,
    par_loop,
)
from repro.core.access import IDX_ALL, IDX_ID

from repro.testing import BACKEND_MATRIX, runtime_for


def ring_problem(n=37, dtype=np.float64, seed=0):
    rng = np.random.default_rng(seed)
    nodes = Set(n, "nodes")
    edges = Set(n, "edges")
    conn = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    e2n = Map(edges, nodes, 2, conn, "e2n")
    w = Dat(edges, 2, rng.standard_normal((n, 2)), dtype, name="w")
    x = Dat(nodes, 3, rng.standard_normal((n, 3)), dtype, name="x")
    return nodes, edges, e2n, w, x


@kernel("saxpy_inc", flops=6)
def saxpy_inc(w, x0, x1, a0, a1):
    a0[0] += w[0] * x1[0]
    a0[1] += w[1] * x1[1]
    a1[0] += w[0] * x0[0]
    a1[2] += w[1] * x0[2]


@saxpy_inc.vectorized
def saxpy_inc_vec(w, x0, x1, a0, a1):
    a0[:, 0] += w[:, 0] * x1[:, 0]
    a0[:, 1] += w[:, 1] * x1[:, 1]
    a1[:, 0] += w[:, 0] * x0[:, 0]
    a1[:, 2] += w[:, 1] * x0[:, 2]


def run_indirect(backend, scheme, options, block_size=8):
    nodes, edges, e2n, w, x = ring_problem()
    acc = Dat(nodes, 3, name="acc")
    rt = runtime_for(backend, scheme, options, block_size)
    par_loop(
        saxpy_inc, edges,
        arg_dat(w, IDX_ID, None, READ),
        arg_dat(x, 0, e2n, READ),
        arg_dat(x, 1, e2n, READ),
        arg_dat(acc, 0, e2n, INC),
        arg_dat(acc, 1, e2n, INC),
        runtime=rt,
    )
    return acc.data.copy()


class TestIndirectIncEquivalence:
    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    def test_matches_sequential(self, backend, scheme, options):
        ref = run_indirect("sequential", "two_level", {})
        got = run_indirect(backend, scheme, options)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("block_size", [1, 3, 8, 64, 1000])
    def test_block_size_invariance(self, block_size):
        ref = run_indirect("sequential", "two_level", {})
        got = run_indirect("vectorized", "two_level", {}, block_size)
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("vec", [1, 2, 4, 8, 16])
    def test_vec_chunk_invariance(self, vec):
        ref = run_indirect("sequential", "two_level", {})
        nodes, edges, e2n, w, x = ring_problem()
        acc = Dat(nodes, 3, name="acc")
        rt = Runtime(make_backend("vectorized", vec=vec), block_size=8)
        par_loop(
            saxpy_inc, edges,
            arg_dat(w, IDX_ID, None, READ),
            arg_dat(x, 0, e2n, READ),
            arg_dat(x, 1, e2n, READ),
            arg_dat(acc, 0, e2n, INC),
            arg_dat(acc, 1, e2n, INC),
            runtime=rt,
        )
        np.testing.assert_allclose(acc.data, ref, rtol=1e-12, atol=1e-12)


@kernel("direct_update", flops=3)
def direct_update(a, b):
    b[0] = 2.0 * a[0] + a[1]
    b[1] = a[0] - 0.5 * a[1]


@direct_update.vectorized
def direct_update_vec(a, b):
    b[:, 0] = 2.0 * a[:, 0] + a[:, 1]
    b[:, 1] = a[:, 0] - 0.5 * a[:, 1]


class TestDirectEquivalence:
    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    def test_direct_loop(self, backend, scheme, options):
        rng = np.random.default_rng(3)
        s = Set(29, "s")
        src_vals = rng.standard_normal((29, 2))

        def run(rt):
            a = Dat(s, 2, src_vals, name="a")
            b = Dat(s, 2, name="b")
            par_loop(
                direct_update, s,
                arg_dat(a, IDX_ID, None, READ),
                arg_dat(b, IDX_ID, None, WRITE),
                runtime=rt,
            )
            return b.data.copy()

        ref = run(runtime_for("sequential", "two_level", {}))
        got = run(runtime_for(backend, scheme, options, block_size=7))
        np.testing.assert_allclose(got, ref, rtol=1e-14)


@kernel("rw_zero", flops=2)
def rw_zero(r, out):
    out[0] += r[0]
    r[0] = 0.0


@rw_zero.vectorized
def rw_zero_vec(r, out):
    out[:, 0] += r[:, 0]
    r[:, 0] = 0.0


class TestDirectRW:
    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    def test_rw_direct(self, backend, scheme, options):
        s = Set(23, "s")

        def run(rt):
            r = Dat(s, 1, np.arange(23.0), name="r")
            out = Dat(s, 1, name="out")
            par_loop(
                rw_zero, s,
                arg_dat(r, IDX_ID, None, RW),
                arg_dat(out, IDX_ID, None, INC),
                runtime=rt,
            )
            return r.data.copy(), out.data.copy()

        ref_r, ref_o = run(runtime_for("sequential", "two_level", {}))
        got_r, got_o = run(runtime_for(backend, scheme, options, 5))
        np.testing.assert_allclose(got_r, ref_r)
        np.testing.assert_allclose(got_o, ref_o)


@kernel("reduce_all", flops=4)
def reduce_all(x, s, mn, mx):
    s[0] += x[0] + x[1]
    mn[0] = min(mn[0], x[0])
    mx[0] = max(mx[0], x[1])


@reduce_all.vectorized
def reduce_all_vec(x, s, mn, mx):
    s[:, 0] += x[:, 0] + x[:, 1]
    mn[:, 0] = np.minimum(mn[:, 0], x[:, 0])
    mx[:, 0] = np.maximum(mx[:, 0], x[:, 1])


class TestGlobalReductions:
    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    def test_inc_min_max(self, backend, scheme, options):
        rng = np.random.default_rng(11)
        s = Set(41, "s")
        vals = rng.standard_normal((41, 2))

        def run(rt):
            x = Dat(s, 2, vals, name="x")
            gs = Global(1, 0.0, name="sum")
            gmin = Global(1, name="min")
            gmin.data[:] = gmin.identity_for(MIN)
            gmax = Global(1, name="max")
            gmax.data[:] = gmax.identity_for(MAX)
            par_loop(
                reduce_all, s,
                arg_dat(x, IDX_ID, None, READ),
                arg_gbl(gs, INC),
                arg_gbl(gmin, MIN),
                arg_gbl(gmax, MAX),
                runtime=rt,
            )
            return float(gs.value), float(gmin.value), float(gmax.value)

        got = run(runtime_for(backend, scheme, options, 6))
        # One increment per element over an ascending direct loop: every
        # backend forms the sequential left-to-right sum, whatever its
        # batch size (backends.base.fold_lanes) — bitwise, not approx.
        left_fold = 0.0
        for a, b in vals:
            left_fold += a + b
        assert got[0] == left_fold
        assert got[1] == vals[:, 0].min()
        assert got[2] == vals[:, 1].max()


@kernel("gather_all", flops=2)
def gather_all(xs, out):
    out[0] = xs[0][0] + xs[1][0] + xs[2][0]


@gather_all.vectorized
def gather_all_vec(xs, out):
    out[:, 0] = xs[:, 0, 0] + xs[:, 1, 0] + xs[:, 2, 0]


class TestVectorArguments:
    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    def test_idx_all_gather(self, backend, scheme, options):
        rng = np.random.default_rng(5)
        nodes = Set(12, "nodes")
        cells = Set(9, "cells")
        conn = rng.integers(0, 12, size=(9, 3))
        c2n = Map(cells, nodes, 3, conn, "c2n")
        xvals = rng.standard_normal((12, 1))

        def run(rt):
            x = Dat(nodes, 1, xvals, name="x")
            out = Dat(cells, 1, name="out")
            par_loop(
                gather_all, cells,
                arg_dat(x, IDX_ALL, c2n, READ),
                arg_dat(out, IDX_ID, None, WRITE),
                runtime=rt,
            )
            return out.data.copy()

        ref = run(runtime_for("sequential", "two_level", {}))
        got = run(runtime_for(backend, scheme, options, 4))
        np.testing.assert_allclose(got, ref, rtol=1e-14)


@kernel("scatter_all", flops=1)
def scatter_all(w, outs):
    for k in range(3):
        outs[k][0] += w[0]


@scatter_all.vectorized
def scatter_all_vec(w, outs):
    outs[:, :, 0] += w[:, 0][:, None]


class TestVectorIncArguments:
    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    def test_idx_all_inc(self, backend, scheme, options):
        rng = np.random.default_rng(9)
        nodes = Set(10, "nodes")
        cells = Set(14, "cells")
        conn = rng.integers(0, 10, size=(14, 3))
        c2n = Map(cells, nodes, 3, conn, "c2n")
        wvals = rng.standard_normal((14, 1))

        def run(rt):
            w = Dat(cells, 1, wvals, name="w")
            out = Dat(nodes, 1, name="out")
            par_loop(
                scatter_all, cells,
                arg_dat(w, IDX_ID, None, READ),
                arg_dat(out, IDX_ALL, c2n, INC),
                runtime=rt,
            )
            return out.data.copy()

        ref = run(runtime_for("sequential", "two_level", {}))
        got = run(runtime_for(backend, scheme, options, 4))
        np.testing.assert_allclose(got, ref, rtol=1e-12, atol=1e-12)


@kernel("no_vector_form")
def no_vector_form(x, y):
    y[0] = x[0] * 2.0


class TestScalarFallbacks:
    @pytest.mark.parametrize(
        "backend,options",
        [("vectorized", {}), ("simt", {"device": "cpu"}),
         ("simt", {"device": "phi"})],
    )
    def test_kernel_without_vector_form(self, backend, options):
        s = Set(17, "s")
        x = Dat(s, 1, np.arange(17.0), name="x")
        y = Dat(s, 1, name="y")
        rt = runtime_for(backend, "two_level", options, 4)
        par_loop(
            no_vector_form, s,
            arg_dat(x, IDX_ID, None, READ),
            arg_dat(y, IDX_ID, None, WRITE),
            runtime=rt,
        )
        np.testing.assert_allclose(y.data[:, 0], np.arange(17.0) * 2)

    def test_simt_cpu_refuses_unflagged_kernel(self):
        # vectorizable_simt=False must take the scalar work-item path on
        # CPU but the vector path on Phi; results identical either way.
        @kernel("refused", vectorizable_simt=False)
        def refused(x, y):
            y[0] = x[0] + 1.0

        @refused.vectorized
        def refused_vec(x, y):
            y[:, 0] = x[:, 0] + 1.0

        for device in ("cpu", "phi"):
            s = Set(9, "s")
            x = Dat(s, 1, np.arange(9.0), name="x")
            y = Dat(s, 1, name="y")
            rt = runtime_for("simt", "two_level", {"device": device}, 4)
            par_loop(
                refused, s,
                arg_dat(x, IDX_ID, None, READ),
                arg_dat(y, IDX_ID, None, WRITE),
                runtime=rt,
            )
            np.testing.assert_allclose(y.data[:, 0], np.arange(9.0) + 1)


class TestValidationAndErrors:
    def test_direct_arg_wrong_set(self):
        s1, s2 = Set(4, "a"), Set(4, "b")
        d = Dat(s2, 1)
        with pytest.raises(ValueError, match="lives on set"):
            par_loop(no_vector_form, s1,
                     arg_dat(d, IDX_ID, None, READ),
                     arg_dat(d, IDX_ID, None, WRITE))

    def test_indirect_arg_wrong_from_set(self):
        nodes, edges, e2n, w, x = ring_problem()
        other = Set(5, "other")
        with pytest.raises(ValueError, match="maps from"):
            par_loop(no_vector_form, other,
                     arg_dat(x, 0, e2n, READ),
                     arg_dat(x, 1, e2n, READ))

    def test_non_kernel_rejected(self):
        with pytest.raises(TypeError):
            par_loop(lambda: None, Set(1))

    def test_unknown_backend(self):
        with pytest.raises(KeyError):
            make_backend("hexagonal")

    def test_stats_recorded(self):
        rt = runtime_for("vectorized", "two_level", {})
        s = Set(8, "s")
        x = Dat(s, 1, np.ones(8), name="x")
        y = Dat(s, 1, name="y")
        par_loop(no_vector_form, s,
                 arg_dat(x, IDX_ID, None, READ),
                 arg_dat(y, IDX_ID, None, WRITE), runtime=rt)
        st_ = rt.backend.stats["no_vector_form"]
        assert st_.calls == 1 and st_.elements == 8 and st_.elapsed > 0
        rt.reset_stats()
        assert not rt.backend.stats


# ----------------------------------------------------------------------
# Property-based: random indirect-INC loops agree across backends.
# ----------------------------------------------------------------------
@given(
    n_nodes=st.integers(2, 20),
    n_elems=st.integers(1, 40),
    block_size=st.integers(1, 16),
    seed=st.integers(0, 10_000),
)
@settings(max_examples=30, deadline=None)
def test_property_random_loops_equivalent(n_nodes, n_elems, block_size, seed):
    rng = np.random.default_rng(seed)
    nodes = Set(n_nodes, "nodes")
    elems = Set(n_elems, "elems")
    conn = rng.integers(0, n_nodes, size=(n_elems, 2))
    m = Map(elems, nodes, 2, conn, "m")
    wv = rng.standard_normal((n_elems, 1))

    def run(bk, scheme):
        w = Dat(elems, 1, wv, name="w")
        acc = Dat(nodes, 1, name="acc")
        rt = runtime_for(bk, scheme, {}, block_size)
        par_loop(
            saxpy_like, elems,
            arg_dat(w, IDX_ID, None, READ),
            arg_dat(acc, 0, m, INC),
            arg_dat(acc, 1, m, INC),
            runtime=rt,
        )
        return acc.data.copy()

    ref = run("sequential", "two_level")
    for bk, scheme in [
        ("vectorized", "two_level"),
        ("vectorized", "full_permute"),
        ("simt", "two_level"),
        ("vectorized", "block_permute"),
    ]:
        np.testing.assert_allclose(
            run(bk, scheme), ref, rtol=1e-10, atol=1e-10
        )


@kernel("saxpy_like", flops=2)
def saxpy_like(w, a0, a1):
    a0[0] += w[0]
    a1[0] += 2.0 * w[0]


@saxpy_like.vectorized
def saxpy_like_vec(w, a0, a1):
    a0[:, 0] += w[:, 0]
    a1[:, 0] += 2.0 * w[:, 0]
