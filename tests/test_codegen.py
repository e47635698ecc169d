"""Tests for the code-generation backend (OP2's Fig 2b transformation)."""

import numpy as np
import pytest

from repro.core import (
    INC,
    MIN,
    READ,
    WRITE,
    Dat,
    Global,
    Map,
    Runtime,
    Set,
    arg_dat,
    arg_gbl,
    compile_loop,
    generate_loop_source,
    kernel,
    par_loop,
)
from repro.core.access import IDX_ALL, IDX_ID
from repro.kernelc.scalar import loop_shape_key, supports


@pytest.fixture
def problem():
    rng = np.random.default_rng(6)
    nodes = Set(9, "nodes")
    edges = Set(12, "edges")
    conn = rng.integers(0, 9, (12, 2))
    m = Map(edges, nodes, 2, conn, "m")
    w = Dat(edges, 1, rng.random(12), name="w")
    x = Dat(nodes, 2, rng.random((9, 2)), name="x")
    return nodes, edges, m, w, x


@kernel("cg_inc", flops=2)
def cg_inc(w, x0, a0, a1):
    a0[0] += w[0] * x0[0]
    a1[0] += w[0] * x0[1]


class TestGeneratedSource:
    def test_fig2b_structure(self, problem):
        nodes, edges, m, w, x = problem
        acc = Dat(nodes, 2)
        args = [
            arg_dat(w, IDX_ID, None, READ),
            arg_dat(x, 0, m, READ),
            arg_dat(acc, 0, m, INC),
            arg_dat(acc, 1, m, INC),
        ]
        src = generate_loop_source("cg_inc", args)
        # The Fig 2b shape: hoisted map columns, one unrolled call.
        assert "def op_par_loop_cg_inc(" in src
        assert "map1_col = maps[1][:, 0]" in src
        assert "map3_col = maps[3][:, 1]" in src
        assert "user_kernel(dat0[n], dat1[map1_col[n]]" in src
        assert src.count("for n in range") == 1

    def test_compiled_stub_carries_source(self, problem):
        nodes, edges, m, w, x = problem
        args = [arg_dat(w, IDX_ID, None, READ)]
        fn = compile_loop("probe", args)
        assert "op_par_loop_probe" in fn.__source__

    def test_shape_key_distinguishes_structures(self, problem):
        nodes, edges, m, w, x = problem
        a1 = [arg_dat(x, 0, m, READ)]
        a2 = [arg_dat(x, 1, m, READ)]
        a3 = [arg_dat(x, 0, m, INC)]
        keys = {loop_shape_key("k", a) for a in (a1, a2, a3)}
        assert len(keys) == 3

    def test_supports_vector_args(self, problem):
        # Vector READ and INC arguments both get specialized stubs now;
        # every other writing vector access (WRITE/RW/MIN/MAX) still
        # falls back to the generic interpreter, whose gathered-copy
        # writeback machinery the stub does not replicate.
        from repro.core import MAX, MIN, RW, WRITE

        nodes, edges, m, w, x = problem
        assert supports([arg_dat(x, IDX_ALL, m, READ)])
        assert supports([arg_dat(x, IDX_ALL, m, INC)])
        assert not supports([arg_dat(x, IDX_ALL, m, RW)])
        assert not supports([arg_dat(x, IDX_ALL, m, WRITE)])
        assert not supports([arg_dat(x, IDX_ALL, m, MIN)])
        assert not supports([arg_dat(x, IDX_ALL, m, MAX)])

    def test_vector_inc_stub_structure(self, problem):
        nodes, edges, m, w, x = problem
        acc = Dat(nodes, 2)
        args = [
            arg_dat(w, IDX_ID, None, READ),
            arg_dat(acc, IDX_ALL, m, INC),
        ]
        src = generate_loop_source("vinc", args)
        # Hoisted private accumulator, zeroed per element, applied with
        # np.add.at after the call — the generic interpreter's exact
        # operation sequence, specialized.
        assert "buf1 = np.zeros((2, 2), dat1.dtype)" in src
        assert "buf1[...] = 0.0" in src
        assert "user_kernel(dat0[n], buf1)" in src
        assert "np.add.at(dat1, map1[n], buf1)" in src


class TestCodegenExecution:
    def test_matches_sequential_indirect_inc(self, problem):
        nodes, edges, m, w, x = problem

        def run(bk):
            acc = Dat(nodes, 2, name="acc")
            par_loop(
                cg_inc, edges,
                arg_dat(w, IDX_ID, None, READ),
                arg_dat(x, 0, m, READ),
                arg_dat(acc, 0, m, INC),
                arg_dat(acc, 1, m, INC),
                runtime=Runtime(bk),
            )
            return acc.data.copy()

        np.testing.assert_allclose(run("codegen"), run("sequential"))

    def test_global_reduction(self, problem):
        nodes, edges, m, w, x = problem
        g = Global(1)
        g.data[:] = g.identity_for(MIN)

        @kernel("cg_min")
        def cg_min(ww, mn):
            mn[0] = min(mn[0], ww[0])

        par_loop(cg_min, edges, arg_dat(w, IDX_ID, None, READ),
                 arg_gbl(g, MIN), runtime=Runtime("codegen"))
        assert float(g.value) == w.data.min()

    def test_vector_read_arg(self, problem):
        nodes, edges, m, w, x = problem
        out = Dat(edges, 1)

        @kernel("cg_gather")
        def cg_gather(xs, o):
            o[0] = xs[0][0] + xs[1][1]

        par_loop(cg_gather, edges, arg_dat(x, IDX_ALL, m, READ),
                 arg_dat(out, IDX_ID, None, WRITE),
                 runtime=Runtime("codegen"))
        expect = x.data[m.values[:, 0], 0] + x.data[m.values[:, 1], 1]
        np.testing.assert_allclose(out.data.ravel(), expect)

    def test_vector_inc_stub_matches_sequential(self, problem):
        nodes, edges, m, w, x = problem

        @kernel("cg_vinc")
        def cg_vinc(ww, outs):
            outs[0][0] += ww[0]
            outs[1][1] += ww[0]

        def run(bk):
            acc = Dat(nodes, 2, name="acc")
            rt = Runtime(bk)
            par_loop(cg_vinc, edges, arg_dat(w, IDX_ID, None, READ),
                     arg_dat(acc, IDX_ALL, m, INC), runtime=rt)
            return rt, acc.data.copy()

        rt, got = run("codegen")
        assert rt.backend.generated == 1  # specialized stub, no fallback
        _, ref = run("sequential")
        np.testing.assert_array_equal(got, ref)
        assert got.sum() == pytest.approx(2 * w.data.sum())

    def test_fallback_for_vector_rw(self, problem):
        nodes, edges, m, w, x = problem
        from repro.core import RW

        @kernel("cg_vrw")
        def cg_vrw(outs):
            outs[0][0] = outs[0][0] + 1.0
            outs[1][1] = outs[1][1] + 1.0

        def run(bk):
            acc = Dat(nodes, 2, name="acc")
            rt = Runtime(bk)
            par_loop(cg_vrw, edges, arg_dat(acc, IDX_ALL, m, RW), runtime=rt)
            return rt, acc.data.copy()

        rt, got = run("codegen")
        assert rt.backend.generated == 0  # interpreter fallback used
        _, ref = run("sequential")
        np.testing.assert_array_equal(got, ref)

    def test_stub_cache_reused(self, problem):
        nodes, edges, m, w, x = problem
        rt = Runtime("codegen")
        out = Dat(edges, 1)

        @kernel("cg_copy")
        def cg_copy(ww, o):
            o[0] = ww[0]

        for _ in range(3):
            par_loop(cg_copy, edges, arg_dat(w, IDX_ID, None, READ),
                     arg_dat(out, IDX_ID, None, WRITE), runtime=rt)
        assert rt.backend.generated == 1

    def test_full_airfoil_matches(self):
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh

        mesh = make_airfoil_mesh(12, 6)
        a = AirfoilSim(mesh, runtime=Runtime("sequential"))
        b = AirfoilSim(mesh, runtime=Runtime("codegen"))
        a.run(2)
        b.run(2)
        np.testing.assert_allclose(b.q, a.q, rtol=1e-13)
        assert b.runtime.backend.generated == 5  # one stub per kernel

    def test_full_volna_matches(self):
        from repro.apps.volna import VolnaSim
        from repro.mesh import make_tri_mesh

        mesh = make_tri_mesh(6, 5, 100_000.0, 75_000.0)
        a = VolnaSim(mesh, dtype=np.float64, runtime=Runtime("sequential"))
        b = VolnaSim(mesh, dtype=np.float64, runtime=Runtime("codegen"))
        a.run(2)
        b.run(2)
        np.testing.assert_allclose(b.q, a.q, rtol=1e-12)
