"""The par_loop CG solver: correctness, determinism, chain integration.

``repro.solve`` expresses SpMV and the CG vector updates as parallel
loops; these tests pin (a) that it actually solves linear systems,
(b) that the iterate sequence is bitwise identical across backends,
layouts and {eager, chained, tiled} modes (the determinism contract of
the module docstring), and (c) that it accepts matrix-free operators.
"""

import numpy as np
import pytest

from repro.core import (
    INC,
    Dat,
    Map,
    Mat,
    Runtime,
    Set,
    arg_mat,
    kernel,
    par_loop,
)
from repro.solve import CGResult, MatOperator, cg, make_spmv_kernel
from repro.testing import BACKEND_MATRIX, LAYOUT_MATRIX, runtime_for


@kernel("ring_stiffness")
def ring_stiffness(K):
    K[0] += 2.2
    K[1] += -1.0
    K[2] += -1.0
    K[3] += 2.2


def ring_system(n=48, seed=0):
    """An SPD ring "FEM" system: local [[2.2,-1],[-1,2.2]] blocks."""
    nodes = Set(n, "nodes")
    elems = Set(n, "elems")
    conn = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    e2n = Map(elems, nodes, 2, conn, "e2n")
    mat = Mat(e2n, e2n, name="A")
    par_loop(ring_stiffness, elems, arg_mat(mat, INC),
             runtime=Runtime("sequential"))
    mat.assemble()
    rng = np.random.default_rng(seed)
    bvals = rng.standard_normal(n)
    return nodes, mat, bvals


class TestCGSolves:
    def test_solves_against_dense_reference(self):
        nodes, mat, bvals = ring_system()
        b = Dat(nodes, 1, bvals, name="b")
        x = Dat(nodes, 1, name="x")
        res = cg(MatOperator(mat), b, x, runtime=Runtime("vectorized"),
                 tol=1e-12, maxiter=500)
        assert isinstance(res, CGResult)
        assert res.converged
        assert res.residual <= 1e-12
        ref = np.linalg.solve(mat.todense(), bvals)
        np.testing.assert_allclose(x.data[:, 0], ref, atol=1e-9)
        # History: initial residual plus one entry per iteration,
        # monotone-ish to convergence.
        assert len(res.history) == res.iterations + 1
        assert res.history[-1] == res.residual

    def test_warm_start_converges_immediately(self):
        nodes, mat, bvals = ring_system()
        b = Dat(nodes, 1, bvals, name="b")
        x = Dat(nodes, 1, name="x")
        cg(MatOperator(mat), b, x, tol=1e-13, maxiter=500,
           runtime=Runtime("vectorized"))
        res2 = cg(MatOperator(mat), b, x, tol=1e-10, maxiter=500,
                  runtime=Runtime("vectorized"))
        assert res2.iterations == 0 and res2.converged

    def test_maxiter_exhaustion_reports_not_converged(self):
        nodes, mat, bvals = ring_system()
        b = Dat(nodes, 1, bvals, name="b")
        x = Dat(nodes, 1, name="x")
        res = cg(MatOperator(mat), b, x, tol=1e-14, maxiter=2,
                 runtime=Runtime("vectorized"))
        assert not res.converged and res.iterations == 2

    def test_non_spd_raises(self):
        @kernel("indefinite")
        def indefinite(K):
            K[0] += -1.0
            K[3] += -1.0

        n = 8
        nodes = Set(n, "nodes")
        elems = Set(n, "elems")
        conn = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
        e2n = Map(elems, nodes, 2, conn, "e2n")
        mat = Mat(e2n, e2n)
        par_loop(indefinite, elems, arg_mat(mat, INC),
                 runtime=Runtime("sequential"))
        mat.assemble()
        b = Dat(nodes, 1, 1.0, name="b")
        x = Dat(nodes, 1, name="x")
        with pytest.raises(ValueError, match="positive definite"):
            cg(MatOperator(mat), b, x, runtime=Runtime("sequential"))

    def test_tiling_requires_chained(self):
        nodes, mat, bvals = ring_system()
        b = Dat(nodes, 1, bvals, name="b")
        x = Dat(nodes, 1, name="x")
        with pytest.raises(ValueError, match="chained"):
            cg(MatOperator(mat), b, x, tiling="auto", chained=False)


class TestCGDeterminism:
    def _solve(self, backend, scheme, options, layout=None, chained=False,
               tiling=None):
        nodes, mat, bvals = ring_system()
        rt = runtime_for(backend, scheme, options, layout=layout)
        b = Dat(nodes, 1, bvals, name="b")
        x = Dat(nodes, 1, name="x")
        res = cg(MatOperator(mat), b, x, runtime=rt, tol=1e-12,
                 maxiter=500, chained=chained, tiling=tiling)
        return x.data[: nodes.size, 0].copy(), res

    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    @pytest.mark.parametrize("layout", LAYOUT_MATRIX)
    def test_bitwise_across_backends_and_layouts(self, backend, scheme,
                                                 options, layout):
        ref, ref_res = self._solve("sequential", "two_level", {})
        got, res = self._solve(backend, scheme, options, layout=layout)
        np.testing.assert_array_equal(got, ref)
        assert res.history == ref_res.history

    @pytest.mark.parametrize("mode", ["chained", "tiled"])
    def test_bitwise_across_modes(self, mode):
        ref, ref_res = self._solve("vectorized", "two_level", {})
        got, res = self._solve(
            "vectorized", "two_level", {}, chained=True,
            tiling="auto" if mode == "tiled" else None,
        )
        np.testing.assert_array_equal(got, ref)
        assert res.history == ref_res.history

    def test_chained_solve_hits_chain_cache(self):
        """A chained solve is two traces — start-up, and one trip
        replayed through the back edge: the chain cache is consulted
        per *solve*, never per iteration."""
        nodes, mat, bvals = ring_system()
        rt = Runtime("vectorized")
        b = Dat(nodes, 1, bvals, name="b")
        x = Dat(nodes, 1, name="x")
        op = MatOperator(mat)
        res = cg(op, b, x, runtime=rt, tol=1e-12, maxiter=500,
                 chained=True)
        assert res.iterations > 3
        stats = rt.stats()
        assert stats["chain_cache"]["misses"] <= 3
        assert stats["chain_cache"]["hits"] == 0  # 0 look-ups per trip
        repeat = stats["profile"]["repeat"]
        assert repeat["solves"] == 1
        assert repeat["trips"] == res.iterations
        # A second solve re-records the same two traces: two hits.
        x.data[...] = 0.0
        again = cg(op, b, x, runtime=rt, tol=1e-12, maxiter=500,
                   chained=True)
        assert again.history == res.history
        stats = rt.stats()["chain_cache"]
        assert (stats["hits"], stats["misses"]) == (2, 2)


class TestMatrixFreeOperator:
    def test_custom_operator(self):
        """cg() is matrix-free friendly: any .apply(x, y) object works."""
        nodes, mat, bvals = ring_system()
        dense = mat.todense()

        class DenseOperator:
            def apply(self, x, y, runtime=None):
                y.data[:, 0] = dense @ x.data[:, 0]

        b = Dat(nodes, 1, bvals, name="b")
        x = Dat(nodes, 1, name="x")
        res = cg(DenseOperator(), b, x, runtime=Runtime("sequential"),
                 tol=1e-12, maxiter=500)
        assert res.converged
        np.testing.assert_allclose(
            x.data[:, 0], np.linalg.solve(dense, bvals), atol=1e-9
        )


class TestSpmvKernel:
    def test_memoized_per_width(self):
        assert make_spmv_kernel(7) is make_spmv_kernel(7)
        assert make_spmv_kernel(7) is not make_spmv_kernel(9)

    def test_width_validation(self):
        with pytest.raises(ValueError, match="width"):
            make_spmv_kernel(0)

    def test_generated_vector_form_exists(self):
        """The padded-row SpMV must take the batched fast path."""
        from repro.kernelc import vectorizable

        assert vectorizable(make_spmv_kernel(9))
