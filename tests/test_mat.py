"""Mat: sparsity, deterministic assembly, Dirichlet, the solver view.

The sparse-matrix argument subsystem (core/mat.py) is the aero
workload's foundation: element-local staging through ``arg_mat`` must be
race-free on every backend, the canonical fold must produce the same
CSR no matter how the loop executed, and the padded-row solver view
must reproduce the exact matrix action.
"""

import numpy as np
import pytest

from repro.core import (
    INC,
    READ,
    Access,
    Dat,
    Map,
    Mat,
    Runtime,
    Set,
    arg_dat,
    arg_mat,
    kernel,
    par_loop,
)
from repro.core.access import IDX_ID
from repro.testing import BACKEND_MATRIX, LAYOUT_MATRIX, runtime_for


def two_quads():
    """Two quads sharing an edge: 6 nodes, the smallest FEM patch."""
    nodes = Set(6, "nodes")
    cells = Set(2, "cells")
    c2n = Map(cells, nodes, 4, np.array([[0, 1, 4, 3], [1, 2, 5, 4]]), "c2n")
    return nodes, cells, c2n


@kernel("count_pairs")
def count_pairs(K):
    for i in range(4):
        for j in range(4):
            K[4 * i + j] += 1.0


@kernel("weighted_pairs")
def weighted_pairs(w, K):
    for i in range(4):
        for j in range(4):
            K[4 * i + j] += w[0] * (1.0 + 0.25 * (4 * i + j))


class TestSparsity:
    def test_pattern_and_dense_reference(self):
        nodes, cells, c2n = two_quads()
        mat = Mat(c2n, c2n, name="K")
        par_loop(count_pairs, cells, arg_mat(mat, INC),
                 runtime=Runtime("sequential"))
        mat.assemble()
        ref = np.zeros((6, 6))
        for e in range(2):
            for i in c2n.values[e]:
                for j in c2n.values[e]:
                    ref[i, j] += 1.0
        np.testing.assert_array_equal(mat.todense(), ref)
        # The sparsity is exactly the nonzero pattern of the reference.
        assert mat.nnz == int((ref != 0).sum())
        assert mat.indptr.shape == (7,)
        assert mat.indptr[-1] == mat.nnz

    def test_csr_row_sorted(self):
        _, _, c2n = two_quads()
        mat = Mat(c2n, c2n)
        indptr, indices = mat.indptr, mat.indices
        for r in range(mat.nrows):
            row = indices[indptr[r]:indptr[r + 1]]
            assert np.all(np.diff(row) > 0), "CSR columns must be sorted"

    def test_declaration_validation(self):
        nodes, cells, c2n = two_quads()
        other = Set(3, "other")
        o2n = Map(other, nodes, 2, np.zeros((3, 2), dtype=np.int64))
        with pytest.raises(ValueError, match="share their from_set"):
            Mat(c2n, o2n)
        with pytest.raises(TypeError):
            Mat(c2n, None)

    def test_arg_mat_validation(self):
        _, _, c2n = two_quads()
        mat = Mat(c2n, c2n)
        with pytest.raises(ValueError, match="INC"):
            arg_mat(mat, Access.READ)
        with pytest.raises(TypeError):
            arg_mat(object())

    def test_rectangular_solver_view_rejected(self):
        nodes, cells, c2n = two_quads()
        other = Set(4, "cols")
        c2o = Map(cells, other, 2, np.array([[0, 1], [2, 3]]))
        rect = Mat(c2n, c2o)
        assert rect.nrows == 6 and rect.ncols == 4
        with pytest.raises(ValueError, match="square"):
            rect.solver_view()


class TestDeterministicAssembly:
    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    @pytest.mark.parametrize("layout", LAYOUT_MATRIX)
    def test_bitwise_identical_across_backends(self, backend, scheme,
                                               options, layout):
        """The assembled CSR is a pure function of mesh + kernel."""
        nodes, cells, c2n = two_quads()
        ref = None
        for name, sch, opt in (("sequential", "two_level", {}),
                               (backend, scheme, options)):
            rt = runtime_for(name, sch, opt, layout=layout)
            w = Dat(cells, 1, np.array([[0.7], [1.3]]), name="w")
            mat = Mat(c2n, c2n, name="K")
            par_loop(weighted_pairs, cells,
                     arg_dat(w, IDX_ID, None, READ),
                     arg_mat(mat, INC), runtime=rt)
            vals = mat.assemble().data.copy()
            if ref is None:
                ref = vals
            else:
                np.testing.assert_array_equal(vals, ref)

    def test_accumulates_across_loops_until_zeroed(self):
        _, cells, c2n = two_quads()
        rt = Runtime("vectorized")
        mat = Mat(c2n, c2n)
        par_loop(count_pairs, cells, arg_mat(mat, INC), runtime=rt)
        par_loop(count_pairs, cells, arg_mat(mat, INC), runtime=rt)
        twice = mat.assemble().data.copy()
        mat.zero()
        par_loop(count_pairs, cells, arg_mat(mat, INC), runtime=rt)
        once = mat.assemble().data.copy()
        np.testing.assert_array_equal(twice, 2.0 * once)

    def test_assemble_flushes_pending_chain(self):
        _, cells, c2n = two_quads()
        rt = Runtime("vectorized")
        mat = Mat(c2n, c2n)
        with rt.chain():
            par_loop(count_pairs, cells, arg_mat(mat, INC), runtime=rt)
            mat.assemble()  # staging read barrier flushes the trace
            assert mat.data.sum() == 32.0  # 2 cells x 16 entries


class TestDirichletAndAction:
    def build(self, dirichlet=None):
        _, cells, c2n = two_quads()
        mat = Mat(c2n, c2n)
        par_loop(count_pairs, cells, arg_mat(mat, INC),
                 runtime=Runtime("sequential"))
        mat.assemble()
        if dirichlet is not None:
            mat.set_dirichlet(dirichlet)
        return mat

    def test_set_dirichlet_rows_cols(self):
        mask = np.array([1, 0, 0, 0, 0, 1], dtype=bool)
        mat = self.build(mask)
        dense = mat.todense()
        eye = np.eye(6)
        np.testing.assert_array_equal(dense[0], eye[0])
        np.testing.assert_array_equal(dense[5], eye[5])
        assert np.all(dense[1:5, 0] == 0.0)
        assert np.all(dense[1:5, 5] == 0.0)
        # Symmetry survives the symmetric elimination.
        np.testing.assert_array_equal(dense, dense.T)

    def test_set_dirichlet_shape_check(self):
        mat = self.build()
        with pytest.raises(ValueError, match="row_mask"):
            mat.set_dirichlet(np.zeros(4, dtype=bool))

    def test_matmul_matches_dense(self):
        mat = self.build()
        x = np.linspace(-1.0, 1.0, 6)
        np.testing.assert_allclose(mat @ x, mat.todense() @ x, atol=1e-12)
        with pytest.raises(ValueError, match="columns"):
            mat @ np.zeros(5)

    def test_solver_view_padding_is_inert(self):
        mat = self.build()
        row_slots, row_cols = mat.solver_view()
        assert row_slots.arity == mat.max_row_nnz == row_cols.arity
        # Pad slots point at the always-zero trailing value.
        vals = mat.values.data[:, 0]
        assert vals[mat.nnz] == 0.0
        x = np.linspace(0.5, 3.0, 6)
        y = np.zeros(6)
        for r in range(6):
            for k in range(row_slots.arity):
                y[r] += vals[row_slots.values[r, k]] * x[row_cols.values[r, k]]
        np.testing.assert_allclose(y, mat @ x)
        # The view is cached (connectivity only — one build).
        assert mat.solver_view()[0] is row_slots


class TestDirectIncBatchedPath:
    """The backend fix the Mat argument rides on: non-contiguous direct
    INC must scatter only the kernel's delta (a gathered copy would be
    double-counted by the scatter_add writeback)."""

    @pytest.mark.parametrize("backend,scheme,options", [
        ("vectorized", "two_level", {}),
        ("vectorized", "full_permute", {}),
        ("simt", "two_level", {"device": "phi"}),
        ("vectorized", "full_permute", {"vec": 8}),
        ("vectorized", "block_permute", {"vec": 8}),
    ])
    def test_direct_inc_with_racing_arg(self, backend, scheme, options):
        """A loop with an indirect INC (racing -> colored non-contiguous
        phases) plus a *direct* INC argument: the direct increments must
        land exactly once."""

        @kernel("inc_both")
        def inc_both(d, a):
            d[0] += 1.5
            a[0] += 1.0

        n = 37
        elems = Set(n, "elems")
        targets = Set(5, "targets")
        m = Map(elems, targets, 1,
                (np.arange(n) % 5).reshape(-1, 1), "m")
        ref_d = np.full((n, 1), 1.5) + 2.0
        for name, sch, opt in (("sequential", "two_level", {}),
                               (backend, scheme, options)):
            rt = runtime_for(name, sch, opt, block_size=8)
            d = Dat(elems, 1, 2.0, name="d")
            acc = Dat(targets, 1, name="acc")
            par_loop(inc_both, elems,
                     arg_dat(d, IDX_ID, None, INC),
                     arg_dat(acc, 0, m, INC), runtime=rt)
            np.testing.assert_array_equal(d.data, ref_d)
            np.testing.assert_allclose(
                acc.data[:, 0], np.bincount(np.arange(n) % 5).astype(float)
            )
