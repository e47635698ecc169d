"""Matrix-free operator conformance: bitwise against the assembled oracle.

The matfree acceptance property mirrors (and extends) aero's: with
``operator="matfree"`` the Picard solution and density are **bitwise
identical** to the assembled-CSR sequential-eager reference across every
backend, both layouts and all three execution modes — while
``Mat.assemble()`` is never called.  Below that sit direct A·p
conformance checks (matfree action vs assembled SpMV, raw and
Dirichlet-masked), a hypothesis differential over randomized element
stiffness inputs, and the knob/guard behaviour.
"""

import numpy as np
import pytest

from repro.apps.aero import AeroSim, make_kernels
from repro.apps.aero.driver import OPERATOR_MODES
from repro.apps.aero.kernels import element_quadrature_tables
from repro.core import INC, Dat, Mat, Runtime, arg_mat, par_loop
from repro.core.access import IDX_ALL, IDX_ID, READ, arg_dat
from repro.mesh import make_airfoil_mesh
from repro.solve import MAX_FOLD_CONTRIBUTIONS, MatFreeOperator, MatOperator
from repro.testing import BACKEND_MATRIX, LAYOUT_MATRIX, runtime_for

MESH_DIMS = (12, 6)
PICARD = 2
CG_KW = dict(cg_tol=1e-10, cg_maxiter=200)


def run_aero(operator, backend="sequential", scheme="two_level",
             options=None, layout=None, chained=False, tiling=None,
             picard=PICARD):
    rt = runtime_for(backend, scheme, options or {}, layout=layout)
    sim = AeroSim(make_airfoil_mesh(*MESH_DIMS), runtime=rt,
                  chained=chained, tiling=tiling, operator=operator,
                  **CG_KW)
    result = sim.solve(picard=picard)
    return sim, result


@pytest.fixture(scope="module")
def reference():
    """Assembled sequential eager — the bitwise oracle."""
    sim, result = run_aero("assembled")
    return sim.phi.copy(), sim.rho.copy(), result


def _operator_pair(mesh, rho_values=None, runtime=None):
    """(assembled Mat + MatOperator, MatFreeOperator) over one mesh."""
    rt = runtime or Runtime("sequential")
    nodes, cells = mesh.nodes, mesh.cells
    c2n = mesh.map("cell2node")
    coords = np.asarray(mesh.coords, dtype=np.float64)
    x = Dat(nodes, 2, coords, name="x")
    rho = Dat(cells, 1, 1.0 if rho_values is None else rho_values,
              name="rho")
    bc_mask = np.zeros(nodes.size, dtype=bool)
    bc_mask[np.unique(mesh.map("bedge2node").values)] = True
    bc = Dat(nodes, 1, bc_mask.astype(float), name="bc")
    mat = Mat(c2n, c2n, name="K")
    par_loop(make_kernels()["res_calc"], cells,
             arg_dat(x, IDX_ALL, c2n, READ),
             arg_dat(rho, IDX_ID, None, READ),
             arg_mat(mat, INC), runtime=rt)
    mat.assemble()
    mf = MatFreeOperator(
        mat, element_quadrature_tables(coords[c2n.values]), rho, bc,
    )
    mf.refresh(rt)
    return mat, MatOperator(mat), mf, bc_mask, rt


class TestOperatorAction:
    """A·p bitwise-equal to the assembled SpMV, shape by shape."""

    def test_raw_coefficients_match_csr(self):
        mesh = make_airfoil_mesh(*MESH_DIMS)
        mat, _, mf, _, _ = _operator_pair(mesh)
        csr_rows = mat.values.data[:, 0][mf.row_slots.values]
        np.testing.assert_array_equal(
            mf.coeffs_raw.data[: mesh.nodes.size], csr_rows
        )

    def test_masked_coefficients_match_dirichlet_csr(self):
        mesh = make_airfoil_mesh(*MESH_DIMS)
        mat, _, mf, bc_mask, _ = _operator_pair(mesh)
        mat.set_dirichlet(bc_mask)
        csr_rows = mat.values.data[:, 0][mf.row_slots.values]
        np.testing.assert_array_equal(
            mf.coeffs_bc.data[: mesh.nodes.size], csr_rows
        )

    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    def test_action_matches_spmv(self, backend, scheme, options):
        """Raw apply, fused action and masked apply vs the SpMV loop."""
        rt = runtime_for(backend, scheme, options)
        mesh = make_airfoil_mesh(10, 5)
        rng = np.random.default_rng(11)
        rho_values = 1.0 + 0.05 * rng.standard_normal((mesh.cells.size, 1))
        mat, spmv, mf, bc_mask, _ = _operator_pair(
            mesh, rho_values=rho_values, runtime=rt
        )
        n = mesh.nodes.size
        x = Dat(mesh.nodes, 1, rng.standard_normal((n, 1)), name="xv")
        y_ref = Dat(mesh.nodes, 1, name="y_ref")
        y_mf = Dat(mesh.nodes, 1, name="y_mf")
        spmv.apply(x, y_ref, runtime=rt)
        mf.apply(x, y_mf, runtime=rt, raw=True)
        np.testing.assert_array_equal(y_mf.data[:n], y_ref.data[:n])
        mf.action(x, y_mf, runtime=rt)
        np.testing.assert_array_equal(y_mf.data[:n], y_ref.data[:n])
        mat.set_dirichlet(bc_mask)
        spmv.apply(x, y_ref, runtime=rt)
        mf.apply(x, y_mf, runtime=rt)
        np.testing.assert_array_equal(y_mf.data[:n], y_ref.data[:n])


class TestPicardMatrix:
    """Matfree Picard: phi + rho bitwise vs the assembled oracle, with
    ``Mat.assemble`` never called — the acceptance matrix."""

    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    @pytest.mark.parametrize("layout", LAYOUT_MATRIX)
    @pytest.mark.parametrize("mode", ["eager", "chained", "tiled"])
    def test_bitwise_identical(self, backend, scheme, options, layout,
                               mode, reference):
        ref_phi, ref_rho, _ = reference
        sim, result = run_aero(
            "matfree", backend, scheme, options, layout=layout,
            chained=(mode != "eager"),
            tiling="auto" if mode == "tiled" else None,
        )
        assert result.converged
        np.testing.assert_array_equal(sim.phi, ref_phi)
        np.testing.assert_array_equal(sim.rho, ref_rho)
        assert sim.state.mat.assemble_calls == 0

    def test_assembled_mode_assembles_once_per_step(self):
        sim, _ = run_aero("assembled", picard=PICARD)
        assert sim.state.mat.assemble_calls == PICARD


class TestHypothesisDifferential:
    """Randomized element stiffness inputs: the matfree fold equals the
    assemble() fold bit for bit, whatever the values."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_inputs_differential(self, seed):
        hypothesis = pytest.importorskip("hypothesis")
        from hypothesis import given, settings, strategies as st

        mesh = make_airfoil_mesh(8, 4)
        rt = Runtime("sequential")
        base = np.asarray(mesh.coords, dtype=np.float64)

        @settings(max_examples=8, deadline=None, derandomize=True)
        @given(st.integers(0, 2**31 - 1))
        def check(draw_seed):
            rng = np.random.default_rng((seed << 32) ^ draw_seed)
            # Jitter small enough to keep every element invertible.
            coords = base + 0.02 * rng.standard_normal(base.shape)
            nodes, cells = mesh.nodes, mesh.cells
            c2n = mesh.map("cell2node")
            x = Dat(nodes, 2, coords, name="x")
            rho = Dat(cells, 1,
                      0.5 + rng.random((cells.size, 1)), name="rho")
            bc = Dat(nodes, 1, 0.0, name="bc")
            mat = Mat(c2n, c2n, name="K")
            par_loop(make_kernels()["res_calc"], cells,
                     arg_dat(x, IDX_ALL, c2n, READ),
                     arg_dat(rho, IDX_ID, None, READ),
                     arg_mat(mat, INC), runtime=rt)
            mat.assemble()
            mf = MatFreeOperator(
                mat, element_quadrature_tables(coords[c2n.values]),
                rho, bc,
            )
            mf.refresh(rt)
            csr_rows = mat.values.data[:, 0][mf.row_slots.values]
            np.testing.assert_array_equal(
                mf.coeffs_raw.data[: nodes.size], csr_rows
            )
            xv = Dat(nodes, 1,
                     rng.standard_normal((nodes.size, 1)), name="xv")
            y_mf = Dat(nodes, 1, name="y_mf")
            y_ref = Dat(nodes, 1, name="y_ref")
            MatOperator(mat).apply(xv, y_ref, runtime=rt)
            mf.action(xv, y_mf, runtime=rt)
            np.testing.assert_array_equal(
                y_mf.data[: nodes.size], y_ref.data[: nodes.size]
            )

        check()


class TestKnobAndGuards:
    def test_operator_knob_values(self):
        assert OPERATOR_MODES == ("auto", "assembled", "matfree")
        with pytest.raises(ValueError, match="operator"):
            AeroSim(make_airfoil_mesh(8, 4), operator="bogus",
                    runtime=Runtime("sequential"))

    def test_auto_defaults_to_assembled(self):
        # On an explicit backend "auto" is the assembled oracle; only
        # Runtime("auto") resolves it to matfree.
        sim = AeroSim(make_airfoil_mesh(8, 4),
                      runtime=Runtime("sequential"))
        assert sim.operator_mode == "assembled"
        assert sim.matfree is None
        assert sim.operator_axis  # float64 could run matfree

    def test_matfree_requires_float64(self):
        with pytest.raises(ValueError, match="float64"):
            AeroSim(make_airfoil_mesh(8, 4), dtype=np.float32,
                    operator="matfree", runtime=Runtime("sequential"))

    def test_float32_has_no_operator_axis(self):
        sim = AeroSim(make_airfoil_mesh(8, 4), dtype=np.float32,
                      runtime=Runtime("sequential"))
        assert not sim.operator_axis
        sim.run(1)  # assembled float32 path still works

    def test_fold_width_guard(self):
        assert MAX_FOLD_CONTRIBUTIONS >= 4  # quad meshes need 4
        mesh = make_airfoil_mesh(8, 4)
        mat = Mat(mesh.map("cell2node"), mesh.map("cell2node"), name="K")
        assert mat.fold_width == 4
        assert mat.fold_table.shape == (mat.nnz + 1, 4)


class TestMatfreeStats:
    def test_matfree_loops_in_runtime_stats(self):
        rt = Runtime("vectorized")
        sim = AeroSim(make_airfoil_mesh(*MESH_DIMS), runtime=rt,
                      operator="matfree", **CG_KW)
        sim.run(1)
        names = set(rt.stats()["kernels"])
        assert any(n.startswith("matfree_coeffs_w") for n in names)
        assert any(n.startswith("matfree_apply_w") for n in names)
        assert "res_calc_aero" not in names  # staging scatter never ran
