"""Aero: FEM correctness, convergence, and the full reproducibility matrix.

The aero acceptance property: the assembled CSR values and the final
potential are **bitwise identical** between the sequential backend and
every other backend, over both data layouts and all three execution
modes ({eager, chained, tiled}).  On top of that, classical FEM checks:
the unit-square bilinear stiffness block, the patch test (linear fields
reproduced exactly), incompressible limits, and Picard convergence.
"""

import numpy as np
import pytest

from repro.apps.aero import AeroConstants, AeroSim, make_kernels
from repro.core import INC, Dat, Map, Mat, Runtime, Set, arg_mat, par_loop
from repro.core.access import IDX_ALL, IDX_ID, READ, arg_dat
from repro.mesh import make_airfoil_mesh
from repro.solve import MatOperator, cg
from repro.testing import BACKEND_MATRIX, LAYOUT_MATRIX

MESH_DIMS = (12, 6)
PICARD = 2
CG_KW = dict(cg_tol=1e-10, cg_maxiter=200)


def run_aero(backend="sequential", scheme="two_level", options=None,
             layout=None, chained=False, tiling=None, picard=PICARD,
             constants=None, operator="auto"):
    from repro.testing import runtime_for

    rt = runtime_for(backend, scheme, options or {}, layout=layout)
    kwargs = dict(CG_KW)
    if constants is not None:
        kwargs["constants"] = constants
    sim = AeroSim(make_airfoil_mesh(*MESH_DIMS), runtime=rt,
                  chained=chained, tiling=tiling, operator=operator,
                  **kwargs)
    result = sim.solve(picard=picard)
    return sim, result


@pytest.fixture(scope="module")
def reference():
    sim, result = run_aero()
    return (
        sim.phi.copy(),
        sim.state.mat.data.copy(),
        sim.rho.copy(),
        result,
    )


class TestConvergence:
    def test_cg_converges_below_tolerance(self, reference):
        *_, result = reference
        assert result.converged
        assert result.residual <= CG_KW["cg_tol"]
        for cg_res in result.cg_results:
            assert cg_res.converged

    def test_picard_contracts(self):
        sim, _ = run_aero(picard=3)
        deltas = sim.delta_history
        assert deltas[1] < deltas[0]
        assert deltas[2] < deltas[1]

    def test_physical_sanity(self, reference):
        phi, _, rho, _ = reference
        # Subsonic compressible flow: mild density variation around 1.
        assert 0.9 < rho.min() <= rho.max() < 1.1
        assert np.all(np.isfinite(phi))

    def test_incompressible_limit_rho_is_one(self):
        sim, _ = run_aero(
            picard=1, constants=AeroConstants(mach=0.0), chained=False
        )
        np.testing.assert_array_equal(sim.rho, np.ones_like(sim.rho))


class TestReproducibilityMatrix:
    """The acceptance matrix: CSR + solution bitwise vs sequential."""

    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    @pytest.mark.parametrize("layout", LAYOUT_MATRIX)
    @pytest.mark.parametrize("mode", ["eager", "chained", "tiled"])
    def test_bitwise_identical(self, backend, scheme, options, layout,
                               mode, reference):
        ref_phi, ref_csr, ref_rho, _ = reference
        # The CSR exists on the assembled path only ("auto" rows would
        # resolve to matfree under Runtime("auto")).
        sim, result = run_aero(
            backend, scheme, options, layout=layout,
            chained=(mode != "eager"),
            tiling="auto" if mode == "tiled" else None,
            operator="assembled",
        )
        assert result.converged
        np.testing.assert_array_equal(sim.state.mat.data, ref_csr)
        np.testing.assert_array_equal(sim.phi, ref_phi)
        np.testing.assert_array_equal(sim.rho, ref_rho)

    def test_tiling_requires_chained(self):
        with pytest.raises(ValueError, match="chained=True"):
            AeroSim(make_airfoil_mesh(*MESH_DIMS), chained=False,
                    tiling="auto")


class TestFEMCorrectness:
    def test_unit_square_stiffness_block(self):
        """One unit-square element, rho = 1: the textbook bilinear
        Laplace stiffness (1/6) [[4,-1,-2,-1], ...]."""
        nodes = Set(4, "nodes")
        cells = Set(1, "cells")
        c2n = Map(cells, nodes, 4, np.array([[0, 1, 2, 3]]), "c2n")
        x = Dat(nodes, 2,
                np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                name="x")
        rho = Dat(cells, 1, 1.0, name="rho")
        mat = Mat(c2n, c2n, name="K")
        kernels = make_kernels()
        par_loop(kernels["res_calc"], cells,
                 arg_dat(x, IDX_ALL, c2n, READ),
                 arg_dat(rho, IDX_ID, None, READ),
                 arg_mat(mat, INC), runtime=Runtime("sequential"))
        mat.assemble()
        expected = np.array(
            [[4, -1, -2, -1],
             [-1, 4, -1, -2],
             [-2, -1, 4, -1],
             [-1, -2, -1, 4]], dtype=float) / 6.0
        np.testing.assert_allclose(mat.todense(), expected, atol=1e-14)

    def test_patch_test_linear_field_exact(self):
        """Dirichlet data from a linear field on *all* boundary nodes:
        bilinear FEM must reproduce the field to solver tolerance
        (the classical patch test, via the full Mat + CG pipeline)."""
        mesh = make_airfoil_mesh(10, 5)
        exact = 0.7 * mesh.coords[:, 0] - 0.3 * mesh.coords[:, 1] + 0.1
        boundary = np.zeros(mesh.nodes.size, dtype=bool)
        boundary[np.unique(mesh.map("bedge2node").values)] = True

        rt = Runtime("vectorized")
        nodes, cells = mesh.nodes, mesh.cells
        c2n = mesh.map("cell2node")
        x = Dat(nodes, 2, mesh.coords, name="x")
        rho = Dat(cells, 1, 1.0, name="rho")
        mat = Mat(c2n, c2n, name="K")
        kernels = make_kernels()
        par_loop(kernels["res_calc"], cells,
                 arg_dat(x, IDX_ALL, c2n, READ),
                 arg_dat(rho, IDX_ID, None, READ),
                 arg_mat(mat, INC), runtime=rt)
        mat.assemble()
        lift = np.where(boundary, exact, 0.0)
        kg = mat @ lift
        b = Dat(nodes, 1, np.where(boundary, exact, -kg), name="b")
        mat.set_dirichlet(boundary)
        phi = Dat(nodes, 1, np.where(boundary, exact, 0.0), name="phi")
        res = cg(MatOperator(mat), b, phi, runtime=rt, tol=1e-12,
                 maxiter=1000)
        assert res.converged
        np.testing.assert_allclose(phi.data[:, 0], exact, atol=1e-8)

    def test_far_field_dirichlet_pinned(self, reference):
        """The far-field potential equals the free-stream data exactly."""
        sim, _ = run_aero()
        m = sim.mesh
        dx, dy = sim.constants.direction
        phi_inf = m.coords[:, 0] * dx + m.coords[:, 1] * dy
        np.testing.assert_array_equal(
            sim.phi[sim.bc_mask], phi_inf[sim.bc_mask]
        )
        assert sim.bc_mask.sum() > 0


class TestKernelGeneration:
    """Pins the kernelc extension surface the aero kernels rely on."""

    @pytest.mark.parametrize(
        "name", ["rho_calc", "res_calc", "rhs_calc", "apply_bc"]
    )
    def test_aero_kernels_vectorizable(self, name):
        from repro.kernelc import vectorizable

        assert vectorizable(make_kernels()[name])

    def test_generated_matrix_kernel_bitwise_vs_scalar(self):
        """Local-matrix stores: generated batched kernel == scalar, per
        element, bitwise (the kernelc matrix-lowering pin)."""
        kern = make_kernels()["res_calc"]
        mesh = make_airfoil_mesh(8, 4)
        c2n = mesh.map("cell2node")
        rng = np.random.default_rng(7)
        n = mesh.cells.size
        xs = mesh.coords[c2n.values]                  # (n, 4, 2)
        rho = 1.0 + 0.1 * rng.standard_normal((n, 1))
        # Scalar, element at a time.
        K_scalar = np.zeros((n, 16))
        for e in range(n):
            kern.scalar(xs[e], rho[e], K_scalar[e])
        # Generated batched form over all lanes at once.
        from repro.kernelc import vector_kernel_for
        from repro.core.access import Arg

        x_dat = Dat(mesh.nodes, 2, mesh.coords)
        rho_dat = Dat(mesh.cells, 1, rho)
        mat = Mat(c2n, c2n)
        args = (
            Arg(x_dat, IDX_ALL, c2n, READ),
            Arg(rho_dat, IDX_ID, None, READ),
            arg_mat(mat, INC),
        )
        vfn = vector_kernel_for(kern, args)
        assert vfn is not None
        K_vec = np.zeros((n, 16))
        vfn(xs.copy(), rho.copy(), K_vec)
        np.testing.assert_array_equal(K_vec, K_scalar)

    def test_spmv_shape_in_timing_stats(self):
        sim, _ = run_aero("vectorized")
        stats = sim._runtime().stats() if sim.runtime is None else \
            sim.runtime.stats()
        names = set(stats["kernels"])
        assert {"rho_calc", "res_calc_aero", "rhs_calc_aero",
                "cg_update"} <= names
        assert any(n.startswith("spmv_w") for n in names)
