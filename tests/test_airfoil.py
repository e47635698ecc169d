"""Airfoil application tests: physics, backend equivalence, precision."""

import numpy as np
import pytest

from repro.apps.airfoil import (
    AirfoilConstants,
    AirfoilSim,
    make_kernels,
    reference_sweep,
)
from repro.core import Runtime, make_backend
from repro.mesh import make_airfoil_mesh

from repro.testing import (
    BACKEND_MATRIX, LAYOUT_MATRIX, assert_matches_sequential, runtime_for,
)


@pytest.fixture(scope="module")
def mesh():
    return make_airfoil_mesh(20, 10)


def _generated_vector(kernel, nargs):
    """kernelc-generated batched form with every parameter lane-batched."""
    from repro.kernelc import compile_vector, kernel_ir

    return compile_vector(kernel_ir(kernel), [True] * nargs)


class TestKernels:
    def test_metadata_matches_table2(self):
        ks = make_kernels()
        assert ks["save_soln"].info.flops == 4
        assert ks["adt_calc"].info.flops == 64
        assert ks["adt_calc"].info.transcendentals == 5
        assert ks["res_calc"].info.flops == 73
        assert ks["bres_calc"].info.flops == 73
        assert ks["update"].info.flops == 17

    def test_simt_vectorization_flags(self):
        # Table VI: on CPU the OpenCL compiler vectorized adt_calc and
        # bres_calc but not save_soln / res_calc / update.
        ks = make_kernels()
        assert ks["adt_calc"].vectorizable_simt
        assert ks["bres_calc"].vectorizable_simt
        assert not ks["save_soln"].vectorizable_simt
        assert not ks["res_calc"].vectorizable_simt
        assert not ks["update"].vectorizable_simt

    def test_scalar_vector_agree_on_random_state(self, rng):
        ks = make_kernels()
        n = 16
        x = rng.random((n, 4, 2))
        q = rng.random((n, 4)) + 1.0
        q[:, 3] += 4.0  # keep energy high enough for real sound speed
        adt_s = np.zeros((n, 1))
        adt_v = np.zeros((n, 1))
        for i in range(n):
            ks["adt_calc"].scalar(x[i], q[i], adt_s[i])
        _generated_vector(ks["adt_calc"], 3)(x, q, adt_v)
        np.testing.assert_allclose(adt_v, adt_s, rtol=1e-14)

    def test_bres_mask_lowering_equals_branch(self, rng):
        # The emitter's mask lowering must agree with the scalar branch
        # exactly (the Section 4.2 rewrite, performed automatically).
        ks = make_kernels()
        n = 12
        x1 = rng.random((n, 2))
        x2 = rng.random((n, 2))
        q = rng.random((n, 4)) + 1.0
        q[:, 3] += 4.0
        adt = rng.random((n, 1)) + 0.1
        bound = rng.integers(1, 3, (n, 1)).astype(np.int64)
        res_s = np.zeros((n, 4))
        res_v = np.zeros((n, 4))
        for i in range(n):
            ks["bres_calc"].scalar(x1[i], x2[i], q[i], adt[i],
                                   res_s[i], bound[i])
        _generated_vector(ks["bres_calc"], 6)(x1, x2, q, adt, res_v, bound)
        np.testing.assert_allclose(res_v, res_s, rtol=1e-13, atol=1e-15)


class TestAgainstReference:
    def test_one_step_matches_reference(self, mesh):
        sim = AirfoilSim(mesh, runtime=Runtime("vectorized", block_size=64))
        ref = reference_sweep(mesh, sim.q.copy())
        rms = sim.step()
        np.testing.assert_allclose(sim.q, ref["q"], rtol=1e-12, atol=1e-14)
        assert rms == pytest.approx(ref["rms"], rel=1e-12)

    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    def test_all_backends_match_reference(self, mesh, backend, scheme,
                                          options):
        sim = AirfoilSim(mesh, runtime=runtime_for(backend, scheme,
                                                   options, 48))
        ref = reference_sweep(mesh, sim.q.copy())
        sim.step()
        np.testing.assert_allclose(sim.q, ref["q"], rtol=1e-10, atol=1e-12)

    def test_vec_width_4_matches(self, mesh):
        rt = Runtime(make_backend("vectorized", vec=4), block_size=48)
        sim = AirfoilSim(mesh, runtime=rt)
        ref = reference_sweep(mesh, sim.q.copy())
        sim.step()
        np.testing.assert_allclose(sim.q, ref["q"], rtol=1e-12, atol=1e-14)


class TestReproducibilityMatrix:
    """Three steps on every matrix row, layout and execution mode
    against the sequential interpreter's eager run: bitwise under
    ``two_level`` (``vectorized`` at the default strip width and at
    ``vec=8``), rounding level under the permute schemes."""

    @pytest.fixture(scope="class")
    def reference(self, mesh):
        sim = AirfoilSim(mesh, runtime=Runtime("sequential"), chained=False)
        sim.run(3)
        return sim.q.copy(), list(sim.rms_history)

    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    @pytest.mark.parametrize("layout", LAYOUT_MATRIX)
    @pytest.mark.parametrize("mode", ["eager", "chained", "tiled"])
    def test_matches_sequential(self, mesh, reference, backend, scheme,
                                options, layout, mode):
        ref_q, ref_rms = reference
        sim = AirfoilSim(mesh, runtime=runtime_for(backend, scheme, options,
                                                   layout=layout),
                         chained=mode != "eager",
                         tiling="auto" if mode == "tiled" else None)
        sim.run(3)
        assert_matches_sequential(sim.q, ref_q, scheme, rtol=1e-10,
                                  atol=1e-12)
        assert_matches_sequential(sim.rms_history, ref_rms, scheme,
                                  rtol=1e-10)


class TestPhysics:
    def test_residual_decreases(self, mesh):
        sim = AirfoilSim(mesh, runtime=Runtime("vectorized"))
        sim.run(30)
        h = sim.rms_history
        assert h[-1] < h[0]
        assert all(np.isfinite(h))

    def test_freestream_preserved_away_from_airfoil(self, mesh):
        # Far-field cells should stay near the free stream after a few
        # iterations (the perturbation is local to the airfoil).
        sim = AirfoilSim(mesh, runtime=Runtime("vectorized"))
        qinf = sim.constants.qinf()
        sim.run(5)
        cent = mesh.cell_centroids()
        far = np.hypot(cent[:, 0], cent[:, 1]) > 15.0
        np.testing.assert_allclose(
            sim.q[far], np.broadcast_to(qinf, sim.q[far].shape), rtol=5e-2
        )

    def test_state_stays_physical(self, mesh):
        sim = AirfoilSim(mesh, runtime=Runtime("vectorized"))
        sim.run(20)
        assert (sim.q[:, 0] > 0).all()       # density positive
        assert (sim.q[:, 3] > 0).all()       # energy positive

    def test_angle_of_attack_breaks_symmetry(self):
        m = make_airfoil_mesh(16, 8)
        sym = AirfoilSim(m, runtime=Runtime("vectorized"),
                         constants=AirfoilConstants(alpha_deg=0.0))
        sym.run(5)
        # Zero alpha: vertical momentum stays symmetric to mirror cells.
        assert abs(sym.q[:, 2].sum()) < abs(sym.q[:, 1].sum()) * 1e-2


class TestPrecision:
    def test_single_precision_runs(self, mesh):
        sim = AirfoilSim(mesh, dtype=np.float32,
                         runtime=Runtime("vectorized"))
        sim.run(5)
        assert sim.q.dtype == np.float32
        assert np.isfinite(sim.q).all()

    def test_sp_tracks_dp(self, mesh):
        dp = AirfoilSim(mesh, dtype=np.float64, runtime=Runtime("vectorized"))
        sp = AirfoilSim(mesh, dtype=np.float32, runtime=Runtime("vectorized"))
        dp.run(3)
        sp.run(3)
        np.testing.assert_allclose(sp.q, dp.q, rtol=2e-3, atol=2e-3)

    def test_memory_halves_in_sp(self, mesh):
        dp = AirfoilSim(mesh, dtype=np.float64)
        sp = AirfoilSim(mesh, dtype=np.float32)
        assert sp.state.p_q.nbytes * 2 == dp.state.p_q.nbytes


class TestDeterminism:
    def test_same_backend_bitwise_reproducible(self, mesh):
        a = AirfoilSim(mesh, runtime=Runtime("vectorized", block_size=64))
        b = AirfoilSim(mesh, runtime=Runtime("vectorized", block_size=64))
        a.run(4)
        b.run(4)
        np.testing.assert_array_equal(a.q, b.q)
