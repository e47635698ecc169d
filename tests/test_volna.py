"""Volna application tests: conservation, well-balancing, equivalence."""

import numpy as np
import pytest

from repro.apps.volna import (
    CoastalScenario,
    VolnaSim,
    bathymetry,
    cell_areas,
    edge_geometry,
    initial_state,
    make_kernels,
)
from repro.core import Runtime
from repro.mesh import make_tri_mesh

from repro.testing import (
    BACKEND_MATRIX, LAYOUT_MATRIX, assert_matches_sequential, runtime_for,
)


@pytest.fixture(scope="module")
def mesh():
    scen = CoastalScenario()
    return make_tri_mesh(14, 10, scen.extent_x, scen.extent_y)


class TestBathymetry:
    def test_depth_profile_monotone_offshore(self):
        scen = CoastalScenario()
        xs = np.linspace(0, scen.extent_x, 50)
        pts = np.stack([xs, np.zeros(50)], axis=1)  # far from the bay
        zb = bathymetry(pts, scen)
        assert zb[0] == pytest.approx(-scen.ocean_depth)
        assert zb[-1] == pytest.approx(-scen.coast_depth, rel=0.2)
        assert (np.diff(zb) >= -1e-9).all()  # shoals toward the coast

    def test_bay_channel_deeper(self):
        scen = CoastalScenario()
        x = 0.8 * scen.extent_x
        in_bay = bathymetry(np.array([[x, 0.5 * scen.extent_y]]), scen)
        off_bay = bathymetry(np.array([[x, 0.05 * scen.extent_y]]), scen)
        assert in_bay[0] < off_bay[0]

    def test_initial_state_lake_at_rest_plus_hump(self):
        scen = CoastalScenario()
        pts = np.array(
            [[0.2 * scen.extent_x, 0.5 * scen.extent_y],   # at source
             [0.9 * scen.extent_x, 0.9 * scen.extent_y]]   # far away
        )
        q = initial_state(pts, scen)
        eta = q[:, 0] + q[:, 3]
        assert eta[0] == pytest.approx(scen.source_amplitude, rel=0.05)
        assert abs(eta[1]) < 1e-6
        assert (q[:, 1:3] == 0).all()

    def test_everything_wet(self, mesh):
        q = initial_state(mesh.cell_centroids())
        assert (q[:, 0] > 0).all()


class TestGeometry:
    def test_unit_normals(self, mesh):
        geom = edge_geometry(mesh)
        np.testing.assert_allclose(
            np.hypot(geom[:, 0], geom[:, 1]), 1.0, rtol=1e-12
        )

    def test_normals_point_cell0_to_cell1(self, mesh):
        geom = edge_geometry(mesh)
        e2c = mesh.map("edge2cell").values
        cent = mesh.cell_centroids()
        interior = geom[:, 3] < 0.5
        d = cent[e2c[:, 1]] - cent[e2c[:, 0]]
        dots = geom[:, 0] * d[:, 0] + geom[:, 1] * d[:, 1]
        assert (dots[interior] > 0).all()

    def test_areas_positive_sum_to_domain(self, mesh):
        scen = CoastalScenario()
        areas = cell_areas(mesh)
        assert (areas > 0).all()
        assert areas.sum() == pytest.approx(scen.extent_x * scen.extent_y)


class TestConservationAndBalance:
    def test_mass_exactly_conserved(self, mesh):
        sim = VolnaSim(mesh, dtype=np.float64, runtime=Runtime("vectorized"))
        m0 = sim.total_mass()
        sim.run(8)
        assert sim.total_mass() == pytest.approx(m0, rel=1e-13)

    def test_lake_at_rest_is_steady(self, mesh):
        scen = CoastalScenario(source_amplitude=0.0)
        sim = VolnaSim(mesh, dtype=np.float64, scenario=scen,
                       runtime=Runtime("vectorized"))
        h0 = sim.q[:, 0].copy()
        sim.run(6)
        np.testing.assert_allclose(sim.q[:, 0], h0, atol=1e-9)
        assert np.abs(sim.q[:, 1:3]).max() < 1e-8

    def test_wave_propagates_outward(self, mesh):
        sim = VolnaSim(mesh, dtype=np.float64, runtime=Runtime("vectorized"))
        scen = sim.scenario
        cent = mesh.cell_centroids()
        src = np.array([scen.source_x * scen.extent_x,
                        scen.source_y * scen.extent_y])
        r = np.hypot(cent[:, 0] - src[0], cent[:, 1] - src[1])

        def wavefront_radius():
            eta = sim.q[:, 0] + sim.q[:, 3]
            significant = eta > 0.1 * scen.source_amplitude
            return r[significant].max() if significant.any() else 0.0

        r0 = wavefront_radius()
        sim.run(25)
        assert wavefront_radius() > r0

    def test_peak_amplitude_decays_in_deep_water(self, mesh):
        sim = VolnaSim(mesh, dtype=np.float64, runtime=Runtime("vectorized"))
        eta0 = sim.max_eta()
        sim.run(25)
        assert sim.max_eta() < eta0

    def test_dt_positive_and_cfl_scaled(self, mesh):
        sim = VolnaSim(mesh, dtype=np.float64, runtime=Runtime("vectorized"))
        dt = sim.step()
        assert dt > 0
        # dt should be on the order of CFL * min(edge)/sqrt(g*H).
        geom = edge_geometry(mesh)
        c = np.sqrt(9.81 * 3000.0)
        dt_scale = geom[:, 2].min() / c
        assert 0.05 * dt_scale < dt < 50 * dt_scale


class TestBackendEquivalence:
    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    def test_step_equivalent_across_backends(self, mesh, backend, scheme,
                                             options):
        ref = VolnaSim(mesh, dtype=np.float64,
                       runtime=runtime_for("sequential", "two_level", {}, 48))
        ref.run(2)
        got = VolnaSim(mesh, dtype=np.float64,
                       runtime=runtime_for(backend, scheme, options, 48))
        got.run(2)
        assert_matches_sequential(got.q, ref.q, scheme, rtol=1e-9,
                                  atol=1e-11)
        assert_matches_sequential(got.dt_history, ref.dt_history, scheme,
                                  rtol=1e-12)


class TestReproducibilityMatrix:
    """Three float32 steps on a scrambled mesh, on every matrix row,
    layout and execution mode, against the sequential interpreter's
    eager run: bitwise under ``two_level``, rounding level under the
    permute schemes."""

    @pytest.fixture(scope="class")
    def scrambled(self, mesh):
        from repro.mesh.renumber import scramble

        return scramble(scramble(mesh, "cells", 3), "edges", 5)

    @pytest.fixture(scope="class")
    def reference(self, scrambled):
        sim = VolnaSim(scrambled, runtime=Runtime("sequential"),
                       chained=False)
        sim.run(3)
        return sim.q.copy(), list(sim.dt_history)

    @pytest.mark.parametrize("backend,scheme,options", BACKEND_MATRIX)
    @pytest.mark.parametrize("layout", LAYOUT_MATRIX)
    @pytest.mark.parametrize("mode", ["eager", "chained", "tiled"])
    def test_matches_sequential(self, scrambled, reference, backend, scheme,
                                options, layout, mode):
        ref_q, ref_dt = reference
        sim = VolnaSim(scrambled, runtime=runtime_for(backend, scheme,
                                                      options, layout=layout),
                       chained=mode != "eager",
                       tiling="auto" if mode == "tiled" else None)
        sim.run(3)
        assert sim.q.dtype == np.float32
        # Reordered float32 sums round at the scale of the largest
        # state value (depth), which near-zero momenta do not share.
        assert_matches_sequential(sim.q, ref_q, scheme, rtol=1e-4,
                                  atol=1e-5 * float(np.abs(ref_q).max()))
        assert_matches_sequential(sim.dt_history, ref_dt, scheme,
                                  rtol=1e-5)


class TestKernelForms:
    def test_scalar_vector_flux_agree(self, mesh, rng):
        ks = make_kernels()
        n = 20
        geom = np.zeros((n, 4))
        theta = rng.random(n) * 2 * np.pi
        geom[:, 0] = np.cos(theta)
        geom[:, 1] = np.sin(theta)
        geom[:, 2] = rng.random(n) + 0.5
        geom[:, 3] = (rng.random(n) > 0.7).astype(float)
        q0 = rng.random((n, 4)) * np.array([100, 20, 20, 0]) + \
            np.array([1, 0, 0, -100])
        q1 = rng.random((n, 4)) * np.array([100, 20, 20, 0]) + \
            np.array([1, 0, 0, -100])
        fs = np.zeros((n, 4))
        ss = np.zeros((n, 2))
        fv = np.zeros((n, 4))
        sv = np.zeros((n, 2))
        for i in range(n):
            ks["compute_flux"].scalar(geom[i], q0[i], q1[i], fs[i], ss[i])
        from repro.kernelc import compile_vector, kernel_ir

        compute_flux_vec = compile_vector(
            kernel_ir(ks["compute_flux"]), [True] * 5
        )
        compute_flux_vec(geom, q0, q1, fv, sv)
        np.testing.assert_allclose(fv, fs, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(sv, ss, rtol=1e-12)

    def test_dry_state_velocities_zeroed(self):
        from repro.apps.volna.kernels import _velocities

        u, v = _velocities(0.0, 5.0, -3.0)
        assert u == 0.0 and v == 0.0
        u, v = _velocities(2.0, 4.0, -2.0)
        assert u == 2.0 and v == -1.0

    def test_metadata_matches_table3(self):
        ks = make_kernels()
        assert ks["compute_flux"].info.flops == 154
        assert ks["numerical_flux"].info.flops == 9
        assert ks["space_disc"].info.flops == 23
        assert ks["RK_1"].info.flops == 12
        assert ks["RK_2"].info.flops == 16
        assert ks["sim_1"].info.flops == 0


class TestPrecision:
    def test_single_precision_stable(self, mesh):
        sim = VolnaSim(mesh, dtype=np.float32, runtime=Runtime("vectorized"))
        sim.run(10)
        assert sim.q.dtype == np.float32
        assert np.isfinite(sim.q).all()
        assert (sim.q[:, 0] >= 0).all()
