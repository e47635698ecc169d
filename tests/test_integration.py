"""Integration tests: whole-application workflows across subsystems."""

import numpy as np
import pytest

from repro.core import (
    INC,
    READ,
    WRITE,
    Dat,
    Map,
    Runtime,
    Set,
    arg_dat,
    kernel,
    make_backend,
    par_loop,
)
from repro.core.access import IDX_ID


class TestEmptyAndTinySets:
    @pytest.mark.parametrize(
        "backend",
        ["sequential", "codegen", "openmp", "vectorized", "simt", "native"],
    )
    def test_empty_set_loop(self, backend):
        s = Set(0, "empty")
        d = Dat(s, 2)

        @kernel("noop")
        def noop(x):
            x[0] = 1.0

        @noop.vectorized
        def noop_vec(x):
            x[:, 0] = 1.0

        rt = Runtime(backend=backend)
        par_loop(noop, s, arg_dat(d, IDX_ID, None, WRITE), runtime=rt)
        assert d.data.size == 0

    @pytest.mark.parametrize(
        "backend", ["sequential", "vectorized", "simt"]
    )
    def test_single_element_set(self, backend):
        s = Set(1, "one")
        t = Set(1, "t")
        m = Map(s, t, 1, np.array([0]), "m")
        d = Dat(t, 1)
        w = Dat(s, 1, [3.0])

        @kernel("one")
        def one(ww, out):
            out[0] += ww[0]

        @one.vectorized
        def one_vec(ww, out):
            out[:, 0] += ww[:, 0]

        rt = Runtime(backend=backend, block_size=16)
        par_loop(one, s, arg_dat(w, IDX_ID, None, READ),
                 arg_dat(d, 0, m, INC), runtime=rt)
        assert d.data[0, 0] == 3.0


class TestErrorPropagation:
    def test_kernel_exception_propagates(self):
        s = Set(4, "s")
        d = Dat(s, 1)

        @kernel("boom")
        def boom(x):
            raise RuntimeError("kernel exploded")

        with pytest.raises(RuntimeError, match="kernel exploded"):
            par_loop(boom, s, arg_dat(d, IDX_ID, None, WRITE),
                     runtime=Runtime("sequential"))

    def test_vector_kernel_exception_propagates(self):
        s = Set(4, "s")
        d = Dat(s, 1)

        @kernel("boomv")
        def boomv(x):
            x[0] = 1.0

        @boomv.vectorized
        def boomv_vec(x):
            raise ValueError("vector form exploded")

        with pytest.raises(ValueError, match="vector form exploded"):
            par_loop(boomv, s, arg_dat(d, IDX_ID, None, WRITE),
                     runtime=Runtime("vectorized"))

    def test_mixed_dtype_dats(self):
        # float32 state + int64 flags in one loop (bres_calc pattern).
        s = Set(5, "s")
        x = Dat(s, 1, np.arange(5), dtype=np.float32)
        flag = Dat(s, 1, np.array([0, 1, 0, 1, 0]).reshape(-1, 1),
                   dtype=np.int64)
        out = Dat(s, 1, dtype=np.float32)

        @kernel("flagged")
        def flagged(xx, ff, oo):
            oo[0] = xx[0] if ff[0] == 1 else -xx[0]

        @flagged.vectorized
        def flagged_vec(xx, ff, oo):
            oo[:, 0] = np.where(ff[:, 0] == 1, xx[:, 0], -xx[:, 0])

        for bk in ("sequential", "vectorized"):
            out.zero()
            par_loop(flagged, s,
                     arg_dat(x, IDX_ID, None, READ),
                     arg_dat(flag, IDX_ID, None, READ),
                     arg_dat(out, IDX_ID, None, WRITE),
                     runtime=Runtime(bk))
            np.testing.assert_allclose(
                out.data.ravel(), [0, 1, -2, 3, -4]
            )
            assert out.dtype == np.float32


class TestLongRunConsistency:
    def test_airfoil_backends_agree_over_many_steps(self):
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh

        mesh = make_airfoil_mesh(12, 6)
        a = AirfoilSim(mesh, runtime=Runtime("vectorized", block_size=64))
        b = AirfoilSim(mesh, runtime=Runtime("simt", block_size=64))
        a.run(15)
        b.run(15)
        np.testing.assert_allclose(a.q, b.q, rtol=1e-8, atol=1e-10)

    def test_volna_backends_agree_over_many_steps(self):
        from repro.apps.volna import VolnaSim
        from repro.mesh import make_tri_mesh

        mesh = make_tri_mesh(8, 6, 100_000.0, 75_000.0)
        a = VolnaSim(mesh, dtype=np.float64,
                     runtime=Runtime("vectorized", block_size=64))
        b = VolnaSim(mesh, dtype=np.float64,
                     runtime=Runtime("openmp", block_size=64))
        a.run(10)
        b.run(10)
        np.testing.assert_allclose(a.q, b.q, rtol=1e-8, atol=1e-10)
        np.testing.assert_allclose(a.dt_history, b.dt_history, rtol=1e-10)


class TestPlanCacheAcrossApps:
    def test_shared_runtime_many_loop_shapes(self):
        """One runtime serving both apps caches plans independently."""
        from repro.apps.airfoil import AirfoilSim
        from repro.apps.volna import VolnaSim
        from repro.mesh import make_airfoil_mesh, make_tri_mesh

        rt = Runtime("vectorized", block_size=64)
        a = AirfoilSim(make_airfoil_mesh(10, 5), runtime=rt)
        v = VolnaSim(make_tri_mesh(6, 4, 100_000.0, 75_000.0),
                     dtype=np.float64, runtime=rt)
        a.run(2)
        v.run(2)
        misses_after_first = rt.plans.misses
        a.run(2)
        v.run(2)
        assert rt.plans.misses == misses_after_first  # all cached
        assert rt.plans.hits > 0


class TestVectorWidthMatrix:
    """Fixed register widths across apps (pre/main/post sweeps)."""

    @pytest.mark.parametrize("vec", [2, 4, 8])
    def test_volna_fixed_width(self, vec):
        from repro.apps.volna import VolnaSim
        from repro.mesh import make_tri_mesh

        mesh = make_tri_mesh(6, 5, 100_000.0, 75_000.0)
        ref = VolnaSim(mesh, dtype=np.float64,
                       runtime=Runtime("sequential"))
        ref.run(2)
        got = VolnaSim(mesh, dtype=np.float64,
                       runtime=Runtime(make_backend("vectorized", vec=vec),
                                       block_size=32))
        got.run(2)
        np.testing.assert_allclose(got.q, ref.q, rtol=1e-10, atol=1e-12)
