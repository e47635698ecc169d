"""Tests for runtime configuration, the default runtime, and the CLI."""

import numpy as np
import pytest

from repro.core import (
    READ,
    WRITE,
    Dat,
    Runtime,
    Set,
    arg_dat,
    default_runtime,
    kernel,
    make_backend,
    par_loop,
    set_backend,
)
from repro.core.access import IDX_ID


class TestRuntimeConfig:
    def test_backend_by_name_or_instance(self):
        rt = Runtime(backend="sequential")
        assert rt.backend.name == "sequential"
        rt2 = Runtime(backend=make_backend("simt", device="phi"))
        assert rt2.backend.device == "phi"

    def test_configure_updates_in_place(self):
        rt = Runtime(backend="sequential", block_size=64)
        rt.configure(backend="vectorized", block_size=32,
                     scheme="full_permute")
        assert rt.backend.name == "vectorized"
        assert rt.block_size == 32
        assert rt.scheme == "full_permute"

    def test_configure_coloring_method_clears_plans(self):
        rt = Runtime(backend="vectorized")
        s = Set(8, "s")
        d = Dat(s, 1)

        @kernel("touch")
        def touch(x):
            x[0] = 1.0

        par_loop(touch, s, arg_dat(d, IDX_ID, None, WRITE), runtime=rt)
        assert len(rt.plans) == 1
        rt.configure(coloring_method="greedy")
        assert len(rt.plans) == 0

    def test_default_runtime_and_set_backend(self):
        original = default_runtime().backend
        try:
            rt = set_backend("sequential")
            assert rt is default_runtime()
            assert default_runtime().backend.name == "sequential"
            set_backend("vectorized", vec=4)
            assert default_runtime().backend.vec == 4
        finally:
            default_runtime().configure(backend=original)

    def test_par_loop_uses_default_runtime(self):
        s = Set(5, "s")
        a = Dat(s, 1, np.arange(5.0))
        b = Dat(s, 1)

        @kernel("copy1")
        def copy1(x, y):
            y[0] = x[0]

        @copy1.vectorized
        def copy1_vec(x, y):
            y[:, 0] = x[:, 0]

        par_loop(copy1, s, arg_dat(a, IDX_ID, None, READ),
                 arg_dat(b, IDX_ID, None, WRITE))
        np.testing.assert_array_equal(b.data, a.data)

    def test_invalid_backend_options(self):
        with pytest.raises(ValueError):
            make_backend("vectorized", vec=0)
        with pytest.raises(ValueError):
            make_backend("simt", device="tpu")


class TestBenchCLI:
    def test_single_artifact(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        rc = main(["table1", "--outdir", str(tmp_path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert (tmp_path / "table1.txt").exists()
        assert (tmp_path / "table1.json").exists()

    def test_figure_artifact(self, tmp_path, capsys):
        from repro.bench.__main__ import main

        rc = main(["figure9", "--outdir", str(tmp_path)])
        assert rc == 0
        assert (tmp_path / "figure9.txt").exists()

    def test_unknown_artifact_rejected(self, tmp_path):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit):
            main(["table42", "--outdir", str(tmp_path)])


class TestMeshIOErrors:
    def test_version_mismatch_rejected(self, tmp_path):
        import numpy as np

        from repro.mesh import load_mesh, make_tri_mesh, save_mesh

        p = tmp_path / "m.npz"
        save_mesh(make_tri_mesh(2, 2), p)
        # Corrupt the version field.
        with np.load(p, allow_pickle=True) as blob:
            payload = {k: blob[k] for k in blob.files}
        payload["version"] = np.array(999)
        np.savez_compressed(p, **payload)
        with pytest.raises(ValueError, match="version"):
            load_mesh(p)


class TestKernelAPI:
    def test_kernel_call_invokes_scalar(self):
        from repro.core import Kernel

        seen = []
        k = Kernel("probe", lambda x: seen.append(x))
        k(42)
        assert seen == [42]

    def test_kernel_validation(self):
        from repro.core import Kernel

        with pytest.raises(TypeError):
            Kernel("bad", scalar=123)
        with pytest.raises(TypeError):
            Kernel("bad", scalar=lambda: None, vector=5)

    def test_decorator_metadata(self):
        @kernel("meta", flops=7, transcendentals=2,
                description="demo", vectorizable_simt=False)
        def meta(x):
            pass

        assert meta.info.flops == 7
        assert meta.info.transcendentals == 2
        assert meta.info.description == "demo"
        assert not meta.vectorizable_simt
        # The batched form is *derived* from the scalar source now
        # (repro.kernelc); no hand-written vector form is attached.
        assert meta.vector is None
        assert meta.has_vector_form

        @meta.vectorized
        def meta_vec(x):
            pass

        assert meta.has_vector_form
        assert meta.vector is meta_vec

    def test_has_vector_form_tracks_vectorizability(self):
        # Kernels outside the kernelc IR subset have no derivable
        # batched form and report has_vector_form=False.
        @kernel("opaque")
        def opaque(x):
            while x[0] > 0.0:  # data-dependent loop: not vectorizable
                x[0] -= 1.0

        assert not opaque.has_vector_form


class TestKernelStats:
    """``stats()["kernels"]`` is the per-kernel accounting surface (OP2's
    ``op_timing_output``): calls, seconds and elements per kernel."""

    def test_stats_list_all_kernels(self):
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh

        rt = Runtime("vectorized", block_size=64)
        mesh = make_airfoil_mesh(10, 5)
        AirfoilSim(mesh, runtime=rt).run(2)
        kernels = rt.stats()["kernels"]
        # One save_soln per step, then two inner iterations of the rest.
        expected = {"save_soln": (2, mesh.cells), "adt_calc": (4, mesh.cells),
                    "res_calc": (4, mesh.edges), "bres_calc": (4, mesh.bedges),
                    "update": (4, mesh.cells)}
        assert set(kernels) == set(expected)
        for name, (calls, set_) in expected.items():
            assert kernels[name].calls == calls, name
            assert kernels[name].elements == calls * set_.size, name
            assert kernels[name].elapsed > 0.0, name

    def test_stats_empty_runtime(self):
        assert Runtime("sequential").stats()["kernels"] == {}
