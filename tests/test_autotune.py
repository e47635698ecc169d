"""``Runtime("auto")``: a fixed rule, applied when the runtime is built.

The rule is native backend (its vectorized tier when no C compiler
builds), SoA storage unless ``layout=`` is passed, and the drivers'
defaults (chained, untiled).  Aero's ``operator="auto"`` resolves to
matfree on float64 under this runtime only.  Pinned here:

* the rule itself, and that explicit knobs survive it;
* it never changes numerics — ``Runtime("auto")`` is bitwise identical
  to ``Runtime("native")`` with the same layout and dispatch mode, and
  to sequential eager execution where native runs compiled C;
* nothing is probed or persisted for it.
"""

import json

import numpy as np
import pytest

from repro import store
from repro.apps.aero import AeroSim
from repro.apps.airfoil import AirfoilSim
from repro.apps.volna import VolnaSim
from repro.backends.native import NativeBackend
from repro.core import Runtime, make_backend
from repro.kernelc import compiler_available
from repro.mesh import make_airfoil_mesh, make_tri_mesh
from repro.testing import runtime_for
from repro.tune.__main__ import main as tune_main

APPS = ["airfoil", "volna", "aero"]


def _airfoil(runtime, **kw):
    return AirfoilSim(make_airfoil_mesh(16, 8), runtime=runtime, **kw)


def _volna(runtime, **kw):
    return VolnaSim(make_tri_mesh(12, 9, 100_000.0, 75_000.0),
                    dtype=np.float64, runtime=runtime, **kw)


def _aero(runtime, **kw):
    return AeroSim(make_airfoil_mesh(16, 8), runtime=runtime, **kw)


MAKE = {"airfoil": _airfoil, "volna": _volna, "aero": _aero}
#: Time steps per app (aero steps are whole Picard iterations).
STEPS = {"airfoil": 3, "volna": 3, "aero": 2}


def _state(sim):
    """The caller-numbered state and scalar history of one sim."""
    if isinstance(sim, AeroSim):
        return [sim.phi, sim.rho], sim.delta_history
    if isinstance(sim, VolnaSim):
        return [sim.q], sim.dt_history
    return [sim.q], sim.rms_history


def _assert_same(a, b):
    arrays_a, hist_a = _state(a)
    arrays_b, hist_b = _state(b)
    for x, y in zip(arrays_a, arrays_b):
        assert np.array_equal(x, y)
    assert hist_a == hist_b


def _state_layout(sim):
    return sim.state.p_x.layout if hasattr(sim.state, "p_x") \
        else sim.state.q.layout


class TestAutoNeverChangesNumerics:
    """``"auto"`` is bitwise ``"native"`` on the same layout and
    dispatch mode, and bitwise sequential eager wherever native runs
    compiled C (aero everywhere: its folds are canonical on every
    backend, and its matfree ``phi`` equals the assembled one)."""

    @pytest.mark.parametrize("chained", [True, False],
                             ids=["chained", "eager"])
    @pytest.mark.parametrize("layout", ["aos", "soa"])
    @pytest.mark.parametrize("app", APPS)
    def test_auto_equals_native(self, app, layout, chained):
        make, steps = MAKE[app], STEPS[app]
        auto = make(Runtime("auto", layout=layout), chained=chained)
        auto.run(steps)
        # On aero the explicit native runtime runs the assembled
        # oracle while auto runs matfree.
        native = make(Runtime("native", layout=layout), chained=chained)
        native.run(steps)
        _assert_same(auto, native)

    @pytest.mark.parametrize("layout", ["aos", "soa"])
    @pytest.mark.parametrize("app", APPS)
    def test_auto_equals_sequential_eager(self, app, layout):
        if app != "aero" and not compiler_available():
            pytest.skip("the vectorized tier reorders indirect increments")
        make, steps = MAKE[app], STEPS[app]
        auto = make(Runtime("auto", layout=layout))
        auto.run(steps)
        ref = make(Runtime(make_backend("sequential")), chained=False)
        ref.run(steps)
        _assert_same(auto, ref)


class TestTheRule:
    @pytest.mark.parametrize("app", APPS)
    def test_auto_is_native_soa_chained_untiled(self, app, tmp_path,
                                                 monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        rt = Runtime("auto")
        assert isinstance(rt.backend, NativeBackend)
        assert rt.layout == "soa"
        backend = rt.backend
        sim = MAKE[app](rt)
        assert sim.chained is True
        assert sim.tiling is None
        assert _state_layout(sim) == "soa"
        sim.run(1)
        # Nothing is re-applied: a second sim keeps the runtime's
        # backend (and its native program cache).
        MAKE[app](rt).run(1)
        assert rt.backend is backend
        assert rt.stats()["profile"]["chains"]
        # Nothing is persisted for the rule.
        assert not (tmp_path / "tune").exists()
        assert "tune" not in store.SCHEMA_VERSIONS
        assert "tune_cache" not in rt.stats()

    @pytest.mark.parametrize("app", APPS)
    def test_explicit_layout_is_kept(self, app):
        rt = Runtime("auto", layout="aos")
        assert rt.layout == "aos"
        assert isinstance(rt.backend, NativeBackend)
        assert _state_layout(MAKE[app](rt)) == "aos"

    @pytest.mark.parametrize("app", APPS)
    def test_explicit_eager_is_kept(self, app):
        rt = Runtime("auto")
        sim = MAKE[app](rt, chained=False)
        assert sim.chained is False
        sim.run(1)
        assert rt.stats()["profile"]["chains"] == {}

    @pytest.mark.parametrize("app", APPS)
    def test_steps_without_a_compiler(self, app, monkeypatch):
        # No toolchain: native runs its vectorized tier, which is
        # bitwise the vectorized backend on the same layout.
        monkeypatch.setenv("REPRO_NATIVE_DISABLE_CC", "1")
        auto = MAKE[app](Runtime("auto"))
        auto.run(2)
        vec = MAKE[app](Runtime("vectorized", layout="soa"),
                        **({"operator": "matfree"} if app == "aero"
                           else {}))
        vec.run(2)
        for x in _state(auto)[0]:
            assert np.all(np.isfinite(x))
        _assert_same(auto, vec)

    def test_runtime_options_pass_through(self):
        rt = Runtime("auto", block_size=32, scheme="full_permute")
        assert isinstance(rt.backend, NativeBackend)
        assert (rt.block_size, rt.scheme) == (32, "full_permute")
        assert rt.auto and not Runtime("native").auto

    def test_backend_matrix_auto_rows(self):
        # REPRO_BACKEND=auto rows build the rule, keeping their layout.
        for layout, expect in ((None, "soa"), ("aos", "aos")):
            rt = runtime_for("auto", "two_level", {}, layout=layout)
            assert isinstance(rt.backend, NativeBackend)
            assert rt.layout == expect


class TestAeroOperator:
    def test_float64_resolves_to_matfree(self):
        sim = _aero(Runtime("auto"))
        assert sim.operator_mode == "matfree"
        sim.run(2)
        assert sim.state.mat.assemble_calls == 0

    def test_float32_resolves_to_assembled(self):
        sim = _aero(Runtime("auto"), dtype=np.float32)
        assert sim.operator_mode == "assembled"
        assert sim.matfree is None
        sim.run(1)
        assert sim.state.mat.assemble_calls == 1

    def test_explicit_operator_is_kept(self):
        sim = _aero(Runtime("auto"), operator="assembled")
        assert sim.operator_mode == "assembled"
        sim.run(1)
        assert sim.state.mat.assemble_calls == 1


class TestProfileReport:
    def test_report_dumps_the_profile_only(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert tune_main(["report", "--app", "airfoil", "--steps", "1",
                          "--out", str(out)]) == 0
        report = json.loads(out.read_text())
        assert set(report) == {"app", "backend", "steps", "profile"}
        assert report["backend"] == "auto"
        assert report["profile"]["loops"]

    def test_db_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            tune_main(["db"])
