"""The native backend's degradation ladder and on-disk compile cache.

The chain-level native JIT must never be load-bearing for correctness:

* no C compiler (``REPRO_NATIVE_DISABLE_CC=1``, the CI fallback job)
  -> the backend runs the pure vectorized path, bitwise identical;
* a compiler but an un-nativizable loop -> per-chain scalar ascending
  fallback, still bitwise identical, counted in ``fallbacks``;
* a warm on-disk cache -> a *second process* replays the compiled .so
  without ever invoking the compiler (``disk_hits`` > 0, 0 compiles).

It also pins what the backend does *not* do: tile (a tiled request runs
the untiled chain, and no tiled schedule is ever built), keep an eager
caller's Dats alive, or plan a chain twice per build.
"""

import gc
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from repro.apps.aero import AeroSim
from repro.apps.airfoil import AirfoilSim
from repro.apps.volna import VolnaSim
from repro.core import (
    INC,
    READ,
    Dat,
    Runtime,
    Set,
    arg_dat,
    kernel,
    make_backend,
    par_loop,
)
from repro.core.access import IDX_ID
from repro.kernelc import compiler_available, reset_native_cache
from repro.mesh import make_airfoil_mesh, make_tri_mesh
from repro.testing import spy_chains

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


@kernel("nb_scale")
def nb_scale(a, b):
    b[0] += 2.0 * a[0] - 0.5 * a[1]
    b[1] += a[0] * a[1]


@kernel("nb_mixed")
def nb_mixed(a32, b):
    b[0] += a32[0] + 1.0


def _run_chained(backend_name, layout=None, tiling=None):
    rt = Runtime(make_backend(backend_name), layout=layout)
    s1 = Set(24, "nbset")
    rng = np.random.default_rng(7)
    a = Dat(s1, 2, rng.standard_normal((24, 2)), name="nba")
    b = Dat(s1, 2, np.zeros((24, 2)), name="nbb")
    with rt.chain(tiling=tiling):
        par_loop(nb_scale, s1,
                 arg_dat(a, IDX_ID, None, READ),
                 arg_dat(b, IDX_ID, None, INC), runtime=rt)
    return b.data.copy(), rt


class TestCompilerUnavailable:
    def test_backend_constructs_and_matches_sequential(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE_CC", "1")
        reset_native_cache()
        ref, _ = _run_chained("sequential")
        for layout in ("aos", "soa"):
            for tiling in (None, 8):
                got, rt = _run_chained("native", layout=layout,
                                       tiling=tiling)
                assert np.array_equal(ref, got), (layout, tiling)
                s = rt.stats()["native_cache"]
                assert s["compiles"] == 0 and s["failures"] == 0

    def test_disable_env_forces_unavailable(self, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_DISABLE_CC", "1")
        assert not compiler_available()


class TestUnsupportedLoopFallback:
    @pytest.mark.skipif(not compiler_available(),
                        reason="no C compiler in this environment")
    def test_mixed_dtype_chain_falls_back_bitwise(self):
        """float32+float64 args in one kernel are outside the native
        subset; the chain must still run (scalar ascending) and match
        sequential bitwise, with the miss counted."""
        reset_native_cache()

        def run(backend_name):
            rt = Runtime(make_backend(backend_name))
            s1 = Set(16, "mixset")
            rng = np.random.default_rng(3)
            a32 = Dat(s1, 1, rng.standard_normal((16, 1)), np.float32,
                      name="ma")
            b = Dat(s1, 1, np.zeros((16, 1)), name="mb")
            with rt.chain():
                par_loop(nb_mixed, s1,
                         arg_dat(a32, IDX_ID, None, READ),
                         arg_dat(b, IDX_ID, None, INC), runtime=rt)
            return b.data.copy(), rt

        ref, _ = run("sequential")
        got, rt = run("native")
        assert np.array_equal(ref, got)
        s = rt.stats()["native_cache"]
        assert s["fallbacks"] >= 1
        assert s["compiles"] == 0


_CACHE_SCRIPT = """
import json
import numpy as np
from repro.core import Runtime, Set, Dat, arg_dat, kernel, par_loop
from repro.core.access import IDX_ID, READ, INC
from repro.kernelc import native_cache_stats

@kernel("warm_kern")
def warm_kern(a, b):
    b[0] += 3.0 * a[0] + a[1] * a[1]
    b[1] += a[0] - a[1]

rt = Runtime("native")
s1 = Set(32, "warmset")
rng = np.random.default_rng(11)
a = Dat(s1, 2, rng.standard_normal((32, 2)), name="wa")
b = Dat(s1, 2, np.zeros((32, 2)), name="wb")
with rt.chain():
    par_loop(warm_kern, s1,
             arg_dat(a, IDX_ID, None, READ),
             arg_dat(b, IDX_ID, None, INC), runtime=rt)
print(json.dumps({"stats": native_cache_stats(),
                  "checksum": float(b.data.sum())}))
"""


class TestDiskCacheAcrossProcesses:
    @pytest.mark.skipif(not compiler_available(),
                        reason="no C compiler in this environment")
    def test_second_process_skips_the_compiler(self, tmp_path):
        script = tmp_path / "warm.py"
        script.write_text(_CACHE_SCRIPT)
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        env["REPRO_CACHE_DIR"] = str(tmp_path / "cache")
        env.pop("REPRO_NATIVE_DISABLE_CC", None)

        def invoke():
            proc = subprocess.run(
                [sys.executable, str(script)], env=env,
                capture_output=True, text=True, timeout=300,
            )
            assert proc.returncode == 0, proc.stderr
            return json.loads(proc.stdout.strip().splitlines()[-1])

        cold = invoke()
        assert cold["stats"]["compiles"] == 1
        assert cold["stats"]["disk_hits"] == 0
        # Cold process left the artifacts behind...
        assert list((tmp_path / "cache" / "native").rglob("*.so"))
        # ...so an entirely fresh process loads the .so, zero compiles.
        warm = invoke()
        assert warm["stats"]["compiles"] == 0
        assert warm["stats"]["disk_hits"] == 1
        assert warm["checksum"] == cold["checksum"]


# ----------------------------------------------------------------------
# Native never tiles
# ----------------------------------------------------------------------
needs_cc = pytest.mark.skipif(not compiler_available(),
                              reason="no C compiler in this environment")

APPS = {
    "airfoil": lambda rt, **kw: AirfoilSim(make_airfoil_mesh(16, 8),
                                           runtime=rt, **kw),
    "volna": lambda rt, **kw: VolnaSim(make_tri_mesh(10, 8), runtime=rt,
                                       **kw),
    "aero": lambda rt, **kw: AeroSim(make_airfoil_mesh(12, 6), runtime=rt,
                                     **kw),
}


def _states(app, rt, steps=3, **kw):
    """The app's state after each of ``steps`` steps (aero: Picard
    steps, each a CG solve)."""
    sim = APPS[app](rt, **kw)
    out = []
    for _ in range(steps):
        sim.step()
        if app == "aero":
            out.append((sim.phi.copy(), sim.rho.copy()))
        else:
            out.append((sim.q.copy(),))
    return out


@pytest.fixture
def no_inspector(monkeypatch):
    """Any tiled-schedule build fails the test."""
    import repro.tiling
    import repro.tiling.inspector

    def refuse(*args, **kwargs):
        raise AssertionError("the native backend built a tiled schedule")

    monkeypatch.setattr(repro.tiling, "build_tiled_schedule", refuse)
    monkeypatch.setattr(repro.tiling.inspector, "build_tiled_schedule",
                        refuse)


class TestTiledRequestsRunUntiled:
    @pytest.mark.parametrize("app", sorted(APPS))
    @pytest.mark.parametrize("tiling", ["auto", 64])
    def test_bitwise_chained_and_sequential_no_schedule(
            self, app, tiling, no_inspector):
        ref = _states(app, Runtime("sequential"), chained=False)
        chained = _states(app, Runtime("native"), chained=True)
        rt = Runtime("native")
        tiled = _states(app, rt, chained=True, tiling=tiling)
        for t, (want, plain, got) in enumerate(zip(ref, chained, tiled)):
            for a, b, c in zip(want, plain, got):
                assert np.array_equal(a, c), (app, tiling, t + 1)
                assert np.array_equal(b, c), (app, tiling, t + 1)
        profile = rt.stats()["profile"]
        assert profile["chains"]
        assert not any(c["tiled"] for c in profile["chains"].values())
        if app == "aero":
            rep = profile["repeat"]
            assert rep["solves"] >= 3
            if compiler_available():
                assert rep["fallbacks"] == {}
                assert rep["native_calls"] == rep["solves"]
            else:
                assert rep["fallbacks"] == {"no compiler": rep["solves"]}

    def test_vectorized_still_tiles(self):
        """The lazy schedule is built when a tiling backend asks."""
        rt = Runtime("vectorized")
        chains = spy_chains(rt)
        sim = APPS["airfoil"](rt, chained=True, tiling="auto")
        sim.step()
        (compiled,) = chains
        assert compiled.tiled_built
        profile = rt.stats()["profile"]
        assert all(c["tiled"] for c in profile["chains"].values())


@needs_cc
class TestEagerProgramsHoldNoDats:
    def test_first_sims_dats_are_collected(self):
        rt = Runtime("native")
        sim = APPS["airfoil"](rt, chained=False)
        sim.run(1)
        assert rt.backend._programs
        dead = weakref.ref(sim.state.p_q)
        del sim
        gc.collect()
        assert dead() is None
        # A second sim replays the cached programs over its own Dats.
        got = _states("airfoil", rt, steps=2, chained=False)
        want = _states("airfoil", Runtime("vectorized"), steps=2,
                       chained=False)
        for (a,), (b,) in zip(got, want):
            assert np.array_equal(a, b)


def _aero_run(rt, mesh, chained=True):
    """A fresh matrix-free AeroSim on ``mesh``, two Picard steps:
    ``(sim, phi, rho, CG histories)``."""
    sim = AeroSim(mesh, runtime=rt, chained=chained, operator="matfree",
                  cg_tol=1e-9)
    res = sim.solve(picard=2)
    return sim, sim.phi.copy(), sim.rho.copy(), \
        [c.history for c in res.cg_results]


def _same_run(a, b):
    return (np.array_equal(a[1], b[1]) and np.array_equal(a[2], b[2])
            and a[3] == b[3])


class _Spies:
    """Counts of the set-up a fresh sim should not redo."""

    def __init__(self, monkeypatch):
        import inspect

        from repro.apps.aero import driver
        from repro.core import mat
        from repro.kernelc import cache, native
        from repro.store import keys

        self.calls = {}

        def spy(owner, name, label=None, when=lambda *a: True):
            real = getattr(owner, name)

            def counted(*args, **kwargs):
                if when(*args):
                    key = label or name
                    self.calls[key] = self.calls.get(key, 0) + 1
                return real(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        spy(native, "emit_chain_source", "emit")
        spy(native, "load_native_library", "load")
        spy(cache, "parse_kernel", "parse")
        spy(inspect, "getsource")
        spy(keys, "digest", "map hash", when=lambda *a: a[0] == "map")
        spy(mat.Sparsity, "__init__", "sparsity")
        spy(mat.Sparsity, "solver_view", "solver view",
            when=lambda sp: sp._solver_view is None)
        spy(driver, "element_quadrature_tables", "quadrature")


@needs_cc
class TestFreshSimReuse:
    """A fresh sim on a warm runtime rebuilds nothing its mesh already
    determines, and shares no program with a sim on another mesh."""

    def test_second_aero_sim_builds_nothing(self, monkeypatch):
        from repro.kernelc import native_cache_stats

        mesh = make_airfoil_mesh(16, 8)
        rt = Runtime("native")
        first = _aero_run(rt, mesh)
        spies = _Spies(monkeypatch)
        before = native_cache_stats()
        second = _aero_run(rt, mesh)
        after = native_cache_stats()
        assert spies.calls == {}
        for counter in ("compiles", "disk_hits", "mem_hits", "failures"):
            assert after[counter] == before[counter], counter
        assert after["program_hits"] > before["program_hits"]
        chains = rt.stats()["native"]["chains"]
        assert chains and all(loop["program"] == "reused"
                              for loops in chains.values() for loop in loops)
        assert first[0].state.mat._sparsity is second[0].state.mat._sparsity
        assert first[0].matfree.row2elem is second[0].matfree.row2elem
        # The same bits as the first sim and as the interpreter.
        assert _same_run(first, second)
        assert _same_run(
            first, _aero_run(Runtime("sequential"), mesh, chained=False)
        )

    def test_other_meshes_and_apps_get_their_own_programs(self):
        from repro.kernelc import native_cache_stats

        def loads():  # programs built: each loads a library
            s = native_cache_stats()
            return s["compiles"] + s["disk_hits"] + s["mem_hits"]

        rt = Runtime("native")
        _aero_run(rt, make_airfoil_mesh(16, 8))
        # Programs are keyed by map identity: a fresh mesh of the first
        # one's dimensions builds its own, from a library of the same
        # source — loaded from memory, never compiled again.
        for dims, compiles in (((18, 8), True), ((16, 8), False)):
            mesh = make_airfoil_mesh(*dims)
            before, compiled = loads(), native_cache_stats()["compiles"]
            got = _aero_run(rt, mesh)
            assert loads() > before, dims
            assert (native_cache_stats()["compiles"] > compiled) \
                == compiles, dims
            assert _same_run(
                got, _aero_run(Runtime("sequential"), mesh, chained=False)
            )
        before = loads()
        got = _states("airfoil", rt, chained=True)
        assert loads() > before
        want = _states("airfoil", Runtime("sequential"), chained=False)
        assert all(np.array_equal(a, b) for (a,), (b,) in zip(got, want))

    def test_structural_caches_pin_no_sim_dat(self):
        mesh = make_airfoil_mesh(16, 8)
        rt = Runtime("native")
        sim = _aero_run(rt, mesh)[0]
        dead = [weakref.ref(d) for d in (
            sim.state.p_phi, sim.state.p_rho, sim.state.mat.values,
            sim.matfree.coeffs_bc, sim.matfree.quad, sim.matfree.geom,
        )]
        del sim
        gc.collect()
        assert all(ref() is None for ref in dead)
        # What stays is the mesh's and the runtime's: a fresh sim still
        # reuses it.
        again = _aero_run(rt, mesh)
        assert rt.stats()["native_cache"]["program_hits"] > 0
        assert again[0].state.mat._sparsity is not None


@needs_cc
class TestChainPlannedOnce:
    def test_build_classifies_each_loop_once(self, monkeypatch):
        from repro.kernelc import native

        rt = Runtime("vectorized")
        chains = spy_chains(rt)
        sim = APPS["airfoil"](rt, chained=True)
        sim.step()
        (compiled,) = chains
        loops = compiled.loops
        calls = []
        classify = native._LoopEmitter.classify

        def counted(self, ptab):
            calls.append(self.j)
            return classify(self, ptab)

        monkeypatch.setattr(native._LoopEmitter, "classify", counted)
        program = native.build_chain_program(loops)
        assert calls == list(range(len(loops)))
        # The planned build emits the same bytes as a fresh emission.
        assert program.source == native.emit_chain_source(loops)
