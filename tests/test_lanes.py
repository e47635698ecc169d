"""Lowering across elements in the generated C — the paper's scheme.

A native loop that writes nothing through a map is one ``omp simd``
loop; one that increments through maps runs in packets of ``PACKET``
elements: gathers and kernel body across the lanes under ``omp simd``,
every store through a map captured in a packet column, then an ordered
scatter applying the columns element by element in program order.
Each lane performs its element's scalar IEEE operations and each target
receives its updates in the sequential order, so native stays bitwise
``Runtime("sequential")``.

* each lane verdict, read from the emitted TU;
* packet edges — sizes around ``PACKET``, a hub, one target twice in a
  row, ``±0.0`` / ``inf`` / ``NaN`` payloads — bitwise vs the
  interpreter, eager and chained;
* the three apps' twins, lowered, bitwise vs sequential eager (the same
  apps at ``OMP_NUM_THREADS`` 1/2/3 are ``tests/test_threads.py``);
* the flag ladder: a compiler rejecting the lane flags builds the same
  source scalar, counted, with the same bits.
"""

import functools
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    INC,
    READ,
    RW,
    WRITE,
    Dat,
    Global,
    Map,
    Runtime,
    Set,
    arg_dat,
    arg_gbl,
    kernel,
    par_loop,
)
from repro.core.access import IDX_ALL, IDX_ID
from repro.kernelc import compiler_available, emit_chain_source
from repro.kernelc import native
from repro.kernelc import build as kc_build
from repro.kernelc.native import PACKET
from repro.testing import spy_chains

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

needs_cc = pytest.mark.skipif(not compiler_available(),
                              reason="no C compiler in this environment")


@kernel("ln_scale")
def ln_scale(a, c, b):
    b[0] = np.sqrt(np.abs(c[0])) / (a[0] + 2.0)


@kernel("ln_copy")
def ln_copy(a, b):
    b[0] = a[0]


@kernel("ln_edge")
def ln_edge(x, d0, d1):
    f = 0.5 * x[0] - x[1]
    d0[0] += f
    d1[0] -= f * x[1]
    d0[1] += np.maximum(f, x[1])


@kernel("ln_vec")
def ln_vec(x, v):
    if x[0] > 0.0:
        v[0][0] += x[0]
    v[1][0] += 2.0 * x[1]
    v[0][1] -= x[0] * x[1]


@kernel("ln_sum")
def ln_sum(a, c, g):
    g[0] += a[0] * c[0]


@kernel("ln_branch")
def ln_branch(x, d0):
    if x[0] > 0.0:
        d0[0] += x[0]


@kernel("ln_rw")
def ln_rw(x, d0):
    d0[0] = d0[0] + x[0]


@kernel("ln_readinc")
def ln_readinc(x, d0, y):
    d0[0] += x[0]
    y[0] = d0[0]


@kernel("ln_selfread")
def ln_selfread(n0, y):
    y[0] = 0.5 * n0[0]


@kernel("ln_scalar")
def ln_scalar(g, h):
    h[0] = g[0] + 1.0


@pytest.fixture(autouse=True)
def small_loops_lowered(monkeypatch):
    """Loops below ``THREAD_MIN_ELEMENTS`` stay scalar (and unthreaded);
    lower it so the twins here take every path."""
    monkeypatch.setattr(native, "THREAD_MIN_ELEMENTS", 1)


def _lanes(build, threads=False):
    """``{kernel: lane verdict}`` of the chain ``build(rt)`` records, and
    its TU."""
    rt = Runtime("sequential")
    chains = spy_chains(rt)
    with rt.chain():
        build(rt)
    (compiled,) = chains
    _, emitters, _ = native._plan_chain(compiled.loops, threads)
    source = emit_chain_source(compiled.loops, threads=threads)
    return {em.bl.kernel.name: str(em.lanes) for em in emitters}, source


def _strip(n_edges, n_cells, seed=0):
    edges, cells = Set(n_edges, "edges"), Set(n_cells, "cells")
    rng = np.random.default_rng(seed)
    values = rng.integers(0, n_cells, (n_edges, 2))
    return edges, cells, Map(edges, cells, 2, values, name="e2c")


class TestVerdicts:
    def test_every_verdict(self):
        edges, cells, e2c = _strip(64, 20)
        x = Dat(edges, 2, np.ones((64, 2)), name="x")
        c = Dat(cells, 2, np.zeros((20, 2)), name="c")
        y = Dat(cells, 1, np.zeros((20, 1)), name="y")
        ye = Dat(edges, 1, np.zeros((64, 1)), name="ye")
        n = Dat(cells, 1, np.ones((20, 1)), name="n")
        g, h = Global(1, name="g"), Global(1, name="h")
        one = Set(1, "one")
        ident = Map(cells, cells, 1, np.arange(20)[:, None], name="id")

        def build(rt):
            par_loop(ln_scale, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(n, 1, e2c, READ),
                     arg_dat(ye, IDX_ID, None, WRITE), runtime=rt)
            par_loop(ln_copy, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(ye, IDX_ID, None, WRITE), runtime=rt)
            par_loop(ln_edge, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(c, 0, e2c, INC), arg_dat(c, 1, e2c, INC),
                     runtime=rt)
            par_loop(ln_vec, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(c, IDX_ALL, e2c, INC), runtime=rt)
            par_loop(ln_sum, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(n, 0, e2c, READ), arg_gbl(g, INC), runtime=rt)
            par_loop(ln_branch, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(y, 0, e2c, INC), runtime=rt)
            par_loop(ln_rw, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(y, 1, e2c, RW), runtime=rt)
            par_loop(ln_readinc, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(y, 0, e2c, INC), arg_dat(ye, IDX_ID, None, WRITE),
                     runtime=rt)
            par_loop(ln_selfread, cells, arg_dat(n, 0, ident, READ),
                     arg_dat(n, IDX_ID, None, WRITE), runtime=rt)
            par_loop(ln_scalar, one, arg_gbl(g, READ), arg_gbl(h, WRITE),
                     runtime=rt)

        lanes, source = _lanes(build)
        assert lanes == {
            "ln_scale": "simd",
            "ln_copy": "scalar: no gather",
            "ln_edge": f"packet({PACKET})",
            # A branch around an accumulator store is lane-private.
            "ln_vec": f"packet({PACKET})",
            "ln_sum": "scalar: reduction across elements",
            "ln_branch": "scalar: store through a map under a branch",
            "ln_rw": "scalar: reads a Dat it writes indirectly",
            "ln_readinc": "scalar: reads a Dat it writes indirectly",
            "ln_selfread": "scalar: reads a Dat it writes, through a map",
            "ln_scalar": "scalar: scalar loop",
        }
        assert source.count("#pragma omp simd") == 3
        assert "omp parallel" not in source
        assert "kc_s2[kc_l] = " in source  # ln_edge's third store
        assert f"kc_v1[4][{PACKET}]" in source  # ln_vec's accumulator
        assert "/* ---- loop 0: ln_scale over [0, 64), simd ---- */" in source

    def test_small_loops_stay_scalar(self, monkeypatch):
        """Below the threshold the TU is the scalar one, byte for byte
        (and is compiled without the lane flags)."""
        edges, cells, e2c = _strip(64, 20)
        x = Dat(edges, 2, np.ones((64, 2)), name="x")
        n = Dat(cells, 1, np.ones((20, 1)), name="n")
        ye = Dat(edges, 1, np.zeros((64, 1)), name="ye")

        def build(rt):
            par_loop(ln_scale, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(n, 0, e2c, READ),
                     arg_dat(ye, IDX_ID, None, WRITE), runtime=rt)

        monkeypatch.setattr(native, "THREAD_MIN_ELEMENTS", 65)
        lanes, source = _lanes(build)
        assert lanes == {"ln_scale": "scalar: 64 elements < 65"}
        assert "omp" not in source
        assert [g[0] for g in kc_build._flag_groups(source)] == []

    def test_reduction_column_is_lane_safe(self):
        """Threaded, a once-per-element reduction goes to a column —
        and the loop to lanes; the fold stays in element order."""
        edges, cells, e2c = _strip(64, 20)
        x = Dat(edges, 2, np.ones((64, 2)), name="x")
        n = Dat(cells, 1, np.ones((20, 1)), name="n")
        g = Global(1, name="g")

        lanes, source = _lanes(lambda rt: par_loop(
            ln_sum, edges, arg_dat(x, IDX_ID, None, READ),
            arg_dat(n, 0, e2c, READ), arg_gbl(g, INC), runtime=rt),
            threads=True)
        assert lanes == {"ln_sum": "simd"}
        assert "kc_loop0_cfold(P, 0, 64);" in source
        assert [g[0] for g in kc_build._flag_groups(source)] == [
            "lanes", "openmp"]


# ----------------------------------------------------------------------
# Bitwise at the packet edges
# ----------------------------------------------------------------------
_SPECIALS = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300, -2.5])


def _same_bits(ref, got):
    """Equal bit for bit, NaNs equal as NaNs (their payloads are the
    hardware's, on every path alike)."""
    ref, got = np.asarray(ref), np.asarray(got)
    nan = np.isnan(ref)
    return (np.array_equal(nan, np.isnan(got))
            and ref[~nan].tobytes() == got[~nan].tobytes())


def _edge_case(backend, n, targets, layout, chained, specials):
    rt = Runtime(backend, layout=layout)
    rng = np.random.default_rng(n)
    edges, cells = Set(n, "edges"), Set(targets.max() + 1, "cells")
    e2c = Map(edges, cells, 2, targets, name="e2c")
    xv = rng.standard_normal((n, 2))
    wv = rng.standard_normal((cells.size, 1))
    if specials:
        xv.flat[:len(_SPECIALS)] = _SPECIALS[:xv.size]
        wv.flat[-len(_SPECIALS):] = _SPECIALS[-wv.size:]
    x = Dat(edges, 2, xv, name="x")
    w = Dat(cells, 1, wv, name="w")
    c = Dat(cells, 2, np.zeros((cells.size, 2)), name="c")
    ye = Dat(edges, 1, np.zeros((n, 1)), name="ye")

    def loops():
        par_loop(ln_scale, edges, arg_dat(x, IDX_ID, None, READ),
                 arg_dat(w, 1, e2c, READ),
                 arg_dat(ye, IDX_ID, None, WRITE), runtime=rt)
        par_loop(ln_edge, edges, arg_dat(x, IDX_ID, None, READ),
                 arg_dat(c, 0, e2c, INC), arg_dat(c, 1, e2c, INC),
                 runtime=rt)
        par_loop(ln_vec, edges, arg_dat(x, IDX_ID, None, READ),
                 arg_dat(c, IDX_ALL, e2c, INC), runtime=rt)

    if chained:
        with rt.chain():
            loops()
    else:
        loops()
    return c.data.copy(), ye.data.copy()


def _maps(n):
    rng = np.random.default_rng(n + 7)
    return {
        "random": rng.integers(0, max(2, n // 3), (n, 2)),
        "hub": np.stack([np.zeros(n, int), rng.integers(0, 5, n)], axis=1),
        "same_twice": np.repeat(rng.integers(0, 6, (n, 1)), 2, axis=1),
    }


@needs_cc
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf - inf
class TestPacketEdgesBitwise:
    @pytest.mark.parametrize("n", [1, PACKET - 1, PACKET, PACKET + 1,
                                   3 * PACKET + 5])
    @pytest.mark.parametrize("shape", ["random", "hub", "same_twice"])
    def test_against_the_interpreter(self, n, shape):
        targets = _maps(n)[shape]
        ref = _edge_case("sequential", n, targets, "aos", False, True)
        for layout in ("aos", "soa"):
            for chained in (False, True):
                got = _edge_case("native", n, targets, layout, chained, True)
                for r, g in zip(ref, got):
                    assert _same_bits(r, g), (layout, chained)


# ----------------------------------------------------------------------
# Scalar loops: vector gathers and writebacks unrolled up to a bound
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _unroll_kernels(arity, dim):
    """Kernels over a vector argument of ``arity`` rows of ``dim``: a
    READ gather, an RW round trip and an INC (the writeback without a
    gather), plus an INC beside a branch-guarded indirect store (lanes
    stay scalar in a threaded owner loop)."""
    from repro.core import Kernel

    def gather(x, w, y):
        acc = 0.0
        for k in range(arity):
            for c in range(dim):
                acc += x[k][c] * w[0]
        y[0] = acc

    def round_trip(w, v):
        for k in range(arity):
            for c in range(dim):
                v[k][c] = v[k][c] * 0.5 + w[0]

    def increment(w, v):
        for k in range(arity):
            for c in range(dim):
                v[k][c] += w[0] * (k + 1.0)

    def guarded(w, s, v):
        if w[0] > 0.0:
            s[0] += w[0]
        for k in range(arity):
            for c in range(dim):
                v[k][c] += w[0] - c

    tag = f"{arity}x{dim}"
    return {f.__name__: Kernel(f"ln_u{f.__name__}_{tag}", f)
            for f in (gather, round_trip, increment, guarded)}


def _unroll_setup(targets, dim, layout="aos", owner=False):
    """Dats over ``targets`` (``(n, arity)``) and ``build(rt)``, which
    records the unroll kernels' loops on ``rt``."""
    n, arity = targets.shape
    k = _unroll_kernels(arity, dim)
    rng = np.random.default_rng(n * arity + dim)
    edges, cells = Set(n, "edges"), Set(int(targets.max()) + 1, "cells")
    e2c = Map(edges, cells, arity, targets, name="e2c")

    def dat(set_, d, values, name):
        return Dat(set_, d, values, name=name, layout=layout)

    x = dat(cells, dim, rng.standard_normal((cells.size, dim)), "x")
    v = dat(cells, dim, rng.standard_normal((cells.size, dim)), "v")
    sc = dat(cells, 1, np.zeros((cells.size, 1)), "s")
    w = dat(edges, 1, rng.standard_normal((n, 1)), "w")
    y = dat(edges, 1, np.zeros((n, 1)), "y")

    def build(rt):
        if owner:
            par_loop(k["guarded"], edges, arg_dat(w, IDX_ID, None, READ),
                     arg_dat(sc, 0, e2c, INC), arg_dat(v, IDX_ALL, e2c, INC),
                     runtime=rt)
            return
        par_loop(k["gather"], edges, arg_dat(x, IDX_ALL, e2c, READ),
                 arg_dat(w, IDX_ID, None, READ),
                 arg_dat(y, IDX_ID, None, WRITE), runtime=rt)
        par_loop(k["round_trip"], edges, arg_dat(w, IDX_ID, None, READ),
                 arg_dat(v, IDX_ALL, e2c, RW), runtime=rt)
        par_loop(k["increment"], edges, arg_dat(w, IDX_ID, None, READ),
                 arg_dat(x, IDX_ALL, e2c, INC), runtime=rt)

    return (x, v, sc, y), build


def _unroll_run(backend, targets, dim, layout="aos", chained=False,
                owner=False):
    """The Dats' values after one run of the unroll loops."""
    dats, build = _unroll_setup(targets, dim, layout, owner)
    rt = Runtime(backend)
    if chained:
        with rt.chain():
            build(rt)
    else:
        build(rt)
    return [d.data.copy() for d in dats]


def _unroll_maps(n, arity):
    rng = np.random.default_rng(n + arity)
    hub = rng.integers(0, 5, (n, arity))
    hub[:, 0] = 0
    return {
        "random": rng.integers(0, max(2, n // 3), (n, arity)),
        "hub": hub,
        "repeated": np.repeat(rng.integers(0, 6, (n, 1)), arity, axis=1),
    }


#: (arity, dim) just below, at and just above the unroll bound.
_AROUND_BOUND = [(5, 3), (8, 2), (17, 1)]


@needs_cc
class TestScalarGatherUnroll:
    @pytest.mark.parametrize("arity,dim", _AROUND_BOUND)
    def test_unrolled_up_to_the_bound(self, arity, dim, monkeypatch):
        monkeypatch.setattr(native, "THREAD_MIN_ELEMENTS", 1 << 20)
        _, build = _unroll_setup(_unroll_maps(40, arity)["random"], dim)
        lanes, source = _lanes(build)
        assert set(lanes.values()) == {"scalar: 40 elements < 1048576"}
        unrolled = arity * dim <= native.UNROLL_MAX_VALUES == 16
        assert ("for (int l = 0;" in source) == (not unrolled)
        assert (f"const i64 kc_r0_{arity - 1} = " in source) == unrolled

    @pytest.mark.parametrize("arity,dim", _AROUND_BOUND)
    @pytest.mark.parametrize("shape", ["random", "hub", "repeated"])
    def test_against_the_interpreter(self, arity, dim, shape, monkeypatch):
        monkeypatch.setattr(native, "THREAD_MIN_ELEMENTS", 1 << 20)
        targets = _unroll_maps(40, arity)[shape]
        ref = _unroll_run("sequential", targets, dim)
        for layout in ("aos", "soa"):
            for chained in (False, True):
                got = _unroll_run("native", targets, dim, layout, chained)
                for r, g in zip(ref, got):
                    assert _same_bits(r, g), (layout, chained)

    @pytest.mark.parametrize("arity,dim", _AROUND_BOUND)
    def test_owner_guarded_writeback(self, arity, dim):
        """Threaded, an owner loop kept scalar guards each unrolled
        row's stores, and keeps the bits."""
        n = 2048  # local enough for owner chunks at every arity
        targets = np.arange(n)[:, None] + np.arange(arity)[None, :]
        _, build = _unroll_setup(targets, dim, owner=True)
        rt = Runtime("sequential")
        chains = spy_chains(rt)
        with rt.chain():
            build(rt)
        (compiled,) = chains
        _, (em,), _ = native._plan_chain(compiled.loops, True)
        assert em.verdict.kind == "owner"
        assert str(em.lanes) == "scalar: store through a map under a branch"
        guard = "if (kc_r2_0 >= kc_lo0 && kc_r2_0 < kc_hi0) {"
        assert (guard in emit_chain_source(compiled.loops)) == (
            arity * dim <= native.UNROLL_MAX_VALUES)
        ref = _unroll_run("sequential", targets, dim, owner=True)
        for layout in ("aos", "soa"):
            got = _unroll_run("native", targets, dim, layout, chained=True,
                              owner=True)
            for r, g in zip(ref, got):
                assert _same_bits(r, g), layout


@needs_cc
def test_app_twins_lowered_bitwise():
    """The apps' native chains take every lowering and keep the bits."""
    from repro.apps.aero import AeroSim
    from repro.apps.airfoil import AirfoilSim
    from repro.apps.volna import VolnaSim
    from repro.mesh import make_airfoil_mesh, make_tri_mesh
    from repro.mesh.renumber import scramble

    def run(backend, chained):
        rt = Runtime(backend)
        air = AirfoilSim(make_airfoil_mesh(24, 12), runtime=rt,
                         chained=chained)
        air.run(2)
        mesh = scramble(scramble(make_tri_mesh(14, 12), "cells", 3),
                        "edges", 4)
        vol = VolnaSim(mesh, runtime=rt, chained=chained)
        vol.run(2)
        aero = AeroSim(make_airfoil_mesh(16, 8), runtime=rt,
                       chained=chained, operator="matfree")
        res = aero.solve(picard=1)
        hist = [c.history for c in res.cg_results]
        return (air.q, air.rms_history, vol.q, aero.phi, hist), rt

    ref, _ = run("sequential", False)
    got, rt = run("native", True)
    assert np.array_equal(ref[0], got[0]) and ref[1] == got[1]
    assert ref[2].tobytes() == got[2].tobytes()
    assert np.array_equal(ref[3], got[3]) and ref[4] == got[4]
    lanes = {(v["kernel"], v["lanes"]) for c in
             rt.stats()["native"]["chains"].values() for v in c}
    for kernel_name, verdict in [
            ("res_calc", f"packet({PACKET})"), ("adt_calc", "simd"),
            ("compute_flux", "simd"), ("space_disc", f"packet({PACKET})"),
            ("matfree_apply_w9", "simd")]:
        assert (kernel_name, verdict) in lanes, kernel_name


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
_LADDER_SCRIPT = r"""
import json
import numpy as np
import repro.kernelc.native as native
from repro.core import Runtime
from repro.mesh import make_airfoil_mesh
from repro.apps.airfoil import AirfoilSim

native.THREAD_MIN_ELEMENTS = 16
rt = Runtime("native")
sim = AirfoilSim(make_airfoil_mesh(24, 12), runtime=rt, chained=True)
sim.run(2)
print(json.dumps({"q": sim.q.tobytes().hex(), "rms": sim.rms_history,
                  "native": {k: rt.stats()["native"][k] for k in
                             ("scalar_builds", "serial_builds", "isa")},
                  "cache": rt.stats()["native_cache"]["failures"]}))
"""


@needs_cc
def test_compiler_rejecting_lane_flags_builds_scalar(tmp_path):
    real = shutil.which("gcc") or shutil.which("cc")
    wrapper = tmp_path / "cc-no-lanes"
    wrapper.write_text(
        "#!/bin/sh\n"
        'for a in "$@"; do\n'
        '  case "$a" in -march=*|-fopenmp-simd)\n'
        '    echo "cc: error: unrecognized option $a" >&2; exit 1;;\n'
        "  esac\n"
        "done\n"
        f'exec "{real}" "$@"\n'
    )
    wrapper.chmod(0o755)
    script = tmp_path / "ladder.py"
    script.write_text(_LADDER_SCRIPT)

    def run(store, **env_extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR
        env["REPRO_CACHE_DIR"] = str(tmp_path / store)
        env.pop("REPRO_NATIVE_DISABLE_CC", None)
        env.update(env_extra)
        proc = subprocess.run([sys.executable, str(script)], env=env,
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr[-3000:]
        return json.loads(proc.stdout.strip().splitlines()[-1])

    lowered = run("lowered")
    scalar = run("scalar", CC=str(wrapper))
    assert lowered["native"]["scalar_builds"] == {}
    (reason,) = scalar["native"]["scalar_builds"]
    assert reason.startswith("no -fopenmp-simd")
    assert scalar["native"]["serial_builds"] == {}
    assert scalar["cache"] == 0
    assert scalar["q"] == lowered["q"] and scalar["rms"] == lowered["rms"]
