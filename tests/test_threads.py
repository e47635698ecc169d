"""Owner-computes threads in the generated C.

A native chain TU with a loop of at least ``THREAD_MIN_ELEMENTS``
elements runs each such loop on an OpenMP team: direct loops over
contiguous element chunks, indirect-increment loops over a fixed number
of *owner chunks* — each runs, in ascending order, every element that
touches a target it owns and applies only its owned stores.  Every
target therefore receives its updates in the sequential order, so the
result is bitwise the sequential interpreter's at any team size.

* ``owner_ranges`` properties (hypothesis): coverage, order,
  exactly-once, on adversarial maps;
* each classification verdict, read from the emitted TU;
* whole apps in subprocesses at ``OMP_NUM_THREADS`` 1, 2 and 3 — the
  same ``.so``, the same bits as ``Runtime("sequential")`` eager;
* the degradation ladder: a compiler that rejects ``-fopenmp``, a
  non-local numbering.
"""

import hashlib
import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.core.plan import owner_ranges
from repro.kernelc import compiler_available, emit_chain_source
from repro.kernelc import native

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

needs_cc = pytest.mark.skipif(not compiler_available(),
                              reason="no C compiler in this environment")


# ----------------------------------------------------------------------
# owner_ranges: every target's updates, in order, exactly once
# ----------------------------------------------------------------------
def _replay_log(racing, n, start, bounds=None):
    """Per target, the ``(element, column)`` stores in the order they
    are applied: sequentially, or by each owner chunk of ``bounds``
    running its range ascending and keeping only its owned targets."""
    log = defaultdict(list)
    cols = [(m, i) for m, index in racing
            for i in (range(m.arity) if index == IDX_ALL else (index,))]
    if bounds is None:
        for e in range(start, n):
            for m, i in cols:
                log[(m.to_set.name, int(m.values[e, i]))].append((e, m.name, i))
        return log
    k = len(bounds)
    for c, (lo, hi) in enumerate(bounds):
        for e in range(lo, hi):
            for m, i in cols:
                extent = m.to_set.size
                t = int(m.values[e, i])
                if c * extent // k <= t < (c + 1) * extent // k:
                    log[(m.to_set.name, t)].append((e, m.name, i))
    return log


def _assert_owner_exact(racing, n, start, k):
    facet = owner_ranges(racing, n, start, k)
    assert facet.bounds.shape == (k, 2)
    assert facet.bounds.dtype == np.int64
    lo, hi = facet.bounds[:, 0], facet.bounds[:, 1]
    assert np.all(lo <= hi)
    assert np.all((lo >= start) & (hi <= max(n, start)) | (lo == hi))
    assert _replay_log(racing, n, start, facet.bounds) == \
        _replay_log(racing, n, start)
    if n > start:
        assert facet.dup >= 1.0
    return facet


@st.composite
def _maps(draw):
    n_targets = draw(st.integers(1, 40))
    n = draw(st.integers(0, 50))
    arity = draw(st.integers(1, 3))
    values = draw(st.lists(st.integers(0, n_targets - 1),
                           min_size=n * arity, max_size=n * arity))
    src, dst = Set(n, "src"), Set(n_targets, "dst")
    m = Map(src, dst, arity,
            np.array(values, dtype=np.int64).reshape(n, arity), name="m")
    index = draw(st.sampled_from([IDX_ALL, *range(arity)]))
    start = draw(st.integers(0, n))
    return m, index, n, start


class TestOwnerRanges:
    @settings(max_examples=150, deadline=None)
    @given(_maps(), st.integers(1, 48))
    def test_every_update_once_in_order(self, drawn, k):
        m, index, n, start = drawn
        _assert_owner_exact([(m, index)], n, start, k)

    def test_more_chunks_than_targets(self):
        src, dst = Set(6, "src"), Set(3, "dst")
        m = Map(src, dst, 2, [[0, 1], [1, 2], [2, 0], [0, 0], [1, 1],
                              [2, 2]], name="m")
        facet = _assert_owner_exact([(m, IDX_ALL)], 6, 0, 16)
        empty = facet.bounds[:, 0] == facet.bounds[:, 1]
        assert empty.sum() >= 16 - 3

    def test_row_naming_one_target_twice(self):
        src, dst = Set(5, "src"), Set(5, "dst")
        m = Map(src, dst, 2, [[0, 0], [1, 1], [3, 3], [2, 4], [4, 4]],
                name="m")
        _assert_owner_exact([(m, IDX_ALL)], 5, 0, 4)

    def test_max_degree_hub(self):
        n = 64
        src, dst = Set(n, "src"), Set(n, "dst")
        values = np.stack([np.zeros(n, int), np.arange(n)], axis=1)
        m = Map(src, dst, 2, values, name="hub")
        facet = _assert_owner_exact([(m, IDX_ALL)], n, 0, 8)
        # Target 0's owner runs every element.
        assert tuple(facet.bounds[0]) == (0, n)

    def test_two_maps_into_two_sets(self):
        rng = np.random.default_rng(5)
        src, a, b = Set(40, "src"), Set(30, "a"), Set(7, "b")
        ma = Map(src, a, 2, np.sort(rng.integers(0, 30, (40, 2)), axis=0),
                 name="ma")
        mb = Map(src, b, 1, rng.integers(0, 7, (40, 1)), name="mb")
        _assert_owner_exact([(ma, 0), (ma, 1), (mb, 0)], 40, 3, 5)

    def test_int32_boundary_targets(self):
        top = np.iinfo(np.int32).max
        src, dst = Set(5, "src"), Set(top, "dst")
        values = np.array([[top - 1, 0], [top - 2, top - 1], [1, 2],
                           [top // 2, top // 2 + 1], [top - 1, top - 1]])
        m = Map(src, dst, 2, values, name="big")
        assert m.values.dtype == np.int32
        _assert_owner_exact([(m, IDX_ALL)], 5, 0, 16)

    def test_facet_is_cached_on_the_plan(self):
        rng = np.random.default_rng(2)
        rt = Runtime("sequential")
        src, dst = Set(30, "src"), Set(12, "dst")
        m = Map(src, dst, 2, rng.integers(0, 12, (30, 2)), name="m")
        d = Dat(dst, 1, np.zeros((12, 1)), name="d")
        x = Dat(src, 1, np.ones((30, 1)), name="x")
        args = [arg_dat(x, IDX_ID, None, READ), arg_dat(d, 0, m, INC)]
        plan = rt.plan_for(th_inc0, src, args)
        first = plan.owner_ranges(16, 30)
        assert plan.owner_ranges(16, 30) is first
        assert rt.stats()["native"]["owner_facets"] == 1


# ----------------------------------------------------------------------
# Classification, read from the emitted TU
# ----------------------------------------------------------------------
@kernel("th_scale")
def th_scale(a, b):
    b[0] = 2.0 * a[0]


@kernel("th_inc0")
def th_inc0(x, d):
    d[0] += x[0]


@kernel("th_edge")
def th_edge(x, d0, d1):
    f = 0.5 * x[0]
    d0[0] += f
    d1[0] -= f


@kernel("th_vec")
def th_vec(x, v):
    v[0][0] += x[0]
    v[1][0] += 2.0 * x[0]


@kernel("th_sum")
def th_sum(a, g):
    g[0] += a[0] * a[0]


@kernel("th_sum_twice")
def th_sum_twice(a, g):
    for k in range(2):
        g[0] += a[0] + k


@kernel("th_edge_sum")
def th_edge_sum(x, d0, g):
    d0[0] += x[0]
    g[0] += x[0]


@kernel("th_mixed")
def th_mixed(x, d0, y):
    d0[0] += x[0]
    y[0] = x[0]


@kernel("th_rw")
def th_rw(x, d0):
    d0[0] = d0[0] + x[0]


@kernel("th_selfread")
def th_selfread(n0, y):
    y[0] = 0.5 * n0[0]


@kernel("th_scalar")
def th_scalar(g, h):
    h[0] = g[0] + 1.0


N_CELLS = 256
N_EDGES = 2 * N_CELLS


def _mesh(local=True):
    """A strip: edge e joins cells e // 2 and e // 2 + 1 (clipped)."""
    edges, cells = Set(N_EDGES, "edges"), Set(N_CELLS, "cells")
    c0 = np.arange(N_EDGES) // 2
    values = np.stack([c0, np.minimum(c0 + 1, N_CELLS - 1)], axis=1)
    if not local:
        values = np.random.default_rng(0).permutation(N_CELLS)[values]
    return edges, cells, Map(edges, cells, 2, values, name="e2c")


def _verdicts(monkeypatch, build, threshold=16):
    """``{kernel: verdict}`` from the TU comments of the chain
    ``build(rt)`` records."""
    monkeypatch.setattr(native, "THREAD_MIN_ELEMENTS", threshold)
    rt = Runtime("sequential")
    with rt.chain():
        build(rt)
    (compiled,) = rt._chains.values()
    source = emit_chain_source(compiled.loops)
    out = {}
    for line in source.splitlines():
        if line.startswith("    /* loop ") and ", " in line:
            name, verdict = line[len("    /* loop "):-3].split(": ", 1)[1] \
                .split(", ", 1)
            out[name] = verdict
    return out, source


class TestClassification:
    def test_direct_owner_and_guards(self, monkeypatch):
        edges, cells, e2c = _mesh()
        x = Dat(edges, 1, np.ones((N_EDGES, 1)), name="x")
        c = Dat(cells, 1, np.zeros((N_CELLS, 1)), name="c")
        y = Dat(cells, 1, np.zeros((N_CELLS, 1)), name="y")

        def build(rt):
            par_loop(th_edge, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(c, 0, e2c, INC), arg_dat(c, 1, e2c, INC),
                     runtime=rt)
            par_loop(th_scale, cells, arg_dat(c, IDX_ID, None, READ),
                     arg_dat(y, IDX_ID, None, WRITE), runtime=rt)
            par_loop(th_vec, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(y, IDX_ALL, e2c, INC), runtime=rt)

        verdicts, source = _verdicts(monkeypatch, build)
        assert verdicts == {"th_edge": "owner", "th_scale": "direct",
                            "th_vec": "owner"}
        assert "#pragma omp parallel" in source
        assert "#pragma omp for schedule(dynamic, 1)" in source
        assert f"kc_lo0 = kc_c * {N_CELLS} / kc_k" in source
        assert "if (i1 >= kc_lo0 && i1 < kc_hi0) d" in source
        assert "if (!(r >= kc_lo0 && r < kc_hi0)) continue;" in source
        assert "owner ranges: 16 x (lo, hi)" in source

    def test_below_threshold_tu_has_no_openmp(self, monkeypatch):
        edges, cells, e2c = _mesh()
        x = Dat(edges, 1, np.ones((N_EDGES, 1)), name="x")
        c = Dat(cells, 1, np.zeros((N_CELLS, 1)), name="c")

        def build(rt):
            par_loop(th_inc0, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(c, 0, e2c, INC), runtime=rt)

        verdicts, source = _verdicts(monkeypatch, build,
                                     threshold=native.THREAD_MIN_ELEMENTS)
        assert verdicts == {}
        assert "omp" not in source and "kc_threads" not in source

    def test_serial_reasons(self, monkeypatch):
        edges, cells, e2c = _mesh()
        x = Dat(edges, 1, np.ones((N_EDGES, 1)), name="x")
        c = Dat(cells, 1, np.zeros((N_CELLS, 1)), name="c")
        ye = Dat(edges, 1, np.zeros((N_EDGES, 1)), name="ye")
        n = Dat(cells, 1, np.ones((N_CELLS, 1)), name="n")
        g = Global(1, name="g")
        h = Global(1, name="h")
        one = Set(1, "one")

        def build(rt):
            par_loop(th_mixed, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(c, 0, e2c, INC),
                     arg_dat(ye, IDX_ID, None, WRITE), runtime=rt)
            par_loop(th_rw, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(c, 0, e2c, RW), runtime=rt)
            par_loop(th_edge_sum, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(c, 1, e2c, INC), arg_gbl(g, INC), runtime=rt)
            par_loop(th_sum_twice, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_gbl(g, INC), runtime=rt)
            par_loop(th_selfread, cells, arg_dat(n, 0, _self_map(cells),
                                                 READ),
                     arg_dat(n, IDX_ID, None, WRITE), runtime=rt)
            par_loop(th_scalar, one, arg_gbl(g, READ), arg_gbl(h, WRITE),
                     runtime=rt)
            # One threaded loop: an all-serial chain emits no team.
            par_loop(th_scale, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(ye, IDX_ID, None, WRITE), runtime=rt)

        verdicts, _ = _verdicts(monkeypatch, build)
        assert verdicts == {
            "th_scale": "direct",
            "th_mixed": "serial: direct and indirect writes",
            "th_rw": "serial: reads a Dat it writes indirectly",
            "th_edge_sum": "serial: reduction in an owner loop",
            "th_sum_twice": "serial: reduction not once per element",
            "th_selfread": "serial: reads a Dat it writes, through a map",
            "th_scalar": "serial: scalar loop",
        }

    def test_reduction_column_and_size_threshold(self, monkeypatch):
        edges, cells, e2c = _mesh()
        x = Dat(edges, 1, np.ones((N_EDGES, 1)), name="x")
        c = Dat(cells, 1, np.zeros((N_CELLS, 1)), name="c")
        g = Global(1, name="g")

        def build(rt):
            par_loop(th_sum, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_gbl(g, INC), runtime=rt)
            par_loop(th_scale, cells, arg_dat(c, IDX_ID, None, READ),
                     arg_dat(c, IDX_ID, None, RW), runtime=rt)

        verdicts, source = _verdicts(monkeypatch, build,
                                     threshold=N_CELLS + 1)
        assert verdicts == {
            "th_sum": "direct",
            "th_scale": f"serial: {N_CELLS} elements < {N_CELLS + 1}",
        }
        assert "reduction column 0 (double)" in source
        assert "kc_loop0_cfold(P, 0, %d);" % N_EDGES in source

    def test_non_local_numbering_stays_serial(self, monkeypatch):
        edges, cells, e2c = _mesh(local=False)
        x = Dat(edges, 1, np.ones((N_EDGES, 1)), name="x")
        c = Dat(cells, 1, np.zeros((N_CELLS, 1)), name="c")

        y = Dat(cells, 1, np.zeros((N_CELLS, 1)), name="y")

        def build(rt):
            par_loop(th_inc0, edges, arg_dat(x, IDX_ID, None, READ),
                     arg_dat(c, 0, e2c, INC), runtime=rt)
            par_loop(th_scale, cells, arg_dat(c, IDX_ID, None, READ),
                     arg_dat(y, IDX_ID, None, WRITE), runtime=rt)

        verdicts, _ = _verdicts(monkeypatch, build)
        assert verdicts == {"th_inc0": "serial: non-local",
                            "th_scale": "direct"}


def _self_map(cells):
    return Map(cells, cells, 1, np.arange(cells.size)[:, None], name="id")


# ----------------------------------------------------------------------
# Whole apps at several team sizes, in fresh processes
# ----------------------------------------------------------------------
#: Thresholds lowered so twins a sequential reference can afford run
#: every verdict (owner chunks included); the last case keeps the
#: shipped thresholds on a mesh above them.
_APPS_SCRIPT = r"""
import hashlib, json, sys
import numpy as np
import repro.kernelc.native as native
from repro.core import Runtime
from repro.mesh import make_airfoil_mesh, make_tri_mesh
from repro.mesh.renumber import scramble
from repro.apps.aero import AeroSim
from repro.apps.airfoil import AirfoilSim
from repro.apps.volna import VolnaSim

def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()

out = {}
rt = Runtime("native")
big = AirfoilSim(make_airfoil_mesh(260, 130), runtime=rt, chained=True)
big.run(1)
eager = AirfoilSim(make_airfoil_mesh(260, 130), runtime=Runtime("native"),
                   chained=False)
eager.run(1)
out["large_equal"] = bool(np.array_equal(big.q, eager.q)
                          and big.rms_history == eager.rms_history)
out["large_verdicts"] = sorted({v["verdict"].split("(")[0] for c in
    rt.stats()["native"]["chains"].values() for v in c})
out["large_elements"] = rt.stats()["kernels"]["res_calc"].elements
out["large_edges"] = big.mesh.summary()["edges"]
out["owner_facet_ms"] = rt.stats()["native"]["owner_facet_ms"]

native.THREAD_MIN_ELEMENTS = 16
native.OWNER_MAX_DUP = float("inf")
rt = Runtime("native")
sim = AirfoilSim(make_airfoil_mesh(24, 12), runtime=rt, chained=True)
sim.run(3)
out["airfoil"] = digest(sim.q, np.array(sim.rms_history))
mesh = scramble(scramble(make_tri_mesh(14, 12), "cells", 3), "edges", 4)
sim = VolnaSim(mesh, runtime=rt, chained=True)
sim.run(3)
out["volna"] = digest(sim.q)
sim = AeroSim(make_airfoil_mesh(16, 8), runtime=rt, chained=True,
              operator="matfree")
res = sim.solve(picard=1)
out["aero"] = digest(sim.phi, np.array([c.history for c in res.cg_results]))
stats = rt.stats()
out["repeat"] = stats["profile"]["repeat"]
out["verdicts"] = sorted({v["verdict"].split("(")[0] for c in
    stats["native"]["chains"].values() for v in c})
out["threads"] = stats["native"]["threads"]
out["serial_builds"] = stats["native"]["serial_builds"]
out["cache"] = {k: stats["native_cache"][k] for k in ("compiles",
                                                        "disk_hits")}
print(json.dumps(out))
"""


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def sequential_refs():
    """The apps of ``_APPS_SCRIPT``, sequential and eager."""
    from repro.apps.aero import AeroSim
    from repro.apps.airfoil import AirfoilSim
    from repro.apps.volna import VolnaSim
    from repro.mesh import make_airfoil_mesh, make_tri_mesh
    from repro.mesh.renumber import scramble

    rt = Runtime("sequential")
    out = {}
    sim = AirfoilSim(make_airfoil_mesh(24, 12), runtime=rt, chained=False)
    sim.run(3)
    out["airfoil"] = _digest(sim.q, np.array(sim.rms_history))
    mesh = scramble(scramble(make_tri_mesh(14, 12), "cells", 3), "edges", 4)
    sim = VolnaSim(mesh, runtime=rt, chained=False)
    sim.run(3)
    assert sim.q.dtype == np.float32
    out["volna"] = _digest(sim.q)
    sim = AeroSim(make_airfoil_mesh(16, 8), runtime=rt, chained=False,
                  operator="matfree")
    res = sim.solve(picard=1)
    out["aero"] = _digest(sim.phi,
                          np.array([c.history for c in res.cg_results]))
    return out


def _run_script(script, tmp_path, **env_extra):
    path = tmp_path / "apps.py"
    path.write_text(script)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC_DIR
    env["REPRO_CACHE_DIR"] = str(tmp_path / "store")
    env.pop("REPRO_NATIVE_DISABLE_CC", None)
    env.update(env_extra)
    proc = subprocess.run([sys.executable, str(path)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@needs_cc
class TestBitwiseAtAnyTeamSize:
    def test_one_two_three_threads(self, sequential_refs, tmp_path):
        runs = {
            t: _run_script(_APPS_SCRIPT, tmp_path, OMP_NUM_THREADS=str(t))
            for t in (1, 2, 3)
        }
        for t, got in runs.items():
            assert got["threads"] == t
            assert got["serial_builds"] == {}
            for app in ("airfoil", "volna", "aero"):
                assert got[app] == sequential_refs[app], (app, t)
            assert got["verdicts"] == ["direct", "owner",
                                       "serial: scalar loop"]
            assert got["repeat"]["native_calls"] == got["repeat"]["solves"]
            assert got["large_equal"], t
            assert got["large_verdicts"] == [
                "direct", "owner", "serial: 520 elements < 32768"]
            # Logical elements: two res_calc calls a step, not the
            # duplicated cut elements.
            assert got["large_elements"] == 2 * got["large_edges"]
            assert 0 < got["owner_facet_ms"] < 1000
        # The TU and flags do not depend on T: the first process built
        # every .so, the others only loaded them.
        assert runs[1]["cache"]["compiles"] > 0
        for t in (2, 3):
            assert runs[t]["cache"]["compiles"] == 0
            assert runs[t]["cache"]["disk_hits"] > 0


# ----------------------------------------------------------------------
# Degradation ladder
# ----------------------------------------------------------------------
@needs_cc
class TestDegradation:
    def test_compiler_without_openmp_builds_serially(self, sequential_refs,
                                                     tmp_path):
        real = shutil.which("gcc") or shutil.which("cc")
        wrapper = tmp_path / "cc-no-openmp"
        wrapper.write_text(
            "#!/bin/sh\n"
            'for a in "$@"; do\n'
            '  if [ "$a" = "-fopenmp" ]; then\n'
            '    echo "cc: error: unrecognized option -fopenmp" >&2; exit 1\n'
            "  fi\n"
            "done\n"
            f'exec "{real}" "$@"\n'
        )
        wrapper.chmod(0o755)
        got = _run_script(_APPS_SCRIPT, tmp_path, CC=str(wrapper),
                          OMP_NUM_THREADS="2")
        assert got["serial_builds"]["no -fopenmp"] >= 1
        assert got["threads"] == 1
        for app in ("airfoil", "volna", "aero"):
            assert got[app] == sequential_refs[app], app
        assert got["large_equal"]

    def test_non_local_mesh_is_serial_with_its_coverage(self, monkeypatch):
        from repro.apps.airfoil import AirfoilSim
        from repro.mesh import make_airfoil_mesh
        from repro.mesh.renumber import Localization, scramble

        monkeypatch.setattr(native, "THREAD_MIN_ELEMENTS", 16)

        def run(backend, chained):
            mesh = scramble(make_airfoil_mesh(24, 12), "edges", 9)
            mesh._localization = Localization(mesh)  # bypass localize
            rt = Runtime(backend)
            sim = AirfoilSim(mesh, runtime=rt, chained=chained)
            sim.run(2)
            return sim, rt

        ref, _ = run("sequential", False)
        got, rt = run("native", True)
        assert np.array_equal(ref.q, got.q)
        assert ref.rms_history == got.rms_history
        verdicts = [v["verdict"] for c in rt.stats()["native"]["chains"]
                    .values() for v in c if v["kernel"] == "res_calc"]
        assert verdicts
        for v in verdicts:
            assert v.startswith("serial: non-local (dup=")
            assert float(v.split("dup=")[1].rstrip(")")) > \
                native.OWNER_MAX_DUP
