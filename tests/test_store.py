"""The persistent artifact store (repro.store).

Four layers of assurance:

1. **codec round-trips** (hypothesis): a plan's colouring survives
   encode → pickle → decode bit-for-bit, over randomized meshes, block
   sizes and schemes, and a malformed document raises only
   :data:`repro.store.DECODE_ERRORS`;
2. **store discipline**: schema-version bumps invalidate (counted, not
   raised), corrupt and truncated files degrade to recomputation,
   per-kind disable keeps the disk untouched;
3. **concurrency**: many processes hammering one key leave exactly one
   valid document (atomic ``os.replace`` publish);
4. **cross-process warm start**: a second process replaying an
   identical workload colours nothing (``builds == 0``) — the
   acceptance the CI warm-start job enforces on the real apps.
"""

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import store
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
    par_loop,
)
from repro.core.access import IDX_ID
from repro.core.plan import Plan, build_plan
from repro.testing import BACKEND_MATRIX, runtime_for

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@kernel("store_gather")
def store_gather(w, a, b):
    a[0] += w[0]
    b[0] += w[0]


def ring(n, tag=""):
    nodes = Set(n, f"nodes{tag}")
    edges = Set(n, f"edges{tag}")
    conn = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
    return nodes, edges, Map(edges, nodes, 2, conn, f"e2n{tag}")


@pytest.fixture
def fresh_store(tmp_path, monkeypatch):
    """An isolated store root with zeroed counters."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    store.reset_store_stats()
    yield tmp_path / "store"
    store.reset_store_stats()


# ----------------------------------------------------------------------
# Codec round-trips
# ----------------------------------------------------------------------
def _roundtrip(plan):
    """``plan`` rebuilt from its pickled plan document."""
    doc = pickle.loads(pickle.dumps(store.encode_plan(plan.coloring())))
    return Plan(plan.set, plan.scheme, plan.layout, plan.is_direct,
                coloring=store.decode_plan(doc, plan.layout))


def _ring_args(n, tag):
    nodes, edges, e2n = ring(n, tag=tag)
    w = Dat(edges, 1, 1.0)
    r = Dat(nodes, 1)
    return edges, (arg_dat(w, IDX_ID, None, READ), arg_dat(r, 0, e2n, INC))


class TestPlanCodec:
    @settings(**SETTINGS)
    @given(
        n=st.integers(min_value=2, max_value=64),
        block_size=st.sampled_from([4, 16, 64]),
        scheme=st.sampled_from(["two_level", "full_permute", "block_permute"]),
    )
    def test_roundtrip_indirect(self, n, block_size, scheme):
        edges, args = _ring_args(n, f"pc{n}{scheme}")
        plan = build_plan(edges, args, block_size, scheme, "auto")
        back = _roundtrip(plan)
        assert back.n_block_colors == plan.n_block_colors
        np.testing.assert_array_equal(back.block_colors, plan.block_colors)
        # The colour grouping survives: the decoded plan walks the same
        # phases in the same element order.
        for a, b in zip(back.phases(edges.size), plan.phases(edges.size),
                        strict=True):
            np.testing.assert_array_equal(a.elems, b.elems)
        if plan.permutation is not None:
            np.testing.assert_array_equal(
                back.permutation.order, plan.permutation.order
            )
        # The decoded plan executes: phases cover every element once.
        covered = np.concatenate(
            [ph.elems for ph in back.phases(edges.size)]
        )
        assert sorted(covered.tolist()) == list(range(edges.size))

    def test_roundtrip_direct(self):
        nodes, edges, _ = ring(12, tag="pdirect")
        w = Dat(edges, 1, 1.0)
        s = Dat(edges, 1)
        args = (arg_dat(w, IDX_ID, None, READ),
                arg_dat(s, IDX_ID, None, WRITE))
        plan = build_plan(edges, args, 8, "two_level", "auto")
        back = _roundtrip(plan)
        assert back.is_direct
        assert back.n_block_colors == plan.n_block_colors


#: Well-formed pickles with the wrong content: what a hand edit or a
#: writer from another version leaves behind.
_PLAN_MUTATIONS = {
    "missing field": lambda d: d.pop("n_block_colors"),
    "colours not an array": lambda d: d.update(block_colors=[0, 1]),
    "colours of another layout": lambda d: d.update(
        block_colors=np.zeros(1, dtype=np.int32)),
    "bad count": lambda d: d.update(n_block_colors="two"),
    "permutation not a pair": lambda d: d.update(block_permutation=3),
    "offsets not arrays": lambda d: d.update(
        block_permutation=(d["block_permutation"][0], [1, 2])),
    "stats not a mapping": lambda d: d.update(build_stats=4),
}


def _gather_on(rt, edges, e2n, nodes):
    """One ``store_gather`` par_loop on ``rt``; the result array."""
    w = Dat(edges, 1, 1.0, name="w")
    r = Dat(nodes, 1, name="r")
    par_loop(store_gather, edges, arg_dat(w, IDX_ID, None, READ),
             arg_dat(r, 0, e2n, INC), arg_dat(r, 1, e2n, INC), runtime=rt)
    return r.data.copy()


class TestMalformedPayloads:
    """The plan decoder raises only :data:`store.DECODE_ERRORS` on a
    malformed payload — the types the plan load path counts as corrupt
    and rebuilds from; anything else is a bug and propagates."""

    @pytest.mark.parametrize("mutate", _PLAN_MUTATIONS.values(),
                             ids=list(_PLAN_MUTATIONS))
    def test_plan(self, mutate):
        edges, args = _ring_args(40, "malp")
        plan = build_plan(edges, args, 8, "block_permute", "auto")
        doc = store.encode_plan(plan.coloring())
        mutate(doc)
        with pytest.raises(store.DECODE_ERRORS):
            store.decode_plan(doc, plan.layout)

    def test_unexpected_decode_error_propagates(self, fresh_store,
                                                monkeypatch):
        # Only DECODE_ERRORS mean a corrupt entry; any other exception
        # from the decoder is a bug and must not be swallowed.
        nodes, edges, e2n = ring(40, tag="malbug")
        _gather_on(Runtime("vectorized", block_size=8,
                           scheme="block_permute"), edges, e2n, nodes)
        store.reset_store_stats()

        def broken(doc, layout):
            raise RuntimeError("decoder bug")

        monkeypatch.setattr(store, "decode_plan", broken)
        fresh = Runtime("vectorized", block_size=8, scheme="block_permute")
        with pytest.raises(RuntimeError, match="decoder bug"):
            _gather_on(fresh, edges, e2n, nodes)
        assert store.counters("plan")["corrupt"] == 0
        assert len(list(store.store_for("plan").directory().glob("*.pkl"))) \
            == 1

    def test_runtime_counts_unlinks_and_rebuilds(self, fresh_store):
        nodes, edges, e2n = ring(40, tag="malrt")
        rt = Runtime("vectorized", block_size=8, scheme="block_permute")
        ref = _gather_on(rt, edges, e2n, nodes)
        (plan,) = [p for p in rt.plans._plans.values() if not p.is_direct]
        pstore = store.store_for("plan")
        (path,) = pstore.directory().glob("*.pkl")
        key = path.stem
        doc = pstore.get(key)
        doc["block_colors"] = doc["block_colors"][:1]
        assert pstore.put(key, doc)
        store.reset_store_stats()

        fresh = Runtime("vectorized", block_size=8, scheme="block_permute")
        got = _gather_on(fresh, edges, e2n, nodes)
        counters = store.counters("plan")
        assert counters["corrupt"] == 1 and counters["builds"] == 1
        # Unlinked, then the rebuilt colouring written back in its place.
        assert counters["writes"] == 1
        assert len(pstore.get(key)["block_colors"]) == plan.layout.nblocks
        (rebuilt,) = [p for p in fresh.plans._plans.values()
                      if not p.is_direct]
        for a, b in zip(rebuilt.phases(edges.size),
                        plan.phases(edges.size), strict=True):
            assert a.elems.tobytes() == b.elems.tobytes()
        assert got.tobytes() == ref.tobytes()


#: The matrix rows that run uncoloured: nothing of theirs is persisted
#: but native libraries, so nothing may read a map's connectivity.
_TWO_LEVEL_ROWS = [row for row in BACKEND_MATRIX if row.values[1] == "two_level"]


@pytest.mark.parametrize("name, scheme, options", _TWO_LEVEL_ROWS)
def test_two_level_setup_hashes_no_connectivity(name, scheme, options,
                                                monkeypatch):
    """A ``two_level`` set-up — eager and chained — never content-hashes
    a map: only a permute scheme's colouring is keyed by connectivity."""
    from repro.apps.airfoil import AirfoilSim
    from repro.mesh import make_airfoil_mesh
    from repro.store import keys

    calls = []
    real = keys.map_key

    def spy(m):
        calls.append(m.name)
        return real(m)

    monkeypatch.setattr(keys, "map_key", spy)
    monkeypatch.setattr(store, "map_key", spy)
    mesh = make_airfoil_mesh(24, 12)
    for chained in (True, False):
        sim = AirfoilSim(mesh, runtime=runtime_for(name, scheme, options),
                         chained=chained)
        sim.run(2)
    assert calls == []
    maps = list(sim.mesh.maps.values())
    assert maps and not any(hasattr(m, "_struct_key") for m in maps)


# ----------------------------------------------------------------------
# Store discipline
# ----------------------------------------------------------------------
class TestStoreDiscipline:
    def test_put_get_and_counters(self, fresh_store):
        s = store.store_for("plan")
        assert s.get("k" * 64) is None
        assert store.counters("plan")["disk_misses"] == 1
        assert s.put("k" * 64, {"x": 1})
        assert s.get("k" * 64) == {"x": 1}
        c = store.counters("plan")
        assert c["writes"] == 1 and c["disk_hits"] == 1

    def test_kinds_are_plan_and_native(self):
        # The only artifacts whose load beats their rebuild: a permute
        # scheme's colouring and a compiled native library.
        assert set(store.SCHEMA_VERSIONS) == {"plan", "native"}

    def test_chained_tiled_run_persists_only_plans(self, fresh_store):
        # Chain programs, tiled schedules and vector kernel sources are
        # rebuilt per process: a chained, tiled, vectorized run writes
        # the colourings and nothing else.
        nodes, edges, e2n = ring(40, tag="onlyplans")
        rt = Runtime("vectorized", block_size=8, scheme="block_permute")
        w = Dat(edges, 1, 1.0, name="w")
        r = Dat(nodes, 1, name="r")
        with rt.chain(tiling=8):
            for _ in range(2):
                par_loop(store_gather, edges,
                         arg_dat(w, IDX_ID, None, READ),
                         arg_dat(r, 0, e2n, INC), arg_dat(r, 1, e2n, INC),
                         runtime=rt)
        np.testing.assert_array_equal(r.data[:, 0], np.full(40, 4.0))
        (compiled,) = rt._chains.values()
        assert compiled.tiled_profiles  # the chain did run tiled
        assert sorted(p.name for p in fresh_store.iterdir()) == ["plan"]
        assert store.counters("plan")["writes"] >= 1

    def test_schema_bump_invalidates(self, fresh_store, monkeypatch):
        s = store.store_for("plan")
        s.put("a" * 64, {"x": 1})
        monkeypatch.setitem(store.SCHEMA_VERSIONS, "plan", 99)
        fresh = store.ArtifactStore("plan")
        assert fresh.schema == 99
        assert fresh.get("a" * 64) is None  # stale: counted, unlinked
        assert store.counters("plan")["corrupt"] == 1
        assert fresh.entry_count() == 0

    def test_corrupt_and_truncated_tolerated(self, fresh_store):
        s = store.store_for("plan")
        s.put("b" * 64, {"x": 1})
        path = s.path_for("b" * 64)
        path.write_bytes(b"\x80\x04 garbage not a pickle")
        assert s.get("b" * 64) is None
        assert store.counters("plan")["corrupt"] == 1
        s.put("c" * 64, {"y": 2})
        s.path_for("c" * 64).write_bytes(
            s.path_for("c" * 64).read_bytes()[:10]
        )
        assert s.get("c" * 64) is None
        assert store.counters("plan")["corrupt"] == 2

    def test_wrong_kind_or_key_rejected(self, fresh_store):
        a = store.store_for("plan")
        b = store.store_for("native")
        a.put("d" * 64, {"x": 1})
        b.directory().mkdir(parents=True, exist_ok=True)
        os.replace(a.path_for("d" * 64), b.path_for("d" * 64))
        assert b.get("d" * 64) is None  # kind mismatch
        assert store.counters("native")["corrupt"] == 1
        a.put("e" * 64, {"x": 1})
        os.replace(a.path_for("e" * 64), a.path_for("f" * 64))
        assert a.get("f" * 64) is None  # key mismatch
        assert store.counters("plan")["corrupt"] == 1

    def test_per_kind_disable(self, fresh_store, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DISABLE", "plan")
        assert store.store_disabled("plan")
        assert not store.store_disabled("native")
        s = store.store_for("plan")
        assert not s.put("g" * 64, {"x": 1})
        assert s.entry_count() == 0
        monkeypatch.setenv("REPRO_STORE_DISABLE", "1")
        assert store.store_disabled("native")

    def test_lru_eviction_bounds_entries(self, fresh_store, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_MAX_ENTRIES", "8")
        s = store.store_for("plan")
        for i in range(40):
            s.put(f"{i:064d}", {"i": i})
        # Sweeps run every 16 writes, so the count stays near the bound.
        assert s.entry_count() <= 8 + 16
        assert store.counters("plan")["evictions"] > 0
        # The newest entries survive (mtime LRU).
        assert s.get(f"{39:064d}") == {"i": 39}

    def test_atomic_write_leaves_no_partials(self, fresh_store):
        s = store.store_for("plan")
        for i in range(5):
            s.put(f"{i:064d}", {"i": i})
        leftovers = [
            p for p in s.directory().iterdir() if p.name.startswith(".")
        ]
        assert leftovers == []


# ----------------------------------------------------------------------
# Concurrency
# ----------------------------------------------------------------------
class TestConcurrentWriters:
    def test_many_processes_one_key(self, fresh_store):
        script = (
            "import sys\n"
            "from repro import store\n"
            "s = store.store_for('plan')\n"
            "for i in range(50):\n"
            "    s.put('k' * 64, {'writer': int(sys.argv[1]), 'i': i})\n"
            "    assert s.get('k' * 64) is not None\n"
        )
        env = dict(os.environ, REPRO_CACHE_DIR=str(fresh_store),
                   PYTHONPATH=str(Path(__file__).resolve().parent.parent
                                  / "src"))
        procs = [
            subprocess.Popen([sys.executable, "-c", script, str(i)], env=env)
            for i in range(4)
        ]
        assert [p.wait() for p in procs] == [0, 0, 0, 0]
        # Exactly one (complete, valid) document survives the stampede.
        s = store.store_for("plan")
        doc = s.get("k" * 64)
        assert doc is not None and doc["i"] == 49
        assert s.entry_count() == 1


# ----------------------------------------------------------------------
# Cross-process warm start (the tentpole acceptance, in miniature)
# ----------------------------------------------------------------------
WARM_SCRIPT = """\
import json, sys
import numpy as np
from repro import store
from repro.core import (Runtime, par_loop, arg_dat, Dat, Map, Set,
                        READ, WRITE, INC, IDX_ID)
from repro.core.kernel import Kernel

def scale(x, y):
    y[0] = 2.0 * x[0]

def gather(w, a, b):
    a[0] += w[0]
    b[0] += w[0]

n = 40
nodes = Set(n, "nodes")
edges = Set(n, "edges")
conn = np.stack([np.arange(n), (np.arange(n) + 1) % n], axis=1)
e2n = Map(edges, nodes, 2, conn, "e2n")
# block_permute: a two_level plan is one ascending phase, uncoloured,
# so only a permute scheme gives the plan store something to keep.
rt = Runtime("vectorized", block_size=16, scheme="block_permute")
w = Dat(edges, 1, 1.0, name="w")
s = Dat(edges, 1, name="s")
r = Dat(nodes, 1, name="r")
for step in range(3):
    with rt.chain(tiling=8):
        par_loop(Kernel("warm_scale", scale), edges,
                 arg_dat(w, IDX_ID, None, READ),
                 arg_dat(s, IDX_ID, None, WRITE), runtime=rt)
        par_loop(Kernel("warm_gather", gather), edges,
                 arg_dat(s, IDX_ID, None, READ),
                 arg_dat(r, 0, e2n, INC),
                 arg_dat(r, 1, e2n, INC), runtime=rt)
print(json.dumps({
    "result": float(r.data.sum()),
    "stats": {"plan": store.store_stats("plan")},
}))
"""


class TestWarmStart:
    def _run(self, cache_dir):
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir),
                   PYTHONPATH=str(Path(__file__).resolve().parent.parent
                                  / "src"))
        # The script must live in a real file: the vector emitter parses
        # each kernel's ``inspect.getsource``, which ``python -c`` code
        # cannot provide (those kernels would run scalar).
        script = Path(cache_dir).parent / "warm_script.py"
        script.write_text(WARM_SCRIPT)
        out = subprocess.run(
            [sys.executable, str(script)],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr[-2000:]
        return json.loads(out.stdout)

    def test_second_process_replays_with_zero_builds(self, tmp_path):
        cache = tmp_path / "shared"
        cold = self._run(cache)
        warm = self._run(cache)
        assert warm["result"] == cold["result"]
        c, w = cold["stats"]["plan"], warm["stats"]["plan"]
        assert c["builds"] > 0
        assert w["builds"] == 0
        assert w["disk_hits"] == c["builds"]
        assert w["writes"] == 0

    def test_corrupted_store_degrades_to_rebuild(self, tmp_path):
        cache = tmp_path / "shared"
        cold = self._run(cache)
        # Garbage every persisted document.
        for p in cache.rglob("*.pkl"):
            p.write_bytes(b"not a pickle at all")
        warm = self._run(cache)
        assert warm["result"] == cold["result"]
        plan = warm["stats"]["plan"]
        assert plan["corrupt"] == plan["builds"] == \
            cold["stats"]["plan"]["builds"]
