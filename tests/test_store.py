"""The unified persistent artifact store (repro.store).

Four layers of assurance:

1. **codec round-trips** (hypothesis): plans, tiled schedules and chain
   programs survive encode → pickle → decode bit-for-bit, over
   randomized meshes, block sizes and tilings;
2. **store discipline**: schema-version bumps invalidate (counted, not
   raised), corrupt and truncated files degrade to recomputation,
   per-kind disable keeps the disk untouched;
3. **concurrency**: many processes hammering one key leave exactly one
   valid document (atomic ``os.replace`` publish);
4. **cross-process warm start**: a second process replaying an
   identical workload performs zero plan construction, zero tiling
   inspection, zero kernel emission (``builds == 0`` per kind) — the
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
    RW,
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
from repro.core.chain import LoopSpec, compile_chain
from repro.core.plan import build_plan

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@kernel("store_scale")
def store_scale(x, y):
    y[0] = 2.0 * x[0]


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


def trace_specs(rng_seed, n):
    """A two-loop direct+indirect trace over a fresh ring mesh."""
    nodes, edges, e2n = ring(n, tag=f"t{rng_seed}")
    w = Dat(edges, 1, 1.0, name="w")
    s = Dat(edges, 1, name="s")
    r = Dat(nodes, 1, name="r")
    return [
        LoopSpec(
            kernel=store_scale, set=edges,
            args=(arg_dat(w, IDX_ID, None, READ),
                  arg_dat(s, IDX_ID, None, WRITE)),
        ),
        LoopSpec(
            kernel=store_gather, set=edges,
            args=(arg_dat(s, IDX_ID, None, READ),
                  arg_dat(r, 0, e2n, INC),
                  arg_dat(r, 1, e2n, INC)),
        ),
    ]


# ----------------------------------------------------------------------
# Codec round-trips
# ----------------------------------------------------------------------
class TestPlanCodec:
    @settings(**SETTINGS)
    @given(
        n=st.integers(min_value=2, max_value=64),
        block_size=st.sampled_from([4, 16, 64]),
        scheme=st.sampled_from(["two_level", "full_permute", "block_permute"]),
    )
    def test_roundtrip_indirect(self, n, block_size, scheme):
        nodes, edges, e2n = ring(n, tag=f"pc{n}{scheme}")
        w = Dat(edges, 1, 1.0)
        r = Dat(nodes, 1)
        args = (arg_dat(w, IDX_ID, None, READ), arg_dat(r, 0, e2n, INC))
        plan = build_plan(edges, args, block_size, scheme, "auto")
        doc = pickle.loads(pickle.dumps(store.encode_plan(plan)))
        back = store.decode_plan(doc, edges)
        assert back.scheme == plan.scheme
        assert back.is_direct == plan.is_direct
        assert back.n_block_colors == plan.n_block_colors
        np.testing.assert_array_equal(back.block_colors, plan.block_colors)
        np.testing.assert_array_equal(
            back.layout.offsets, plan.layout.offsets
        )
        assert len(back.blocks_by_color) == len(plan.blocks_by_color)
        for a, b in zip(back.blocks_by_color, plan.blocks_by_color):
            np.testing.assert_array_equal(a, b)
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
        back = store.decode_plan(store.encode_plan(plan), edges)
        assert back.is_direct
        assert back.n_block_colors == plan.n_block_colors


class TestTiledCodec:
    @settings(**SETTINGS)
    @given(
        n=st.integers(min_value=4, max_value=48),
        tile_size=st.sampled_from([4, 8, 32]),
        profile=st.sampled_from(["phases", "ascending"]),
    )
    def test_roundtrip(self, n, tile_size, profile):
        rt = Runtime("vectorized", block_size=16)
        specs = trace_specs(f"tc{n}{tile_size}{profile}", n)
        compiled = compile_chain(specs, rt, tiling=tile_size)
        sched = compiled.tiled_for(profile)
        doc = pickle.loads(pickle.dumps(store.encode_tiled(sched)))
        back = store.decode_tiled(doc)
        assert back.tile_size == sched.tile_size
        assert back.profile == sched.profile
        assert len(back.parts) == len(sched.parts)
        for p, q in zip(back.parts, sched.parts):
            assert type(p) is type(q)
            if hasattr(q, "loop_indices"):
                assert p.loop_indices == q.loop_indices
                assert p.n_tiles == q.n_tiles
                np.testing.assert_array_equal(p.tile_colors, q.tile_colors)
                for ps, qs in zip(p.slices, q.slices):
                    np.testing.assert_array_equal(ps.order, qs.order)
                    np.testing.assert_array_equal(ps.cuts, qs.cuts)
            else:
                assert p.loop_index == q.loop_index

    def test_rejects_unknown_part_kind(self):
        with pytest.raises(ValueError, match="unknown schedule part"):
            store.decode_tiled(
                {"parts": [{"kind": "nonsense"}], "tile_size": 4,
                 "profile": "phases"}
            )


class TestChainCodec:
    @settings(**SETTINGS)
    @given(n=st.integers(min_value=4, max_value=48))
    def test_roundtrip(self, n):
        rt = Runtime("vectorized", block_size=16)
        specs = trace_specs(f"cc{n}", n)
        compiled = compile_chain(specs, rt)
        doc = pickle.loads(pickle.dumps(store.encode_chain(compiled)))
        plans = [rt.plan_for(s.kernel, s.set, s.args) for s in specs]
        back = store.decode_chain(doc, specs, plans)
        assert back.n_loops == compiled.n_loops
        assert len(back.groups) == len(compiled.groups)
        for g, h in zip(back.groups, compiled.groups):
            assert [bl.kernel for bl in g.loops] == \
                [bl.kernel for bl in h.loops]
            assert g.plan is h.plan
        assert back.tiling == compiled.tiling
        assert back.tile_size == compiled.tile_size

    def test_rejects_wrong_trace_length(self):
        rt = Runtime("vectorized", block_size=16)
        specs = trace_specs("ccbad", 8)
        doc = store.encode_chain(compile_chain(specs, rt))
        with pytest.raises(ValueError, match="does not match"):
            store.decode_chain(doc, specs[:1], [None])

    def test_rejects_nonpartition_groups(self):
        rt = Runtime("vectorized", block_size=16)
        specs = trace_specs("ccpart", 8)
        doc = store.encode_chain(compile_chain(specs, rt))
        doc["groups"] = [[0], [0]]
        plans = [rt.plan_for(s.kernel, s.set, s.args) for s in specs]
        with pytest.raises(ValueError, match="partition"):
            store.decode_chain(doc, specs, plans)


#: Well-formed pickles with the wrong content: what a hand edit or a
#: writer from another version leaves behind.
_CHAIN_MUTATIONS = {
    "missing field": lambda d: d.pop("tile_size"),
    "no groups": lambda d: d.update(groups=[]),
    "group not a list": lambda d: d.update(groups=[None, None]),
    "bad count": lambda d: d.update(n_loops="two"),
    "groups not a list": lambda d: d.update(groups=3),
}
_TILED_MUTATIONS = {
    "missing field": lambda d: d.pop("tile_size"),
    "part not a dict": lambda d: d.update(parts=[3]),
    "unknown part": lambda d: d.update(parts=[{"kind": "nonsense"}]),
    "slices not pairs": lambda d: d["parts"][0].update(slices=[1]),
}


class TestMalformedPayloads:
    """Decoders raise only :data:`store.DECODE_ERRORS` on a malformed
    payload — the types the chain/tiled load path counts as corrupt and
    rebuilds from; anything else is a bug and propagates."""

    @pytest.mark.parametrize("mutate", _CHAIN_MUTATIONS.values(),
                             ids=list(_CHAIN_MUTATIONS))
    def test_chain(self, mutate):
        rt = Runtime("vectorized", block_size=16)
        specs = trace_specs("mal", 8)
        doc = store.encode_chain(compile_chain(specs, rt))
        mutate(doc)
        plans = [rt.plan_for(s.kernel, s.set, s.args) for s in specs]
        with pytest.raises(store.DECODE_ERRORS):
            store.decode_chain(doc, specs, plans)

    @pytest.mark.parametrize("mutate", _TILED_MUTATIONS.values(),
                             ids=list(_TILED_MUTATIONS))
    def test_tiled(self, mutate):
        rt = Runtime("vectorized", block_size=16)
        compiled = compile_chain(trace_specs("malt", 16), rt, tiling=4)
        doc = store.encode_tiled(compiled.tiled_for("phases"))
        mutate(doc)
        with pytest.raises(store.DECODE_ERRORS):
            store.decode_tiled(doc)

    def test_runtime_counts_and_rebuilds(self, fresh_store):
        def run():
            rt = Runtime("sequential")
            nodes, edges, e2n = ring(12, tag="malrt")
            w = Dat(edges, 1, 1.0, name="w")
            r = Dat(nodes, 1, name="r")
            with rt.chain():
                par_loop(store_gather, edges,
                         arg_dat(w, IDX_ID, None, READ),
                         arg_dat(r, 0, e2n, INC), arg_dat(r, 1, e2n, INC),
                         runtime=rt)
            return r.data.copy()

        ref = run()
        cstore = store.store_for("chain")
        (path,) = cstore.directory().glob("*.pkl")
        key = path.stem
        doc = cstore.get(key)
        doc["groups"] = []
        assert cstore.put(key, doc)
        assert np.array_equal(run(), ref)
        assert store.counters("chain")["corrupt"] == 1


class TestKernelcCodec:
    def test_roundtrip_source_and_negative(self):
        assert store.decode_kernelc(store.encode_kernelc("def f(): pass")) \
            == "def f(): pass"
        assert store.decode_kernelc(store.encode_kernelc(None)) is None
        with pytest.raises(TypeError):
            store.decode_kernelc({"source": 42})


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

    def test_none_key_short_circuits(self, fresh_store):
        s = store.store_for("kernelc")
        assert s.get(None) is None
        assert not s.put(None, {"x": 1})
        assert store.counters("kernelc") == {
            n: 0 for n in store.COUNTER_NAMES
        }

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
        s = store.store_for("tiled")
        s.put("b" * 64, {"x": 1})
        path = s.path_for("b" * 64)
        path.write_bytes(b"\x80\x04 garbage not a pickle")
        assert s.get("b" * 64) is None
        assert store.counters("tiled")["corrupt"] == 1
        s.put("c" * 64, {"y": 2})
        s.path_for("c" * 64).write_bytes(
            s.path_for("c" * 64).read_bytes()[:10]
        )
        assert s.get("c" * 64) is None
        assert store.counters("tiled")["corrupt"] == 2

    def test_wrong_kind_or_key_rejected(self, fresh_store):
        a = store.store_for("plan")
        b = store.store_for("chain")
        a.put("d" * 64, {"x": 1})
        b.directory().mkdir(parents=True, exist_ok=True)
        os.replace(a.path_for("d" * 64), b.path_for("d" * 64))
        assert b.get("d" * 64) is None  # kind mismatch
        assert store.counters("chain")["corrupt"] == 1
        a.put("e" * 64, {"x": 1})
        os.replace(a.path_for("e" * 64), a.path_for("f" * 64))
        assert a.get("f" * 64) is None  # key mismatch
        assert store.counters("plan")["corrupt"] == 1

    def test_per_kind_disable(self, fresh_store, monkeypatch):
        monkeypatch.setenv("REPRO_STORE_DISABLE", "plan,tiled")
        assert store.store_disabled("plan")
        assert store.store_disabled("tiled")
        assert not store.store_disabled("chain")
        s = store.store_for("plan")
        assert not s.put("g" * 64, {"x": 1})
        assert s.entry_count() == 0
        monkeypatch.setenv("REPRO_STORE_DISABLE", "1")
        assert store.store_disabled("chain")

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
        s = store.store_for("chain")
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
rt = Runtime("vectorized", block_size=16)
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
    "stats": {k: store.store_stats(k)
              for k in ("plan", "chain", "tiled", "kernelc")},
}))
"""


class TestWarmStart:
    def _run(self, cache_dir):
        env = dict(os.environ, REPRO_CACHE_DIR=str(cache_dir),
                   PYTHONPATH=str(Path(__file__).resolve().parent.parent
                                  / "src"))
        # The script must live in a real file: kernelc keys hash
        # ``inspect.getsource`` of the kernel, which ``python -c``
        # code cannot provide (those kernels degrade to unkeyed).
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
        for kind in ("plan", "chain", "tiled", "kernelc"):
            assert cold["stats"][kind]["builds"] > 0, kind
            assert warm["stats"][kind]["builds"] == 0, kind
            assert warm["stats"][kind]["disk_hits"] > 0, kind
            assert warm["stats"][kind]["writes"] == 0, kind

    def test_corrupted_store_degrades_to_rebuild(self, tmp_path):
        cache = tmp_path / "shared"
        cold = self._run(cache)
        # Garbage every persisted document.
        for p in cache.rglob("*.pkl"):
            p.write_bytes(b"not a pickle at all")
        warm = self._run(cache)
        assert warm["result"] == cold["result"]
        total_corrupt = sum(
            warm["stats"][k]["corrupt"]
            for k in ("plan", "chain", "tiled", "kernelc")
        )
        assert total_corrupt > 0
        for kind in ("plan", "chain", "tiled", "kernelc"):
            assert warm["stats"][kind]["builds"] > 0, kind
