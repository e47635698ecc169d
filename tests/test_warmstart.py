"""The warm-start gate (repro.bench.warmstart): run, check and corrupt."""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.bench.warmstart import CHECKED_KINDS, check_warm, corrupt_store, main


def _dump(builds, disk_hits, compiles, native_hits):
    return {
        "compiler_available": True,
        "native": {"compiles": compiles, "disk_hits": native_hits},
        "stats": {
            k: {"builds": builds, "disk_hits": disk_hits}
            for k in CHECKED_KINDS
        },
    }


def _pair():
    cold = _dump(builds=3, disk_hits=0, compiles=2, native_hits=0)
    warm = _dump(builds=0, disk_hits=3, compiles=0, native_hits=2)
    return cold, warm


class TestCheckWarm:
    def test_consistent_pair_passes(self):
        assert check_warm(*_pair()) == []

    def test_cold_built_nothing(self):
        cold, warm = _pair()
        cold["stats"]["plan"]["builds"] = 0
        (msg,) = check_warm(cold, warm)
        assert msg.startswith("plan:") and "builds == 0" in msg

    def test_warm_no_disk_hits(self):
        cold, warm = _pair()
        warm["stats"]["plan"]["disk_hits"] = 0
        (msg,) = check_warm(cold, warm)
        assert msg.startswith("plan:") and "disk_hits == 0" in msg

    def test_warm_still_builds(self):
        cold, warm = _pair()
        warm["stats"]["plan"]["builds"] = 1
        (msg,) = check_warm(cold, warm)
        assert msg.startswith("plan:") and "builds == 0" in msg

    def test_warm_native_compiles(self):
        cold, warm = _pair()
        warm["native"]["compiles"] = 1
        (msg,) = check_warm(cold, warm)
        assert msg.startswith("native:") and "C compiler 1 time" in msg

    def test_check_cli_exit_codes(self, tmp_path, capsys):
        cold, warm = _pair()
        (tmp_path / "cold.json").write_text(json.dumps(cold))
        (tmp_path / "warm.json").write_text(json.dumps(warm))
        paths = [str(tmp_path / "cold.json"), str(tmp_path / "warm.json")]
        assert main(["check", *paths]) == 0
        assert "warm-start acceptance OK" in capsys.readouterr().out
        warm["stats"]["plan"]["builds"] = 2
        (tmp_path / "warm.json").write_text(json.dumps(warm))
        assert main(["check", *paths]) == 1
        assert "FAIL: plan:" in capsys.readouterr().err


def _tree(base):
    """A small store tree under ``base/store`` and a sibling file."""
    root = base / "store"
    for kind in ("plan", "native", "other"):
        (root / kind).mkdir(parents=True)
        for i in range(4):
            (root / kind / f"{i:02d}.pkl").write_bytes(
                bytes(range(64)) * (i + 1)
            )
    (root / "plan" / ".00.pkl-tmp.part").write_bytes(b"in flight")
    (base / "outside.pkl").write_bytes(b"not in the store")
    return root


def _snapshot(base):
    return {
        str(p.relative_to(base)): p.read_bytes()
        for p in sorted(base.rglob("*")) if p.is_file()
    }


class TestCorruptStore:
    def test_same_seed_garbles_same_files(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        root_a, root_b = _tree(a), _tree(b)
        before = _snapshot(a)
        touched = corrupt_store(root_a, 0.3, seed=7)
        assert touched == corrupt_store(root_b, 0.3, seed=7)
        assert len(touched) == 3  # int(12 files * 0.3)
        assert _snapshot(a) == _snapshot(b)
        after = _snapshot(a)
        changed = {k for k in before if before[k] != after[k]}
        assert changed == {f"store/{rel}" for rel in touched}

    def test_touches_nothing_outside_root(self, tmp_path):
        root = _tree(tmp_path)
        before = _snapshot(tmp_path)
        touched = corrupt_store(root, 1.0, seed=3)
        after = _snapshot(tmp_path)
        assert len(touched) == 12
        assert after["outside.pkl"] == before["outside.pkl"]
        dot = "store/plan/.00.pkl-tmp.part"
        assert after[dot] == before[dot]

    def test_every_kind_gets_a_victim(self, tmp_path):
        """The CI store: two plan documents beside a native triple and
        more — a fraction alone would often spare every plan."""
        root = tmp_path / "store"
        (root / "plan").mkdir(parents=True)
        (root / "native" / "host").mkdir(parents=True)
        for i in range(2):
            (root / "plan" / f"{i:02d}.pkl").write_bytes(b"plan" * 16)
        for i in range(12):
            (root / "native" / "host" / f"{i:02d}.so").write_bytes(b"so" * 32)
        for seed in range(20):
            touched = corrupt_store(root, 0.1, seed=seed)
            kinds = {rel.split("/")[0] for rel in touched}
            assert kinds == {"plan", "native"}, (seed, touched)
            assert len(touched) == 2  # max(kinds, int(14 * 0.1))

    def test_empty_store(self, tmp_path):
        assert corrupt_store(tmp_path, 0.3, seed=7) == []

    def test_corrupt_cli_needs_a_store(self, tmp_path, capsys):
        missing = str(tmp_path / "missing")
        assert main(["corrupt", "--root", missing]) == 1
        assert "no store directory" in capsys.readouterr().err



def test_second_process_replays_from_disk(tmp_path):
    """The CI job's run / run / check sequence on a fresh store."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, REPRO_CACHE_DIR=str(tmp_path / "store"),
               PYTHONPATH=str(src))
    dumps = []
    for label in ("cold", "warm"):
        out = tmp_path / f"{label}.json"
        subprocess.run(
            [sys.executable, "-m", "repro.bench.warmstart", "run",
             "--steps", "1", "--out", str(out)],
            env=env, check=True, capture_output=True,
        )
        dumps.append(json.loads(out.read_text()))
    assert check_warm(*dumps) == []
