"""Cross-process warm-start tooling: the artifact store's CI gate.

The persistent store (:mod:`repro.store`) promises that a second
process running the same workload colours nothing and compiles nothing:
the permute schemes' colourings and the native ``.so`` binaries replay
from disk.  This module makes that promise executable:

``python -m repro.bench.warmstart run --out stats.json``
    runs the airfoil quick workload in *this* process (one process =
    one cold-or-warm measurement; the store under ``$REPRO_CACHE_DIR``
    decides which) and dumps the per-kind store counters plus the wall
    time;

``python -m repro.bench.warmstart check cold.json warm.json``
    enforces the warm-start acceptance on two such dumps: the warm
    process must show ``disk_hits > 0`` and ``builds == 0`` for the
    plan kind, and ``compiles == 0`` for native;

``python -m repro.bench.warmstart corrupt --fraction 0.3 --seed 7``
    garbles a deterministic random subset of the store's files, for the
    corrupt-cache smoke (tier-1 must still pass against the damaged
    store, with ``corrupt`` counted — never raised).
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from pathlib import Path
from typing import Dict, List

#: Kinds the warm acceptance pins: a replaying process must hit disk
#: and construct nothing for each of these.
CHECKED_KINDS = ("plan",)

#: All persistent kinds dumped for the CI artifact.
PERSISTED_KINDS = ("plan", "native")


# ----------------------------------------------------------------------
# run
# ----------------------------------------------------------------------
def run_workload(steps: int = 2) -> Dict:
    """One cold-or-warm measurement in the current process.

    Airfoil replays its chain on the vectorized backend under
    ``two_level`` (one ascending phase per loop, no colouring) and
    under ``block_permute``, whose coloured ``res_calc`` is what
    exercises the plan store, and — when a C compiler is available —
    on the native backend, exercising the native ``.so`` store (and no
    colouring: native executes ascending).  The store under
    ``$REPRO_CACHE_DIR`` decides whether this process is cold or warm.
    """
    from .. import store
    from ..apps.airfoil import AirfoilSim
    from ..core import Runtime
    from ..kernelc import compiler_available, native_cache_stats
    from ..mesh import make_airfoil_mesh

    t0 = time.perf_counter()
    runtimes = [("vectorized", "two_level"),
                ("vectorized", "block_permute")]
    if compiler_available():
        runtimes.append(("native", "two_level"))
    for backend, scheme in runtimes:
        sim = AirfoilSim(make_airfoil_mesh(24, 12),
                         runtime=Runtime(backend, scheme=scheme),
                         chained=True)
        sim.step()
        sim.run(steps)
    wall = time.perf_counter() - t0
    return {
        "steps": steps,
        "workload_s": wall,
        "cache_dir": os.environ.get("REPRO_CACHE_DIR", ""),
        "compiler_available": bool(compiler_available()),
        "native": dict(native_cache_stats()),
        "stats": {k: store.store_stats(k) for k in PERSISTED_KINDS},
    }


# ----------------------------------------------------------------------
# check
# ----------------------------------------------------------------------
def check_warm(cold: Dict, warm: Dict) -> List[str]:
    """The warm-start acceptance.  Returns failure messages (empty = pass)."""
    failures: List[str] = []
    for kind in CHECKED_KINDS:
        c, w = cold["stats"][kind], warm["stats"][kind]
        if c["builds"] == 0:
            failures.append(
                f"{kind}: cold process built nothing (builds == 0) — "
                f"the workload no longer exercises this store"
            )
        if w["disk_hits"] <= 0:
            failures.append(
                f"{kind}: warm process shows disk_hits == "
                f"{w['disk_hits']} (expected > 0)"
            )
        if w["builds"] != 0:
            failures.append(
                f"{kind}: warm process still performed "
                f"{w['builds']} expensive construction(s) "
                f"(expected builds == 0)"
            )
    if warm["native"]["compiles"] != 0:
        failures.append(
            f"native: warm process invoked the C compiler "
            f"{warm['native']['compiles']} time(s) (expected 0)"
        )
    if cold["compiler_available"] and cold["native"]["compiles"] > 0 \
            and warm["native"]["disk_hits"] <= 0:
        failures.append(
            "native: cold process compiled but the warm process did "
            "not load any .so from the store"
        )
    return failures


# ----------------------------------------------------------------------
# corrupt
# ----------------------------------------------------------------------
def corrupt_store(root: Path, fraction: float, seed: int) -> List[str]:
    """Garble a deterministic random subset of the store's files.

    ``fraction`` of the files, and at least one of each kind (top-level
    directory) present, so every kind's recovery runs whatever the
    kinds' file counts.  Half the victims are truncated mid-document,
    half overwritten with non-pickle garbage — both shapes the store
    must count (``corrupt``) and survive.  Returns the relative paths
    touched.
    """
    files = sorted(
        p for p in root.rglob("*")
        if p.is_file() and not p.name.startswith(".")
    )
    rng = random.Random(seed)
    kinds: Dict[str, List[Path]] = {}
    for p in files:
        kinds.setdefault(p.relative_to(root).parts[0], []).append(p)
    victims = [rng.choice(group) for _, group in sorted(kinds.items())]
    n = max(1, int(len(files) * fraction)) if files else 0
    rest = [p for p in files if p not in victims]
    victims += rng.sample(rest, max(0, n - len(victims)))
    touched = []
    for i, path in enumerate(victims):
        if i % 2 == 0:
            data = path.read_bytes()
            path.write_bytes(data[: max(1, len(data) // 2)])
        else:
            path.write_bytes(b"\x00corrupt artifact smoke\xff")
        touched.append(str(path.relative_to(root)))
    return touched


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.bench.warmstart",
        description="Warm-start acceptance tooling for the artifact store.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    p_run = sub.add_parser("run", help="run the workload, dump counters")
    p_run.add_argument("--steps", type=int, default=2)
    p_run.add_argument("--out", default=None, metavar="FILE")

    p_check = sub.add_parser("check", help="enforce the warm acceptance")
    p_check.add_argument("cold", metavar="COLD_JSON")
    p_check.add_argument("warm", metavar="WARM_JSON")

    p_cor = sub.add_parser("corrupt", help="garble a store subset")
    p_cor.add_argument("--fraction", type=float, default=0.3)
    p_cor.add_argument("--seed", type=int, default=7)
    p_cor.add_argument("--root", default=None,
                       help="store root (default: $REPRO_CACHE_DIR)")

    args = parser.parse_args(argv)

    if args.cmd == "run":
        dump = run_workload(steps=args.steps)
        text = json.dumps(dump, indent=2, default=str)
        if args.out:
            Path(args.out).write_text(text)
        print(text)
        return 0

    if args.cmd == "check":
        cold = json.loads(Path(args.cold).read_text())
        warm = json.loads(Path(args.warm).read_text())
        failures = check_warm(cold, warm)
        if failures:
            for f in failures:
                print(f"FAIL: {f}", file=sys.stderr)
            return 1
        print(
            "warm-start acceptance OK: "
            + ", ".join(
                f"{k} disk_hits={warm['stats'][k]['disk_hits']}"
                for k in CHECKED_KINDS
            )
            + f", native compiles={warm['native']['compiles']}"
        )
        return 0

    if args.cmd == "corrupt":
        root = Path(args.root or os.environ.get("REPRO_CACHE_DIR", ""))
        if not str(root) or not root.is_dir():
            print("corrupt: no store directory (set $REPRO_CACHE_DIR "
                  "or --root)", file=sys.stderr)
            return 1
        touched = corrupt_store(root, args.fraction, args.seed)
        print(f"garbled {len(touched)} file(s) under {root}:")
        for rel in touched:
            print(f"  {rel}")
        return 0

    return 2


if __name__ == "__main__":
    sys.exit(main())
