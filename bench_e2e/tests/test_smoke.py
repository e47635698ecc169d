"""pytest wrapper around ``bench_e2e/run.py --smoke``.

Lives outside the tier-1 ``testpaths`` on purpose: run it with
``python -m pytest bench_e2e/tests`` (a later PR can add that line to CI
without touching the benchmark).  The smoke run itself asserts that
every metric named in ``BENCHMARK.json`` is printed with a unit and a
finite value, that every output check passes, and that span parents
nest; this wrapper only relays its verdict.
"""

import json
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent.parent / "run.py"


def test_smoke_run_passes():
    proc = subprocess.run(
        [sys.executable, str(RUN), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    verdict = json.loads(proc.stdout.strip().splitlines()[-1])
    assert verdict["smoke_ok"], verdict["problems"]
    assert proc.returncode == 0
