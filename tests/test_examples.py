"""Examples must run green as ``python examples/<name>.py`` from the
repo root (no install, no PYTHONPATH — ``examples/_bootstrap.py`` wires
up ``src/`` for source checkouts).

The two headline examples run end to end with tiny workloads; the rest
are import-checked so a rename or API drift fails fast without paying
their full runtimes.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = REPO_ROOT / "examples"


def run_example(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)  # the bootstrap must stand on its own
    return subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=300,
    )


class TestExamplesSmoke:
    def test_quickstart(self):
        proc = run_example("quickstart.py")
        assert proc.returncode == 0, proc.stderr
        assert "All backends agree" in proc.stdout
        assert "chained == eager bitwise: True" in proc.stdout

    def test_airfoil_simulation_tiny_mesh(self):
        proc = run_example("airfoil_simulation.py", "8", "4", "2")
        assert proc.returncode == 0, proc.stderr
        assert "vectorized speedup over scalar" in proc.stdout

    @pytest.mark.parametrize("name", [
        "performance_study.py",
        "tsunami_volna.py",
    ])
    def test_other_examples_importable(self, name):
        """Compile-and-import check without executing __main__ bodies."""
        code = (
            "import runpy, sys; sys.argv = ['x']; "
            f"sys.path.insert(0, r'{EXAMPLES}'); "
            f"runpy.run_path(r'{EXAMPLES / name}', run_name='not_main')"
        )
        env = dict(os.environ)
        env.pop("PYTHONPATH", None)
        proc = subprocess.run(
            [sys.executable, "-c", code],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
