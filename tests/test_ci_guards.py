"""The CI job's source-level grep guards hold on this tree, and each one
catches the violation it exists for.

``scripts/ci_guards.sh`` is what each ``No …`` step of the CI workflow
runs; running it here as well means a guard that starts matching fails
tier-1 locally, not only in CI.
"""

import re
import shutil
import subprocess
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "scripts" / "ci_guards.sh"

pytestmark = pytest.mark.skipif(shutil.which("bash") is None,
                                reason="needs bash")

#: One planted violation per guard: (guard, {relative path: contents}).
VIOLATIONS = [
    ("no_vec_kernels_under_apps", {
        "src/repro/apps/demo.py": "def flux_vec(q):\n    return q\n",
    }),
    ("no_csr_in_aero", {
        "src/repro/apps/aero/demo.py": "rows = mat.indptr\n",
    }),
    ("no_assembly_in_matfree", {
        "src/repro/solve/matfree.py": "def apply(mat):\n    mat.assemble()\n",
        "src/repro/apps/aero/driver.py": "",
    }),
    ("no_host_reads_in_cg_trip", {
        "src/repro/solve/cg.py":
            "def cg():\n    def trip():\n        r = x.data\n",
    }),
    ("no_backend_literals_in_examples", {
        "examples/demo.py": 'rt = Runtime("native")\n',
    }),
    ("no_adhoc_persistence", {
        "src/repro/demo.py": 'with open("cache.bin", "wb") as f:\n    pass\n',
    }),
    ("one_strip_executor", {
        "src/repro/backends/demo.py":
            "def run(arg, idx, vals):\n"
            "    arg.dat.scatter_add(idx, vals)\n",
    }),
    ("one_op_table", {
        "src/repro/kernelc/native.py":
            "def _call(fn, a, b):\n"
            "    if fn is np.maximum:\n"
            "        return f'kc_fmax({a}, {b})'\n",
    }),
]


def run_guards(root: Path, *names: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        ["bash", str(root / "scripts" / "ci_guards.sh"), *names],
        capture_output=True, text=True, timeout=60,
    )


def test_ci_guards_pass():
    proc = run_guards(REPO_ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr


@pytest.mark.parametrize("guard, files", VIOLATIONS,
                         ids=[guard for guard, _ in VIOLATIONS])
def test_guard_catches_its_violation(tmp_path, guard, files):
    (tmp_path / "scripts").mkdir()
    shutil.copy(SCRIPT, tmp_path / "scripts" / SCRIPT.name)
    for rel, text in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    proc = run_guards(tmp_path, guard)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert f"FAILED: {guard}" in proc.stdout


def test_ci_runs_every_guard():
    script = SCRIPT.read_text()
    defined = set(re.findall(r"^(\w+)\(\) \{", script, re.M))
    listed = set(re.search(r'^GUARDS="([^"]*)"', script, re.M)
                 .group(1).split())
    workflow = (REPO_ROOT / ".github" / "workflows" / "ci.yml").read_text()
    called = set(re.findall(r"bash scripts/ci_guards\.sh (\w+)", workflow))
    assert defined == listed == called
