"""What the end-to-end benchmark (``bench_e2e/``) reaches into ``src/``
for, pinned in tier-1.

``bench_e2e/spans.py`` wraps named entry points of the library, and
``bench_e2e/layers.py: phase_breakdown`` times the vectorized backend's
gather -> vector kernel -> scatter legs through ``gather_batch`` /
``scatter_batch``.  A ``src/`` change that removes one of those names
would otherwise surface only in the benchmark's own smoke run.  These
tests read ``bench_e2e/`` and never edit it.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro.apps.airfoil import AirfoilSim
from repro.core import Runtime
from repro.mesh import make_airfoil_mesh
from repro.testing import spy_chains

BENCH = Path(__file__).resolve().parents[1] / "bench_e2e"

#: ``airfoil_fallback``'s twin size (``bench_e2e/workloads.py``).
TWIN = (60, 30)


@pytest.fixture
def bench(monkeypatch):
    """``bench_e2e``'s ``spans`` and ``layers`` modules, imported the way
    its worker imports them (the directory on ``sys.path``)."""
    monkeypatch.syspath_prepend(str(BENCH))
    import layers
    import spans

    return spans, layers


def _res_calc(sim_runtime_pairs):
    """Each sim's bound ``res_calc`` loop after one chained step."""
    loops = []
    for sim, rt in sim_runtime_pairs:
        chains = spy_chains(rt)
        sim.step()
        loops.append(next(bl for c in chains for bl in c.loops
                          if bl.kernel.name == "res_calc"))
    return loops


def _sim():
    rt = Runtime("vectorized")
    return AirfoilSim(make_airfoil_mesh(*TWIN), runtime=rt, chained=True), rt


def test_recorder_patches_exist_and_restore(bench):
    spans, _ = bench
    from repro.backends.base import Backend

    execute = Backend.__dict__["execute"]
    rec = spans.Recorder()
    try:
        rec.install()  # raises if a patched name is gone
        patched = {attr for _, attr, _ in rec._installed}
        for attr in ("run_chain", "run_tiled", "run_fused", "run_loop",
                     "run_eager", "build_tiled_schedule",
                     "compiled_chain_for", "plan_for", "flush", "execute"):
            assert attr in patched, attr
        assert Backend.__dict__["execute"] is not execute
    finally:
        rec.uninstall()
    assert Backend.__dict__["execute"] is execute
    assert not rec._installed


def test_phase_breakdown_times_three_legs(bench):
    _, layers = bench
    (bl,) = _res_calc([_sim()])
    got = layers.phase_breakdown(bl)
    for key in ("backends.gather_ms", "backends.kernel_ms",
                "backends.scatter_ms"):
        assert key in got and got[key] >= 0.0, key


def test_phase_breakdown_sequence_is_one_eager_execute(bench):
    """``phase_breakdown``'s gather_batch -> vector kernel ->
    scatter_batch over each phase applies the loop exactly as one eager
    ``execute`` does, bit for bit."""
    _, layers = bench
    (sim_a, rt_a), (sim_b, rt_b) = _sim(), _sim()
    bl_a, bl_b = _res_calc([(sim_a, rt_a), (sim_b, rt_b)])
    before = [np.array(a.dat.data) for a in bl_a.args]
    for a, b in zip(bl_a.args, bl_b.args):
        assert np.array_equal(a.dat.data, b.dat.data)
    layers.phase_breakdown(bl_a, repeats=1)
    rt_b.backend.execute(bl_b.kernel, bl_b.set, bl_b.args, bl_b.plan)
    for a, b in zip(bl_a.args, bl_b.args):
        assert a.dat.data.tobytes() == b.dat.data.tobytes(), a.dat.name
    assert any(not np.array_equal(old, a.dat.data)
               for old, a in zip(before, bl_a.args))
