"""``backend="auto"``: numerics, pins, and the perfmodel link.

Three contracts pinned here:

* tuning never changes numerics — every app under ``Runtime("auto")``
  is bitwise identical to sequential eager execution, whatever the
  tuner picked and whichever layout it landed on;
* explicitly passed knobs are pins, not suggestions — the tuner only
  negotiates the remaining axes;
* the runtime actually *consumes* perfmodel predictions: candidate
  ranking is seeded by the calibrated efficiency tables (the
  previously display-only ``repro.perfmodel`` numbers gate which
  configurations get probed), and the calibration can be refitted from
  measured profiles.
"""

import numpy as np
import pytest

from repro.apps.aero import AeroSim
from repro.apps.airfoil import AirfoilSim
from repro.apps.volna import VolnaSim
from repro.core import Runtime, make_backend
from repro.mesh import make_airfoil_mesh, make_tri_mesh
from repro.perfmodel import (
    CALIBRATION,
    ArchCalibration,
    fit_calibration_from_profile,
)
from repro.tune import (
    Pins,
    TuneCandidate,
    TuneDecision,
    default_candidates,
    predict_candidate,
    rank_candidates,
    reset_tune_cache,
    tune_cache_stats,
)


@pytest.fixture(autouse=True)
def isolated_tune_cache(tmp_path, monkeypatch):
    """Every test negotiates against its own empty artifact store, so
    its own empty on-disk tuning DB."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "store"))
    monkeypatch.delenv("REPRO_TUNE_DISABLE", raising=False)
    reset_tune_cache()


def _airfoil(runtime, **kw):
    return AirfoilSim(make_airfoil_mesh(16, 8), runtime=runtime, **kw)


def _volna(runtime, **kw):
    return VolnaSim(make_tri_mesh(12, 9, 100_000.0, 75_000.0),
                    dtype=np.float64, runtime=runtime, **kw)


def _aero(runtime, **kw):
    return AeroSim(make_airfoil_mesh(16, 8), runtime=runtime, **kw)


class TestAutoNeverChangesNumerics:
    """Acceptance: auto is bitwise identical to sequential eager."""

    @pytest.mark.parametrize("layout", ["aos", "soa"])
    def test_airfoil(self, layout):
        auto = _airfoil(Runtime("auto", layout=layout))
        auto.run(3)
        ref = _airfoil(Runtime(make_backend("sequential")), chained=False)
        ref.run(3)
        assert np.array_equal(auto.q, ref.q)
        assert auto.rms_history == ref.rms_history

    @pytest.mark.parametrize("layout", ["aos", "soa"])
    def test_volna(self, layout):
        auto = _volna(Runtime("auto", layout=layout))
        auto.run(3)
        ref = _volna(Runtime(make_backend("sequential")), chained=False)
        ref.run(3)
        assert np.array_equal(auto.q, ref.q)
        assert auto.dt_history == ref.dt_history

    @pytest.mark.parametrize("layout", ["aos", "soa"])
    def test_aero(self, layout):
        auto = _aero(Runtime("auto", layout=layout))
        auto.run(2)
        ref = _aero(Runtime(make_backend("sequential")), chained=False)
        ref.run(2)
        assert np.array_equal(auto.phi, ref.phi)
        rt = auto._runtime()
        if rt.tuned_decision.operator == "matfree":
            # Matfree never stages or assembles — the solution is the
            # contract, the CSR values intentionally stay untouched.
            assert auto.state.mat.assemble_calls == 0
        else:
            assert np.array_equal(auto.state.mat.data,
                                  ref.state.mat.data)

    def test_unpinned_layout_is_negotiable(self):
        # No layout passed: the tuner owns the axis, and whatever it
        # picks the state actually carries it (realloc happened).
        rt = Runtime("auto")
        sim = _airfoil(rt)
        assert sim.state.p_q.layout == rt.tuned_decision.layout


class TestPinsAndReuse:
    def test_explicit_knobs_are_pins(self):
        rt = Runtime("auto", layout="soa")
        sim = _airfoil(rt, chained=False)
        d = rt.tuned_decision
        assert d.layout == "soa"
        assert d.chained is False
        assert sim.chained is False
        assert sim.state.p_q.layout == "soa"

    def test_disable_env_short_circuits(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_TUNE_DISABLE", "1")
        rt = Runtime("auto")
        _airfoil(rt)
        assert rt.tuned_decision.source == "disabled"
        stats = tune_cache_stats()
        assert stats["probes"] == 0
        assert stats["writes"] == 0
        assert not (tmp_path / "store" / "tune").exists()  # no disk traffic

    def test_second_runtime_replays_from_db_without_probes(self):
        rt1 = Runtime("auto")
        _airfoil(rt1)
        probes_after_first = tune_cache_stats()["probes"]
        assert rt1.tuned_decision.source == "probe"
        rt2 = Runtime("auto")
        _airfoil(rt2)
        assert rt2.tuned_decision.source == "db"
        assert tune_cache_stats()["probes"] == probes_after_first
        assert rt2.tuned_decision.backend == rt1.tuned_decision.backend

    def test_second_sim_on_a_tuned_runtime_reuses_the_decision(self):
        rt = Runtime("auto")
        _airfoil(rt)
        probes = tune_cache_stats()["probes"]
        hits = tune_cache_stats()["hits"]
        _airfoil(rt)  # same runtime: no negotiation at all
        assert tune_cache_stats()["probes"] == probes
        assert tune_cache_stats()["hits"] == hits


class TestOperatorAxis:
    """Apps with interchangeable operator realizations expose them as a
    tuning axis; apps without one are untouched."""

    def test_default_candidates_cross_the_operator_axis(self):
        base = default_candidates()
        crossed = default_candidates(operators=("assembled", "matfree"))
        assert len(crossed) == 2 * len(base)
        assert {c.operator for c in crossed} == {"assembled", "matfree"}
        assert all(c.operator is None for c in base)

    def test_pinned_operator_collapses_the_axis(self):
        pins = Pins(operator="matfree")
        cands = default_candidates(pins,
                                   operators=("assembled", "matfree"))
        assert cands
        assert all(c.operator == "matfree" for c in cands)

    def test_decision_roundtrips_operator(self):
        d = TuneDecision("native", "soa", True, None,
                         operator="matfree")
        d2 = TuneDecision.from_dict(d.to_dict())
        assert d2.operator == "matfree"
        assert d2.candidate().operator == "matfree"
        # Decisions persisted before the axis existed load as None.
        old = TuneDecision.from_dict(
            {"backend": "vectorized", "layout": "aos", "chained": True,
             "tiling": None})
        assert old.operator is None

    def test_predict_filters_loops_by_operator(self):
        infos = [
            {"name": "shared", "n": 1000, "kind": "direct",
             "bytes": 1e8, "operator": None},
            {"name": "asm_only", "n": 1000, "kind": "scatter",
             "bytes": 5e9, "operator": "assembled"},
            {"name": "mf_only", "n": 1000, "kind": "gather",
             "bytes": 1e8, "operator": "matfree"},
        ]
        asm = predict_candidate(
            TuneCandidate("vectorized", "aos", True, None,
                          operator="assembled"), infos)
        mf = predict_candidate(
            TuneCandidate("vectorized", "aos", True, None,
                          operator="matfree"), infos)
        # The assembled candidate pays for the 5 GB scatter loop the
        # matfree candidate never executes.
        assert asm > mf

    def test_flops_bound_loops_price_compute_time(self):
        cand = TuneCandidate("vectorized", "aos", True, None)
        cheap = predict_candidate(
            cand, [{"name": "l", "n": 1000, "kind": "direct",
                    "bytes": 1e6, "flops": 0.0}])
        hot = predict_candidate(
            cand, [{"name": "l", "n": 1000, "kind": "direct",
                    "bytes": 1e6, "flops": 1e12}])
        assert hot > cheap

    def test_aero_auto_negotiates_the_operator(self):
        rt = Runtime("auto")
        sim = _aero(rt)
        d = rt.tuned_decision
        assert d.operator in ("assembled", "matfree")
        assert sim.operator_mode == d.operator

    def test_explicit_operator_is_a_pin(self):
        rt = Runtime("auto")
        sim = _aero(rt, operator="assembled")
        assert rt.tuned_decision.operator == "assembled"
        assert sim.operator_mode == "assembled"
        sim.run(1)
        assert sim.state.mat.assemble_calls == 1

    def test_matfree_pin_runs_without_assembly(self):
        rt = Runtime("auto")
        sim = _aero(rt, operator="matfree")
        assert rt.tuned_decision.operator == "matfree"
        sim.run(2)
        assert sim.state.mat.assemble_calls == 0
        ref = _aero(Runtime(make_backend("sequential")), chained=False)
        ref.run(2)
        assert np.array_equal(sim.phi, ref.phi)

    def test_apps_without_the_axis_stay_unannotated(self):
        rt = Runtime("auto")
        _airfoil(rt)
        assert rt.tuned_decision.operator is None


class TestPerfmodelLink:
    """Satellite: the dead perfmodel link, closed and pinned."""

    def test_runtime_consumes_perfmodel_predictions(self, monkeypatch):
        """The tuner's candidate ranking runs over the sim's profiled
        loop classes — the perfmodel tables gate real decisions."""
        import repro.tune.tuner as tuner_mod

        calls = []
        real = tuner_mod.rank_candidates

        def spy(loop_infos, candidates, calibration=None):
            calls.append(list(loop_infos))
            return real(loop_infos, candidates, calibration)

        monkeypatch.setattr(tuner_mod, "rank_candidates", spy)
        rt = Runtime("auto")
        _airfoil(rt)
        assert calls, "negotiation never ranked candidates"
        infos = calls[0]
        assert infos, "ranking ran without profiled loop infos"
        kinds = {i["kind"] for i in infos}
        # Airfoil has direct kernels and the indirect-INC res/bres
        # loops; the ranking saw the real class structure.
        assert "scatter" in kinds
        assert all(i["bytes"] > 0 for i in infos)

    def test_calibration_changes_flip_the_ranking(self):
        """Same loops, same candidates — swapping the calibrated
        efficiency tables reorders the probe queue."""
        infos = [{"name": "g", "n": 50_000, "kind": "gather",
                  "bytes": 5e9}]
        cands = [
            TuneCandidate("vectorized", "aos", True, None),
            TuneCandidate("sequential", "aos", True, None),
        ]
        vec_wins = ArchCalibration(
            mem_eff_scalar={"gather": 0.05},
            mem_eff_vec={"gather": 0.9},
        )
        scalar_wins = ArchCalibration(
            mem_eff_scalar={"gather": 0.9},
            mem_eff_vec={"gather": 0.05},
        )
        assert rank_candidates(infos, cands, vec_wins)[0].backend == \
            "vectorized"
        assert rank_candidates(infos, cands, scalar_wins)[0].backend == \
            "sequential"

    def test_fit_calibration_from_measured_profile(self):
        base = CALIBRATION["cpu"]
        profile = {"loops": {
            # 20 GB/s achieved on direct traffic, 1 GB/s on scatter.
            "fast": {"kind": "direct", "seconds": 1.0, "est_bytes": 20e9},
            "slow": {"kind": "scatter", "seconds": 1.0, "est_bytes": 1e9},
        }}
        cal = fit_calibration_from_profile(profile)
        # The best class back-solves the peak under its base fraction,
        # so its fitted efficiency reproduces the base table's...
        assert cal.mem_eff_vec["direct"] == pytest.approx(
            base.mem_eff_vec["direct"])
        # ...while the 20x-slower scatter class drops well below it.
        assert cal.mem_eff_vec["scatter"] < base.mem_eff_vec["scatter"]
        assert cal.mem_eff_vec["scatter"] == pytest.approx(
            base.mem_eff_vec["direct"] / 20, rel=1e-6)
        # Unexercised classes keep the paper-fitted fractions; the
        # class ordering the model relies on survives the refit.
        assert cal.mem_eff_vec["gather"] == base.mem_eff_vec["gather"]
        assert cal.mem_eff_scalar["scatter"] < base.mem_eff_scalar["scatter"]
        # Explicit peak: fractions follow achieved / peak directly.
        cal40 = fit_calibration_from_profile(profile, peak_gbs=40.0)
        assert cal40.mem_eff_vec["direct"] == pytest.approx(0.5)
        # Empty profiles change nothing.
        assert fit_calibration_from_profile({"loops": {}}) is base

    def test_profile_snapshot_feeds_the_fit(self):
        """End to end: a real run's profile refits the calibration."""
        rt = Runtime(make_backend("vectorized"))
        sim = _airfoil(rt)
        sim.run(2)
        profile = rt.stats()["profile"]
        assert profile["loops"]
        cal = fit_calibration_from_profile(profile)
        assert isinstance(cal, ArchCalibration)
        for kind, eff in cal.mem_eff_vec.items():
            assert 0.0 < eff < 1.0, kind
