"""Tests for the benchmark harness and generators."""

import json
from pathlib import Path

import pytest

from repro.bench import (
    ALL_FIGURES,
    ALL_TABLES,
    FigureSeries,
    ReportTable,
    phi_tuning_time,
)
from repro.bench.__main__ import main as bench_main


class TestReportTable:
    def test_render_alignment(self):
        t = ReportTable("demo")
        t.add(a=1, b="xy")
        t.add(a=22, b="z")
        text = t.render()
        assert "== demo ==" in text
        lines = text.splitlines()
        assert len({len(l) for l in lines[1:4]}) <= 2  # aligned columns

    def test_float_formatting(self):
        t = ReportTable("fmt")
        t.add(v=1234.5678)
        t.add(v=12.345)
        t.add(v=1.2345)
        t.add(v=0.0)
        text = t.render()
        assert "1235" in text and "12.3" in text and "1.23" in text

    def test_save_writes_txt_and_json(self, tmp_path):
        t = ReportTable("demo")
        t.add(x=1)
        t.note("a note")
        path = t.save("demo", tmp_path)
        assert path.read_text().startswith("== demo ==")
        blob = json.loads((tmp_path / "demo.json").read_text())
        assert blob["rows"] == [{"x": 1}]
        assert blob["notes"] == ["a note"]

    def test_row_for_and_column(self):
        t = ReportTable("demo")
        t.add(k="a", v=1)
        t.add(k="b", v=2)
        assert t.row_for("k", "b")["v"] == 2
        assert t.column("v") == [1, 2]
        with pytest.raises(KeyError):
            t.row_for("k", "c")

    def test_empty_render(self):
        assert "(no rows)" in ReportTable("empty").render()


class TestFigureSeries:
    def test_series_length_validation(self):
        f = FigureSeries("fig", "x", ["a", "b"])
        f.add_series("s", [1.0, 2.0])
        with pytest.raises(ValueError):
            f.add_series("bad", [1.0])

    def test_save_roundtrip(self, tmp_path):
        f = FigureSeries("fig", "x", ["a", "b"])
        f.add_series("s", [1.0, 2.0])
        f.note("hello")
        f.save("fig", tmp_path)
        blob = json.loads((tmp_path / "fig.json").read_text())
        assert blob["series"]["s"] == [1.0, 2.0]
        assert "hello" in (tmp_path / "fig.txt").read_text()


class TestGenerators:
    def test_registries_complete(self):
        assert set(ALL_TABLES) == {f"table{i}" for i in range(1, 10)}
        assert set(ALL_FIGURES) == {
            "figure5", "figure6", "figure7", "figure8a", "figure8b",
            "figure9",
        }

    def test_every_generator_produces_rows(self):
        for name, gen in ALL_TABLES.items():
            t = gen()
            assert t.rows, name
        for name, gen in ALL_FIGURES.items():
            f = gen()
            assert f.series and f.x, name

    def test_phi_tuning_surface_properties(self):
        base = 30.0
        best = phi_tuning_time(base, 12, 20, 1024)
        assert best >= base
        # Extreme splits are worse than the middling one.
        assert phi_tuning_time(base, 1, 240, 1024) > best
        assert phi_tuning_time(base, 60, 4, 256) > best



COMMITTED = Path(__file__).resolve().parent.parent / "bench_results"


class TestCommittedArtifacts:
    @pytest.mark.parametrize("name", sorted({**ALL_TABLES, **ALL_FIGURES}))
    def test_cli_reproduces_committed_copy(self, name, tmp_path, capsys):
        assert bench_main([name, "--outdir", str(tmp_path)]) == 0
        for ext in (".txt", ".json"):
            fresh = (tmp_path / f"{name}{ext}").read_bytes()
            assert fresh == (COMMITTED / f"{name}{ext}").read_bytes()


class TestDumpKernel:
    @pytest.mark.parametrize(
        "name", ["res_calc", "compute_flux", "res_calc_aero"]
    )
    def test_dump_known_kernel(self, name, capsys):
        assert bench_main(["--dump-kernel", name]) == 0
        out = capsys.readouterr().out
        assert f"# ---- {name}: generated vector kernel" in out

    def test_unknown_kernel_rejected(self, capsys):
        assert bench_main(["--dump-kernel", "no_such_kernel"]) == 1
        assert "unknown kernel 'no_such_kernel'" in capsys.readouterr().out
