"""Benchmark harness: table/figure rendering and result persistence.

Every table and figure of the paper regenerates as a :class:`ReportTable`
(rows of dicts) or a :class:`FigureSeries` (named data series — we print
the series a plot would show, since the evaluation is textual).  Both
render as aligned ASCII and write themselves under ``bench_results/``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Default output directory (repo-root relative when run from the repo).
RESULTS_DIR = Path("bench_results")


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000:
            return f"{value:.0f}"
        if abs(value) >= 10:
            return f"{value:.1f}"
        return f"{value:.2f}"
    return str(value)


@dataclass
class ReportTable:
    """An aligned-text table with provenance metadata.

    ``meta`` records the settings a table was produced under, so
    persisted JSON artifacts are self-describing.
    """

    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    meta: Dict[str, object] = field(default_factory=dict)

    def add(self, **row) -> None:
        self.rows.append(row)

    def note(self, text: str) -> None:
        self.notes.append(text)

    # ------------------------------------------------------------------
    def render(self) -> str:
        if not self.rows:
            return f"== {self.title} ==\n(no rows)\n"
        cols = list(dict.fromkeys(c for r in self.rows for c in r))
        widths = {
            c: max(len(c), *(len(_fmt(r.get(c, ""))) for r in self.rows))
            for c in cols
        }
        lines = [f"== {self.title} =="]
        if self.meta:
            lines.append(
                "cfg: " + "  ".join(f"{k}={v}" for k, v in self.meta.items())
            )
        lines.append("  ".join(c.ljust(widths[c]) for c in cols))
        lines.append("  ".join("-" * widths[c] for c in cols))
        for r in self.rows:
            lines.append(
                "  ".join(_fmt(r.get(c, "")).ljust(widths[c]) for c in cols)
            )
        for n in self.notes:
            lines.append(f"note: {n}")
        return "\n".join(lines) + "\n"

    def save(self, name: str, directory: Optional[Path] = None) -> Path:
        directory = Path(directory) if directory else RESULTS_DIR
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{name}.txt"
        path.write_text(self.render())
        (directory / f"{name}.json").write_text(
            json.dumps({"title": self.title, "rows": self.rows,
                        "notes": self.notes, "meta": self.meta},
                       indent=2, default=str)
        )
        return path

    # ------------------------------------------------------------------
    def column(self, name: str) -> List[object]:
        return [r[name] for r in self.rows]

    def row_for(self, key_col: str, key) -> Dict[str, object]:
        for r in self.rows:
            if r.get(key_col) == key:
                return r
        raise KeyError(f"No row with {key_col}={key!r} in {self.title!r}")


@dataclass
class FigureSeries:
    """Named data series standing in for one figure's plotted content."""

    title: str
    x_label: str
    x: Sequence[object] = field(default_factory=list)
    series: Dict[str, List[float]] = field(default_factory=dict)
    notes: List[str] = field(default_factory=list)

    def add_series(self, name: str, values: Sequence[float]) -> None:
        values = list(values)
        if self.x and len(values) != len(self.x):
            raise ValueError(
                f"series {name!r} has {len(values)} points, x has {len(self.x)}"
            )
        self.series[name] = values

    def note(self, text: str) -> None:
        self.notes.append(text)

    def render(self) -> str:
        table = ReportTable(self.title)
        for i, xv in enumerate(self.x):
            row = {self.x_label: xv}
            for name, vals in self.series.items():
                row[name] = vals[i]
            table.add(**row)
        table.notes = self.notes
        return table.render()

    def save(self, name: str, directory: Optional[Path] = None) -> Path:
        directory = Path(directory) if directory else RESULTS_DIR
        directory.mkdir(parents=True, exist_ok=True)
        path = directory / f"{name}.txt"
        path.write_text(self.render())
        (directory / f"{name}.json").write_text(
            json.dumps(
                {"title": self.title, "x_label": self.x_label,
                 "x": list(self.x), "series": self.series,
                 "notes": self.notes},
                indent=2, default=str,
            )
        )
        return path
