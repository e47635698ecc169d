"""Benchmark harness regenerating every table and figure of the paper."""

from .figures import ALL_FIGURES, phi_tuning_time
from .harness import RESULTS_DIR, FigureSeries, ReportTable
from .tables import ALL_TABLES

__all__ = [
    "ALL_FIGURES",
    "ALL_TABLES",
    "FigureSeries",
    "RESULTS_DIR",
    "ReportTable",
    "phi_tuning_time",
]
