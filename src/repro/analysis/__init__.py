"""Reporting: tables, ASCII charts and experiment artifacts.

- :mod:`repro.analysis.tables` -- plain-text tables (the Tables 1/2
  renderer follows the paper's layout: task rows then data rows).
- :mod:`repro.analysis.charts` -- ASCII bar charts (stand-ins for the
  paper's Figures 2 and 3, log-scale like the originals).
- :mod:`repro.analysis.report` -- experiment artifact assembly used by
  the benchmark harness and EXPERIMENTS.md.

Nothing here persists measurements: the profile cache stores profiles
and baselines (:mod:`repro.exp.cache`, with the codec in
:mod:`repro.exp.scenario`), and store records carry the plans.
"""

from repro.analysis.charts import ascii_bars, log_bars
from repro.analysis.report import (
    figure2_report,
    figure3_report,
    headline_report,
    report_from_store,
    table_report,
)
from repro.analysis.tables import format_table

__all__ = [
    "ascii_bars",
    "figure2_report",
    "figure3_report",
    "format_table",
    "headline_report",
    "log_bars",
    "report_from_store",
    "table_report",
]
