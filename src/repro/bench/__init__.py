"""Benchmark harness: workload builders, measured decode experiments and
the per-figure drivers that regenerate the paper's evaluation section."""

from __future__ import annotations

from .extras import EXTRAS, run_extra
from .figures import FIGURES, run_figure
from .sweeps import SweepStats, c4_over_c1_sweep, paper_average_report, sweep_stats
from .measure import (
    MeasuredDecode,
    MeasuredImprovement,
    measure_decoder,
    measure_improvement,
    measure_wall,
)
from .report import Report, format_reports
from .workloads import (
    LRC_COST_FAMILIES,
    Workload,
    build_stripe,
    erased_blocks,
    lrc_workload,
    rs_workload,
    sd_workload,
    sector_symbols_for,
)

__all__ = [
    "EXTRAS",
    "run_extra",
    "FIGURES",
    "run_figure",
    "SweepStats",
    "c4_over_c1_sweep",
    "paper_average_report",
    "sweep_stats",
    "MeasuredDecode",
    "MeasuredImprovement",
    "measure_decoder",
    "measure_improvement",
    "measure_wall",
    "Report",
    "format_reports",
    "LRC_COST_FAMILIES",
    "Workload",
    "build_stripe",
    "erased_blocks",
    "lrc_workload",
    "rs_workload",
    "sd_workload",
    "sector_symbols_for",
]
