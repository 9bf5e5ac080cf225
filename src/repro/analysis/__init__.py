"""Numerical analysis: the paper's closed-form cost model (Section III-B)."""

from __future__ import annotations

from .costmodel import PAPER_RANGES, SDConfig, c1_minus_c4, c3_minus_c2, sd_costs

__all__ = [
    "PAPER_RANGES",
    "SDConfig",
    "c1_minus_c4",
    "c3_minus_c2",
    "sd_costs",
]
