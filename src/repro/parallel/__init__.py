"""Parallel substrate: execution lives in :mod:`repro.pipeline`; this
package provides the work-assignment rules it uses and the calibrated
decode-time model used to evaluate multi-core behaviour (this host has
one core — DESIGN.md, substitutions).
"""

from __future__ import annotations

from .assignment import assign_lpt, assign_round_robin, lpt_advantage, makespan
from .calibrate import (
    host_profile,
    measure_spawn_overhead,
    measure_throughput,
    scaled_paper_profile,
)
from .simulate import (
    E5_2603,
    E5_2650,
    I7_3930K,
    PAPER_CPUS,
    CPUProfile,
    SimulatedTime,
    improvement_ratio,
    simulate_decode_time,
    simulate_ppm_time,
    simulate_traditional_time,
)

__all__ = [
    "assign_lpt",
    "assign_round_robin",
    "lpt_advantage",
    "makespan",
    "host_profile",
    "measure_spawn_overhead",
    "measure_throughput",
    "scaled_paper_profile",
    "E5_2603",
    "E5_2650",
    "I7_3930K",
    "PAPER_CPUS",
    "CPUProfile",
    "SimulatedTime",
    "improvement_ratio",
    "simulate_decode_time",
    "simulate_ppm_time",
    "simulate_traditional_time",
]
