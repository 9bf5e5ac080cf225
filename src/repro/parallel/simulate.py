"""Calibrated parallel decode-time model.

The paper measures PPM on 4/6/8-core Xeons; this reproduction runs on a
single-core host (see DESIGN.md substitutions), so the *parallel* share
of the speedup is evaluated with an explicit makespan model driven by the
real per-sub-matrix costs of a plan:

- every sub-matrix decode costs ``c_i`` mult_XORs over ``sym`` symbols;
- a CPU profile supplies cores, per-core mult_XORs-symbol throughput and
  per-thread spawn overhead (throughput is *calibrated* on the host by
  :mod:`repro.parallel.calibrate` and scaled by clock ratio);
- phase 1 bins groups round-robin over T workers (Algorithm 1's
  ``p mod T``); its wall time is the largest bin, bounded below by
  total-work / cores, with an oversubscription penalty when T > cores;
- the rest phase and the traditional baseline are serial.

This is exactly the ``sum c_i - c_max`` saving of Section III-C plus the
threading overhead the paper says its measurements include.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.planner import DecodePlan
from .assignment import assign_round_robin, makespan

#: Default per-core throughput: symbols * mult_XORs per second.  This is
#: overwritten by host calibration in the bench harness; the raw value
#: (order of a few hundred MB/s of mult_XOR work) matches a scalar
#: table-lookup GF(2^8) kernel at 1 GHz.
DEFAULT_THROUGHPUT = 2.0e8

#: Penalty factor applied to phase-1 wall time per excess thread beyond
#: the core count (context-switch + cache-churn proxy).
OVERSUBSCRIPTION_PENALTY = 0.08


@dataclass(frozen=True)
class CPUProfile:
    """A machine model for the simulator.

    ``ghz`` only matters relative to other profiles: throughput scales
    linearly with it from ``base_throughput`` (per GHz).
    """

    name: str
    cores: int
    ghz: float
    base_throughput: float = DEFAULT_THROUGHPUT  # per GHz, per core
    spawn_overhead_s: float = 60e-6  # per worker thread

    @property
    def throughput(self) -> float:
        """symbols * mult_XORs per second per core."""
        return self.base_throughput * self.ghz


#: The three machines of the paper's Section IV.
E5_2603 = CPUProfile(name="E5-2603", cores=4, ghz=1.8)
I7_3930K = CPUProfile(name="i7-3930K", cores=6, ghz=3.2)
E5_2650 = CPUProfile(name="E5-2650", cores=8, ghz=2.0)
PAPER_CPUS = (E5_2603, I7_3930K, E5_2650)


@dataclass(frozen=True)
class SimulatedTime:
    """Decomposed decode time (seconds) under the model."""

    phase1_seconds: float
    rest_seconds: float
    spawn_seconds: float

    @property
    def total_seconds(self) -> float:
        return self.phase1_seconds + self.rest_seconds + self.spawn_seconds


def simulate_ppm_time(
    plan: DecodePlan,
    profile: CPUProfile,
    threads: int,
    sector_symbols: int,
) -> SimulatedTime:
    """Model the PPM decode time of ``plan`` on ``profile`` with T threads."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    per_op = sector_symbols / profile.throughput
    # independent stages (the groups, or the one whole-matrix stage)
    # spread over threads; dependent ones (the rest phase) are serial
    parallel_costs = tuple(s.cost for s in plan.stages if s.independent)
    serial_cost = sum(s.cost for s in plan.stages if not s.independent)
    t_eff = max(1, min(threads, len(parallel_costs)))
    if t_eff == 1:
        phase1 = sum(parallel_costs) * per_op
        spawn = 0.0
    else:
        busiest = makespan(parallel_costs, assign_round_robin(parallel_costs, t_eff))
        concurrent = min(t_eff, profile.cores)
        # cores bound the achievable parallelism; oversubscription adds churn
        bound = max(busiest, sum(parallel_costs) / concurrent)
        penalty = 1.0
        if t_eff > profile.cores:
            penalty += OVERSUBSCRIPTION_PENALTY * (t_eff - profile.cores)
        phase1 = bound * per_op * penalty
        spawn = profile.spawn_overhead_s * t_eff
    return SimulatedTime(
        phase1_seconds=phase1,
        rest_seconds=serial_cost * per_op,
        spawn_seconds=spawn,
    )


def simulate_traditional_time(
    plan: DecodePlan,
    profile: CPUProfile,
    sector_symbols: int,
    matrix_first: bool = False,
) -> SimulatedTime:
    """Model the serial whole-matrix decode (the paper's baseline)."""
    cost = plan.costs.c2 if matrix_first else plan.costs.c1
    per_op = sector_symbols / profile.throughput
    return SimulatedTime(phase1_seconds=cost * per_op, rest_seconds=0.0, spawn_seconds=0.0)


def simulate_decode_time(
    plan: DecodePlan,
    profile: CPUProfile,
    threads: int,
    sector_symbols: int,
) -> tuple[SimulatedTime, SimulatedTime]:
    """(traditional, PPM) time pair for one scenario — the paper's contrast."""
    return (
        simulate_traditional_time(plan, profile, sector_symbols),
        simulate_ppm_time(plan, profile, threads, sector_symbols),
    )


def improvement_ratio(traditional: SimulatedTime, ppm: SimulatedTime) -> float:
    """The paper's "improvement ratio": speed gain t_old / t_new - 1.

    A value of 2.1081 is the paper's headline "210.81%" improvement.
    """
    if ppm.total_seconds <= 0:
        raise ZeroDivisionError("PPM time is zero; cannot form a ratio")
    return traditional.total_seconds / ppm.total_seconds - 1.0
