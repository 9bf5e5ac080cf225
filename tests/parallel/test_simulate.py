"""Unit tests for the calibrated parallel decode-time model.

These assert the *shapes* the paper reports (Figures 7 and 10), not
absolute times: improvement grows with T up to the core count and
reverses beyond it; similar improvements across CPU models; PPM with
T=1 still beats the baseline via cost reduction alone.
"""

import pytest

from repro.codes import SDCode
from repro.core import plan_decode
from repro.parallel import (
    E5_2603,
    E5_2650,
    I7_3930K,
    PAPER_CPUS,
    CPUProfile,
    improvement_ratio,
    simulate_decode_time,
    simulate_ppm_time,
    simulate_traditional_time,
)
from repro.stripes import worst_case_sd

SYM = 1 << 20  # ~1M symbols per sector: large enough to amortise spawn


@pytest.fixture(scope="module")
def plan():
    code = SDCode(16, 16, 2, 2)
    scen = worst_case_sd(code, z=1, rng=0)
    return plan_decode(code, scen.faulty_blocks)


def test_paper_profiles():
    assert E5_2603.cores == 4 and E5_2603.ghz == 1.8
    assert I7_3930K.cores == 6 and I7_3930K.ghz == 3.2
    assert E5_2650.cores == 8 and E5_2650.ghz == 2.0
    assert len(PAPER_CPUS) == 3


def test_traditional_time_scales_with_cost(plan):
    t_normal = simulate_traditional_time(plan, E5_2603, SYM)
    t_mf = simulate_traditional_time(plan, E5_2603, SYM, matrix_first=True)
    assert t_normal.total_seconds == pytest.approx(
        plan.costs.c1 * SYM / E5_2603.throughput
    )
    assert t_mf.total_seconds == pytest.approx(plan.costs.c2 * SYM / E5_2603.throughput)


def test_ppm_t1_gains_from_cost_reduction_only(plan):
    trad, ppm = simulate_decode_time(plan, E5_2603, threads=1, sector_symbols=SYM)
    gain = improvement_ratio(trad, ppm)
    assert gain > 0
    assert ppm.spawn_seconds == 0
    # T=1 total equals C4's serial time
    assert ppm.total_seconds == pytest.approx(plan.costs.c4 * SYM / E5_2603.throughput)


def test_improvement_grows_until_core_count(plan):
    gains = []
    for t in range(1, E5_2603.cores + 1):
        trad, ppm = simulate_decode_time(plan, E5_2603, threads=t, sector_symbols=SYM)
        gains.append(improvement_ratio(trad, ppm))
    assert all(b > a for a, b in zip(gains, gains[1:])), gains


def test_oversubscription_hurts(plan):
    at_cores = simulate_ppm_time(plan, E5_2603, threads=4, sector_symbols=SYM)
    beyond = simulate_ppm_time(plan, E5_2603, threads=8, sector_symbols=SYM)
    assert beyond.total_seconds > at_cores.total_seconds


def test_similar_improvement_across_cpus(plan):
    """Figure 10: PPM's relative gain is CPU-independent (same T)."""
    gains = []
    for cpu in PAPER_CPUS:
        trad, ppm = simulate_decode_time(plan, cpu, threads=4, sector_symbols=SYM)
        gains.append(improvement_ratio(trad, ppm))
    spread = max(gains) - min(gains)
    assert spread < 0.2 * max(gains), gains


def test_faster_cpu_is_faster_absolute(plan):
    slow = simulate_ppm_time(plan, E5_2603, threads=4, sector_symbols=SYM)
    fast = simulate_ppm_time(plan, I7_3930K, threads=4, sector_symbols=SYM)
    assert fast.total_seconds < slow.total_seconds


def test_small_sectors_erode_parallel_gain(plan):
    """Figure 9's left edge: spawn overhead dominates tiny stripes."""
    tiny_trad, tiny_ppm = simulate_decode_time(plan, E5_2603, 4, sector_symbols=256)
    big_trad, big_ppm = simulate_decode_time(plan, E5_2603, 4, sector_symbols=SYM)
    tiny_gain = improvement_ratio(tiny_trad, tiny_ppm)
    big_gain = improvement_ratio(big_trad, big_ppm)
    assert big_gain > tiny_gain


def test_non_partition_plan_is_serial():
    code = SDCode(6, 4, 2, 2)
    plan = plan_decode(code, [0, 1])  # single group, no rest
    from repro.core import SequencePolicy, plan_decode as pd

    forced = pd(code, [0, 1], SequencePolicy.MATRIX_FIRST)
    sim = simulate_ppm_time(forced, E5_2603, threads=4, sector_symbols=SYM)
    assert sim.spawn_seconds == 0
    assert sim.rest_seconds == 0


def test_validation():
    code = SDCode(6, 4, 2, 2)
    plan = plan_decode(code, [0, 1])
    with pytest.raises(ValueError):
        simulate_ppm_time(plan, E5_2603, threads=0, sector_symbols=SYM)
    zero = simulate_traditional_time(plan, E5_2603, SYM)
    with pytest.raises(ZeroDivisionError):
        improvement_ratio(zero, type(zero)(0.0, 0.0, 0.0))
