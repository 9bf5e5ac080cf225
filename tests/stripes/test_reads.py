"""Unit tests for repair-I/O accounting (the degraded-read motivation)."""

import pytest

from repro.codes import LRCCode, RSCode, SDCode
from repro.core import SequencePolicy, plan_decode
from repro.stripes import compare_degraded_read, degraded_read_cost, plan_io


def test_lrc_single_failure_reads_one_group():
    lrc = LRCCode(12, 4, 2)
    io = degraded_read_cost(lrc, [0])
    # group 0 is {0,1,2} + its local parity: read the 3 other members
    assert io.read_count == 3
    assert set(io.blocks_read) == {1, 2, lrc.local_parity_id(0)}
    assert io.mult_xors == 3


def test_rs_single_failure_reads_whole_row():
    rs = RSCode(16, 12, r=1)
    io = degraded_read_cost(rs, [0])
    # the parity-check method reads every other block of the codeword
    assert io.read_count == 15


def test_lrc_beats_rs_on_degraded_read():
    """The asymmetric-parity motivation (paper Section I), quantified."""
    comparison = compare_degraded_read(
        {"rs": RSCode(16, 12, r=1), "lrc": LRCCode(12, 4, 2)}, lost_block=0
    )
    assert comparison["lrc"].read_count < comparison["rs"].read_count
    assert comparison["lrc"].mult_xors < comparison["rs"].mult_xors


def test_sd_single_sector_reads_its_row():
    sd = SDCode(8, 16, 2, 2)
    io = degraded_read_cost(sd, [0])
    # one fault in row 0: its disk-parity constraint reads the row's others
    rows = {b // sd.n for b in io.blocks_read}
    assert rows == {0}
    assert io.read_count == sd.n - 1


def test_plan_io_counts_distinct_reads():
    sd = SDCode(6, 8, 2, 2)
    from repro.stripes import worst_case_sd

    scen = worst_case_sd(sd, z=1, rng=0)
    plan = plan_decode(sd, scen.faulty_blocks)
    io = plan_io(sd, plan)
    # recovered blocks reused by the rest phase are not device reads
    assert not set(io.blocks_read) & set(plan.faulty_ids)
    assert io.mult_xors == plan.predicted_cost
    assert len(io.disks_touched) <= sd.n - sd.m


def test_plan_io_traditional_mode():
    sd = SDCode(6, 8, 2, 2)
    plan = plan_decode(sd, [0, 1], SequencePolicy.MATRIX_FIRST)
    io = plan_io(sd, plan)
    assert io.blocks_read == plan.traditional.survivor_ids


def test_disks_touched_consistent():
    lrc = LRCCode(12, 4, 2)
    io = degraded_read_cost(lrc, [0])
    assert io.disks_touched == io.blocks_read  # r == 1: block id == disk id


def test_degraded_read_cost_under_a_wider_pattern():
    """``pattern=`` bills the read while more than the wanted block is
    erased: the benchmark's worst-case SD pattern, block by block."""
    from repro.stripes import worst_case_sd

    sd = SDCode(10, 8, 2, 2)
    pattern = worst_case_sd(sd, z=1, rng=2015).faulty_blocks
    whole = degraded_read_cost(sd, pattern)
    assert (whole.read_count, whole.mult_xors) == (62, 292)
    singles = [degraded_read_cost(sd, [b], pattern=pattern) for b in pattern]
    assert sorted({io.mult_xors for io in singles}) == [8, 61, 62]
    assert [io.mult_xors for io in singles].count(8) == 14
    assert sum(io.mult_xors for io in singles) == 358  # mean 19.9
    for io in singles:
        assert io.read_count == io.mult_xors  # one coefficient per survivor
        assert not set(io.blocks_read) & set(pattern)
    assert degraded_read_cost(sd, pattern, pattern=pattern) == whole
    with pytest.raises(ValueError):
        degraded_read_cost(sd, [0], pattern=pattern)
