"""Unit tests for the disk-array substrate (rebuild, LSEs, degraded reads)."""

import numpy as np
import pytest

from repro.codes import LRCCode, SDCode
from repro.core import PPMDecoder, TraditionalDecoder
from repro.stripes import DiskArray


@pytest.fixture
def array():
    code = SDCode(6, 4, 2, 2)
    arr = DiskArray(code, num_stripes=3, sector_symbols=32, rng=0)
    decoder = TraditionalDecoder()
    # make stripes code-valid: overwrite parity with real encodings
    for stripe in arr.stripes:
        decoder.encode_into(arr.code, stripe)
    for stripe, truth in zip(arr.stripes, arr._truth):
        for b in range(arr.code.num_blocks):
            truth.put(b, stripe.get(b))
    return arr


def test_construction_validates():
    with pytest.raises(ValueError):
        DiskArray(SDCode(4, 4, 1, 1), num_stripes=0, sector_symbols=8)


def test_fail_disk(array):
    array.fail_disk(1)
    for stripe in array.stripes:
        assert 1 in {array.layout.disk_of(b) for b in stripe.erased_ids}
        assert len(stripe.erased_ids) == array.code.r
    with pytest.raises(IndexError):
        array.fail_disk(6)


def test_rebuild_after_disk_and_lse(array):
    array.fail_disk(2)
    array.fail_disk(5)
    # one extra sector per stripe keeps each within the (m=2, s=2) budget
    for si in range(array.num_stripes):
        present = [
            b for b in array.stripes[si].present_ids
        ]
        array.corrupt_sector(si, present[0])
    repaired = array.rebuild(PPMDecoder(threads=2))
    assert repaired == array.num_stripes * (2 * array.code.r + 1)
    assert array.fully_intact()


def test_rebuild_noop_when_intact(array):
    assert array.rebuild(TraditionalDecoder()) == 0
    assert array.fully_intact()


def test_degraded_read(array):
    truth = array._truth[1].get(8).copy()
    array.corrupt_sector(1, 8)
    value = array.degraded_read(TraditionalDecoder(), 1, 8)
    assert np.array_equal(value, truth)
    # a read does not repair
    assert not array.stripes[1].has(8)


def test_degraded_read_present_block(array):
    value = array.degraded_read(TraditionalDecoder(), 0, 0)
    assert np.array_equal(value, array.stripes[0].get(0))


def test_verify_detects_corruption(array):
    region = array.stripes[0].get(0)
    corrupted = region.copy()
    corrupted[0] ^= 1
    array.stripes[0].put(0, corrupted)
    assert not array.verify()


def test_lrc_array_roundtrip():
    code = LRCCode(6, 2, 2)
    arr = DiskArray(code, num_stripes=2, sector_symbols=16, rng=3)
    decoder = TraditionalDecoder()
    for stripe, truth in zip(arr.stripes, arr._truth):
        decoder.encode_into(code, stripe)
        for b in range(code.num_blocks):
            truth.put(b, stripe.get(b))
    arr.corrupt_sector(0, 1)
    arr.corrupt_sector(1, 7)
    assert arr.rebuild(PPMDecoder(threads=2)) == 2
    assert arr.fully_intact()
