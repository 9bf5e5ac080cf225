"""The disk-array workflow on the one multi-stripe store.

Whole-disk failures and latent sector errors (LSEs) go into a
:class:`~repro.service.BlobStore` as erasures.  A rebuild is one
``decode_batch`` over every damaged stripe's snapshot and pattern,
written back with ``store.repair``; a degraded read decodes just the
block asked for and writes nothing back.  The helpers here are shared
with the pipeline and end-to-end tests.
"""

import numpy as np
import pytest

from repro.codes import LRCCode, SDCode
from repro.core import PPMDecoder, TraditionalDecoder
from repro.service import BlobStore


@pytest.fixture
def store():
    return BlobStore.build(SDCode(6, 4, 2, 2), 3, 32, rng=0)


def fail_disk(store, disk):
    for sid in store.stripe_ids:
        store.erase(sid, store.layout.blocks_of_disk(disk))


def lose_first_present_sector(store):
    """One LSE per stripe, on top of whatever is already lost."""
    for sid in store.stripe_ids:
        store.erase(sid, [store.stripe(sid).present_ids[0]])


def rebuild(store, decoder):
    """Every damaged stripe in one ``decode_batch``, written back; the
    number of blocks repaired.  The loop ``RepairManager`` drains with."""
    damaged = [sid for sid in store.stripe_ids if store.pattern(sid)]
    if not damaged:
        return 0
    results = decoder.decode_batch(
        store.code,
        [store.snapshot_blocks(sid, inject=False) for sid in damaged],
        [store.pattern(sid) for sid in damaged],
    )
    for sid, recovered in zip(damaged, results):
        store.repair(sid, recovered)
    return sum(len(recovered) for recovered in results)


def fully_intact(store):
    return all(
        not store.pattern(sid)
        and store.stripe(sid).equals_on(store.truth(sid), range(store.code.num_blocks))
        for sid in store.stripe_ids
    )


def degraded_read(store, decoder, sid, block):
    return decoder.decode(
        store.code, store.snapshot_blocks(sid), store.pattern(sid), targets=(block,)
    )[block]


def test_fail_disk(store):
    fail_disk(store, 1)
    for sid in store.stripe_ids:
        erased = store.pattern(sid)
        assert {store.layout.disk_of(b) for b in erased} == {1}
        assert len(erased) == store.code.r
    with pytest.raises(IndexError):
        fail_disk(store, 6)


def test_rebuild_after_disk_and_lse(store):
    fail_disk(store, 2)
    fail_disk(store, 5)
    # one extra sector per stripe keeps each within the (m=2, s=2) budget
    lose_first_present_sector(store)
    with PPMDecoder(threads=2) as decoder:
        repaired = rebuild(store, decoder)
    assert repaired == len(store.stripe_ids) * (2 * store.code.r + 1)
    assert fully_intact(store)


def test_rebuild_noop_when_intact(store):
    assert rebuild(store, TraditionalDecoder()) == 0
    assert fully_intact(store)


def test_degraded_read(store):
    store.erase(1, [8])
    value = degraded_read(store, TraditionalDecoder(), 1, 8)
    assert np.array_equal(value, store.truth(1).get(8))
    # a read does not repair
    assert not store.stripe(1).has(8)


def test_degraded_read_present_block(store):
    assert np.array_equal(store.read(0, 0), store.truth(0).get(0))


def test_verify_detects_corruption(store):
    store.corrupt(0, [0], rng=1)
    assert not store.verify_block(0, 0, store.read(0, 0))


def test_lrc_array_roundtrip():
    store = BlobStore.build(LRCCode(6, 2, 2), 2, 16, rng=3)
    fail_disk(store, 2)
    fail_disk(store, 5)
    lose_first_present_sector(store)
    with PPMDecoder(threads=2) as decoder:
        assert rebuild(store, decoder) == 2 * 3
    assert fully_intact(store)
