"""``PlanCache.get_many``: a batch's plans in one call, counted as the
per-stripe ``get`` calls it stands for, its misses planned together."""

from __future__ import annotations

import threading
from dataclasses import replace

import pytest

from repro.codes import SDCode
from repro.core import plan_decode
from repro.pipeline import PlanCache, plancache
from repro.stripes import worst_case_sd
from repro.verify import PlanVerificationError


@pytest.fixture(scope="module")
def code():
    return SDCode(6, 6, 2, 2)


@pytest.fixture(scope="module")
def patterns(code):
    found: dict[tuple[int, ...], None] = {}
    seed = 0
    while len(found) < 8:
        found[worst_case_sd(code, z=1, rng=seed).faulty_blocks] = None
        seed += 1
    return list(found)


def _stats(cache):
    return cache.stats.hits, cache.stats.misses, cache.stats.evictions


def test_counts_equal_per_stripe_get(code, patterns):
    p = patterns
    # new, repeated in one batch, cached from an earlier batch, evicted
    # (capacity 3) and asked for again, and a batch wider than the cache
    batches = [
        [p[0], p[1], p[0]],
        [p[1], p[2], p[3], p[2]],
        [p[0], p[4], p[5], p[6], p[0], p[1]],
        [p[7], p[6], p[5], p[4], p[3], p[2], p[1], p[0], p[7]],
        [p[0], p[0]],
    ]
    one_by_one, together = PlanCache(maxsize=3), PlanCache(maxsize=3)
    for batch in batches:
        # per-stripe targets: whole, first block, last block in turn
        targets = [
            (None, faulty[:1], faulty[-1:])[i % 3] for i, faulty in enumerate(batch)
        ]
        want = [one_by_one.get(code, f, targets=t) for f, t in zip(batch, targets)]
        got = together.get_many(code, batch, targets=targets)
        assert _stats(together) == _stats(one_by_one)
        assert len(together) == len(one_by_one)
        for a, b in zip(got, want):
            assert a == b and a.stages == b.stages
    assert together.stats.evictions > 0


def test_stripes_of_one_pattern_share_one_plan(code, patterns):
    cache = PlanCache()
    plans = cache.get_many(code, [patterns[0], tuple(reversed(patterns[0]))])
    assert plans[0] is plans[1]
    assert _stats(cache) == (1, 1, 0)


def test_targets_must_match_the_patterns(code, patterns):
    with pytest.raises(ValueError, match="target sets"):
        PlanCache().get_many(code, patterns[:2], targets=[None])


def test_verify_certifies_every_miss_before_caching(code, patterns, monkeypatch):
    cache = PlanCache(verify=True)
    cache.get(code, patterns[0])  # cached and certified already
    certified = []
    real = PlanCache._certify

    def certify(plan, h):
        assert PlanCache.key_of(h, plan.faulty_ids, plan.policy) not in cache._entries
        certified.append(plan.faulty_ids)
        real(plan, h)

    monkeypatch.setattr(PlanCache, "_certify", staticmethod(certify))
    batch = [patterns[0], patterns[1], patterns[2], patterns[1]]
    cache.get_many(code, batch)
    assert certified == [patterns[1], patterns[2]]


def test_verify_rejects_a_planted_wrong_plan(code, patterns, monkeypatch):
    real = plancache.plan_batch

    def wrong(source, batch, policy):
        plans = real(source, batch, policy)
        # memoised group sub-plans are shared and read-only: plant a copy
        group, *others = plans[-1].groups
        weights = group.weights.copy()
        weights[0, 0] ^= 1
        groups = (replace(group, weights=weights), *others)
        plans[-1] = replace(plans[-1], groups=groups)
        return plans

    monkeypatch.setattr(plancache, "plan_batch", wrong)
    cache = PlanCache(verify=True)
    with pytest.raises(PlanVerificationError):
        cache.get_many(code, patterns[:3])
    assert len(cache) == 0
    assert cache.stats.misses == 0


def test_two_threads_at_once(code, patterns):
    cache = PlanCache(maxsize=4)
    want = {p: plan_decode(code, p) for p in patterns}
    errors = []
    lookups = [0]
    lock = threading.Lock()
    start = threading.Barrier(2)

    def worker(offset):
        start.wait()
        try:
            for round_ in range(6):
                batch = [patterns[(offset + round_ + k) % len(patterns)] for k in range(5)]
                for faulty, plan in zip(batch, cache.get_many(code, batch)):
                    assert plan == want[faulty]
                with lock:
                    lookups[0] += len(batch)
        except BaseException as exc:  # surfaced to the main thread below
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(k * 3,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert cache.stats.hits + cache.stats.misses == lookups[0] == 60
    assert len(cache) <= 4
