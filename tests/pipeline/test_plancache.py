"""Plan-cache correctness: LRU behaviour, keying, verification, counters."""

from __future__ import annotations

import pytest

from repro.codes import SDCode
from repro.core import SequencePolicy, plan_decode
from repro.pipeline import PlanCache
from repro.stripes import worst_case_sd


@pytest.fixture(scope="module")
def code():
    return SDCode(6, 6, 2, 2)


@pytest.fixture(scope="module")
def faulty(code):
    return list(worst_case_sd(code, z=1, rng=0).faulty_blocks)


def test_miss_then_hit_returns_same_plan(code, faulty):
    cache = PlanCache()
    first = cache.get(code, faulty)
    second = cache.get(code, faulty)
    assert first is second
    assert cache.stats.misses == 1
    assert cache.stats.hits == 1
    assert cache.stats.hit_rate == 0.5
    assert len(cache) == 1


def test_cached_plan_matches_direct_planning(code, faulty):
    cached = PlanCache().get(code, faulty, SequencePolicy.PAPER)
    direct = plan_decode(code, faulty, SequencePolicy.PAPER)
    assert cached.mode == direct.mode
    assert cached.faulty_ids == direct.faulty_ids
    assert cached.costs == direct.costs


def test_pattern_order_and_duplicates_normalised(code, faulty):
    cache = PlanCache()
    cache.get(code, faulty)
    cache.get(code, list(reversed(faulty)))
    cache.get(code, faulty + [faulty[0]])
    assert cache.stats.misses == 1
    assert cache.stats.hits == 2


def test_policy_is_part_of_the_key(code, faulty):
    """Changing the sequence policy must not reuse another policy's plan."""
    cache = PlanCache()
    paper = cache.get(code, faulty, SequencePolicy.PAPER)
    normal = cache.get(code, faulty, SequencePolicy.NORMAL)
    assert cache.stats.misses == 2
    assert cache.stats.hits == 0
    assert paper is not normal
    assert paper is cache.get(code, faulty, SequencePolicy.PAPER)


def test_different_patterns_are_distinct_entries(code):
    cache = PlanCache()
    cache.get(code, [0, 7])
    cache.get(code, [1, 8])
    assert cache.stats.misses == 2
    assert len(cache) == 2


def test_lru_eviction(code):
    cache = PlanCache(maxsize=2)
    cache.get(code, [0, 7])
    cache.get(code, [1, 8])
    cache.get(code, [0, 7])  # refresh: [1, 8] is now least recent
    cache.get(code, [2, 9])  # evicts [1, 8]
    assert cache.stats.evictions == 1
    assert len(cache) == 2
    cache.get(code, [0, 7])
    assert cache.stats.hits == 2  # survived the eviction
    cache.get(code, [1, 8])
    assert cache.stats.misses == 4  # re-planned after eviction


def test_maxsize_validation():
    with pytest.raises(ValueError):
        PlanCache(maxsize=0)


def test_verify_certifies_misses(code, faulty):
    cache = PlanCache(verify=True)
    plan = cache.get(code, faulty)
    assert plan is cache.get(code, faulty)  # hit skips re-verification


def test_verify_certifies_plans_built_from_memoised_solves(code, monkeypatch):
    from importlib import import_module

    from repro.verify import PlanVerificationError

    groups = import_module("repro.core.partition")

    certified = []
    real = PlanCache._certify
    monkeypatch.setattr(
        PlanCache,
        "_certify",
        staticmethod(lambda plan, h: (certified.append(plan.faulty_ids), real(plan, h))),
    )
    monkeypatch.setattr(groups, "_group_memo", {})
    patterns = [tuple(worst_case_sd(code, z=1, rng=seed).faulty_blocks) for seed in range(4)]
    for pattern in patterns:
        plan_decode(code, pattern)  # every group of these patterns is now memoised
    solve = groups._group_weights
    solves = []
    monkeypatch.setattr(groups, "_group_weights", lambda *args: solves.append(args))
    cache = PlanCache(verify=True)
    for pattern in patterns:
        cache.get(code, pattern)
    assert not solves  # every group a memo hit
    assert certified == patterns  # every miss certified, memo hit or not

    # a wrong solve is caught on the miss, never cached
    def wrong(*args):
        weights = solve(*args).copy()
        weights[0, 0] ^= 1
        return weights

    monkeypatch.setattr(groups, "_group_memo", {})
    monkeypatch.setattr(groups, "_group_weights", wrong)
    with pytest.raises(PlanVerificationError):
        PlanCache(verify=True).get(code, patterns[0])


def test_clear_and_reset_stats(code, faulty):
    cache = PlanCache()
    cache.get(code, faulty)
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.misses == 1  # counters survive clear()
    cache.reset_stats()
    assert cache.stats.lookups == 0
    assert cache.stats.hit_rate == 0.0


def test_stats_as_dict(code, faulty):
    cache = PlanCache()
    cache.get(code, faulty)
    cache.get(code, faulty)
    assert cache.stats.as_dict() == {
        "hits": 1,
        "misses": 1,
        "evictions": 0,
        "hit_rate": 0.5,
    }


def test_key_of_matches_get(code, faulty):
    key = PlanCache.key_of(code, faulty, SequencePolicy.PAPER)
    assert key == (id(code.H), tuple(sorted(set(faulty))), SequencePolicy.PAPER)


# -- targets: pruned plans live inside their pattern's entry -----------------


def test_pruned_plans_are_memoised_inside_the_pattern_entry(code, faulty):
    cache = PlanCache(maxsize=1)
    whole = cache.get(code, faulty)
    one = cache.get(code, faulty, targets=[faulty[0]])
    assert one is cache.get(code, faulty, targets=(faulty[0],))  # one object
    assert one is not whole and one.targets == (min(faulty),)
    assert one == whole.for_targets([faulty[0]])
    other = cache.get(code, faulty, targets=faulty[-2:])
    assert other.targets == tuple(sorted(faulty[-2:]))
    # every target of the pattern is the whole plan itself
    assert cache.get(code, faulty, targets=reversed(faulty)) is whole
    # capacity and the counters keep counting patterns, not target sets
    assert len(cache) == 1
    assert cache.stats.misses == 1 and cache.stats.evictions == 0
    assert cache.stats.hits == 4
    # evicting the pattern drops its pruned plans with it
    cache.get(code, faulty[:2])
    assert cache.stats.evictions == 1
    assert cache.get(code, faulty, targets=[faulty[0]]) is not one


def test_target_outside_the_pattern_is_a_value_error(code, faulty):
    cache = PlanCache()
    stray = next(b for b in range(code.num_blocks) if b not in faulty)
    with pytest.raises(ValueError, match="not in the erasure pattern"):
        cache.get(code, faulty, targets=[faulty[0], stray])
    with pytest.raises(ValueError, match="no target blocks"):
        cache.get(code, faulty, targets=[])
    with pytest.raises(ValueError, match="not in the erasure pattern"):
        plan_decode(code, faulty, targets=[stray])


def test_verify_certifies_each_pruned_plan_once(code, faulty, monkeypatch):
    certified = []
    real = PlanCache._certify
    monkeypatch.setattr(
        PlanCache,
        "_certify",
        staticmethod(lambda plan, h: (certified.append(plan.targets), real(plan, h))),
    )
    cache = PlanCache(verify=True)
    target = (min(faulty),)
    cache.get(code, faulty, targets=target)
    cache.get(code, faulty, targets=target)
    assert certified == [tuple(sorted(faulty)), target]
    # a cache built without verification certifies on demand, once
    lazy = PlanCache()
    lazy.get(code, faulty, targets=target)
    assert len(certified) == 2
    lazy.get(code, faulty, targets=target, verify=True)
    lazy.get(code, faulty, targets=target, verify=True)
    assert certified[2:] == [tuple(sorted(faulty)), target]
