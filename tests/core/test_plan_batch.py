"""``plan_batch`` is the one planner: every plan it makes equals the
plan of its pattern planned alone, and it fails as planning the
patterns in order would."""

from __future__ import annotations

import sys
import threading
from importlib import import_module

import pytest

from repro.codes import SDCode
from repro.core import SequencePolicy
from repro.core.planner import plan_batch, plan_decode
from repro.matrix import SingularMatrixError
from repro.stripes.failures import worst_case_sd

from .test_plan_identity import POLICIES, pool_head

CODE = SDCode(10, 8, 2, 2)


@pytest.fixture(scope="module")
def pool():
    """``scatter_small``'s 512-pattern pool."""
    return pool_head(CODE, 512)


def assert_same_plan(got, want):
    assert got == want  # every dataclass field, matrices by content
    assert got.stages == want.stages
    assert got.read_ids == want.read_ids


@pytest.mark.parametrize("policy", POLICIES, ids=lambda p: p.value)
def test_batches_equal_plans_made_alone(pool, policy):
    for start in range(0, len(pool), 16):
        patterns = pool[start : start + 16]
        for faulty, plan in zip(patterns, plan_batch(CODE, patterns, policy)):
            alone = plan_decode(CODE, faulty, policy)
            assert_same_plan(plan, alone)
            for target in (faulty[:1], faulty[-1:]):
                assert_same_plan(plan.for_targets(target), alone.for_targets(target))


def test_mixed_shapes_and_duplicates_in_one_batch(pool):
    # H_rest is 4 x 4 at z=1 and 6 x 6 at z=2; a pattern may repeat, in
    # any order and with repeated ids
    patterns = [
        worst_case_sd(CODE, z=1, rng=3).faulty_blocks,
        worst_case_sd(CODE, z=2, rng=3).faulty_blocks,
        pool[0],
        tuple(reversed(pool[0])) + pool[0][:2],
        worst_case_sd(CODE, z=1, rng=3).faulty_blocks,
    ]
    shapes = set()
    plans = plan_batch(CODE, patterns, SequencePolicy.AUTO)
    for faulty, plan in zip(patterns, plans):
        assert_same_plan(plan, plan_decode(CODE, faulty, SequencePolicy.AUTO))
        shapes.add(plan.rest.f_inv.shape)
    assert shapes == {(4, 4), (6, 6)}
    assert plans[2] == plans[3]


def _first_error(patterns):
    for faulty in patterns:
        try:
            plan_decode(CODE, faulty)
        except Exception as exc:  # noqa: BLE001 - compared by type and text
            return exc
    raise AssertionError("every pattern planned")


@pytest.mark.parametrize(
    "bad",
    [
        [(0, 1, 2, 3, 4)],  # five blocks of one stripe row: singular
        [(0, 1, 2, 3, 4), ()],  # the singular one comes first
        [(), (0, 1, 2, 3, 4)],  # the empty one comes first
        [tuple(range(19))],  # more faults than parity rows
        [(0, 1, 2, 3, 4), (80,)],  # a block the code does not have, later
        [(80,), (0, 1, 2, 3, 4)],  # ... and first
    ],
)
def test_a_bad_pattern_raises_what_planning_in_order_raises(pool, bad):
    patterns = [pool[0], *bad[:1], pool[1], *bad[1:]]
    want = _first_error(patterns)
    with pytest.raises(type(want)) as raised:
        plan_batch(CODE, patterns)
    assert str(raised.value) == str(want)


def test_the_first_bad_pattern_wins():
    with pytest.raises(SingularMatrixError, match="19 faults exceed"):
        plan_batch(CODE, [tuple(range(19)), (0, 1, 2, 3, 4)])
    with pytest.raises(SingularMatrixError, match="independent rows"):
        plan_batch(CODE, [(0, 1, 2, 3, 4), tuple(range(19))])


def test_a_cold_batch_makes_few_python_calls(pool, monkeypatch):
    """EXPERIMENTS.md's cold-path count: from a cold group memo, plan pool
    patterns 0-63 in batches of 16, then count the ``call`` and
    ``c_call`` profile events of one ``plan_batch`` of patterns 64-79.
    The planner made 20,735 before it planned in arrays (Python 3.11);
    the bound is under half of that, so it holds on other versions."""
    monkeypatch.setattr(import_module("repro.core.partition"), "_group_memo", {})
    for start in range(0, 64, 16):
        plan_batch(CODE, pool[start : start + 16])
    events = 0

    def count(frame, event, arg):
        nonlocal events
        events += event in ("call", "c_call")

    sys.setprofile(count)
    try:
        plan_batch(CODE, pool[64:80])
    finally:
        sys.setprofile(None)
    assert events <= 10_000


def test_the_group_memo_holds_under_thread_stress(pool, monkeypatch):
    """Four threads (more than two cores) plan overlapping batches at a
    tiny switch interval through a memo bounded far below the pool's 360
    positions, so entries are evicted while others read them: every plan
    still equals the pattern planned alone, and the memo stays bounded."""
    partition = import_module("repro.core.partition")
    patterns = pool[:64]
    want = {faulty: plan_decode(CODE, faulty) for faulty in patterns}
    monkeypatch.setattr(partition, "_group_memo", {})
    monkeypatch.setattr(partition, "GROUP_SOLVE_CACHE_SIZE", 16)
    errors: list[BaseException] = []

    def planner(offset: int) -> None:
        try:
            for start in range(offset, offset + 48, 8):
                batch = patterns[start % 64 : start % 64 + 8]
                for faulty, plan in zip(batch, plan_batch(CODE, batch)):
                    assert_same_plan(plan, want[faulty])
        except BaseException as exc:  # surfaced below
            errors.append(exc)

    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=planner, args=(8 * k,)) for k in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert len(partition._group_memo) <= 16
