"""Pin the exact plans the planner makes.

One digest over every field of the plans a sample of ``scatter_small``'s
pattern pool gets: ids, partition, matrices, costs, mode and stages.  A
refactor of the planner, the partition or the elimination must leave
this digest unchanged; a deliberate change to what is planned must
re-pin it and say why.
"""

from __future__ import annotations

import hashlib
from importlib import import_module

import numpy as np
import pytest

from repro.codes import SDCode
from repro.core import SequencePolicy
from repro.core.planner import plan_batch, plan_decode
from repro.matrix import SingularMatrixError
from repro.stripes.failures import worst_case_sd

#: sha256 over the first 64 distinct worst-case SD(10,8,2,2) patterns
#: drawn from ``default_rng(2015)`` (the ``scatter_small`` pool's head) x
#: four policies x {whole pattern, first faulty block, last faulty block}.
PINNED_DIGEST = "d0231c5cdeee87fa3b1adab1b59ee6fa568026597746eeb6e2d14c626b6aa679"

POLICIES = (
    SequencePolicy.PAPER,
    SequencePolicy.AUTO,
    SequencePolicy.NORMAL,
    SequencePolicy.MATRIX_FIRST,
)


def _matrix(m) -> tuple:
    return (m.shape, m.array.tobytes())


def _fingerprint(plan) -> bytes:
    """Every field of a plan, sub-plans and stages included."""
    part = plan.partition
    trad, rest = plan.traditional, plan.rest
    return repr(
        (
            plan.faulty_ids,
            plan.targets,
            [(g.row_ids, g.faulty_ids, g.redundant_row_ids) for g in part.groups],
            (part.rest_row_ids, part.rest_faulty_ids, part.discarded_row_ids),
            [
                (s.row_ids, s.faulty_ids, s.survivor_ids, _matrix(s.f_inv), _matrix(s.s),
                 _matrix(s.weights))
                for s in ((trad,) if rest is None else (trad, rest))
            ],
            [(g.row_ids, g.faulty_ids, g.survivor_ids, _matrix(g.weights)) for g in plan.groups],
            (plan.costs.c1, plan.costs.c2, plan.costs.c3, plan.costs.c4),
            plan.policy.value,
            plan.mode.value,
            [
                (s.survivor_ids, s.faulty_ids, s.row_ids, s.independent,
                 [_matrix(m) for m in s.matrices])
                for s in plan.stages
            ],
            plan.read_ids,
        )
    ).encode()


def pool_head(code, count: int = 64) -> list[tuple[int, ...]]:
    rng = np.random.default_rng(2015)
    pool: dict[tuple[int, ...], None] = {}
    while len(pool) < count:
        pool[worst_case_sd(code, rng=rng).faulty_blocks] = None
    return list(pool)


def plan_digest(batch: int = 1) -> str:
    """The digest, the head planned by ``plan_batch`` in batches of
    ``batch`` patterns (one: ``plan_decode``)."""
    code = SDCode(10, 8, 2, 2)
    head = pool_head(code)
    by_policy = [
        [
            plan
            for start in range(0, len(head), batch)
            for plan in plan_batch(code, head[start : start + batch], policy)
        ]
        for policy in POLICIES
    ]
    digest = hashlib.sha256()
    for faulty, wholes in zip(head, zip(*by_policy)):
        for whole in wholes:
            for plan in (whole, whole.for_targets(faulty[:1]), whole.for_targets(faulty[-1:])):
                digest.update(_fingerprint(plan))
    return digest.hexdigest()


def test_plans_match_pinned_digest():
    assert plan_digest() == PINNED_DIGEST


@pytest.mark.parametrize("batch", [16, 64])
def test_batching_changes_no_plan(batch, monkeypatch):
    """The head planned cold in batches of 16, or in one batch of 64,
    gives the pinned plans: batching and the group memo change nothing."""
    monkeypatch.setattr(import_module("repro.core.partition"), "_group_memo", {})
    assert plan_digest(batch) == PINNED_DIGEST


def test_a_singular_pattern_inside_a_batch_raises_as_planned_in_order(monkeypatch):
    """A singular pattern between decodable ones raises what planning the
    patterns in order raises, and leaves the memo serving the same plans."""
    monkeypatch.setattr(import_module("repro.core.partition"), "_group_memo", {})
    code = SDCode(10, 8, 2, 2)
    head = pool_head(code, 16)
    singular = (0, 1, 2, 3, 10, 11, 12, 13)  # four faults in each of two stripe rows
    with pytest.raises(SingularMatrixError) as alone:
        plan_decode(code, singular)
    with pytest.raises(SingularMatrixError) as batched:
        plan_batch(code, head[:8] + [singular] + head[8:])
    assert str(batched.value) == str(alone.value)
    assert plan_batch(code, head) == [plan_decode(code, faulty) for faulty in head]
