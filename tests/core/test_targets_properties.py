"""Hypothesis properties of target-pruned plans (``plan_decode(..., targets=)``).

Over every registered code family, a random decodable pattern and a
random non-empty subset of it:

1. decoding with ``targets`` returns exactly the whole-pattern output
   restricted to the targets, bit for bit;
2. the counted mult_XORs equal the pruned plan's ``predicted_cost``,
   which never exceeds the whole-pattern cost, and ``read_ids`` never
   names an erased block;
3. ``targets=None`` and ``targets=faulty`` are the unpruned plan: the
   costs the sub-plan matrices give, and the whole matrices as stages.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codes import available_codes, get_code, is_decodable
from repro.core import (
    ExecutionMode,
    PPMDecoder,
    SequencePolicy,
    TraditionalDecoder,
    plan_decode,
)
from repro.matrix import u
from repro.stripes import Stripe, StripeLayout
from repro.verify.sweep import DEFAULT_INSTANCES

KINDS = [kind for kind in available_codes() if kind in DEFAULT_INSTANCES]
CODES = {kind: get_code(kind, **DEFAULT_INSTANCES[kind]) for kind in KINDS}


@st.composite
def scenario(draw):
    """(code, decodable pattern, non-empty target subset, policy)."""
    code = CODES[draw(st.sampled_from(KINDS))]
    count = draw(st.integers(1, code.H.rows))
    faulty = tuple(
        sorted(
            draw(
                st.lists(
                    st.integers(0, code.num_blocks - 1),
                    min_size=count,
                    max_size=count,
                    unique=True,
                )
            )
        )
    )
    targets = tuple(
        sorted(draw(st.sets(st.sampled_from(faulty), min_size=1, max_size=len(faulty))))
    )
    policy = draw(st.sampled_from([SequencePolicy.PAPER, SequencePolicy.AUTO]))
    return code, faulty, targets, policy


def unpruned_stage_matrices(plan):
    """The matrices the parent commit's ``stages`` applied for ``plan.mode``."""

    def chain(sub, matrix_first):
        return [sub.weights] if matrix_first else [sub.s, sub.f_inv]

    if plan.mode is ExecutionMode.TRADITIONAL_NORMAL:
        return [chain(plan.traditional, False)]
    if plan.mode is ExecutionMode.TRADITIONAL_MATRIX_FIRST:
        return [chain(plan.traditional, True)]
    stages = [[g.weights] for g in plan.groups]
    if plan.rest is not None:
        stages.append(chain(plan.rest, plan.mode is ExecutionMode.PPM_REST_MATRIX_FIRST))
    return stages


@given(scenario(), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_targeted_decode_is_the_whole_decode_restricted(params, seed):
    code, faulty, targets, policy = params
    if not is_decodable(code, faulty):
        return
    stripe = Stripe.random(StripeLayout.of_code(code), code.field, 8, rng=seed)
    TraditionalDecoder().encode_into(code, stripe)
    stripe.erase(faulty)
    decoder = PPMDecoder(parallel=False, policy=policy)
    whole, whole_stats = decoder.decode(code, stripe, faulty, return_stats=True)
    got, stats = decoder.decode(
        code, stripe, faulty, targets=targets, return_stats=True
    )
    assert sorted(got) == list(targets)
    for b in targets:
        assert np.array_equal(got[b], whole[b])
    plan = stats.plan
    assert plan.targets == targets and plan.faulty_ids == faulty
    assert stats.mult_xors == plan.predicted_cost <= whole_stats.plan.predicted_cost
    assert sum(stage.cost for stage in plan.stages) == plan.predicted_cost
    assert not set(plan.read_ids) & set(faulty)
    assert plan.mode is plan.costs.choose(policy)


@given(scenario())
@settings(max_examples=60, deadline=None)
def test_no_targets_and_all_targets_are_the_unpruned_plan(params):
    code, faulty, _targets, policy = params
    if not is_decodable(code, faulty):
        return
    plan = plan_decode(code, faulty, policy)
    assert plan.targets == faulty
    for same in (
        plan_decode(code, faulty, policy, targets=faulty),
        plan_decode(code, faulty, policy, targets=reversed(faulty)),
        plan.for_targets(faulty),
    ):
        assert same.costs == plan.costs and same.mode is plan.mode
        assert same.targets == faulty
    # costs: the parent's formulas over the sub-plan matrices
    groups = sum(u(g.weights) for g in plan.groups)
    rest, trad = plan.rest, plan.traditional
    assert plan.costs.c1 == u(trad.f_inv) + u(trad.s)
    assert plan.costs.c2 == u(trad.weights)
    assert plan.costs.c3 == groups + (u(rest.weights) if rest else 0)
    assert plan.costs.c4 == groups + (u(rest.f_inv) + u(rest.s) if rest else 0)
    # stages: the sub-plans' own matrices, nothing selected or dropped
    expected = unpruned_stage_matrices(plan)
    assert len(plan.stages) == len(expected)
    for stage, matrices in zip(plan.stages, expected):
        assert len(stage.matrices) == len(matrices)
        assert all(a == b for a, b in zip(stage.matrices, matrices))
    assert sorted(b for stage in plan.stages for b in stage.faulty_ids) == list(faulty)
