"""Unit tests for decode planning."""

from importlib import import_module

import numpy as np
import pytest

from repro.codes import LRCCode, SDCode
from repro.core import (
    ExecutionMode,
    SequencePolicy,
    evaluate_costs,
    plan_decode,
)
from repro.matrix import GFMatrix, SingularMatrixError, u
from repro.stripes import worst_case_sd


@pytest.fixture(scope="module")
def code():
    return SDCode(6, 8, 2, 2)


@pytest.fixture(scope="module")
def scenario(code):
    return worst_case_sd(code, z=1, rng=0)


def test_plan_shapes(code, scenario):
    plan = plan_decode(code, scenario.faulty_blocks)
    assert plan.faulty_ids == scenario.faulty_blocks
    assert plan.p == code.r - 1  # z = 1
    # every group recovers m blocks from an m x ? weight matrix
    for g in plan.groups:
        assert g.weights.rows == code.m
        assert g.weights.cols == len(g.survivor_ids)
        assert len(g.faulty_ids) == code.m
    rest = plan.rest
    assert rest is not None
    assert len(rest.faulty_ids) == code.m * 1 + code.s
    assert rest.f_inv.rows == rest.f_inv.cols == len(rest.faulty_ids)


def test_rest_survivors_include_recovered(code, scenario):
    """Step 4: blocks recovered in phase 1 act as survivors for H_rest."""
    plan = plan_decode(code, scenario.faulty_blocks)
    recovered = set(plan.partition.independent_faulty_ids)
    assert recovered & set(plan.rest.survivor_ids)


def test_costs_consistent_with_matrices(code, scenario):
    plan = plan_decode(code, scenario.faulty_blocks, SequencePolicy.AUTO)
    group_total = sum(u(g.weights) for g in plan.groups)
    assert plan.costs.c3 == group_total + u(plan.rest.weights)
    assert plan.costs.c4 == group_total + u(plan.rest.f_inv) + u(plan.rest.s)
    assert plan.costs.c1 == u(plan.traditional.f_inv) + u(plan.traditional.s)
    assert plan.costs.c2 == u(plan.traditional.weights)


def test_group_weights_recover_truth_algebraically(code, scenario):
    """W_i rows applied to H-consistent symbol vectors give the lost symbols."""
    plan = plan_decode(code, scenario.faulty_blocks)
    # build one H-consistent symbol vector by "encoding" a random stripe
    rng = np.random.default_rng(3)
    from repro.core import TraditionalDecoder
    from repro.stripes import Stripe, StripeLayout

    stripe = Stripe.random(StripeLayout.of_code(code), code.field, 1, rng=rng)
    TraditionalDecoder().encode_into(code, stripe)
    symbols = {b: stripe.get(b)[0] for b in range(code.num_blocks)}
    for g in plan.groups:
        vec = np.array([symbols[b] for b in g.survivor_ids], dtype=code.field.dtype)
        got = g.weights.matvec(vec)
        want = np.array([symbols[b] for b in g.faulty_ids], dtype=code.field.dtype)
        assert np.array_equal(got, want)


def test_policy_respected(code, scenario):
    for policy, mode in [
        (SequencePolicy.NORMAL, ExecutionMode.TRADITIONAL_NORMAL),
        (SequencePolicy.MATRIX_FIRST, ExecutionMode.TRADITIONAL_MATRIX_FIRST),
        (SequencePolicy.PPM_NORMAL_REST, ExecutionMode.PPM_REST_NORMAL),
        (SequencePolicy.PPM_MATRIX_FIRST_REST, ExecutionMode.PPM_REST_MATRIX_FIRST),
    ]:
        assert plan_decode(code, scenario.faulty_blocks, policy).mode is mode


def test_empty_faulty_rejected(code):
    with pytest.raises(ValueError):
        plan_decode(code, [])


def test_excess_faults_raise(code):
    too_many = list(range(code.H.rows + 1))
    with pytest.raises(SingularMatrixError):
        plan_decode(code, too_many)


def test_undecodable_scenario_raises():
    lrc = LRCCode(4, 2, 2)
    with pytest.raises(SingularMatrixError):
        plan_decode(lrc, [0, 1, 2, 3, 4])  # > l + g failures... equals rows? 5 > 4


def test_no_rest_plan_when_all_independent():
    code = SDCode(6, 4, 2, 2)
    # two faults in one stripe row only: a single group, no rest
    plan = plan_decode(code, [0, 1])
    assert plan.rest is None
    assert plan.costs.c3 == plan.costs.c4 == sum(g.cost for g in plan.groups)


def test_group_solve_is_memoised_by_position(monkeypatch):
    """A group is solved once per position ``(H, rows, support)``: the
    same pattern again is one memo hit serving the same sub-plan, and
    the same disks in another stripe row are another position with the
    same ``W``."""
    partition = import_module("repro.core.partition")
    monkeypatch.setattr(partition, "_group_memo", {})
    solves = []
    real = partition._group_weights
    monkeypatch.setattr(
        partition, "_group_weights", lambda *args: solves.append(args) or real(*args)
    )
    code = SDCode(6, 4, 2, 2)
    first = plan_decode(code, [0, 1])  # disks 0 and 1 dead in stripe row 0
    again = plan_decode(code, [0, 1])
    assert len(solves) == 1 and len(partition._group_memo) == 1
    second = plan_decode(code, [6, 7])  # the same disks in stripe row 1
    assert len(solves) == 2 and len(partition._group_memo) == 2
    (a,), (b,), (c,) = first.groups, again.groups, second.groups
    assert a is b
    assert a.weights == c.weights
    assert (a.row_ids, a.faulty_ids) != (c.row_ids, c.faulty_ids)
    assert a.survivor_ids == tuple(s - 6 for s in c.survivor_ids)
    # one matrix serves every plan of its position, so it is read-only
    with pytest.raises(ValueError):
        a.weights[0, 0] = 1
    # so is every matrix of a plan, which serves every stripe of its
    # pattern: the traditional and H_rest systems, and the stages of
    # the plan pruned to each one block
    whole = plan_decode(code, [0, 1, 6, 7, 2, 3])
    squares = (whole.traditional, whole.rest)
    matrices = [getattr(sq, name) for sq in squares for name in ("f_inv", "s", "weights")]
    for target in whole.faulty_ids:
        matrices += [m for stage in whole.for_targets([target]).stages for m in stage.matrices]
    for matrix in matrices:
        with pytest.raises(ValueError):
            matrix[0, 0] = 1


def test_plan_accepts_raw_matrix(code, scenario):
    direct = plan_decode(code.H, scenario.faulty_blocks)
    via_code = plan_decode(code, scenario.faulty_blocks)
    assert direct.costs == via_code.costs


def test_evaluate_costs_shortcut(code, scenario):
    costs = evaluate_costs(code, scenario.faulty_blocks)
    assert costs == plan_decode(code, scenario.faulty_blocks).costs


def test_survivor_column_compaction(code, scenario):
    """No plan matrix should carry an all-zero survivor column."""
    plan = plan_decode(code, scenario.faulty_blocks, SequencePolicy.AUTO)
    for matrix in [plan.traditional.s, plan.rest.s] + [g.weights for g in plan.groups]:
        assert isinstance(matrix, GFMatrix)
        if matrix.cols:
            assert matrix.array.any(axis=0).all()


# -- DecodePlan.stages: the one place a mode becomes matrices ---------------


def _swept_plans(kind, policy, samples=10):
    from repro.codes import get_code, is_decodable
    from repro.verify.sweep import DEFAULT_INSTANCES, iter_scenarios

    code = get_code(kind, **DEFAULT_INSTANCES[kind])
    for faulty in iter_scenarios(code, samples, seed=2015):
        if is_decodable(code, faulty):
            yield code, plan_decode(code, faulty, policy)
    yield code, plan_decode(code, code.parity_block_ids, policy)  # encoding


def _registered_kinds():
    from repro.codes import available_codes
    from repro.verify.sweep import DEFAULT_INSTANCES

    return [kind for kind in available_codes() if kind in DEFAULT_INSTANCES]


@pytest.mark.parametrize("policy", list(SequencePolicy), ids=lambda p: p.value)
@pytest.mark.parametrize("kind", _registered_kinds())
def test_stages_carry_the_predicted_cost_and_reads(kind, policy):
    from repro.kernels import lower_plan
    from repro.stripes import plan_io

    for code, plan in _swept_plans(kind, policy):
        stages = plan.stages
        assert sum(u(m) for stage in stages for m in stage.matrices) == (
            plan.predicted_cost
        )
        assert plan.read_ids == lower_plan(code.field, plan).input_ids
        assert plan.read_ids == plan_io(code, plan).blocks_read
        # together the stages recover exactly the plan's faulty blocks
        recovered = [b for stage in stages for b in stage.faulty_ids]
        assert sorted(recovered) == list(plan.faulty_ids)
        known = set(plan.read_ids)
        for stage in stages:
            assert len(stage.matrices) in (1, 2)  # (W,) or (S, F^-1)
            assert stage.matrices[0].cols == len(stage.survivor_ids)
            assert stage.matrices[-1].rows == len(stage.faulty_ids)
            if stage.independent:
                assert not set(stage.survivor_ids) & set(plan.faulty_ids)
            # every stage reads only survivors or blocks recovered before it
            assert set(stage.survivor_ids) <= known
            known.update(stage.faulty_ids)
        # dependent stages come last (groups, then rest)
        flags = [stage.independent for stage in stages]
        assert flags == sorted(flags, reverse=True)
