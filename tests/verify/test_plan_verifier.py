"""Plan verifier: clean plans certify; corrupted plans are rejected.

The mutation tests take a *valid* plan, apply one surgical corruption
via ``dataclasses.replace`` (plans are frozen), and assert the verifier
reports the specific check id and an actionable message — not a generic
failure.  Each corruption models a realistic planner bug.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.codes import SDCode
from repro.core import ExecutionMode, SequencePolicy, plan_decode
from repro.matrix import GFMatrix
from repro.verify import PlanVerificationError, assert_plan_valid, verify_plan

CODE = SDCode(4, 4, 1, 1, 8)
FAULTY = [2, 6, 10, 13, 14]  # the paper's Section III-B worked example

DISK_CODE = SDCode(6, 4, 2, 2)
# two whole-disk failures + one sector: rows 0..3 each lose c = m = 2
DISK_FAULTY = sorted([r * 6 + d for r in range(4) for d in (0, 1)])


@pytest.fixture()
def plan():
    return plan_decode(CODE, FAULTY, SequencePolicy.PAPER)


@pytest.fixture()
def disk_plan():
    return plan_decode(DISK_CODE, DISK_FAULTY, SequencePolicy.PAPER)


def test_valid_plan_verifies_clean(plan):
    report = verify_plan(plan, CODE)
    assert report.ok and not report.findings, report.format()


def test_valid_disk_plan_verifies_clean(disk_plan):
    report = verify_plan(disk_plan, DISK_CODE)
    assert report.ok and not report.findings, report.format()


def test_assert_plan_valid_passes_and_raises(plan):
    assert_plan_valid(plan, CODE)  # no raise on a clean plan
    bad = replace(plan, mode=ExecutionMode.TRADITIONAL_NORMAL)
    with pytest.raises(PlanVerificationError) as excinfo:
        assert_plan_valid(bad, CODE)
    assert "plan/mode-mismatch" in str(excinfo.value)


# -- mutation 1: a dropped weight row (planner truncated W_i) ------------


def test_mutation_dropped_weight_row_is_caught(plan):
    group = plan.groups[0]
    truncated = group.weights.take_rows(range(group.weights.rows - 1))
    bad = replace(plan, groups=(replace(group, weights=truncated),) + plan.groups[1:])
    report = verify_plan(bad, CODE)
    assert report.has("plan/certificate")
    (finding,) = [f for f in report.findings if f.check == "plan/certificate"]
    assert "dropped" in finding.message and "group[0]" in finding.context


# -- mutation 2: one corrupted decode coefficient ------------------------


def test_mutation_swapped_coefficient_is_caught(plan):
    group = plan.groups[0]
    arr = group.weights.array.copy()
    i, j = np.argwhere(arr != 0)[0]
    arr[i, j] ^= 0x5A  # flip bits of one nonzero coefficient
    bad_w = GFMatrix(group.weights.field, arr)
    bad = replace(plan, groups=(replace(group, weights=bad_w),) + plan.groups[1:])
    report = verify_plan(bad, CODE)
    assert report.has("plan/certificate")
    findings = [f for f in report.findings if f.check == "plan/certificate"]
    # the chosen mode's stages and both partition walks run group[0] (and
    # the rest phase reads its output); the traditional walks do not
    named = {f.context for f in findings}
    assert {
        f"{walk} target {b}" for walk in ("stages", "c3", "c4") for b in group.faulty_ids
    } <= named
    assert {name.split()[0] for name in named} == {"stages", "c3", "c4"}
    assert all("coefficient is corrupt" in f.message for f in findings)


# -- mutation 3: a faulty block recovered twice --------------------------


def test_mutation_duplicated_faulty_id_is_caught(plan):
    dup = plan.groups[0].faulty_ids[0]
    assert plan.rest is not None
    bad_rest = replace(plan.rest, faulty_ids=plan.rest.faulty_ids + (dup,))
    report = verify_plan(replace(plan, rest=bad_rest), CODE)
    assert report.has("plan/duplicate-recovery")
    (finding,) = [f for f in report.findings if f.check == "plan/duplicate-recovery"]
    assert f"block {dup}" in finding.message
    assert "group[0]" in finding.message and "rest" in finding.message


# -- mutation 4: a faulty block nobody recovers --------------------------


def test_mutation_missing_coverage_is_caught(plan):
    assert plan.rest is not None and len(plan.rest.faulty_ids) >= 1
    dropped = plan.rest.faulty_ids[-1]
    bad_rest = replace(plan.rest, faulty_ids=plan.rest.faulty_ids[:-1])
    report = verify_plan(replace(plan, rest=bad_rest), CODE)
    assert report.has("plan/certificate")
    findings = [f for f in report.findings if f.check == "plan/certificate"]
    # F^-1 and W still have a row for the dropped block
    assert {f.context for f in findings} == {"rest"}
    assert dropped not in bad_rest.faulty_ids
    assert all(f"{list(bad_rest.faulty_ids)} it recovers" in f.message for f in findings)
    assert all("dropped" in f.message for f in findings)


def test_mutation_dropped_group_is_caught(disk_plan):
    """Shapes intact, one group gone: its blocks come out of no step of
    the partition walks."""
    lost = disk_plan.groups[0].faulty_ids
    bad = replace(disk_plan, groups=disk_plan.groups[1:])
    report = verify_plan(bad, DISK_CODE)
    missing = [
        f for f in report.findings
        if f.check == "plan/certificate" and "recovered by no step" in f.message
    ]
    assert {f.context for f in missing} == {"c3", "c4"} | (
        {"stages"} if bad.uses_partition else set()
    )
    assert all(str(list(lost)) in f.message for f in missing)


# -- mutation 5: tampered cost report ------------------------------------


def test_mutation_tampered_costs_are_caught(plan):
    bad_costs = replace(plan.costs, c4=plan.costs.c4 + 7)
    report = verify_plan(replace(plan, costs=bad_costs), CODE)
    assert report.has("plan/cost-mismatch")
    finding = next(f for f in report.findings if f.check == "plan/cost-mismatch")
    assert "C4" in finding.message and str(plan.costs.c4) in finding.message


# -- mutation 6: execution mode contradicting the policy -----------------


def test_mutation_wrong_mode_is_caught(plan):
    correct = plan.costs.choose(plan.policy)
    wrong = next(m for m in ExecutionMode if m is not correct)
    report = verify_plan(replace(plan, mode=wrong), CODE)
    assert report.has("plan/mode-mismatch")
    finding = next(f for f in report.findings if f.check == "plan/mode-mismatch")
    assert wrong.value in finding.message and correct.value in finding.message


# -- mutation 7: a group reading a faulty block (phase-order break) -------


def test_mutation_group_reads_faulty_block_is_caught(plan):
    group = plan.groups[0]
    other_faulty = next(b for b in plan.faulty_ids if b not in group.faulty_ids)
    survivors = (other_faulty,) + group.survivor_ids[1:]
    bad = replace(plan, groups=(replace(group, survivor_ids=survivors),) + plan.groups[1:])
    report = verify_plan(bad, CODE)
    assert report.has("plan/phase-order")
    finding = next(f for f in report.findings if f.check == "plan/phase-order")
    assert str(other_faulty) in finding.message
    assert "true" in finding.message and "survivors" in finding.message


# -- mutation 8: a rank-deficient "independent" group --------------------


def test_mutation_rank_deficient_group_is_caught(disk_plan):
    group = next(g for g in disk_plan.groups if len(g.faulty_ids) == 2)
    gi = disk_plan.groups.index(group)
    dup_rows = (group.row_ids[0], group.row_ids[0])  # same parity row twice
    groups = list(disk_plan.groups)
    groups[gi] = replace(group, row_ids=dup_rows)
    report = verify_plan(replace(disk_plan, groups=tuple(groups)), DISK_CODE)
    assert report.has("plan/group-rank")
    finding = next(f for f in report.findings if f.check == "plan/group-rank")
    assert "GF-rank" in finding.message and "not an" in finding.message


# -- structural checks beyond the core mutations --------------------------


def test_faulty_out_of_range_rejected(plan):
    report = verify_plan(replace(plan, faulty_ids=plan.faulty_ids + (999,)), CODE)
    assert report.has("plan/faulty-out-of-range")


def test_rest_reading_unrecovered_block_rejected(plan):
    assert plan.rest is not None
    # make the rest phase depend on a block that nothing recovers
    ghost = plan.rest.faulty_ids[0]
    bad_rest = replace(
        plan.rest,
        faulty_ids=plan.rest.faulty_ids[1:],
        survivor_ids=plan.rest.survivor_ids + (ghost,),
    )
    report = verify_plan(replace(plan, rest=bad_rest), CODE)
    assert report.has("plan/rest-reads-unrecovered")


def test_shared_row_between_phases_rejected(disk_plan):
    g0, g1 = disk_plan.groups[0], disk_plan.groups[1]
    stolen = (g0.row_ids[0],) + g1.row_ids[1:]
    groups = (disk_plan.groups[0], replace(g1, row_ids=stolen)) + disk_plan.groups[2:]
    report = verify_plan(replace(disk_plan, groups=groups), DISK_CODE)
    assert report.has("plan/row-shared")


def test_distinct_diagnostics_across_mutations(plan, disk_plan):
    """The six headline corruptions produce four *different* check ids:
    the three algebra faults are the certificate's, each named apart."""
    checks = set()
    # 1 dropped row
    g = plan.groups[0]
    bad = replace(plan, groups=(replace(g, weights=g.weights.take_rows([])),) + plan.groups[1:])
    checks.update(f.check for f in verify_plan(bad, CODE).findings)
    # 2 swapped coefficient
    arr = g.weights.array.copy()
    i, j = np.argwhere(arr != 0)[0]
    arr[i, j] ^= 1
    bad = replace(plan, groups=(replace(g, weights=GFMatrix(g.weights.field, arr)),) + plan.groups[1:])
    checks.update(f.check for f in verify_plan(bad, CODE).findings)
    # 3 duplicate recovery
    bad = replace(plan, rest=replace(plan.rest, faulty_ids=plan.rest.faulty_ids + (g.faulty_ids[0],)))
    checks.update(f.check for f in verify_plan(bad, CODE).findings)
    # 4 missing coverage
    bad = replace(plan, rest=replace(plan.rest, faulty_ids=plan.rest.faulty_ids[:-1]))
    checks.update(f.check for f in verify_plan(bad, CODE).findings)
    # 5 tampered costs
    bad = replace(plan, costs=replace(plan.costs, c1=0))
    checks.update(f.check for f in verify_plan(bad, CODE).findings)
    # 6 wrong mode
    bad = replace(plan, mode=ExecutionMode.TRADITIONAL_NORMAL)
    checks.update(f.check for f in verify_plan(bad, CODE).findings)
    assert {
        "plan/certificate",
        "plan/duplicate-recovery",
        "plan/cost-mismatch",
        "plan/mode-mismatch",
    } <= checks


# -- pruned plans (targets fewer than the faulty blocks) ---------------------
#
# ``stages`` is what the executors run, so the mutations below plant a
# corrupted walk where ``cached_property`` keeps it (the instance dict).

BENCH_CODE = SDCode(10, 8, 2, 2)
BENCH_FAULTY = [5, 7, 12, 15, 17, 18] + [r * 10 + d for r in range(2, 8) for d in (5, 7)]


def pruned_plan(targets, policy=SequencePolicy.PAPER):
    plan = plan_decode(BENCH_CODE, BENCH_FAULTY, policy, targets=targets)
    assert verify_plan(plan, BENCH_CODE).ok
    return plan


def with_stages(plan, stages):
    bad = replace(plan)  # fresh instance: nothing cached yet
    bad.__dict__["stages"] = tuple(stages)
    return bad


def test_pruned_plans_verify_clean():
    whole = plan_decode(BENCH_CODE, BENCH_FAULTY)
    for targets in [(b,) for b in BENCH_FAULTY] + [(5, 12, 77), BENCH_FAULTY[3:]]:
        for policy in SequencePolicy:
            plan = plan_decode(BENCH_CODE, BENCH_FAULTY, policy, targets=targets)
            report = verify_plan(plan, BENCH_CODE)
            assert report.ok and not report.findings, (targets, policy, report.format())
            assert plan.predicted_cost <= whole.costs.cost_of(plan.mode)


def test_mutation_flipped_pruned_coefficient_is_caught():
    plan = pruned_plan([5])
    (stage,) = plan.stages
    arr = stage.matrices[0].array.copy()
    arr[0, 3] ^= 0x1D  # one coefficient of the one kept row
    bad_stage = replace(stage, matrices=(GFMatrix(BENCH_CODE.field, arr),))
    report = verify_plan(with_stages(plan, [bad_stage]), BENCH_CODE)
    assert report.has("plan/certificate")
    (finding,) = [f for f in report.findings if f.check == "plan/certificate"]
    assert finding.context == "stages target 5"
    assert "parity checks" in finding.message


def test_mutation_dropped_dependency_stage_is_caught():
    """An ``H_rest`` target under a partition mode reads group-recovered
    blocks; dropping the stage that recovers one must be named."""
    plan = pruned_plan([12], SequencePolicy.PPM_NORMAL_REST)
    assert len(plan.stages) > 1 and not plan.stages[-1].independent
    dropped = plan.stages[0]
    report = verify_plan(with_stages(plan, plan.stages[1:]), BENCH_CODE)
    assert report.has("plan/certificate")
    (finding,) = [f for f in report.findings if f.check == "plan/certificate"]
    assert finding.context == "stages target 12"
    assert "erased block(s)" in finding.message
    assert str(dropped.faulty_ids[0]) in finding.message


def test_mutation_missing_target_stage_is_caught():
    plan = pruned_plan([5, 25])
    assert len(plan.stages) == 2
    report = verify_plan(with_stages(plan, plan.stages[:1]), BENCH_CODE)
    assert report.has("plan/certificate")
    (finding,) = [f for f in report.findings if f.check == "plan/certificate"]
    assert finding.context == "stages" and "[25]" in finding.message


def test_mutation_misreported_pruned_cost_is_caught():
    plan = pruned_plan([12])
    cooked = replace(plan.costs, c2=plan.costs.c2 - 1)
    report = verify_plan(replace(plan, costs=cooked), BENCH_CODE)
    assert report.has("plan/cost-mismatch")
    assert any(f.context == "c2" for f in report.findings)
    # the whole-pattern numbers are not a pruned plan's costs either
    whole = plan_decode(BENCH_CODE, BENCH_FAULTY)
    report = verify_plan(replace(plan, costs=whole.costs, mode=whole.mode), BENCH_CODE)
    assert report.has("plan/cost-mismatch")


def test_mutation_wrong_pruned_mode_is_caught():
    plan = pruned_plan([12])
    assert plan.mode is ExecutionMode.TRADITIONAL_MATRIX_FIRST
    report = verify_plan(replace(plan, mode=ExecutionMode.PPM_REST_NORMAL), BENCH_CODE)
    assert report.has("plan/mode-mismatch")


def test_mutation_bad_targets_are_caught():
    plan = pruned_plan([5])
    for targets in [(), (6,), (7, 5)]:
        report = verify_plan(replace(plan, targets=targets), BENCH_CODE)
        assert report.has("plan/targets"), targets
