"""Static verification of :class:`~repro.core.planner.DecodePlan`.

A decode plan is pure data — matrices and block-id bookkeeping — so every
correctness property the decoder relies on can be checked *before* a
single region op runs, against the parity-check matrix alone:

1. **Partition soundness** — independent groups are pairwise disjoint,
   disjoint from the rest phase, and together recover every faulty block
   exactly once (the paper's Section III-A independence requirement).
2. **Group independence** — each group's ``F_i`` (its rows of ``H``
   restricted to its faulty columns) is square and full-rank over the
   field, i.e. the group really is an independent sub-matrix.
3. **Weight certification** — the stored decode weights satisfy the
   defining equations ``F_i @ W_i == S_i`` (and ``F^-1 @ F == I`` for the
   stored inverses), re-deriving nothing from the planner under test.
4. **Phase ordering** — groups read only true survivors; only the rest
   phase may consume group-recovered blocks (acyclic two-phase order).
5. **Cost certification** — the reported C1..C4 equal the ``u(·)``
   nonzero counts recomputed from the certified matrices, and the chosen
   execution mode is what the policy dictates for those costs.
6. **Pruned plans** (``targets`` fewer than the faulty blocks) — the
   costs are recounted on the verifier's own pruning of each mode's
   matrices (:func:`reference_walk`), and the ``stages`` the executors
   will run are composed symbolically: every block a stage reads must be
   a survivor or already recovered, every target must come out, and each
   target's composed row over the true survivors must lie in the row
   space of ``H`` — i.e. satisfy the parity checks for every codeword.

Checks are structured so a corrupted plan produces a *specific*
diagnostic naming the offending group/coefficient, not a generic
failure; the mutation tests in ``tests/verify`` pin this down.
"""

from __future__ import annotations

import numpy as np

from ..codes.base import ErasureCode
from ..matrix import GFMatrix, rank, u
from .findings import PlanVerificationError, Severity, VerificationReport

# imported for type context only at runtime via duck typing; the verifier
# deliberately accepts any object with the DecodePlan attribute surface so
# mutation tests can feed dataclasses.replace()-corrupted copies.


def _check_weight_equation(
    report: VerificationReport,
    h: GFMatrix,
    row_ids: tuple[int, ...],
    faulty_ids: tuple[int, ...],
    survivor_ids: tuple[int, ...],
    weights: GFMatrix,
    context: str,
    check: str,
) -> None:
    """Certify ``F @ weights == S`` for one sub-plan, shape-safely."""
    f_sub = h.take_rows(list(row_ids)).take_columns(list(faulty_ids))
    s_sub = h.take_rows(list(row_ids)).take_columns(list(survivor_ids))
    expected_shape = (len(faulty_ids), len(survivor_ids))
    if weights.shape != expected_shape:
        report.add(
            "plan/weights-shape",
            f"weights are {weights.rows}x{weights.cols} but "
            f"{len(faulty_ids)} faulty blocks x {len(survivor_ids)} survivors "
            f"require {expected_shape[0]}x{expected_shape[1]} "
            "(a row or column was dropped or duplicated)",
            context,
        )
        return
    product = f_sub @ weights
    if product != s_sub:
        diff = product.array != s_sub.array
        bad = [(int(i), int(j)) for i, j in zip(*diff.nonzero())]
        i, j = bad[0]
        report.add(
            check,
            f"F @ W != S at {len(bad)} position(s); first mismatch at "
            f"(row {i}, survivor {survivor_ids[j]}): "
            f"got {int(product.array[i, j])}, expected {int(s_sub.array[i, j])} "
            "(a decode coefficient is corrupt)",
            context,
        )


def _check_inverse(
    report: VerificationReport,
    h: GFMatrix,
    row_ids: tuple[int, ...],
    faulty_ids: tuple[int, ...],
    f_inv: GFMatrix,
    context: str,
    check: str,
) -> None:
    """Certify that a stored ``F^-1`` really inverts ``F``."""
    f_sub = h.take_rows(list(row_ids)).take_columns(list(faulty_ids))
    t = len(faulty_ids)
    if f_inv.shape != (t, t) or f_sub.shape != (t, t):
        report.add(
            "plan/inverse-shape",
            f"F is {f_sub.rows}x{f_sub.cols} and F^-1 is "
            f"{f_inv.rows}x{f_inv.cols}; both must be {t}x{t}",
            context,
        )
        return
    if f_inv @ f_sub != GFMatrix.identity(h.field, t):
        report.add(
            check,
            "stored F^-1 does not invert F (F^-1 @ F != I); "
            "the scenario would decode to wrong bytes",
            context,
        )


#: One matrix application of a walk: (chain applied in order, ids of the
#: blocks it reads, ids of the blocks it produces).
Step = tuple[list[np.ndarray], tuple[int, ...], tuple[int, ...]]


def reference_walk(plan, mode) -> list[Step]:
    """The verifier's own reading of what ``mode`` applies to recover
    ``plan.targets``, taken from the plan's sub-plans (NOT from
    ``plan.stages`` or the lowering).

    Matrix-first modes apply one weight matrix per step, normal modes
    ``S`` then ``F^-1``.  When the targets are fewer than the faulty
    blocks each step keeps only the rows something downstream reads:
    last step first, select the wanted output rows, drop the columns
    left all-zero, and pass the still-read recovered blocks on as wanted.
    """
    from ..core.sequences import ExecutionMode  # deferred: avoid core cycle

    matrix_first = mode in (
        ExecutionMode.TRADITIONAL_MATRIX_FIRST,
        ExecutionMode.PPM_REST_MATRIX_FIRST,
    )

    def step(sub, use_weights: bool) -> Step:
        chain = [sub.weights.array] if use_weights else [sub.s.array, sub.f_inv.array]
        return chain, tuple(sub.survivor_ids), tuple(sub.faulty_ids)

    if mode in (
        ExecutionMode.PPM_REST_NORMAL,
        ExecutionMode.PPM_REST_MATRIX_FIRST,
    ):
        steps = [step(group, True) for group in plan.groups]
        if plan.rest is not None:
            steps.append(step(plan.rest, matrix_first))
    else:
        steps = [step(plan.traditional, matrix_first)]
    if tuple(plan.targets) == tuple(plan.faulty_ids):
        return steps
    wanted = set(plan.targets)
    pruned: list[Step] = []
    for chain, src_ids, dst_ids in reversed(steps):
        keep = np.array([i for i, b in enumerate(dst_ids) if b in wanted], dtype=int)
        if not keep.size:
            continue
        dst_ids = tuple(dst_ids[i] for i in keep)
        cut = []
        for matrix in reversed(chain):
            matrix = matrix[keep]
            keep = np.flatnonzero(matrix.any(axis=0))
            cut.append(matrix[:, keep])
        src_ids = tuple(src_ids[j] for j in keep)
        wanted.update(src_ids)
        pruned.append((cut[::-1], src_ids, dst_ids))
    return pruned[::-1]


def _check_pruned_stages(report: VerificationReport, h: GFMatrix, plan) -> None:
    """Compose ``plan.stages`` over the true survivors and hold every
    target's row against the parity checks (see the module docstring)."""
    field = h.field
    faulty_set = set(plan.faulty_ids)
    survivors = [b for b in range(h.cols) if b not in faulty_set]
    column = {b: j for j, b in enumerate(survivors)}
    # block id -> its value as a coefficient vector over the survivors
    composed: dict[int, np.ndarray] = {}
    for si, stage in enumerate(plan.stages):
        context = f"stage[{si}]"
        unknown = [
            b for b in stage.survivor_ids if b not in column and b not in composed
        ]
        if unknown:
            report.add(
                "plan/pruned-reads-unrecovered",
                f"stage reads block(s) {unknown} which are neither survivors "
                "nor recovered by an earlier stage (a stage a target "
                "depends on was dropped)",
                context,
            )
            return
        widths = [len(stage.survivor_ids)] + [m.rows for m in stage.matrices]
        if [m.cols for m in stage.matrices] != widths[:-1] or widths[-1] != len(
            stage.faulty_ids
        ):
            report.add(
                "plan/pruned-shape",
                f"matrix chain {[m.shape for m in stage.matrices]} does not map "
                f"{len(stage.survivor_ids)} read blocks to "
                f"{len(stage.faulty_ids)} recovered ones",
                context,
            )
            return
        vectors = field.zeros((len(stage.survivor_ids), len(survivors)))
        for i, b in enumerate(stage.survivor_ids):
            if b in column:
                vectors[i, column[b]] = 1
            else:
                vectors[i] = composed[b]
        value = GFMatrix(field, vectors, copy=False)
        for matrix in stage.matrices:
            value = matrix @ value
        composed.update(zip(stage.faulty_ids, value.array))
    missing = sorted(set(plan.targets) - set(composed))
    if missing:
        report.add(
            "plan/pruned-coverage",
            f"target block(s) {missing} are recovered by no stage; the "
            "read would come back without them",
        )
        return
    h_rank = rank(h)
    for b in plan.targets:
        relation = field.zeros((1, h.cols))
        relation[0, survivors] = composed[b]
        relation[0, b] = 1
        if rank(h.vstack(GFMatrix(field, relation, copy=False))) != h_rank:
            report.add(
                "plan/pruned-row",
                f"the stages recover block {b} as a combination of survivors "
                "that is not implied by H's parity checks (a pruned "
                "coefficient is corrupt, or a needed column was dropped)",
                f"target {b}",
            )


def verify_plan(plan, source: ErasureCode | GFMatrix) -> VerificationReport:
    """Statically verify a decode plan against its parity-check matrix.

    ``source`` is the code (its ``H`` is used) or the matrix the plan was
    built from.  Returns a :class:`VerificationReport`; an empty one
    certifies the plan.  No block data is touched.
    """
    h = source.H if isinstance(source, ErasureCode) else source
    report = VerificationReport(subject=f"DecodePlan(faulty={list(plan.faulty_ids)})")

    faulty = tuple(plan.faulty_ids)
    faulty_set = set(faulty)
    if not faulty:
        report.add("plan/empty", "plan recovers no blocks")
        return report
    out_of_range = [b for b in faulty if not (0 <= b < h.cols)]
    if out_of_range:
        report.add(
            "plan/faulty-out-of-range",
            f"faulty block ids {out_of_range} outside H's {h.cols} columns",
        )
        return report
    targets = tuple(plan.targets)
    if (
        not targets
        or not set(targets) <= faulty_set
        or list(targets) != sorted(set(targets))
    ):
        report.add(
            "plan/targets",
            f"targets {list(targets)} must be a non-empty sorted subset of "
            f"the faulty blocks {list(faulty)}",
        )
        return report

    # -- partition soundness: disjointness and exact-once coverage -------
    recovered_by: dict[int, list[str]] = {}
    for gi, group in enumerate(plan.groups):
        for b in group.faulty_ids:
            recovered_by.setdefault(b, []).append(f"group[{gi}]")
    if plan.rest is not None:
        for b in plan.rest.faulty_ids:
            recovered_by.setdefault(b, []).append("rest")
    for b, owners in sorted(recovered_by.items()):
        if len(owners) > 1:
            report.add(
                "plan/duplicate-recovery",
                f"block {b} is recovered {len(owners)} times, by "
                f"{' and '.join(owners)}; each faulty block must be "
                "recovered exactly once",
            )
    missing = sorted(faulty_set - set(recovered_by))
    if missing:
        report.add(
            "plan/coverage-missing",
            f"faulty block(s) {missing} are recovered by no group and not "
            "by the rest phase; the decode would leave them lost",
        )
    spurious = sorted(set(recovered_by) - faulty_set)
    if spurious:
        report.add(
            "plan/coverage-spurious",
            f"block(s) {spurious} are scheduled for recovery but are not "
            "in the plan's faulty set",
        )

    # -- row provenance: valid, and disjoint across phases ----------------
    seen_rows: dict[int, str] = {}
    phases = [(f"group[{gi}]", g.row_ids) for gi, g in enumerate(plan.groups)]
    if plan.rest is not None:
        phases.append(("rest", plan.rest.row_ids))
    for label, rows in phases:
        bad_rows = [r for r in rows if not (0 <= r < h.rows)]
        if bad_rows:
            report.add(
                "plan/row-out-of-range",
                f"row ids {bad_rows} outside H's {h.rows} rows",
                label,
            )
            continue
        for r in rows:
            if r in seen_rows:
                report.add(
                    "plan/row-shared",
                    f"row {r} of H is used by both {seen_rows[r]} and {label}; "
                    "partition phases must use disjoint rows",
                    label,
                )
            else:
                seen_rows[r] = label

    # -- phase ordering (acyclicity) --------------------------------------
    group_recovered = {b for g in plan.groups for b in g.faulty_ids}
    for gi, group in enumerate(plan.groups):
        leaked = sorted(set(group.survivor_ids) & faulty_set)
        if leaked:
            report.add(
                "plan/phase-order",
                f"group reads block(s) {leaked} which are faulty; groups "
                "run concurrently in phase 1 and may only read true "
                "survivors (recovered blocks may feed H_rest only)",
                f"group[{gi}]",
            )
    if plan.rest is not None:
        allowed = (set(range(h.cols)) - faulty_set) | group_recovered
        illegal = sorted(set(plan.rest.survivor_ids) - allowed)
        if illegal:
            report.add(
                "plan/rest-reads-unrecovered",
                f"rest phase reads block(s) {illegal} which are neither "
                "survivors nor recovered by any group",
                "rest",
            )

    # -- group independence and weight certification ----------------------
    for gi, group in enumerate(plan.groups):
        context = f"group[{gi}]"
        if any(not (0 <= r < h.rows) for r in group.row_ids):
            continue  # already reported above
        t = len(group.faulty_ids)
        f_sub = h.take_rows(list(group.row_ids)).take_columns(list(group.faulty_ids))
        if f_sub.rows != t:
            report.add(
                "plan/group-not-square",
                f"group has {f_sub.rows} rows for {t} faulty blocks; an "
                "independent sub-matrix needs exactly t rows",
                context,
            )
            continue
        got_rank = rank(f_sub)
        if got_rank != t:
            report.add(
                "plan/group-rank",
                f"F_i restricted to faulty blocks {list(group.faulty_ids)} "
                f"has GF-rank {got_rank} < {t}; the group is not an "
                "independent sub-matrix",
                context,
            )
            continue
        _check_weight_equation(
            report,
            h,
            group.row_ids,
            group.faulty_ids,
            group.survivor_ids,
            group.weights,
            context,
            "plan/group-weights",
        )

    # -- rest and traditional sub-plans -----------------------------------
    for label, sub in (("rest", plan.rest), ("traditional", plan.traditional)):
        if sub is None:
            continue
        if any(not (0 <= r < h.rows) for r in sub.row_ids):
            continue
        _check_inverse(
            report, h, sub.row_ids, sub.faulty_ids, sub.f_inv, label,
            f"plan/{label}-inverse",
        )
        s_sub = h.take_rows(list(sub.row_ids)).take_columns(list(sub.survivor_ids))
        if sub.s != s_sub:
            report.add(
                f"plan/{label}-s-matrix",
                "stored S does not match H restricted to the declared "
                "rows and survivors",
                label,
            )
        _check_weight_equation(
            report,
            h,
            sub.row_ids,
            sub.faulty_ids,
            sub.survivor_ids,
            sub.weights,
            label,
            f"plan/{label}-weights",
        )
    if plan.traditional is not None:
        leaked = sorted(set(plan.traditional.survivor_ids) & faulty_set)
        if leaked:
            report.add(
                "plan/phase-order",
                f"traditional plan reads faulty block(s) {leaked}",
                "traditional",
            )

    # -- cost certification (recomputed u(.) counts) -----------------------
    from ..core.sequences import ExecutionMode  # deferred: avoid core cycle

    if targets != faulty and not report.ok:
        return report  # the pruned walks derive from the sub-plans just faulted
    expected = {
        name: sum(
            int(np.count_nonzero(matrix))
            for chain, _src, _dst in reference_walk(plan, mode)
            for matrix in chain
        )
        for name, mode in (
            ("c1", ExecutionMode.TRADITIONAL_NORMAL),
            ("c2", ExecutionMode.TRADITIONAL_MATRIX_FIRST),
            ("c3", ExecutionMode.PPM_REST_MATRIX_FIRST),
            ("c4", ExecutionMode.PPM_REST_NORMAL),
        )
    }
    for name, want in expected.items():
        got = getattr(plan.costs, name)
        if got != want:
            report.add(
                "plan/cost-mismatch",
                f"reported {name.upper()} = {got} but the u(.) counts of "
                f"the plan's matrices give {want}; the sequence choice "
                "would be made on wrong costs",
                name,
            )
    chosen = plan.costs.choose(plan.policy)
    if plan.mode is not chosen:
        report.add(
            "plan/mode-mismatch",
            f"plan executes {plan.mode.value} but policy "
            f"{plan.policy.value} dictates {chosen.value} for costs "
            f"{plan.costs.as_dict()}",
        )

    # -- pruned plans: what the executors will actually run ----------------
    if targets != faulty:
        _check_pruned_stages(report, h, plan)
        staged = sum(u(m) for stage in plan.stages for m in stage.matrices)
        if staged != plan.costs.cost_of(plan.mode):
            report.add(
                "plan/cost-mismatch",
                f"the stages hold {staged} nonzero coefficients but the plan "
                f"predicts {plan.costs.cost_of(plan.mode)} mult_XORs",
                "stages",
            )

    # -- advisory: redundant groups ---------------------------------------
    for gi, group in enumerate(plan.groups):
        if not group.faulty_ids:
            report.add(
                "plan/empty-group",
                "group recovers no blocks and wastes a phase-1 worker",
                f"group[{gi}]",
                severity=Severity.WARNING,
            )
    return report


def assert_plan_valid(plan, source: ErasureCode | GFMatrix) -> None:
    """Raise :class:`PlanVerificationError` unless the plan verifies clean."""
    report = verify_plan(plan, source)
    if not report.ok:
        raise PlanVerificationError(report)
