"""Static verification of :class:`~repro.core.planner.DecodePlan`.

Every decode is a linear map, so one rule certifies its algebra: a
recovered block ``t`` is right for every codeword iff its relation
``v_t = e_t + Σ_r c_r·e_r`` lies in the row space of the parity-check
matrix ``H`` and reads no erased block (:func:`certify_relations`).
:func:`verify_plan` composes, symbolically over ``H``'s columns, the
``stages`` the executors will run (whole, pruned and encode plans
alike) and each of the four modes' :func:`reference_walk`, so a corrupt
sub-plan the chosen mode does not run is caught too, and holds every
target's relation from all five walks against ``H`` in one stacked
check (``plan/certificate``).

Around that certificate stay the checks that are specific to the paper:

1. **Input sanity** — a non-empty pattern inside ``H``, sorted targets
   among the faulty blocks, parity-check rows that exist.
2. **Partition soundness** — each block is recovered once, only faulty
   blocks are, phases use disjoint rows, and each group's ``F_i`` is
   square and full-rank (the Section III-A independence requirement).
3. **Phase ordering** — groups run concurrently and read only true
   survivors; only the rest phase consumes group-recovered blocks.
4. **Cost certification** — the reported C1..C4 equal the ``u(·)``
   counts of the reference walks, the chosen mode is what the policy
   dictates, and the stages hold the predicted mult_XORs.

A corrupted plan yields a finding naming the offending group, mode,
stage or target; the mutation tests in ``tests/verify`` pin this down.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..codes.base import ErasureCode
from ..matrix import GFMatrix, rank, reduced_row_echelon, u
from .findings import PlanVerificationError, Severity, VerificationReport

# plans are duck-typed (any object with the DecodePlan attributes), so
# mutation tests can feed dataclasses.replace()-corrupted copies

#: One matrix application of a walk: (chain applied in order, ids of the
#: blocks it reads, ids of the blocks it produces).
Step = tuple[list[np.ndarray], tuple[int, ...], tuple[int, ...]]

#: One recovered block to certify: (context, block id, its coefficients
#: over H's columns).
Relation = tuple[str, int, np.ndarray]


@lru_cache(maxsize=64)
def _row_space(field, shape: tuple, data: bytes) -> tuple[list[int], GFMatrix]:
    """``H``'s reduced row-echelon basis, once per parity-check matrix."""
    h = GFMatrix(field, np.frombuffer(data, dtype=field.dtype).reshape(shape))
    pivots, basis = reduced_row_echelon(h)
    return pivots, GFMatrix(field, basis, copy=False)


def certify_relations(
    report: VerificationReport, h: GFMatrix, erased: set[int], relations: list[Relation], check: str
) -> None:
    """Hold each recovered block's relation against ``H``.

    A block computed as ``Σ_r c_r·x_r`` is right for every codeword iff
    no ``r`` is erased and ``v = e_t + c`` lies in the row space of
    ``H``, i.e. ``rank([H; v]) == rank(H)``.  The relations are stacked
    into ``V`` and reduced together against ``H``'s reduced row-echelon
    basis (one elimination per ``H``, cached): a row with anything left
    is a finding naming its context and block.
    """
    if not relations:
        return
    coeffs = np.stack([c for _context, _block, c in relations])
    erased_cols = np.array(sorted(erased), dtype=int)
    reads = coeffs[:, erased_cols] != 0
    for i in np.flatnonzero(reads.any(axis=1)):
        context, block, _ = relations[i]
        report.add(
            check,
            f"block {block} is computed from erased block(s) "
            f"{erased_cols[reads[i]].tolist()} that nothing recovered "
            "first; the decode would read lost data",
            context,
        )
    clean = np.flatnonzero(~reads.any(axis=1))
    v = coeffs[clean]
    v[np.arange(clean.size), [relations[i][1] for i in clean]] ^= 1
    pivots, basis = _row_space(h.field, h.shape, h.array.tobytes())
    v ^= (GFMatrix(h.field, v[:, pivots], copy=False) @ basis).array
    for i in clean[v.any(axis=1)]:
        context, block, _ = relations[i]
        report.add(
            check,
            f"block {block} is recovered as a combination that H's "
            "parity checks do not imply (a decode coefficient is "
            "corrupt, or a needed block is not read); the decode "
            "would produce wrong bytes",
            context,
        )


def _check_chain(report: VerificationReport, chain, src_ids, dst_ids, context: str) -> bool:
    """Report unless ``chain`` maps ``src_ids`` to ``dst_ids`` shape-wise."""
    shapes = [tuple(m.shape) for m in chain]
    widths = [len(src_ids)] + [rows for rows, _cols in shapes]
    if [cols for _rows, cols in shapes] == widths[:-1] and widths[-1] == len(dst_ids):
        return True
    report.add(
        "plan/certificate",
        f"matrix chain {shapes} does not map the {len(src_ids)} blocks it "
        f"reads to the {len(dst_ids)} blocks {list(dst_ids)} it recovers "
        "(a row or column was dropped or duplicated)",
        context,
    )
    return False


def _compose(
    report: VerificationReport, h: GFMatrix, steps: list[Step], targets: tuple[int, ...], label: str
) -> list[Relation]:
    """Run a walk symbolically over ``H``'s columns and return the
    targets' relations.  A block no step has recovered yet reads as
    itself, so a step that reads one shows in its relation."""
    eye = h.field.eye(h.cols)
    value: dict[int, np.ndarray] = {}
    for k, (chain, src_ids, dst_ids) in enumerate(steps):
        if not _check_chain(report, chain, src_ids, dst_ids, f"{label} step[{k}]"):
            continue
        acc = eye[list(src_ids)]
        for i, b in enumerate(src_ids):
            if b in value:
                acc[i] = value[b]
        for matrix in chain:
            acc = (GFMatrix(h.field, matrix, copy=False) @ GFMatrix(h.field, acc, copy=False)).array
        value.update(zip(dst_ids, acc))
    missing = [t for t in targets if t not in value]
    if missing:
        report.add(
            "plan/certificate",
            f"target block(s) {missing} are recovered by no step; the read "
            "would come back without them",
            label,
        )
    return [(f"{label} target {t}", t, value[t]) for t in targets if t in value]


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

    if mode in (ExecutionMode.PPM_REST_NORMAL, ExecutionMode.PPM_REST_MATRIX_FIRST):
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

    # -- partition soundness: each block recovered once, only faulty ones --
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
    readers = [(f"group[{gi}]", g) for gi, g in enumerate(plan.groups)]
    for label, sub in readers + [("traditional", plan.traditional)]:
        leaked = sorted(set(sub.survivor_ids) & faulty_set)
        if leaked:
            report.add(
                "plan/phase-order",
                f"{label} reads block(s) {leaked} which are faulty; it may "
                "only read true survivors (recovered blocks may feed H_rest "
                "only)",
                label,
            )
    group_recovered = {b for g in plan.groups for b in g.faulty_ids}
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

    # -- group independence ------------------------------------------------
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
        elif (got_rank := rank(f_sub)) != t:
            report.add(
                "plan/group-rank",
                f"F_i restricted to faulty blocks {list(group.faulty_ids)} "
                f"has GF-rank {got_rank} < {t}; the group is not an "
                "independent sub-matrix",
                context,
            )

    # -- every sub-plan chain must compose before any walk is taken --------
    chains = [(label, [g.weights], g) for label, g in readers]
    for label, sub in (("rest", plan.rest), ("traditional", plan.traditional)):
        if sub is not None:
            chains += [(label, [sub.s, sub.f_inv], sub), (label, [sub.weights], sub)]
    fits = [
        _check_chain(report, chain, sub.survivor_ids, sub.faulty_ids, label)
        for label, chain, sub in chains
    ]
    if not all(fits):
        return report

    # -- cost certification (recomputed u(.) counts) -----------------------
    from ..core.sequences import ExecutionMode  # deferred: avoid core cycle

    walks = {
        name: reference_walk(plan, mode)
        for name, mode in (
            ("c1", ExecutionMode.TRADITIONAL_NORMAL),
            ("c2", ExecutionMode.TRADITIONAL_MATRIX_FIRST),
            ("c3", ExecutionMode.PPM_REST_MATRIX_FIRST),
            ("c4", ExecutionMode.PPM_REST_NORMAL),
        )
    }
    for name, walk in walks.items():
        got = getattr(plan.costs, name)
        want = sum(int(np.count_nonzero(m)) for chain, _s, _d in walk for m in chain)
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
    staged = sum(u(m) for stage in plan.stages for m in stage.matrices)
    if staged != plan.costs.cost_of(plan.mode):
        report.add(
            "plan/cost-mismatch",
            f"the stages hold {staged} nonzero coefficients but the plan "
            f"predicts {plan.costs.cost_of(plan.mode)} mult_XORs",
            "stages",
        )

    # -- the certificate: what runs, and every mode's walk, against H -----
    stages = [(s.arrays, s.survivor_ids, s.faulty_ids) for s in plan.stages]
    relations = _compose(report, h, stages, targets, "stages")
    for name, walk in walks.items():
        relations += _compose(report, h, walk, targets, name)
    certify_relations(report, h, faulty_set, relations, "plan/certificate")

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
