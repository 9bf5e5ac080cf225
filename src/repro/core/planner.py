"""Decode planning: turn (H, failure scenario, policy) into matrices.

A :class:`DecodePlan` is everything a decoder needs that does *not*
depend on sector contents: the partition, the per-sub-matrix decode
weights ``W_i = F_i^-1 S_i``, the rest-phase matrices, the traditional
whole-matrix pair and the resulting C1..C4 costs.  Plans are pure data
and reusable across stripes with the same failure pattern, which is how
the benchmark harness amortises planning (exactly as a real array would
for a rebuild touching thousands of stripes with one failure geometry).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from ..codes.base import ErasureCode
from ..matrix import GFMatrix, SingularMatrixError, u
from .partition import GroupPlan, Partition, solve_partitions, solve_squares
from .sequences import ExecutionMode, SequenceCosts, SequencePolicy


@dataclass(frozen=True)
class _SquarePlan:
    """One square system ``F^-1 S``, runnable in either sequence:
    ``cost_normal`` is ``u(F^-1) + u(S)``, ``cost_matrix_first`` ``u(W)``."""

    row_ids: tuple[int, ...]
    faulty_ids: tuple[int, ...]
    survivor_ids: tuple[int, ...]
    f_inv: GFMatrix
    s: GFMatrix
    weights: GFMatrix

    @property
    def cost_normal(self) -> int:
        return u(self.f_inv) + u(self.s)

    @property
    def cost_matrix_first(self) -> int:
        return u(self.weights)


class RestPlan(_SquarePlan):
    """Decode of H_rest.  ``survivor_ids`` include the blocks the parallel
    phase recovered (paper Step 4: recovered independent sectors
    participate)."""


class TraditionalPlan(_SquarePlan):
    """Whole-matrix decode (Steps 2-4 of the traditional process); its
    ``cost_normal`` is C1 and ``cost_matrix_first`` C2."""


@dataclass(frozen=True)
class Stage:
    """One step of a plan's chosen mode: a matrix chain over block regions.

    Recover ``faulty_ids`` by applying ``matrices`` in order — ``(W,)``
    for the matrix-first sequence, ``(S, F^-1)`` for the normal one — to
    the regions of ``survivor_ids``.  ``row_ids`` are the parity-check
    rows the step was derived from (what a syndrome check of its output
    needs).  An ``independent`` stage reads true survivors only, so it
    can run concurrently with every other independent stage; a
    dependent one (``H_rest``) also reads blocks earlier stages
    recovered and runs after them, in order.

    In a plan pruned to ``targets`` a stage keeps only the rows something
    asked for, so ``faulty_ids`` may be fewer than the erased blocks its
    ``row_ids`` touch — such a stage's output cannot be syndrome-checked.
    """

    matrices: tuple[GFMatrix, ...]
    survivor_ids: tuple[int, ...]
    faulty_ids: tuple[int, ...]
    row_ids: tuple[int, ...]
    independent: bool

    @cached_property
    def cost(self) -> int:
        """mult_XORs per symbol: the chain's nonzero coefficients."""
        return sum(u(m) for m in self.matrices)

    @cached_property
    def xor_only(self) -> int:
        """How many of :attr:`cost` have coefficient 1 (pure XORs)."""
        return sum(int(np.count_nonzero(m.array == 1)) for m in self.matrices)

    @property
    def arrays(self) -> tuple[np.ndarray, ...]:
        """``matrices`` as raw coefficient arrays (what region ops take)."""
        return tuple(m.array for m in self.matrices)


def _prune_stage(stage: Stage, rows: list[int]) -> Stage:
    """``stage`` reduced to output ``rows``: walking the chain backwards,
    keep the wanted rows of each matrix and drop the columns (and with
    them the previous matrix's rows, or the survivors) left all-zero."""
    faulty_ids = tuple(stage.faulty_ids[i] for i in rows)
    matrices = []
    for matrix in reversed(stage.matrices):
        kept = matrix.array[rows]
        rows = np.flatnonzero(kept.any(axis=0)).tolist()
        kept = kept[:, rows]
        kept.setflags(write=False)  # a cached plan serves every stripe
        matrices.append(GFMatrix(matrix.field, kept, copy=False))
    survivor_ids = tuple(stage.survivor_ids[c] for c in rows)
    return Stage(
        tuple(reversed(matrices)), survivor_ids, faulty_ids, stage.row_ids,
        stage.independent,
    )


@dataclass(frozen=True)
class DecodePlan:
    """A complete, data-independent decode recipe for one scenario.

    ``targets`` are the erased blocks the plan recovers — all of
    ``faulty_ids`` unless it came from :meth:`for_targets`.  The
    sub-plans (``traditional``, ``groups``, ``rest``) always describe the
    whole pattern; ``costs``, ``mode``, ``stages`` and ``read_ids``
    describe what recovering just the targets takes.
    """

    faulty_ids: tuple[int, ...]
    targets: tuple[int, ...]
    partition: Partition
    traditional: TraditionalPlan
    groups: tuple[GroupPlan, ...]
    rest: RestPlan | None
    costs: SequenceCosts
    policy: SequencePolicy
    mode: ExecutionMode

    @property
    def p(self) -> int:
        """Degree of parallelism."""
        return self.partition.p

    @property
    def predicted_cost(self) -> int:
        """mult_XORs the chosen mode will execute (per symbol of sector)."""
        return self.costs.cost_of(self.mode)

    @property
    def uses_partition(self) -> bool:
        return self.mode in (
            ExecutionMode.PPM_REST_NORMAL,
            ExecutionMode.PPM_REST_MATRIX_FIRST,
        )

    @property
    def group_costs(self) -> tuple[int, ...]:
        """Per-group mult_XORs — the c_i of Section III-C."""
        return tuple(g.cost for g in self.groups)

    @cached_property
    def stages(self) -> tuple[Stage, ...]:
        """What the chosen mode executes, in order: groups then rest, or
        the single whole-matrix stage — pruned to what ``targets`` need.

        This is the one place ``mode`` is turned into matrices; every
        executor, lowering and cost model walks it
        (``sum(s.cost for s in stages) == predicted_cost``).
        """
        return self._walk(self.mode, self.targets)

    def _walk(self, mode: ExecutionMode, targets: tuple[int, ...]) -> tuple[Stage, ...]:
        """The stages ``mode`` runs to recover ``targets``.

        Recovering every faulty block is the unpruned walk.  Otherwise,
        last stage first: a stage no wanted block comes from is dropped,
        a kept one is cut down to its wanted rows
        (:func:`_prune_stage`), and the recovered blocks those rows
        still read become wanted from the stages before it — the paper's
        independence observation, read per request.
        """

        def split(sub: TraditionalPlan | RestPlan, matrix_first: bool, independent: bool):
            matrices = (sub.weights,) if matrix_first else (sub.s, sub.f_inv)
            return Stage(
                matrices, sub.survivor_ids, sub.faulty_ids, sub.row_ids, independent
            )

        if mode is ExecutionMode.TRADITIONAL_NORMAL:
            stages = [split(self.traditional, False, True)]
        elif mode is ExecutionMode.TRADITIONAL_MATRIX_FIRST:
            stages = [split(self.traditional, True, True)]
        else:
            stages = [
                Stage((g.weights,), g.survivor_ids, g.faulty_ids, g.row_ids, True)
                for g in self.groups
            ]
            if self.rest is not None:
                matrix_first = mode is ExecutionMode.PPM_REST_MATRIX_FIRST
                stages.append(split(self.rest, matrix_first, False))
        if targets == self.faulty_ids:
            return tuple(stages)
        wanted = set(targets)
        kept = []
        for stage in reversed(stages):
            rows = [i for i, b in enumerate(stage.faulty_ids) if b in wanted]
            if rows:
                kept.append(_prune_stage(stage, rows))
                wanted.update(kept[-1].survivor_ids)
        return tuple(reversed(kept))

    def for_targets(self, targets: Sequence[int]) -> "DecodePlan":
        """This scenario's plan for recovering only ``targets``.

        Pure row selection from the matrices already here — nothing is
        inverted again.  C1..C4 are re-counted on each mode's pruned walk
        and the plan's own policy picks among them, so a one-block read
        may run a different sequence than the whole-pattern rebuild.
        """
        targets = tuple(sorted(set(targets)))
        if not targets:
            raise ValueError("no target blocks: nothing to recover")
        stray = sorted(set(targets).difference(self.faulty_ids))
        if stray:
            raise ValueError(
                f"target block(s) {stray} are not in the erasure pattern "
                f"{list(self.faulty_ids)}"
            )
        if targets == self.targets:
            return self

        def cost(mode: ExecutionMode) -> int:
            return sum(stage.cost for stage in self._walk(mode, targets))

        costs = SequenceCosts(
            c1=cost(ExecutionMode.TRADITIONAL_NORMAL),
            c2=cost(ExecutionMode.TRADITIONAL_MATRIX_FIRST),
            c3=cost(ExecutionMode.PPM_REST_MATRIX_FIRST),
            c4=cost(ExecutionMode.PPM_REST_NORMAL),
        )
        return replace(
            self, targets=targets, costs=costs, mode=costs.choose(self.policy)
        )

    @cached_property
    def read_ids(self) -> tuple[int, ...]:
        """Surviving blocks the stages read, sorted (recovered blocks a
        later stage reuses are intermediates, not reads)."""
        read = {b for stage in self.stages for b in stage.survivor_ids}
        return tuple(sorted(read.difference(self.faulty_ids)))


def _checked(h: GFMatrix, faulty: Sequence[int]) -> tuple[int, ...]:
    faulty = sorted(set(faulty))
    if not faulty:
        raise ValueError("no faulty blocks: nothing to plan")
    if len(faulty) > h.rows:
        raise SingularMatrixError(
            f"{len(faulty)} faults exceed the {h.rows} parity constraints"
        )
    if faulty[0] < 0 or faulty[-1] >= h.cols:
        bad = next(b for b in faulty if not 0 <= b < h.cols)
        raise IndexError(f"faulty column {bad} outside 0..{h.cols - 1}")
    return tuple(faulty)


def plan_batch(
    source: ErasureCode | GFMatrix,
    patterns: Sequence[Sequence[int]],
    policy: SequencePolicy = SequencePolicy.PAPER,
) -> list[DecodePlan]:
    """Whole-pattern plans for several failure scenarios, made together.

    The one planner: :func:`plan_decode` is a batch of one.  The log
    tables of all patterns are grouped in one array pass
    (:func:`~repro.core.logtable.support_groups`), and each pattern's
    groups come from the position-keyed group memo
    (:func:`~repro.core.partition.solve_partitions`).  Then the
    traditional and ``H_rest`` square systems of every pattern are
    stacked by shape, and each stack runs one first-wins elimination and
    one ``F^-1 S`` product, so a batch costs one elimination loop per
    distinct shape, not two per pattern.  Every plan equals what
    planning its pattern alone gives.

    Raises what planning the patterns one by one, in order, raises
    first; nothing is returned for any of them then.
    """
    h = source.H if isinstance(source, ErasureCode) else source
    checked: list = []
    for faulty in patterns:
        try:
            checked.append(_checked(h, faulty))
        except (ValueError, IndexError) as exc:  # raised in pattern order below
            checked.append(exc)
    valid = [faulty for faulty in checked if not isinstance(faulty, Exception)]
    parts = solve_partitions(h, valid)
    systems = []
    for faulty, (part, _) in zip(valid, parts):
        systems.append((tuple(range(h.rows)), faulty))
        if part.rest_faulty_ids:
            systems.append((part.rest_row_ids, part.rest_faulty_ids))
    solved, planned = iter(solve_squares(h, systems)), iter(parts)
    plans = []
    for faulty in checked:
        if isinstance(faulty, Exception):
            raise faulty
        part, groups = next(planned)
        squares = [next(solved) for _ in range(1 + bool(part.rest_faulty_ids))]
        for square in squares:  # the traditional system's error first
            if isinstance(square, SingularMatrixError):
                raise square
        trad, c1, c2 = squares[0]
        rest, normal, first = squares[1] if len(squares) > 1 else (None, 0, 0)
        group_total = sum([g.cost for g in groups])
        costs = SequenceCosts(c1, c2, c3=group_total + first, c4=group_total + normal)
        plans.append(
            DecodePlan(
                faulty_ids=faulty,
                targets=faulty,
                partition=part,
                traditional=TraditionalPlan(**trad),
                groups=groups,
                rest=RestPlan(**rest) if rest else None,
                costs=costs,
                policy=policy,
                mode=costs.choose(policy),
            )
        )
    return plans


def plan_decode(
    source: ErasureCode | GFMatrix,
    faulty: Sequence[int],
    policy: SequencePolicy = SequencePolicy.PAPER,
    targets: Sequence[int] | None = None,
) -> DecodePlan:
    """Build the full decode plan for a failure scenario.

    ``source`` is a code (its cached ``H`` is used) or a parity-check
    matrix directly.  ``targets`` are the erased blocks the caller wants
    back (default: all of ``faulty``); the plan is pruned to them by
    :meth:`DecodePlan.for_targets`, and one outside ``faulty`` is a
    ``ValueError``.  Raises :class:`~repro.matrix.SingularMatrixError`
    if the scenario is not decodable.
    """
    (plan,) = plan_batch(source, [faulty], policy)
    return plan if targets is None else plan.for_targets(targets)


def evaluate_costs(
    source: ErasureCode | GFMatrix, faulty: Sequence[int]
) -> SequenceCosts:
    """C1..C4 for a scenario without keeping the plan around."""
    return plan_decode(source, faulty, policy=SequencePolicy.AUTO).costs
