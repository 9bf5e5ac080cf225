"""Calculation sequences and their computational costs (paper, §II-B/III-B).

Evaluating ``F^-1 * S * BS`` admits two orders:

- *normal sequence*: ``F^-1 * (S * BS)`` — cost ``u(F^-1) + u(S)``;
- *matrix-first sequence*: ``(F^-1 * S) * BS`` — cost ``u(F^-1 * S)``.

On the whole matrix these give the paper's ``C1`` and ``C2``.  After PPM
partitioning, every independent sub-matrix is strictly cheaper with
matrix-first (its F-block is fully dense on the faulty columns), leaving
two candidate totals:

- ``C3 = sum_i u(F_i^-1 S_i) + u(F_rest^-1 S_rest)``
- ``C4 = sum_i u(F_i^-1 S_i) + u(F_rest^-1) + u(S_rest)``

The paper shows ``C3 > C2`` always and ``C4 < C2`` in ~95% of SD
configurations, so PPM picks ``min(C2, C4)`` (policy ``PAPER``); policy
``AUTO`` additionally admits C1/C3 for non-SD codes where the paper's
inequalities need not hold.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class SequencePolicy(Enum):
    """How the decoder chooses its calculation sequence."""

    NORMAL = "normal"  # force whole-matrix normal sequence (C1)
    MATRIX_FIRST = "matrix_first"  # force whole-matrix matrix-first (C2)
    PPM_MATRIX_FIRST_REST = "ppm_matrix_first_rest"  # force partition + MF rest (C3)
    PPM_NORMAL_REST = "ppm_normal_rest"  # force partition + normal rest (C4)
    PAPER = "paper"  # min(C2, C4), the paper's §III-B rule
    AUTO = "auto"  # min(C1, C2, C3, C4)


class ExecutionMode(Enum):
    """The concrete decode strategy a plan will execute."""

    TRADITIONAL_NORMAL = "traditional_normal"
    TRADITIONAL_MATRIX_FIRST = "traditional_matrix_first"
    PPM_REST_MATRIX_FIRST = "ppm_rest_matrix_first"
    PPM_REST_NORMAL = "ppm_rest_normal"


_FORCED = {
    SequencePolicy.NORMAL: ExecutionMode.TRADITIONAL_NORMAL,
    SequencePolicy.MATRIX_FIRST: ExecutionMode.TRADITIONAL_MATRIX_FIRST,
    SequencePolicy.PPM_MATRIX_FIRST_REST: ExecutionMode.PPM_REST_MATRIX_FIRST,
    SequencePolicy.PPM_NORMAL_REST: ExecutionMode.PPM_REST_NORMAL,
}

_MODE_COST = {
    ExecutionMode.TRADITIONAL_NORMAL: "c1",
    ExecutionMode.TRADITIONAL_MATRIX_FIRST: "c2",
    ExecutionMode.PPM_REST_MATRIX_FIRST: "c3",
    ExecutionMode.PPM_REST_NORMAL: "c4",
}


@dataclass(frozen=True)
class SequenceCosts:
    """The four mult_XORs totals for one (H, failure-scenario) pair."""

    c1: int
    c2: int
    c3: int
    c4: int

    def cost_of(self, mode: ExecutionMode) -> int:
        """The mult_XORs count a plan in ``mode`` will execute."""
        return getattr(self, _MODE_COST[mode])

    def choose(self, policy: SequencePolicy) -> ExecutionMode:
        """Pick the execution mode a policy dictates for these costs."""
        forced = _FORCED.get(policy)
        if forced is not None:
            return forced
        if policy is SequencePolicy.PAPER:
            candidates = [
                ExecutionMode.PPM_REST_NORMAL,
                ExecutionMode.TRADITIONAL_MATRIX_FIRST,
            ]
        else:  # AUTO
            candidates = [
                ExecutionMode.PPM_REST_NORMAL,
                ExecutionMode.PPM_REST_MATRIX_FIRST,
                ExecutionMode.TRADITIONAL_MATRIX_FIRST,
                ExecutionMode.TRADITIONAL_NORMAL,
            ]
        # stable min: PPM modes win ties so parallelism is preserved
        return min(candidates, key=self.cost_of)

    def as_dict(self) -> dict[str, int]:
        return {"C1": self.c1, "C2": self.c2, "C3": self.c3, "C4": self.c4}

    def ratio(self, which: str) -> float:
        """``C_which / C1`` — the y-axis of the paper's Figures 4-6."""
        value = self.as_dict()[which.upper()]
        if self.c1 == 0:
            raise ZeroDivisionError("C1 is zero; no baseline cost")
        return value / self.c1

    def reduction(self) -> float:
        """``(C1 - C4) / C1`` — e.g. 17.14% for the paper's §III-B example."""
        if self.c1 == 0:
            raise ZeroDivisionError("C1 is zero; no baseline cost")
        return (self.c1 - self.c4) / self.c1
