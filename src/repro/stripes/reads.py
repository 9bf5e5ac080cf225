"""Repair-I/O accounting for degraded reads and rebuilds.

The paper motivates LRC by degraded-read cost: "local parity to reduce
disk I/O, network overhead, and degraded read latency" (Section I).
This module quantifies that on top of the decode planner: the survivors
a plan actually touches *are* the blocks a repair must read off disks
(and ship over the network), so I/O cost falls straight out of the
compacted survivor sets.

For a single lost block, ``degraded_read_cost`` plans the recovery of
just that block — for an LRC that is its local group (group-size reads),
for RS it is k reads — reproducing the comparison that motivates
asymmetric parity in the first place (see
``examples/degraded_read_lrc.py`` and ``tests/stripes/test_reads.py``).
With ``pattern=`` it bills the same read while a wider erasure pattern
is in force — the plan of that pattern pruned to the lost blocks, which
is what the service runs for one degraded read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..codes.base import ErasureCode
from ..core.planner import DecodePlan, plan_decode
from ..core.sequences import SequencePolicy


@dataclass(frozen=True)
class RepairIO:
    """I/O bill of one repair.

    ``blocks_read`` are distinct surviving blocks fetched from devices;
    ``disks_touched`` the distinct surviving disks involved;
    ``mult_xors`` the computational cost of the chosen plan.
    """

    blocks_read: tuple[int, ...]
    disks_touched: tuple[int, ...]
    mult_xors: int

    @property
    def read_count(self) -> int:
        return len(self.blocks_read)


def plan_io(code: ErasureCode, plan: DecodePlan) -> RepairIO:
    """The I/O bill of an existing decode plan.

    Counts every survivor block any phase of the plan reads (recovered
    blocks reused by the rest phase are intermediate, not device reads).
    """
    blocks = plan.read_ids
    disks = tuple(sorted({code.position(b)[1] for b in blocks}))
    return RepairIO(
        blocks_read=blocks, disks_touched=disks, mult_xors=plan.predicted_cost
    )


def degraded_read_cost(
    code: ErasureCode,
    lost_blocks: Sequence[int],
    policy: SequencePolicy = SequencePolicy.PAPER,
    pattern: Sequence[int] | None = None,
) -> RepairIO:
    """I/O bill for serving a degraded read of ``lost_blocks``.

    Plans the recovery of exactly those blocks while ``pattern`` is
    erased (default: everything but ``lost_blocks`` survives) and bills
    the survivors the targeted plan touches.
    """
    erased = lost_blocks if pattern is None else pattern
    return plan_io(code, plan_decode(code, erased, policy, targets=lost_blocks))


def compare_degraded_read(codes: dict[str, ErasureCode], lost_block: int = 0) -> dict[str, RepairIO]:
    """Degraded-read bills of several codes for the same single data loss.

    The classic table: LRC reads one local group, RS reads k, SD reads a
    stripe row — the asymmetric-parity motivation, quantified.
    """
    return {name: degraded_read_cost(code, [lost_block]) for name, code in codes.items()}
