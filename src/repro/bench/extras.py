"""Extra experiments beyond the paper's figures.

Each function returns a :class:`~repro.bench.report.Report` and has a
CLI entry (``ppm extra <name>``).  These quantify claims the paper makes
in passing (the 85.78% mean C4/C1, the C2-wins share) and the
degraded-read I/O that motivates LRC in its introduction.
"""

from __future__ import annotations

from ..codes import LRCCode, RSCode, SDCode
from ..core import SequencePolicy
from ..stripes import compare_degraded_read, degraded_read_cost, worst_case_sd
from .report import Report
from .workloads import sd_workload


def c2_share(fast: bool = True, seed: int = 2015) -> Report:
    """How often C2 < C4 (the paper: ~5%, only at n <= 9)."""
    ns = (4, 5, 6, 9, 12, 16, 20, 24)
    rs = (8, 16) if not fast else (16,)
    report = Report(
        title="Extra: share of configurations where C2 beats C4",
        headers=("n", "r", "m", "s", "C2", "C4", "winner"),
    )
    wins = total = 0
    for n in ns:
        for r in rs:
            for m in (1, 2, 3):
                for s in (1, 2, 3):
                    if m >= n - 1 or s > n - m:
                        continue
                    wl = sd_workload(
                        n, r, m, s, z=1, stripe_bytes=1 << 12, seed=seed,
                        policy=SequencePolicy.AUTO,
                    )
                    c2, c4 = wl.plan.costs.c2, wl.plan.costs.c4
                    total += 1
                    if c2 < c4:
                        wins += 1
                        report.add(n, r, m, s, c2, c4, "C2")
    report.note(f"C2 < C4 in {wins}/{total} configs ({wins / total:.1%})")
    report.note("paper: ~5% of cases, n <= 9 (all our wins are at small n too)")
    return report


def degraded_read_io(fast: bool = True) -> Report:
    """Repair I/O of one lost data block across code families."""
    del fast
    report = Report(
        title="Extra: degraded-read I/O for one lost data block",
        headers=("code", "blocks read", "disks touched", "mult_XORs"),
    )
    codes = {
        "RS(16,12)": RSCode(16, 12, r=1),
        "RS(14,12)": RSCode(14, 12, r=1),
        "LRC(12,4,2)": LRCCode(12, 4, 2),
        "LRC(12,2,2)": LRCCode(12, 2, 2),
        "SD(14,16,2,2) row": SDCode(14, 16, 2, 2),
    }
    for name, io in compare_degraded_read(codes, lost_block=0).items():
        report.add(name, io.read_count, len(io.disks_touched), io.mult_xors)
    # one read under the benchmark's worst-case pattern (2 disks + 2
    # sectors of SD(10,8,2,2), the geometry perf/ and damage_store use)
    sd = SDCode(10, 8, 2, 2)
    pattern = worst_case_sd(sd, z=1, rng=2015).faulty_blocks
    whole = degraded_read_cost(sd, pattern)
    singles = [degraded_read_cost(sd, [b], pattern=pattern) for b in pattern]
    group = min(singles, key=lambda io: io.mult_xors)
    rest = max(singles, key=lambda io: io.mult_xors)
    for name, io in (
        ("SD(10,8,2,2) worst: whole pattern", whole),
        ("SD(10,8,2,2) worst: group block", group),
        ("SD(10,8,2,2) worst: H_rest block", rest),
    ):
        report.add(name, io.read_count, len(io.disks_touched), io.mult_xors)
    mean = sum(io.mult_xors for io in singles) / len(singles)
    report.note("LRC local groups make single-failure reads cheap (paper §I)")
    report.note(
        f"worst-case rows: a one-block read runs its row of the plan, "
        f"mean {mean:.1f} mult_XORs and survivor blocks over the "
        f"{len(singles)} erased blocks (whole pattern: {whole.mult_xors}, "
        f"{whole.read_count / len(pattern):.2f} read per block recovered)"
    )
    report.note(
        "reference, not built: the (K+2,K,2) degraded-read access-bandwidth "
        "lower bound (PAPERS.md) is how few survivor bytes such a read can "
        "touch in a code designed for it"
    )
    return report


def paper_average(fast: bool = True) -> Report:
    """The paper's headline 85.78% mean C4/C1, regenerated exactly."""
    del fast
    from .sweeps import paper_average_report

    return paper_average_report()


EXTRAS = {
    "paper-average": paper_average,
    "c2-share": c2_share,
    "degraded-read-io": degraded_read_io,
}


def run_extra(name: str, fast: bool = True, **kwargs) -> Report:
    """Run one extra experiment by name."""
    try:
        driver = EXTRAS[name]
    except KeyError:
        raise ValueError(
            f"unknown extra {name!r}; available: {', '.join(sorted(EXTRAS))}"
        ) from None
    return driver(fast=fast, **kwargs)
