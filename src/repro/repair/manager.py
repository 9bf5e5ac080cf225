"""The repair loop: scrub a chunk, queue the damage, heal it — repeat.

:class:`RepairManager` is the background task the service runs beside
its request path.  Each tick:

1. **Scan** — a bounded chunk of stripes is syndrome-checked off the
   event loop (:class:`~repro.repair.scrubber.StoreScrubber` via
   ``asyncio.to_thread``), so scrubbing CPU never blocks serving.
2. **Queue** — findings become :class:`~repro.repair.queue.RepairTask`\\ s:
   corruptions (wrong bytes being served *now*) ahead of erasures
   (missing bytes that degraded reads still recover correctly).
   Ambiguous stripes — nonzero syndromes no candidate within the search
   depth explains — are *reported, never repaired*: writing a guessed
   "fix" could corrupt a second block and turn a recoverable stripe
   into a lost one.
3. **Drain** — up to ``repair_batch`` tasks are decoded in one
   ``decode_batch(..., priority="background")`` submission (corrupt
   blocks are treated as erasures over the remaining trusted blocks),
   metered by the :class:`~repro.repair.ratelimit.TokenBucket` and
   deferred by the pipeline's admission gate while foreground reads are
   in flight.  Recovered regions are written back and, when configured,
   re-scrubbed to confirm the syndromes actually cleared.

The manager duck-types its store (``code`` / ``stripe_ids`` /
``stripe`` / ``snapshot_blocks`` / ``pattern`` / ``repair``) and takes
the pipeline as a plain object, so this package never imports
:mod:`repro.service` — the service imports *us*.
"""

from __future__ import annotations

import asyncio
import logging

from ..config import RepairConfig
from ..pipeline.pool import StragglerTimeout
from ..stripes.scrub import scrub_stripe
from .queue import RepairQueue, RepairTask
from .ratelimit import TokenBucket
from .scrubber import ScanFindings, StoreScrubber

logger = logging.getLogger(__name__)


class RepairMetrics:
    """Mutable tallies of one :class:`RepairManager`.

    Counter semantics:

    - ``stripes_scrubbed`` / ``scrub_passes`` — scan volume;
    - ``corruptions_found`` / ``erasures_found`` / ``ambiguous_found``
      — findings by kind (stripes, not blocks);
    - ``stripes_repaired`` / ``blocks_repaired`` — successful heals;
    - ``repair_batches`` — ``decode_batch`` submissions made;
    - ``repair_failures`` — stripes whose repair decode raised;
    - ``verify_failures`` — repaired stripes whose re-scrub still shows
      nonzero syndromes (should stay 0; anything else is a bug);
    - ``rate_wait_seconds`` — total time the token bucket held repair
      back (how hard the rate limit is biting).

    Updated from the event-loop thread only, like
    :class:`repro.service.metrics.ServiceMetrics`.
    """

    def __init__(self) -> None:
        self.stripes_scrubbed = 0
        self.scrub_passes = 0
        self.corruptions_found = 0
        self.erasures_found = 0
        self.ambiguous_found = 0
        self.stripes_repaired = 0
        self.blocks_repaired = 0
        self.repair_batches = 0
        self.repair_failures = 0
        self.verify_failures = 0
        self.rate_wait_seconds = 0.0

    def as_dict(self) -> dict[str, object]:
        """JSON-ready snapshot (merged into the service metrics doc)."""
        return {
            "scrub": {
                "stripes_scrubbed": self.stripes_scrubbed,
                "passes": self.scrub_passes,
                "corruptions_found": self.corruptions_found,
                "erasures_found": self.erasures_found,
                "ambiguous_found": self.ambiguous_found,
            },
            "repair": {
                "stripes_repaired": self.stripes_repaired,
                "blocks_repaired": self.blocks_repaired,
                "batches": self.repair_batches,
                "failures": self.repair_failures,
                "verify_failures": self.verify_failures,
                "rate_wait_seconds": self.rate_wait_seconds,
            },
        }


class RepairManager:
    """Background scrub-and-repair driver over one store + pipeline.

    Parameters
    ----------
    store:
        Duck-typed blob store (see module docstring for the protocol).
    pipeline:
        A :class:`~repro.pipeline.DecodePipeline` (or compatible) whose
        ``decode_batch`` accepts ``priority=`` — typically the *same*
        pipeline serving degraded reads, so repair shares its plan
        cache and defers to its foreground batches.
    config:
        :class:`RepairConfig` knobs (``enabled`` is the service's
        switch; a manager built directly always runs).
    """

    def __init__(self, store, pipeline, config: RepairConfig | None = None):
        self.store = store
        self.pipeline = pipeline
        self.config = config if config is not None else RepairConfig()
        self.metrics = RepairMetrics()
        self.queue = RepairQueue()
        self.scrubber = StoreScrubber(store, max_errors=self.config.max_errors)
        self.bucket = TokenBucket(
            self.config.rate_blocks_per_s, self.config.burst_blocks
        )
        #: stripes reported unhealable (ambiguous syndromes, failed
        #: decodes) — surfaced via :meth:`health`, retried only when a
        #: later scrub pass sees their state change
        self.unrepairable: dict[int, str] = {}
        self._task: asyncio.Task | None = None
        self._wake = asyncio.Event()
        self._stopping = False

    # -- lifecycle -----------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._task is not None and not self._task.done()

    def start(self) -> None:
        """Spawn the scrub/repair loop on the running event loop."""
        if self.running:
            raise RuntimeError("repair manager already running")
        self._stopping = False
        self._task = asyncio.get_running_loop().create_task(
            self._run(), name="repro-repair-manager"
        )

    async def stop(self) -> None:
        """Stop the loop, finishing any in-flight repair batch first."""
        if self._task is None:
            return
        self._stopping = True
        self._wake.set()
        try:
            await self._task
        finally:
            self._task = None

    def kick(self) -> None:
        """Skip the current inter-tick sleep (tests, forced scrubs)."""
        self._wake.set()

    async def _run(self) -> None:
        while not self._stopping:
            try:
                await self.tick()
            except asyncio.CancelledError:
                raise
            except Exception:
                # the loop must survive any single bad stripe/batch;
                # specifics were already counted where they were caught
                logger.exception("repair tick failed; continuing")
            if self._stopping:
                break
            self._wake.clear()
            try:
                await asyncio.wait_for(
                    self._wake.wait(), timeout=self.config.scrub_interval_s
                )
            except asyncio.TimeoutError:
                pass

    # -- one tick ------------------------------------------------------------

    async def tick(self) -> ScanFindings:
        """One scan-queue-drain cycle (public for tests)."""
        findings = await asyncio.to_thread(
            self.scrubber.scan_chunk, self.config.scrub_stripes
        )
        self.metrics.stripes_scrubbed += findings.scanned
        self.metrics.scrub_passes += findings.passes_completed
        self._enqueue_findings(findings)
        while len(self.queue):
            await self._drain_batch()
        return findings

    def _enqueue_findings(self, findings: ScanFindings) -> None:
        for stripe_id, report in findings.findings:
            if report.status == "ambiguous":
                self.metrics.ambiguous_found += 1
                if self.unrepairable.get(stripe_id) != "ambiguous":
                    self.unrepairable[stripe_id] = "ambiguous"
                    logger.warning(
                        "stripe %d: ambiguous corruption (syndromes nonzero, "
                        "no candidate within max_errors=%d) — not auto-repairing",
                        stripe_id,
                        self.config.max_errors,
                    )
                continue
            if report.status == "corrupt":
                self.metrics.corruptions_found += 1
                task = RepairTask(stripe_id, "corruption", report.corrupted_blocks)
            else:  # "erased"
                self.metrics.erasures_found += 1
                task = RepairTask(stripe_id, "erasure", report.erased_blocks)
            # a changed diagnosis supersedes an earlier unrepairable verdict
            self.unrepairable.pop(stripe_id, None)
            self.queue.push(task)

    # -- draining ------------------------------------------------------------

    async def _drain_batch(self) -> None:
        tasks = self.queue.pop_batch(self.config.repair_batch)
        if not tasks:
            return
        blocks_due = sum(len(t.blocks) for t in tasks)
        self.metrics.rate_wait_seconds += await self.bucket.acquire(blocks_due)
        kept, snapshots, patterns = [], [], []
        for task in tasks:
            try:
                snapshot = self.store.snapshot_blocks(task.stripe_id, inject=False)
                pattern = self.store.pattern(task.stripe_id)
            except LookupError:
                continue  # migrated away between the scrub and the drain
            for block in task.blocks:
                # corrupt blocks are present but untrusted: decode must
                # treat them as erased and not read them as survivors
                snapshot.pop(block, None)
            kept.append(task)
            snapshots.append(snapshot)
            patterns.append(tuple(sorted(set(pattern) | set(task.blocks))))
        tasks = kept
        if not tasks:
            return
        self.metrics.repair_batches += 1
        try:
            results = await asyncio.to_thread(
                self.pipeline.decode_batch,
                self.store.code,
                snapshots,
                patterns,
                priority="background",
            )
        except (ValueError, StragglerTimeout):
            # decode-shaped failure (singular pattern, verification
            # refusal) or an expired/straggling gather: split the batch
            # so one bad stripe or hung worker cannot poison its
            # batchmates — each single retry gets a fresh deadline
            results = await self._drain_singly(snapshots, patterns, tasks)
        for task, recovered in zip(tasks, results):
            if recovered is None:
                continue  # already counted by _drain_singly
            self._write_back(task, recovered)

    async def _drain_singly(self, snapshots, patterns, tasks):
        """Per-stripe retry after a failed batch; ``None`` marks failures."""
        results = []
        for snapshot, pattern, task in zip(snapshots, patterns, tasks):
            try:
                single = await asyncio.to_thread(
                    self.pipeline.decode_batch,
                    self.store.code,
                    [snapshot],
                    [pattern],
                    priority="background",
                )
                results.append(single[0])
            except StragglerTimeout as exc:
                # transient (a hung worker, not a bad stripe): count the
                # failure but do NOT mark the stripe unrepairable — the
                # next scrub pass re-finds and retries it
                self.metrics.repair_failures += 1
                logger.warning(
                    "stripe %d: repair decode timed out (%s); will retry "
                    "next scrub pass",
                    task.stripe_id,
                    exc,
                )
                results.append(None)
            except ValueError as exc:
                self.metrics.repair_failures += 1
                self.unrepairable[task.stripe_id] = f"decode failed: {exc}"
                logger.warning(
                    "stripe %d: repair decode failed (%s)", task.stripe_id, exc
                )
                results.append(None)
        return results

    def _write_back(self, task: RepairTask, recovered) -> None:
        # everything decoded gets written: the task's blocks plus any
        # block that became erased between queueing and drain (the
        # pattern was re-read at snapshot time, so it is in `recovered`)
        payload = dict(recovered)
        try:
            self.store.repair(task.stripe_id, payload)
        except LookupError:
            return  # migrated away mid-decode; its new home rescrubs it
        report = scrub_stripe(
            self.store.code, self.store.stripe(task.stripe_id), max_errors=1
        )
        if not report.healthy:
            self.metrics.verify_failures += 1
            self.unrepairable[task.stripe_id] = f"post-repair scrub still {report.status}"
            logger.error(
                "stripe %d: post-repair scrub still %s — repair did not heal",
                task.stripe_id,
                report.status,
            )
            return
        self.unrepairable.pop(task.stripe_id, None)
        self.metrics.stripes_repaired += 1
        self.metrics.blocks_repaired += len(payload)

    # -- health --------------------------------------------------------------

    def health(self) -> dict[str, object]:
        """Queue depth + unrepairable stripes, for monitoring."""
        return {
            "running": self.running,
            "queue_depth": len(self.queue),
            "queued_stripes": list(self.queue.stripe_ids),
            "unrepairable": dict(self.unrepairable),
            "rate_limited": not self.bucket.unlimited,
        }

    async def wait_healthy(self, timeout_s: float = 30.0) -> bool:
        """Scrub-to-completion barrier: True once a *full pass* over the
        store finds nothing to repair and the queue is empty.

        Drives ticks directly (kicking the background loop's sleep out
        of the way), so tests and ``Cluster.wait_healthy`` can await
        "array fully healed" without polling metrics.
        """
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while loop.time() < deadline:
            findings = await asyncio.to_thread(self.scrubber.scan_full_pass)
            self.metrics.stripes_scrubbed += findings.scanned
            self.metrics.scrub_passes += 1
            actionable = [
                (sid, r) for sid, r in findings.findings
                if r.status in ("corrupt", "erased")
            ]
            if not actionable and not len(self.queue):
                return True
            self._enqueue_findings(
                ScanFindings(
                    scanned=0,
                    findings=tuple(actionable),
                    passes_completed=0,
                )
            )
            while len(self.queue):
                await self._drain_batch()
        return False
