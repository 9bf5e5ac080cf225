"""Online scrub-and-repair: find silent damage, heal it in the background.

Erasure decoding only fixes what it *knows* is broken.  This package
closes the loop for damage nobody reports: a background
:class:`RepairManager` syndrome-scrubs the store a bounded chunk at a
time, queues what it finds by urgency (corruptions before erasures —
wrong bytes outrank missing ones), and drains repairs through the
shared :class:`~repro.pipeline.DecodePipeline` at background priority,
metered by a :class:`TokenBucket` so repair throughput never starves
live degraded reads.

Layering: this package sits *below* :mod:`repro.service` (which starts
a manager beside its request path) and duck-types the store, so it
depends only on :mod:`repro.stripes` and the pipeline's decode
protocol.  Lint rule PPM009 covers the whole package: nothing here may
block the event loop.  Its knobs are :class:`repro.config.RepairConfig`
(re-exported here).
"""

from __future__ import annotations

from ..config import RepairConfig
from .manager import RepairManager, RepairMetrics
from .queue import RepairQueue, RepairTask
from .ratelimit import TokenBucket
from .scrubber import ScanFindings, StoreScrubber

__all__ = [
    "RepairConfig",
    "RepairManager",
    "RepairMetrics",
    "RepairQueue",
    "RepairTask",
    "ScanFindings",
    "StoreScrubber",
    "TokenBucket",
]
