"""Stripe storage substrate: layout, sector data, failures, scrubbing.

Public surface: :class:`StripeLayout`, :class:`Stripe`,
:class:`FailureScenario` and the scenario generators matching the paper's
experimental methodology (:func:`worst_case_sd`, :func:`lrc_scenario`,
:func:`random_scenario`).  The multi-stripe store built on them is
:class:`repro.service.BlobStore`.
"""

from __future__ import annotations

from .failures import (
    FailureScenario,
    UndecodableScenarioError,
    corrupt_blocks,
    lrc_scenario,
    random_scenario,
    worst_case_sd,
)
from .layout import StripeLayout
from .reads import RepairIO, compare_degraded_read, degraded_read_cost, plan_io
from .scrub import (
    ScrubCursor,
    StripeScrubReport,
    scrub_stripe,
    syndromes,
)
from .store import Stripe

__all__ = [
    "RepairIO",
    "compare_degraded_read",
    "degraded_read_cost",
    "plan_io",
    "ScrubCursor",
    "StripeScrubReport",
    "corrupt_blocks",
    "scrub_stripe",
    "syndromes",
    "FailureScenario",
    "UndecodableScenarioError",
    "lrc_scenario",
    "random_scenario",
    "worst_case_sd",
    "StripeLayout",
    "Stripe",
]
