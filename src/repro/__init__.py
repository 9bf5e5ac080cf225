"""repro — reproduction of "PPM: A Partitioned and Parallel Matrix Algorithm
to Accelerate Encoding/Decoding Process of Asymmetric Parity Erasure Codes"
(Li et al., ICPP 2015).

Layering (bottom-up):

- :mod:`repro.gf` — GF(2^w) arithmetic and the ``mult_XORs`` region primitive.
- :mod:`repro.matrix` — dense matrix algebra over GF(2^w).
- :mod:`repro.codes` — SD, PMDS, LRC (asymmetric) and RS, EVENODD, RDP
  (symmetric) code constructions.
- :mod:`repro.stripes` — stripe storage substrate, scrubbing and failure
  scenario generation.
- :mod:`repro.core` — the PPM algorithm: log table, partition, calculation
  sequences C1..C4, planner and the traditional/PPM decoders.
- :mod:`repro.parallel` — thread pool and the calibrated parallel-time model.
- :mod:`repro.pipeline` — batched decode engine: plan cache, persistent
  worker pools, pattern-fused batch decode.
- :mod:`repro.service` — asyncio degraded-read service: coalescing
  scheduler, admission control, deadlines/retries, fault-injected store.
- :mod:`repro.analysis` — the paper's closed-form cost model (Section III-B).
- :mod:`repro.bench` — drivers that regenerate every evaluation figure.

Quick start::

    from repro import SDCode, PPMDecoder
    from repro.stripes import worst_case_sd

See ``examples/quickstart.py`` for a complete runnable walk-through.
"""

from __future__ import annotations

from .gf import GF, OpCounter, RegionOps

__version__ = "1.0.0"

__all__ = ["GF", "OpCounter", "RegionOps", "__version__"]

_LAZY_EXPORTS = {
    "repro.matrix": ["GFMatrix", "invert", "rank", "SingularMatrixError"],
    "repro.codes": [
        "ErasureCode",
        "SDCode",
        "PMDSCode",
        "LRCCode",
        "RSCode",
        "EvenOddCode",
        "RDPCode",
        "get_code",
    ],
    "repro.stripes": ["StripeLayout", "Stripe", "FailureScenario", "worst_case_sd"],
    "repro.core": [
        "PPMDecoder",
        "TraditionalDecoder",
        "DecodePlan",
        "plan_decode",
        "build_log_table",
        "partition",
        "evaluate_costs",
        "SequencePolicy",
    ],
    "repro.parallel": ["CPUProfile", "simulate_decode_time", "host_profile"],
    "repro.pipeline": ["DecodePipeline", "PlanCache", "PipelineMetrics"],
    "repro.service": ["BlobService", "BlobStore", "ServiceConfig", "ServiceMetrics"],
    "repro.analysis": ["sd_costs"],
}

_LAZY_LOOKUP = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}
__all__ += sorted(_LAZY_LOOKUP)


def __getattr__(name: str):
    """PEP 562 lazy re-export of the public API from subpackages."""
    module_name = _LAZY_LOOKUP.get(name)
    if module_name is None:
        raise AttributeError(f"module 'repro' has no attribute {name!r}")
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value
    return value
