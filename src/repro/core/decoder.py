"""The traditional and PPM decoders (paper, Sections II-B and III-D).

Every decoder here is a *preset* of
:class:`repro.pipeline.DecodePipeline` — the one executor — fixing its
sequence policy, pool kind and pool width:

===========================  ==================  =======  =======
preset                       policy              pool     workers
===========================  ==================  =======  =======
``TraditionalDecoder``       normal (C1) or      serial   1
                             matrix_first (C2)
``PPMDecoder``               paper: min(C2, C4)  thread   threads
``PPMDecoder(parallel=       paper               serial   1
False)`` / ``threads=1``
===========================  ==================  =======  =======

A thread pool places (stage x tile) tasks on workers by the engine's
one rule, LPT; Algorithm 1's ``p mod T`` is the parallel model's (see
:mod:`repro.parallel.simulate`).  The presets share the plan
cache, compiled kernels and counted ``mult_XORs`` primitive of the
pipeline, so their measured costs are directly comparable, and inherit
its whole API (``decode``, ``decode_batch``, ``encode*``, ``plan``,
``metrics``).  Encoding is the special case of decoding where the
"faulty" blocks are the parity positions (paper, footnote 1).
"""

from __future__ import annotations

from ..gf import OpCounter
from ..pipeline.engine import DecodePipeline, DecodeStats
from .sequences import SequencePolicy

__all__ = [
    "DecodeStats",
    "PPMDecoder",
    "TraditionalDecoder",
]


class TraditionalDecoder(DecodePipeline):
    """The baseline decoder: one big F/S split, executed serially.

    ``policy`` selects the calculation order: ``"normal"`` (the paper's
    C1, what the open-source SD decoder does) or ``"matrix_first"`` (C2,
    the generator-matrix method); the matching
    :class:`~repro.core.sequences.SequencePolicy` members are accepted
    too.
    """

    _POLICIES = {
        "normal": SequencePolicy.NORMAL,
        "matrix_first": SequencePolicy.MATRIX_FIRST,
    }

    def __init__(
        self,
        *,
        policy: str | SequencePolicy = "normal",
        counter: OpCounter | None = None,
        verify: bool = False,
    ):
        resolved = self._POLICIES.get(policy) if isinstance(policy, str) else policy
        if resolved is None or resolved not in self._POLICIES.values():
            raise ValueError(
                f"policy must be one of {sorted(self._POLICIES)}, got {policy!r}"
            )
        super().__init__(
            pool="serial", workers=1, policy=resolved,
            counter=counter, verify=verify,
        )


class PPMDecoder(DecodePipeline):
    """The paper's Partitioned and Parallel Matrix decoder.

    Parameters
    ----------
    threads:
        T, the worker count for the parallel phase.  The paper restrains
        ``T <= min(4, cores)``; here T is free and the parallel-time
        model (see :mod:`repro.parallel`) evaluates core-count effects.
    policy:
        Sequence policy; default is the paper's rule (min(C2, C4)).
    parallel:
        When False (or with ``threads=1``) the whole plan runs as one
        program on the caller's thread — the mode the measured
        cost-reduction experiments use, so their timings hold the
        counted work alone, whatever the host's core count.
    deadline_s:
        When set, bounds every parallel phase: a straggling worker
        raises :class:`~repro.pipeline.pool.StragglerTimeout` instead
        of stalling the decode forever.  ``None`` (the default) waits
        indefinitely, matching the paper's fault-free assumption.
    """

    def __init__(
        self,
        *,
        threads: int = 4,
        policy: SequencePolicy = SequencePolicy.PAPER,
        parallel: bool = True,
        counter: OpCounter | None = None,
        verify: bool = False,
        deadline_s: float | None = None,
    ):
        if threads < 1:
            raise ValueError(f"threads must be >= 1, got {threads}")
        concurrent = parallel and threads > 1
        super().__init__(
            pool="thread" if concurrent else "serial",
            workers=threads if concurrent else 1,
            policy=policy, counter=counter, verify=verify, deadline_s=deadline_s,
        )
