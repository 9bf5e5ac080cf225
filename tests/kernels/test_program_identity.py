"""Pin the exact programs the compiler emits.

One digest over every program a sample of real decodes lowers: the
whole-plan program of each plan and the chain program of each of its
independent stages (the unit a worker executes).  A refactor of the
lowering, the optimiser or the cache must leave this digest unchanged;
a deliberate change to the emitted code must re-pin it and say why.
"""

import hashlib

from repro.codes import SDCode
from repro.core import SequencePolicy
from repro.core.planner import plan_decode
from repro.kernels import ProgramCache
from repro.stripes.failures import worst_case_sd

#: sha256 over 32 seeded SD(10,8,2,2) worst-case (z=1) patterns x four
#: policies x {whole pattern, first faulty block}.  Re-pinned when pair
#: sharing was deleted: every nonzero coefficient is now one instruction,
#: terms in column order.
PINNED_DIGEST = "f599b8b39b13748469d09c090c7ceee6d25c2cad5eda63cc2d5d6a40c21badef"

POLICIES = (
    SequencePolicy.PAPER,
    SequencePolicy.AUTO,
    SequencePolicy.NORMAL,
    SequencePolicy.MATRIX_FIRST,
)


def _fingerprint(program) -> bytes:
    """Every field that decides what executes; ``label`` is excluded."""
    return repr(
        (
            program.w,
            program.num_inputs,
            program.pool_size,
            program.instructions,
            program.outputs,
            program.mult_xors,
            program.xor_only,
        )
    ).encode()


def program_digest() -> str:
    code = SDCode(10, 8, 2, 2)
    field = code.field
    cache = ProgramCache()
    digest = hashlib.sha256()
    for seed in range(32):
        faulty = worst_case_sd(code, z=1, rng=seed).faulty_blocks
        for policy in POLICIES:
            whole = plan_decode(code, faulty, policy=policy)
            for plan in (whole, whole.for_targets(whole.faulty_ids[:1])):
                digest.update(_fingerprint(cache.plan_program(field, plan).program))
                for stage in plan.stages:
                    if not stage.independent:
                        continue
                    chain = cache.chain_program(field, stage.arrays)
                    digest.update(_fingerprint(chain))
                    if len(stage.arrays) == 1:
                        # a single matrix is a chain of one
                        single = cache.matrix_program(field, stage.arrays[0])
                        assert _fingerprint(single) == _fingerprint(chain)
    return digest.hexdigest()


def test_lowered_programs_match_pinned_digest():
    assert program_digest() == PINNED_DIGEST
