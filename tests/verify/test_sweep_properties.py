"""Property sweep: every registered code yields verifiable plans.

For each kind in :mod:`repro.codes.registry` (via the sweep's default
instances) we draw seeded-random erasure patterns from one fault up to
the code's decodable tolerance and assert that *every* plan the planner
produces — under both the paper policy and AUTO — passes static
verification.  This is the ``ppm verify``-style sweep as a regression
test: any future planner change that breaks an invariant fails here
with the verifier's diagnostic.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.codes import available_codes, get_code, is_decodable
from repro.core import SequencePolicy, plan_decode
from repro.verify import DEFAULT_INSTANCES, iter_scenarios, sweep_all, sweep_code, verify_plan

SAMPLES = 24
SEED = 2015


def test_every_registry_kind_has_a_sweep_instance():
    assert set(available_codes()) <= set(DEFAULT_INSTANCES)


@pytest.mark.parametrize("kind", sorted(DEFAULT_INSTANCES))
def test_random_erasures_up_to_tolerance_verify(kind):
    code = get_code(kind, **DEFAULT_INSTANCES[kind])
    verified = 0
    for faulty in iter_scenarios(code, samples=SAMPLES, seed=SEED):
        if not is_decodable(code, faulty):
            continue
        for policy in (SequencePolicy.PAPER, SequencePolicy.AUTO):
            plan = plan_decode(code, faulty, policy=policy)
            report = verify_plan(plan, code)
            assert report.ok and not report.findings, (
                f"{kind} faulty={list(faulty)} policy={policy.value}\n"
                + report.format()
            )
        verified += 1
    assert verified > 0, f"{kind}: every draw was undecodable — sweep is vacuous"


def test_scenarios_cover_the_full_fault_range():
    code = get_code("sd", **DEFAULT_INSTANCES["sd"])
    sizes = {len(f) for f in iter_scenarios(code, samples=40, seed=0)}
    assert min(sizes) == 1
    assert max(sizes) == code.H.rows  # up to the parity-constraint ceiling


def test_scenarios_are_deterministic_per_seed():
    code = get_code("rs", **DEFAULT_INSTANCES["rs"])
    a = list(iter_scenarios(code, samples=10, seed=7))
    b = list(iter_scenarios(code, samples=10, seed=7))
    assert a == b
    c = list(iter_scenarios(code, samples=10, seed=8))
    assert a != c


def test_sweep_code_counts_and_passes():
    code = get_code("sd", **DEFAULT_INSTANCES["sd"])
    result = sweep_code(code, samples=12, seed=SEED)
    assert result.ok, result.report.format()
    assert result.scenarios + result.skipped_undecodable == 12
    assert result.programs > 0
    assert "OK" in result.summary()


def test_sweep_all_is_clean_on_shipped_codebase():
    results = sweep_all(samples=6, seed=SEED)
    assert len(results) == len(available_codes())
    for result in results:
        assert result.ok, result.summary() + "\n" + result.report.format()


def test_worst_case_disk_failures_verify():
    """Whole-disk failures (the rebuild workload) at full tolerance."""
    for kind in sorted(DEFAULT_INSTANCES):
        code = get_code(kind, **DEFAULT_INSTANCES[kind])
        rng = np.random.default_rng(1)
        tolerable = max(1, len(code.parity_block_ids) // code.r // 2)
        disks = rng.choice(code.n, size=min(tolerable, code.n), replace=False)
        faulty = sorted(
            code.block_id(row, int(d)) for d in disks for row in range(code.r)
        )
        if not is_decodable(code, faulty):
            continue
        plan = plan_decode(code, faulty, policy=SequencePolicy.PAPER)
        report = verify_plan(plan, code)
        assert report.ok and not report.findings, f"{kind}: " + report.format()


def test_sweep_certifies_encode_programs():
    code = get_code("rs", n=6, k=4)
    result = sweep_code(code, samples=4)
    assert result.ok, result.summary()
    assert result.encode_programs == 2  # one per swept policy


def test_strict_sweep_certifies_backends_numerically():
    code = get_code("rs", n=6, k=4)
    result = sweep_code(code, samples=4, check_backends=True)
    assert result.ok, result.summary()
    # bitsliced supports every w=8 program: decode scenarios + encode
    assert result.backend_checks >= result.programs + result.encode_programs


def test_strict_sweep_flags_a_divergent_backend():
    from repro.kernels import register_backend, unregister_backend
    from repro.kernels.backends import ExecutorBackend

    class Corrupting(ExecutorBackend):
        """Executes as the baseline, then flips a bit in slot 0."""

        name = "corrupting"

        def supports(self, field, program):
            return field.w == 8

        def bind(self, field, program):
            from repro.kernels import get_backend

            return (get_backend("numpy").bind(field, program), program.outputs)

        def execute_chunk(self, bound, pool, n, scratch):
            from repro.kernels import get_backend

            inner, outputs = bound
            get_backend("numpy").execute_chunk(inner, pool, n, scratch)
            pool[outputs[0]][0] ^= 1

    register_backend(Corrupting())
    try:
        code = get_code("rs", n=6, k=4)
        result = sweep_code(code, samples=2, check_backends=True)
    finally:
        unregister_backend("corrupting")
    assert not result.ok
    assert any(
        f.check == "sweep/backend-divergence" and "corrupting" in f.message
        for f in result.report.findings
    )


def test_strict_sweep_flags_a_crashing_backend():
    from repro.kernels import register_backend, unregister_backend
    from repro.kernels.backends import ExecutorBackend

    class Crashing(ExecutorBackend):
        """Binds fine, raises on every chunk."""

        name = "crashing"

        def supports(self, field, program):
            return field.w == 8

        def bind(self, field, program):
            return tuple(program.instructions)

        def execute_chunk(self, bound, pool, n, scratch):
            raise RuntimeError("synthetic backend crash")

    register_backend(Crashing())
    try:
        code = get_code("rs", n=6, k=4)
        result = sweep_code(code, samples=2, check_backends=True)
    finally:
        unregister_backend("crashing")
    assert not result.ok
    assert any(
        f.check == "sweep/backend-crash" and "crashing" in f.message
        for f in result.report.findings
    )
