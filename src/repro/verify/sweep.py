"""Scenario sweeps: verify plans and programs across codes and failures.

``ppm verify`` calls into this module: for every registered code (or one
chosen instance) it draws random erasure patterns up to the code's
decodable tolerance, builds the decode plan for each, and runs the
static plan verifier on it; it then lowers each verified plan to a
compiled :class:`~repro.kernels.RegionProgram` and certifies the
program's GF(2^w) transfer matrix against the parity-check matrix and
its model op counts against the plan (:mod:`repro.verify.program`); every scenario's plan is also pruned to
each single erased block and to one random multi-block subset (the
plans a targeted degraded read runs) and those go through the same
checks.  Everything but the opt-in backend byte comparison is symbolic —
no stripe data is ever allocated — so a full sweep is fast enough for
CI.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

import numpy as np

from ..codes import available_codes, get_code, is_decodable
from ..codes.base import ErasureCode
from ..core.planner import plan_decode
from ..core.sequences import SequencePolicy
from ..kernels import BASELINE_BACKEND, available_backends, get_backend, lower_plan
from ..kernels.executor import ProgramExecutor
from ..matrix import SingularMatrixError
from .dataflow import analyze_program
from .findings import VerificationReport
from .plan import verify_plan
from .program import verify_plan_program

#: Small, representative default instance per registry kind, used when a
#: sweep is asked to cover "every registered code" without parameters.
DEFAULT_INSTANCES: dict[str, dict[str, int]] = {
    "sd": {"n": 6, "r": 4, "m": 2, "s": 2},
    "pmds": {"n": 6, "r": 4, "m": 2, "s": 2},
    "lrc": {"k": 8, "l": 2, "g": 2},
    "rs": {"n": 8, "k": 6},
    "evenodd": {"p": 5},
    "rdp": {"p": 5},
    "star": {"p": 5},
}


@dataclass
class SweepResult:
    """Aggregate outcome of one code's scenario sweep."""

    code: str
    scenarios: int = 0
    skipped_undecodable: int = 0
    programs: int = 0
    pruned_plans: int = 0
    encode_programs: int = 0
    backend_checks: int = 0
    report: VerificationReport = field(
        default_factory=lambda: VerificationReport(subject="sweep")
    )

    @property
    def ok(self) -> bool:
        return self.report.ok

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.report.errors)} error(s)"
        extras = ""
        if self.encode_programs:
            extras += f", {self.encode_programs} encode program(s)"
        if self.backend_checks:
            extras += f", {self.backend_checks} backend check(s)"
        return (
            f"{self.code}: {self.scenarios} scenario(s) verified, "
            f"{self.pruned_plans} pruned plan(s), "
            f"{self.programs} compiled program(s){extras}, "
            f"{self.skipped_undecodable} undecodable draw(s) skipped -> {status}"
        )


def iter_scenarios(
    code: ErasureCode,
    samples: int,
    seed: int,
    max_faults: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """Yield decodable random erasure patterns, 1 fault up to tolerance.

    Fault-count tolerance defaults to the number of parity constraints
    (``H.rows``) — the information-theoretic ceiling; draws whose ``F``
    is rank-deficient are not decodable by *any* planner and are skipped
    by the caller via :func:`~repro.codes.is_decodable`.
    """
    rng = np.random.default_rng(seed)
    h = code.H
    ceiling = h.rows if max_faults is None else min(max_faults, h.rows)
    num_blocks = code.num_blocks
    # deterministic ramp: cycle fault counts 1..ceiling across the samples
    for draw in range(samples):
        t = 1 + draw % ceiling
        picks = rng.choice(num_blocks, size=t, replace=False)
        yield tuple(sorted(int(b) for b in picks))


#: Region length for the numeric backend-equivalence certification:
#: odd, so the paired-gather backends exercise their scalar tail paths.
_BACKEND_CHECK_SYMBOLS = 1021


def _certify_backends(
    field,
    program,
    report: VerificationReport,
    subject: str,
    seed: int,
) -> int:
    """Byte-compare every registered backend against the baseline.

    Runs the compiled program over deterministic pseudo-random regions
    once per registered, supporting backend and demands bit-identical
    outputs.  Returns the number of backend executions performed; any
    divergence (or backend crash) is recorded as an error finding.
    """
    rng = np.random.default_rng(seed)
    inputs = [
        rng.integers(0, 1 << field.w, size=_BACKEND_CHECK_SYMBOLS, dtype=field.dtype)
        for _ in range(program.num_inputs)
    ]
    expected = ProgramExecutor(field, backend=BASELINE_BACKEND).execute(
        program, inputs
    )
    checked = 0
    for name in available_backends():
        if name == BASELINE_BACKEND:
            continue
        if not get_backend(name).supports(field, program):
            continue
        try:
            got = ProgramExecutor(field, backend=name).execute(program, inputs)
        except Exception as exc:  # a crash is a certification failure too
            report.add(
                "sweep/backend-crash",
                f"backend {name!r} raised while executing a certified "
                f"program: {exc}",
                subject,
            )
            continue
        checked += 1
        if not all(np.array_equal(g, e) for g, e in zip(got, expected)):
            report.add(
                "sweep/backend-divergence",
                f"backend {name!r} output differs from the {BASELINE_BACKEND!r} "
                f"baseline on a certified program (w={field.w})",
                subject,
            )
    return checked


def sweep_code(
    code: ErasureCode,
    samples: int = 50,
    seed: int = 2015,
    policies: Sequence[SequencePolicy] = (SequencePolicy.PAPER, SequencePolicy.AUTO),
    check_programs: bool = True,
    check_backends: bool = False,
    max_faults: int | None = None,
) -> SweepResult:
    """Plan + statically verify random failure scenarios on one code.

    With ``check_backends`` every lowered program (decode scenarios and
    the fused encode program alike) is additionally executed on every
    registered executor backend and byte-compared against the baseline —
    the numeric half of the certification the rest of the sweep does
    symbolically.
    """
    result = SweepResult(code=code.describe())
    result.report.subject = f"sweep of {code.kind}"
    # its own stream, so the scenarios drawn do not depend on the targets
    target_rng = np.random.default_rng([seed, 0x7A26E7])

    def certify(plan, label: str) -> bool:
        """Plan verifier, then the compiled program against the plan;
        True when a program was compiled and certified."""
        sub = verify_plan(plan, code)
        if sub.findings:
            sub.subject = label
            result.report.merge(sub)
        if not (check_programs and sub.ok):
            return False
        # lower the verified plan and certify the compiled program
        compiled = lower_plan(code.field, plan)
        sub = verify_plan_program(compiled, code, plan)
        if sub.findings:
            sub.subject = f"program {label}"
            result.report.merge(sub)
        # strict static dataflow: liveness audits (dead stores,
        # unreachable slots, pool slack) on top of the structural
        # check lower_plan already ran
        sub = analyze_program(compiled.program, strict=True)
        if sub.findings:
            sub.subject = f"dataflow {label}"
            result.report.merge(sub)
        if check_backends:
            result.backend_checks += _certify_backends(
                code.field, compiled.program, result.report, label, seed
            )
        return True

    for faulty in iter_scenarios(code, samples, seed, max_faults):
        if not is_decodable(code, faulty):
            result.skipped_undecodable += 1
            continue
        # what a targeted read of this scenario asks for: each erased
        # block alone, and one random strict multi-block subset
        target_sets = [(b,) for b in faulty] if len(faulty) > 1 else []
        if len(faulty) > 2:
            size = int(target_rng.integers(2, len(faulty)))
            picks = target_rng.choice(len(faulty), size=size, replace=False)
            target_sets.append(tuple(sorted(faulty[int(i)] for i in picks)))
        for policy in policies:
            try:
                plan = plan_decode(code, faulty, policy=policy)
            except SingularMatrixError as exc:
                result.report.add(
                    "sweep/planner-rejected-decodable",
                    f"scenario {list(faulty)} is decodable (F full rank) "
                    f"but the planner raised: {exc}",
                    f"faulty={list(faulty)}",
                )
                continue
            label = f"faulty={list(faulty)} policy={policy.value}"
            result.programs += certify(plan, label)
            for targets in target_sets:
                pruned_label = f"targets={list(targets)} {label}"
                result.programs += certify(plan.for_targets(targets), pruned_label)
                result.pruned_plans += 1
        result.scenarios += 1
    if check_programs:
        # encoding is decoding every parity position (paper, footnote
        # 1): its plan gets the same certification a decode plan gets
        for policy in policies:
            plan = plan_decode(code, code.parity_block_ids, policy=policy)
            result.encode_programs += certify(plan, f"encode policy={policy.value}")
    return result


def sweep_all(
    samples: int = 50,
    seed: int = 2015,
    check_programs: bool = True,
    check_backends: bool = False,
    instances: Mapping[str, dict[str, int]] | None = None,
) -> list[SweepResult]:
    """Run :func:`sweep_code` over every registered code kind."""
    chosen = DEFAULT_INSTANCES if instances is None else instances
    results: list[SweepResult] = []
    for kind in available_codes():
        params = chosen.get(kind)
        if params is None:
            continue  # custom-registered kind without a default instance
        code = get_code(kind, **params)
        results.append(
            sweep_code(
                code,
                samples=samples,
                seed=seed,
                check_programs=check_programs,
                check_backends=check_backends,
            )
        )
    return results
