"""Static verification of decode plans, compiled programs and repo style.

The analyzers, all purely symbolic (no block data touched):

- :func:`verify_plan` / :func:`assert_plan_valid` — certify a
  :class:`~repro.core.planner.DecodePlan` against the parity-check
  matrix: partition soundness, GF-rank independence, phase ordering,
  C1..C4 cost recomputation, and one certificate that every recovered
  block's relation lies in the row space of ``H``.
- :func:`verify_plan_program` / :func:`assert_program_valid` —
  symbolically execute a compiled :class:`~repro.kernels.RegionProgram`
  over GF(2^w) coefficient vectors and hold its transfer matrix against
  ``H`` with the same certificate (plus I/O wiring and model op counts).
- :func:`analyze_program` / :func:`assert_dataflow_valid` — static
  dataflow over a compiled :class:`~repro.kernels.RegionProgram`
  (definite-assignment, aliasing, table bindings; strict mode adds
  liveness: dead stores, unreachable slots, pool slack) — the cheap
  pass gates ``lower_plan`` and every ``ProgramCache`` admission.
- :func:`run_lint` — per-file AST lint
  enforcing repo invariants PPM001-PPM009 and PPM014 (:mod:`repro.verify.lint`).
- :func:`analyze_races` — whole-program concurrency analysis
  PPM010-PPM013 (:mod:`repro.verify.races`): shared-mutable-state map
  plus execution-context propagation (event loop vs worker threads).

:func:`sweep_code` / :func:`sweep_all` drive the verifiers across the
code registry under random failure scenarios; :func:`run_check` (the
``ppm check`` CLI subcommand) aggregates every analyzer into one gate
with stable exit codes.  ``# ppm: noqa[PPMxxx]`` suppresses a lint or
race finding inline.  See ``docs/VERIFICATION.md``.
"""

from __future__ import annotations

from .check import CheckReport, run_check
from .dataflow import analyze_program, assert_dataflow_valid
from .findings import (
    DataflowVerificationError,
    Finding,
    PlanVerificationError,
    ProgramVerificationError,
    Severity,
    VerificationFailure,
    VerificationReport,
)
from .lint import RULES, LintFinding, LintRule, register_rule, run_lint
from .plan import assert_plan_valid, verify_plan
from .races import RACE_RULES, analyze_races
from .program import (
    assert_program_valid,
    transfer_matrix,
    verify_plan_program,
)
from .sweep import DEFAULT_INSTANCES, SweepResult, iter_scenarios, sweep_all, sweep_code

__all__ = [
    "Finding",
    "Severity",
    "VerificationReport",
    "VerificationFailure",
    "PlanVerificationError",
    "ProgramVerificationError",
    "DataflowVerificationError",
    "analyze_program",
    "assert_dataflow_valid",
    "verify_plan",
    "assert_plan_valid",
    "verify_plan_program",
    "assert_program_valid",
    "transfer_matrix",
    "LintRule",
    "LintFinding",
    "RULES",
    "RACE_RULES",
    "register_rule",
    "run_lint",
    "analyze_races",
    "CheckReport",
    "run_check",
    "DEFAULT_INSTANCES",
    "SweepResult",
    "iter_scenarios",
    "sweep_code",
    "sweep_all",
]
