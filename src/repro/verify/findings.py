"""Finding/report vocabulary shared by all static analyzers.

Every analyzer (plan, program and dataflow verifiers, scenario sweep) emits
:class:`Finding` records into a :class:`VerificationReport` instead of
raising on the first problem, so a single pass surfaces *every* violated
invariant with a distinct, actionable diagnostic.  Callers that want
fail-fast semantics raise :class:`PlanVerificationError` (or another
:class:`VerificationFailure`) from a non-empty report.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum


class Severity(Enum):
    """How bad a finding is.

    ``ERROR`` findings mean the artifact would compute wrong bytes (or
    report wrong costs); ``WARNING`` findings are inefficiencies that do
    not affect correctness (e.g. a dead store in a compiled program).
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Finding:
    """One violated invariant.

    Attributes
    ----------
    check:
        Stable machine-readable id, e.g. ``"plan/group-rank"``; mutation
        tests key on these.
    severity:
        :class:`Severity` of the violation.
    message:
        Human-readable diagnostic naming the offending ids/values.
    context:
        Where the problem lives, e.g. ``"group[2]"`` or ``"op[17]"``.
    """

    check: str
    severity: Severity
    message: str
    context: str = ""

    def format(self) -> str:
        where = f" [{self.context}]" if self.context else ""
        return f"{self.severity}: {self.check}{where}: {self.message}"


@dataclass
class VerificationReport:
    """The outcome of one analyzer run over one artifact."""

    subject: str
    findings: list[Finding] = field(default_factory=list)

    def add(
        self,
        check: str,
        message: str,
        context: str = "",
        severity: Severity = Severity.ERROR,
    ) -> None:
        self.findings.append(Finding(check, severity, message, context))

    @property
    def errors(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.ERROR)

    @property
    def warnings(self) -> tuple[Finding, ...]:
        return tuple(f for f in self.findings if f.severity is Severity.WARNING)

    @property
    def ok(self) -> bool:
        """True iff no ERROR-severity findings (warnings allowed)."""
        return not self.errors

    def has(self, check: str) -> bool:
        """True iff some finding carries the given check id."""
        return any(f.check == check for f in self.findings)

    def merge(self, other: VerificationReport) -> None:
        """Absorb another report's findings (context prefixed by subject)."""
        for f in other.findings:
            context = f"{other.subject}:{f.context}" if f.context else other.subject
            self.findings.append(Finding(f.check, f.severity, f.message, context))

    def format(self) -> str:
        lines = [f"verification of {self.subject}: ", ""]
        if not self.findings:
            lines[0] += "OK"
            return lines[0]
        lines[0] += f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        lines[1:] = [f"  {f.format()}" for f in self.findings]
        return "\n".join(lines)


class VerificationFailure(ValueError):
    """Base for fail-fast wrappers around a non-empty report."""

    def __init__(self, report: VerificationReport):
        self.report = report
        super().__init__(report.format())


class PlanVerificationError(VerificationFailure):
    """A :class:`~repro.core.planner.DecodePlan` violates a static invariant."""


class ProgramVerificationError(VerificationFailure):
    """A compiled :class:`~repro.kernels.RegionProgram` does not match its plan."""


class DataflowVerificationError(VerificationFailure):
    """A :class:`~repro.kernels.RegionProgram` violates a dataflow invariant."""
