"""``ppm check``: the one static-analysis gate for this repository.

Aggregates every static analyzer the repo has grown into a single
front-end with one report and stable exit codes:

- **lint** — the per-file AST rules PPM001-PPM009, PPM014
  (:mod:`repro.verify.lint`), sharing one parse per file;
- **races** — the whole-program concurrency analysis PPM010-PPM013
  (:mod:`repro.verify.races`), run over the *same* parsed modules.

The scenario sweeps (plan, program and backend certification) are
``ppm verify --all --strict``, not part of this gate.

Exit codes (stable, scripted against by CI):

- ``0`` — clean: no unsuppressed findings;
- ``1`` — findings reported (lint or races);
- ``2`` — the checker itself failed (bad paths, internal error).

Both output formats render the same :class:`CheckReport`: ``--json``
emits one machine-readable object; the default human format groups
findings per analyzer.  ``# ppm: noqa[PPMxxx]`` inline suppression is
honoured for lint and race findings (suppression counts are reported so
a silently-suppressed repo is still visible in review).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Sequence

from .lint import (
    RULES,
    LintFinding,
    ParsedModule,
    filter_noqa,
    parse_modules,
    run_lint,
)
from .races import RACE_RULES, analyze_races

#: Exit statuses (see module docstring).  Kept as named constants so
#: tests and CI scripts never hard-code magic numbers.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_ERROR = 2


@dataclass
class CheckReport:
    """Everything one ``ppm check`` run found, in one place."""

    paths: list[str]
    lint: list[LintFinding] = field(default_factory=list)
    races: list[LintFinding] = field(default_factory=list)
    suppressed: int = 0
    files: int = 0
    seconds: float = 0.0

    @property
    def findings(self) -> int:
        return len(self.lint) + len(self.races)

    @property
    def ok(self) -> bool:
        return self.findings == 0

    @property
    def exit_code(self) -> int:
        return EXIT_CLEAN if self.ok else EXIT_FINDINGS

    def to_dict(self) -> dict:
        def fd(f: LintFinding) -> dict:
            return {
                "path": f.path,
                "line": f.line,
                "col": f.col,
                "code": f.code,
                "rule": f.rule,
                "message": f.message,
            }

        return {
            "paths": self.paths,
            "ok": self.ok,
            "exit_code": self.exit_code,
            "files": self.files,
            "suppressed": self.suppressed,
            "lint": [fd(f) for f in self.lint],
            "races": [fd(f) for f in self.races],
            "seconds": round(self.seconds, 3),
        }

    def format_human(self) -> str:
        lines: list[str] = []
        for title, findings in (("lint", self.lint), ("races", self.races)):
            if findings:
                lines.append(f"{title}: {len(findings)} finding(s)")
                lines.extend(f"  {f.format()}" for f in findings)
        verdict = "clean" if self.ok else f"{self.findings} finding(s)"
        suppressed = f", {self.suppressed} suppressed" if self.suppressed else ""
        lines.append(
            f"ppm check: {verdict} across {self.files} file(s)"
            f"{suppressed} in {self.seconds:.1f}s"
        )
        return "\n".join(lines)


def run_check(
    paths: Sequence[str],
    *,
    modules: Sequence[ParsedModule] | None = None,
) -> CheckReport:
    """Run every analyzer over ``paths`` and aggregate one report.

    The gate is purely syntactic and fast enough for a pre-commit hook.
    ``modules`` lets tests inject already-parsed sources.
    """
    t0 = time.perf_counter()
    report = CheckReport(paths=list(paths))
    if modules is None:
        modules = parse_modules(paths)
    report.files = len(modules)
    noqa_by_path = {str(m.path): m.noqa for m in modules if m.noqa}

    report.lint = run_lint(paths, modules=modules)
    race_findings = analyze_races(modules)
    report.races, suppressed_races = filter_noqa(race_findings, noqa_by_path)
    # run_lint already filtered; recompute its suppression count so the
    # report shows everything hidden by noqa markers
    raw_lint = run_lint(paths, modules=modules, respect_noqa=False)
    report.suppressed = (len(raw_lint) - len(report.lint)) + suppressed_races
    report.seconds = time.perf_counter() - t0
    return report


def list_rules() -> str:
    """The combined rule catalogue (per-file lint + whole-program races)."""
    lines = [
        f"{code} {rule.name}: {rule.explanation}"
        for code, rule in sorted(RULES.items())
    ]
    lines.extend(
        f"{code} {name}: {text} [whole-program]"
        for code, (name, text) in sorted(RACE_RULES.items())
    )
    return "\n".join(lines)


def main(argv: Sequence[str] | None = None) -> int:
    """The ``ppm check`` command (``repro.cli`` hands it every argument)."""
    parser = argparse.ArgumentParser(
        prog="ppm check", description="repo static-analysis gate"
    )
    parser.add_argument("paths", nargs="*", default=["src"], help="files or directories")
    parser.add_argument("--json", action="store_true", help="machine-readable report")
    parser.add_argument("--list-rules", action="store_true", help="print the catalogue")
    args = parser.parse_args(argv)
    if args.list_rules:
        print(list_rules())
        return EXIT_CLEAN
    try:
        report = run_check(args.paths or ["src"])
    except FileNotFoundError as exc:
        print(f"ppm check: {exc}", file=sys.stderr)
        return EXIT_ERROR
    if args.json:
        print(json.dumps(report.to_dict(), indent=2))
    else:
        print(report.format_human())
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
