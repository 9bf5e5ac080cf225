"""Repo-specific AST lint: invariants generic linters cannot express.

The rules encode conventions this codebase's correctness and
performance story depend on:

- **PPM001** every module opts into ``from __future__ import
  annotations`` (uniform typing semantics across Python versions);
- **PPM002** plan-shaped dataclasses are frozen — decode plans, XOR
  schedules and partitions are shared across threads and cached by
  identity, so mutation would corrupt concurrent decodes;
- **PPM003** no Python-level per-element XOR loops in the ``gf``/``core``
  hot paths — bulk data must flow through the vectorised
  :class:`~repro.gf.region.RegionOps` primitives;
- **PPM004** NumPy array constructors in GF code (``gf``/``matrix``)
  must pass an explicit ``dtype=`` — an implicit ``np.int64`` silently
  breaks the uint8/uint16 table gathers;
- **PPM005** ``np.bitwise_xor`` on regions is reserved to ``gf``/
  ``matrix`` — elsewhere it would bypass the ``mult_XORs`` op counter
  and falsify every cost measurement;
- **PPM007** no direct ``ThreadPoolExecutor``/``ProcessPoolExecutor``
  construction outside :mod:`repro.pipeline` — every executor must come
  from the :mod:`repro.pipeline.pool` wrappers so spawn cost is
  accounted and pools can be kept alive across stripes;
- **PPM008** no per-coefficient ``mult_xors`` loops in decoder modules
  (``core``/``pipeline``) — interpreted loops over matrix entries belong
  to :mod:`repro.gf` and :mod:`repro.kernels`; decoders must run a
  ``ProgramCache`` program (``chain_program``/``plan_program``) on a
  ``ProgramExecutor`` so the compiled backend can take over;
- **PPM009** no blocking calls inside :mod:`repro.service` or
  :mod:`repro.repair` — ``time.sleep``, builtin ``open``, raw sockets
  or subprocesses on the event loop stall *every* in-flight request
  (and the scrub/repair loop runs on that same loop); sleep with
  ``await asyncio.sleep`` and push CPU/IO work off-loop
  (``asyncio.to_thread`` / the pipeline's worker pool);
- **PPM014** no ``ExecutionMode.<member>`` reference outside
  ``core/sequences.py``, ``core/planner.py`` and :mod:`repro.verify` —
  "which matrices does this mode run" is answered once, by
  ``DecodePlan.stages``; everything else walks the stages (the verifiers
  keep their own independent walk: they are the referee).
  (PPM010-PPM013 are the whole-program race rules in
  :mod:`repro.verify.races`.)

Each rule is a :class:`LintRule` subclass registered in :data:`RULES`;
``docs/VERIFICATION.md`` documents how to add one.  The command-line
front-end is ``ppm check`` (:mod:`repro.verify.check`, also wired into
CI), which runs these rules beside the race analysis.
"""

from __future__ import annotations

import ast
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

#: Class-name suffixes that mark a dataclass as "plan-shaped" pure data.
PLAN_SUFFIXES = (
    "Plan",
    "Schedule",
    "Costs",
    "Partition",
    "Group",
    "Split",
    "Scenario",
    "Finding",
    "Entry",
)

#: Packages whose modules are bulk-data hot paths (PPM003 scope).
HOT_PACKAGES = ("gf", "core", "kernels")

#: Packages holding GF coefficient code (PPM004/PPM005 scope).
GF_PACKAGES = ("gf", "matrix", "kernels")

#: Decoder-layer packages that must not hand-roll mult_XORs loops (PPM008).
DECODER_PACKAGES = ("core", "pipeline")

#: Async-serving packages where blocking calls stall the event loop (PPM009).
ASYNC_PACKAGES = ("service", "repair", "cluster")

#: NumPy constructors that default to ``np.int64`` without ``dtype=``.
_NP_CONSTRUCTORS = frozenset(
    {"array", "zeros", "ones", "empty", "full", "arange"}
)


@dataclass(frozen=True)
class LintFinding:
    """One rule violation at a source location."""

    path: str
    line: int
    col: int
    code: str
    rule: str
    message: str

    def format(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.code} [{self.rule}] {self.message}"


#: ``# ppm: noqa`` (suppress everything on the line) or
#: ``# ppm: noqa[PPM010]`` / ``# ppm: noqa[PPM010,PPM012]``.
_NOQA_RE = re.compile(r"#\s*ppm:\s*noqa(?:\[([A-Z0-9, ]+)\])?", re.IGNORECASE)


def noqa_lines(source: str) -> dict[int, frozenset[str] | None]:
    """Per-line suppression map: line -> codes suppressed there.

    ``None`` means a bare ``# ppm: noqa`` — every code is suppressed on
    that line.  Lines without a marker are absent.
    """
    out: dict[int, frozenset[str] | None] = {}
    for lineno, text in enumerate(source.splitlines(), start=1):
        match = _NOQA_RE.search(text)
        if match is None:
            continue
        codes = match.group(1)
        if codes is None:
            out[lineno] = None
        else:
            out[lineno] = frozenset(
                c.strip().upper() for c in codes.split(",") if c.strip()
            )
    return out


def filter_noqa(
    findings: Iterable[LintFinding],
    noqa_by_path: dict[str, dict[int, frozenset[str] | None]],
) -> tuple[list[LintFinding], int]:
    """Drop findings whose source line carries a matching noqa marker.

    Returns ``(kept, suppressed_count)``.
    """
    kept: list[LintFinding] = []
    suppressed = 0
    for f in findings:
        codes = noqa_by_path.get(f.path, {}).get(f.line, "absent")
        if codes == "absent" or (codes is not None and f.code not in codes):
            kept.append(f)
        else:
            suppressed += 1
    return kept, suppressed


@dataclass
class ParsedModule:
    """One source file parsed exactly once and shared by every analyzer.

    ``tree`` is None when the file does not parse; ``syntax_finding``
    then carries the PPM999 diagnostic.
    """

    path: Path
    source: str
    tree: ast.Module | None
    noqa: dict[int, frozenset[str] | None] = field(default_factory=dict)
    syntax_finding: LintFinding | None = None


def parse_module(path: Path, source: str | None = None) -> ParsedModule:
    if source is None:
        source = path.read_text()
    try:
        tree = ast.parse(source, filename=str(path))
        bad = None
    except SyntaxError as exc:
        tree = None
        bad = LintFinding(
            path=str(path),
            line=exc.lineno or 1,
            col=(exc.offset or 0) + 1,
            code="PPM999",
            rule="syntax-error",
            message=f"cannot parse module: {exc.msg}",
        )
    return ParsedModule(
        path=path,
        source=source,
        tree=tree,
        noqa=noqa_lines(source),
        syntax_finding=bad,
    )


def parse_modules(paths: Sequence[str]) -> list[ParsedModule]:
    """Parse every ``*.py`` under ``paths`` once, in sorted path order."""
    return [parse_module(p) for p in iter_python_files(paths)]


class LintRule:
    """Base class: subclass, set ``code``/``name``/``explanation``,
    implement :meth:`check`, and register with :func:`register_rule`."""

    code: str = "PPM000"
    name: str = "abstract"
    explanation: str = ""

    def applies_to(self, relpath: Path) -> bool:
        """Whether the rule runs on this module (default: every module)."""
        return True

    def check(self, tree: ast.Module, relpath: Path) -> Iterator[LintFinding]:
        raise NotImplementedError

    def finding(self, relpath: Path, node: ast.AST, message: str) -> LintFinding:
        return LintFinding(
            path=str(relpath),
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            rule=self.name,
            message=message,
        )


RULES: dict[str, LintRule] = {}


def register_rule(cls: type[LintRule]) -> type[LintRule]:
    """Class decorator adding a rule to the registry (keyed by code)."""
    rule = cls()
    if rule.code in RULES:
        raise ValueError(f"duplicate lint rule code {rule.code}")
    RULES[rule.code] = rule
    return cls


def _in_packages(relpath: Path, packages: tuple[str, ...]) -> bool:
    return any(part in packages for part in relpath.parts[:-1])


def _is_numpy_call(node: ast.Call, names: frozenset[str]) -> str | None:
    """Return the attribute name for ``np.<name>(...)`` calls, else None."""
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id in ("np", "numpy")
        and func.attr in names
    ):
        return func.attr
    return None


@register_rule
class FutureAnnotationsRule(LintRule):
    code = "PPM001"
    name = "future-annotations"
    explanation = "every module must `from __future__ import annotations`"

    def check(self, tree: ast.Module, relpath: Path) -> Iterator[LintFinding]:
        if not tree.body:
            return
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                if any(alias.name == "annotations" for alias in stmt.names):
                    return
        yield self.finding(
            relpath,
            tree.body[0],
            "module is missing `from __future__ import annotations`",
        )


@register_rule
class FrozenPlanDataclassRule(LintRule):
    code = "PPM002"
    name = "frozen-plan-dataclass"
    explanation = (
        "dataclasses named *Plan/*Schedule/*Costs/... are shared pure "
        "data and must be @dataclass(frozen=True)"
    )

    @staticmethod
    def _dataclass_decorator(cls: ast.ClassDef) -> ast.expr | None:
        for dec in cls.decorator_list:
            target = dec.func if isinstance(dec, ast.Call) else dec
            if isinstance(target, ast.Name) and target.id == "dataclass":
                return dec
            if isinstance(target, ast.Attribute) and target.attr == "dataclass":
                return dec
        return None

    def check(self, tree: ast.Module, relpath: Path) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ClassDef):
                continue
            if not node.name.endswith(PLAN_SUFFIXES):
                continue
            dec = self._dataclass_decorator(node)
            if dec is None:
                continue  # plain classes manage their own invariants
            frozen = isinstance(dec, ast.Call) and any(
                kw.arg == "frozen"
                and isinstance(kw.value, ast.Constant)
                and kw.value.value is True
                for kw in dec.keywords
            )
            if not frozen:
                yield self.finding(
                    relpath,
                    node,
                    f"dataclass {node.name} looks plan-shaped "
                    f"(suffix match on {PLAN_SUFFIXES}) and must be "
                    "declared @dataclass(frozen=True)",
                )


@register_rule
class NoPythonXorLoopRule(LintRule):
    code = "PPM003"
    name = "no-python-xor-loop"
    explanation = (
        "per-element `a[i] ^ b[i]` loops in gf/ or core/ hot paths must "
        "use RegionOps / vectorised numpy instead"
    )

    def applies_to(self, relpath: Path) -> bool:
        return _in_packages(relpath, HOT_PACKAGES)

    @staticmethod
    def _elementwise_xor(node: ast.AST) -> bool:
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitXor):
            return isinstance(node.left, ast.Subscript) and isinstance(
                node.right, ast.Subscript
            )
        if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.BitXor):
            return isinstance(node.target, ast.Subscript) and isinstance(
                node.value, ast.Subscript
            )
        return False

    def check(self, tree: ast.Module, relpath: Path) -> Iterator[LintFinding]:
        for loop in ast.walk(tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if self._elementwise_xor(node):
                    yield self.finding(
                        relpath,
                        node,
                        "Python-level per-element XOR inside a loop; hot "
                        "paths must use RegionOps.mult_xors / "
                        "np.bitwise_xor over whole regions",
                    )


@register_rule
class ExplicitDtypeRule(LintRule):
    code = "PPM004"
    name = "explicit-dtype"
    explanation = (
        "np.array/zeros/ones/empty/full/arange in gf/ or matrix/ must "
        "pass dtype= (implicit int64 breaks GF table gathers)"
    )

    def applies_to(self, relpath: Path) -> bool:
        return _in_packages(relpath, GF_PACKAGES)

    def check(self, tree: ast.Module, relpath: Path) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            ctor = _is_numpy_call(node, _NP_CONSTRUCTORS)
            if ctor is None:
                continue
            if not any(kw.arg == "dtype" for kw in node.keywords):
                yield self.finding(
                    relpath,
                    node,
                    f"np.{ctor}(...) without an explicit dtype= defaults "
                    "to np.int64; GF code must pin the symbol dtype",
                )


@register_rule
class RegionXorOutsideGfRule(LintRule):
    code = "PPM005"
    name = "region-xor-outside-gf"
    explanation = (
        "np.bitwise_xor outside gf//matrix/ bypasses the mult_XORs "
        "counter and falsifies cost measurements"
    )

    def applies_to(self, relpath: Path) -> bool:
        return not _in_packages(relpath, GF_PACKAGES)

    def check(self, tree: ast.Module, relpath: Path) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _is_numpy_call(
                node, frozenset({"bitwise_xor"})
            ):
                yield self.finding(
                    relpath,
                    node,
                    "np.bitwise_xor on bulk data outside gf//matrix/; "
                    "route region XORs through RegionOps so they are "
                    "counted",
                )


@register_rule
class NoRawExecutorRule(LintRule):
    code = "PPM007"
    name = "no-raw-executor"
    explanation = (
        "ThreadPoolExecutor/ProcessPoolExecutor outside repro/pipeline/ "
        "bypasses pool reuse and spawn accounting; use "
        "repro.pipeline.pool wrappers"
    )

    _EXECUTORS = frozenset({"ThreadPoolExecutor", "ProcessPoolExecutor"})

    def applies_to(self, relpath: Path) -> bool:
        return "pipeline" not in relpath.parts[:-1]

    def check(self, tree: ast.Module, relpath: Path) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = None
            if isinstance(func, ast.Name):
                name = func.id
            elif isinstance(func, ast.Attribute):
                name = func.attr
            if name in self._EXECUTORS:
                yield self.finding(
                    relpath,
                    node,
                    f"direct {name}(...) construction; use "
                    "repro.pipeline.pool (ThreadWorkerPool / "
                    "make_pool) so spawns are "
                    "accounted and pools persist",
                )


@register_rule
class NoMultXorsLoopRule(LintRule):
    code = "PPM008"
    name = "no-mult-xors-loop"
    explanation = (
        "per-coefficient mult_xors loops in core//pipeline/ reimplement "
        "matrix application interpretively; run a ProgramCache program "
        "(chain_program / plan_program) on a ProgramExecutor so the "
        "compiled kernels apply"
    )

    def applies_to(self, relpath: Path) -> bool:
        return _in_packages(relpath, DECODER_PACKAGES)

    def check(self, tree: ast.Module, relpath: Path) -> Iterator[LintFinding]:
        for loop in ast.walk(tree):
            if not isinstance(loop, (ast.For, ast.While)):
                continue
            for node in ast.walk(loop):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "mult_xors"
                ):
                    yield self.finding(
                        relpath,
                        node,
                        "mult_xors call inside a loop in a decoder module; "
                        "express the computation as a ProgramCache "
                        "chain_program / plan_program so repro.kernels "
                        "can compile it",
                    )


@register_rule
class NoBlockingInServiceRule(LintRule):
    code = "PPM009"
    name = "no-blocking-in-service"
    explanation = (
        "time.sleep / sync I/O inside repro/service/ or repro/repair/ "
        "blocks the event loop and stalls every in-flight request; use "
        "await asyncio.sleep and offload work via asyncio.to_thread or "
        "the pipeline's worker pool"
    )

    #: ``module.attr`` calls that block the calling thread.
    _BLOCKING_ATTRS = frozenset(
        {
            ("time", "sleep"),
            ("socket", "socket"),
            ("socket", "create_connection"),
            ("os", "system"),
            ("os", "popen"),
        }
    )

    #: any ``<module>.<anything>(...)`` call on these modules blocks.
    _BLOCKING_MODULES = frozenset({"subprocess", "urllib", "requests"})

    def applies_to(self, relpath: Path) -> bool:
        return _in_packages(relpath, ASYNC_PACKAGES)

    def check(self, tree: ast.Module, relpath: Path) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                yield self.finding(
                    relpath,
                    node,
                    "builtin open(...) is synchronous file I/O on the "
                    "event loop; do file I/O outside repro/service/ or "
                    "off-loop via asyncio.to_thread",
                )
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                pair = (func.value.id, func.attr)
                if pair in self._BLOCKING_ATTRS or func.value.id in self._BLOCKING_MODULES:
                    yield self.finding(
                        relpath,
                        node,
                        f"{pair[0]}.{pair[1]}(...) blocks the event loop; "
                        "use await asyncio.sleep / asyncio streams / "
                        "asyncio.to_thread instead",
                    )


@register_rule
class NoExecutionModeForkRule(LintRule):
    code = "PPM014"
    name = "no-execution-mode-fork"
    explanation = (
        "ExecutionMode.<member> outside core/sequences.py, core/planner.py "
        "and verify/ re-derives what a plan's mode runs; iterate "
        "DecodePlan.stages instead"
    )

    _OWNERS = (("core", "sequences.py"), ("core", "planner.py"))

    def applies_to(self, relpath: Path) -> bool:
        return "verify" not in relpath.parts[:-1] and relpath.parts[-2:] not in self._OWNERS

    def check(self, tree: ast.Module, relpath: Path) -> Iterator[LintFinding]:
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Attribute) and node.attr.isupper()):
                continue
            owner = node.value
            name = owner.id if isinstance(owner, ast.Name) else getattr(owner, "attr", None)
            if name == "ExecutionMode":
                yield self.finding(
                    relpath,
                    node,
                    f"ExecutionMode.{node.attr} branches on the plan's mode; "
                    "walk plan.stages (matrices, survivor/faulty ids, "
                    "independent) so the mode is interpreted in one place",
                )


def lint_module(
    module: ParsedModule,
    rules: Iterable[LintRule] | None = None,
    timings: dict[str, float] | None = None,
) -> list[LintFinding]:
    """Run the given (default: all) rules over one pre-parsed module.

    The AST is parsed once per file (in :func:`parse_module`) and shared
    across every rule; ``timings`` accumulates per-rule wall seconds
    keyed by rule code when supplied.
    """
    if module.tree is None:
        assert module.syntax_finding is not None
        return [module.syntax_finding]
    findings: list[LintFinding] = []
    for rule in RULES.values() if rules is None else rules:
        if not rule.applies_to(module.path):
            continue
        t0 = time.perf_counter()
        findings.extend(rule.check(module.tree, module.path))
        if timings is not None:
            timings[rule.code] = (
                timings.get(rule.code, 0.0) + time.perf_counter() - t0
            )
    return findings


def lint_source(
    source: str, relpath: Path, rules: Iterable[LintRule] | None = None
) -> list[LintFinding]:
    """Lint one module's source text with the given (default: all) rules."""
    return lint_module(parse_module(relpath, source), rules)


def iter_python_files(paths: Sequence[str]) -> Iterator[Path]:
    for raw in paths:
        p = Path(raw)
        if not p.exists():
            # a typo'd path must not become a silent "lint clean" in CI
            raise FileNotFoundError(f"lint path does not exist: {raw}")
        if p.is_dir():
            yield from sorted(p.rglob("*.py"))
        elif p.suffix == ".py":
            yield p


def run_lint(
    paths: Sequence[str],
    select: Sequence[str] | None = None,
    ignore: Sequence[str] | None = None,
    *,
    modules: Sequence[ParsedModule] | None = None,
    respect_noqa: bool = True,
    timings: dict[str, float] | None = None,
) -> list[LintFinding]:
    """Lint every ``*.py`` under ``paths``; returns all findings sorted.

    ``modules`` lets a front-end that already parsed the files (``ppm
    check`` shares one parse between lint and the race analyzer) skip
    re-reading them; ``respect_noqa`` honours ``# ppm: noqa[...]``
    markers; ``timings`` accumulates per-rule wall seconds.
    """
    active = [
        rule
        for code, rule in sorted(RULES.items())
        if (select is None or code in select) and (ignore is None or code not in ignore)
    ]
    if modules is None:
        modules = parse_modules(paths)
    findings: list[LintFinding] = []
    for module in modules:
        findings.extend(lint_module(module, active, timings))
    if respect_noqa:
        noqa_by_path = {str(m.path): m.noqa for m in modules if m.noqa}
        findings, _suppressed = filter_noqa(findings, noqa_by_path)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    return findings
