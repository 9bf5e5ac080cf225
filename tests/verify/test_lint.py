"""Lint engine: each rule catches its target pattern; the repo is clean.

``lint_source`` is exercised with minimal violating snippets per rule,
then the whole shipped ``src`` tree goes through ``run_check`` as a
self-check — the gate CI runs as ``ppm check --strict src``.
"""

from __future__ import annotations

from pathlib import Path

from repro.verify import RULES, run_check, run_lint
from repro.verify.lint import LintRule, lint_source, register_rule

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def codes_of(source: str, relpath: str) -> set[str]:
    return {f.code for f in lint_source(source, Path(relpath))}


def test_rule_registry_is_populated():
    assert {
        "PPM001",
        "PPM002",
        "PPM003",
        "PPM004",
        "PPM005",
        "PPM007",
        "PPM008",
        "PPM009",
        "PPM014",
    } <= set(RULES)
    for rule in RULES.values():
        assert rule.explanation, f"{rule.code} has no explanation"


def test_ppm001_missing_future_annotations():
    assert "PPM001" in codes_of("import os\n", "repro/x.py")
    assert "PPM001" not in codes_of(
        "from __future__ import annotations\nimport os\n", "repro/x.py"
    )
    # empty modules are exempt
    assert "PPM001" not in codes_of("", "repro/empty.py")


def test_ppm002_unfrozen_plan_dataclass():
    bad = (
        "from __future__ import annotations\n"
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class RepairPlan:\n    x: int\n"
    )
    assert "PPM002" in codes_of(bad, "repro/x.py")
    good = bad.replace("@dataclass\n", "@dataclass(frozen=True)\n")
    assert "PPM002" not in codes_of(good, "repro/x.py")
    # non-plan-shaped mutable dataclasses are fine
    stats = bad.replace("RepairPlan", "RepairStats")
    assert "PPM002" not in codes_of(stats, "repro/x.py")


def test_ppm003_python_xor_loop_in_hot_path():
    bad = (
        "from __future__ import annotations\n"
        "def f(a, b):\n"
        "    for i in range(len(a)):\n"
        "        a[i] = a[i] ^ b[i]\n"
    )
    assert "PPM003" in codes_of(bad, "repro/gf/x.py")
    assert "PPM003" in codes_of(bad, "repro/core/x.py")
    # same code outside the hot packages is not this rule's business
    assert "PPM003" not in codes_of(bad, "repro/bench/x.py")
    aug = (
        "from __future__ import annotations\n"
        "def f(a, b):\n"
        "    for i in range(len(a)):\n"
        "        a[i] ^= b[i]\n"
    )
    assert "PPM003" in codes_of(aug, "repro/gf/x.py")
    # vectorised xor on whole arrays is the sanctioned idiom
    ok = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "def f(a, b):\n"
        "    np.bitwise_xor(a, b, out=a)\n"
    )
    assert "PPM003" not in codes_of(ok, "repro/gf/x.py")


def test_ppm004_implicit_dtype_in_gf_code():
    bad = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "x = np.zeros((4, 4))\n"
    )
    assert "PPM004" in codes_of(bad, "repro/gf/x.py")
    assert "PPM004" in codes_of(bad, "repro/matrix/x.py")
    assert "PPM004" not in codes_of(bad, "repro/bench/x.py")
    good = bad.replace("np.zeros((4, 4))", "np.zeros((4, 4), dtype=np.uint8)")
    assert "PPM004" not in codes_of(good, "repro/gf/x.py")


def test_ppm005_region_xor_outside_gf():
    bad = (
        "from __future__ import annotations\n"
        "import numpy as np\n"
        "def f(a, b):\n"
        "    np.bitwise_xor(a, b, out=a)\n"
    )
    assert "PPM005" in codes_of(bad, "repro/stripes/x.py")
    assert "PPM005" not in codes_of(bad, "repro/gf/x.py")
    assert "PPM005" not in codes_of(bad, "repro/matrix/x.py")


def test_ppm007_raw_executor_outside_pipeline():
    bad = (
        "from __future__ import annotations\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "pool = ThreadPoolExecutor(max_workers=4)\n"
    )
    assert "PPM007" in codes_of(bad, "repro/core/x.py")
    qualified = (
        "from __future__ import annotations\n"
        "import concurrent.futures as cf\n"
        "pool = cf.ProcessPoolExecutor(2)\n"
    )
    assert "PPM007" in codes_of(qualified, "repro/parallel/x.py")
    # the pipeline package is the one place allowed to build executors
    assert "PPM007" not in codes_of(bad, "repro/pipeline/pool.py")
    wrapped = (
        "from __future__ import annotations\n"
        "from repro.pipeline.pool import ThreadWorkerPool\n"
        "pool = ThreadWorkerPool(4)\n"
    )
    assert "PPM007" not in codes_of(wrapped, "repro/core/x.py")


def test_ppm008_mult_xors_loop_in_decoder_modules():
    bad = (
        "from __future__ import annotations\n"
        "def apply(ops, matrix, regions):\n"
        "    for row in matrix:\n"
        "        ops.mult_xors(row, regions)\n"
    )
    assert "PPM008" in codes_of(bad, "repro/core/x.py")
    assert "PPM008" in codes_of(bad, "repro/pipeline/x.py")
    # the GF package is where the primitive legitimately lives
    assert "PPM008" not in codes_of(bad, "repro/gf/region.py")
    assert "PPM008" not in codes_of(bad, "repro/bench/x.py")
    while_bad = (
        "from __future__ import annotations\n"
        "def apply(ops, rows, regions):\n"
        "    while rows:\n"
        "        ops.mult_xors(rows.pop(), regions)\n"
    )
    assert "PPM008" in codes_of(while_bad, "repro/core/x.py")
    good = (
        "from __future__ import annotations\n"
        "def apply(ops, matrix, regions):\n"
        "    return ops.matrix_apply(matrix, regions)\n"
    )
    assert "PPM008" not in codes_of(good, "repro/core/x.py")
    # one straight-line call (no loop) is fine too
    single = (
        "from __future__ import annotations\n"
        "def combine(ops, row, regions):\n"
        "    return ops.mult_xors(row, regions)\n"
    )
    assert "PPM008" not in codes_of(single, "repro/core/x.py")


def test_ppm009_blocking_calls_in_service():
    sleep = (
        "from __future__ import annotations\n"
        "import time\n"
        "def f():\n"
        "    time.sleep(0.1)\n"
    )
    assert "PPM009" in codes_of(sleep, "repro/service/x.py")
    # the same call outside the async package is not this rule's business
    assert "PPM009" not in codes_of(sleep, "repro/pipeline/x.py")
    # await asyncio.sleep is the sanctioned idiom
    ok = (
        "from __future__ import annotations\n"
        "import asyncio\n"
        "async def f():\n"
        "    await asyncio.sleep(0.1)\n"
    )
    assert "PPM009" not in codes_of(ok, "repro/service/x.py")


def test_ppm009_sync_io_in_service():
    opened = (
        "from __future__ import annotations\n"
        "def f(path):\n"
        "    with open(path) as fh:\n"
        "        return fh.read()\n"
    )
    assert "PPM009" in codes_of(opened, "repro/service/x.py")
    assert "PPM009" not in codes_of(opened, "repro/cli.py")
    sock = (
        "from __future__ import annotations\n"
        "import socket\n"
        "def f():\n"
        "    return socket.create_connection((\"h\", 80))\n"
    )
    assert "PPM009" in codes_of(sock, "repro/service/x.py")
    sub = (
        "from __future__ import annotations\n"
        "import subprocess\n"
        "def f():\n"
        "    subprocess.run([\"ls\"])\n"
    )
    assert "PPM009" in codes_of(sub, "repro/service/x.py")
    # asyncio streams / to_thread offload are fine
    offload = (
        "from __future__ import annotations\n"
        "import asyncio\n"
        "async def f(fn):\n"
        "    return await asyncio.to_thread(fn)\n"
    )
    assert "PPM009" not in codes_of(offload, "repro/service/x.py")


def test_syntax_errors_reported_not_raised():
    findings = lint_source("def f(:\n", Path("repro/broken.py"))
    assert [f.code for f in findings] == ["PPM999"]


def test_select_and_ignore_filtering(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text(
        "from dataclasses import dataclass\n@dataclass\nclass FooPlan:\n    x: int = 0\n"
    )
    all_codes = {f.code for f in run_lint([str(tmp_path)])}
    assert {"PPM001", "PPM002"} <= all_codes
    only = {f.code for f in run_lint([str(tmp_path)], select=["PPM002"])}
    assert only == {"PPM002"}
    without = {f.code for f in run_lint([str(tmp_path)], ignore=["PPM002"])}
    assert "PPM002" not in without


def test_register_rule_rejects_duplicate_codes():
    import pytest

    with pytest.raises(ValueError, match="duplicate"):

        @register_rule
        class Clone(LintRule):  # pragma: no cover - registration fails
            code = "PPM001"
            name = "clone"


def test_finding_format_is_clickable():
    (finding,) = lint_source("import os\n", Path("repro/x.py"))
    assert finding.format().startswith("repro/x.py:1:1: PPM001 [future-annotations]")


def test_nonexistent_path_errors_instead_of_passing_vacuously(capsys):
    """A typo'd path in CI must not report "lint clean"."""
    import pytest

    from repro.cli import main

    with pytest.raises(FileNotFoundError, match="does not exist"):
        run_lint(["/no/such/dir"])
    assert main(["check", "/no/such/dir"]) == 2
    assert "does not exist" in capsys.readouterr().err


def test_shipped_src_tree_is_lint_clean():
    """The invariant CI enforces: `ppm check src` is clean (lint and races)."""
    report = run_check([str(REPO_SRC)])
    assert report.lint == [] and report.ok, report.format_human()


def test_ppm014_execution_mode_fork():
    fork = (
        "from __future__ import annotations\n"
        "from .sequences import ExecutionMode\n"
        "def f(plan):\n"
        "    return plan.mode is ExecutionMode.PPM_REST_NORMAL\n"
    )
    assert "PPM014" in codes_of(fork, "repro/pipeline/x.py")
    assert "PPM014" in codes_of(fork, "repro/core/decoder.py")
    qualified = fork.replace("ExecutionMode.PPM", "sequences.ExecutionMode.PPM")
    assert "PPM014" in codes_of(qualified, "repro/kernels/x.py")
    # the enum's home, the planner that derives stages, and the referee
    for owner in ("repro/core/sequences.py", "repro/core/planner.py", "repro/verify/plan.py"):
        assert "PPM014" not in codes_of(fork, owner)
    # naming the type or reading a plan's mode is not a fork
    neutral = (
        "from __future__ import annotations\n"
        "from .sequences import ExecutionMode\n"
        "def f(plan) -> ExecutionMode:\n"
        "    return plan.mode.value\n"
    )
    assert "PPM014" not in codes_of(neutral, "repro/pipeline/x.py")
