"""The serve/loadgen CLI commands (small, fast configs)."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.cli import _FLAG_PATHS, _app_config, build_parser, main
from repro.config import AppConfig, field_type

SMALL = [
    "--n", "6", "--r", "4", "--m", "2", "--s", "2",
    "--stripes", "4", "--symbols", "16", "--seed", "3",
]


def test_loadgen_in_process(capsys):
    assert main(
        ["loadgen", *SMALL, "--requests", "30", "--fault-rate", "0.1",
         "--concurrency", "8"]
    ) == 0
    out = capsys.readouterr().out
    assert "30/30 requests ok" in out
    assert "0 failed" in out
    assert "coalesce factor" in out
    assert "p99" in out


def test_loadgen_writes_json(tmp_path, capsys):
    out_file = tmp_path / "loadgen.json"
    assert main(
        ["loadgen", *SMALL, "--requests", "12", "--fault-rate", "0.0",
         "--json", str(out_file)]
    ) == 0
    doc = json.loads(out_file.read_text())
    assert doc["loadgen"]["completed"] == 12
    assert doc["loadgen"]["corrupt"] == 0
    assert "coalescing" in doc["service"]
    assert "pipeline" in doc["service"]


def test_serve_parser_has_the_knobs():
    args = build_parser().parse_args(
        ["serve", "--port", "9999", "--fault-rate", "0.2"]
    )
    assert args.port == 9999
    assert args.fault_rate == 0.2
    assert args.func is not None


@pytest.mark.parametrize("command", ["serve", "loadgen"])
def test_naive_flag_is_gone(command, capsys):
    with pytest.raises(SystemExit) as exc:  # parse only: never start a server
        build_parser().parse_args([command, "--naive"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --naive" in capsys.readouterr().err


#: one valid, non-default sample value per field type
SAMPLE = {int: "5", float: "0.25", bool: "true", str: "tcp"}

#: the cluster section's deleted copy of the service section
OLD_SERVICE_COPY = ".".join(("cluster", "service"))


@pytest.mark.parametrize("flag", sorted(_FLAG_PATHS))
def test_flag_equals_its_set_path(flag):
    """Every generated flag is exactly ``--set <its path>=<value>``."""
    path, _help = _FLAG_PATHS[flag]
    kind = field_type(path)
    option = "--" + flag.replace("_", "-")
    argv = [option] if kind is bool else [option, SAMPLE[kind]]
    sets = [f"{path}={SAMPLE[kind]}"]
    if path == "store.seed":  # documented: --seed also seeds the placement ring
        sets.append(f"cluster.seed={SAMPLE[kind]}")
    by_flag = _app_config(build_parser().parse_args(["loadgen", *argv]))
    by_set = _app_config(
        build_parser().parse_args(["loadgen", *(a for s in sets for a in ("--set", s))])
    )
    assert by_flag == by_set != AppConfig()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--transport", "pigeon"], "transport must be one of"),
        (["--flush-interval-s", "-1"], "flush_interval_s must be >= 0"),
        (["--set", f"{OLD_SERVICE_COPY}.batch_trigger=4"], "unknown override path"),
        (["--set", "service.repair=true"], "does not name a config field"),
        (["--set", "store.stripes"], "--set needs path=value"),
        (["--flush-ms", "2"], "unrecognized arguments: --flush-ms"),
    ],
)
def test_bad_config_values_are_usage_errors(argv, message, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["loadgen", *argv])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_serve_repair_flag_builds_the_repair_loop():
    from repro.config import build_service

    args = build_parser().parse_args(["serve", *SMALL, "--repair", "--scrub-stripes", "2"])
    cfg = _app_config(args)
    assert cfg.service.repair.enabled and cfg.service.repair.scrub_stripes == 2
    service = build_service(cfg)
    try:
        assert service.repair is not None
        assert service.repair.config is cfg.service.repair
    finally:
        asyncio.run(service.close())
    assert _app_config(build_parser().parse_args(["serve"])).service.repair.enabled is False


def test_loadgen_with_repair_flags(capsys):
    """--repair wires a manager into the served store; erasure-only
    damage keeps the run deterministic (reads racing a corruption
    scrub may legitimately see wrong bytes until healed)."""
    assert main(
        ["loadgen", *SMALL, "--requests", "20", "--damaged", "0.25",
         "--repair", "--concurrency", "8"]
    ) == 0
    out = capsys.readouterr().out
    assert "20/20 requests ok" in out


def test_loadgen_exits_nonzero_on_served_corruption(capsys):
    """Corruption with repair OFF: reads of corrupt blocks verify wrong
    and the summary must say so (nonzero exit, nonzero corrupt count)."""
    assert main(
        ["loadgen", *SMALL, "--requests", "60", "--damaged", "0.0",
         "--corrupt-fraction", "1.0", "--concurrency", "8"]
    ) == 1
    out = capsys.readouterr().out
    assert "corrupt" in out
    assert "FAIL" in out
