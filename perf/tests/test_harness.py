"""The harness against its contract, on workloads shrunk to run in seconds."""

import json
import re

import numpy as np
import pytest

import run
from workloads import WORKLOADS, EncodeLarge, RebuildLarge, ScatterSmall, WireMixed

SPEC = run.benchmark_spec()
NAME = re.compile(r"[A-Za-z0-9_.-]+")

SMALL = {
    "rebuild_large": lambda seed: RebuildLarge(seed, stripes=4, symbols=256, ops_per_round=2),
    "encode_large": lambda seed: EncodeLarge(seed, stripes=4, symbols=256, ops_per_round=2),
    "scatter_small": lambda seed: ScatterSmall(
        seed, stripes=4, symbols=32, ops_per_round=2, pool_size=16, warmup_rounds=1
    ),
    "wire_mixed": lambda seed: WireMixed(seed, stripes=16, symbols=64, mix=(7, 2, 1)),
}


def test_benchmark_json_names_the_workloads_and_metrics_the_harness_has():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["perf"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) and len(n) <= 64 for n in names)
    assert [m["name"] for m in SPEC["end_to_end"]] == [
        "setup_s",
        "throughput_MBps",
        "op_p50_ms",
        "gf_symbols_per_byte",
        "peak_rss_MB",
    ]


@pytest.mark.parametrize("name", list(SMALL))
def test_computed_names_are_exactly_the_declared_names(name):
    workload = SMALL[name](3)
    result = run.measure(workload, 0.0, True)
    assert result["mismatches"] == 0 and result["failed"] == 0
    layer = run.per_layer(result, workload, [m["name"] for m in SPEC["per_layer"]])
    assert set(layer) == {m["name"] for m in SPEC["per_layer"]}
    e2e = run.end_to_end(result, [result["setup_s"]], workload.pass_rounds)
    assert set(e2e) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in e2e.values())
    assert result["tracer"].child_coverage("op") >= 0.9 or name == "wire_mixed"


def test_same_seed_gives_the_same_schedule_and_the_same_counts():
    def counts(seed):
        workload = SMALL["scatter_small"](seed)
        result = run.measure(workload, 0.0, False)
        e2e = run.end_to_end(result, [1.0], workload.pass_rounds)
        return e2e["gf_symbols_per_byte"], [r["stats"]["symbols"] for r in result["rounds"]]

    first, again, other = counts(5), counts(5), counts(6)
    assert first == again  # bit-identical, not approximately equal
    assert first[0] == other[0]  # whole passes cost the same in any order
    assert first[1] != other[1]  # ...but the order did change

    wire = [SMALL["wire_mixed"](9) for _ in range(2)]
    for w in wire:
        w.generate()
    for index in (0, 1, 7):
        a, b = (w.schedule(index) for w in wire)
        assert [(r.op, r.stripe, r.block) for c in a for r in c] == [
            (r.op, r.stripe, r.block) for c in b for r in c
        ]
        puts = [(x.data, y.data) for ca, cb in zip(a, b) for x, y in zip(ca, cb) if x.op == "put"]
        assert puts and all(np.array_equal(x, y) for x, y in puts)


def test_a_corrupted_output_trips_the_non_zero_exit(monkeypatch, capsys):
    def corrupting_call(self, maps, patterns):
        out = self.pipeline.decode_batch(self.code, maps, patterns)
        block = patterns[0][0]
        out[0][block] = out[0][block] ^ 1  # one flipped bit per symbol of one block
        return out

    monkeypatch.setattr(RebuildLarge, "call", corrupting_call)
    monkeypatch.setitem(WORKLOADS, "rebuild_large", SMALL["rebuild_large"])
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "append_history", lambda record: None)
    code = run.main(["--workload", "rebuild_large", "--seed", "1", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code != 0
    assert result["correct"] is False and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
