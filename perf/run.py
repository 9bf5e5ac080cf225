"""The repo benchmark: one workload per process, every metric by name.

    python3 perf/run.py --workload rebuild_large --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` alternates untraced and traced rounds, prints the per-layer
metrics and writes ``perf/out/trace_<workload>_<seed>.json``.  The last
line of standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``); the exit code is non-zero if any output
differed from ground truth or any op failed.  Metric names, units and
bounds live in ``BENCHMARK.json``; definitions in ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time

from provenance import OUT_DIR, ROOT, append_history, envelope
from stats import Tracer, iqr_over_median, tail_percentile, whole_pass_rounds

SRC = os.path.join(ROOT, "src")

#: Pinned in the environment before anything is imported: hash order
#: and BLAS thread pools are not what this benchmark measures.
ENV_PINS = {
    "PYTHONHASHSEED": "0",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

MIN_ROUNDS = 12
#: Set-ups per run (this process plus set-up-only children); the median is reported.
SETUP_SAMPLES = 3
#: A round is "noisy" when its adjacent host probe is this far off the run's best.
NOISY_PROBE = 0.15
#: Warm-up rounds take their inputs from indices no timed round reaches.
WARMUP_BASE = 1 << 20


def pinned_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(ENV_PINS)
    paths = [SRC] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    env["PYTHONPATH"] = os.pathsep.join(dict.fromkeys(paths))
    return env


def reexec_pinned() -> None:
    """Re-exec this process once with the pinned environment."""
    env = pinned_env()
    if all(os.environ.get(k) == v for k, v in env.items() if k in ENV_PINS) and (
        os.environ.get("PYTHONPATH") == env["PYTHONPATH"]
    ):
        return
    sys.stdout.flush()
    os.execve(sys.executable, [sys.executable, *sys.argv], env)


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
        return json.load(spec)


def measure(workload, seconds: float, trace: bool, import_s: float = 0.0, verify: bool = True):
    """Set up, warm up, run timed rounds and check them; returns the raw run.

    ``verify=False`` is the set-up-only child: it stops after warm-up.
    """
    from layers import accumulate, delta, flatten
    from probes import HostProbe

    workload.generate()
    if verify:
        workload.build_truth()
    run = {"mismatches": 0, "failed": 0, "attempted": 0, "rounds": []}
    try:
        t0 = time.perf_counter()
        workload.setup()
        setup_s = import_s + (time.perf_counter() - t0)
        for i in range(workload.warmup_rounds):
            result = workload.run_round(WARMUP_BASE + i)
            setup_s += result.seconds
            run["failed"] += result.failed
            if verify:
                run["mismatches"] += workload.check(result)
        run["setup_s"] = setup_s
        if not verify:
            return run

        gc.collect()
        gc.freeze()  # warm-up garbage never gets scanned again; GC stays on
        probe = HostProbe(workload.backend, workload.fused_stripes() * workload.symbols)
        tracer = Tracer() if trace else None
        run_span = tracer.begin("run", workload=workload.name) if trace else None
        before = flatten(workload.snapshot())
        t_start = time.perf_counter()
        index = 0
        while index < MIN_ROUNDS or time.perf_counter() - t_start < seconds:
            gather, xor = probe.sample()
            traced = trace and index % 2 == 1
            span = tracer.begin("round", run_span, index=index) if traced else None
            result = workload.run_round(index, tracer if traced else None, span)
            if traced:
                tracer.end(span)
            after = flatten(workload.snapshot())
            run["mismatches"] += workload.check(result)  # outside every timer
            run["failed"] += result.failed
            run["attempted"] += len(result.op_ms)
            run["rounds"].append(
                {
                    "traced": traced,
                    "op_ms": result.op_ms,
                    "op_kinds": result.op_kinds,
                    "seconds": result.seconds,
                    "payload_bytes": result.payload_bytes,
                    "MBps": result.payload_bytes / result.seconds / 1e6,
                    "stats": delta(before, after),
                    "probe": (gather, xor),
                }
            )
            before = after
            index += 1
        if trace:
            tracer.end(run_span)
            run["tracer"] = tracer
            run["layer_probes"] = workload.layer_probes()
        run["mismatches"] += workload.finish()
        run["totals"] = {}
        for r in run["rounds"]:
            if not r["traced"]:
                accumulate(run["totals"], r["stats"])
        return run
    finally:
        workload.close()
        run["children_rss_mb"] = workload.children_peak_rss_mb()


def untraced(run: dict) -> tuple[list[dict], list[float]]:
    """The rounds every reported number comes from, and their op times."""
    plain = [r for r in run["rounds"] if not r["traced"]]
    return plain, [ms for r in plain for ms in r["op_ms"]]


def end_to_end(run: dict, setup_samples: list[float], pass_rounds: int) -> dict[str, float]:
    plain, ops = untraced(run)
    counted = plain[: whole_pass_rounds(len(plain), pass_rounds)] or plain
    symbols = sum(r["stats"]["symbols"] for r in counted)
    payload = sum(r["payload_bytes"] for r in counted)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": statistics.median(setup_samples),
        "throughput_MBps": statistics.median(r["MBps"] for r in plain),
        "op_p50_ms": statistics.median(ops),
        "gf_symbols_per_byte": symbols / payload,
        "peak_rss_MB": rss_mb + run["children_rss_mb"],
    }


def per_layer(run: dict, workload, names: list[str]) -> dict[str, float]:
    from layers import autotune_metrics, core_metrics, stats_metrics
    from workloads import POLICY

    plain, ops = untraced(run)
    out = dict.fromkeys(names, 0.0)  # a layer a workload never enters reads 0
    out.update(stats_metrics(run["totals"], sum(ops) / 1e3))
    code = workload.code
    out.update(core_metrics(code, workload.patterns(), POLICY))
    out.update(
        autotune_metrics(
            code, workload.patterns()[0], POLICY, workload.fused_stripes() * workload.symbols
        )
    )
    out.update(run["layer_probes"])
    by_kind: dict[str, list[float]] = {}
    for r in plain:
        for kind, ms in zip(r["op_kinds"], r["op_ms"]):
            by_kind.setdefault(kind, []).append(ms)
    out[workload.tail_metric] = tail_percentile(ops)[1]
    for kind, key in (
        ("get", "service.net.get_ms"),
        ("put", "service.net.put_ms"),
        ("degraded_get", "service.degraded_ms"),
    ):
        if kind in by_kind:
            out[key] = statistics.median(by_kind[kind])
    gathers = [r["probe"][0] for r in run["rounds"]]
    out["host.probe_gather_MBps"] = statistics.median(gathers)
    out["host.probe_xor_MBps"] = statistics.median(r["probe"][1] for r in run["rounds"])
    out["kernels.roofline_frac"] = out["kernels.exec_MBps"] / out["host.probe_gather_MBps"]
    out["harness.round_spread"] = iqr_over_median([r["MBps"] for r in plain])
    out["harness.noisy_rounds"] = sum(g < (1.0 - NOISY_PROBE) * max(gathers) for g in gathers)
    traced_ops = [ms for r in run["rounds"] if r["traced"] for ms in r["op_ms"]]
    out["harness.trace_overhead_frac"] = (
        statistics.median(traced_ops) / statistics.median(ops) - 1.0
    )
    return out


def run_child(*args: str) -> dict:
    """Run this script in a fresh process; its last output line, parsed."""
    done = subprocess.run(
        [sys.executable, os.path.abspath(__file__), *args],
        capture_output=True,
        text=True,
        timeout=600,
        env=pinned_env(),
    )
    lines = done.stdout.strip().splitlines()
    if not lines or done.returncode not in (0, 1):  # 1 = ran, but incorrect
        raise RuntimeError(f"run.py {' '.join(args)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def report(workload, args, run, metrics: dict[str, float], spec: dict) -> dict:
    """Print every metric by name and unit; returns the contract's result object."""
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}
    plain, ops = untraced(run)
    tail_p, tail_ms = tail_percentile(ops)
    print(
        f"# {workload.name} seed={args.seed} backend={workload.backend} "
        f"rounds={len(run['rounds'])} ({len(plain)} untraced) ops={len(ops)} "
        f"p{tail_p:g}={tail_ms:.3f} ms"
    )
    print(
        f"# attempted={run['attempted']} failed={run['failed']} "
        f"mismatches={run['mismatches']}"
    )
    for name, unit in units.items():
        print(f"{name} {metrics[name]:.6g} {unit}")
    if args.trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"trace_{workload.name}_{args.seed}.json")
        with open(path, "w") as out:
            json.dump({"workload": workload.name, "seed": args.seed,
                       "spans": run["tracer"].spans}, out)
        print(f"# trace: {os.path.relpath(path, ROOT)} "
              f"(op child coverage {run['tracer'].child_coverage('op'):.3f})")
    correct = run["mismatches"] == 0
    append_history(
        {
            **envelope(),
            "workload": workload.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "backend": workload.backend,
            "config": workload.config(),
            "rounds": len(run["rounds"]),
            "ops": run["attempted"],
            "failed": run["failed"],
            "mismatches": run["mismatches"],
            "round_MBps": [r["MBps"] for r in plain],
            "metrics": metrics,
        }
    )
    return {
        "correct": correct,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perf/run.py: no program to measure at {SRC}/repro", file=sys.stderr)
        return 2
    t0 = time.perf_counter()
    from workloads import WORKLOADS  # imports numpy and repro: part of set-up

    import_s = time.perf_counter() - t0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed)

    if args.setup_only:
        run = measure(workload, 0.0, False, import_s, verify=False)
        print(json.dumps({"setup_s": run["setup_s"]}))
        return 0

    spec = benchmark_spec()
    samples = []
    if not args.trace:  # set up in fresh processes too; the median is reported
        child = ("--workload", args.workload, "--seed", str(args.seed), "--setup-only")
        samples = [run_child(*child)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    run = measure(workload, args.seconds, bool(args.trace), import_s)
    samples.append(run["setup_s"])
    if args.trace:
        metrics = per_layer(run, workload, [m["name"] for m in spec["per_layer"]])
    else:
        metrics = end_to_end(run, samples, workload.pass_rounds)
    result = report(workload, args, run, metrics, spec)
    print(json.dumps(result))
    return 0 if result["correct"] and not result["failed"] else 1


if __name__ == "__main__":
    reexec_pinned()
    sys.exit(main())
