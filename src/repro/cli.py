"""Command-line interface: ``python -m repro <command>`` or ``ppm <command>``.

Commands
--------
figure N        regenerate one of the paper's evaluation figures (4-11)
figures         regenerate all of them
reproduce       write every figure (table + CSV) into a results directory
paper-example   walk through the Section II-B/III-B worked example
calibrate       print this host's measured GF-kernel profile
demo            encode/fail/decode a stripe and verify, with both decoders
list-codes      show the registered erasure-code constructions
verify          static verification sweep of decode plans + compiled programs
check           static-analysis gate: lint + race analysis
verify-code     Monte-Carlo decodability verification of a code instance
search          search SD coefficient sets (the SD authors' pipeline)
extra NAME      extra experiments (paper-average, c2-share, degraded-read-io)
serve           run the degraded-read BlobService on a TCP port
cluster         run a sharded multi-node cluster behind one TCP port
loadgen         drive services/clusters (in-process or TCP) with seeded load
encode-file     split + encode a file into per-disk strip files
decode-file     reconstruct a file from surviving strips (erasure-decoding)
repair-files    regenerate missing strip files in place
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from . import config as appcfg


def _cmd_figure(args: argparse.Namespace) -> int:
    from .bench import run_figure

    report = run_figure(args.number, fast=not args.full)
    text = report.to_csv() if args.csv else report.format_table()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {args.out}")
    else:
        print(text)
    return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from .bench import FIGURES, run_figure

    for number in sorted(FIGURES):
        print(run_figure(number, fast=not args.full).format_table())
        print()
    return 0


def _cmd_paper_example(_args: argparse.Namespace) -> int:
    from .codes import SDCode
    from .core import (
        SequencePolicy,
        build_log_table,
        format_log_table,
        partition,
        plan_decode,
    )

    code = SDCode(4, 4, 1, 1, 8)
    faulty = [2, 6, 10, 13, 14]
    print(code.describe())
    print(f"faulty sectors: {faulty}")
    print()
    print("Log table (paper, Figure 3):")
    print(format_log_table(build_log_table(code.H, faulty)))
    part = partition(code.H, faulty)
    print()
    print(f"partition: p = {part.p} independent sub-matrices")
    for i, g in enumerate(part.groups):
        print(f"  H{i}: rows {list(g.row_ids)} recover blocks {list(g.faulty_ids)}")
    print(f"  H_rest: rows {list(part.rest_row_ids)} recover {list(part.rest_faulty_ids)}")
    plan = plan_decode(code, faulty, SequencePolicy.PAPER)
    print()
    print(f"costs: {plan.costs.as_dict()}  (paper: C1=35, C2=31, C4=29)")
    print(f"chosen mode: {plan.mode.value}")
    print(f"reduction (C1-C4)/C1 = {plan.costs.reduction():.2%}  (paper: 17.14%)")
    return 0


def _cmd_calibrate(_args: argparse.Namespace) -> int:
    from .parallel import PAPER_CPUS, host_profile, scaled_paper_profile

    host = host_profile(refresh=True)
    print(f"host: {host.cores} core(s)")
    print(f"mult_XORs throughput: {host.base_throughput / 1e6:.1f} M symbol-ops/s")
    print(f"thread spawn overhead: {host.spawn_overhead_s * 1e6:.1f} us/thread")
    print()
    print("scaled paper CPU profiles:")
    for cpu in PAPER_CPUS:
        scaled = scaled_paper_profile(cpu, host)
        print(
            f"  {scaled.name:<10} {scaled.cores} cores @ {scaled.ghz} GHz -> "
            f"{scaled.throughput / 1e6:.1f} M symbol-ops/s/core"
        )
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    import numpy as np

    from .core import PPMDecoder, TraditionalDecoder
    from .codes import get_code
    from .stripes import Stripe, StripeLayout, worst_case_sd

    code = get_code("sd", n=args.n, r=args.r, m=args.m, s=args.s)
    print(code.describe())
    stripe = Stripe.random(StripeLayout.of_code(code), code.field, args.symbols, rng=0)
    TraditionalDecoder().encode_into(code, stripe)
    scen = worst_case_sd(code, z=1, rng=args.seed)
    print(f"failure: {scen.describe(StripeLayout.of_code(code))}")
    truth = stripe.copy()
    stripe.erase(scen.faulty_blocks)
    for name, decoder in [
        ("traditional", TraditionalDecoder(policy="normal")),
        ("PPM", PPMDecoder(threads=args.threads)),
    ]:
        recovered, stats = decoder.decode(code, stripe, scen.faulty_blocks, return_stats=True)
        ok = all(np.array_equal(recovered[b], truth.get(b)) for b in scen.faulty_blocks)
        print(
            f"{name:>12}: {stats.mult_xors} mult_XORs, "
            f"{stats.wall_seconds * 1e3:.2f} ms, verified={ok}"
        )
    return 0


def _cmd_list_codes(_args: argparse.Namespace) -> int:
    from .codes import available_codes

    for kind in available_codes():
        print(kind)
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    import os

    from .bench import FIGURES, run_figure

    os.makedirs(args.out, exist_ok=True)
    for number in sorted(FIGURES):
        report = run_figure(number, fast=not args.full)
        base = os.path.join(args.out, f"figure{number}")
        with open(base + ".txt", "w") as fh:
            fh.write(report.format_table() + "\n")
        with open(base + ".csv", "w") as fh:
            fh.write(report.to_csv() + "\n")
        print(f"figure {number}: {base}.txt / .csv")
    if args.extras:
        from .bench import EXTRAS, run_extra

        for name in sorted(EXTRAS):
            report = run_extra(name, fast=not args.full)
            base = os.path.join(args.out, f"extra_{name.replace('-', '_')}")
            with open(base + ".txt", "w") as fh:
                fh.write(report.format_table() + "\n")
            print(f"extra {name}: {base}.txt")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .codes import get_code
    from .verify import sweep_all, sweep_code

    if args.all or not args.kind:
        results = sweep_all(
            samples=args.samples,
            seed=args.seed,
            check_programs=not args.no_programs,
            check_backends=args.strict,
        )
    else:
        params = dict(pair.split("=", 1) for pair in args.param)
        code = get_code(args.kind, **{k: int(v) for k, v in params.items()})
        results = [
            sweep_code(
                code,
                samples=args.samples,
                seed=args.seed,
                check_programs=not args.no_programs,
                check_backends=args.strict,
            )
        ]
    failed = 0
    for result in results:
        print(result.summary())
        if result.report.findings:
            for finding in result.report.findings:
                print(f"    {finding.format()}")
        if not result.ok:
            failed += 1
    total = sum(r.scenarios for r in results)
    if failed:
        print(f"FAIL: {failed} of {len(results)} code(s) produced invalid plans")
        return 1
    pruned = sum(r.pruned_plans for r in results)
    print(
        f"all plans verified: {len(results)} code(s), {total} scenario(s), "
        f"{pruned} pruned plan(s)"
    )
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    from .verify.check import main as check_main

    return check_main(args.argv)


def _cmd_verify_code(args: argparse.Namespace) -> int:
    from .codes import get_code, verify_code

    params = dict(pair.split("=", 1) for pair in args.param)
    code = get_code(args.kind, **{k: int(v) for k, v in params.items()})
    print(code.describe())
    ok = verify_code(code, samples=args.samples, seed=args.seed)
    print(f"verification ({args.samples} samples): {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_search(args: argparse.Namespace) -> int:
    from .codes import find_sd_coefficients

    coeffs = find_sd_coefficients(
        args.n, args.r, args.m, args.s, args.w, tries=args.tries, samples=args.samples
    )
    label = ",".join(str(a) for a in coeffs)
    print(f"SD^{{{args.m},{args.s}}}_{{{args.n},{args.r}}}({args.w}|{label})")
    return 0


def _cmd_extra(args: argparse.Namespace) -> int:
    from .bench import run_extra

    report = run_extra(args.name, fast=not args.full)
    print(report.to_csv() if args.csv else report.format_table())
    return 0


#: CLI flag → (dotted path in the layered config, help).  The flags are
#: generated from this table: each takes its field's type, a bool field
#: is a switch, and every flag defaults to None so only *explicitly
#: passed* values override the config file, which overrides the
#: dataclass defaults.  A command gets the rows of the sections it uses.
_FLAG_PATHS = {
    "n": ("store.n", "SD code: disks per stripe"),
    "r": ("store.r", "SD code: rows per stripe"),
    "m": ("store.m", "SD code: parity disks"),
    "s": ("store.s", "SD code: extra parity sectors"),
    "stripes": ("store.stripes", "stripes in the store"),
    "symbols": ("store.symbols", "symbols per sector"),
    "fault_rate": ("store.fault_rate", "transient node-fault injection rate"),
    "damaged": ("store.damaged", "fraction of stripes given a worst-case erasure"),
    "corrupt_fraction": (
        "store.corrupt_fraction",
        "fraction of stripes silently corrupted (bit rot; only a scrub can see it)",
    ),
    "seed": ("store.seed", "seed of the whole world (also cluster.seed unless set)"),
    "batch_trigger": ("service.batch_trigger", "flush a pattern group at this many reads"),
    "flush_interval_s": ("service.flush_interval_s", "coalescing flush deadline in seconds"),
    "repair": ("service.repair.enabled", "run the background scrub-and-repair manager"),
    "scrub_stripes": ("service.repair.scrub_stripes", "stripes syndrome-checked per repair tick"),
    "repair_rate": (
        "service.repair.rate_blocks_per_s",
        "repair rate limit in blocks/sec (0 = unlimited)",
    ),
    "hedge": (
        "pipeline.hedge",
        "speculatively resubmit a decode bucket still running after "
        "2x the p95 of similar work",
    ),
    "verify_workers": (
        "pipeline.verify_workers",
        "syndrome-check every decode worker result before merging",
    ),
    "nodes": ("cluster.nodes", "cluster node count"),
    "transport": ("cluster.transport", "node transport: local (in-process) or tcp"),
    "requests": ("workload.requests", "requests to issue"),
    "concurrency": ("workload.concurrency", "requests in flight"),
    "degraded_fraction": (
        "workload.degraded_fraction",
        "fraction of reads steered at erased blocks",
    ),
}


def _config_flags(p: argparse.ArgumentParser, *sections: str) -> None:
    """``--config``, ``--set`` and the ``_FLAG_PATHS`` rows of ``sections``."""
    # defaults live in repro.config (the layered model), not here
    p.add_argument("--config", metavar="FILE",
                   help="JSON config file layered over the defaults "
                        "(see repro.config / docs/SERVICE.md)")
    p.add_argument("--set", action="append", metavar="PATH=VALUE",
                   help="dotted-path config override, e.g. "
                        "--set service.batch_trigger=4 (repeatable)")
    for flag, (path, text) in _FLAG_PATHS.items():
        if path.split(".", 1)[0] not in sections:
            continue
        kind = appcfg.field_type(path)
        typed = {"action": "store_true"} if kind is bool else {"type": kind}
        p.add_argument(f"--{flag.replace('_', '-')}", default=None,
                       help=f"{text} ({path})", **typed)
    p.set_defaults(config_parser=p)


def _app_config(args: argparse.Namespace):
    """The three config layers, bottom to top: dataclass defaults, then
    ``--config FILE``, then explicit flags and ``--set path=value``
    overrides.  A value the config rejects is a usage error (exit 2)."""
    import json

    overrides: dict = {}
    for flag, (path, _text) in _FLAG_PATHS.items():
        value = getattr(args, flag, None)
        if value is not None:
            overrides[path] = value
    # one --seed keeps the whole world deterministic: it feeds the
    # placement ring too unless cluster.seed was set separately
    if "store.seed" in overrides:
        overrides.setdefault("cluster.seed", overrides["store.seed"])
    try:
        cfg = appcfg.AppConfig()
        if args.config:
            with open(args.config) as fh:
                cfg = appcfg.apply_overrides(cfg, appcfg.flatten(json.load(fh)))
        cfg = appcfg.apply_overrides(cfg, overrides)
        for item in args.set or []:
            key, sep, value = item.partition("=")
            if not sep:
                raise ValueError(f"--set needs path=value, got {item!r}")
            cfg = appcfg.apply_overrides(cfg, {key: value})
    except ValueError as exc:
        args.config_parser.error(str(exc))
    return cfg


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .service import serve

    cfg = _app_config(args)

    async def main() -> int:
        service = appcfg.build_service(cfg)
        service.start_repair()
        server = await serve(service, host=args.host, port=args.port)
        host, port = server.sockets[0].getsockname()[:2]
        store = cfg.store
        print(f"serving SD(n={store.n}, r={store.r}, m={store.m}, s={store.s}) "
              f"x {store.stripes} stripes on {host}:{port}")
        print(f"coalescing: trigger {cfg.service.batch_trigger}, "
              f"flush {cfg.service.flush_interval_s * 1e3:.1f} ms, "
              f"fault rate {store.fault_rate:.0%}")
        try:
            async with server:
                await server.serve_forever()
        except asyncio.CancelledError:  # pragma: no cover - signal-driven
            pass
        finally:
            await service.close()
            print(json.dumps(service.metrics_dict(), indent=2))
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0


def _cmd_cluster(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .service import serve

    cfg = _app_config(args)

    async def main() -> int:
        cluster = appcfg.build_cluster(cfg)
        async with cluster:
            server = await serve(cluster, host=args.host, port=args.port)
            host, port = server.sockets[0].getsockname()[:2]
            store = cfg.store
            print(
                f"cluster of {cfg.cluster.nodes} nodes "
                f"(SD(n={store.n}, r={store.r}, m={store.m}, s={store.s}) "
                f"x {store.stripes} stripes, transport "
                f"{cfg.cluster.transport}) on {host}:{port}"
            )
            try:
                async with server:
                    await server.serve_forever()
            except asyncio.CancelledError:  # pragma: no cover - signal-driven
                pass
            finally:
                print(json.dumps(cluster.metrics_dict(), indent=2))
        return 0

    try:
        return asyncio.run(main())
    except KeyboardInterrupt:  # pragma: no cover - interactive
        return 0


def _print_loadgen_summary(summary: dict, label: str | None = None) -> None:
    prefix = f"[{label}] " if label else ""
    print(
        f"{prefix}{summary['completed']}/{summary['requests']} requests ok, "
        f"{summary['failed']} failed, {summary.get('corrupt', 0)} corrupt, "
        f"{summary['requests_per_sec']:.1f} req/s"
    )
    if summary.get("errors"):
        breakdown = ", ".join(
            f"{name}={count}" for name, count in sorted(summary["errors"].items())
        )
        print(f"{prefix}failure breakdown: {breakdown}")
    if "latency" in summary:
        lat = summary["latency"]
        print(
            f"{prefix}latency p50 {lat['p50_s'] * 1e3:.2f} ms  "
            f"p99 {lat['p99_s'] * 1e3:.2f} ms  max {lat['max_s'] * 1e3:.2f} ms"
        )


def _cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .service import (
        build_request_schedule,
        connect,
        run_loadgen,
        run_loadgen_multi,
    )

    cfg = _app_config(args)
    workload = cfg.workload

    async def run_inprocess() -> tuple[dict, dict]:
        """One in-process backend: a service, or a cluster (--cluster)."""
        use_cluster = args.cluster or args.nodes is not None
        backend = appcfg.build_cluster(cfg) if use_cluster else appcfg.build_service(cfg)
        schedule = build_request_schedule(
            backend, workload.requests, seed=cfg.store.seed,
            degraded_fraction=workload.degraded_fraction,
        )
        async with backend:
            summary = await run_loadgen(
                backend, schedule, concurrency=workload.concurrency, verify=True
            )
            return summary, backend.metrics_dict()

    async def run_remote() -> tuple[dict, dict]:
        """One or more ``--connect`` endpoints, driven concurrently."""
        clients = [
            await connect(endpoint, connections=workload.concurrency)
            for endpoint in args.connect
        ]
        # a remote client cannot see the store, so the schedule is a
        # plain round-robin over --stripes present block 0 reads
        schedule = [
            ("get", i % cfg.store.stripes, 0) for i in range(workload.requests)
        ]
        try:
            multi = await run_loadgen_multi(
                clients,
                [schedule] * len(clients),
                concurrency=workload.concurrency,
                verify=True,
            )
            # label client summaries by their endpoint strings
            multi["endpoints"] = dict(
                zip(args.connect, multi["endpoints"].values())
            )
            metrics = {
                endpoint: await client.metrics()
                for endpoint, client in zip(args.connect, clients)
            }
            return multi, metrics
        finally:
            for client in clients:
                await client.close()

    remote = bool(args.connect)
    summary, metrics = asyncio.run(run_remote() if remote else run_inprocess())
    if "aggregate" in summary:  # multi-endpoint result
        for endpoint, endpoint_summary in summary["endpoints"].items():
            _print_loadgen_summary(endpoint_summary, label=endpoint)
        _print_loadgen_summary(summary["aggregate"], label="aggregate")
        flat = summary["aggregate"]
    else:
        _print_loadgen_summary(summary)
        flat = summary
        coal = metrics.get("coalescing", {})
        if coal:
            print(
                f"coalesce factor {coal['coalesce_factor']:.2f} "
                f"({coal['flushed_reads']} reads / {coal['flushes']} flushes), "
                f"queue peak {coal['queue_depth_peak']}"
            )
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"loadgen": summary, "service": metrics}, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    if flat["failed"] or flat.get("corrupt", 0):
        print("FAIL: requests failed or responses corrupt")
        return 1
    return 0


def _cmd_encode_file(args: argparse.Namespace) -> int:
    from .codes import get_code
    from .filecodec import encode_file

    params = dict(pair.split("=", 1) for pair in args.param)
    code = get_code(args.kind, **{k: int(v) for k, v in params.items()})
    meta = encode_file(args.file, code, args.out, sector_bytes=args.sector_bytes)
    print(
        f"encoded {meta.original_name} ({meta.original_size} bytes) into "
        f"{code.n} strips x {meta.num_stripes} stripes under {args.out}"
    )
    return 0


def _cmd_decode_file(args: argparse.Namespace) -> int:
    from .core import PPMDecoder, TraditionalDecoder
    from .filecodec import decode_file

    decoder = (
        TraditionalDecoder() if args.traditional else PPMDecoder(parallel=False)
    )
    meta = decode_file(args.meta, args.out, decoder=decoder)
    print(f"reconstructed {meta.original_name} -> {args.out}")
    return 0


def _cmd_repair_files(args: argparse.Namespace) -> int:
    from .filecodec import repair_files

    repaired = repair_files(args.meta)
    if repaired:
        print(f"regenerated strip files for disks {repaired}")
    else:
        print("all strip files present; nothing to repair")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ppm",
        description="PPM (ICPP 2015) reproduction: partitioned & parallel matrix decoding",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_fig = sub.add_parser("figure", help="regenerate one evaluation figure")
    p_fig.add_argument("number", type=int, choices=range(4, 12))
    p_fig.add_argument("--full", action="store_true", help="paper-scale sweep sizes")
    p_fig.add_argument("--csv", action="store_true", help="emit CSV instead of a table")
    p_fig.add_argument("--out", help="write to a file instead of stdout")
    p_fig.set_defaults(func=_cmd_figure)

    p_figs = sub.add_parser("figures", help="regenerate every evaluation figure")
    p_figs.add_argument("--full", action="store_true")
    p_figs.set_defaults(func=_cmd_figures)

    p_ex = sub.add_parser("paper-example", help="the Section III-B worked example")
    p_ex.set_defaults(func=_cmd_paper_example)

    p_cal = sub.add_parser("calibrate", help="measure this host's GF kernel profile")
    p_cal.set_defaults(func=_cmd_calibrate)

    p_demo = sub.add_parser("demo", help="encode, fail and PPM-decode one stripe")
    p_demo.add_argument("--n", type=int, default=8)
    p_demo.add_argument("--r", type=int, default=16)
    p_demo.add_argument("--m", type=int, default=2)
    p_demo.add_argument("--s", type=int, default=2)
    p_demo.add_argument("--symbols", type=int, default=4096)
    p_demo.add_argument("--threads", type=int, default=4)
    p_demo.add_argument("--seed", type=int, default=2015)
    p_demo.set_defaults(func=_cmd_demo)

    p_list = sub.add_parser("list-codes", help="registered erasure-code kinds")
    p_list.set_defaults(func=_cmd_list_codes)

    p_rep = sub.add_parser("reproduce", help="write all figures into a directory")
    p_rep.add_argument("--out", default="results")
    p_rep.add_argument("--full", action="store_true")
    p_rep.add_argument("--extras", action="store_true", help="also run the extra experiments")
    p_rep.set_defaults(func=_cmd_reproduce)

    p_vfy = sub.add_parser(
        "verify",
        help="statically verify decode plans (and their compiled programs) across codes",
    )
    p_vfy.add_argument("--all", action="store_true", help="sweep every registered kind")
    p_vfy.add_argument("kind", nargs="?", help="registry name, e.g. sd (default: --all)")
    p_vfy.add_argument("param", nargs="*", help="constructor params, e.g. n=6 r=4 m=2 s=2")
    p_vfy.add_argument("--samples", type=int, default=50, help="scenarios per code")
    p_vfy.add_argument("--seed", type=int, default=2015)
    p_vfy.add_argument(
        "--no-programs",
        action="store_true",
        help="skip compiled-program verification",
    )
    p_vfy.add_argument(
        "--strict",
        action="store_true",
        help="also byte-compare every executor backend against the baseline "
        "on each certified program (decode scenarios + the encode program)",
    )
    p_vfy.set_defaults(func=_cmd_verify)

    # repro.verify.check.main owns this command's flags (and its -h):
    # with no "-" prefix char here, every argument passes through to it
    p_chk = sub.add_parser(
        "check",
        help="static-analysis gate: lint + race analysis",
        add_help=False,
        prefix_chars="+",
    )
    p_chk.add_argument("argv", nargs="*")
    p_chk.set_defaults(func=_cmd_check)

    p_ver = sub.add_parser("verify-code", help="Monte-Carlo decodability check")
    p_ver.add_argument("kind", help="registry name, e.g. sd")
    p_ver.add_argument("param", nargs="+", help="constructor params, e.g. n=8 r=16 m=2 s=2")
    p_ver.add_argument("--samples", type=int, default=200)
    p_ver.add_argument("--seed", type=int, default=2015)
    p_ver.set_defaults(func=_cmd_verify_code)

    p_search = sub.add_parser("search", help="search SD coefficient sets")
    p_search.add_argument("--n", type=int, required=True)
    p_search.add_argument("--r", type=int, required=True)
    p_search.add_argument("--m", type=int, required=True)
    p_search.add_argument("--s", type=int, required=True)
    p_search.add_argument("--w", type=int, default=8)
    p_search.add_argument("--tries", type=int, default=64)
    p_search.add_argument("--samples", type=int, default=64)
    p_search.set_defaults(func=_cmd_search)

    from .bench.extras import EXTRAS as _extras

    p_extra = sub.add_parser("extra", help="extra experiments beyond the figures")
    p_extra.add_argument("name", choices=sorted(_extras))
    p_extra.add_argument("--full", action="store_true")
    p_extra.add_argument("--csv", action="store_true")
    p_extra.set_defaults(func=_cmd_extra)

    serving = ("store", "service", "pipeline")

    p_srv = sub.add_parser(
        "serve", help="run the degraded-read BlobService on a TCP port"
    )
    _config_flags(p_srv, *serving)
    p_srv.add_argument("--host", default="127.0.0.1")
    p_srv.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p_srv.set_defaults(func=_cmd_serve)

    p_clu = sub.add_parser(
        "cluster",
        help="run a sharded multi-node cluster behind one TCP port",
    )
    _config_flags(p_clu, *serving, "cluster")
    p_clu.add_argument("--host", default="127.0.0.1")
    p_clu.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p_clu.set_defaults(func=_cmd_cluster)

    p_load = sub.add_parser(
        "loadgen", help="drive services/clusters (in-process or TCP) with seeded load"
    )
    _config_flags(p_load, *serving, "cluster", "workload")
    p_load.add_argument("--cluster", action="store_true",
                        help="drive an in-process cluster instead of one service")
    p_load.add_argument("--connect", action="append", metavar="HOST:PORT",
                        help="drive a running `ppm serve`/`ppm cluster` over "
                             "TCP; repeat for several endpoints (per-endpoint "
                             "+ aggregate summaries)")
    p_load.add_argument("--json", help="also write summary + metrics to a file")
    p_load.set_defaults(func=_cmd_loadgen)

    p_enc = sub.add_parser("encode-file", help="encode a file into strip files")
    p_enc.add_argument("file")
    p_enc.add_argument("kind", help="code kind, e.g. sd")
    p_enc.add_argument("param", nargs="+", help="constructor params, e.g. n=6 r=4 m=2 s=2")
    p_enc.add_argument("--out", required=True)
    p_enc.add_argument("--sector-bytes", type=int, default=4096)
    p_enc.set_defaults(func=_cmd_encode_file)

    p_dec = sub.add_parser("decode-file", help="reconstruct a file from strips")
    p_dec.add_argument("meta", help="path to the *_meta.json descriptor")
    p_dec.add_argument("--out", required=True)
    p_dec.add_argument("--traditional", action="store_true")
    p_dec.set_defaults(func=_cmd_decode_file)

    p_fix = sub.add_parser("repair-files", help="regenerate missing strip files")
    p_fix.add_argument("meta", help="path to the *_meta.json descriptor")
    p_fix.set_defaults(func=_cmd_repair_files)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
