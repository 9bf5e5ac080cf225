"""The four benchmark workloads (see perf/README.md for why these four).

Every workload is closed loop, runs SD(n=10, r=8, m=2, s=2) over GF(2^8)
with ``policy=PAPER``, ``compile=True`` and a 2-thread pool, and pins its
kernel backend through the public ``set_default_backend`` /
``AppConfig.kernels.backend`` (auto-tune picks differently in about one
process of four on this host; tuner quality is tracked separately by the
``kernels.autotune.*`` metrics).

The erasure geometry (which blocks are lost) is a *workload constant*;
``--seed`` picks the data, the order patterns are visited in and the
request schedule.  Decode cost depends on the geometry and not on the
data, so two seeds measure the same work on different bytes.

A workload object offers ``generate`` (harness RNG, untimed), ``setup``
(program set-up, timed), ``run_round`` / ``check`` (timed ops, then the
ground-truth comparison outside the timer), ``snapshot`` (the program's
public stats) and ``close``.
"""

from __future__ import annotations

import asyncio
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from layers import delta, flatten
from provenance import PERF_DIR
from repro.codes import SDCode
from repro.config import build_store, from_dict, to_dict
from repro.core import TraditionalDecoder, plan_decode
from repro.core.sequences import SequencePolicy
from repro.kernels import ProgramCache, ProgramExecutor
from repro.kernels.backends import set_default_backend
from repro.pipeline import DecodePipeline
from repro.service import ServiceError, connect
from repro.stripes import Stripe, StripeLayout
from repro.stripes.failures import worst_case_sd

CODE = {"n": 10, "r": 8, "m": 2, "s": 2}
WORKERS = 2
POLICY = SequencePolicy.PAPER

#: Seeds the erasure geometry (one worst-case pattern, the 512-pattern
#: pool, the wire store's damage).  Fixed, so every ``--seed`` decodes
#: patterns of the same cost and ``gf_symbols_per_byte`` is one number.
GEOMETRY_SEED = 2015

#: The schedule index the wire-bytes probe replays (no timed round reaches it).
WIRE_PROBE_ROUND = 1 << 21


@dataclass
class RoundResult:
    """What one round did: per-op wall times, payload, and its outputs."""

    op_ms: list[float]
    seconds: float  # timed wall of the round's ops
    payload_bytes: int
    failed: int = 0
    outputs: list = field(default_factory=list)
    op_kinds: list[str] = field(default_factory=list)


class Workload:
    """What the runner needs from a workload; sizes are class attributes.

    The defaults are the benchmark's sizes; ``perf/tests`` passes smaller
    ones as keyword arguments to run the same code in seconds.
    """

    name = ""
    backend = "numpy"
    warmup_rounds = 3
    pass_rounds = 1  # rounds per whole pass over the inputs
    tail_metric = "pipeline.op_tail_ms"

    def __init__(self, seed: int, **sizes):
        self.seed = seed
        for key, value in sizes.items():
            if not hasattr(type(self), key):
                raise TypeError(f"{type(self).__name__} has no size {key!r}")
            setattr(self, key, value)

    def build_truth(self) -> None:
        """Ground truth the harness must build beside the program (untimed)."""

    def layer_probes(self) -> dict[str, float]:
        """Per-layer metrics only this workload can measure (traced runs)."""
        return {}

    def finish(self) -> int:
        """Post-run checks; returns further mismatches."""
        return 0

    def children_peak_rss_mb(self) -> float:
        return 0.0


class PipelineWorkload(Workload):
    """One caller looping a ``DecodePipeline`` batch call."""

    stripes = 32
    symbols = 4096
    ops_per_round = 16
    call_name = "decode_batch"
    pipeline = None

    # -- inputs (harness RNG, untimed) -------------------------------------

    def generate(self) -> None:
        rng = np.random.default_rng(self.seed)
        blocks = CODE["n"] * CODE["r"]
        self.data = rng.integers(
            0, 256, size=(self.stripes, blocks, self.symbols), dtype=np.uint8
        )

    # -- program set-up (timed) --------------------------------------------

    def setup(self) -> None:
        set_default_backend(self.backend)
        self.code = SDCode(**CODE)
        layout = StripeLayout.of_code(self.code)
        stripes = [
            Stripe(layout, self.code.field, self.symbols, blocks=dict(enumerate(rows)))
            for rows in self.data
        ]
        TraditionalDecoder().encode_into_batch(self.code, stripes)
        #: encoded ground truth, one {block: region} map per stripe
        self.truth = [{b: s.get(b) for b in s.present_ids} for s in stripes]
        self.pipeline = DecodePipeline(
            workers=WORKERS, pool="thread", policy=POLICY, compile=True
        )
        self._replay_executor = ProgramExecutor(self.code.field)

    def config(self) -> dict:
        return {
            "code": dict(CODE),
            "stripes": self.stripes,
            "symbols": self.symbols,
            "ops_per_round": self.ops_per_round,
            "pool": "thread",
            "workers": WORKERS,
            "policy": POLICY.value,
            "compile": True,
        }

    # -- ops ------------------------------------------------------------------

    def round_ops(self, index: int) -> list[tuple[list[dict], list[tuple[int, ...]]]]:
        """``(block maps, pattern per stripe)`` for each op of round ``index``."""
        raise NotImplementedError

    def call(self, maps, patterns):
        return self.pipeline.decode_batch(self.code, maps, patterns)

    def payload_bytes(self, patterns) -> int:
        """User bytes one op produces: the erased blocks it reconstructs."""
        return sum(len(p) for p in patterns) * self.symbols

    def patterns(self) -> list[tuple[int, ...]]:
        """Distinct erasure patterns this workload decodes."""
        raise NotImplementedError

    def fused_stripes(self) -> int:
        """Stripes sharing one pattern in an op (the fused region factor)."""
        return self.stripes

    def run_round(self, index: int, tracer=None, parent=None) -> RoundResult:
        ops = self.round_ops(index)
        result = RoundResult([], 0.0, 0)
        for maps, patterns in ops:
            if tracer is None:
                t0 = time.perf_counter()
                out = self.call(maps, patterns)
                elapsed = time.perf_counter() - t0
            else:
                before = flatten(self.snapshot())
                op_span = tracer.begin("op", parent)
                call_span = tracer.begin(self.call_name, op_span)
                out = self.call(maps, patterns)
                elapsed = tracer.end(call_span)
                self._replay(tracer, op_span, maps, patterns)
                tracer.end(op_span, stats=delta(before, flatten(self.snapshot())))
            result.op_ms.append(elapsed * 1e3)
            result.seconds += elapsed
            result.payload_bytes += self.payload_bytes(patterns)
            result.outputs.append((patterns, out))
            result.op_kinds.append(self.call_name)
        return result

    def _replay(self, tracer, parent, maps, patterns) -> None:
        """The layers under one op, called standalone on the op's own inputs.

        Measured from outside: the same public functions the engine
        calls, each in its own span, so an op's time can be set against
        what planning, compiling, fusing and kernel execution cost alone.
        """
        field = self.code.field
        by_pattern: dict[tuple[int, ...], list[int]] = {}
        for i, pattern in enumerate(patterns):
            by_pattern.setdefault(pattern, []).append(i)
        span = tracer.begin("plan_decode", parent)
        plans = {p: plan_decode(self.code, p, POLICY) for p in by_pattern}
        tracer.end(span)
        span = tracer.begin("ProgramCache.plan_program", parent)
        programs = {p: ProgramCache().plan_program(field, plans[p]) for p in by_pattern}
        tracer.end(span)
        span = tracer.begin("fuse", parent)
        fused = {
            p: [
                np.concatenate([maps[i][b] for i in by_pattern[p]])
                for b in programs[p].input_ids
            ]
            for p in by_pattern
        }
        tracer.end(span)
        span = tracer.begin("ProgramExecutor.execute", parent)
        for p in by_pattern:
            self._replay_executor.execute(programs[p].program, fused[p])
        tracer.end(span)

    # -- ground truth (untimed) --------------------------------------------------

    def check(self, result: RoundResult) -> int:
        mismatches = 0
        for patterns, out in result.outputs:
            for i, pattern in enumerate(patterns):
                for b in pattern:
                    if not np.array_equal(out[i][b], self.truth[i][b]):
                        mismatches += 1
        return mismatches

    # -- public stats ------------------------------------------------------------

    def snapshot(self) -> dict:
        return {
            "pipeline": self.pipeline.metrics().as_dict(),
            "kernels": self.pipeline.executor_stats(),
        }

    def close(self) -> None:
        if self.pipeline is not None:
            self.pipeline.close()
            self.pipeline = None


class RebuildLarge(PipelineWorkload):
    """32 x 4096 stripes sharing one worst-case pattern: kernels + engine."""

    name = "rebuild_large"
    backend = "bitsliced"

    def generate(self) -> None:
        super().generate()
        self.pattern = worst_case_sd(SDCode(**CODE), z=1, rng=GEOMETRY_SEED).faulty_blocks

    def setup(self) -> None:
        super().setup()
        lost = set(self.pattern)
        self.maps = [
            {b: region for b, region in truth.items() if b not in lost}
            for truth in self.truth
        ]

    def round_ops(self, index):
        return [(self.maps, [self.pattern] * self.stripes)] * self.ops_per_round

    def patterns(self):
        return [self.pattern]


class EncodeLarge(PipelineWorkload):
    """The same 32 x 4096 stripes, encoded: the kernels the other way round."""

    name = "encode_large"
    backend = "bitsliced"
    call_name = "encode_batch"

    def setup(self) -> None:
        super().setup()
        self.parity = tuple(self.code.parity_block_ids)
        data_ids = self.code.data_block_ids
        self.maps = [{b: truth[b] for b in data_ids} for truth in self.truth]

    def round_ops(self, index):
        return [(self.maps, [self.parity] * self.stripes)] * self.ops_per_round

    def call(self, maps, patterns):
        return self.pipeline.encode_batch(self.code, maps)

    def payload_bytes(self, patterns) -> int:
        """User bytes one op consumes: the data blocks it encodes."""
        return len(self.code.data_block_ids) * self.symbols * self.stripes

    def patterns(self):
        return [tuple(SDCode(**CODE).parity_block_ids)]


class ScatterSmall(PipelineWorkload):
    """16 x 128 stripes, a different pattern each, from a pool 4x the PlanCache."""

    name = "scatter_small"
    backend = "numpy"
    stripes = 16
    symbols = 128
    ops_per_round = 4
    pool_size = 512

    def generate(self) -> None:
        super().generate()
        code = SDCode(**CODE)
        rng = np.random.default_rng(GEOMETRY_SEED)
        pool: dict[tuple[int, ...], None] = {}
        while len(pool) < self.pool_size:
            pool[worst_case_sd(code, rng=rng).faulty_blocks] = None
        self.pool = list(pool)
        per_round = self.ops_per_round * self.stripes
        if self.pool_size % per_round:
            raise ValueError("pool_size must be a multiple of ops_per_round * stripes")
        # every pass visits each pool pattern exactly once, so every pass
        # costs the same symbols whatever order the seed puts them in
        self.pass_rounds = self.pool_size // per_round

    def round_ops(self, index):
        pass_index, slot = divmod(index, self.pass_rounds)
        order = np.random.default_rng([self.seed, pass_index]).permutation(self.pool_size)
        per_round = self.ops_per_round * self.stripes
        chosen = order[slot * per_round : (slot + 1) * per_round]
        ops = []
        for k in range(self.ops_per_round):
            patterns = [
                self.pool[int(p)] for p in chosen[k * self.stripes : (k + 1) * self.stripes]
            ]
            maps = [
                {b: region for b, region in self.truth[i].items() if b not in lost}
                for i, lost in enumerate(map(set, patterns))
            ]
            ops.append((maps, patterns))
        return ops

    def patterns(self):
        return self.pool

    def fused_stripes(self) -> int:
        return 1

    def config(self) -> dict:
        return {**super().config(), "pool_size": self.pool_size}


@dataclass
class Request:
    op: str
    stripe: int
    block: int
    data: np.ndarray | None = None


class WireMixed(Workload):
    """Two TCP connections against a served 256 x 2048 store, 70/20/10 mix."""

    name = "wire_mixed"
    backend = "numpy"
    call_name = "request"
    tail_metric = "service.op_tail_ms"
    stripes = 256
    #: 4096-symbol sectors put kernels.exec_share at 0.40 here; 2048 keeps
    #: this the workload the wire and the flush wait own (share ~0.17)
    symbols = 2048
    connections = 2
    #: degraded_get / get / put per connection per round (70% / 20% / 10%)
    mix = (49, 14, 7)
    put_slots = 8  # per connection: the blocks puts overwrite

    def __init__(self, seed: int, **sizes):
        super().__init__(seed, **sizes)
        self.server = None
        self.clients: list = []
        self.loop = None
        self.truth_store = None
        self.overlay: dict[tuple[int, int], np.ndarray] = {}
        self._server_peak_mb = 0.0
        self._probe_mismatches = 0

    def app_config(self, symbols: int | None = None):
        return from_dict(
            {
                "store": {
                    **CODE,
                    "stripes": self.stripes,
                    "symbols": self.symbols if symbols is None else symbols,
                    "fault_rate": 0.0,
                    "damaged": 0.5,
                    "seed": GEOMETRY_SEED,
                },
                "pipeline": {"pool": "thread", "workers": WORKERS},
                "kernels": {"backend": self.backend},
            }
        )

    def config(self) -> dict:
        return {
            "app_config": to_dict(self.app_config()),
            "connections": self.connections,
            "mix": list(self.mix),
        }

    def generate(self) -> None:
        # a one-symbol replica has the served store's geometry (which
        # stripes are damaged, and how) at none of its size
        replica = build_store(self.app_config(symbols=1))
        self.code = replica.code
        erased = [s for s in replica.stripe_ids if replica.pattern(s)]
        healthy = [s for s in replica.stripe_ids if not replica.pattern(s)]
        self.pattern = replica.pattern(erased[0])
        n = self.connections
        self.erased = [erased[k::n] for k in range(n)]
        self.healthy = [healthy[k::n] for k in range(n)]
        data_ids = replica.code.data_block_ids
        rng = np.random.default_rng([self.seed, 0xB10C])
        self.slots = [
            [
                (int(rng.choice(self.healthy[k])), int(rng.choice(data_ids)))
                for _ in range(self.put_slots)
            ]
            for k in range(n)
        ]

    def build_truth(self) -> None:
        """Full-size replica of the served store: the harness's ground truth."""
        self.truth_store = build_store(self.app_config())

    def setup(self) -> None:
        set_default_backend(self.backend)
        # the child imports repro from wherever this process found it
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in sys.path if p)}
        self.server = subprocess.Popen(
            [
                sys.executable,
                os.path.join(PERF_DIR, "serve_child.py"),
                json.dumps(to_dict(self.app_config())),
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        line = self.server.stdout.readline()
        if not line.strip():
            raise RuntimeError("wire server exited before announcing its port")
        self.port = int(line)
        self.loop = asyncio.new_event_loop()
        self.clients = [
            self.loop.run_until_complete(connect(f"127.0.0.1:{self.port}"))
            for _ in range(self.connections)
        ]

    # -- schedule ---------------------------------------------------------------

    def schedule(self, index: int) -> list[list[Request]]:
        """Round ``index``'s requests, one ordered list per connection."""
        degraded, gets, puts = self.mix
        per_connection = []
        for k in range(self.connections):
            rng = np.random.default_rng([self.seed, index, k])
            requests = [
                Request(
                    "degraded_get",
                    int(rng.choice(self.erased[k])),
                    int(rng.choice(self.pattern)),
                )
                for _ in range(degraded)
            ]
            requests += [
                Request(
                    "get",
                    int(rng.choice(self.healthy[k])),
                    int(rng.integers(self.code.num_blocks)),
                )
                for _ in range(gets)
            ]
            for _ in range(puts):
                stripe, block = self.slots[k][int(rng.integers(len(self.slots[k])))]
                data = rng.integers(0, 256, size=self.symbols, dtype=np.uint8)
                requests.append(Request("put", stripe, block, data))
            order = rng.permutation(len(requests))
            per_connection.append([requests[int(i)] for i in order])
        return per_connection

    def payload_bytes(self, requests: int) -> int:
        return requests * self.symbols  # every request moves one block

    async def _issue(self, client, request: Request):
        if request.op == "put":
            await client.put(request.stripe, request.block, request.data)
            return None
        method = client.degraded_get if request.op == "degraded_get" else client.get
        return await method(request.stripe, request.block)

    async def _drive(self, k: int, requests: list[Request], tracer, parent):
        client = self.clients[k]
        timings, outputs, failed = [], [], 0
        for request in requests:
            span = None if tracer is None else tracer.begin(request.op, parent, conn=k)
            t0 = time.perf_counter()
            try:
                out = await self._issue(client, request)
            except ServiceError:
                failed += 1
                out = None
            elapsed = time.perf_counter() - t0
            if span is not None:
                tracer.end(span)
            timings.append(elapsed * 1e3)
            outputs.append(out)
        return timings, outputs, failed

    def run_round(self, index: int, tracer=None, parent=None) -> RoundResult:
        schedule = self.schedule(index)
        async def drive_all():
            return await asyncio.gather(
                *(
                    self._drive(k, requests, tracer, parent)
                    for k, requests in enumerate(schedule)
                )
            )

        t0 = time.perf_counter()
        done = self.loop.run_until_complete(drive_all())
        seconds = time.perf_counter() - t0
        result = RoundResult([], seconds, 0)
        for requests, (timings, outputs, failed) in zip(schedule, done):
            result.op_ms.extend(timings)
            result.op_kinds.extend(r.op for r in requests)
            result.failed += failed
            result.payload_bytes += self.payload_bytes(len(requests))
            result.outputs.append((requests, outputs))
        return result

    # -- ground truth ------------------------------------------------------------

    def _expected(self, stripe: int, block: int) -> np.ndarray:
        key = (stripe, block)
        if key in self.overlay:
            return self.overlay[key]
        return self.truth_store.truth(stripe).get(block)

    def check(self, result: RoundResult) -> int:
        mismatches = 0
        # connections own disjoint stripes, so replaying each one's
        # requests in its own order reproduces what the server held
        for requests, outputs in result.outputs:
            for request, out in zip(requests, outputs):
                if request.op == "put":
                    self.overlay[(request.stripe, request.block)] = request.data
                elif out is None or not np.array_equal(
                    np.asarray(out, dtype=np.uint8),
                    self._expected(request.stripe, request.block),
                ):
                    mismatches += 1
        return mismatches

    # -- wire probes (traced runs) --------------------------------------------------

    def layer_probes(self) -> dict[str, float]:
        """The protocol floor, and the bytes the socket carries per payload byte."""
        ping_ms, wire_bytes, result = self.loop.run_until_complete(self._wire_probes())
        self._probe_mismatches = self.check(result)
        return {
            "service.net.ping_ms": statistics.median(ping_ms),
            "service.net.wire_bytes_per_byte": wire_bytes / result.payload_bytes,
        }

    async def _wire_probes(self):
        ping_ms = []
        for _ in range(200):
            t0 = time.perf_counter()
            await self.clients[0].ping()
            ping_ms.append((time.perf_counter() - t0) * 1e3)

        # one connection's round, replayed through a byte-counting relay:
        # exact bytes on the socket without touching the timed connections
        carried = 0

        async def pump(reader, writer):
            nonlocal carried
            while data := await reader.read(1 << 16):
                carried += len(data)
                writer.write(data)
                await writer.drain()
            writer.close()

        async def relay(reader, writer):
            up_reader, up_writer = await asyncio.open_connection("127.0.0.1", self.port)
            await asyncio.gather(pump(reader, up_writer), pump(up_reader, writer))

        server = await asyncio.start_server(relay, "127.0.0.1", 0)
        client = await connect(f"127.0.0.1:{server.sockets[0].getsockname()[1]}")
        requests = self.schedule(WIRE_PROBE_ROUND)[0]
        outputs = [await self._issue(client, request) for request in requests]
        await client.close()
        server.close()
        await server.wait_closed()
        result = RoundResult([], 0.0, self.payload_bytes(len(requests)))
        result.outputs.append((requests, outputs))
        return ping_ms, carried, result

    def finish(self) -> int:
        """Read every overwritten block back: did the puts land?"""

        async def readback() -> int:
            wrong = 0
            for (stripe, block), data in self.overlay.items():
                got = await self.clients[0].get(stripe, block)
                wrong += not np.array_equal(np.asarray(got, dtype=np.uint8), data)
            return wrong

        return self._probe_mismatches + self.loop.run_until_complete(readback())

    # -- public stats ------------------------------------------------------------

    def snapshot(self) -> dict:
        return self.loop.run_until_complete(self.clients[0].metrics())

    def patterns(self):
        return [self.pattern]

    def fused_stripes(self) -> int:
        return 1

    def children_peak_rss_mb(self) -> float:
        return self._server_peak_mb

    def close(self) -> None:
        if self.loop is not None:
            for client in self.clients:
                self.loop.run_until_complete(client.close())
            self.clients = []
            self.loop.close()
            self.loop = None
        if self.server is not None:
            self._server_peak_mb = _peak_rss_mb(self.server.pid)
            self.server.stdin.close()  # the child serves until stdin closes
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server.stdout.close()
            self.server = None


def _peak_rss_mb(pid: int) -> float:
    """``VmHWM`` of a live process, in MB (0.0 when unreadable)."""
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


WORKLOADS = {
    cls.name: cls for cls in (RebuildLarge, EncodeLarge, ScatterSmall, WireMixed)
}
