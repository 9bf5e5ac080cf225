"""Worker-pool lifecycle: lazy spawn, persistence, re-spawn, accounting."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
import threading
from pathlib import Path

import pytest

import repro
from repro.config import from_dict
from repro.pipeline import (
    SerialPool,
    ThreadWorkerPool,
    WorkerPool,
    available_pools,
    make_pool,
)


def test_available_pools():
    assert available_pools() == ("serial", "thread")


@pytest.mark.parametrize("kind", ["serial", "thread"])
def test_make_pool(kind):
    pool = make_pool(kind, workers=2)
    assert pool.kind == kind
    assert pool.workers == 2
    pool.close()


def test_make_pool_unknown_kind():
    with pytest.raises(ValueError, match="unknown pool kind"):
        make_pool("gpu")


def test_process_pool_is_rejected_by_name():
    """Config input naming a pool kind that does not exist fails at
    parse, listing the kinds that do."""
    with pytest.raises(ValueError, match="serial, thread"):
        make_pool("process")
    with pytest.raises(ValueError, match="serial, thread"):
        from_dict({"pipeline": {"pool": "process"}})


@pytest.mark.parametrize("cls", [SerialPool, ThreadWorkerPool])
def test_worker_validation(cls):
    with pytest.raises(ValueError):
        cls(0)


def test_lazy_spawn_and_persistence():
    pool = ThreadWorkerPool(2)
    assert not pool.alive
    assert pool.spawn_count == 0
    try:
        assert pool.submit(int, "7").result() == 7
        assert pool.alive
        assert pool.spawn_count == 1
        # further submissions reuse the same executor
        for _ in range(5):
            pool.submit(len, "abc").result()
        assert pool.spawn_count == 1
        assert pool.spawn_seconds >= 0.0
    finally:
        pool.close()


def test_close_then_respawn():
    pool = ThreadWorkerPool(1)
    pool.submit(int, "1").result()
    pool.close()
    assert not pool.alive
    assert pool.submit(int, "2").result() == 2
    assert pool.spawn_count == 2
    pool.close()


def test_serial_pool_never_spawns():
    pool = SerialPool()
    assert pool.submit(sum, [1, 2, 3]).result() == 6
    assert pool.spawn_count == 0
    assert not pool.alive
    pool.close()  # no-op, must not raise


def test_serial_pool_propagates_exceptions():
    pool = SerialPool()
    future = pool.submit(int, "not a number")
    with pytest.raises(ValueError):
        future.result()


def test_thread_pool_actually_uses_worker_threads():
    with ThreadWorkerPool(2) as pool:
        names = [
            pool.submit(lambda: threading.current_thread().name).result()
            for _ in range(8)
        ]
    assert all(name.startswith("ppm-pool") for name in names)


def test_context_manager_closes():
    with ThreadWorkerPool(1) as pool:
        pool.submit(int, "3").result()
        assert pool.alive
    assert not pool.alive


def test_base_pool_is_serial():
    pool = WorkerPool(1)
    assert pool.submit(int, "9").result() == 9


def test_abandoned_thread_pool_does_not_block_exit():
    """A decoder whose pool is still spawned at interpreter exit (no
    ``close()``) exits promptly: :mod:`concurrent.futures` joins every
    thread executor's idle workers before the interpreter finalises."""
    script = textwrap.dedent(
        """
        from repro.codes import SDCode
        from repro.core import PPMDecoder, TraditionalDecoder
        from repro.stripes import Stripe, StripeLayout, worst_case_sd

        code = SDCode(6, 4, 2, 2)
        faulty = worst_case_sd(code, z=1, rng=0).faulty_blocks
        stripe = Stripe.random(StripeLayout.of_code(code), code.field, 64, rng=1)
        TraditionalDecoder().encode_into(code, stripe)
        decoder = PPMDecoder(threads=2)
        decoder.decode(code, stripe, faulty)
        assert decoder.pool.alive
        """
    )
    src = str(Path(repro.__file__).resolve().parents[1])
    path = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    done = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
