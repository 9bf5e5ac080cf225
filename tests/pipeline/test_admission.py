"""PriorityAdmission: foreground-first gating with bounded deferral."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.codes import SDCode
from repro.core import TraditionalDecoder
from repro.pipeline import DecodePipeline, PriorityAdmission
from repro.stripes import Stripe, StripeLayout, worst_case_sd


def test_validates_inputs():
    with pytest.raises(ValueError):
        PriorityAdmission(max_defer_s=-1)
    gate = PriorityAdmission()
    with pytest.raises(ValueError):
        with gate.admit("urgent"):
            pass


def test_foreground_admits_immediately_and_counts():
    gate = PriorityAdmission()
    with gate.admit("foreground"):
        assert gate.foreground_active == 1
        with gate.admit("foreground"):  # classes never block their own kind
            assert gate.foreground_active == 2
    assert gate.foreground_active == 0
    assert gate.deferred_batches == 0


def test_background_defers_until_foreground_clears():
    gate = PriorityAdmission(max_defer_s=5.0)
    entered = threading.Event()
    release = threading.Event()
    order: list[str] = []

    def foreground():
        with gate.admit("foreground"):
            entered.set()
            release.wait(timeout=5.0)
            order.append("foreground-done")

    def background():
        entered.wait(timeout=5.0)
        with gate.admit("background"):
            order.append("background-ran")

    fg = threading.Thread(target=foreground)
    bg = threading.Thread(target=background)
    fg.start()
    bg.start()
    entered.wait(timeout=5.0)
    release.set()
    fg.join(timeout=5.0)
    bg.join(timeout=5.0)
    assert order == ["foreground-done", "background-ran"]
    assert gate.deferred_batches == 1
    assert gate.deferred_seconds > 0.0


def test_anti_starvation_bound():
    """Background proceeds after max_defer_s even under a foreground
    batch that never finishes."""
    gate = PriorityAdmission(max_defer_s=0.02)
    release = threading.Event()

    def stuck_foreground():
        with gate.admit("foreground"):
            release.wait(timeout=5.0)

    fg = threading.Thread(target=stuck_foreground)
    fg.start()
    while not gate.foreground_active:
        pass
    try:
        with gate.admit("background"):
            assert gate.foreground_active == 1  # still running; we gave up waiting
            assert gate.background_active == 1
    finally:
        release.set()
        fg.join(timeout=5.0)
    assert gate.deferred_batches == 1
    assert gate.deferred_seconds >= 0.02


def test_zero_defer_disables_the_gate():
    gate = PriorityAdmission(max_defer_s=0.0)
    with gate.admit("foreground"):
        with gate.admit("background"):  # no deferral at all
            pass
    assert gate.deferred_batches == 0


def test_idle_background_is_not_deferred():
    gate = PriorityAdmission()
    with gate.admit("background"):
        pass
    assert gate.deferred_batches == 0
    assert gate.deferred_seconds == 0.0


def test_pipeline_counts_background_batches():
    code = SDCode(6, 4, 2, 2)
    layout = StripeLayout.of_code(code)
    gen = np.random.default_rng(1)
    encoder = TraditionalDecoder()
    stripes = []
    for _ in range(2):
        stripe = Stripe.random(layout, code.field, 16, gen)
        encoder.encode_into(code, stripe)
        stripes.append(stripe)
    faulty = [list(worst_case_sd(code, z=1, rng=0).faulty_blocks)] * 2
    with DecodePipeline(pool="serial") as pipeline:
        pipeline.decode_batch(code, stripes, faulty)
        pipeline.decode_batch(code, stripes, faulty, priority="background")
        with pytest.raises(ValueError):
            pipeline.decode_batch(code, stripes, faulty, priority="urgent")
        metrics = pipeline.metrics()
    assert metrics.background_batches == 1
    assert metrics.batches == 2
    doc = metrics.as_dict()
    assert doc["background_batches"] == 1
