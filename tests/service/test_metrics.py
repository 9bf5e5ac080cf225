"""LatencyHistogram percentiles and ServiceMetrics accounting."""

from __future__ import annotations

import json

import pytest

from repro.service import ServiceMetrics
from repro.service.metrics import LatencyHistogram


def test_histogram_empty():
    h = LatencyHistogram()
    d = h.as_dict()
    assert d["count"] == 0
    assert d["p50_s"] == 0.0
    assert d["p99_s"] == 0.0
    assert d["min_s"] == 0.0


def test_histogram_basic_stats():
    h = LatencyHistogram()
    for v in (0.001, 0.002, 0.004, 0.008):
        h.observe(v)
    assert h.count == 4
    assert h.max_seconds == pytest.approx(0.008)
    assert h.min_seconds == pytest.approx(0.001)
    assert h.mean_seconds == pytest.approx(0.00375)


def test_histogram_percentiles_overestimate_at_most_2x():
    h = LatencyHistogram()
    samples = [0.0005 * (i + 1) for i in range(100)]
    for v in samples:
        h.observe(v)
    for p in (50, 90, 99):
        exact = samples[int(p / 100 * len(samples)) - 1]
        est = h.percentile(p)
        assert exact <= est <= 2 * exact + 1e-12
    assert h.percentile(100) == pytest.approx(max(samples))


def test_histogram_clamps_negative_and_validates_p():
    h = LatencyHistogram()
    h.observe(-1.0)  # clock skew: clamp, don't crash
    assert h.min_seconds == 0.0
    with pytest.raises(ValueError):
        h.percentile(101)


def test_coalesce_factor():
    m = ServiceMetrics()
    assert m.coalesce_factor == 0.0  # no flushes yet
    m.flushes = 4
    m.flushed_reads = 22
    assert m.coalesce_factor == pytest.approx(5.5)


def test_queue_depth_gauge_tracks_peak():
    m = ServiceMetrics()
    m.enqueue(3)
    m.enqueue(2)
    m.dequeue(4)
    m.enqueue(1)
    assert m.queue_depth == 2
    assert m.queue_depth_peak == 5
    m.dequeue(10)
    assert m.queue_depth == 0  # never negative


def test_as_dict_is_json_ready_and_nests_pipeline():
    m = ServiceMetrics()
    m.gets = 3
    m.degraded_gets = 2
    m.flushes = 1
    m.flushed_reads = 2
    m.request.observe(0.01)
    d = m.as_dict(pipeline={"stripes": 2, "mult_xors": 123})
    json.dumps(d)  # must round-trip
    assert d["requests"]["gets"] == 3
    assert d["coalescing"]["coalesce_factor"] == pytest.approx(2.0)
    assert d["latency"]["request"]["count"] == 1
    assert d["pipeline"]["mult_xors"] == 123
    assert "pipeline" not in m.as_dict()
