"""ServiceConfig validation and backoff schedule."""

from __future__ import annotations

import dataclasses

import pytest

from repro.service import ServiceConfig


def test_defaults_encode_the_benchmark_gate():
    config = ServiceConfig()
    assert config.batch_trigger == 8
    assert config.max_retries >= 2  # must cover FaultInjector.max_consecutive


@pytest.mark.parametrize(
    "kwargs",
    [
        {"batch_trigger": 0},
        {"flush_interval_s": -0.1},
        {"max_pending": 0},
        {"default_deadline_s": 0.0},
        {"max_retries": -1},
        {"backoff_base_s": -1.0},
        {"backoff_base_s": 0.2, "backoff_cap_s": 0.1},
    ],
)
def test_validation_rejects_bad_knobs(kwargs):
    with pytest.raises(ValueError):
        ServiceConfig(**kwargs)


def test_config_is_frozen():
    config = ServiceConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        config.batch_trigger = 4  # type: ignore[misc]


def test_backoff_is_exponential_and_capped():
    config = ServiceConfig(backoff_base_s=0.001, backoff_cap_s=0.004)
    assert config.backoff(0) == pytest.approx(0.001)
    assert config.backoff(1) == pytest.approx(0.002)
    assert config.backoff(2) == pytest.approx(0.004)
    assert config.backoff(3) == pytest.approx(0.004)  # capped
    assert config.backoff(30) == pytest.approx(0.004)
