"""Fixtures for the figure-driver tests."""

import pytest

from repro.parallel import CPUProfile

#: quiet-host calibration of the 2-vCPU container these tests run on
QUIET_HOST = CPUProfile(
    name="host(pinned)", cores=2, ghz=1.0, base_throughput=4.1e8, spawn_overhead_s=6e-5
)


@pytest.fixture
def pinned_host_profile(monkeypatch):
    """Feed the makespan-model figures a fixed host profile.

    ``host_profile()`` is measured by wall clock, so on a busy host an
    inflated spawn overhead turns a modelled gain negative; the shape
    tests are about the model, and calibration itself is covered by
    ``tests/parallel/test_calibrate.py``.
    """
    monkeypatch.setattr(
        "repro.bench.figures.host_profile", lambda w=8, refresh=False: QUIET_HOST
    )
