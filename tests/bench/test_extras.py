"""Integration tests for the extra experiments."""

import pytest

from repro.bench import EXTRAS, run_extra


def test_all_extras_registered():
    assert set(EXTRAS) == {"paper-average", "c2-share", "degraded-read-io"}


def test_run_extra_unknown():
    with pytest.raises(ValueError):
        run_extra("frobnicate")


def test_c2_share_only_small_n():
    report = run_extra("c2-share")
    for n in report.column("n"):
        assert n <= 9  # the paper's boundary
    assert any("C2 < C4" in note for note in report.notes)


def test_degraded_read_lrc_cheapest():
    report = run_extra("degraded-read-io")
    by_code = {row[0]: row[1] for row in report.rows}
    assert by_code["LRC(12,4,2)"] < by_code["RS(16,12)"]
    assert by_code["LRC(12,4,2)"] < by_code["SD(14,16,2,2) row"]

