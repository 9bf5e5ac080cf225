"""The reduction rules every reported number goes through."""

import pytest

from stats import Tracer, iqr_over_median, percentile, tail_percentile, whole_pass_rounds


def test_percentile_is_nearest_rank():
    samples = list(range(1, 101))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([7.0], 99.9) == 7.0


@pytest.mark.parametrize(
    "n, expected_p",
    [
        (10_000, 99.9),  # 10 samples beyond p99.9
        (9_999, 99.5),  # 9.999 beyond p99.9: one rung down
        (1_000, 99.0),
        (200, 95.0),
        (100, 90.0),
        (40, 75.0),
    ],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, expected_p):
    p, value = tail_percentile(list(range(n)))
    assert p == expected_p
    assert sum(1 for x in range(n) if x > value) >= 10 - 1  # nearest rank: >= 10 at or beyond


def test_tail_falls_back_to_median_when_nothing_qualifies():
    assert tail_percentile([1.0, 2.0, 3.0]) == (50.0, 2.0)


def test_iqr_over_median_matches_the_drivers_rule():
    import statistics

    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    assert iqr_over_median(values) == pytest.approx((q3 - q1) / q2)
    assert iqr_over_median([5.0]) == 0.0


def test_whole_pass_rounds_drops_the_partial_pass():
    assert whole_pass_rounds(27, 8) == 24
    assert whole_pass_rounds(7, 8) == 0
    assert whole_pass_rounds(13, 1) == 13
    with pytest.raises(ValueError):
        whole_pass_rounds(3, 0)


def test_self_time_is_span_minus_children():
    tracer = Tracer()
    op = tracer.begin("op")
    a = tracer.begin("a", op)
    covered = tracer.end(a)
    b = tracer.begin("b", op)
    covered += tracer.end(b)
    total = tracer.end(op)
    assert tracer.self_time(op) == pytest.approx(total - covered)
    assert 0.0 <= tracer.child_coverage("op") <= 1.0
    assert [s["parent"] for s in tracer.spans] == [None, op, op]
