"""Tests of the exact-percentile helpers on known sequences.

Run with ``python3 -m pytest perfbench/test_stats.py``.
"""

import pytest

from stats import median, percentile, quartiles, spread


def test_nearest_rank_on_one_to_hundred():
    xs = list(range(1, 101))
    assert percentile(xs, 50) == 50
    assert percentile(xs, 90) == 90
    assert percentile(xs, 100) == 100
    assert percentile(xs, 0.5) == 1


def test_percentile_ignores_input_order():
    assert percentile([5, 1, 4, 2, 3], 50) == 3
    assert percentile([5, 1, 4, 2, 3], 90) == 5


def test_percentile_is_an_observed_value_at_a_bucket_edge():
    # Two modes either side of 8 ms: a bucketed estimator interpolates
    # between them, the exact statistic returns one of the samples.
    xs = [7.5] * 51 + [9.7] * 49
    assert percentile(xs, 50) == 7.5
    xs = [7.5] * 49 + [9.7] * 51
    assert percentile(xs, 50) == 9.7


def test_two_to_one_mix_puts_p50_and_p90_inside_modes():
    light, heavy = 80.0, 290.0
    xs = [light, light, heavy] * 30
    assert percentile(xs, 50) == light
    assert percentile(xs, 90) == heavy


def test_median_even_and_odd():
    assert median([3, 1, 2]) == 2
    assert median([4, 1, 3, 2]) == 2.5


def test_quartiles_match_statistics_exclusive_method():
    q1, q2, q3 = quartiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
    assert (q1, q2, q3) == (2.75, 5.5, 8.25)


def test_spread_is_iqr_over_median():
    assert spread([10.0] * 10) == 0.0
    assert spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]) == pytest.approx(
        5.5 / 5.5
    )


def test_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 0)
    with pytest.raises(ValueError):
        median([])
    with pytest.raises(ValueError):
        spread([0.0, 0.0, 0.0])
