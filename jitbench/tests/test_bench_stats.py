"""The reporting rule: a percentile needs ten samples beyond it."""

import pytest

from stats import median, min_samples_for, percentile, samples_beyond


def test_p99_needs_a_thousand_samples():
    assert min_samples_for(99) == 1000
    assert samples_beyond(1000, 99) == 10
    assert samples_beyond(999, 99) == 9
    with pytest.raises(ValueError):
        percentile(range(999), 99)
    assert percentile(range(1000), 99) == 989


def test_p90_needs_a_hundred_samples():
    assert min_samples_for(90) == 100
    with pytest.raises(ValueError):
        percentile(range(99), 90)
    assert percentile(range(1, 101), 90) == 90


def test_percentile_is_nearest_rank_on_unsorted_input():
    values = [5.0, 1.0, 4.0, 2.0, 3.0] * 4
    assert percentile(values, 50, tail=0) == 3.0
    assert percentile(values, 100, tail=0) == 5.0


def test_median():
    assert median([3, 1, 2]) == 2
    with pytest.raises(ValueError):
        median([])
