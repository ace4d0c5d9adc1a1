import pytest

import stats


def test_nearest_rank_percentiles():
    assert stats.nearest_rank(0.5, 10) == 5
    assert stats.nearest_rank(0.9, 100) == 90
    assert stats.nearest_rank(0.9, 101) == 91
    assert stats.nearest_rank(0.01, 10) == 1
    with pytest.raises(ValueError):
        stats.nearest_rank(0, 10)


def test_tail_needs_ten_samples_beyond():
    assert stats.samples_beyond(0.9, 100) == 10
    assert stats.samples_beyond(0.9, 99) == 9
    assert stats.min_samples(0.90) == 100
    assert stats.min_samples(0.85) == 67
    assert stats.min_samples(0.95) == 200
    assert stats.min_samples(0.99) == 1000
    for q in (0.85, 0.9, 0.95, 0.99):
        n = stats.min_samples(q)
        assert stats.samples_beyond(q, n) >= 10 > stats.samples_beyond(q, n - 1)


def test_histogram_quantiles_match_sorted_samples():
    lat = stats.Latencies()
    # multiples of 1024 below 2**17 are exact with a 12-bit mantissa
    for k in reversed(range(1, 101)):
        lat.add(1024 * k)
    assert lat.n == 100 and lat.total_ns == 1024 * 5050
    assert lat.quantile(0.5) == 1024 * 50
    assert lat.quantile(0.9) == 1024 * 90
    assert lat.quantile(1.0) == 1024 * 100


def test_bucket_keeps_twelve_significant_bits():
    assert stats.bucket(4095) == 4095
    for ns in (12_345, 987_654_321, 2**40 + 12345):
        assert 0 <= ns - stats.bucket(ns) < ns / 2**11


def test_median():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
