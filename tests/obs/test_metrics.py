"""Unit tests for the latency histograms: buckets, quantiles, and the
per-name store behind ``Observability.histogram``.

The bucket-boundary tests are the load-bearing ones: ``bucket_index``
must be *exact* at powers of two (le semantics — ``2**k`` lands in the
bucket whose bound is ``2**k``), which is why the implementation uses
``math.frexp`` instead of ``log2`` rounding.
"""

import math

import pytest

from repro.obs import BUCKET_BOUNDS, Histogram, Observability, bucket_index
from repro.obs.metrics import NUM_BUCKETS
from repro.sim import Counters, Simulator


class TestBucketIndex:
    def test_every_power_of_two_lands_on_its_own_bound(self):
        # le semantics: v == bounds[i] must count in bucket i, for every
        # finite bound.  This is the exactness frexp buys.
        for i, bound in enumerate(BUCKET_BOUNDS):
            assert bucket_index(bound) == i, (
                f"2**{int(math.log2(bound))} should land in its own "
                f"bucket {i}, got {bucket_index(bound)}"
            )

    def test_just_above_a_bound_spills_to_the_next_bucket(self):
        for i, bound in enumerate(BUCKET_BOUNDS[:-1]):
            above = math.nextafter(bound, math.inf)
            assert bucket_index(above) == i + 1

    def test_just_below_a_bound_stays_in_its_bucket(self):
        for i, bound in enumerate(BUCKET_BOUNDS):
            below = math.nextafter(bound, 0.0)
            assert bucket_index(below) == i

    def test_below_smallest_bound_is_bucket_zero(self):
        assert bucket_index(0.0) == 0
        assert bucket_index(0.001) == 0
        assert bucket_index(BUCKET_BOUNDS[0] / 2) == 0

    def test_overflow_bucket(self):
        assert bucket_index(math.nextafter(BUCKET_BOUNDS[-1], math.inf)) == (
            len(BUCKET_BOUNDS)
        )
        assert bucket_index(BUCKET_BOUNDS[-1] * 1000) == len(BUCKET_BOUNDS)

    def test_bounds_are_contiguous_log2(self):
        assert len(BUCKET_BOUNDS) + 1 == NUM_BUCKETS
        for lo, hi in zip(BUCKET_BOUNDS, BUCKET_BOUNDS[1:]):
            assert hi == 2.0 * lo


class TestHistogram:
    def test_summary_statistics(self):
        h = Histogram()
        for v in (1.0, 2.0, 3.0, 10.0):
            h.observe(v)
        assert h.count == 4
        assert h.sum == 16.0
        assert h.min == 1.0
        assert h.max == 10.0
        assert h.mean == 4.0

    def test_empty_histogram(self):
        h = Histogram()
        assert h.mean == 0.0
        assert h.quantile(0.5) == 0.0
        snap = h.snapshot()
        assert snap["count"] == 0 and snap["buckets"] == []

    def test_quantile_returns_bucket_upper_bound(self):
        h = Histogram()
        # 1.5 -> le=2.0 bucket; 3.0 -> le=4.0 bucket.
        for _ in range(99):
            h.observe(1.5)
        h.observe(3.0)
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == 4.0

    def test_quantile_overflow_bucket_reports_max(self):
        h = Histogram()
        big = BUCKET_BOUNDS[-1] * 4
        h.observe(big)
        assert h.quantile(0.5) == big
        assert h.quantile(0.99) == big

    def test_quantile_range_checked(self):
        with pytest.raises(ValueError):
            Histogram().quantile(1.5)

    def test_snapshot_lists_only_nonempty_buckets(self):
        h = Histogram()
        h.observe(2.0)   # exact bound: le=2.0
        h.observe(2.5)   # le=4.0
        snap = h.snapshot()
        assert [(b["le"], b["count"]) for b in snap["buckets"]] == [
            (2.0, 1), (4.0, 1)
        ]
        assert snap["p50"] == 2.0

    def test_snapshot_overflow_bucket_label(self):
        h = Histogram()
        h.observe(BUCKET_BOUNDS[-1] * 2)
        assert h.snapshot()["buckets"] == [{"le": "+Inf", "count": 1}]


class TestHistogramPercentile:
    """The record's percentiles are quantile(p/100) on the shared log2
    ladder — exact at bucket bounds, like everything else in this
    module."""

    def test_matches_quantile_on_exact_bounds(self):
        h = Histogram()
        for _ in range(99):
            h.observe(1.5)   # le=2.0 bucket
        h.observe(3.0)       # le=4.0 bucket
        snap = h.snapshot()
        assert snap["p50"] == h.quantile(0.5) == 2.0
        assert snap["p99"] == h.quantile(0.99) == 2.0
        assert h.quantile(1.0) == 4.0

    def test_exact_bucket_boundaries(self):
        h = Histogram()
        # One observation on each of four consecutive power-of-two
        # bounds: quantile cut points land on exact bucket bounds.
        for v in (2.0, 4.0, 8.0, 16.0):
            h.observe(v)
        assert h.quantile(0.25) == 2.0
        assert h.quantile(0.5) == 4.0
        assert h.quantile(0.75) == 8.0
        assert h.quantile(1.0) == 16.0

    def test_p0_is_smallest_bucket_bound(self):
        h = Histogram()
        h.observe(5.0)  # le=8.0
        assert h.quantile(0.0) == 8.0

    def test_overflow_bucket_reports_observed_max(self):
        h = Histogram()
        big = BUCKET_BOUNDS[-1] * 2
        h.observe(big)
        assert h.snapshot()["p99"] == big

    def test_empty_histogram(self):
        snap = Histogram().snapshot()
        assert snap["p50"] == snap["p99"] == 0.0

    @pytest.mark.parametrize("p", [-1.0, 100.5, 200.0])
    def test_range_checked(self, p):
        with pytest.raises(ValueError):
            Histogram().quantile(p / 100.0)


class TestObservabilityHistograms:
    def test_one_histogram_per_name(self):
        obs = Observability(Simulator())
        assert obs.histogram("x") is obs.histogram("x")
        assert obs.histogram("x") is not obs.histogram("y")

    def test_record_lists_histograms_key_sorted(self):
        obs = Observability(Simulator())
        obs.histogram("b").observe(1.0)
        obs.histogram("a").observe(2.0)
        counters = Counters()
        counters.add("c", 3)
        record = obs.telemetry(counters)
        assert list(record) == ["spans", "counters", "histograms"]
        assert list(record["histograms"]) == ["a", "b"]
        assert record["histograms"]["a"]["count"] == 1
        assert record["counters"] == {"c": 3}
