"""Fixed-bucket log2 histograms: the bucket-exact merge contract.

The whole point of fixing the bucket bounds (never adapting them to
the data) is that a histogram built from a concatenated sample equals
the merge of histograms built from any split of that sample -- bucket
for bucket, not just approximately.  That is what lets the campaign
pool merge worker snapshots the same way it merges counters.
Hypothesis drives the property over random samples and random splits;
the deterministic tests pin quantile semantics and the dict round
trip the pool actually ships across the process boundary.
"""

from __future__ import annotations

import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.hist import (
    BUCKET_BOUNDS,
    NUM_BUCKETS,
    Histogram,
    bucket_upper_bounds,
)
from repro.obs.metrics import MetricsRegistry

#: Durations from a tenth of the smallest bucket to beyond the
#: overflow bucket, plus exact zero.  (Sub-nanosecond values are not
#: representable through the dict snapshot, whose fields round at 9
#: decimals -- that scale is measurement noise, not latency.)
durations = st.one_of(
    st.just(0.0),
    st.floats(
        min_value=1e-7,
        max_value=200.0,
        allow_nan=False,
        allow_infinity=False,
    ),
)


def hist_of(values):
    h = Histogram()
    h.observe_many(values)
    return h


def assert_bucket_exact(a: Histogram, b: Histogram) -> None:
    """Bucket-exactness: counts and bucket occupancies are
    *identical*; min/max/sum are float fields (rounded at 9 decimals
    by the dict snapshot, accumulation-order sensitive for sum), so
    they compare approximately."""
    assert a.buckets == b.buckets
    assert a.count == b.count
    if a.count:
        assert a.min == pytest.approx(b.min, abs=1e-9)
        assert a.max == pytest.approx(b.max, abs=1e-9)
    assert a.sum == pytest.approx(b.sum, abs=1e-6)


class TestBuckets:
    def test_scheme_shape(self):
        assert BUCKET_BOUNDS[0] == 2.0**-20
        assert BUCKET_BOUNDS[-1] == 64.0
        assert NUM_BUCKETS == len(BUCKET_BOUNDS) + 1
        assert bucket_upper_bounds() == BUCKET_BOUNDS

    def test_observation_lands_in_covering_bucket(self):
        h = Histogram()
        h.observe(0.001)  # 2^-10 == 0.0009765625 < 0.001 <= 2^-9
        idx = next(i for i, n in enumerate(h.buckets) if n)
        lo = BUCKET_BOUNDS[idx - 1] if idx else 0.0
        hi = BUCKET_BOUNDS[idx]
        assert lo < 0.001 <= hi

    def test_overflow_and_negative_clamp(self):
        h = hist_of([1000.0, -5.0])
        assert h.buckets[-1] == 1  # beyond 64s -> +Inf bucket
        assert h.buckets[0] == 1  # negative clamps to 0 -> first bucket
        assert h.min == 0.0 and h.max == 1000.0

    def test_empty(self):
        h = Histogram()
        assert h.count == 0 and h.p50 == 0.0 and h.mean == 0.0
        assert h.to_dict()["buckets"] == {}


class TestQuantiles:
    def test_quantiles_bounded_by_observations(self):
        h = hist_of([0.001, 0.002, 0.004, 0.1, 2.0])
        for q in (0.0, 0.25, 0.5, 0.95, 0.99, 1.0):
            assert h.min <= h.quantile(q) <= h.max

    def test_quantiles_monotone(self):
        h = hist_of([0.0001 * (i + 1) for i in range(100)])
        qs = [h.quantile(q / 20) for q in range(21)]
        assert qs == sorted(qs)

    def test_out_of_range_rejected(self):
        h = hist_of([0.1])
        with pytest.raises(ValueError, match="quantile"):
            h.quantile(1.5)

    def test_single_observation_is_every_quantile(self):
        h = hist_of([0.017])
        assert h.p50 == h.p95 == h.p99 == 0.017


class TestMergeExactness:
    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(durations, min_size=0, max_size=200),
        cut=st.integers(min_value=0, max_value=200),
    )
    def test_two_way_split_merges_bucket_exact(self, values, cut):
        """hist(a + b) == merge(hist(a), hist(b)) for any split point --
        the worker-snapshot -> parent-merge shape."""
        cut = min(cut, len(values))
        merged = hist_of(values[:cut])
        merged.merge(hist_of(values[cut:]))
        assert_bucket_exact(merged, hist_of(values))

    @settings(max_examples=50, deadline=None)
    @given(
        parts=st.lists(
            st.lists(durations, min_size=0, max_size=50),
            min_size=1,
            max_size=8,
        )
    )
    def test_many_way_merge_through_dict_snapshots(self, parts):
        """N workers each snapshot to a plain dict; the parent merges
        the dicts.  Equal to one histogram over everything, bucket for
        bucket -- and pickle (the real pool transport) changes nothing."""
        parent = Histogram()
        for part in parts:
            snap = pickle.loads(pickle.dumps(hist_of(part).to_dict()))
            parent.merge(snap)
        assert_bucket_exact(
            parent, hist_of([v for part in parts for v in part])
        )

    @settings(max_examples=50, deadline=None)
    @given(
        a=st.lists(durations, min_size=0, max_size=50),
        b=st.lists(durations, min_size=0, max_size=50),
    )
    def test_merge_commutes(self, a, b):
        ab = hist_of(a)
        ab.merge(hist_of(b))
        ba = hist_of(b)
        ba.merge(hist_of(a))
        assert ab == ba

    def test_registry_level_merge(self):
        """The full cross-process path at registry granularity:
        worker registries observe into hists, snapshot, parent merges
        -- counts, buckets and extremes all add exactly."""
        parent = MetricsRegistry()
        all_values = []
        for worker_values in ([0.001, 0.5, 3.0], [0.002], []):
            worker = MetricsRegistry()
            for v in worker_values:
                worker.observe("chunk.seconds", v)
            parent.merge(worker.snapshot())
            all_values.extend(worker_values)
        assert_bucket_exact(parent.hists["chunk.seconds"], hist_of(all_values))

    def test_old_snapshots_without_hists_still_merge(self):
        """Snapshots from before histograms existed carry no 'hists'
        key, and their durations sit under 'timers', which is no
        longer kept; merging them must keep working (mixed-version
        fleets)."""
        parent = MetricsRegistry()
        parent.observe("chunk.seconds", 0.1)
        parent.merge({"counters": {"x": 1}, "gauges": {}, "timers": {
            "chunk.seconds": {"count": 1, "total": 0.2, "min": 0.2, "max": 0.2},
        }})
        assert parent.counters["x"] == 1
        assert parent.hists["chunk.seconds"].count == 1


class TestDictForm:
    def test_round_trip(self):
        h = hist_of([0.001, 0.02, 0.02, 50.0, 100.0])
        assert Histogram.from_dict(h.to_dict()) == h

    def test_sparse_buckets(self):
        d = hist_of([0.01]).to_dict()
        assert len(d["buckets"]) == 1  # only the occupied slot ships

    def test_rejects_foreign_bucket_index(self):
        with pytest.raises(ValueError, match="bucket index"):
            Histogram.from_dict(
                {"count": 1, "sum": 1.0, "min": 1.0, "max": 1.0,
                 "buckets": {str(NUM_BUCKETS): 1}}
            )
