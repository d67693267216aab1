"""Fixed-bucket log2 latency histograms.

A four-number summary (count / total / min / max) can say *that*
requests got slow, but not *which* requests: a p99 regression hides
completely inside an unchanged mean.  This module keeps the shape as
well; it is the metrics registry's one instrument for durations
(:meth:`~repro.obs.metrics.MetricsRegistry.observe` and
:meth:`~repro.obs.metrics.MetricsRegistry.time`).  A
:class:`Histogram` counts observations into **fixed power-of-two buckets** -- bucket ``i`` holds
values in ``(2^(i-1+MIN_EXP), 2^(i+MIN_EXP)]`` seconds, spanning ~1 us
to ~64 s plus an overflow bucket -- so campaigns and services report
p50/p95/p99 chunk and request latencies instead of only means.

The bucket boundaries being *fixed* (never adapted to the data) is the
load-bearing property: two histograms built in different processes
from different samples always share the same buckets, so the
cross-process merge the campaign pool performs
(worker snapshot -> parent :meth:`merge`) is **bucket-exact** -- the
merged histogram equals the histogram of the concatenated samples,
bucket for bucket (``tests/obs/test_hist.py`` proves it with
hypothesis over random sample splits).  That is the same
additive-merge contract counters already obey, extended to
distributions.

Quantiles are estimated by linear interpolation inside the selected
bucket, clamped by the observed min/max -- exact at the resolution of
a factor-of-two bucket, which is the honest resolution for scheduler-
noisy wall-clock data anyway.  The Prometheus text rendering
(:mod:`repro.obs.prom`) exposes the same buckets as a cumulative
``_bucket{le="..."}`` series, so an external scraper and the NDJSON
``metrics`` verb see literally the same numbers.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Any, Iterable

#: Exponent of the smallest bucket's upper bound: 2**-20 s ~= 0.95 us.
MIN_EXP = -20
#: Exponent of the largest finite bucket's upper bound: 2**6 = 64 s.
MAX_EXP = 6

#: Finite bucket upper bounds, ascending; the last bucket is +Inf.
BUCKET_BOUNDS: tuple[float, ...] = tuple(
    2.0**e for e in range(MIN_EXP, MAX_EXP + 1)
)

#: Total bucket count, including the +Inf overflow bucket.
NUM_BUCKETS = len(BUCKET_BOUNDS) + 1


class Histogram:
    """Counts of observations in fixed log2 buckets, plus count / sum /
    min / max.  Merge is element-wise addition, so merging commutes
    and associates exactly like counters do."""

    __slots__ = ("buckets", "count", "sum", "min", "max")

    def __init__(self) -> None:
        self.buckets = [0] * NUM_BUCKETS
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = 0.0

    def observe(self, value: float) -> None:
        """Count one observation (seconds; any non-negative float)."""
        if value < 0.0:
            value = 0.0
        self.buckets[bisect_left(BUCKET_BOUNDS, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def observe_many(self, values: Iterable[float]) -> None:
        for v in values:
            self.observe(v)

    # -- quantiles ------------------------------------------------------

    def quantile(self, q: float) -> float:
        """Estimated value at quantile ``q`` in [0, 1]: walk the
        cumulative counts to the target bucket, interpolate linearly
        inside it, clamp to the observed [min, max].  0.0 when empty."""
        if self.count == 0:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError("quantile must be within [0, 1]")
        target = q * self.count
        cumulative = 0
        for i, n in enumerate(self.buckets):
            if n == 0:
                continue
            if cumulative + n >= target:
                lo = BUCKET_BOUNDS[i - 1] if i > 0 else 0.0
                hi = (
                    BUCKET_BOUNDS[i]
                    if i < len(BUCKET_BOUNDS)
                    else max(self.max, lo)
                )
                frac = (target - cumulative) / n
                value = lo + (hi - lo) * frac
                return min(max(value, self.min), self.max)
            cumulative += n
        return self.max  # pragma: no cover - q <= 1 lands in the loop

    @property
    def p50(self) -> float:
        return self.quantile(0.50)

    @property
    def p95(self) -> float:
        return self.quantile(0.95)

    @property
    def p99(self) -> float:
        return self.quantile(0.99)

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    # -- serialization / merge -----------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """A plain-JSON/picklable dump.  Buckets ship sparse (only
        non-zero slots) keyed by bucket index, because most of the
        27-bucket range is empty for any one workload."""
        return {
            "count": self.count,
            "sum": round(self.sum, 9),
            "min": round(self.min, 9) if self.count else 0.0,
            "max": round(self.max, 9),
            "buckets": {
                str(i): n for i, n in enumerate(self.buckets) if n
            },
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "Histogram":
        hist = cls()
        hist.count = int(d["count"])
        hist.sum = float(d["sum"])
        hist.min = float(d["min"]) if hist.count else float("inf")
        hist.max = float(d["max"])
        for key, n in d.get("buckets", {}).items():
            i = int(key)
            if not 0 <= i < NUM_BUCKETS:
                raise ValueError(
                    f"histogram bucket index {i} outside the fixed "
                    f"log2 scheme (0..{NUM_BUCKETS - 1})"
                )
            hist.buckets[i] = int(n)
        return hist

    def merge(self, other: "Histogram | dict[str, Any]") -> None:
        """Fold another histogram (or its dict snapshot) in: buckets
        and counts add, min/max combine.  Bucket-exact because the
        bounds are fixed."""
        if isinstance(other, dict):
            other = Histogram.from_dict(other)
        for i, n in enumerate(other.buckets):
            self.buckets[i] += n
        self.count += other.count
        self.sum += other.sum
        if other.count:
            self.min = min(self.min, other.min)
            self.max = max(self.max, other.max)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Histogram):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"Histogram(count={self.count}, p50={self.p50:.6f}, "
            f"p95={self.p95:.6f}, p99={self.p99:.6f})"
        )


def bucket_upper_bounds() -> tuple[float, ...]:
    """The finite upper bounds, for renderers (the overflow bucket is
    ``+Inf``)."""
    return BUCKET_BOUNDS
