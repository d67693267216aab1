"""Lightweight metrics registry: counters, gauges, timers.

Where :mod:`repro.obs.events` records *what happened*,  this module
counts *where the cycles go*: candidates screened, cascade-stage
kills, meet-in-the-middle early bailouts, syndrome chunks streamed.
The emit sites live in the hot paths (:mod:`repro.search.exhaustive`,
:mod:`repro.hd.weights`, :mod:`repro.hd.mitm`), so the design is
ruled by the disabled-path cost:

* Collection is **off by default**.  The process-local active
  registry is :data:`NULL_METRICS`, whose methods are constant
  no-ops; hot code calls ``active().inc(...)`` unconditionally and
  pays two attribute lookups and an empty call -- nanoseconds against
  the microseconds-to-milliseconds of real work per candidate
  (``benchmarks/bench_observability.py`` holds this under 3% end to
  end, and ``tests/obs/test_metrics.py`` pins the no-op property).
* Aggregation is **per process**.  Each worker subprocess installs
  its own registry, measures locally, and ships a plain-dict
  :meth:`~MetricsRegistry.snapshot` back with its chunk result; the
  parallel pool merges snapshots into the parent registry at chunk
  completion (:meth:`~MetricsRegistry.merge`).  Merging is pure
  addition (counters/timers) or last-write (gauges), so the merged
  registry of a killed-and-resumed campaign equals the sum of its
  sessions.

Metric names are dotted strings (``"search.candidates"``); the
catalog lives in docs/OBSERVABILITY.md.  Four instrument kinds:
counters, gauges, timers (four-number summaries), and fixed-bucket
log2 latency histograms (:mod:`repro.obs.hist`), whose merge is
bucket-exact across processes.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.hist import Histogram


class TimerStat:
    """Aggregate of observed durations: count / total / min / max.

    A four-number summary rather than a histogram: enough to read
    throughput and spot stragglers, cheap enough to merge by
    addition.
    """

    __slots__ = ("count", "total", "min", "max")

    def __init__(
        self,
        count: int = 0,
        total: float = 0.0,
        min_: float = float("inf"),
        max_: float = 0.0,
    ) -> None:
        self.count = count
        self.total = total
        self.min = min_
        self.max = max_

    def observe(self, seconds: float) -> None:
        self.count += 1
        self.total += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict[str, float]:
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "min": round(self.min, 6) if self.count else 0.0,
            "max": round(self.max, 6),
        }

    @classmethod
    def from_dict(cls, d: dict[str, float]) -> "TimerStat":
        return cls(
            count=int(d["count"]),
            total=float(d["total"]),
            min_=float(d["min"]) if d["count"] else float("inf"),
            max_=float(d["max"]),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TimerStat):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __repr__(self) -> str:
        return (
            f"TimerStat(count={self.count}, total={self.total:.6f}, "
            f"min={self.min if self.count else 0.0:.6f}, max={self.max:.6f})"
        )


class NullMetrics:
    """The disabled registry: every operation is a constant no-op.

    Shared as :data:`NULL_METRICS` and installed by default, so the
    instrumented hot paths cost one empty method call when metrics
    are off (``tests/obs/test_metrics.py`` asserts nothing is ever
    recorded through it).
    """

    enabled = False

    def inc(self, name: str, by: int = 1) -> None:  # noqa: ARG002
        return None

    def gauge(self, name: str, value: float) -> None:  # noqa: ARG002
        return None

    def observe(self, name: str, seconds: float) -> None:  # noqa: ARG002
        return None

    def observe_hist(self, name: str, value: float) -> None:  # noqa: ARG002
        return None

    @contextmanager
    def time(self, name: str) -> Iterator[None]:  # noqa: ARG002
        yield

    @contextmanager
    def time_hist(self, name: str) -> Iterator[None]:  # noqa: ARG002
        yield

    def snapshot(self) -> dict[str, Any] | None:
        return None

    def merge(self, snapshot: Any) -> None:  # noqa: ARG002
        return None


#: Shared no-op registry; the process-wide default.
NULL_METRICS = NullMetrics()


class MetricsRegistry(NullMetrics):
    """Process-local metrics store with additive cross-process merge."""

    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.timers: dict[str, TimerStat] = {}
        self.hists: dict[str, Histogram] = {}

    def inc(self, name: str, by: int = 1) -> None:
        """Add ``by`` to counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + by

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` to the latest observed ``value``."""
        self.gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration under timer ``name``."""
        timer = self.timers.get(name)
        if timer is None:
            timer = self.timers[name] = TimerStat()
        timer.observe(seconds)

    @contextmanager
    def time(self, name: str) -> Iterator[None]:
        """Context manager timing its body into :meth:`observe`."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe(name, time.perf_counter() - t0)

    def observe_hist(self, name: str, value: float) -> None:
        """Count one observation into log2 histogram ``name`` (see
        :mod:`repro.obs.hist`)."""
        hist = self.hists.get(name)
        if hist is None:
            hist = self.hists[name] = Histogram()
        hist.observe(value)

    @contextmanager
    def time_hist(self, name: str) -> Iterator[None]:
        """Context manager timing its body into :meth:`observe_hist`."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.observe_hist(name, time.perf_counter() - t0)

    # -- cross-process aggregation -------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A plain-JSON/picklable dump, suitable for shipping across a
        process boundary or embedding in an event record."""
        snap: dict[str, Any] = {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "timers": {k: t.to_dict() for k, t in self.timers.items()},
        }
        if self.hists:
            snap["hists"] = {k: h.to_dict() for k, h in self.hists.items()}
        return snap

    def merge(self, snapshot: "dict[str, Any] | MetricsRegistry | None") -> None:
        """Fold another registry's snapshot into this one.

        Counters and timers add; gauges take the incoming value
        (last-write-wins -- gauges are instantaneous readings, not
        accumulations).  ``None`` merges as empty, so callers can pass
        a worker's snapshot through unconditionally.
        """
        if snapshot is None:
            return
        if isinstance(snapshot, MetricsRegistry):
            snapshot = snapshot.snapshot()
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.gauge(name, value)
        for name, d in snapshot.get("timers", {}).items():
            incoming = TimerStat.from_dict(d)
            timer = self.timers.get(name)
            if timer is None:
                self.timers[name] = incoming
            else:
                timer.count += incoming.count
                timer.total += incoming.total
                timer.min = min(timer.min, incoming.min)
                timer.max = max(timer.max, incoming.max)
        for name, d in snapshot.get("hists", {}).items():
            hist = self.hists.get(name)
            if hist is None:
                self.hists[name] = Histogram.from_dict(d)
            else:
                hist.merge(d)

    def render(self) -> str:
        """Human-readable dump, one metric per line, sorted."""
        lines = []
        for name in sorted(self.counters):
            lines.append(f"  {name} = {self.counters[name]}")
        for name in sorted(self.gauges):
            lines.append(f"  {name} = {self.gauges[name]:g}")
        for name in sorted(self.timers):
            t = self.timers[name]
            lines.append(
                f"  {name}: n={t.count} total={t.total:.3f}s "
                f"mean={t.mean * 1000:.2f}ms max={t.max * 1000:.2f}ms"
            )
        for name in sorted(self.hists):
            h = self.hists[name]
            lines.append(
                f"  {name}: n={h.count} p50={h.p50 * 1000:.2f}ms "
                f"p95={h.p95 * 1000:.2f}ms p99={h.p99 * 1000:.2f}ms "
                f"max={h.max * 1000:.2f}ms"
            )
        return "\n".join(lines) if lines else "  (no metrics recorded)"


# -- the process-local active registry ---------------------------------
#
# Hot paths fetch the active registry through active() at call time
# (never cached at import time), so install() takes effect everywhere
# at once -- including in forked worker processes, which re-install
# their own registry on entry (repro.dist.campaign.compute_chunk).

_active: NullMetrics = NULL_METRICS


def install(registry: NullMetrics) -> NullMetrics:
    """Make ``registry`` the process-local active registry; returns
    the previous one so callers can restore it."""
    global _active
    previous = _active
    _active = registry
    return previous


def uninstall() -> None:
    """Reset the active registry to the disabled default."""
    install(NULL_METRICS)


def active() -> NullMetrics:
    """The registry hot paths record into (:data:`NULL_METRICS` unless
    :func:`install` was called in this process)."""
    return _active
