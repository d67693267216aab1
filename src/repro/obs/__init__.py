"""Campaign observability: structured events, metrics, run reports.

The 2001 search was steerable because its progress was visible; this
package is the reproduction's instrumentation layer, threaded through
the distributed substrate (:mod:`repro.dist`), the search driver
(:mod:`repro.search.exhaustive`) and the weight engines
(:mod:`repro.hd`):

* :mod:`repro.obs.events` -- zero-dependency JSONL event log
  (schema-versioned, monotonic timestamps, append-across-resumes,
  crash-durable), written by the ``--events PATH`` flag on the
  ``campaign`` and ``search`` CLI commands.
* :mod:`repro.obs.metrics` -- counters/gauges/histograms with per-process
  collection and additive cross-process merge; worker subprocesses
  ship snapshots back with their chunk results.
* :mod:`repro.obs.report` -- ``repro report events.jsonl``: the event
  log rendered into throughput, lease-expiry rate, bailout efficiency
  and an ETA check against :mod:`repro.dist.progress`, in human and
  ``BENCH_*.json`` machine form.
* :mod:`repro.obs.trace` -- hierarchical spans (``trace.span`` events
  in the same JSONL stream), shipped picklable across the pool
  boundary and re-parented into one waterfall.
* :mod:`repro.obs.hist` -- fixed-bucket log2 latency histograms with
  bucket-exact cross-process merge; p50/p95/p99 for chunks and
  service requests.
* :mod:`repro.obs.live` -- ``repro dash events.jsonl --follow``: the
  stdlib-only terminal dashboard tailing the stream live; and
  :mod:`repro.obs.prom`, the Prometheus text rendering ``serve-crc``
  answers on ``GET /metrics``.

Everything is off by default, and the disabled path is a shared no-op
object (:data:`~repro.obs.events.NULL_EVENTS`,
:data:`~repro.obs.metrics.NULL_METRICS`) -- see
docs/OBSERVABILITY.md for the event schema, the metrics catalog and
the measured overhead.
"""

from repro.obs.events import (
    EventLog,
    NULL_EVENTS,
    NullEventLog,
    SCHEMA_VERSION,
    iter_events,
    read_events,
)
from repro.obs.hist import Histogram
from repro.obs.live import Dashboard, EventTail
from repro.obs.metrics import (
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
    active,
    install,
    uninstall,
)
from repro.obs.report import RunReport
from repro.obs.trace import (
    NULL_TRACE,
    NullTracer,
    Tracer,
    flatten_tree,
    span_tree,
    spans_from_events,
)

__all__ = [
    "EventLog",
    "NullEventLog",
    "NULL_EVENTS",
    "SCHEMA_VERSION",
    "iter_events",
    "read_events",
    "MetricsRegistry",
    "NullMetrics",
    "NULL_METRICS",
    "Histogram",
    "Tracer",
    "NullTracer",
    "NULL_TRACE",
    "spans_from_events",
    "span_tree",
    "flatten_tree",
    "Dashboard",
    "EventTail",
    "active",
    "install",
    "uninstall",
    "RunReport",
]
