"""Prometheus text exposition of a :class:`~repro.obs.metrics.MetricsRegistry`.

``repro serve-crc`` answers ``GET /metrics`` on its NDJSON TCP port
with this rendering (text format 0.0.4), so an external scraper and
the NDJSON ``metrics`` verb read the *same registry at the same
instant* -- no second collection path, no drift.  The mapping:

* counters -> ``counter`` samples (dotted names flattened to
  underscores: ``service.request.ping`` -> ``service_request_ping``);
* gauges -> ``gauge`` samples;
* histograms (:mod:`repro.obs.hist`) -> a ``histogram`` family:
  cumulative ``<name>_bucket{le="..."}`` series over the fixed log2
  bounds plus ``le="+Inf"``, and ``<name>_sum`` / ``<name>_count``.
  The ``+Inf`` bucket equals ``<name>_count`` by construction, which
  is exactly the sum-match the service tests assert against the
  NDJSON snapshot.
"""

from __future__ import annotations

import re

from repro.obs.hist import BUCKET_BOUNDS
from repro.obs.metrics import NullMetrics

#: Content-Type for the rendering (Prometheus text format 0.0.4).
CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def metric_name(dotted: str) -> str:
    """A dotted repro metric name as a legal Prometheus metric name."""
    name = _NAME_RE.sub("_", dotted)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _fmt(value: float) -> str:
    """A sample value: integral floats render bare, no exponent noise
    for the common case."""
    if isinstance(value, int) or float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _le(bound: float) -> str:
    """A bucket bound for the ``le`` label (shortest exact form)."""
    return repr(bound)


def render_prometheus(registry: NullMetrics) -> str:
    """The registry as Prometheus text format 0.0.4 (trailing newline
    included).  A disabled registry renders to a comment only."""
    if not registry.enabled:
        return "# metrics collection disabled (run with --metrics)\n"
    lines: list[str] = []
    for dotted in sorted(registry.counters):
        name = metric_name(dotted)
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_fmt(registry.counters[dotted])}")
    for dotted in sorted(registry.gauges):
        name = metric_name(dotted)
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {_fmt(registry.gauges[dotted])}")
    for dotted in sorted(registry.hists):
        hist = registry.hists[dotted]
        name = metric_name(dotted)
        lines.append(f"# TYPE {name} histogram")
        cumulative = 0
        for i, bound in enumerate(BUCKET_BOUNDS):
            cumulative += hist.buckets[i]
            lines.append(f'{name}_bucket{{le="{_le(bound)}"}} {cumulative}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{name}_sum {_fmt(hist.sum)}")
        lines.append(f"{name}_count {hist.count}")
    return "\n".join(lines) + "\n" if lines else "# no metrics recorded\n"
