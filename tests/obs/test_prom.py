"""Prometheus text rendering: name mangling, sample shapes, sum-match.

The load-bearing property is the last one: the ``+Inf`` bucket of
every rendered histogram equals its ``_count`` sample equals the
``count`` field of the registry snapshot the NDJSON ``metrics`` verb
returns -- both views read the same registry, so a scraper and an
NDJSON client can be reconciled number for number.
"""

from __future__ import annotations

import re

from repro.obs.hist import BUCKET_BOUNDS
from repro.obs.metrics import NULL_METRICS, MetricsRegistry
from repro.obs.prom import CONTENT_TYPE, metric_name, render_prometheus


def sample(text: str, name: str) -> float:
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[1])
    raise AssertionError(f"no sample {name!r} in:\n{text}")


class TestNames:
    def test_dotted_to_underscore(self):
        assert metric_name("service.request.ping") == "service_request_ping"

    def test_illegal_chars_and_leading_digit(self):
        assert metric_name("0bad-name!x") == "_0bad_name_x"


class TestRendering:
    def test_disabled_registry_is_a_comment(self):
        text = render_prometheus(NULL_METRICS)
        assert text.startswith("#") and text.endswith("\n")
        assert "disabled" in text

    def test_empty_registry_is_a_comment(self):
        assert render_prometheus(MetricsRegistry()) == "# no metrics recorded\n"

    def test_counter_gauge_timer_shapes(self):
        reg = MetricsRegistry()
        reg.inc("service.request.ping", 3)
        reg.gauge("pool.workers", 4)
        with reg.time("service.latency.hd"):
            pass
        text = render_prometheus(reg)
        assert "# TYPE service_request_ping counter" in text
        assert sample(text, "service_request_ping") == 3
        assert "# TYPE pool_workers gauge" in text
        assert "# TYPE service_latency_hd histogram" in text
        assert sample(text, "service_latency_hd_count") == 1
        assert text.endswith("\n")
        assert CONTENT_TYPE.startswith("text/plain")

    def test_histogram_buckets_cumulative_and_sum_match(self):
        reg = MetricsRegistry()
        values = [0.0005, 0.002, 0.002, 0.7, 100.0]  # last overflows
        for v in values:
            reg.observe("service.latency.checksum", v)
        text = render_prometheus(reg)
        assert "# TYPE service_latency_checksum histogram" in text

        buckets = re.findall(
            r'service_latency_checksum_bucket\{le="([^"]+)"\} (\d+)', text
        )
        assert len(buckets) == len(BUCKET_BOUNDS) + 1
        counts = [int(n) for _, n in buckets]
        assert counts == sorted(counts), "bucket series must be cumulative"
        assert buckets[-1][0] == "+Inf"

        # The sum-match triangle: +Inf bucket == _count == snapshot count.
        snapshot = reg.snapshot()["hists"]["service.latency.checksum"]
        assert counts[-1] == len(values)
        assert sample(text, "service_latency_checksum_count") == len(values)
        assert snapshot["count"] == len(values)
        assert sum(snapshot["buckets"].values()) == len(values)
        assert sample(text, "service_latency_checksum_sum") == float(
            snapshot["sum"]
        )

    def test_le_labels_are_exact_bounds(self):
        reg = MetricsRegistry()
        reg.observe("h", 0.001)
        text = render_prometheus(reg)
        for bound in BUCKET_BOUNDS:
            assert f'le="{bound!r}"' in text
