"""Metrics registry semantics: recording, merge, active-registry
installation, and the disabled path's no-op guarantee."""

from __future__ import annotations

import pickle
import timeit

from repro.obs import metrics as obs_metrics
from repro.obs.hist import Histogram
from repro.obs.metrics import (
    NULL_METRICS,
    MetricsRegistry,
    NullMetrics,
    active,
    install,
    uninstall,
)


class TestRecording:
    def test_counters_accumulate(self):
        reg = MetricsRegistry()
        reg.inc("a")
        reg.inc("a", 4)
        reg.inc("b", 2)
        assert reg.counters == {"a": 5, "b": 2}

    def test_gauges_keep_latest(self):
        reg = MetricsRegistry()
        reg.gauge("depth", 3.0)
        reg.gauge("depth", 1.5)
        assert reg.gauges == {"depth": 1.5}

    def test_timers_aggregate_count_total_min_max(self):
        reg = MetricsRegistry()
        for s in (0.2, 0.1, 0.4):
            reg.observe("work", s)
        t = reg.hists["work"]
        assert t.count == 3
        assert abs(t.sum - 0.7) < 1e-9
        assert t.min == 0.1 and t.max == 0.4
        assert abs(t.mean - 0.7 / 3) < 1e-9

    def test_time_context_manager_observes_body(self):
        reg = MetricsRegistry()
        with reg.time("body"):
            pass
        assert reg.hists["body"].count == 1
        assert reg.hists["body"].sum >= 0.0

    def test_time_records_even_when_body_raises(self):
        reg = MetricsRegistry()
        try:
            with reg.time("boom"):
                raise RuntimeError
        except RuntimeError:
            pass
        assert reg.hists["boom"].count == 1


class TestSnapshotAndMerge:
    def test_snapshot_is_plain_picklable_data(self):
        reg = MetricsRegistry()
        reg.inc("c", 3)
        reg.gauge("g", 7.0)
        reg.observe("t", 0.25)
        snap = reg.snapshot()
        assert pickle.loads(pickle.dumps(snap)) == snap
        assert snap["counters"] == {"c": 3}
        assert snap["hists"]["t"]["count"] == 1
        assert "timers" not in snap

    def test_merge_adds_counters_and_timers_lastwrites_gauges(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.inc("n", 2); a.gauge("g", 1.0); a.observe("t", 0.1)
        b.inc("n", 3); b.gauge("g", 9.0); b.observe("t", 0.3)
        a.merge(b.snapshot())
        assert a.counters["n"] == 5
        assert a.gauges["g"] == 9.0
        t = a.hists["t"]
        assert t.count == 2 and t.min == 0.1 and t.max == 0.3

    def test_merge_accepts_registry_none_and_empty(self):
        a = MetricsRegistry()
        a.inc("n")
        a.merge(None)          # worker shipped nothing
        a.merge(MetricsRegistry())
        a.merge({})            # degenerate snapshot
        assert a.counters == {"n": 1}

    def test_merge_order_independent_for_counters_timers(self):
        """Session snapshots merged in any order give the same totals
        -- the property the killed-and-resumed campaign relies on."""
        snaps = []
        for k in range(3):
            reg = MetricsRegistry()
            reg.inc("c", k + 1)
            reg.observe("t", 0.1 * (k + 1))
            snaps.append(reg.snapshot())
        fwd, rev = MetricsRegistry(), MetricsRegistry()
        for s in snaps:
            fwd.merge(s)
        for s in reversed(snaps):
            rev.merge(s)
        assert fwd.counters == rev.counters
        assert fwd.hists == rev.hists

    def test_timerstat_round_trips_through_dict(self):
        # A timer is the histogram ``observe`` records into.
        reg = MetricsRegistry()
        reg.observe("t", 0.5)
        reg.observe("t", 0.1)
        t = reg.hists["t"]
        assert Histogram.from_dict(t.to_dict()) == t
        assert Histogram.from_dict(reg.snapshot()["hists"]["t"]) == t
        empty = Histogram.from_dict(Histogram().to_dict())
        empty.observe(2.0)  # from_dict of empty must keep min semantics
        assert empty.min == 2.0

    def test_render_mentions_every_metric(self):
        reg = MetricsRegistry()
        reg.inc("hits", 2)
        reg.gauge("level", 0.5)
        reg.observe("lap", 0.01)
        out = reg.render()
        assert "hits = 2" in out and "level" in out and "lap:" in out
        assert MetricsRegistry().render() == "  (no metrics recorded)"


class TestActiveRegistry:
    def teardown_method(self):
        uninstall()

    def test_default_is_the_shared_null(self):
        assert active() is NULL_METRICS
        assert active().enabled is False

    def test_install_takes_effect_and_returns_previous(self):
        reg = MetricsRegistry()
        assert install(reg) is NULL_METRICS
        assert active() is reg
        previous = install(MetricsRegistry())
        assert previous is reg
        uninstall()
        assert active() is NULL_METRICS

    def test_hot_path_records_through_active(self):
        from repro.search.exhaustive import SearchConfig, search_chunk

        cfg = SearchConfig(width=6, target_hd=3, filter_lengths=(16,),
                           confirm_weights=False)
        reg = MetricsRegistry()
        install(reg)
        try:
            res = search_chunk(cfg, 0, 8)
        finally:
            uninstall()
        assert reg.counters["search.candidates"] == res.examined
        assert reg.hists["search.chunk_seconds"].count == 1


class TestDisabledPath:
    def test_null_records_nothing_and_returns_nothing(self):
        n = NullMetrics()
        n.inc("x"); n.gauge("x", 1.0); n.observe("x", 1.0)
        with n.time("x"):
            pass
        assert n.snapshot() is None
        assert not hasattr(n, "counters")

    def test_disabled_hot_path_leaves_no_trace(self):
        from repro.search.exhaustive import SearchConfig, search_chunk

        assert active() is NULL_METRICS
        cfg = SearchConfig(width=6, target_hd=3, filter_lengths=(16,),
                           confirm_weights=False)
        search_chunk(cfg, 0, 8)
        assert active() is NULL_METRICS  # nothing installed itself

    def test_noop_overhead_is_nanoseconds_not_microseconds(self):
        """The disabled path must stay cheap enough to call
        unconditionally: bound a no-op inc() against a pure-python
        no-op function call, generously."""
        def plain():  # baseline: cheapest possible call
            pass

        n = 100_000
        noop = timeit.timeit(lambda: NULL_METRICS.inc("x"), number=n) / n
        base = timeit.timeit(plain, number=n) / n
        # A bound no-op method should be within ~20x of an empty
        # function call (typically ~2-3x); a real registry would blow
        # far past this the moment dict updates were involved.
        assert noop < base * 20 + 1e-6
