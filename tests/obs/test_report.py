"""Run-report semantics, from synthetic event streams and from real
campaigns -- including the acceptance scenario: a killed-and-resumed
parallel campaign whose event log reconstructs what happened."""

from __future__ import annotations

import json

import pytest

from repro.dist.faults import FaultPlan
from repro.dist.pool import ParallelCoordinator
from repro.obs.events import EventLog, read_events
from repro.obs.report import RunReport

from tests.dist.conftest import CFG, MAX_SECONDS


def make_runner(events, **kwargs):
    kwargs.setdefault("config", CFG)
    kwargs.setdefault("chunk_size", 8)
    kwargs.setdefault("processes", 2)
    kwargs.setdefault("lease_duration", 0.5)
    kwargs.setdefault("max_seconds", MAX_SECONDS)
    return ParallelCoordinator(events=events, **kwargs)


def synthetic_stream():
    """A hand-written two-session log exercising every fold path."""
    return [
        {"v": 1, "seq": 0, "t": 0.0, "event": "log.open", "wall": 1e9, "pid": 1},
        {"v": 1, "seq": 1, "t": 0.0, "event": "campaign.start",
         "backend": "pool", "width": 8, "target_hd": 4, "final_length": 100,
         "chunk_size": 8, "chunks": 4, "processes": 2},
        {"v": 1, "seq": 2, "t": 0.1, "event": "lease.grant", "chunk": 0,
         "attempt": 1},
        {"v": 1, "seq": 3, "t": 0.2, "event": "lease.grant", "chunk": 1,
         "attempt": 1},
        {"v": 1, "seq": 4, "t": 2.0, "event": "chunk.done", "chunk": 0,
         "attempt": 1, "examined": 10, "survivors": 2, "seconds": 1.5,
         "stage_kills": {"16": 6, "100": 2}, "duplicate": False},
        {"v": 1, "seq": 5, "t": 2.1, "event": "chunk.done", "chunk": 0,
         "attempt": 1, "examined": 10, "survivors": 2, "seconds": 1.5,
         "stage_kills": {"16": 6, "100": 2}, "duplicate": True},
        {"v": 1, "seq": 6, "t": 2.5, "event": "lease.expire", "chunk": 1,
         "owner": "pool-parent", "attempt": 1},
        {"v": 1, "seq": 7, "t": 2.6, "event": "worker.crash", "chunk": 1,
         "kind": "killed"},
        {"v": 1, "seq": 9, "t": 3.0, "event": "checkpoint.write",
         "path": "c.json", "chunks_done": 1},
        # Session 2: resumed after a kill.
        {"v": 1, "seq": 0, "t": 0.0, "event": "log.open", "wall": 2e9, "pid": 2},
        {"v": 1, "seq": 1, "t": 0.0, "event": "campaign.resume",
         "path": "c.json", "skipped": 1},
        {"v": 1, "seq": 2, "t": 0.0, "event": "campaign.start",
         "backend": "pool", "width": 8, "target_hd": 4, "final_length": 100,
         "chunk_size": 8, "chunks": 4, "processes": 2},
        {"v": 1, "seq": 3, "t": 0.5, "event": "lease.grant", "chunk": 1,
         "attempt": 2},
        {"v": 1, "seq": 4, "t": 1.0, "event": "chunk.done", "chunk": 1,
         "attempt": 2, "examined": 10, "survivors": 1, "seconds": 0.8,
         "stage_kills": {"16": 9}, "duplicate": False},
        {"v": 1, "seq": 5, "t": 1.5, "event": "chunk.done", "chunk": 2,
         "attempt": 1, "examined": 10, "survivors": 1, "seconds": 0.8,
         "stage_kills": {"40": 9}, "duplicate": False},
        {"v": 1, "seq": 6, "t": 2.0, "event": "chunk.done", "chunk": 3,
         "attempt": 1, "examined": 10, "survivors": 1, "seconds": 0.8,
         "stage_kills": {"40": 9}, "duplicate": False},
        {"v": 1, "seq": 7, "t": 2.2, "event": "lease.renew", "chunks": 2},
        {"v": 1, "seq": 8, "t": 3.0, "event": "metrics.snapshot",
         "metrics": {"counters": {"search.candidates": 40}, "gauges": {}}},
        {"v": 1, "seq": 9, "t": 3.0, "event": "campaign.end", "elapsed": 3.0,
         "completions": 3, "examined": 40, "survivors": 5},
    ]


class TestFromSyntheticEvents:
    def test_counts_and_config(self):
        rep = RunReport.from_events(synthetic_stream())
        assert rep.sessions == 2
        assert rep.config["width"] == 8
        assert rep.total_chunks == 4
        assert rep.chunks_completed == 4          # chunk 0 once + 1,2,3
        assert rep.chunks_resumed == 1
        assert rep.duplicate_deliveries == 1      # the duplicate is skipped
        assert rep.candidates_examined == 40
        assert rep.survivors == 5
        assert rep.complete

    def test_fault_and_lease_accounting(self):
        rep = RunReport.from_events(synthetic_stream())
        assert rep.lease_grants == 3
        assert rep.lease_renewals == 2
        assert rep.lease_expiries == 1
        assert rep.lease_expiry_rate == pytest.approx(1 / 3)
        assert rep.worker_crashes == 1
        assert rep.checkpoint_writes == 1

    def test_throughput_and_sessions(self):
        rep = RunReport.from_events(synthetic_stream())
        # Session walls: 3.0s + 3.0s observed.
        assert rep.active_seconds == pytest.approx(6.0)
        assert rep.polys_per_second == pytest.approx(40 / 6.0)
        assert rep.busy_seconds == pytest.approx(1.5 + 0.8 * 3)

    def test_bailout_efficiency_excludes_final_length(self):
        rep = RunReport.from_events(synthetic_stream())
        # Kills: 6@16 + 2@100(final) + 9@16 + 9@40 + 9@40.
        assert rep.stage_kills == {16: 15, 40: 18, 100: 2}
        assert rep.bailout_efficiency == pytest.approx((15 + 18) / 40)

    def test_estimator_replay_survives_session_restart(self):
        # Session 2 timestamps restart at 0 -- the fold must not feed a
        # regressed clock into ProgressTracker.
        rep = RunReport.from_events(synthetic_stream())
        assert rep.estimator_rate is not None and rep.estimator_rate > 0
        assert rep.estimator_eta_seconds == 0.0  # campaign finished

    def test_metrics_snapshot_merged(self):
        rep = RunReport.from_events(synthetic_stream())
        assert rep.metrics.counters["search.candidates"] == 40

    def test_bench_envelope(self, tmp_path):
        rep = RunReport.from_events(synthetic_stream())
        bench = rep.to_bench_dict(name="unit")
        assert bench["bench"] == "unit"
        assert bench["schema"] == 1
        assert bench["config"]["chunks"] == 4
        assert bench["metrics"]["candidates_examined"] == 40
        assert bench["metrics"]["lease_expiries"] == 1
        path = tmp_path / "BENCH_unit.json"
        rep.write_bench_json(path, name="unit")
        assert json.loads(path.read_text()) == bench

    def test_empty_stream_renders_without_error(self):
        rep = RunReport.from_events([])
        assert not rep.complete
        assert rep.polys_per_second == 0.0
        assert rep.lease_expiry_rate == 0.0
        assert "run report" in rep.render()


class TestRealCampaigns:
    def test_clean_pool_run_report_matches_coordinator(self, tmp_path):
        log_path = tmp_path / "run.jsonl"
        with EventLog(log_path) as events:
            runner = make_runner(events, collect_metrics=True)
            elapsed = runner.run()
        rep = RunReport.from_path(log_path)
        assert rep.complete
        assert rep.total_chunks == len(runner.queue)
        assert rep.chunks_completed == runner.stats.completions
        assert rep.candidates_examined == runner.campaign.candidates_examined
        assert rep.survivors == len(runner.campaign.survivors)
        own = runner.campaign.candidates_examined / elapsed
        assert rep.polys_per_second == pytest.approx(own, rel=0.10)
        # Worker metrics rode home and agree with the event totals.
        assert rep.metrics.counters["search.candidates"] == \
            rep.candidates_examined

    def test_checkpoint_writes_reach_the_report(self, tmp_path):
        log_path = tmp_path / "run.jsonl"
        with EventLog(log_path) as events:
            runner = make_runner(
                events, checkpoint_path=str(tmp_path / "c.json"),
                checkpoint_every=8,
            )
            runner.run()
        rep = RunReport.from_path(log_path)
        assert rep.config["backend"] == "pool"
        assert rep.complete
        assert rep.candidates_examined == runner.campaign.candidates_examined
        assert rep.checkpoint_writes == runner.stats.checkpoints_written == 2

    def test_acceptance_killed_and_resumed_campaign(self, tmp_path):
        """ISSUE acceptance: a --parallel 2 campaign with a hard-killed
        (SIGKILL) worker, resumed into the same event log; the report
        reconstructs the whole story from the log alone.

        Session 1 runs to completion *through* the kill: finishing
        requires the killed chunk's lease to expire and be re-leased,
        so `lease.expire` is guaranteed in the log.  Session 2 is the
        resume, skipping everything from the checkpoint."""
        log_path = tmp_path / "run.jsonl"
        ckpt = str(tmp_path / "campaign.json")

        with EventLog(log_path) as events:
            first = make_runner(
                events,
                faults=FaultPlan(net_kill_after={"pool-0": 1}),
                checkpoint_path=ckpt,
                checkpoint_every=4,
            )
            e1 = first.run()
        assert first.stats.lease_expiries >= 1  # the kill really happened
        examined_1 = first.campaign.candidates_examined

        with EventLog(log_path) as events:  # second session, same file
            second = make_runner(events, checkpoint_path=ckpt)
            second.resume()
            at_resume = second.campaign.candidates_examined
            e2 = second.run()
        examined_2 = second.campaign.candidates_examined - at_resume

        rep = RunReport.from_path(log_path)
        # -- structure reconstructed from the log alone --
        assert rep.sessions == 2
        assert rep.total_chunks == len(second.queue)
        assert rep.complete
        assert rep.chunks_resumed == second.stats.skipped_from_checkpoint
        assert rep.lease_expiries >= 1          # the killed worker's chunk
        assert rep.worker_crashes >= 1
        assert "pool-0" in rep.workers          # the dead child's books
        assert rep.checkpoint_writes >= 1
        # Every computed delivery is in the log: session 1's chunks plus
        # whatever session 2 had to (re)compute.
        assert rep.candidates_examined == examined_1 + examined_2
        # -- throughput agrees with the coordinators' own accounting --
        own = (examined_1 + examined_2) / (e1 + e2)
        assert rep.polys_per_second == pytest.approx(own, rel=0.10)
        # -- and the human rendering mentions the interesting parts --
        text = rep.render()
        assert "resumed from checkpoint" in text
        assert "expired" in text and "complete" in text

    def test_midflight_stop_resume_accounting(self, tmp_path):
        """A campaign torn down mid-flight (the operator's kill) and
        resumed finishes with consistent cross-session accounting."""
        log_path = tmp_path / "run.jsonl"
        ckpt = str(tmp_path / "campaign.json")

        with EventLog(log_path) as events:
            first = make_runner(events, checkpoint_path=ckpt,
                                checkpoint_every=1)
            e1 = first.run(stop_after=6)
        assert 0 < first.stats.completions < len(first.queue)
        examined_1 = first.campaign.candidates_examined

        with EventLog(log_path) as events:
            second = make_runner(events, checkpoint_path=ckpt)
            second.resume()
            at_resume = second.campaign.candidates_examined
            e2 = second.run()
        examined_2 = second.campaign.candidates_examined - at_resume
        assert examined_2 > 0                   # real work left to do

        rep = RunReport.from_path(log_path)
        assert rep.sessions == 2
        assert rep.complete
        assert rep.chunks_completed == (
            first.stats.completions + second.stats.completions
        )
        assert rep.chunks_resumed == second.stats.skipped_from_checkpoint
        assert rep.candidates_examined == examined_1 + examined_2
        own = (examined_1 + examined_2) / (e1 + e2)
        assert rep.polys_per_second == pytest.approx(own, rel=0.10)

    def test_events_off_by_default_writes_nothing(self, tmp_path, monkeypatch):
        from repro.obs.events import NULL_EVENTS

        monkeypatch.chdir(tmp_path)
        runner = ParallelCoordinator(config=CFG, chunk_size=8, processes=2,
                                     max_seconds=MAX_SECONDS)
        assert runner.events is NULL_EVENTS     # the default sink
        assert runner.collect_metrics is False
        runner.run()
        assert runner.queue.all_done
        assert list(tmp_path.iterdir()) == []   # no log, no side files
        assert runner.metrics.counters == {}    # no worker snapshots


class TestSurvivalEvents:
    """The survival-kit vocabulary folds into the report."""

    def _stream(self):
        return [
            {"v": 1, "seq": 0, "t": 0.0, "event": "log.open",
             "wall": 1e9, "pid": 1},
            {"v": 1, "seq": 1, "t": 0.0, "event": "campaign.start",
             "backend": "pool", "width": 8, "target_hd": 4,
             "final_length": 100, "chunk_size": 8, "chunks": 4,
             "processes": 2},
            {"v": 1, "seq": 2, "t": 0.2, "event": "lease.backoff",
             "chunk": 1, "attempt": 1, "delay": 0.05},
            {"v": 1, "seq": 3, "t": 0.5, "event": "chunk.quarantine",
             "chunk": 1, "attempts": 3},
            {"v": 1, "seq": 4, "t": 0.6, "event": "shutdown.drain",
             "signal": "SIGTERM", "delivered": 1, "forfeited": 2,
             "grace": 5.0},
            {"v": 1, "seq": 5, "t": 0.7, "event": "campaign.interrupted",
             "signal": "SIGTERM", "elapsed": 0.7, "completions": 1,
             "examined": 8},
            # Session 2: resume re-announces the checkpoint-restored
            # quarantine and reports the corrupt current generation.
            {"v": 1, "seq": 0, "t": 0.0, "event": "log.open",
             "wall": 1e9, "pid": 2},
            {"v": 1, "seq": 1, "t": 0.0, "event": "checkpoint.corrupt",
             "path": "c.json", "fallback": "c.json.prev", "error": "crc"},
            {"v": 1, "seq": 2, "t": 0.1, "event": "chunk.quarantine",
             "chunk": 1, "attempts": 0, "restored": True},
            {"v": 1, "seq": 3, "t": 0.2, "event": "campaign.resume",
             "path": "c.json.prev", "skipped": 1, "quarantined": 1},
        ]

    def test_counters_fold(self):
        rep = RunReport.from_events(self._stream())
        assert rep.retry_backoffs == 1
        assert rep.quarantined_chunks == 1  # restored=True not re-counted
        assert rep.interruptions == 1
        assert rep.drain_forfeits == 2
        assert rep.checkpoint_corruptions == 1
        assert rep.sessions == 2
        # campaign.interrupted carries the session's elapsed time.
        assert rep.active_seconds == pytest.approx(0.7 + 0.2)

    def test_render_and_bench_mention_survival_lines(self, tmp_path):
        rep = RunReport.from_events(self._stream())
        text = rep.render()
        assert "quarantine: 1 chunks" in text
        assert "1 graceful drains" in text
        assert "1 corruption fallbacks" in text
        bench = rep.to_bench_dict()["metrics"]
        assert bench["quarantined_chunks"] == 1
        assert bench["interruptions"] == 1
        assert bench["checkpoint_corruptions"] == 1
        assert bench["retry_backoffs"] == 1


def farm_stream():
    """A synthetic farm-coordinator log: two worker hosts, one
    reconnect, one expiry-then-bench, worker-tagged completions."""
    base = {"v": 1, "t": 0.0}
    recs = [
        {**base, "seq": 0, "event": "log.open", "wall": 1e9, "pid": 1},
        {**base, "seq": 1, "event": "campaign.start", "backend": "net",
         "width": 8, "target_hd": 4, "final_length": 100, "chunk_size": 8,
         "chunks": 4},
        {**base, "seq": 2, "t": 0.1, "event": "worker.hello", "worker": "wA",
         "host": "alpha", "reconnect": False},
        {**base, "seq": 3, "t": 0.1, "event": "worker.hello", "worker": "wB",
         "host": "beta", "reconnect": False},
        {**base, "seq": 4, "t": 0.2, "event": "lease.grant", "chunk": 0,
         "attempt": 1, "worker": "wA"},
        {**base, "seq": 5, "t": 1.0, "event": "chunk.done", "chunk": 0,
         "attempt": 1, "examined": 8, "survivors": 1, "seconds": 0.5,
         "stage_kills": {"16": 7}, "duplicate": False, "worker": "wA"},
        # wB strands a lease, reconnects, then redelivers a duplicate.
        {**base, "seq": 6, "t": 1.1, "event": "lease.grant", "chunk": 1,
         "attempt": 1, "worker": "wB"},
        {**base, "seq": 7, "t": 1.8, "event": "lease.expire", "chunk": 1,
         "owner": "wB", "attempt": 1},
        {**base, "seq": 8, "t": 1.9, "event": "worker.hello", "worker": "wB",
         "host": "beta", "reconnect": True},
        {**base, "seq": 9, "t": 2.0, "event": "worker.lease_lost",
         "worker": "wB", "chunk": 1, "reason": "lease expired"},
        {**base, "seq": 10, "t": 2.1, "event": "lease.grant", "chunk": 1,
         "attempt": 2, "worker": "wA"},
        {**base, "seq": 11, "t": 2.9, "event": "chunk.done", "chunk": 1,
         "attempt": 2, "examined": 8, "survivors": 0, "seconds": 0.7,
         "stage_kills": {"16": 8}, "duplicate": False, "worker": "wA"},
        {**base, "seq": 12, "t": 3.0, "event": "chunk.done", "chunk": 1,
         "attempt": 1, "examined": 8, "survivors": 0, "seconds": 0.7,
         "stage_kills": {"16": 8}, "duplicate": True, "worker": "wB"},
        {**base, "seq": 13, "t": 3.1, "event": "worker.benched",
         "worker": "wB", "faults": 1},
        {**base, "seq": 14, "t": 4.0, "event": "campaign.end", "chunks": 4,
         "elapsed": 4.0},
    ]
    return recs


class TestWorkerAccounting:
    def test_farm_events_fold_into_per_host_books(self):
        report = RunReport.from_events(farm_stream())
        assert set(report.workers) == {"wA", "wB"}
        wa, wb = report.workers["wA"], report.workers["wB"]
        # wA did all the merged work, including the retry of chunk 1.
        assert wa == {
            "host": "alpha", "chunks": 2, "examined": 16,
            "seconds": pytest.approx(1.2), "connections": 1,
            "reconnects": 0, "lease_losses": 0, "expiries": 0,
            "benched": False,
        }
        # wB's duplicate never counts as a chunk; its expiry, lost
        # lease, reconnect and benching all land on its book.
        assert wb["chunks"] == 0 and wb["examined"] == 0
        assert wb["connections"] == 2 and wb["reconnects"] == 1
        assert wb["expiries"] == 1 and wb["lease_losses"] == 1
        assert wb["benched"] is True
        assert wb["host"] == "beta"

    def test_pool_campaign_has_no_worker_books(self):
        report = RunReport.from_events(synthetic_stream())
        assert report.workers == {}
        assert "workers:" not in report.render()

    def test_render_and_bench_dict_surface_the_books(self):
        report = RunReport.from_events(farm_stream())
        rendered = report.render()
        assert "workers: 2 host(s)" in rendered
        assert "benched" in rendered
        bench = report.to_bench_dict()
        workers = bench["metrics"]["workers"]
        assert workers["wA"]["chunks"] == 2
        assert workers["wA"]["seconds"] == pytest.approx(1.2)
        assert workers["wB"]["benched"] is True
        json.dumps(bench)  # still plain JSON
