"""Chaos-harness building blocks: fault-plan determinism, identical
same-seed campaigns, quarantine, graceful drain, and corrupt-resume.

The property the survival kit rests on: a seeded fault schedule is a
*value*, not a dice roll.  Two campaigns under the same plan make the
same scheduling decisions, emit the same event sequence (modulo
timestamps), and converge on the same record -- which is what lets
``test_identity_matrix.py`` assert byte-identical records after a
kill, a corruption, and a resume.
"""

from __future__ import annotations

import dataclasses
import os
import signal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.checkpoint import previous_path
from repro.dist.coordinator import Coordinator
from repro.dist.faults import FaultPlan, corrupt_file
from repro.dist.pool import ParallelCoordinator
from repro.dist.worker import ChunkWorker
from repro.obs.events import EventLog, read_events

from tests.dist.conftest import CFG, CHUNK_SIZE, MAX_SECONDS

#: Fields whose values depend on the wall clock or the process, not on
#: the campaign's logical behaviour.
_TIMESTAMP_KEYS = ("t", "wall", "pid", "seconds", "elapsed")


def make_pool_runner(**kwargs) -> ParallelCoordinator:
    kwargs.setdefault("config", CFG)
    kwargs.setdefault("chunk_size", CHUNK_SIZE)
    kwargs.setdefault("processes", 2)
    kwargs.setdefault("lease_duration", 2.0)
    kwargs.setdefault("max_seconds", MAX_SECONDS)
    kwargs.setdefault("retry_backoff", 0.01)
    return ParallelCoordinator(**kwargs)


class TestFaultPlanDeterminism:
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_random_plan_is_a_pure_function_of_its_seed(self, seed):
        ids = [f"w{i}" for i in range(5)]
        assert FaultPlan.random_plan(ids, seed) == FaultPlan.random_plan(
            ids, seed
        )

    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=2, max_value=64),
    )
    @settings(max_examples=50, deadline=None)
    def test_chaos_plan_is_deterministic_and_well_formed(self, seed, chunks):
        a = FaultPlan.chaos_plan(seed, chunks, kill_signal_after=3)
        b = FaultPlan.chaos_plan(seed, chunks, kill_signal_after=3)
        assert a == b
        # Crash and kill sets are disjoint chunk ids inside the
        # partition: one chunk gets one failure mode.
        assert a.crash_chunks.isdisjoint(a.kill_chunks)
        assert all(0 <= c < chunks for c in a.crash_chunks | a.kill_chunks)
        assert a.kill_signal_after == 3

    def test_different_seeds_differ(self):
        plans = {
            str(FaultPlan.chaos_plan(seed, 64)) for seed in range(8)
        }
        assert len(plans) > 1


def _event_shape(path: str) -> list[dict]:
    """The event stream with every wall-clock-dependent field removed:
    what 'identical modulo timestamps' means, operationally."""
    shape = []
    for rec in read_events(path):
        shape.append(
            {k: v for k, v in rec.items() if k not in _TIMESTAMP_KEYS}
        )
    return shape


class TestSameSeedCampaignsAreIdentical:
    @pytest.mark.parametrize("seed", [7, 99])
    def test_simulated_event_sequences_match(self, tmp_path, seed):
        def run(tag: str) -> tuple[str, str]:
            ids = [f"w{i}" for i in range(4)]
            plan = FaultPlan.random_plan(ids, seed=seed)
            plan.crash_points.pop("w0", None)  # keep one worker alive
            log = str(tmp_path / f"{tag}.jsonl")
            with EventLog(log) as events:
                coord = Coordinator(
                    config=CFG, chunk_size=CHUNK_SIZE, lease_duration=2.0,
                    events=events,
                )
                coord.run([ChunkWorker(w, CFG, faults=plan) for w in ids])
            return log, coord.campaign.to_json()

        log_a, record_a = run("a")
        log_b, record_b = run("b")
        assert record_a == record_b  # bit-identical records
        assert _event_shape(log_a) == _event_shape(log_b)

    def test_event_shape_strips_only_timestamps(self, tmp_path):
        log = str(tmp_path / "probe.jsonl")
        with EventLog(log) as events:
            events.emit("probe", chunk=3, seconds=1.25)
        (open_rec, probe) = _event_shape(log)
        assert open_rec["event"] == "log.open"
        assert probe == {"v": probe["v"], "seq": 1, "event": "probe",
                         "chunk": 3}


class TestPoisonQuarantine:
    def test_poison_chunk_quarantined_campaign_terminates(self):
        runner = make_pool_runner(
            faults=FaultPlan(poison_chunks={5}), max_attempts=3,
        )
        runner.run()
        assert runner.queue.finished and not runner.queue.all_done
        assert runner.queue.quarantined_ids == [5]
        assert runner.stats.quarantined == 1
        assert runner.queue.task(5).attempts == 3
        assert 5 not in runner.campaign.chunks_done
        assert len(runner.campaign.chunks_done) == len(runner.queue) - 1

    def test_quarantine_round_trips_through_checkpoint(self, tmp_path):
        ckpt = str(tmp_path / "q.ckpt")
        first = make_pool_runner(
            faults=FaultPlan(poison_chunks={2}), max_attempts=2,
            checkpoint_path=ckpt,
        )
        first.run()
        assert first.queue.quarantined_ids == [2]

        benched = make_pool_runner(checkpoint_path=ckpt)
        skipped = benched.resume()
        assert skipped == len(benched.queue) - 1
        assert benched.queue.quarantined_ids == [2]
        assert benched.queue.finished  # nothing to run; still benched

        # --retry-quarantined: fresh budget, no faults this time.
        retried = make_pool_runner(checkpoint_path=ckpt)
        retried.resume(retry_quarantined=True)
        assert retried.queue.quarantined_ids == []
        retried.run()
        assert retried.queue.all_done


class TestGracefulShutdown:
    def test_sigterm_drains_checkpoints_and_resumes(self, tmp_path, reference):
        ckpt = str(tmp_path / "drain.ckpt")
        plan = FaultPlan(kill_signal_after=4)
        first = make_pool_runner(
            checkpoint_path=ckpt, checkpoint_every=2, faults=plan,
            drain_grace=10.0,
        )
        before = signal.getsignal(signal.SIGTERM)
        first.run()
        assert first.interrupted == "SIGTERM"
        assert not first.queue.finished
        assert first.stats.checkpoints_written >= 1
        # The drain restored the previous SIGTERM disposition.
        assert signal.getsignal(signal.SIGTERM) is before

        second = make_pool_runner(checkpoint_path=ckpt)
        skipped = second.resume()
        assert skipped >= 4  # everything delivered before + during drain
        second.run()
        assert second.interrupted is None
        assert second.campaign.to_json() == reference

    def test_corrupt_checkpoint_resume_falls_back(self, tmp_path, reference):
        ckpt = str(tmp_path / "rot.ckpt")
        first = make_pool_runner(checkpoint_path=ckpt, checkpoint_every=2)
        first.run(stop_after=6)
        first.save_checkpoint()
        assert os.path.exists(previous_path(ckpt))
        corrupt_file(ckpt, seed=11)

        log = str(tmp_path / "rot.jsonl")
        with EventLog(log) as events:
            second = make_pool_runner(checkpoint_path=ckpt, events=events)
            second.resume()
            second.run()
        names = [rec["event"] for rec in read_events(log)]
        assert "checkpoint.corrupt" in names
        assert second.campaign.to_json() == reference


class TestRebuildBackoff:
    def test_repeated_pool_deaths_eventually_give_up(self):
        # Injected kills fire on first attempts only, so a real run
        # cannot wedge the pool forever; drive the streak counter
        # directly to pin down the give-up bound.
        runner = make_pool_runner(max_rebuild_streak=2, rebuild_backoff=0.0)
        executor = runner._new_executor()
        with pytest.raises(RuntimeError, match="giving up"):
            for _ in range(3):
                executor, _ = runner._rebuild(executor, {}, now=0.0)
        executor.shutdown(wait=False)
        assert runner.stats.pool_rebuilds == 3


class TestFarmChaosPlan:
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.integers(min_value=1, max_value=12),
    )
    @settings(max_examples=60, deadline=None)
    def test_deterministic_and_well_formed(self, seed, n):
        workers = [f"w{i}" for i in range(n)]
        a = FaultPlan.farm_chaos_plan(seed, workers)
        b = FaultPlan.farm_chaos_plan(seed, workers)
        assert a == b
        # Every fault the schedule promises is actually scheduled.
        assert len(a.net_kill_after) == 1
        assert len(a.net_sever_after) == 1
        assert len(a.net_drop_complete) == 1
        assert len(a.net_duplicate_complete) == 1
        # The drop/duplicate chain: ordinal 0 vanishes, so the resend
        # is ordinal 1 -- the duplicated frame, on the same worker.
        (flaky, drops), = a.net_drop_complete.items()
        assert drops == {0}
        assert a.net_duplicate_complete == {flaky: {1}}
        # All targets come from the farm.
        targets = (
            set(a.net_kill_after) | set(a.net_sever_after)
            | set(a.net_drop_complete)
        )
        assert targets <= set(workers)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_big_farms_spread_the_faults_over_live_workers(self, seed):
        workers = [f"w{i}" for i in range(3)]
        plan = FaultPlan.farm_chaos_plan(seed, workers)
        (victim,), = [list(plan.net_kill_after)]
        (flaky,), = [list(plan.net_drop_complete)]
        # The killed worker never carries the drop/duplicate or sever
        # faults: its recovery path (reaper reclaim) must be exercised
        # on a stranded lease, the others on live reconnecting workers.
        assert victim != flaky
        assert victim not in plan.net_sever_after

    def test_faults_can_be_toggled_off(self):
        plan = FaultPlan.farm_chaos_plan(
            7, ["w0", "w1"], sever=False, kill=False
        )
        assert not plan.net_sever_after and not plan.net_kill_after
        # With drops off, the duplicate falls back to ordinal 0.
        solo = FaultPlan.farm_chaos_plan(7, ["w0"], drop=False, kill=False)
        (dupes,) = solo.net_duplicate_complete.values()
        assert dupes == {0}
