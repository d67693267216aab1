"""Wall-clock process-pool campaign tests.

Governing invariant (same as the simulated coordinator's): whatever
happens to the forked workers -- exceptions, hard kills, duplicate
deliveries, mid-flight shutdown plus resume -- the finished campaign
record is byte-identical to the reference.  The clean run and the
chaos run are cells of ``test_identity_matrix.py``.  Faults use the
farm's dialect, keyed by the children's labels ``pool-0``,
``pool-1``, ...; a respawned child takes the next label.
"""

from __future__ import annotations

import json
import os
import signal

import pytest

from repro.dist.checkpoint import CheckpointMismatch
from repro.dist.faults import FaultPlan
from repro.dist.net import (
    config_from_wire,
    config_to_wire,
    result_from_wire,
    result_to_wire,
)
from repro.dist.pool import ParallelCoordinator
from repro.search.exhaustive import SearchConfig, search_chunk

from tests.dist.conftest import CFG, CHUNK_SIZE, CHUNKS, MAX_SECONDS, Recorder


def make_runner(**kwargs):
    kwargs.setdefault("config", CFG)
    kwargs.setdefault("chunk_size", CHUNK_SIZE)
    kwargs.setdefault("processes", 2)
    kwargs.setdefault("lease_duration", 0.5)
    kwargs.setdefault("max_seconds", MAX_SECONDS)
    return ParallelCoordinator(**kwargs)


def assert_matches_reference(runner, reference):
    assert runner.queue.all_done
    assert runner.campaign.to_json() == reference


class TestPicklability:
    def test_chunk_payloads_round_trip(self):
        """The pool ships configs out in ``hello`` and results back in
        ``complete`` frames; both must survive the JSON wire unchanged
        (witnesses, weights, stage kills and all)."""
        wire = json.loads(json.dumps(config_to_wire(CFG)))
        assert config_from_wire(wire) == CFG
        res = search_chunk(CFG, 0, 16)
        back = result_from_wire(
            json.loads(json.dumps(result_to_wire(res))), CFG
        )
        assert back.records == res.records
        assert back.examined == res.examined
        assert back.stage_kills == res.stage_kills


class TestCleanRun:
    def test_single_process_matches_four(self, reference):
        one = make_runner(processes=1)
        one.run()
        four = make_runner(processes=4)
        four.run()
        assert_matches_reference(one, reference)
        assert_matches_reference(four, reference)

    def test_rejects_zero_processes(self):
        with pytest.raises(ValueError, match="processes"):
            make_runner(processes=0)


class _SigkillOnFirstLease(FaultPlan):
    """A fault with no exception and no cleanup: ``pool-0`` SIGKILLs
    itself the moment it holds its first lease."""

    def net_kills(self, label, completions):
        if label == "pool-0":
            os.kill(os.getpid(), signal.SIGKILL)
        return False


class TestFaultTolerance:
    def test_soft_crash_reassigned_after_lease_expiry(self, reference):
        """A child that raises holding a lease forfeits it: the
        launcher releases it at once and the chunk's next attempt,
        on another child, completes it."""
        events = Recorder()
        runner = make_runner(
            faults=FaultPlan(net_kill_after={"pool-0": 0}), events=events
        )
        runner.run()
        assert_matches_reference(runner, reference)
        (crash,) = events.fields("worker.crash")
        assert crash["worker"] == "pool-0" and crash["exitcode"] == 1
        (chunk,) = crash["chunks"]
        assert runner.stats.reassignments >= 1
        assert runner.queue.task(chunk).attempts == 2

    def test_hard_kill_respawns_child(self, reference):
        """A SIGKILLed child takes the same path as one that raised:
        its lease is released long before it could expire, and a
        fresh child under the next label joins the campaign."""
        events = Recorder()
        runner = make_runner(
            faults=_SigkillOnFirstLease(), events=events, lease_duration=60.0
        )
        runner.run()
        assert_matches_reference(runner, reference)
        (crash,) = events.fields("worker.crash")
        assert crash["exitcode"] == -signal.SIGKILL
        assert crash["respawn"] == "pool-2"
        granted, grant = events.first("lease.grant", worker="pool-0")
        released, _ = events.first("lease.expire", owner="pool-0")
        assert crash["chunks"] == [grant["chunk"]]
        assert released - granted < 6.0
        assert any(
            f["worker"] == "pool-2" for f in events.fields("chunk.done")
        )

    def test_duplicate_delivery_deduped(self, reference):
        plan = FaultPlan(net_duplicate_complete={"pool-0": {5}})
        runner = make_runner(faults=plan, processes=1)
        runner.run()
        assert_matches_reference(runner, reference)
        assert runner.stats.duplicate_deliveries == 1

    def test_respawns_are_bounded(self):
        """Children that keep dying without a completion in between
        end the campaign after ``max_rebuild_streak`` respawns instead
        of forking forever."""
        events = Recorder()
        runner = make_runner(
            faults=FaultPlan(poison_chunks=set(range(CHUNKS))), max_attempts=0,
            max_rebuild_streak=2, events=events, processes=1,
        )
        with pytest.raises(RuntimeError, match="giving up"):
            runner.run()
        crashes = events.fields("worker.crash")
        assert len(crashes) == 3
        assert [f["respawn"] for f in crashes] == ["pool-1", "pool-2", None]
        assert not runner._children  # every child reaped


class TestKillAndResume:
    def test_kill_checkpoint_resume_equals_clean_run(self, tmp_path, reference):
        """The acceptance scenario end to end: a campaign survives a
        killed worker process, checkpoints mid-flight, is torn down,
        and a fresh resumed runner finishes to the identical record
        without recomputing checkpointed chunks."""
        path = str(tmp_path / "campaign.json")
        events = Recorder()
        plan = FaultPlan(net_kill_after={"pool-0": 1})
        first = make_runner(
            faults=plan, checkpoint_path=path, checkpoint_every=1,
            events=events,
        )
        first.run(stop_after=6)  # mid-flight shutdown, checkpoint written
        assert events.fields("worker.crash")  # the kill really happened
        assert 0 < first.stats.completions < len(first.queue)

        resumed = make_runner(checkpoint_path=path)
        skipped = resumed.resume()
        assert skipped >= first.stats.completions - 1  # last ckpt may lag by <every
        assert skipped > 0
        resumed.run()
        assert_matches_reference(resumed, reference)

    def test_resume_skips_without_recompute(self, tmp_path, reference):
        path = str(tmp_path / "campaign.json")
        full = make_runner(checkpoint_path=path, checkpoint_every=1)
        full.run()
        assert_matches_reference(full, reference)

        resumed = make_runner(checkpoint_path=path)
        assert resumed.resume() == len(resumed.queue)
        resumed.run()
        assert resumed.stats.completions == 0  # nothing recomputed
        assert_matches_reference(resumed, reference)

    def test_resume_rejects_foreign_checkpoint(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        make_runner(checkpoint_path=path).save_checkpoint()
        other_cfg = SearchConfig(width=9, target_hd=4,
                                 filter_lengths=(16, 40, 100),
                                 confirm_weights=False)
        foreign = ParallelCoordinator(
            config=other_cfg, chunk_size=8, processes=1, checkpoint_path=path
        )
        with pytest.raises(CheckpointMismatch, match="width"):
            foreign.resume()

    def test_resume_rejects_partition_mismatch(self, tmp_path):
        path = str(tmp_path / "campaign.json")
        make_runner(chunk_size=8, checkpoint_path=path).save_checkpoint()
        repartitioned = make_runner(chunk_size=64, checkpoint_path=path)
        with pytest.raises(CheckpointMismatch, match="chunk_size"):
            repartitioned.resume()


class TestProgress:
    def test_summary_lines_emitted(self):
        lines: list[str] = []
        runner = make_runner(log=lines.append, progress_interval=0.0)
        runner.run()
        assert lines, "no progress output"
        assert "chunks" in lines[-1]
        assert "complete" in lines[-1]
