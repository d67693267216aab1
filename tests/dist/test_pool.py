"""Wall-clock process-pool campaign tests.

Governing invariant (same as the simulated coordinator's): whatever
happens to the subprocesses -- crashes, hard kills, duplicate
deliveries, mid-flight shutdown plus resume -- the finished campaign
record is byte-identical to the reference.  The clean run and the
seeded chaos run are cells of ``test_identity_matrix.py``.
"""

from __future__ import annotations

import pickle
from concurrent.futures import wait
from concurrent.futures.process import BrokenProcessPool

import pytest

from repro.dist.checkpoint import CheckpointMismatch
from repro.dist.faults import POOL_CRASH, POOL_KILL, FaultPlan
from repro.dist.pool import ParallelCoordinator, _run_chunk
from repro.search.exhaustive import SearchConfig, search_chunk

from tests.dist.conftest import CFG, CHUNK_SIZE, MAX_SECONDS, Recorder


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
        """The pool pickles configs out and results back; both must
        survive unchanged (witnesses, weights, stage kills and all)."""
        assert pickle.loads(pickle.dumps(CFG)) == CFG
        res = search_chunk(CFG, 0, 16)
        back = pickle.loads(pickle.dumps(res))
        assert back.records == res.records
        assert back.examined == res.examined
        assert back.stage_kills == res.stage_kills

    def test_subprocess_entry_is_importable_by_name(self):
        # ProcessPoolExecutor pickles the callable by qualified name.
        assert _run_chunk.__module__ == "repro.dist.pool"
        assert _run_chunk.__qualname__ == "_run_chunk"


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


class TestFaultTolerance:
    def test_soft_crash_reassigned_after_lease_expiry(self, reference):
        plan = FaultPlan(crash_points={POOL_CRASH: 3})
        runner = make_runner(faults=plan)
        runner.run()
        assert_matches_reference(runner, reference)
        assert runner.stats.crashes == 1
        assert runner.stats.reassignments >= 1
        assert runner.queue.task(3).attempts == 2

    def test_hard_kill_rebuilds_pool(self, reference):
        plan = FaultPlan(crash_points={POOL_KILL: 2})
        runner = make_runner(faults=plan)
        runner.run()
        assert_matches_reference(runner, reference)
        assert runner.stats.pool_rebuilds >= 1
        assert runner.stats.reassignments >= 1

    def test_kill_seen_at_submit_is_a_crash(self, reference):
        """A pool that breaks between two submissions is reported by
        ``submit`` before the coordinator's wait sees the dead future.
        That path must record the killed chunk as a crash before the
        rebuild, exactly as the wait path does."""
        events = Recorder()
        runner = make_runner(
            faults=FaultPlan(kill_chunks={0}), events=events
        )
        submits_refused: list[int] = []
        runner._new_executor = lambda: _SubmitAfterSettling(
            ParallelCoordinator._new_executor(runner), submits_refused
        )
        runner.run()
        assert_matches_reference(runner, reference)
        assert submits_refused, "the submit-time path never ran"
        assert runner.stats.crashes == 1
        assert runner.stats.pool_rebuilds == 1
        names = [name for name, _ in events.records]
        crash = names.index("worker.crash")
        assert events.records[crash][1] == {"chunk": 0, "kind": "killed"}
        assert crash < names.index("pool.rebuild")

    def test_duplicate_delivery_deduped(self, reference):
        plan = FaultPlan(duplicate_completions={POOL_CRASH: 5})
        runner = make_runner(faults=plan)
        runner.run()
        assert_matches_reference(runner, reference)
        assert runner.stats.duplicate_deliveries == 1


class _SubmitAfterSettling:
    """Executor wrapper whose ``submit`` first waits for every future
    it has already handed out.  A worker killed under one of them has
    then broken the pool, so the next ``submit`` raises
    ``BrokenProcessPool`` -- the submit-time detection path, made
    deterministic.  Refused submissions are noted in ``refused``."""

    def __init__(self, inner, refused: list[int]) -> None:
        self.inner = inner
        self.refused = refused
        self.handed_out = []

    def submit(self, fn, *args):
        wait(self.handed_out)
        try:
            fut = self.inner.submit(fn, *args)
        except BrokenProcessPool:
            self.refused.append(args[3])  # the chunk id
            raise
        self.handed_out.append(fut)
        return fut

    def shutdown(self, **kwargs):
        self.inner.shutdown(**kwargs)


class TestKillAndResume:
    def test_kill_checkpoint_resume_equals_clean_run(self, tmp_path, reference):
        """The acceptance scenario end to end: a campaign survives a
        killed worker process, checkpoints mid-flight, is torn down,
        and a fresh resumed runner finishes to the identical record
        without recomputing checkpointed chunks."""
        path = str(tmp_path / "campaign.json")
        plan = FaultPlan(crash_points={POOL_KILL: 1})
        first = make_runner(
            faults=plan, checkpoint_path=path, checkpoint_every=1
        )
        first.run(stop_after=6)  # mid-flight shutdown, checkpoint written
        assert first.stats.pool_rebuilds >= 1  # the kill really happened
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
