"""End-to-end campaign tests: fault tolerance and checkpointing.

The governing invariant: whatever the fault plan, the finished
campaign's record is identical to the reference -- no lost chunks, no
double counting.  The clean run is a cell of
``test_identity_matrix.py``.
"""

from __future__ import annotations

import pytest

from repro.dist.coordinator import Coordinator
from repro.dist.faults import FaultPlan
from repro.dist.worker import ChunkWorker
from repro.search.exhaustive import search_chunk

from tests.dist.conftest import CFG, CHUNK_SIZE, CHUNKS, Recorder


def run_campaign(fault_plan: FaultPlan, n_workers: int = 3):
    coord = Coordinator(config=CFG, chunk_size=CHUNK_SIZE, lease_duration=2.0)
    workers = [
        ChunkWorker(f"w{i}", CFG, faults=fault_plan) for i in range(n_workers)
    ]
    coord.run(workers)
    return coord


class TestFaultTolerance:
    def test_crash_recovery(self, reference):
        coord = run_campaign(FaultPlan(crash_points={"w0": 0, "w1": 2}))
        assert coord.campaign.to_json() == reference
        assert coord.stats.reassignments >= 1

    def test_duplicate_deliveries_deduped(self, reference):
        coord = run_campaign(FaultPlan(duplicate_completions={"w0": 0, "w2": 1}))
        assert coord.stats.duplicate_deliveries >= 1
        assert coord.campaign.to_json() == reference

    def test_all_workers_dead_raises(self):
        coord = Coordinator(config=CFG, chunk_size=CHUNK_SIZE, lease_duration=2.0)
        plan = FaultPlan(crash_points={"w0": 0})
        with pytest.raises(RuntimeError, match="all workers dead"):
            coord.run([ChunkWorker("w0", CFG, faults=plan)])

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_fault_soak(self, seed, reference):
        ids = [f"w{i}" for i in range(4)]
        plan = FaultPlan.random_plan(ids, seed=seed)
        # keep at least one worker alive
        plan.crash_points.pop("w0", None)
        coord = Coordinator(config=CFG, chunk_size=CHUNK_SIZE, lease_duration=2.0)
        coord.run([ChunkWorker(w, CFG, faults=plan) for w in ids])
        assert coord.campaign.to_json() == reference


class TestCheckpoint:
    def test_roundtrip_and_resume(self, tmp_path, reference):
        # First campaign runs partway (simulate by merging only some
        # chunks), checkpoints, then a fresh coordinator resumes and
        # finishes.
        coord = Coordinator(config=CFG, chunk_size=CHUNK_SIZE, lease_duration=2.0)
        for chunk_id in (0, 1, 2):
            task = coord.queue.task(chunk_id)
            res = search_chunk(CFG, task.start_index, task.end_index)
            coord.queue.complete(chunk_id, "w0", 1.0)
            coord.deliver(task, res, "w0")
        path = str(tmp_path / "campaign.json")
        coord.save_checkpoint(path)

        resumed = Coordinator(config=CFG, chunk_size=CHUNK_SIZE, lease_duration=2.0)
        skipped = resumed.resume(path)
        assert skipped == 3
        resumed.run([ChunkWorker("w1", CFG)])
        assert resumed.campaign.to_json() == reference


class TestDrain:
    def test_drain_stops_leasing_and_resume_finishes(self, tmp_path, reference):
        """A drain (the fault plan's scheduled SIGTERM) ends the run
        with work left, as the pool and the farm do: the final
        checkpoint and ``campaign.interrupted`` describe the partial
        run, and a resume finishes on the reference record."""
        path = str(tmp_path / "drain.ckpt")
        events = Recorder()
        coord = Coordinator(config=CFG, chunk_size=CHUNK_SIZE, events=events)
        coord.checkpoint_path = path
        coord.faults = FaultPlan(kill_signal_after=4)
        coord.run([ChunkWorker(f"w{i}", CFG) for i in range(3)])
        assert coord.interrupted == "SIGTERM"
        assert coord.stats.completions == 4
        assert not coord.queue.finished
        (interrupted,) = events.fields("campaign.interrupted")
        assert interrupted["completions"] == 4
        assert "campaign.end" not in events.names

        resumed = Coordinator(config=CFG, chunk_size=CHUNK_SIZE)
        assert resumed.resume(path) == 4
        resumed.run([ChunkWorker("w0", CFG)])
        assert resumed.interrupted is None
        assert resumed.stats.completions == CHUNKS - 4
        assert resumed.campaign.to_json() == reference
