"""End-to-end campaign tests: fault tolerance and checkpointing.

The governing invariant: whatever the fault plan, the finished
campaign's results are identical to a clean single-threaded run --
no lost chunks, no double counting.
"""

from __future__ import annotations

import pytest

from repro.dist.coordinator import Coordinator
from repro.dist.faults import FaultPlan
from repro.dist.worker import ChunkWorker
from repro.search.exhaustive import SearchConfig, search_all

CFG = SearchConfig(width=6, target_hd=4, filter_lengths=(8, 20), confirm_weights=False)


@pytest.fixture(scope="module")
def clean_baseline():
    res = search_all(CFG)
    return {r.poly: r.survived for r in res.records}, res.examined


def run_campaign(fault_plan: FaultPlan, n_workers: int = 3, chunk_size: int = 4):
    coord = Coordinator(config=CFG, chunk_size=chunk_size, lease_duration=2.0)
    workers = [
        ChunkWorker(f"w{i}", CFG, faults=fault_plan) for i in range(n_workers)
    ]
    coord.run(workers)
    return coord


class TestCleanRun:
    def test_matches_direct_search(self, clean_baseline):
        truth, examined = clean_baseline
        coord = run_campaign(FaultPlan())
        assert coord.campaign.candidates_examined == examined
        assert {r.poly: r.survived for r in coord.campaign.results.values()} == truth
        assert coord.stats.duplicate_deliveries == 0


class TestFaultTolerance:
    def test_crash_recovery(self, clean_baseline):
        truth, examined = clean_baseline
        coord = run_campaign(FaultPlan(crash_points={"w0": 0, "w1": 2}))
        assert coord.campaign.candidates_examined == examined
        assert {r.poly: r.survived for r in coord.campaign.results.values()} == truth
        assert coord.stats.reassignments >= 1

    def test_duplicate_deliveries_deduped(self, clean_baseline):
        truth, examined = clean_baseline
        coord = run_campaign(FaultPlan(duplicate_completions={"w0": 0, "w2": 1}))
        assert coord.campaign.candidates_examined == examined
        assert coord.stats.duplicate_deliveries >= 1
        assert {r.poly: r.survived for r in coord.campaign.results.values()} == truth

    def test_all_workers_dead_raises(self):
        coord = Coordinator(config=CFG, chunk_size=4, lease_duration=2.0)
        plan = FaultPlan(crash_points={"w0": 0})
        with pytest.raises(RuntimeError, match="all workers dead"):
            coord.run([ChunkWorker("w0", CFG, faults=plan)])

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_random_fault_soak(self, seed, clean_baseline):
        truth, examined = clean_baseline
        ids = [f"w{i}" for i in range(4)]
        plan = FaultPlan.random_plan(ids, seed=seed)
        # keep at least one worker alive
        plan.crash_points.pop("w0", None)
        coord = Coordinator(config=CFG, chunk_size=4, lease_duration=2.0)
        coord.run([ChunkWorker(w, CFG, faults=plan) for w in ids])
        assert coord.campaign.candidates_examined == examined
        assert {r.poly: r.survived for r in coord.campaign.results.values()} == truth


class TestCheckpoint:
    def test_roundtrip_and_resume(self, tmp_path, clean_baseline):
        truth, examined = clean_baseline
        # First campaign runs halfway (simulate by chunking and merging
        # only some chunks), checkpoints, then a fresh coordinator
        # resumes and finishes.
        coord = Coordinator(config=CFG, chunk_size=4, lease_duration=2.0)
        from repro.search.exhaustive import search_chunk

        for chunk_id in (0, 1, 2):
            task = coord.queue.task(chunk_id)
            res = search_chunk(CFG, task.start_index, task.end_index)
            coord.queue.complete(chunk_id, "w0", 1.0)
            coord.deliver(task, res, "w0")
        path = str(tmp_path / "campaign.json")
        coord.save_checkpoint(path)

        resumed = Coordinator(config=CFG, chunk_size=4, lease_duration=2.0)
        skipped = resumed.resume(path)
        assert skipped == 3
        resumed.run([ChunkWorker("w1", CFG)])
        assert resumed.campaign.candidates_examined == examined
        assert {
            r.poly: r.survived for r in resumed.campaign.results.values()
        } == truth
