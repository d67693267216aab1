"""One resume contract, held by the pool and by the farm.

Both run one campaign engine, :class:`~repro.dist.net.WorkServer`,
so a checkpoint written by either resumes in the other with the same
semantics: the fallback to the ``.prev`` generation when the live file
is corrupt, a :class:`CheckpointMismatch` for a chunk outside the
partition, and quarantined chunks restored -- or recomputed under
``retry_quarantined``.  That a fault-free run of each finishes on the
reference record is ``test_identity_matrix.py``'s.
"""

from __future__ import annotations

import sys
import threading

import pytest

from repro.dist import checkpoint
from repro.dist.campaign import compute_chunk
from repro.dist.checkpoint import CheckpointMismatch, previous_path
from repro.dist.faults import corrupt_file
from repro.dist.tasks import partition_space
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.events import NullEventLog

from tests.dist.conftest import (
    CFG,
    CHUNK_SIZE,
    CHUNKS,
    EXECUTORS,
    Recorder,
    record_of,
)


@pytest.fixture(params=EXECUTORS, ids=lambda make: make.__name__)
def make(request):
    return request.param


class TestResumeContract:
    def test_corrupt_checkpoint_falls_back_to_prev(
        self, tmp_path, make, reference
    ):
        path = str(tmp_path / "rot.ckpt")
        half = record_of(range(CHUNKS // 2))
        checkpoint.save(path, half, CFG, CHUNK_SIZE)
        checkpoint.save(path, half, CFG, CHUNK_SIZE)  # rotates to .prev
        corrupt_file(path, seed=3)
        events = Recorder()
        coord, run = make(path, events)
        assert coord.resume() == CHUNKS // 2
        assert "checkpoint.corrupt" in events.names
        run()
        assert coord.stats.completions == CHUNKS - CHUNKS // 2
        assert coord.campaign.to_json() == reference
        assert checkpoint.verify_file(previous_path(path))

    def test_chunk_outside_the_partition_is_a_mismatch(self, tmp_path, make):
        path = str(tmp_path / "edited.ckpt")
        record = record_of({0})
        record.chunks_done.add(999)
        checkpoint.save(path, record, CFG, CHUNK_SIZE)
        coord, _ = make(path, NullEventLog())
        with pytest.raises(CheckpointMismatch, match="999"):
            coord.resume()

    def test_quarantined_chunks_restored(self, tmp_path, make):
        path = str(tmp_path / "q.ckpt")
        checkpoint.save(
            path, record_of(range(2, CHUNKS)), CFG, CHUNK_SIZE,
            quarantined=[0, 1],
        )
        coord, run = make(path, NullEventLog())
        assert coord.resume() == CHUNKS - 2
        assert coord.queue.quarantined_ids == [0, 1]
        assert coord.stats.quarantined == 2
        run()
        assert coord.queue.finished and not coord.queue.all_done
        assert coord.stats.completions == 0
        assert coord.queue.quarantined_ids == [0, 1]

    def test_retry_quarantined_computes_them(self, tmp_path, make, reference):
        path = str(tmp_path / "q.ckpt")
        checkpoint.save(
            path, record_of(range(2, CHUNKS)), CFG, CHUNK_SIZE,
            quarantined=[0, 1],
        )
        coord, run = make(path, NullEventLog())
        coord.resume(retry_quarantined=True)
        assert coord.queue.quarantined_ids == []
        run()
        assert coord.queue.all_done
        assert coord.stats.completions == 2
        assert coord.campaign.to_json() == reference


class TestComputeChunk:
    def test_concurrent_in_process_workers_keep_their_own_obs(self):
        """Loopback farm clients compute on threads of one process,
        where the active metrics registry and tracer are process-wide.
        Each chunk's snapshot must count exactly its own candidates,
        and the defaults must be back when every thread is done."""
        tasks = partition_space(CFG.width, CHUNK_SIZE)
        results: dict[int, tuple] = {}

        def work(task):
            results[task.chunk_id] = compute_chunk(
                CFG, task.start_index, task.end_index, task.chunk_id, 1,
                True, True,
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in tasks]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(results) == len(tasks)
        for chunk_id, (result, obs) in results.items():
            counters = obs["metrics"]["counters"]
            assert counters["search.candidates"] == result.examined
            roots = [s for s in obs["spans"] if s["parent"] is None]
            assert [s["chunk"] for s in roots] == [chunk_id]
        assert obs_metrics.active() is obs_metrics.NULL_METRICS
        assert obs_trace.active() is obs_trace.NULL_TRACE
