"""How a campaign run ends, on the pool and on the farm.

A finished engine is freed by reference counting: the queue holds its
hooks into the coordinator weakly, so nothing of a run waits for the
cycle collector.  A clean pool run ends with every child hearing
``done``, saying ``bye`` and exiting 0 by itself -- no child is killed
and no socket is reset.  The drain, ``stop_after`` and chaos endings
are cells of ``test_chaos.py``, ``test_pool.py`` and
``test_identity_matrix.py``.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.dist.pool import ParallelCoordinator

from tests.dist.conftest import CFG, CHUNK_SIZE, EXECUTORS, MAX_SECONDS, Recorder


@pytest.fixture
def no_gc():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("make", EXECUTORS, ids=lambda make: make.__name__)
def test_finished_engine_is_freed_by_refcount(no_gc, make, reference):
    coord, run = make(None, Recorder())
    run()
    assert coord.campaign.to_json() == reference
    ref = weakref.ref(coord)
    del coord, run
    assert ref() is None, "a finished engine must not need the gc"


class _Watched(ParallelCoordinator):
    """Keeps every child process it spawns, to read exit codes."""

    def _spawn(self) -> str:
        worker_id = super()._spawn()
        self.spawned.append(self._children[worker_id])
        return worker_id


def test_clean_pool_children_say_bye_and_exit_zero(reference):
    events = Recorder()
    runner = _Watched(
        config=CFG, chunk_size=CHUNK_SIZE, processes=2, events=events,
        max_seconds=MAX_SECONDS, handle_signals=False,
    )
    runner.spawned = []
    runner.run()
    assert runner.campaign.to_json() == reference
    assert [proc.exitcode for proc in runner.spawned] == [0, 0]
    byes = sorted(f["worker"] for f in events.fields("worker.bye"))
    assert byes == ["pool-0", "pool-1"]
    assert "worker.crash" not in events.names
