"""One identity matrix: every kernel on every executor, with and
without injected faults, finishes on the same campaign record.

{scalar, packed} x {simulated, pool, farm} x {fault-free, chaos}: each
of the 12 cells must end with a :class:`CampaignRecord` whose
``to_json()`` is byte-equal to the reference, the direct merge of the
scalar oracle over the partition (``conftest.reference``).  A chaos
cell must also prove from its event log that every scheduled fault
fired -- a chaos run that quietly stops injecting proves nothing:

* the pool: first-attempt crashes, one hard kill, a duplicated
  completion, a SIGTERM drain, a corrupted checkpoint falling back to
  ``.prev``, and a poison chunk that ends quarantined until a
  ``retry_quarantined`` resume computes it;
* the farm: a severed connection, a dropped completion, a duplicated
  one, a killed worker whose lease expires, and a coordinator drain
  and restart from its checkpoint;
* the simulator: seeded crashes and duplicates, a drain, and a
  corrupt-checkpoint resume.

The chaos schedules are seeded with 2002; ``test_chaos.py``
property-tests that every seed gives a deterministic plan.  Below the
matrix, the parity-blind oracle re-proves every reference survivor's
HD from weight 3, the work confirmation itself skips.
"""

from __future__ import annotations

import dataclasses
import os

import pytest

from repro.dist import checkpoint
from repro.dist.checkpoint import previous_path
from repro.dist.faults import FaultPlan, corrupt_file
from repro.hd.hamming import hamming_distance
from repro.obs.report import RunReport
from repro.search.records import CampaignRecord

from tests.dist.conftest import (
    CFG,
    CHUNK_SIZE,
    CHUNKS,
    EXECUTORS,
    WORKERS,
    Recorder,
    farm,
    pool,
    simulated,
)

SEED = 2002
KERNELS = {
    "scalar": dataclasses.replace(CFG, backend="scalar"),
    "packed": CFG,
}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
@pytest.mark.parametrize("make", EXECUTORS, ids=lambda make: make.__name__)
@pytest.mark.parametrize("faults", ["fault-free", "chaos"])
def test_identity(tmp_path, reference, kernel, make, faults):
    config = KERNELS[kernel]
    path = str(tmp_path / "campaign.ckpt")
    events = Recorder()
    if faults == "fault-free":
        coord = _fault_free(make, config, path, events)
    else:
        coord = CHAOS[make](config, path, events)
    assert coord.queue.all_done
    assert coord.campaign.to_json() == reference
    # What the final session checkpointed is the same record, and
    # every chunk's delivery was announced.
    on_disk = checkpoint.load(path, config, CHUNK_SIZE)
    assert on_disk.campaign.to_json() == reference
    done = {f["chunk"] for f in events.fields("chunk.done")}
    assert done == set(range(CHUNKS))


def _fault_free(make, config, path, events):
    coord, run = make(path, events, config=config)
    run()
    assert coord.interrupted is None
    assert coord.stats.completions == CHUNKS
    assert coord.stats.duplicate_deliveries == 0
    assert coord.stats.lease_expiries == 0
    assert coord.stats.reassignments == 0
    assert all(not f["reconnect"] for f in events.fields("worker.hello"))
    return coord


def _drained(coord, events):
    """Session 1 stopped on the scheduled SIGTERM with work left and a
    rotated checkpoint generation on disk."""
    assert coord.interrupted == "SIGTERM"
    assert 0 < coord.queue.done < CHUNKS
    assert os.path.exists(previous_path(coord.checkpoint_path))
    (interrupted,) = events.fields("campaign.interrupted")
    assert interrupted["signal"] == "SIGTERM"
    assert interrupted["completions"] == coord.stats.completions


def _simulated_under_chaos(config, path, events):
    plan = FaultPlan.random_plan(
        WORKERS, SEED, crash_fraction=1.0, duplicate_fraction=1.0
    )
    plan.crash_points.pop(WORKERS[0])  # one worker always survives
    plan.kill_signal_after = CHUNKS // 2
    first, run = simulated(
        path, events, config=config, faults=plan, checkpoint_every=2,
        lease_duration=2.0,
    )
    run()
    _drained(first, events)
    corrupt_file(path, seed=SEED)

    resumed_plan = dataclasses.replace(plan, kill_signal_after=None)
    second, run = simulated(
        path, events, config=config, faults=resumed_plan, checkpoint_every=2,
        lease_duration=2.0,
    )
    assert second.resume() < first.queue.done
    run()

    crashed = {f["worker"] for f in events.fields("worker.crash")}
    assert crashed == set(plan.crash_points)
    duplicated = {
        f["worker"] for f in events.fields("chunk.done") if f["duplicate"]
    }
    assert duplicated & set(plan.duplicate_completions)
    assert events.fields("lease.expire"), "no crashed lease was reclaimed"
    (corrupt,) = events.fields("checkpoint.corrupt")
    assert corrupt["fallback"] == previous_path(path)
    return second


def _pool_under_chaos(config, path, events):
    plan = FaultPlan.chaos_plan(
        SEED, CHUNKS, crash_fraction=0.2, kill_count=1, duplicate=True,
        # Late enough that two checkpoint generations exist, early
        # enough that real work remains for the resumed session.
        kill_signal_after=CHUNKS // 2,
    )
    settings = dict(
        config=config, checkpoint_every=2, lease_duration=2.0,
        retry_backoff=0.01,
    )
    first, run = pool(path, events, faults=plan, handle_signals=True,
                      **settings)
    run()
    _drained(first, events)
    assert "shutdown.drain" in events.names
    corrupt_file(path, seed=SEED)

    # The resumed session re-runs the chunk faults (its queue starts
    # fresh) without the one-time SIGTERM, and one chunk it still has
    # to compute is poison: it must end quarantined, not wedge the run.
    second, run = pool(path, events, **settings, max_attempts=3)
    second.resume()
    poison = min(set(range(CHUNKS)) - second.campaign.chunks_done)
    second.faults = dataclasses.replace(
        plan, kill_signal_after=None, poison_chunks={poison}
    )
    run()
    assert second.queue.finished and not second.queue.all_done
    assert second.queue.quarantined_ids == [poison]
    assert poison not in second.campaign.chunks_done
    (quarantine,) = events.fields("chunk.quarantine")
    assert quarantine == {"chunk": poison, "attempts": 3}

    third, run = pool(path, events, **settings)
    third.resume(retry_quarantined=True)
    run()

    crashes = events.fields("worker.crash")
    crashed = {f["chunk"] for f in crashes if f["kind"] == "crashed"}
    killed = {f["chunk"] for f in crashes if f["kind"] == "killed"}
    assert crashed & plan.crash_chunks
    assert plan.kill_chunks <= killed
    assert poison in crashed
    assert events.fields("pool.rebuild")
    # No faulted chunk ever completed on its first attempt.  (A hard
    # kill breaks the whole executor, so a scheduled crash can die in
    # flight beside it instead, released by the rebuild.)
    faulted = (plan.crash_chunks | plan.kill_chunks) - {poison}
    assert all(
        f["attempt"] > 1
        for f in events.fields("chunk.done")
        if f["chunk"] in faulted
    )
    duplicated = {
        f["chunk"] for f in events.fields("chunk.done") if f["duplicate"]
    }
    assert plan.duplicate_completions["pool"] in duplicated
    (corrupt,) = events.fields("checkpoint.corrupt")
    assert corrupt["fallback"] == previous_path(path)
    return third


def _farm_under_chaos(config, path, events):
    plan = FaultPlan.farm_chaos_plan(SEED, WORKERS)
    # SIGTERM the coordinator once most -- but not all -- of the
    # campaign is done, so the restart has real work left.
    plan.kill_signal_after = CHUNKS - 3
    first, run = farm(
        path, events, config=config, faults=plan, lease_duration=1.0,
        checkpoint_every=2, worker_fault_budget=3, retry_backoff=0.01,
    )
    outcomes = run()
    _drained(first, events)
    (victim,) = plan.net_kill_after
    assert outcomes[1 + WORKERS.index(victim)] == "killed"

    # Restart: a clean wire, a fresh crew, the same checkpoint.
    second, run = farm(path, events, config=config)
    assert second.resume() == first.queue.done
    assert run() == [0, 0, 0, 0]

    (severed,) = plan.net_sever_after
    (flaky,) = plan.net_drop_complete
    reconnected = {
        f["worker"] for f in events.fields("worker.hello") if f["reconnect"]
    }
    # The sever and the dropped completion's ack timeout each forced
    # a reconnect; the killed worker never came back.
    assert {severed, flaky} <= reconnected
    assert victim not in reconnected
    duplicated = [
        f["worker"] for f in events.fields("chunk.done") if f["duplicate"]
    ]
    assert flaky in duplicated
    expired = {f["owner"] for f in events.fields("lease.expire")}
    assert victim in expired
    assert events.names.count("shutdown.drain") == 1
    resumed = events.fields("campaign.resume")
    assert [f["skipped"] for f in resumed] == [first.queue.done]
    ends = [n for n in events.names if n.startswith("campaign.")]
    assert ends[-1] == "campaign.end"
    # The run report's per-worker books, folded from the same log
    # across both sessions, account for every chunk once.
    report = RunReport.from_events(
        [{"event": name, **fields} for name, fields in events.records]
    )
    assert set(report.workers) == set(WORKERS)
    assert sum(w["chunks"] for w in report.workers.values()) == CHUNKS
    return second


CHAOS = {
    simulated: _simulated_under_chaos,
    pool: _pool_under_chaos,
    farm: _farm_under_chaos,
}


def test_survivor_hd_holds_parity_blind(reference):
    """The oracle confirmation no longer runs: parity-blind, from
    weight 3, every reference survivor's HD is re-proved exactly."""
    survivors = CampaignRecord.from_json(reference).survivors
    assert survivors
    for rec in survivors:
        assert rec.hd == hamming_distance(
            rec.poly, CFG.final_length, exploit_parity=False
        )
