"""One identity matrix: every kernel on the pool and on the farm, with
and without injected faults, finishes on the same campaign record.

{scalar, packed} x {pool, farm} x {fault-free, chaos}: each of the 8
cells must end with a :class:`CampaignRecord` whose
``to_json()`` is byte-equal to the reference, the direct merge of the
scalar oracle over the partition (``conftest.reference``).  A chaos
cell must also prove from its event log that every scheduled fault
fired -- a chaos run that quietly stops injecting proves nothing:

* the pool: a killed child whose lease is released at once and who is
  respawned, a duplicated completion, a SIGTERM drain, a corrupted
  checkpoint falling back to ``.prev``, and a poison chunk that ends
  quarantined until a ``retry_quarantined`` resume computes it;
* the farm: a severed connection, a dropped completion, a duplicated
  one, a killed worker whose lease expires, and a coordinator drain
  and restart from its checkpoint.

The farm's chaos schedule is seeded with 2002 (``test_chaos.py``
property-tests that every seed gives a deterministic plan); the
pool's is scripted by its children's labels, in the same dialect.
Below the
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


def _pool_under_chaos(config, path, events):
    # The pool speaks the farm's fault dialect, keyed by its children's
    # labels: pool-0 dies holding its first lease, and pool-1's first
    # completion reaches the coordinator twice.
    victim, flaky = "pool-0", "pool-1"
    plan = FaultPlan(
        net_kill_after={victim: 0},
        net_duplicate_complete={flaky: {0}},
        # Late enough that two checkpoint generations exist, early
        # enough that real work remains for the resumed session.
        kill_signal_after=CHUNKS // 2,
    )
    # A lease far longer than the whole cell: only the launcher's
    # immediate release, never an expiry, can free a dead child's chunk.
    lease = 30.0
    settings = dict(
        config=config, checkpoint_every=2, lease_duration=lease,
        retry_backoff=0.01,
    )
    first, run = pool(path, events, faults=plan, handle_signals=True,
                      **settings)
    run()
    _drained(first, events)
    assert "shutdown.drain" in events.names
    corrupt_file(path, seed=SEED)

    # The resumed session has one poison chunk among those it still
    # has to compute: every child leasing it dies, and it must end
    # quarantined after its budget instead of wedging the run.
    second, run = pool(path, events, **settings, max_attempts=3)
    second.resume()
    resumed_at = len(events.records)
    poison = min(set(range(CHUNKS)) - second.campaign.chunks_done)
    second.faults = FaultPlan(poison_chunks={poison})
    run()
    second_session = events.records[resumed_at:]
    assert second.queue.finished and not second.queue.all_done
    assert second.queue.quarantined_ids == [poison]
    assert poison not in second.campaign.chunks_done
    (quarantine,) = events.fields("chunk.quarantine")
    assert quarantine == {"chunk": poison, "attempts": 3}

    third, run = pool(path, events, **settings)
    third.resume(retry_quarantined=True)
    run()

    # The killed child's lease was released the moment it died, not
    # when the lease ran out, and the child came back under a new label.
    granted, grant = events.first("lease.grant", worker=victim)
    released, _ = events.first(
        "lease.expire", owner=victim, chunk=grant["chunk"]
    )
    assert released - granted < lease / 10
    _, crash = events.first("worker.crash", worker=victim)
    assert crash["chunks"] == [grant["chunk"]]
    assert crash["respawn"] not in (None, victim)
    events.first("worker.hello", worker=crash["respawn"])
    # Each of the poison chunk's three attempts killed its child.  Only
    # the second session's crashes count: session 1's victim may have
    # died holding the chunk that later became the poison.
    poisoned = [
        f for name, f in second_session
        if name == "worker.crash" and f["chunks"] == [poison]
    ]
    assert len(poisoned) == 3
    duplicated = {
        f["worker"] for f in events.fields("chunk.done") if f["duplicate"]
    }
    assert flaky in duplicated
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
