"""The simulated campaign executor: round-robin under a logical clock.

The queue, the campaign record, checkpoint/resume and the merge are
the shared :class:`~repro.dist.campaign.CampaignCore`.  This
coordinator interleaves any number of in-process workers round-robin
(deterministically), so the same engine drives unit tests, the
fault-injection suite and the virtual-time farm.  Results merge
idempotently (chunk id is the idempotency key), and the whole campaign
state round-trips through the format-3 checkpoint -- the one every
executor reads and writes, and the one that let a 2001-style
months-long run survive coordinator restarts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.dist.campaign import CampaignCore, CampaignStats
from repro.dist.faults import WorkerCrashed
from repro.dist.worker import ChunkWorker
from repro.obs.events import NULL_EVENTS, NullEventLog
from repro.search.exhaustive import SearchConfig


@dataclass
class Coordinator(CampaignCore):
    """Drives a fleet of :class:`ChunkWorker` over a shared queue.

    The queue, the record, checkpoint save and :meth:`resume`, and the
    merge of every delivery are the shared
    :class:`~repro.dist.campaign.CampaignCore`; this class adds only
    the round-robin logical clock.  ``events`` (default: the shared
    no-op sink) receives the same vocabulary the wall-clock pool emits
    -- ``campaign.start``, ``chunk.done``, ``lease.expire``,
    ``worker.crash``, ``checkpoint.write`` -- with the *logical*
    clock's ``now`` in the payload, so ``repro report`` reads both
    backends' logs.
    """

    config: SearchConfig
    chunk_size: int
    lease_duration: float = 600.0
    events: NullEventLog = NULL_EVENTS
    #: Retry budget per chunk; 0 (the default, matching the seed
    #: behaviour) retries forever, a positive value quarantines a
    #: chunk whose budget is spent instead of re-leasing it.
    max_attempts: int = 0
    stats: CampaignStats = field(init=False, default_factory=CampaignStats)

    def __post_init__(self) -> None:
        self._init_core(
            lease_duration=self.lease_duration, max_attempts=self.max_attempts
        )

    def run(self, workers: list[ChunkWorker], *, time_per_chunk: float = 1.0) -> float:
        """Round-robin the fleet until every chunk is done.

        Uses a shared logical clock that advances by
        ``time_per_chunk / len(live_workers)`` per executed chunk --
        a simple but adequate interleaving model.  Lease expiry (and
        hence reassignment after crashes) falls out of the clock
        passing ``lease_duration``.  Returns the final logical time.
        """
        now = 0.0
        idle_rounds = 0
        self._begin_run(now, "simulated", workers=len(workers))
        while not self.queue.finished:
            live = [w for w in workers if w.alive]
            if not live:
                raise RuntimeError(
                    "all workers dead with work outstanding: "
                    + self.queue.progress()
                )
            made_progress = False
            for worker in live:
                try:
                    outcome = worker.run_one(self.queue, now)
                except WorkerCrashed:
                    self.events.emit("worker.crash", worker=worker.worker_id)
                    continue
                if outcome is None:
                    continue
                task, result = outcome
                now += time_per_chunk / max(len(live), 1)
                self.deliver(
                    task,
                    result,
                    worker.worker_id,
                    now,
                    deliveries=worker.deliveries_for(worker.last_chunk_number),
                    worker=worker.worker_id,
                )
                made_progress = True
            if not made_progress:
                # Everything pending is leased by dead workers; advance
                # time to the next lease expiry so it gets reclaimed.
                idle_rounds += 1
                now += self.lease_duration
                if idle_rounds > 2 * len(self.queue):
                    raise RuntimeError(
                        "campaign stalled: " + self.queue.progress()
                    )
        self._finish_run(now)
        return now
