"""Leased task queue with at-least-once semantics and retry budgets.

Semantics (enforced by ``tests/dist/test_tasks_queue.py``):

* ``lease`` hands out the lowest-id PENDING task whose retry backoff
  has elapsed, marking it LEASED with an expiry; expired leases are
  reclaimed lazily on the next queue operation, so a silent worker
  cannot strand work.
* ``complete`` is idempotent: the first completion of a chunk wins
  and returns True; replays (from recovered workers or duplicated
  messages) return False and change nothing.
* A completion from a worker whose lease was reassigned is *still
  accepted* if the chunk is not yet done -- the computation is
  deterministic, so any worker's answer for a chunk is the answer.
* Every forfeited attempt (lease expiry or an explicit ``release``
  from an owner that knows its worker died) re-pends the task behind
  an exponential backoff with deterministic jitter; a task that has
  burned through ``max_attempts`` leases is QUARANTINED instead --
  a deterministically-crashing "poison" chunk must not wedge the
  campaign by being re-leased forever.

Bookkeeping is per status, not per scan: the queue keeps a count of
each status, the sets of leased and quarantined ids, and two heaps of
pending ids (leasable now, and sitting out a backoff), all updated at
each transition.  ``finished`` and ``lease`` stay O(log chunks) on a
partition of half a million chunks, where a full scan per call would
dominate a farm coordinator that asks on every lease and completion.

Time is injected (``now`` parameters, never decreasing) rather than
read from a clock, so the coordinator's clock is its own choice and
the tests can step time by hand.  The backoff jitter
is seeded from ``(chunk_id, attempts)``, never a real RNG, so two
campaigns under the same fault schedule make identical scheduling
decisions.
"""

from __future__ import annotations

import heapq
import random
from typing import Callable

from repro.dist.tasks import SearchTask, TaskStatus

#: The longest re-lease backoff, in seconds, however many attempts a
#: chunk has burned.
BACKOFF_CAP = 30.0


class LeaseLost(Exception):
    """A renewing worker's lease is definitively gone.

    Raised by :meth:`TaskQueue.renew` instead of silently extending a
    zombie lease: the chunk was completed by someone else, reclaimed
    after expiry, re-leased to another worker (or to the *same*
    worker again -- a newer epoch), or quarantined.  The worker must
    abandon the chunk: its in-flight result is still welcome
    (``complete`` accepts late answers), but it must not keep
    heartbeating a lease it no longer holds.
    """


class TaskQueue:
    """In-memory durable-semantics task queue for a search campaign.

    ``max_attempts=0`` (the default) keeps the seed behaviour of an
    unlimited retry budget; a positive value quarantines a task whose
    that-many-th lease is forfeited.  ``backoff_base=0`` disables the
    re-lease backoff; a positive value delays attempt ``n+1`` by
    ``backoff_base * 2**(n-1)`` seconds (capped at :data:`BACKOFF_CAP`)
    scaled by a deterministic jitter in [0.5, 1.5).
    """

    def __init__(
        self,
        tasks: list[SearchTask],
        lease_duration: float = 600.0,
        *,
        max_attempts: int = 0,
        backoff_base: float = 0.0,
    ):
        ids = [t.chunk_id for t in tasks]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate chunk ids")
        self._tasks: dict[int, SearchTask] = {t.chunk_id: t for t in tasks}
        self._counts = {status: 0 for status in TaskStatus}
        self._leased: set[int] = set()
        self._quarantined: set[int] = set()
        #: Min-heap of PENDING ids free to lease, and of ``(not_before,
        #: id)`` for PENDING ids sitting out a backoff.  Entries go
        #: stale when a pending task is completed or quarantined
        #: without being leased; they are dropped when they surface.
        self._ready: list[int] = []
        self._waiting: list[tuple[float, int]] = []
        for t in self._tasks.values():
            self._counts[t.status] += 1
            self._index(t)
        heapq.heapify(self._ready)
        heapq.heapify(self._waiting)
        self.lease_duration = lease_duration
        self.max_attempts = max_attempts
        self.backoff_base = backoff_base
        #: Optional observer invoked as ``on_expire(task, now)`` when a
        #: lease is forfeited (expiry or release) -- expiry happens
        #: lazily inside queue operations, so this hook is how the
        #: observability layer (:mod:`repro.obs`) sees it.  Must not
        #: mutate the queue.
        self.on_expire: Callable[[SearchTask, float], None] | None = None
        #: Observer invoked as ``on_quarantine(task, now)`` when a task
        #: exhausts its retry budget.  Must not mutate the queue.
        self.on_quarantine: Callable[[SearchTask, float], None] | None = None
        #: Observer invoked as ``on_backoff(task, delay)`` when a
        #: forfeited task is re-pended behind a backoff delay.
        self.on_backoff: Callable[[SearchTask, float], None] | None = None

    def __len__(self) -> int:
        return len(self._tasks)

    def __contains__(self, chunk_id: int) -> bool:
        return chunk_id in self._tasks

    def task(self, chunk_id: int) -> SearchTask:
        return self._tasks[chunk_id]

    # -- per-status bookkeeping ----------------------------------------

    def _index(self, t: SearchTask) -> None:
        """File ``t`` under its (new) status."""
        if t.status is TaskStatus.LEASED:
            self._leased.add(t.chunk_id)
        elif t.status is TaskStatus.QUARANTINED:
            self._quarantined.add(t.chunk_id)
        elif t.status is TaskStatus.PENDING:
            if t.not_before > 0.0:
                heapq.heappush(self._waiting, (t.not_before, t.chunk_id))
            else:
                heapq.heappush(self._ready, t.chunk_id)

    def _moved(self, t: SearchTask, old: TaskStatus) -> None:
        """Account for ``t``'s transition out of ``old``."""
        self._counts[old] -= 1
        self._counts[t.status] += 1
        if old is TaskStatus.LEASED:
            self._leased.discard(t.chunk_id)
        elif old is TaskStatus.QUARANTINED:
            self._quarantined.discard(t.chunk_id)
        self._index(t)

    def _promote(self, now: float) -> None:
        """Move backed-off ids whose backoff has elapsed to the ready
        heap."""
        while self._waiting and self._waiting[0][0] <= now:
            heapq.heappush(self._ready, heapq.heappop(self._waiting)[1])

    # -- forfeit / backoff / quarantine --------------------------------

    def _backoff_delay(self, task: SearchTask) -> float:
        if self.backoff_base <= 0.0:
            return 0.0
        delay = min(
            self.backoff_base * (2 ** max(task.attempts - 1, 0)),
            BACKOFF_CAP,
        )
        # Deterministic jitter: seeded by (chunk, attempt), so replayed
        # campaigns under the same fault schedule back off identically.
        rng = random.Random((task.chunk_id << 16) ^ task.attempts)
        return delay * (0.5 + rng.random())

    def _forfeit(self, t: SearchTask, now: float, reason: str) -> None:
        if self.on_expire is not None:
            self.on_expire(t, now)  # owner/attempt still visible
        old = t.status
        if self.max_attempts and t.attempts >= self.max_attempts:
            t.quarantine(now, f"{reason}; budget of {self.max_attempts} spent")
            self._moved(t, old)
            if self.on_quarantine is not None:
                self.on_quarantine(t, now)
            return
        t.expire(now)
        delay = self._backoff_delay(t)
        if delay > 0.0:
            t.not_before = now + delay
        self._moved(t, old)
        if delay > 0.0 and self.on_backoff is not None:
            self.on_backoff(t, delay)

    def _reclaim_expired(self, now: float) -> None:
        expired = sorted(
            chunk_id
            for chunk_id in self._leased
            if self._tasks[chunk_id].lease_expires_at <= now
        )
        for chunk_id in expired:
            self._forfeit(self._tasks[chunk_id], now, "lease expired")

    def release(self, chunk_id: int, worker_id: str, now: float) -> bool:
        """Voluntary forfeit: the owner knows the attempt failed (a
        crashed future, a drained shutdown) and returns the chunk
        immediately instead of letting the lease time out.  Counts as
        a forfeited attempt: the same backoff/quarantine bookkeeping
        as an expiry.  False if the caller no longer holds the lease.
        """
        t = self._tasks[chunk_id]
        if t.status is not TaskStatus.LEASED or t.owner != worker_id:
            return False
        self._forfeit(t, now, f"released by {worker_id}")
        return True

    def mark_quarantined(self, chunk_id: int) -> bool:
        """Restore a quarantine verdict recorded in a checkpoint.
        False (and no change) if the chunk is already DONE."""
        t = self._tasks[chunk_id]
        if t.status is TaskStatus.DONE:
            return False
        if t.status is TaskStatus.QUARANTINED:
            return True
        old = t.status
        t.quarantine(0.0, "restored from checkpoint")
        self._moved(t, old)
        return True

    # -- lease / complete ----------------------------------------------

    def lease(self, worker_id: str, now: float) -> SearchTask | None:
        """Lease the next available task, or None if nothing is
        leasable right now (work may be in flight with other workers,
        or pending tasks may be sitting out a retry backoff)."""
        self._reclaim_expired(now)
        self._promote(now)
        while self._ready:
            t = self._tasks[heapq.heappop(self._ready)]
            if t.status is not TaskStatus.PENDING:
                continue  # stale
            t.lease(worker_id, now, self.lease_duration)
            self._moved(t, TaskStatus.PENDING)
            return t
        return None

    def complete(self, chunk_id: int, worker_id: str, now: float) -> bool:
        """Record completion.  True if this is the first completion,
        False for idempotent replays.  A late result for a QUARANTINED
        chunk is accepted (and rescues it): the computation is
        deterministic, so any attempt's answer is the answer."""
        t = self._tasks[chunk_id]
        if t.status is TaskStatus.DONE:
            return False
        old = t.status
        t.complete(worker_id, now)
        self._moved(t, old)
        return True

    def renew(
        self,
        chunk_id: int,
        worker_id: str,
        now: float,
        *,
        epoch: int | None = None,
    ) -> bool:
        """Heartbeat: extend a live lease, or raise :class:`LeaseLost`
        with the reason the caller no longer holds it.

        Expired leases are reclaimed *first*: a heartbeat that arrives
        after its own expiry must learn the lease is gone, not
        silently resurrect it.  Passing the ``epoch`` from the lease
        grant closes the remaining race: without it, a worker whose
        expired chunk was re-leased *back to the same worker id*
        (parent-held leases, a reconnecting host) could renew the new
        holder's lease while computing against the old grant.
        """
        self._reclaim_expired(now)
        t = self._tasks[chunk_id]
        if t.status is TaskStatus.DONE:
            raise LeaseLost(f"chunk {chunk_id} was already completed")
        if t.status is TaskStatus.QUARANTINED:
            raise LeaseLost(f"chunk {chunk_id} was quarantined")
        if t.status is not TaskStatus.LEASED:
            raise LeaseLost(
                f"lease on chunk {chunk_id} expired and was reclaimed"
            )
        if t.owner != worker_id:
            raise LeaseLost(
                f"chunk {chunk_id} was re-leased to {t.owner}"
            )
        if epoch is not None and epoch != t.epoch:
            raise LeaseLost(
                f"stale lease epoch {epoch} for chunk {chunk_id} "
                f"(current {t.epoch})"
            )
        t.lease_expires_at = now + self.lease_duration
        return True

    def reclaim(self, now: float) -> None:
        """Reclaim expired leases eagerly.  Normally expiry is lazy
        (piggybacked on ``lease``/``renew``), which is enough when
        workers poll; a network coordinator sweeps on a timer so a
        vanished host's chunks re-pend even while every live worker
        is busy computing."""
        self._reclaim_expired(now)

    # -- progress ------------------------------------------------------

    def next_wakeup(self, now: float) -> float | None:
        """Earliest instant at which the queue's state can change on
        its own: a live lease expiring or a backed-off task becoming
        leasable.  A wall-clock runner sleeps until this instant when
        nothing is leasable and nothing is in flight."""
        self._promote(now)
        instants = [self._tasks[c].lease_expires_at for c in self._leased]
        while self._waiting:
            not_before, chunk_id = self._waiting[0]
            if self._tasks[chunk_id].status is TaskStatus.PENDING:
                instants.append(not_before)
                break
            heapq.heappop(self._waiting)  # stale
        return min(instants) if instants else None

    @property
    def pending(self) -> int:
        return self._counts[TaskStatus.PENDING]

    @property
    def leased(self) -> int:
        return self._counts[TaskStatus.LEASED]

    @property
    def done(self) -> int:
        return self._counts[TaskStatus.DONE]

    @property
    def quarantined(self) -> int:
        return self._counts[TaskStatus.QUARANTINED]

    @property
    def leased_ids(self) -> list[int]:
        """Sorted chunk ids currently under lease."""
        return sorted(self._leased)

    @property
    def quarantined_ids(self) -> list[int]:
        """Sorted chunk ids currently under quarantine."""
        return sorted(self._quarantined)

    @property
    def all_done(self) -> bool:
        """Every chunk computed (the clean-campaign invariant)."""
        return self.done == len(self._tasks)

    @property
    def finished(self) -> bool:
        """No work left to schedule: every chunk is DONE or
        QUARANTINED.  A campaign terminates on this, then reports the
        quarantined ids (with a non-zero exit) if there are any."""
        return self.done + self.quarantined == len(self._tasks)

    def progress(self) -> str:
        """One-line status, campaign-log style."""
        line = (
            f"{self.done}/{len(self._tasks)} chunks done, "
            f"{self.leased} in flight, {self.pending} pending"
        )
        if self.quarantined:
            line += f", {self.quarantined} quarantined"
        return line
