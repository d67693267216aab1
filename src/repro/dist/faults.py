"""Deterministic fault injection for the distributed campaign.

Idle-workstation computing's failure modes, as the 2001 campaign will
have seen them: a machine's owner comes back and the worker dies
mid-chunk; a worker finishes a chunk but its completion message is
duplicated on retry; a slow machine holds a lease so long it expires;
a flaky disk flips bits in the checkpoint; the cluster operator sends
the coordinator SIGTERM at 2 a.m.

:class:`FaultPlan` scripts these deterministically (seeded) so the
test suite and the identity matrix
(``tests/dist/test_identity_matrix.py``) can assert the exact
recovery behaviour: every chunk ends DONE exactly once in the campaign
record, regardless of the plan -- or, for a *poison* chunk that
crashes its worker on every attempt, ends QUARANTINED after its retry
budget instead of wedging the pool.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

#: FaultPlan conventions for the process-pool backend
#: (:mod:`repro.dist.pool`).  Pool processes are interchangeable, so
#: faults are keyed by *chunk id* instead of a per-worker chunk count:
#: ``crash_points[POOL_CRASH] = chunk_id`` raises
#: :class:`WorkerCrashed` inside the subprocess executing that chunk
#: (first attempt only), ``crash_points[POOL_KILL] = chunk_id`` hard-
#: kills the subprocess with ``os._exit`` (first attempt only), and
#: ``duplicate_completions[POOL_CRASH] = chunk_id`` delivers that
#: chunk's completion twice.  ``straggle[POOL_CRASH] = f`` makes every
#: chunk sleep ``f - 1`` seconds before computing (lease pressure).
#: The set-valued fields (``crash_chunks``/``kill_chunks``/
#: ``poison_chunks``) are the multi-fault generalization the chaos
#: harness uses.
POOL_CRASH = "pool"
POOL_KILL = "pool-kill"


@dataclass
class FaultPlan:
    """Scripted faults.

    Simulated-backend fields (keyed by worker_id and how many chunks
    that worker has started):

    ``crash_points[w] = k`` -- worker ``w`` dies while executing its
    k-th chunk (0-based): the chunk's result is lost, the lease must
    expire and be reassigned.

    ``duplicate_completions[w] = k`` -- worker ``w``'s k-th completed
    chunk is delivered twice.

    ``straggle[w] = factor`` -- worker ``w`` takes ``factor`` times
    the nominal duration per chunk (lease-expiry pressure).

    Pool-backend fields (keyed by chunk id):

    ``crash_chunks`` -- chunks whose first attempt raises
    :class:`WorkerCrashed` in the subprocess.

    ``kill_chunks`` -- chunks whose first attempt hard-kills the
    subprocess (``os._exit``), breaking the whole executor.

    ``poison_chunks`` -- chunks that crash their worker on *every*
    attempt: the retry budget must quarantine them.

    Coordinator-side chaos:

    ``corrupt_checkpoint_after = n`` -- silently scribble over the
    checkpoint file right after its n-th write (1-based), modelling
    bit rot the CRC self-check must catch on resume.

    ``kill_signal_after = n`` -- deliver SIGTERM to the coordinator
    process after its n-th chunk completion, exercising the graceful
    drain + final checkpoint path.

    Network fields (keyed by the worker's connection *label*; consumed
    by :class:`repro.dist.transport.FaultyTransport` and
    :class:`repro.dist.net.WorkClient`):

    ``net_sever_after[w] = n`` -- worker ``w``'s *first* connection is
    severed right before its n-th outbound frame (0-based); later
    connections from the same label are healthy (the network blipped
    once, the client must reconnect and recover).

    ``net_drop_complete[w] = {k, ...}`` -- worker ``w``'s k-th
    ``complete`` frame (0-based, counting completes only) vanishes in
    flight: the server never sees it, the client's ack times out and
    it must reconnect and resend.

    ``net_duplicate_complete[w] = {k, ...}`` -- worker ``w``'s k-th
    ``complete`` frame is delivered twice; the coordinator's
    idempotent merge must count it once.

    ``net_delay[w] = seconds`` -- every frame from worker ``w`` is
    delayed by that long (straggler/latency pressure on leases).

    ``net_kill_after[w] = n`` -- worker ``w`` dies abruptly (no
    ``bye``, connection dropped) after its n-th successful completion
    (1-based): its leases must expire server-side and be reclaimed.
    """

    crash_points: dict[str, int] = field(default_factory=dict)
    duplicate_completions: dict[str, int] = field(default_factory=dict)
    straggle: dict[str, float] = field(default_factory=dict)
    crash_chunks: set[int] = field(default_factory=set)
    kill_chunks: set[int] = field(default_factory=set)
    poison_chunks: set[int] = field(default_factory=set)
    corrupt_checkpoint_after: int | None = None
    kill_signal_after: int | None = None
    net_sever_after: dict[str, int] = field(default_factory=dict)
    net_drop_complete: dict[str, set[int]] = field(default_factory=dict)
    net_duplicate_complete: dict[str, set[int]] = field(default_factory=dict)
    net_delay: dict[str, float] = field(default_factory=dict)
    net_kill_after: dict[str, int] = field(default_factory=dict)

    # -- simulated-backend queries (legacy conventions) ----------------

    def crashes_on(self, worker_id: str, chunk_number: int) -> bool:
        return self.crash_points.get(worker_id) == chunk_number

    def duplicates_on(self, worker_id: str, chunk_number: int) -> bool:
        return self.duplicate_completions.get(worker_id) == chunk_number

    def slowdown(self, worker_id: str) -> float:
        return self.straggle.get(worker_id, 1.0)

    # -- pool-backend queries ------------------------------------------

    def pool_crashes(self, chunk_id: int, attempt: int) -> bool:
        """Should this attempt raise :class:`WorkerCrashed`?"""
        if chunk_id in self.poison_chunks:
            return True
        if attempt != 1:
            return False  # the retry models a healthy machine
        return (
            chunk_id in self.crash_chunks
            or self.crash_points.get(POOL_CRASH) == chunk_id
        )

    def pool_kills(self, chunk_id: int, attempt: int) -> bool:
        """Should this attempt hard-kill its subprocess?"""
        if attempt != 1:
            return False
        return (
            chunk_id in self.kill_chunks
            or self.crash_points.get(POOL_KILL) == chunk_id
        )

    # -- network queries (transport wrapper / client conventions) ------

    def net_severs(self, label: str, connection: int, frame: int) -> bool:
        """Sever this outbound frame?  First connection only."""
        return connection == 0 and self.net_sever_after.get(label) == frame

    def net_drops_complete(self, label: str, nth_complete: int) -> bool:
        return nth_complete in self.net_drop_complete.get(label, ())

    def net_duplicates_complete(self, label: str, nth_complete: int) -> bool:
        return nth_complete in self.net_duplicate_complete.get(label, ())

    def net_delay_for(self, label: str) -> float:
        return self.net_delay.get(label, 0.0)

    def net_kills(self, label: str, completions: int) -> bool:
        """Should this worker die abruptly now (after ``completions``
        successful chunk completions)?"""
        n = self.net_kill_after.get(label)
        return n is not None and completions >= n

    # -- seeded generators ---------------------------------------------

    @classmethod
    def random_plan(
        cls,
        worker_ids: list[str],
        seed: int,
        crash_fraction: float = 0.3,
        duplicate_fraction: float = 0.2,
        max_chunk: int = 4,
    ) -> "FaultPlan":
        """A reproducible random plan for simulated-backend soak
        tests: the same ``(worker_ids, seed)`` always yields the same
        plan (``tests/dist/test_faults.py`` pins this down)."""
        rng = random.Random(seed)
        plan = cls()
        for w in worker_ids:
            if rng.random() < crash_fraction:
                plan.crash_points[w] = rng.randrange(max_chunk)
            if rng.random() < duplicate_fraction:
                plan.duplicate_completions[w] = rng.randrange(max_chunk)
            if rng.random() < 0.25:
                plan.straggle[w] = 1.0 + 3.0 * rng.random()
        return plan

    @classmethod
    def chaos_plan(
        cls,
        seed: int,
        chunks: int,
        *,
        crash_fraction: float = 0.15,
        kill_count: int = 1,
        duplicate: bool = True,
        kill_signal_after: int | None = None,
        corrupt_checkpoint_after: int | None = None,
    ) -> "FaultPlan":
        """A reproducible pool-backend chaos schedule over a
        ``chunks``-chunk partition: a fraction of chunks soft-crash
        their first attempt, ``kill_count`` of the remainder hard-kill
        their subprocess, optionally one completion is duplicated, and
        the coordinator-side kill/corruption knobs pass through.
        Deterministic in ``seed`` (property-tested)."""
        rng = random.Random(seed)
        plan = cls(
            kill_signal_after=kill_signal_after,
            corrupt_checkpoint_after=corrupt_checkpoint_after,
        )
        ids = list(range(chunks))
        rng.shuffle(ids)
        n_crash = max(1, int(chunks * crash_fraction)) if chunks else 0
        plan.crash_chunks = set(ids[:n_crash])
        plan.kill_chunks = set(ids[n_crash:n_crash + kill_count])
        if duplicate and chunks:
            plan.duplicate_completions[POOL_CRASH] = rng.randrange(chunks)
        return plan

    @classmethod
    def farm_chaos_plan(
        cls,
        seed: int,
        workers: list[str],
        *,
        sever: bool = True,
        drop: bool = True,
        duplicate: bool = True,
        kill: bool = True,
    ) -> "FaultPlan":
        """A reproducible network chaos schedule over a worker farm:
        one worker dies abruptly while *holding* a fresh lease (the
        reaper must reclaim it), one connection is severed
        mid-protocol (reconnect + resend), and one worker has its
        first ``complete`` dropped (ack timeout) *and* the resend
        duplicated (idempotent merge) -- chaining the drop into the
        duplicate makes both deterministic: the resend is the next
        complete ordinal, so it is always the frame that duplicates.
        The kill victim and the sever target are kept distinct from
        the drop/duplicate worker when the farm is big enough, so
        each recovery path is exercised on a live worker.
        Deterministic in ``(seed, workers)`` (property-tested)."""
        rng = random.Random(seed)
        order = list(workers)
        rng.shuffle(order)
        plan = cls()
        if kill and order:
            victim = order.pop()
            plan.net_kill_after[victim] = 1 + rng.randrange(2)
        pool = order or list(workers)
        if sever and pool:
            plan.net_sever_after[pool[0]] = 2 + rng.randrange(4)
        flaky = pool[-1]
        if drop:
            plan.net_drop_complete.setdefault(flaky, set()).add(0)
        if duplicate:
            # Ordinal 1 is the dropped frame's resend (or the second
            # completion when drops are disabled).
            plan.net_duplicate_complete.setdefault(flaky, set()).add(
                1 if drop else 0
            )
        return plan


def corrupt_file(path: str, seed: int = 0, flips: int | None = None) -> None:
    """Deterministically flip bytes of ``path`` in place -- the chaos
    harness's model of silent disk corruption.  No fsync, no rename:
    precisely the kind of mutation the checkpoint CRC must catch."""
    with open(path, "rb") as f:
        data = bytearray(f.read())
    if not data:
        data = bytearray(b"\x00")
    rng = random.Random(seed)
    for _ in range(flips if flips is not None else max(1, len(data) // 64)):
        data[rng.randrange(len(data))] ^= 0xFF
    with open(path, "wb") as f:
        f.write(data)


class WorkerCrashed(RuntimeError):
    """Raised inside a worker to simulate the process dying mid-chunk."""
