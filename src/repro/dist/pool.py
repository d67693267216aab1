"""The process pool: the network farm on one host.

``repro campaign`` runs here.  :class:`ParallelCoordinator` is a
:class:`~repro.dist.net.WorkServer` on ``127.0.0.1`` plus ``processes``
forked children, each running the same
:class:`~repro.dist.net.WorkClient` that ``repro work`` runs.  Leases,
renewals, the reaper, idempotent completion, checkpoint/resume and the
SIGTERM drain are the farm's; so are the per-worker books and the
``net_*`` fault dialect, keyed by the children's labels ``pool-0``,
``pool-1``, ...

What the launcher adds is one failure path.  A child that dies for
any reason -- an exception, ``os._exit``, a signal -- is noticed the
moment its process sentinel fires: the launcher releases the dead
worker's leases at once (the chunk re-pends behind the queue's
backoff, and a *poison* chunk that kills every worker leasing it is
quarantined after ``max_attempts``), emits ``worker.crash``, and
respawns the child under a fresh label, so a label-keyed fault fires
once.  After ``max_rebuild_streak`` deaths with no completion in
between the campaign gives up.

A run has one ending.  Children that hear ``done`` (the queue
finished) or ``draining`` (a drain, or the end of a ``stop_after``
session) say ``bye`` and exit 0 by themselves, and the coordinator
waits for them.  Only a child still computing under a lease when the
session ends -- after a drain's grace or at a ``stop_after`` -- is
killed, in :meth:`ParallelCoordinator._end_session`.

Children are forked, not spawned.  The server binds its port before
the first fork, so children learn the address with no race, and each
child drops the parent's drain handlers before starting its own
client and event loop.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import signal
import time
from typing import Callable

from repro.dist.faults import FaultPlan
from repro.dist.net import WorkClient, WorkerKilled, WorkServer
from repro.dist.transport import FaultyTransport, TcpTransport
from repro.obs.events import NULL_EVENTS, NullEventLog
from repro.search.exhaustive import SearchConfig

#: Children are forked: a fresh interpreter per child would put its
#: imports into every run.
_FORK = multiprocessing.get_context("fork")


def _work(address: str, worker_id: str, faults: FaultPlan | None) -> None:
    """Child entry point: one :class:`WorkClient` against the parent's
    server, exiting with its return code (1 when killed)."""
    # Nothing of the parent's serve loop may run here.  Its drain
    # handlers are inherited, so drop them before the client installs
    # its own; its running event loop is not (asyncio keys the running
    # loop by process), so asyncio.run starts a fresh one.
    for sig in (signal.SIGTERM, signal.SIGINT):
        signal.signal(sig, signal.SIG_DFL)
    transport = TcpTransport(quiet=True)
    client = WorkClient(
        address,
        transport if faults is None else FaultyTransport(transport, faults),
        worker_id,
        faults=faults,
        handle_signals=True,
    )
    try:
        code = asyncio.run(client.run())
    except WorkerKilled:
        code = 1
    raise SystemExit(code)


class ParallelCoordinator(WorkServer):
    """Drive a campaign over ``processes`` forked workers on the wall
    clock: a loopback :class:`~repro.dist.net.WorkServer` whose
    clients the launcher starts, watches and respawns."""

    backend = "pool"
    stage_span = "chunk.dispatch"

    def __init__(
        self,
        config: SearchConfig,
        chunk_size: int,
        processes: int,
        *,
        lease_duration: float = 60.0,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 8,
        faults: FaultPlan | None = None,
        progress_interval: float = 10.0,
        log: Callable[[str], None] | None = None,
        max_seconds: float | None = None,
        events: NullEventLog = NULL_EVENTS,
        collect_metrics: bool = False,
        collect_traces: bool | None = None,
        max_attempts: int = 5,
        retry_backoff: float = 0.05,
        drain_grace: float = 5.0,
        max_rebuild_streak: int = 8,
        handle_signals: bool = True,
    ) -> None:
        if processes < 1:
            raise ValueError("processes must be positive")
        super().__init__(
            config,
            chunk_size,
            TcpTransport("127.0.0.1", 0, quiet=True),
            lease_duration=lease_duration,
            max_attempts=max_attempts,
            retry_backoff=retry_backoff,
            checkpoint_path=checkpoint_path,
            checkpoint_every=checkpoint_every,
            drain_grace=drain_grace,
            progress_interval=progress_interval,
            max_seconds=max_seconds,
            faults=faults,
            events=events,
            collect_metrics=collect_metrics,
            collect_traces=collect_traces,
            handle_signals=handle_signals,
            log=log,
        )
        self.processes = processes
        #: Consecutive child deaths (no completion in between) before
        #: the campaign gives up.
        self.max_rebuild_streak = max_rebuild_streak
        self._children: dict[str, multiprocessing.Process] = {}
        self._spawned = 0
        self._death_streak = 0
        #: ``stats.completions`` at the last death: a completion since
        #: then breaks the streak.
        self._completions_at_death = 0
        self._give_up: str | None = None

    def run(self, stop_after: int | None = None) -> float:
        """Run until the queue drains (every chunk DONE or
        QUARANTINED), ``stop_after`` new completions arrive, or a
        SIGTERM/SIGINT triggers a graceful drain.  Returns elapsed
        wall-clock seconds; check :attr:`interrupted` and
        ``queue.quarantined_ids`` afterwards."""
        t0 = time.monotonic()
        self._spawned = 0
        self._death_streak = 0
        self._give_up = None
        asyncio.run(self.serve(stop_after))
        return time.monotonic() - t0

    def _start_fields(self) -> dict:
        return {"processes": self.processes}

    # -- the launcher --------------------------------------------------

    def _on_listening(self) -> None:
        if not self.queue.finished:
            for _ in range(self.processes):
                self._spawn()

    def _spawn(self) -> str:
        worker_id = f"pool-{self._spawned}"
        self._spawned += 1
        proc = _FORK.Process(
            target=_work,
            args=(self.address, worker_id, self.faults),
            name=worker_id,
            daemon=True,
        )
        proc.start()
        self._children[worker_id] = proc
        asyncio.get_running_loop().add_reader(
            proc.sentinel, self._on_child_exit, worker_id
        )
        return worker_id

    def _on_child_exit(self, worker_id: str) -> None:
        """A child's sentinel fired.  A clean exit (it heard ``done``
        or ``draining`` and said ``bye``) needs nothing; any other
        death forfeits the worker's leases now and respawns it under a
        fresh label."""
        proc = self._children.pop(worker_id)
        asyncio.get_running_loop().remove_reader(proc.sentinel)
        proc.join()
        if proc.exitcode == 0:
            return
        now = self.clock()
        released = [
            chunk_id
            for chunk_id in self.queue.leased_ids
            if self.queue.task(chunk_id).owner == worker_id
        ]
        for chunk_id in released:
            self._close_chunk_spans(chunk_id, "crashed")
            self.queue.release(chunk_id, worker_id, now)
        if self.stats.completions != self._completions_at_death:
            self._death_streak = 0  # real progress: the workers are healthy
            self._completions_at_death = self.stats.completions
        self._death_streak += 1
        respawn = None
        if self._death_streak > self.max_rebuild_streak:
            self._give_up = (
                f"{self._death_streak} pool workers died in a row without "
                "completing a chunk; giving up: " + self.queue.progress()
            )
        elif not self._campaign_over() and self._shutdown_signal is None:
            respawn = self._spawn()
        self.events.emit(
            "worker.crash",
            worker=worker_id,
            exitcode=proc.exitcode,
            chunks=released,
            respawn=respawn,
        )
        self._say(
            f"worker {worker_id} died (exit code {proc.exitcode}), "
            f"holding chunks {released}"
            + (f"; respawned as {respawn}" if respawn else "")
        )

    def _check_deadline(self, now: float) -> None:
        super()._check_deadline(now)
        if self._give_up is not None:
            raise RuntimeError(self._give_up)

    async def _quiesce(self, grace: float) -> None:
        """Wait, for at most ``grace`` seconds, until every child left
        is computing under a lease: the others heard ``done`` or
        ``draining`` (at once, their leases being held) and exit by
        themselves after their ``bye``."""
        deadline = self.clock() + grace
        while self.clock() < deadline:
            computing = {self.queue.task(c).owner for c in self.queue.leased_ids}
            if self._children.keys() <= computing:
                return
            await asyncio.sleep(0.01)

    def _end_session(self, previous_handlers: dict) -> None:
        # No child outlives the session, however it ended.
        self._stop_children()
        super()._end_session(previous_handlers)

    def _stop_children(self) -> None:
        """Kill and reap the children still running: after a drain or
        a ``stop_after``, those computing under a lease nobody waits
        for; after an error, all of them.  No respawns."""
        loop = asyncio.get_running_loop()
        for proc in self._children.values():
            loop.remove_reader(proc.sentinel)
            proc.kill()
        for proc in self._children.values():
            proc.join()
        self._children.clear()
