"""Wall-clock process-parallel campaign backend.

The simulated :class:`~repro.dist.coordinator.Coordinator` round-robins
workers inside one process under a logical clock -- correct for the
fault-tolerance semantics, but ``--workers 4`` there buys zero extra
throughput.  This module is the real thing: subprocess workers from a
:class:`concurrent.futures.ProcessPoolExecutor` execute
:func:`~repro.search.exhaustive.search_chunk` over pickled
:class:`~repro.search.exhaustive.SearchConfig` index ranges while the
parent process leases, renews and reaps against actual elapsed time.

The lifecycle -- the :class:`~repro.dist.queue.TaskQueue` and its
hooks, format-3 checkpoint/resume, signal handling, the idempotent
merge into the :class:`~repro.search.records.CampaignRecord` and the
run's start/end events -- is the shared
:class:`~repro.dist.campaign.CampaignCore`, the same one the simulated
coordinator and the network farm run.  What this module adds is the
process pool and its failure handling:

* a crashed (``WorkerCrashed``) or hard-killed (``os._exit``)
  subprocess forfeits its chunk: the parent releases the lease the
  moment the future fails (or lets it expire if the parent itself
  died), and the chunk is re-leased after an exponential backoff with
  deterministic jitter.  A chunk that burns through its whole
  ``max_attempts`` budget -- a *poison* chunk that crashes every
  worker it touches -- is quarantined instead of being re-leased
  forever: the campaign still terminates, reports the quarantined
  ids, and exits non-zero;
* a hard kill additionally breaks the executor (CPython invalidates
  the whole pool), which the runner rebuilds under its own bounded
  exponential backoff, giving up only after ``max_rebuild_streak``
  consecutive rebuilds with zero completed chunks in between;
* SIGTERM/SIGINT trigger a graceful drain: stop leasing, give
  in-flight futures ``drain_grace`` seconds to finish, deliver what
  completed, forfeit the rest, write a final checkpoint, emit
  ``shutdown.drain`` + ``campaign.interrupted``, and return -- so
  ``--resume`` picks up with nothing lost;
* fault injection reuses :class:`~repro.dist.faults.FaultPlan` under
  the pool conventions (chunk-id keyed crash/kill/poison sets, plus
  coordinator-side checkpoint-corruption and kill-signal schedules),
  so the test suite and the identity matrix
  (``tests/dist/test_identity_matrix.py``) script subprocess failure
  deterministically.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable

from repro.dist.campaign import CampaignCore, CampaignStats, compute_chunk
from repro.dist.faults import FaultPlan, WorkerCrashed
from repro.dist.queue import LeaseLost
from repro.dist.tasks import SearchTask
from repro.obs.events import NULL_EVENTS, NullEventLog
from repro.obs.metrics import MetricsRegistry
from repro.search.exhaustive import SearchConfig, SearchResult

#: Lease owner recorded for every parent-issued lease.
PARENT_OWNER = "pool-parent"

#: Upper bound (seconds) on waiting for a broken pool's in-flight
#: futures to settle.  The executor fails every pending future right
#: after flagging itself broken, so the wait normally returns at once.
_SETTLE_TIMEOUT = 5.0


def _run_chunk(
    config: SearchConfig,
    start_index: int,
    end_index: int,
    chunk_id: int,
    attempt: int,
    faults: FaultPlan | None,
    collect_metrics: bool = False,
    collect_traces: bool = False,
) -> tuple[int, SearchResult, dict | None]:
    """Subprocess entry point: execute one chunk of the search.

    Must stay a module-level function (it is pickled by name), and its
    return value must stay picklable -- ``SearchResult`` holds only
    plain dataclasses, which ``tests/dist/test_pool.py`` pins down.
    The chunk runs under :func:`~repro.dist.campaign.compute_chunk`,
    whose per-chunk metrics and spans ride back in the aux payload.

    Injected crash/kill faults fire on the *first* attempt only (the
    reassigned retry models a healthy machine picking up the forfeited
    chunk) -- except for *poison* chunks, which crash every attempt
    and must end up quarantined by the parent's retry budget.
    """
    if faults is not None:
        if faults.pool_kills(chunk_id, attempt):
            os._exit(1)  # hard kill: no exception, no cleanup, no nack
        if faults.pool_crashes(chunk_id, attempt):
            raise WorkerCrashed(f"injected crash on chunk {chunk_id}")
        slowdown = faults.slowdown("pool")
        if slowdown > 1.0:
            time.sleep(min(slowdown - 1.0, 5.0))
    result, aux = compute_chunk(
        config, start_index, end_index, chunk_id, attempt,
        collect_metrics, collect_traces,
    )
    return chunk_id, result, aux


@dataclass
class PoolStats(CampaignStats):
    """The shared counters plus the pool's own failure counters."""

    crashes: int = 0
    pool_rebuilds: int = 0


@dataclass
class ParallelCoordinator(CampaignCore):
    """Drive a campaign over real subprocesses on the wall clock.

    The parent is the only lease holder (``PARENT_OWNER``): it leases a
    chunk when it submits the future, renews the lease while the future
    is running, and completes it on delivery.  A future that dies takes
    its renewals with it: the parent releases the lease immediately on
    a failed future (and the wall clock expires it if the parent itself
    is gone), so the chunk goes to the next submission -- the same
    recovery path the 2001 campaign relied on, at subprocess
    granularity, now with a bounded retry budget per chunk.  The
    lifecycle around that loop is :class:`~repro.dist.campaign.CampaignCore`.
    """

    config: SearchConfig
    chunk_size: int
    processes: int
    lease_duration: float = 60.0
    checkpoint_path: str | None = None
    checkpoint_every: int = 8
    faults: FaultPlan | None = None
    progress_interval: float = 10.0
    log: Callable[[str], None] | None = None
    max_seconds: float | None = None
    events: NullEventLog = NULL_EVENTS
    collect_metrics: bool = False
    #: Trace spans (lease->dispatch->compute->merge per chunk) into the
    #: event log.  None (default) = auto: on exactly when ``events`` is
    #: a real log; True/False force it.
    collect_traces: bool | None = None
    #: Retry budget per chunk; 0 disables quarantine (unbounded).
    max_attempts: int = 5
    #: Base of the re-lease exponential backoff (seconds).
    retry_backoff: float = 0.05
    backoff_cap: float = 30.0
    #: How long a drain waits for in-flight futures on SIGTERM/SIGINT.
    drain_grace: float = 5.0
    #: Base of the broken-pool rebuild backoff (seconds).
    rebuild_backoff: float = 0.1
    #: Consecutive rebuilds (no completion in between) before giving up.
    max_rebuild_streak: int = 8
    #: Install SIGTERM/SIGINT handlers for the duration of :meth:`run`
    #: (auto-skipped off the main thread).
    handle_signals: bool = True
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    stats: PoolStats = field(init=False, default_factory=PoolStats)

    def __post_init__(self) -> None:
        if self.processes < 1:
            raise ValueError("processes must be positive")
        self._init_core(
            lease_duration=self.lease_duration,
            max_attempts=self.max_attempts,
            backoff_base=self.retry_backoff,
            backoff_cap=self.backoff_cap,
            collect_traces=self.collect_traces,
        )
        self._rebuild_streak = 0

    # -- delivery and graceful shutdown --------------------------------

    def _deliver_future(self, fut: Future, task: SearchTask, now: float) -> None:
        """Merge a finished future's result (twice under an injected
        duplicate delivery)."""
        _, result, aux = fut.result()
        duplicate = self.faults is not None and self.faults.duplicates_on(
            "pool", task.chunk_id
        )
        self.deliver(
            task, result, PARENT_OWNER, now, aux, deliveries=2 if duplicate else 1
        )
        self._rebuild_streak = 0  # real progress: the pool is healthy

    def _drain(self, in_flight: dict[Future, SearchTask]) -> None:
        """Stop-the-world on SIGTERM/SIGINT: give in-flight futures
        ``drain_grace`` seconds, deliver what finished, forfeit the
        rest, and report."""
        delivered = forfeited = 0
        done: set[Future] = set()
        if in_flight:
            done, _ = wait(set(in_flight), timeout=self.drain_grace)
        now = time.monotonic()
        for fut in done:
            task = in_flight.pop(fut)
            if fut.exception() is None:
                self._deliver_future(fut, task, now)
                delivered += 1
            else:
                self.stats.crashes += 1
                self._close_chunk_spans(task.chunk_id, "crashed")
                self.queue.release(task.chunk_id, PARENT_OWNER, now)
                forfeited += 1
        for fut, task in list(in_flight.items()):
            fut.cancel()
            self._close_chunk_spans(task.chunk_id, "forfeited")
            self.queue.release(task.chunk_id, PARENT_OWNER, now)
            forfeited += 1
        in_flight.clear()
        self.events.emit(
            "shutdown.drain",
            signal=self._shutdown_signal,
            delivered=delivered,
            forfeited=forfeited,
            grace=self.drain_grace,
        )
        self._say(
            f"{self._shutdown_signal} received: drained {delivered} "
            f"in-flight chunks, forfeited {forfeited} -- "
            + self.queue.progress()
        )

    # -- the wall-clock drive loop -------------------------------------

    def _new_executor(self) -> ProcessPoolExecutor:
        methods = multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context(
            "fork" if "fork" in methods else None
        )
        return ProcessPoolExecutor(max_workers=self.processes, mp_context=ctx)

    def run(self, stop_after: int | None = None) -> float:
        """Run until the queue drains (every chunk DONE or
        QUARANTINED), ``stop_after`` new completions arrive (a test
        hook for mid-flight checkpoints), or a SIGTERM/SIGINT triggers
        a graceful drain.  Returns elapsed wall-clock seconds; check
        :attr:`interrupted` and ``queue.quarantined_ids`` afterwards.
        """
        t0 = time.monotonic()
        self._rebuild_streak = 0
        self._begin_run(t0, "pool", processes=self.processes)
        previous_handlers = self._install_signal_handlers()
        executor = self._new_executor()
        in_flight: dict[Future, SearchTask] = {}
        # Epoch of each grant, captured at submission: the queue task
        # object mutates on re-lease, so renewing with the *live*
        # epoch would defeat the staleness check.
        lease_epochs: dict[Future, int] = {}
        renew_interval = max(self.lease_duration / 3.0, 0.05)
        wait_timeout = min(max(self.lease_duration / 4.0, 0.02), 0.5)
        last_renew = t0
        last_summary = t0
        try:
            while not self.queue.finished:
                if self._shutdown_signal is not None:
                    break
                now = time.monotonic()
                self._check_deadline(now)
                if stop_after is not None and self.stats.completions >= stop_after:
                    break
                # Keep the pool saturated: one in-flight chunk per slot.
                while (
                    len(in_flight) < self.processes
                    and self._shutdown_signal is None
                ):
                    task = self.queue.lease(PARENT_OWNER, now)
                    if task is None:
                        break
                    # Root "chunk" span opens at lease time; the gap
                    # before dispatch starts is lease/queue overhead.
                    self._open_chunk_spans(task, "chunk.dispatch")
                    try:
                        fut = executor.submit(
                            _run_chunk,
                            self.config,
                            task.start_index,
                            task.end_index,
                            task.chunk_id,
                            task.attempts,
                            self.faults,
                            self.collect_metrics,
                            self.collect_traces,
                        )
                    except BrokenProcessPool:
                        # The pool died under an in-flight chunk before
                        # the wait below saw it.  This chunk never ran;
                        # account for the ones that did exactly as the
                        # wait path does, then rebuild.
                        self._close_chunk_spans(task.chunk_id, "pool-broken")
                        self.queue.release(task.chunk_id, PARENT_OWNER, now)
                        done, _ = wait(set(in_flight), timeout=_SETTLE_TIMEOUT)
                        for fut in done:
                            self._settle(fut, in_flight.pop(fut), now)
                        executor, in_flight = self._rebuild(
                            executor, in_flight, now
                        )
                        break
                    in_flight[fut] = task
                    lease_epochs[fut] = task.epoch
                    self.events.emit(
                        "lease.grant", chunk=task.chunk_id, attempt=task.attempts
                    )
                if not in_flight:
                    # Everything leasable is either in a retry backoff
                    # or leased to failed attempts; sleep to the next
                    # instant the queue's state can change.
                    wake = self.queue.next_wakeup(time.monotonic())
                    if wake is not None:
                        time.sleep(
                            min(max(wake - time.monotonic(), 0.0) + 0.01, 1.0)
                        )
                    continue
                done, _ = wait(
                    set(in_flight), timeout=wait_timeout, return_when=FIRST_COMPLETED
                )
                now = time.monotonic()
                broken = False
                for fut in done:
                    broken |= self._settle(fut, in_flight.pop(fut), now)
                if broken:
                    executor, in_flight = self._rebuild(executor, in_flight, now)
                if now - last_renew >= renew_interval:
                    renewed = 0
                    for fut, task in in_flight.items():
                        if not fut.done():
                            try:
                                if self.queue.renew(
                                    task.chunk_id,
                                    PARENT_OWNER,
                                    now,
                                    epoch=lease_epochs.get(fut),
                                ):
                                    renewed += 1
                            except LeaseLost:
                                # Reclaimed out from under a stalled
                                # parent; the future's late result is
                                # still merged on delivery.
                                pass
                    if renewed:
                        self.events.emit("lease.renew", chunks=renewed)
                    last_renew = now
                if now - last_summary >= self.progress_interval:
                    self._say(self._summary(now - t0))
                    last_summary = now
            if self._shutdown_signal is not None:
                self._drain(in_flight)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
            self._end_session(previous_handlers)
        elapsed = time.monotonic() - t0
        self._finish_run(elapsed)
        return elapsed

    def _settle(self, fut: Future, task: SearchTask, now: float) -> bool:
        """Account for one finished future: deliver its result, or
        record the crash and release its lease.  Returns True when the
        future died with the whole pool (a killed worker)."""
        exc = fut.exception()
        if exc is None:
            self._deliver_future(fut, task, now)
            return False
        if isinstance(exc, BrokenProcessPool):
            kind = "killed"
        elif isinstance(exc, WorkerCrashed):
            # Task-level crash: the pool survives; release the lease
            # now (the parent *knows* the attempt failed) so the chunk
            # re-leases after backoff instead of waiting out the full
            # lease.
            kind = "crashed"
        else:
            raise exc
        self.stats.crashes += 1
        self._close_chunk_spans(task.chunk_id, kind)
        self.events.emit("worker.crash", chunk=task.chunk_id, kind=kind)
        self.queue.release(task.chunk_id, PARENT_OWNER, now)
        return kind == "killed"

    def _rebuild(
        self,
        executor: ProcessPoolExecutor,
        in_flight: dict[Future, SearchTask],
        now: float,
    ) -> tuple[ProcessPoolExecutor, dict[Future, SearchTask]]:
        """Replace a broken pool.  In-flight work is released back to
        the queue (re-leased after backoff), and repeated rebuilds
        without progress back off exponentially before giving up."""
        executor.shutdown(wait=False, cancel_futures=True)
        for task in in_flight.values():
            self._close_chunk_spans(task.chunk_id, "pool-broken")
            self.queue.release(task.chunk_id, PARENT_OWNER, now)
        self.stats.pool_rebuilds += 1
        self._rebuild_streak += 1
        if self._rebuild_streak > self.max_rebuild_streak:
            raise RuntimeError(
                f"process pool died {self._rebuild_streak} times in a row "
                "without completing a chunk; giving up: "
                + self.queue.progress()
            )
        backoff = min(
            self.rebuild_backoff * (2 ** (self._rebuild_streak - 1)), 5.0
        )
        self.events.emit(
            "pool.rebuild",
            streak=self._rebuild_streak,
            backoff=round(backoff, 3),
        )
        self._say(
            "process pool broken (worker killed); rebuilding in "
            f"{backoff:.2f}s -- " + self.queue.progress()
        )
        if backoff > 0:
            time.sleep(backoff)
        return self._new_executor(), {}
