"""Wall-clock process-parallel campaign backend.

The simulated :class:`~repro.dist.coordinator.Coordinator` round-robins
workers inside one process under a logical clock -- correct for the
fault-tolerance semantics, but ``--workers 4`` there buys zero extra
throughput.  This module is the real thing: subprocess workers from a
:class:`concurrent.futures.ProcessPoolExecutor` execute
:func:`~repro.search.exhaustive.search_chunk` over pickled
:class:`~repro.search.exhaustive.SearchConfig` index ranges while the
parent process leases, renews and reaps against actual elapsed time.

The distributed semantics are *exactly* the ones the simulated stack
already enforces, driven through the same objects:

* chunks come from the same :func:`~repro.dist.tasks.partition_space`
  tiling and flow through the same :class:`~repro.dist.queue.TaskQueue`
  lease/complete protocol -- at-least-once execution with idempotent
  completion;
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
* results merge into the same idempotent
  :class:`~repro.search.records.CampaignRecord`, checkpointed every N
  completions through :mod:`repro.dist.checkpoint` (format 3: CRC-32
  self-checksum, fsync'd atomic publication, rotated ``.prev``
  generation) so a killed campaign restarts with ``resume`` instead of
  recomputing -- even when the live checkpoint was corrupted on disk;
* fault injection reuses :class:`~repro.dist.faults.FaultPlan` under
  the pool conventions (chunk-id keyed crash/kill/poison sets, plus
  coordinator-side checkpoint-corruption and kill-signal schedules),
  so the test suite and ``tools/chaos_campaign.py`` script subprocess
  failure deterministically.
"""

from __future__ import annotations

import multiprocessing
import os
import signal as signal_module
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable

from repro.dist import checkpoint as checkpoint_io
from repro.dist.checkpoint import CheckpointMismatch
from repro.dist.faults import FaultPlan, WorkerCrashed, corrupt_file
from repro.dist.progress import ProgressTracker
from repro.dist.queue import LeaseLost, TaskQueue
from repro.dist.tasks import SearchTask, partition_space
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.events import NULL_EVENTS, NullEventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_TRACE, Tracer
from repro.search.exhaustive import SearchConfig, SearchResult, search_chunk
from repro.search.records import CampaignRecord

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

    When ``collect_metrics`` is set, a fresh per-chunk
    :class:`~repro.obs.metrics.MetricsRegistry` is installed for the
    duration of the chunk and its plain-dict snapshot rides back with
    the result for the parent to merge -- per-process aggregation with
    merge-at-chunk-completion, costing the worker one dict per chunk.
    ``collect_traces`` does the same with an unattached
    :class:`~repro.obs.trace.Tracer`: the chunk computes under a
    ``chunk.compute`` root span (the packed screening stages open
    children) and the finished spans ride back as plain dicts in the
    same aux payload, for the parent to adopt into the event stream.

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
    if not (collect_metrics or collect_traces):
        return chunk_id, search_chunk(config, start_index, end_index), None
    registry = MetricsRegistry() if collect_metrics else None
    tracer = Tracer() if collect_traces else None
    previous_metrics = obs_metrics.install(registry) if registry else None
    previous_trace = obs_trace.install(tracer) if tracer else None
    try:
        if tracer is not None:
            with tracer.span("chunk.compute", chunk=chunk_id, attempt=attempt):
                result = search_chunk(config, start_index, end_index)
        else:
            result = search_chunk(config, start_index, end_index)
    finally:
        if registry is not None:
            obs_metrics.install(previous_metrics)
        if tracer is not None:
            obs_trace.install(previous_trace)
    aux = {
        "metrics": registry.snapshot() if registry else None,
        "spans": tracer.snapshot() if tracer else None,
    }
    return chunk_id, result, aux


@dataclass
class PoolStats:
    """Counters the tests and the CLI summary line report."""

    completions: int = 0
    duplicate_deliveries: int = 0
    reassignments: int = 0
    crashes: int = 0
    pool_rebuilds: int = 0
    checkpoints_written: int = 0
    skipped_from_checkpoint: int = 0
    lease_expiries: int = 0
    quarantined: int = 0
    retry_backoffs: int = 0


@dataclass
class ParallelCoordinator:
    """Drive a campaign over real subprocesses on the wall clock.

    The parent is the only lease holder (``PARENT_OWNER``): it leases a
    chunk when it submits the future, renews the lease while the future
    is running, and completes it on delivery.  A future that dies takes
    its renewals with it: the parent releases the lease immediately on
    a failed future (and the wall clock expires it if the parent itself
    is gone), so the chunk goes to the next submission -- the same
    recovery path the 2001 campaign relied on, at subprocess
    granularity, now with a bounded retry budget per chunk.
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
    queue: TaskQueue = field(init=False)
    campaign: CampaignRecord = field(init=False)
    tracker: ProgressTracker = field(init=False)
    stats: PoolStats = field(init=False, default_factory=PoolStats)
    #: Signal name ("SIGTERM"/"SIGINT") when the last :meth:`run` was
    #: interrupted and drained; None after a run that finished.
    interrupted: str | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.processes < 1:
            raise ValueError("processes must be positive")
        tasks = partition_space(self.config.width, self.chunk_size)
        self.queue = TaskQueue(
            tasks,
            lease_duration=self.lease_duration,
            max_attempts=self.max_attempts,
            backoff_base=self.retry_backoff,
            backoff_cap=self.backoff_cap,
        )
        self.queue.on_expire = self._on_lease_expire
        self.queue.on_quarantine = self._on_quarantine
        self.queue.on_backoff = self._on_backoff
        self.campaign = CampaignRecord(
            width=self.config.width,
            data_word_bits=self.config.final_length,
            target_hd=self.config.target_hd,
        )
        self.tracker = ProgressTracker(total_chunks=len(self.queue))
        if self.collect_traces is None:
            self.collect_traces = self.events.enabled
        self.tracer = (
            Tracer(events=self.events) if self.collect_traces else NULL_TRACE
        )
        #: Open (root, dispatch) span handles per in-flight chunk id.
        self._chunk_spans: dict[int, tuple] = {}
        self._completions_since_checkpoint = 0
        self._dirty_since_checkpoint = False
        self._shutdown_signal: str | None = None
        self._signals_installed = False
        self._rebuild_streak = 0
        self._t0: float | None = None

    # -- queue observers -----------------------------------------------

    def _on_lease_expire(self, task: SearchTask, now: float) -> None:
        """Queue observer: a worker forfeited its chunk (silent expiry
        or explicit release after a crashed future)."""
        self.stats.lease_expiries += 1
        self.events.emit(
            "lease.expire",
            chunk=task.chunk_id,
            owner=task.owner,
            attempt=task.attempts,
        )

    def _on_quarantine(self, task: SearchTask, now: float) -> None:
        """Queue observer: a poison chunk exhausted its retry budget."""
        self.stats.quarantined += 1
        self._dirty_since_checkpoint = True
        self.events.emit(
            "chunk.quarantine", chunk=task.chunk_id, attempts=task.attempts
        )
        self._say(
            f"chunk {task.chunk_id} quarantined after {task.attempts} "
            "failed attempts"
        )

    def _on_backoff(self, task: SearchTask, delay: float) -> None:
        self.stats.retry_backoffs += 1
        self.events.emit(
            "lease.backoff",
            chunk=task.chunk_id,
            attempt=task.attempts,
            delay=round(delay, 6),
        )

    # -- checkpoint / resume -------------------------------------------

    def save_checkpoint(self, path: str | None = None) -> None:
        """Durably persist progress (defaults to the configured path):
        format 3 with CRC self-checksum, fsync'd rename, rotated
        ``.prev`` generation, and the current quarantine set."""
        target = path or self.checkpoint_path
        if target is None:
            raise ValueError("no checkpoint path configured")
        checkpoint_io.save(
            target,
            self.campaign,
            self.config,
            self.chunk_size,
            self.queue.quarantined_ids,
        )
        self.stats.checkpoints_written += 1
        self._dirty_since_checkpoint = False
        self.events.emit(
            "checkpoint.write",
            path=target,
            chunks_done=len(self.campaign.chunks_done),
            quarantined=self.queue.quarantined,
        )
        if (
            self.faults is not None
            and self.faults.corrupt_checkpoint_after is not None
            and self.stats.checkpoints_written
            == self.faults.corrupt_checkpoint_after
        ):
            # Injected silent bit rot: no event -- real disks don't
            # announce corruption either.  Detection is load's job.
            corrupt_file(target, seed=self.stats.checkpoints_written)

    def resume(
        self, path: str | None = None, *, retry_quarantined: bool = False
    ) -> int:
        """Load a checkpoint written by a compatible campaign and mark
        its chunks done (and its quarantined chunks quarantined,
        unless ``retry_quarantined`` grants them a fresh budget).

        Falls back to the rotated previous generation when the current
        file is corrupt, emitting ``checkpoint.corrupt``.  Returns the
        number of chunks skipped; raises
        :class:`~repro.dist.checkpoint.CheckpointMissing` when no
        generation exists, :class:`~repro.dist.checkpoint.CheckpointCorrupt`
        when none verifies, and :class:`CheckpointMismatch` on a
        foreign checkpoint.
        """
        target = path or self.checkpoint_path
        if target is None:
            raise ValueError("no checkpoint path configured")
        loaded = checkpoint_io.load(target, self.config, self.chunk_size)
        if loaded.fell_back:
            self.events.emit(
                "checkpoint.corrupt",
                path=target,
                fallback=loaded.source,
                error=str(loaded.corrupt_error),
            )
            self._say(
                f"checkpoint {target} unusable ({loaded.corrupt_error}); "
                f"recovered from previous generation {loaded.source}"
            )
        campaign = loaded.campaign
        foreign = [
            c
            for c in sorted(campaign.chunks_done | loaded.quarantined)
            if c not in self.queue
        ]
        if foreign:
            raise CheckpointMismatch(
                f"checkpoint {loaded.source} references chunks {foreign}, "
                f"outside this campaign's {len(self.queue)}-chunk partition "
                "(chunk_size mismatch?)"
            )
        skipped = 0
        for chunk_id in campaign.chunks_done:
            if self.queue.complete(chunk_id, "checkpoint", 0.0):
                skipped += 1
        restored = 0
        if not retry_quarantined:
            for chunk_id in sorted(loaded.quarantined):
                if self.queue.mark_quarantined(chunk_id):
                    restored += 1
                    self.stats.quarantined += 1
                    self.events.emit(
                        "chunk.quarantine",
                        chunk=chunk_id,
                        attempts=0,
                        restored=True,
                    )
        self.campaign = campaign
        self.stats.skipped_from_checkpoint = skipped
        self.events.emit(
            "campaign.resume",
            path=loaded.source,
            skipped=skipped,
            quarantined=restored,
        )
        return skipped

    # -- graceful shutdown ---------------------------------------------

    def _handle_signal(self, signum: int, frame: object) -> None:
        self._shutdown_signal = signal_module.Signals(signum).name

    def _install_signal_handlers(self) -> dict[int, object]:
        if not self.handle_signals:
            return {}
        previous: dict[int, object] = {}
        for sig in (signal_module.SIGTERM, signal_module.SIGINT):
            try:
                previous[sig] = signal_module.signal(sig, self._handle_signal)
            except ValueError:
                # Not the main thread: signals cannot be hooked here;
                # injected kill signals fall back to setting the flag.
                return previous
        self._signals_installed = True
        return previous

    def _restore_signal_handlers(self, previous: dict[int, object]) -> None:
        for sig, handler in previous.items():
            signal_module.signal(sig, handler)
        self._signals_installed = False

    def _inject_kill_signal(self) -> None:
        """Deliver the fault plan's scheduled SIGTERM to ourselves."""
        if self._signals_installed:
            os.kill(os.getpid(), signal_module.SIGTERM)
        else:
            self._shutdown_signal = "SIGTERM"

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
                _, result, aux = fut.result()
                self._deliver(task, result, now, aux)
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

    def _say(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    def _close_chunk_spans(self, chunk_id: int, outcome: str) -> None:
        """End an in-flight chunk's open spans on a non-delivery exit
        (crash, kill, rebuild release, drain forfeit)."""
        root, dispatch = self._chunk_spans.pop(
            chunk_id, (obs_trace.NULL_SPAN, obs_trace.NULL_SPAN)
        )
        dispatch.annotate(outcome=outcome)
        dispatch.end()
        root.annotate(outcome=outcome)
        root.end()

    def _deliver(
        self,
        task: SearchTask,
        result: SearchResult,
        now: float,
        aux: dict | None = None,
    ) -> None:
        aux = aux or {}
        root, dispatch = self._chunk_spans.pop(
            task.chunk_id, (obs_trace.NULL_SPAN, obs_trace.NULL_SPAN)
        )
        dispatch.end()
        # The worker's compute spans slot in under the dispatch span,
        # so the waterfall reads lease -> dispatch -> compute -> merge.
        self.tracer.adopt(aux.get("spans"), parent=dispatch.id)
        merge_span = self.tracer.start(
            "chunk.merge", parent=root.id, chunk=task.chunk_id
        )
        if task.attempts > 1:
            self.stats.reassignments += 1
        deliveries = 1
        if self.faults is not None and self.faults.duplicates_on(
            "pool", task.chunk_id
        ):
            deliveries = 2
        for _ in range(deliveries):
            self.queue.complete(task.chunk_id, PARENT_OWNER, now)
            merged = self.campaign.merge_chunk(
                task.chunk_id, result.records, result.examined
            )
            if not merged:
                self.stats.duplicate_deliveries += 1
            self.events.emit(
                "chunk.done",
                chunk=task.chunk_id,
                attempt=task.attempts,
                examined=result.examined,
                survivors=len(result.survivors),
                seconds=round(result.elapsed_seconds, 6),
                stage_kills=result.stage_kills,
                duplicate=not merged,
            )
        # Worker metrics merge exactly once per computed chunk -- the
        # duplicate-delivery replay above re-merges no numbers, same as
        # the campaign record.
        self.metrics.merge(aux.get("metrics"))
        self.metrics.observe_hist("chunk.seconds", result.elapsed_seconds)
        merge_span.end()
        root.annotate(attempt=task.attempts)
        root.end()
        self.stats.completions += 1
        self._completions_since_checkpoint += 1
        self._dirty_since_checkpoint = True
        self._rebuild_streak = 0  # real progress: the pool is healthy
        if (
            self.checkpoint_path is not None
            and self._completions_since_checkpoint >= self.checkpoint_every
        ):
            self.save_checkpoint()
            self._completions_since_checkpoint = 0
        if (
            self.faults is not None
            and self.faults.kill_signal_after is not None
            and self.stats.completions == self.faults.kill_signal_after
        ):
            self._inject_kill_signal()

    def run(self, stop_after: int | None = None) -> float:
        """Run until the queue drains (every chunk DONE or
        QUARANTINED), ``stop_after`` new completions arrive (a test
        hook for mid-flight checkpoints), or a SIGTERM/SIGINT triggers
        a graceful drain.  Returns elapsed wall-clock seconds; check
        :attr:`interrupted` and ``queue.quarantined_ids`` afterwards.
        """
        t0 = time.monotonic()
        self._t0 = t0
        self.interrupted = None
        self._shutdown_signal = None
        self._rebuild_streak = 0
        # Fresh tracker per run: a resumed/second run starts its own
        # wall clock, and observe() forbids time regressing.
        self.tracker = ProgressTracker(total_chunks=len(self.queue))
        self.tracker.observe(0.0, self.queue.done)
        self.events.emit(
            "campaign.start",
            backend="pool",
            width=self.config.width,
            target_hd=self.config.target_hd,
            final_length=self.config.final_length,
            chunk_size=self.chunk_size,
            chunks=len(self.queue),
            processes=self.processes,
        )
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
                if self.max_seconds is not None and now - t0 > self.max_seconds:
                    raise RuntimeError(
                        f"campaign exceeded {self.max_seconds}s: "
                        + self.queue.progress()
                    )
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
                    root = self.tracer.start(
                        "chunk", chunk=task.chunk_id, attempt=task.attempts
                    )
                    dispatch = self.tracer.start(
                        "chunk.dispatch", parent=root.id, chunk=task.chunk_id
                    )
                    self._chunk_spans[task.chunk_id] = (root, dispatch)
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
                    self._say(
                        self.tracker.summary(now - t0)
                        + " | "
                        + self.queue.progress()
                    )
                    last_summary = now
            if self._shutdown_signal is not None:
                self._drain(in_flight)
        finally:
            executor.shutdown(wait=False, cancel_futures=True)
            self._restore_signal_handlers(previous_handlers)
            # Any spans still open belong to attempts this session is
            # abandoning (stop_after exit, or an error unwinding the
            # loop); the drain path has already closed its own.  Close
            # them now so every opened span reaches the log with an
            # outcome instead of leaking.
            for chunk_id in list(self._chunk_spans):
                self._close_chunk_spans(chunk_id, "stopped")
        elapsed = time.monotonic() - t0
        if self.checkpoint_path is not None and self._dirty_since_checkpoint:
            self.save_checkpoint()
            self._completions_since_checkpoint = 0
        if self.collect_metrics:
            self.events.emit("metrics.snapshot", metrics=self.metrics.snapshot())
        if self._shutdown_signal is not None:
            self.interrupted = self._shutdown_signal
            self.events.emit(
                "campaign.interrupted",
                signal=self._shutdown_signal,
                elapsed=round(elapsed, 6),
                completions=self.stats.completions,
                examined=self.campaign.candidates_examined,
            )
        else:
            self.events.emit(
                "campaign.end",
                elapsed=round(elapsed, 6),
                completions=self.stats.completions,
                examined=self.campaign.candidates_examined,
                survivors=len(self.campaign.survivors),
                quarantined=self.queue.quarantined,
            )
        self._say(
            self.tracker.summary(elapsed) + " | " + self.queue.progress()
        )
        return elapsed

    def _settle(self, fut: Future, task: SearchTask, now: float) -> bool:
        """Account for one finished future: deliver its result, or
        record the crash and release its lease.  Returns True when the
        future died with the whole pool (a killed worker)."""
        exc = fut.exception()
        if exc is None:
            _, result, aux = fut.result()
            self._deliver(task, result, now, aux)
            self.tracker.observe(now - self._t0, self.queue.done)
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
