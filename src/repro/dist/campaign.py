"""One campaign engine: the coordinator lifecycle behind every campaign.

The paper's campaign ran for over three months on ~80 workstations and
finished because one coordinator leased work, merged results
idempotently and checkpointed its progress.  One executor drives that
lifecycle here: the network farm's :class:`~repro.dist.net.WorkServer`,
which the process pool :class:`~repro.dist.pool.ParallelCoordinator`
runs on one host.  :class:`CampaignCore` is its coordinator half:

* the :class:`~repro.dist.queue.TaskQueue` and its expiry, quarantine
  and backoff hooks;
* the :class:`~repro.search.records.CampaignRecord`, the tracer, the
  progress tracker and the per-chunk spans;
* format-4 checkpoint save -- one appended log frame of what merged
  since the last save, behind a small rotated manifest -- with the
  cadence and the fault plan's corruption injection, and
  :meth:`~CampaignCore.resume`;
* SIGTERM/SIGINT install and restore, and the drain flag;
* the merge bookkeeping for a delivered chunk
  (:meth:`~CampaignCore.deliver`);
* the ``campaign.start`` and ``campaign.end`` /
  ``campaign.interrupted`` bookkeeping.

The server adds how chunks reach workers and come back: the
``repro-work/1`` protocol.  :func:`compute_chunk` is the side every
worker runs: one chunk computed under per-chunk metrics and tracing.
"""

from __future__ import annotations

import os
import signal
import threading
from dataclasses import dataclass
from typing import Callable

from repro.dist import checkpoint as checkpoint_io
from repro.dist.checkpoint import CheckpointMismatch
from repro.dist.faults import corrupt_file
from repro.dist.progress import ProgressTracker
from repro.dist.queue import TaskQueue
from repro.dist.tasks import SearchTask, partition_space
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, NULL_TRACE, Tracer
from repro.search.exhaustive import SearchConfig, SearchResult, search_chunk
from repro.search.records import CampaignRecord


@dataclass
class CampaignStats:
    """The campaign's counters; the tests and the CLI summary lines
    read them."""

    completions: int = 0
    duplicate_deliveries: int = 0
    reassignments: int = 0
    checkpoints_written: int = 0
    skipped_from_checkpoint: int = 0
    lease_expiries: int = 0
    quarantined: int = 0
    retry_backoffs: int = 0


def install_drain_handlers(on_signal: Callable[[str], None]) -> dict:
    """Route SIGTERM and SIGINT to ``on_signal(name)``.  Returns the
    previous handlers for :func:`restore_handlers`; empty off the main
    thread, where signals cannot be hooked."""
    previous: dict = {}
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            previous[sig] = signal.signal(
                sig, lambda signum, frame: on_signal(signal.Signals(signum).name)
            )
        except ValueError:  # not the main thread
            break
    return previous


def restore_handlers(previous: dict) -> None:
    for sig, handler in previous.items():
        signal.signal(sig, handler)


#: The active metrics registry and tracer are process-wide, so
#: in-process workers computing at once (a loopback farm's clients)
#: would record into, and restore, each other's per-chunk ones.  The
#: lock makes each chunk's install-compute-restore atomic.
_OBS_LOCK = threading.Lock()


def compute_chunk(
    config: SearchConfig,
    start_index: int,
    end_index: int,
    chunk_id: int,
    attempt: int,
    collect_metrics: bool = False,
    collect_traces: bool = False,
    **span_attrs: object,
) -> tuple[SearchResult, dict | None]:
    """Compute one chunk on a worker; returns ``(result, obs)``.

    When ``collect_metrics`` is set, a fresh per-chunk
    :class:`~repro.obs.metrics.MetricsRegistry` is installed for the
    duration of the chunk; ``collect_traces`` does the same with an
    unattached :class:`~repro.obs.trace.Tracer`, under a
    ``chunk.compute`` root span (the packed screening stages open
    children).  ``obs`` carries their plain-dict snapshots home for
    the coordinator's :meth:`CampaignCore.deliver` to merge and adopt;
    it is None when nothing is collected.
    """
    if not (collect_metrics or collect_traces):
        return search_chunk(config, start_index, end_index), None
    registry = MetricsRegistry() if collect_metrics else None
    tracer = Tracer() if collect_traces else None
    with _OBS_LOCK:
        previous_metrics = obs_metrics.install(registry) if registry else None
        previous_trace = obs_trace.install(tracer) if tracer else None
        try:
            if tracer is not None:
                with tracer.span(
                    "chunk.compute", chunk=chunk_id, attempt=attempt,
                    **span_attrs,
                ):
                    result = search_chunk(config, start_index, end_index)
            else:
                result = search_chunk(config, start_index, end_index)
        finally:
            if registry is not None:
                obs_metrics.install(previous_metrics)
            if tracer is not None:
                obs_trace.install(previous_trace)
    obs = {
        "metrics": registry.snapshot() if registry else None,
        "spans": tracer.snapshot() if tracer else None,
    }
    return result, obs


class CampaignCore:
    """The coordinator lifecycle of a campaign.

    :class:`~repro.dist.net.WorkServer` sets the campaign's settings
    (``config``, ``chunk_size``, ``events``, ``checkpoint_path``,
    ``checkpoint_every``, ``faults``, ``log``, ``max_seconds``,
    ``collect_metrics``, ``handle_signals``), its ``metrics`` and its
    ``stats`` (a :class:`CampaignStats`), then calls :meth:`_init_core`.
    """

    def _init_core(
        self,
        *,
        lease_duration: float,
        max_attempts: int,
        backoff_base: float = 0.0,
        backoff_cap: float = 60.0,
        collect_traces: bool | None = False,
    ) -> None:
        """Build the queue (hooked), the record, the tracker and the
        tracer.  ``collect_traces=None`` traces exactly when
        ``events`` is a real log."""
        self.queue = TaskQueue(
            partition_space(self.config.width, self.chunk_size),
            lease_duration=lease_duration,
            max_attempts=max_attempts,
            backoff_base=backoff_base,
            backoff_cap=backoff_cap,
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
        if collect_traces is None:
            collect_traces = self.events.enabled
        self.collect_traces = collect_traces
        self.tracer = Tracer(events=self.events) if collect_traces else NULL_TRACE
        #: Signal name ("SIGTERM"/"SIGINT") when the last run was
        #: interrupted and drained; None after a run that finished.
        self.interrupted: str | None = None
        #: Open (root, stage) span handles per in-flight chunk id.
        self._chunk_spans: dict[int, tuple] = {}
        self._completions_since_checkpoint = 0
        self._dirty_since_checkpoint = False
        self._shutdown_signal: str | None = None
        self._signals_installed = False
        self._t0: float | None = None

    # -- queue observers -----------------------------------------------

    def _on_lease_expire(self, task: SearchTask, now: float) -> None:
        """A worker forfeited its chunk: the lease expired, or its
        owner released it after a crash."""
        self.stats.lease_expiries += 1
        self.events.emit(
            "lease.expire",
            chunk=task.chunk_id,
            owner=task.owner,
            attempt=task.attempts,
        )
        self._close_chunk_spans(task.chunk_id, "expired")

    def _on_quarantine(self, task: SearchTask, now: float) -> None:
        """A poison chunk exhausted its retry budget."""
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
        """Durably persist progress (defaults to ``checkpoint_path``):
        format 4, appending the chunks merged since this record's last
        save to a CRC-32C-framed log, then publishing a CRC-checked
        manifest by fsync'd rename with a rotated ``.prev`` generation
        and the current quarantine set."""
        target = path or self.checkpoint_path
        if target is None:
            raise ValueError("no checkpoint path configured")
        written = checkpoint_io.save(
            target,
            self.campaign,
            self.config,
            self.chunk_size,
            self.queue.quarantined_ids,
        )
        self.stats.checkpoints_written += 1
        self._completions_since_checkpoint = 0
        self._dirty_since_checkpoint = False
        self.events.emit(
            "checkpoint.write",
            path=target,
            chunks_done=len(self.campaign.chunks_done),
            quarantined=self.queue.quarantined,
            mode=written.mode,
            bytes=written.bytes,
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
        """Load a checkpoint written by a compatible campaign (by
        ``repro campaign`` or ``repro serve``) and mark its chunks
        done, and its quarantined chunks quarantined unless
        ``retry_quarantined`` grants them a fresh budget.  Returns the
        number of chunks skipped.

        Falls back to the rotated previous generation when the current
        file is corrupt, and keeps the intact frames before a damaged
        one in the log, emitting ``checkpoint.corrupt`` either way: the
        lost chunks are recomputed.  Raises
        :class:`~repro.dist.checkpoint.CheckpointMissing` when no
        generation exists, :class:`~repro.dist.checkpoint.CheckpointCorrupt`
        when none verifies, and :class:`CheckpointMismatch` on a
        foreign checkpoint or a chunk outside this partition.
        """
        target = path or self.checkpoint_path
        if target is None:
            raise ValueError("no checkpoint path configured")
        loaded = checkpoint_io.load(target, self.config, self.chunk_size)
        if loaded.corrupt_error is not None:
            self.events.emit(
                "checkpoint.corrupt",
                path=target,
                fallback=loaded.source,
                error=loaded.corrupt_error,
            )
            self._say(
                f"checkpoint {target} damaged ({loaded.corrupt_error}); "
                f"recovered what {loaded.source} still holds"
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

    # -- signals / drain / logging -------------------------------------

    def _begin_drain(self, signame: str) -> None:
        if self._shutdown_signal is None:
            self._shutdown_signal = signame

    def _install_signal_handlers(self) -> dict:
        previous = (
            install_drain_handlers(self._begin_drain)
            if self.handle_signals
            else {}
        )
        self._signals_installed = bool(previous)
        return previous

    def _inject_kill_signal(self) -> None:
        """Deliver the fault plan's scheduled SIGTERM to ourselves
        (or set the drain flag where no handler could be installed)."""
        if self._signals_installed:
            os.kill(os.getpid(), signal.SIGTERM)
        else:
            self._begin_drain("SIGTERM")

    def _say(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    def _summary(self, elapsed: float) -> str:
        return self.tracker.summary(elapsed) + " | " + self.queue.progress()

    def _check_deadline(self, now: float) -> None:
        if self.max_seconds is not None and now - self._t0 > self.max_seconds:
            raise RuntimeError(
                f"campaign exceeded {self.max_seconds}s: "
                + self.queue.progress()
            )

    # -- per-chunk spans -----------------------------------------------

    def _open_chunk_spans(self, task: SearchTask, stage: str, **attrs) -> None:
        """Open the root ``chunk`` span at lease time, with the
        ``stage`` child (dispatch, or the remote round trip) that the
        worker's compute spans are adopted under."""
        root = self.tracer.start(
            "chunk", chunk=task.chunk_id, attempt=task.attempts, **attrs
        )
        child = self.tracer.start(
            stage, parent=root.id, chunk=task.chunk_id, **attrs
        )
        self._chunk_spans[task.chunk_id] = (root, child)

    def _close_chunk_spans(self, chunk_id: int, outcome: str) -> None:
        """End an in-flight chunk's open spans on a non-delivery exit
        (a dead worker's release, expiry, drain forfeit, stop)."""
        root, child = self._chunk_spans.pop(chunk_id, (NULL_SPAN, NULL_SPAN))
        child.annotate(outcome=outcome)
        child.end()
        root.annotate(outcome=outcome)
        root.end()

    # -- merging a delivered chunk -------------------------------------

    def deliver(
        self,
        task: SearchTask,
        result: SearchResult,
        worker: str,
        now: float,
        obs: dict | None = None,
    ) -> bool:
        """Complete and merge one chunk result from ``worker``; True
        when it was new.

        Every delivery emits ``chunk.done``; the record, the metrics,
        the ``chunk.seconds`` histogram and the books take the chunk
        once, and a replay counts in ``stats.duplicate_deliveries``.
        A new chunk also closes its spans (adopting the worker's
        ``obs`` spans), drives the checkpoint cadence and, under a
        fault plan, the scheduled SIGTERM.
        """
        chunk_id = task.chunk_id
        attempt = task.attempts
        spans = self._chunk_spans.pop(chunk_id, None)
        obs = obs or {}
        root = merge_span = NULL_SPAN
        if spans is not None:
            root, stage = spans
            stage.end()
            # The worker's compute spans slot in under the stage span,
            # so the waterfall reads lease -> dispatch -> compute -> merge.
            self.tracer.adopt(obs.get("spans"), parent=stage.id)
            merge_span = self.tracer.start(
                "chunk.merge", parent=root.id, chunk=chunk_id
            )
        self.queue.complete(chunk_id, worker, now)
        new = self.campaign.merge_chunk(
            chunk_id, result.records, result.examined
        )
        self.events.emit(
            "chunk.done",
            chunk=chunk_id,
            attempt=attempt,
            examined=result.examined,
            survivors=len(result.survivors),
            seconds=round(result.elapsed_seconds, 6),
            stage_kills=result.stage_kills,
            duplicate=not new,
            worker=worker,
        )
        if new:
            # Worker metrics merge once per computed chunk, like the
            # record: a replay re-merges no numbers.
            self.metrics.merge(obs.get("metrics"))
            self.metrics.observe("chunk.seconds", result.elapsed_seconds)
        merge_span.end()
        root.annotate(attempt=attempt)
        root.end()
        if not new:
            self.stats.duplicate_deliveries += 1
            return False
        if attempt > 1:
            self.stats.reassignments += 1
        self.stats.completions += 1
        self._completions_since_checkpoint += 1
        self._dirty_since_checkpoint = True
        if self._t0 is not None:
            self.tracker.observe(now - self._t0, self.queue.done)
        if (
            self.checkpoint_path is not None
            and self._completions_since_checkpoint >= self.checkpoint_every
        ):
            self.save_checkpoint()
        if (
            self.faults is not None
            and self.faults.kill_signal_after is not None
            and self.stats.completions == self.faults.kill_signal_after
        ):
            self._inject_kill_signal()
        return True

    # -- start and end of a run ----------------------------------------

    def _begin_run(self, now: float, backend: str, **fields: object) -> None:
        """Reset the per-run state and emit ``campaign.start``."""
        self._t0 = now
        self.interrupted = None
        self._shutdown_signal = None
        # Fresh tracker per run: a resumed or second run starts its own
        # clock, and observe() forbids time regressing.
        self.tracker = ProgressTracker(total_chunks=len(self.queue))
        self.tracker.observe(0.0, self.queue.done)
        self.events.emit(
            "campaign.start",
            backend=backend,
            width=self.config.width,
            target_hd=self.config.target_hd,
            final_length=self.config.final_length,
            chunk_size=self.chunk_size,
            chunks=len(self.queue),
            **fields,
        )

    def _end_session(self, previous_handlers: dict) -> None:
        """Restore the signal handlers and close the spans of attempts
        this session abandons (a ``stop_after`` exit, or an error
        unwinding the loop), so every opened span reaches the log with
        an outcome."""
        restore_handlers(previous_handlers)
        self._signals_installed = False
        for chunk_id in list(self._chunk_spans):
            self._close_chunk_spans(chunk_id, "stopped")

    def _finish_run(self, elapsed: float) -> None:
        """Final checkpoint, ``metrics.snapshot``, and
        ``campaign.end`` or ``campaign.interrupted``."""
        if self.checkpoint_path is not None and self._dirty_since_checkpoint:
            self.save_checkpoint()
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
        self._say(self._summary(elapsed))
