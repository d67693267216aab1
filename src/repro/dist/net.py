"""The multi-host campaign tier: ``repro serve`` / ``repro work``.

The paper's numbers came from ~80 workstations grinding for three
months; this module is the coordinator that shape of campaign needs,
and the one campaign engine.  A :class:`WorkServer` owns the
:class:`~repro.dist.queue.TaskQueue`, the
:class:`~repro.search.records.CampaignRecord`, checkpoint/resume and
the drain; remote :class:`WorkClient` processes lease chunks over the
``repro-work/2`` NDJSON protocol, compute them with
:func:`~repro.dist.campaign.compute_chunk`, and mail the results --
plus their obs snapshots, when the server asks for them -- home.  The
process pool (:mod:`repro.dist.pool`) is this tier on one host: a
loopback server and forked clients.

Protocol (one JSON object per line, framing from
:mod:`repro.net_common`, transports from :mod:`repro.dist.transport`;
full spec in docs/FARM.md).  Client requests carry ``op``, ``seq``
(echoed in the reply, so duplicated/delayed replies are discardable)
and ``worker``; the verbs are:

``hello``    version handshake; the reply carries the campaign's
             :class:`~repro.search.exhaustive.SearchConfig`, chunk
             size, lease duration and whether to collect per-chunk
             metrics and traces, so workers need zero local
             configuration.
``lease``    claim the next chunk (reply: bounds + lease ``epoch``),
             or learn the queue is ``idle`` (retry later),
             ``draining`` (coordinator is shutting down: a drain, or
             the end of a ``stop_after`` session) or ``done``.
             An idle reply is held until one of the others can be
             given instead, for at most its ``retry_in``.
``renew``    heartbeat an in-flight lease.  A definitive ``lost``
             verdict (:class:`~repro.dist.queue.LeaseLost`) tells the
             worker to abandon the chunk.
``complete`` deliver a chunk result.  Idempotent: replays and
             duplicates are acknowledged but merge nothing
             (``merged: false``).
``snapshot`` mail obs metrics/spans home outside a completion.
``bye``      clean goodbye (reply, then close).

Robustness model -- every failure is somebody's everyday:

* a worker that vanishes mid-chunk stops heartbeating; the server's
  reaper sweep expires the lease and the chunk re-pends (with the
  queue's usual backoff/quarantine budgets);
* a worker that *reconnects* resends its unacknowledged completion;
  the merge is keyed by chunk id, so the replay is a no-op if the
  chunk was completed elsewhere meanwhile;
* duplicated frames are absorbed by the same idempotence; delayed
  replies are discarded by ``seq`` matching;
* a finished queue answers every worker ``done``; each says ``bye``
  and exits, and the server waits for them (at most ``drain_grace``,
  capped at two seconds) before it stops listening;
* a drain signal (SIGTERM/SIGINT) stops leasing, answers in-flight
  completions for ``drain_grace`` seconds, checkpoints (format 4),
  and exits; ``resume`` picks the campaign back up;
* per-worker fault budgets bench a host whose leases keep expiring,
  so one flaky machine cannot burn every chunk's retry budget.
"""

from __future__ import annotations

import asyncio
import dataclasses
import os
import random
import signal
import socket
import time
import weakref
from dataclasses import dataclass
from typing import Any, Callable

from repro.dist import checkpoint as checkpoint_io
from repro.dist.campaign import (
    compute_chunk,
    install_drain_handlers,
    restore_handlers,
)
from repro.dist.checkpoint import CheckpointMismatch
from repro.dist.faults import FaultPlan, corrupt_file
from repro.dist.progress import ProgressTracker
from repro.dist.queue import LeaseLost, TaskQueue
from repro.dist.tasks import SearchTask, partition_space
from repro.dist.transport import Connection, ConnectionLost, Transport
from repro.net_common import FrameError
from repro.obs.events import NULL_EVENTS, NullEventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NULL_SPAN, NULL_TRACE, Tracer
from repro.search.exhaustive import SearchConfig, SearchResult
from repro.search.records import CampaignRecord, PolyRecord

#: Protocol identifier exchanged in ``hello``; bump on wire changes.
PROTOCOL = "repro-work/2"
#: The shortest sleep, in seconds, of a worker told it is idle,
#: whatever ``retry_in`` the server sent.
IDLE_FLOOR = 0.02


class WorkProtocolError(Exception):
    """A malformed or unserviceable work-protocol request; ``code``
    is the machine-readable discriminant carried on the wire."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


class WorkerKilled(RuntimeError):
    """Raised inside a :class:`WorkClient` when the fault plan says
    this worker dies abruptly now (no ``bye``, no cleanup)."""


# -- wire codecs -------------------------------------------------------


def config_to_wire(config: SearchConfig) -> dict[str, Any]:
    d = dataclasses.asdict(config)
    d["filter_lengths"] = list(config.filter_lengths)
    return d


def config_from_wire(d: dict[str, Any]) -> SearchConfig:
    d = dict(d)
    d["filter_lengths"] = tuple(d["filter_lengths"])
    return SearchConfig(**d)


def result_to_wire(result: SearchResult) -> dict[str, Any]:
    return {
        "records": [r.to_json_dict() for r in result.records],
        "examined": result.examined,
        "stage_kills": {str(k): v for k, v in result.stage_kills.items()},
        "elapsed": result.elapsed_seconds,
    }


def result_from_wire(d: Any, config: SearchConfig) -> SearchResult:
    """Parse a ``complete`` frame's result payload; raises
    :class:`WorkProtocolError` (``bad-field``) on anything that does
    not decode -- remote input is untrusted."""
    if not isinstance(d, dict):
        raise WorkProtocolError("bad-field", "field 'result' must be an object")
    try:
        records = [PolyRecord.from_json_dict(r) for r in d.get("records", [])]
        examined = int(d.get("examined", 0))
        stage_kills = {
            int(k): int(v) for k, v in dict(d.get("stage_kills", {})).items()
        }
        elapsed = float(d.get("elapsed", 0.0))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise WorkProtocolError(
            "bad-field", f"undecodable result payload: {exc}"
        ) from None
    return SearchResult(
        config=config,
        records=records,
        examined=examined,
        stage_kills=stage_kills,
        elapsed_seconds=elapsed,
    )


def _int_field(req: dict, name: str, minimum: int = 0) -> int:
    value = req.get(name)
    if isinstance(value, bool) or not isinstance(value, int):
        raise WorkProtocolError("bad-field", f"missing integer field {name!r}")
    if value < minimum:
        raise WorkProtocolError("bad-field", f"field {name!r} must be >= {minimum}")
    return value


# -- the coordinator ---------------------------------------------------


@dataclass
class WorkerBook:
    """Per-worker-host accounting the server keeps (and the
    ``worker.*`` events publish for :class:`~repro.obs.report.RunReport`)."""

    worker: str
    host: str = ""
    connections: int = 0
    chunks: int = 0
    examined: int = 0
    seconds: float = 0.0
    lease_losses: int = 0
    expiries: int = 0
    faults: int = 0
    benched: bool = False
    last_seen: float = 0.0


def _weak_hook(method: Callable[..., None]) -> Callable[..., None]:
    """``method`` as a queue hook that does not keep its owner alive:
    the engine and its queue then make no reference cycle, so a
    finished engine is freed by reference counting."""
    ref = weakref.WeakMethod(method)

    def hook(*args: object) -> None:
        bound = ref()
        if bound is not None:
            bound(*args)

    return hook


@dataclass
class CampaignStats:
    """The campaign's counters: the tests, the CLI summary lines and the
    bench read them."""

    completions: int = 0
    duplicate_deliveries: int = 0
    reassignments: int = 0
    checkpoints_written: int = 0
    skipped_from_checkpoint: int = 0
    lease_expiries: int = 0
    quarantined: int = 0
    retry_backoffs: int = 0
    frame_errors: int = 0
    protocol_errors: int = 0
    connections: int = 0


class WorkServer:
    """The campaign engine: the asyncio coordinator behind ``repro
    serve``, and, on a loopback port, behind ``repro campaign``.

    It owns the :class:`~repro.dist.queue.TaskQueue` and its expiry,
    quarantine and backoff hooks; the
    :class:`~repro.search.records.CampaignRecord`, the tracer, the
    progress tracker and the per-chunk spans; the format-4 checkpoint
    (one appended log frame of what merged since the last save, behind
    a small rotated manifest) with its cadence, its injected rot and
    :meth:`resume`; the SIGTERM/SIGINT drain; and the merge of every
    delivered chunk (:meth:`deliver`).  Chunks reach workers and come
    back over the ``repro-work/2`` verbs, on whatever
    :class:`~repro.dist.transport.Transport` it is given, with
    per-worker books and a lease reaper.  One event loop, no locks:
    every dispatch mutates state between awaits.
    """

    #: ``campaign.start``'s ``backend`` field.
    backend = "net"
    #: The per-chunk stage span opened at lease time, under which the
    #: worker's compute spans are adopted.
    stage_span = "chunk.remote"

    def __init__(
        self,
        config: SearchConfig,
        chunk_size: int,
        transport: Transport,
        *,
        lease_duration: float = 30.0,
        max_attempts: int = 5,
        retry_backoff: float = 0.05,
        checkpoint_path: str | None = None,
        checkpoint_every: int = 8,
        worker_fault_budget: int = 0,
        drain_grace: float = 3.0,
        progress_interval: float = 10.0,
        max_seconds: float | None = None,
        faults: FaultPlan | None = None,
        events: NullEventLog = NULL_EVENTS,
        collect_metrics: bool = False,
        collect_traces: bool | None = None,
        handle_signals: bool = True,
        log: Callable[[str], None] | None = None,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.config = config
        self.chunk_size = chunk_size
        self.transport = transport
        self.lease_duration = lease_duration
        self.checkpoint_path = checkpoint_path
        self.checkpoint_every = checkpoint_every
        self.worker_fault_budget = worker_fault_budget
        self.drain_grace = drain_grace
        self.progress_interval = progress_interval
        self.max_seconds = max_seconds
        self.faults = faults
        self.events = events
        self.collect_metrics = collect_metrics
        if collect_traces is None:  # trace exactly when there is a log
            collect_traces = events.enabled
        self.collect_traces = collect_traces
        self.handle_signals = handle_signals
        self.log = log
        self.clock = clock
        self.queue = TaskQueue(
            partition_space(config.width, chunk_size),
            lease_duration=lease_duration,
            max_attempts=max_attempts,
            backoff_base=retry_backoff,
        )
        self.queue.on_expire = _weak_hook(self._on_lease_expire)
        self.queue.on_quarantine = _weak_hook(self._on_quarantine)
        self.queue.on_backoff = _weak_hook(self._on_backoff)
        self.campaign = CampaignRecord(
            width=config.width,
            data_word_bits=config.final_length,
            target_hd=config.target_hd,
        )
        self.tracker = ProgressTracker(total_chunks=len(self.queue))
        self.tracer = Tracer(events=events) if collect_traces else NULL_TRACE
        self.metrics = MetricsRegistry()
        self.stats = CampaignStats()
        self.workers: dict[str, WorkerBook] = {}
        self.address: str | None = None
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
        self._open_connections = 0
        #: Set by the completion that ends the serve loop, so
        #: :meth:`serve` returns without waiting out its tick.
        self._wake = asyncio.Event()
        #: Pulsed (set, then replaced) when a lease is forfeited, the
        #: session ends or a drain begins: news for held ``lease``s.
        self._news = asyncio.Event()
        self._stop_after: int | None = None

    # -- queue observers -----------------------------------------------

    def _on_lease_expire(self, task: SearchTask, now: float) -> None:
        """A worker forfeited its chunk: the lease expired, or its
        owner released it (a crash, a drain).  The chunk re-pends,
        which is news for held leases, and the owner's fault books
        grow: a worker whose leases keep expiring is benched."""
        self.stats.lease_expiries += 1
        self.events.emit(
            "lease.expire",
            chunk=task.chunk_id,
            owner=task.owner,
            attempt=task.attempts,
        )
        self._close_chunk_spans(task.chunk_id, "expired")
        self._notify()
        book = self.workers.get(task.owner or "")
        if book is None:
            return
        book.expiries += 1
        book.faults += 1
        if (
            self.worker_fault_budget
            and not book.benched
            and book.faults >= self.worker_fault_budget
        ):
            book.benched = True
            self.events.emit(
                "worker.benched", worker=book.worker, faults=book.faults
            )
            self._say(f"worker {book.worker} benched after {book.faults} faults")

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
        when none verifies, and :class:`~repro.dist.checkpoint.CheckpointMismatch` on a
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

    def _begin_run(self, now: float, **fields: object) -> None:
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
            backend=self.backend,
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

    # -- protocol dispatch --------------------------------------------

    def _count(self, name: str) -> None:
        """Bump a ``work.*`` protocol counter, when collecting metrics."""
        if self.collect_metrics:
            self.metrics.inc(name)

    def _base_reply(self, req: dict, op: str | None = None) -> dict:
        reply: dict[str, Any] = {"ok": True}
        if op is not None:
            reply["op"] = op
        seq = req.get("seq")
        if isinstance(seq, (int, str)) and not isinstance(seq, bool):
            reply["seq"] = seq
        return reply

    def _error_frame(self, code: str, message: str, req: dict | None) -> dict:
        self.stats.protocol_errors += 1
        self._count("work.request.error")
        self._count(f"work.error.{code}")
        frame: dict[str, Any] = {
            "ok": False,
            "error": {"code": code, "message": message},
        }
        if isinstance(req, dict):
            seq = req.get("seq")
            if isinstance(seq, (int, str)) and not isinstance(seq, bool):
                frame["seq"] = seq
        return frame

    def _dispatch(
        self, req: Any, worker: str | None
    ) -> tuple[dict, bool, str | None]:
        """One request -> ``(reply, close_connection, worker_binding)``.
        Never raises: every failure becomes a coded error frame."""
        if not isinstance(req, dict):
            return (
                self._error_frame("bad-frame", "request must be a JSON object", None),
                False,
                worker,
            )
        op = req.get("op")
        if not isinstance(op, str):
            return (
                self._error_frame("bad-frame", "missing string field 'op'", req),
                False,
                worker,
            )
        try:
            if op == "hello":
                return self._op_hello(req)
            if worker is None:
                return (
                    self._error_frame(
                        "no-hello", f"{op!r} before 'hello' handshake", req
                    ),
                    False,
                    worker,
                )
            book = self.workers[worker]
            book.last_seen = self.clock()
            if op == "lease":
                return self._op_lease(req, book), False, worker
            if op == "renew":
                return self._op_renew(req, book), False, worker
            if op == "complete":
                return self._op_complete(req, book), False, worker
            if op == "snapshot":
                return self._op_snapshot(req, book), False, worker
            if op == "bye":
                self.events.emit(
                    "worker.bye", worker=worker, chunks=book.chunks
                )
                reply = self._base_reply(req, "bye")
                return reply, True, worker
            return (
                self._error_frame(
                    "unknown-op",
                    f"unknown op {op!r}; known: bye, complete, hello, "
                    "lease, renew, snapshot",
                    req,
                ),
                False,
                worker,
            )
        except WorkProtocolError as exc:
            return self._error_frame(exc.code, str(exc), req), False, worker
        except Exception as exc:  # never let a request kill the coordinator
            return (
                self._error_frame(
                    "internal", f"{type(exc).__name__}: {exc}", req
                ),
                False,
                worker,
            )

    def _op_hello(self, req: dict) -> tuple[dict, bool, str | None]:
        protocol = req.get("protocol")
        if protocol != PROTOCOL:
            return (
                self._error_frame(
                    "version-mismatch",
                    f"this coordinator speaks {PROTOCOL}, not {protocol!r}",
                    req,
                ),
                True,
                None,
            )
        worker = req.get("worker")
        if not isinstance(worker, str) or not worker:
            raise WorkProtocolError(
                "bad-field", "missing non-empty string field 'worker'"
            )
        host = req.get("host")
        book = self.workers.setdefault(worker, WorkerBook(worker=worker))
        if isinstance(host, str):
            book.host = host
        reconnect = book.connections > 0
        book.connections += 1
        book.last_seen = self.clock()
        self._count("work.hello")
        self.events.emit(
            "worker.hello",
            worker=worker,
            host=book.host,
            reconnect=reconnect,
        )
        reply = self._base_reply(req, "hello")
        reply.update(
            protocol=PROTOCOL,
            config=config_to_wire(self.config),
            chunk_size=self.chunk_size,
            lease=self.lease_duration,
            collect_metrics=self.collect_metrics,
            collect_traces=self.collect_traces,
        )
        return reply, False, worker

    def _op_lease(self, req: dict, book: WorkerBook) -> dict:
        reply = self._base_reply(req, "lease")
        now = self.clock()
        if self.queue.finished:
            reply["done"] = True
            return reply
        if self._shutdown_signal is not None or self._campaign_over():
            reply["draining"] = True  # a drain, or the end of a stop_after
            return reply
        if book.benched:
            reply.update(idle=True, benched=True, retry_in=self.lease_duration)
            return reply
        task = self.queue.lease(book.worker, now)
        if task is None:
            wake = self.queue.next_wakeup(now)
            retry_in = 0.05 if wake is None else max(wake - now, 0.01)
            reply.update(idle=True, retry_in=round(retry_in, 4))
            return reply
        self._open_chunk_spans(task, self.stage_span, worker=book.worker)
        self.events.emit(
            "lease.grant",
            chunk=task.chunk_id,
            attempt=task.attempts,
            worker=book.worker,
        )
        self._count("work.lease")
        reply.update(
            chunk=task.chunk_id,
            start=task.start_index,
            end=task.end_index,
            epoch=task.epoch,
            attempt=task.attempts,
        )
        return reply

    @property
    def _tick(self) -> float:
        """The serve loop's period (the reaper's sweep), and the
        longest an idle ``lease`` is held."""
        return min(max(self.lease_duration / 4.0, 0.01), 0.25)

    def _notify(self) -> None:
        """Wake every held ``lease``: there may be news for it."""
        self._news.set()
        self._news = asyncio.Event()

    async def _hold(self, req: dict, book: WorkerBook, reply: dict) -> dict:
        """Hold an idle ``lease`` reply until there is news to answer
        with instead -- a chunk to lease, ``done`` or ``draining`` --
        so an idle worker hears it at once, not after its sleep.  The
        hold lasts at most the ``retry_in`` the reply carries and one
        serve-loop tick, well inside any worker's ack timeout; a hold
        that runs out answers idle with the shortest ``retry_in``, so
        the worker asks again at once."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + min(reply["retry_in"], self._tick)
        while (remaining := deadline - loop.time()) > 0:
            try:
                await asyncio.wait_for(self._news.wait(), remaining)
            except asyncio.TimeoutError:
                pass
            reply = self._op_lease(req, book)
            if not reply.get("idle") or reply.get("benched"):
                return reply
            deadline = min(deadline, loop.time() + reply["retry_in"])
        reply["retry_in"] = 0.01
        return reply

    def _op_renew(self, req: dict, book: WorkerBook) -> dict:
        chunk = _int_field(req, "chunk")
        epoch = req.get("epoch")
        if epoch is not None:
            epoch = _int_field(req, "epoch")
        if chunk not in self.queue:
            raise WorkProtocolError("bad-field", f"unknown chunk {chunk}")
        reply = self._base_reply(req, "renew")
        try:
            self.queue.renew(chunk, book.worker, self.clock(), epoch=epoch)
        except LeaseLost as exc:
            book.lease_losses += 1
            self.events.emit(
                "worker.lease_lost",
                worker=book.worker,
                chunk=chunk,
                reason=str(exc),
            )
            reply.update(renewed=False, lost=True, reason=str(exc))
            return reply
        self.events.emit("lease.renew", chunks=1, worker=book.worker)
        reply["renewed"] = True
        return reply

    def _op_complete(self, req: dict, book: WorkerBook) -> dict:
        chunk = _int_field(req, "chunk")
        if chunk not in self.queue:
            raise WorkProtocolError("bad-field", f"unknown chunk {chunk}")
        result = result_from_wire(req.get("result"), self.config)
        obs = req.get("obs") if isinstance(req.get("obs"), dict) else None
        merged = self.deliver(
            self.queue.task(chunk), result, book.worker, self.clock(), obs
        )
        if merged:
            book.chunks += 1
            book.examined += result.examined
            book.seconds += result.elapsed_seconds
        else:
            self._count("work.duplicate_completion")
        if self._campaign_over():
            self._notify()  # held leases answer "done" or "draining"
            self._wake.set()
        reply = self._base_reply(req, "complete")
        reply.update(merged=merged, done=self.queue.finished)
        return reply

    def _op_snapshot(self, req: dict, book: WorkerBook) -> dict:
        obs = req.get("obs") if isinstance(req.get("obs"), dict) else {}
        self.metrics.merge(obs.get("metrics"))
        self.tracer.adopt(obs.get("spans"))
        self.events.emit("worker.snapshot", worker=book.worker)
        return self._base_reply(req, "snapshot")

    # -- connection plumbing ------------------------------------------

    async def _handle_connection(self, conn: Connection) -> None:
        self.stats.connections += 1
        self._open_connections += 1
        worker: str | None = None
        try:
            while True:
                try:
                    req = await conn.recv()
                except FrameError as exc:
                    self.stats.frame_errors += 1
                    self.events.emit(
                        "work.frame_error", code=exc.code, worker=worker
                    )
                    try:
                        await conn.send(
                            self._error_frame(exc.code, str(exc), None)
                        )
                    except ConnectionLost:
                        return
                    if not exc.recoverable:
                        return
                    continue
                except ConnectionLost:
                    return
                if req is None:
                    return
                reply, close, worker = self._dispatch(req, worker)
                if reply.get("idle") and not reply.get("benched"):
                    reply = await self._hold(req, self.workers[worker], reply)
                try:
                    await conn.send(reply)
                except ConnectionLost:
                    return
                if close:
                    return
        except asyncio.CancelledError:
            raise
        finally:
            self._open_connections -= 1
            await conn.close()

    # -- the serve loop -----------------------------------------------

    def _campaign_over(self) -> bool:
        """Every chunk DONE or QUARANTINED, or ``stop_after`` new
        completions merged."""
        return self.queue.finished or (
            self._stop_after is not None
            and self.stats.completions >= self._stop_after
        )

    def _on_listening(self) -> None:
        """Called on the event loop once :attr:`address` is bound."""

    async def serve(self, stop_after: int | None = None) -> int:
        """Serve until every chunk is DONE or QUARANTINED, a drain
        signal lands, or ``stop_after`` new completions arrive (a test
        hook for mid-flight checkpoints).  Returns 0; check
        :attr:`interrupted` and ``queue.quarantined_ids`` for the
        campaign verdict (the CLI maps them to exit codes)."""
        t0 = self.clock()
        self._stop_after = stop_after
        # Fresh events: a second serve runs on a new event loop.
        self._wake = asyncio.Event()
        self._news = asyncio.Event()
        self.address = await self.transport.listen(self._handle_connection)
        self._begin_run(
            t0,
            transport=type(self.transport).__name__,
            address=self.address,
            **self._start_fields(),
        )
        previous = self._install_signal_handlers()
        self._say(f"work server listening on {self.address}")
        last_summary = t0
        try:
            self._on_listening()
            while not self._campaign_over():
                if self._shutdown_signal is not None:
                    break
                now = self.clock()
                self._check_deadline(now)
                # The reaper: a vanished host's leases expire here even
                # while every live worker is busy computing.
                self.queue.reclaim(now)
                if now - last_summary >= self.progress_interval:
                    self._say(self._summary(now - t0))
                    last_summary = now
                try:
                    await asyncio.wait_for(self._wake.wait(), self._tick)
                except asyncio.TimeoutError:
                    pass
            if self._shutdown_signal is not None:
                await self._drain()
            else:
                await self._quiesce(min(self.drain_grace, 2.0))
        finally:
            self._end_session(previous)
            await self.transport.close()
        self._finish_run(self.clock() - t0)
        return 0

    def _start_fields(self) -> dict:
        """Extra ``campaign.start`` fields (the pool's process count)."""
        return {}

    async def _quiesce(self, grace: float) -> None:
        """Give connected workers up to ``grace`` seconds to hear
        ``done`` or ``draining`` and say ``bye``."""
        deadline = self.clock() + grace
        while self._open_connections and self.clock() < deadline:
            await asyncio.sleep(0.01)

    async def _drain(self) -> None:
        """Signal-driven graceful shutdown: stop leasing (the lease op
        already answers ``draining``), give in-flight chunks
        ``drain_grace`` seconds to complete and idle workers a beat to
        say ``bye``, then forfeit the chunks still computing."""
        signame = self._shutdown_signal
        self._notify()  # held leases answer "draining"
        inflight = self.queue.leased
        self._say(f"{signame} received: draining {inflight} in-flight chunks")
        done_before = self.queue.done
        deadline = self.clock() + self.drain_grace
        while self.queue.leased and self.clock() < deadline:
            await asyncio.sleep(0.02)
        await self._quiesce(min(self.drain_grace, 1.0))
        now = self.clock()
        forfeited = self.queue.leased_ids
        for chunk_id in forfeited:
            self.queue.release(chunk_id, self.queue.task(chunk_id).owner, now)
        delivered = self.queue.done - done_before
        self.events.emit(
            "shutdown.drain",
            signal=signame,
            inflight=inflight,
            delivered=delivered,
            forfeited=len(forfeited),
            grace=self.drain_grace,
        )
        self._say(
            f"drained {delivered} chunks, forfeited {len(forfeited)} -- "
            + self.queue.progress()
        )


# -- the worker -------------------------------------------------------


@dataclass
class ClientStats:
    chunks: int = 0
    examined: int = 0
    reconnects: int = 0
    lease_losses: int = 0
    resent_completes: int = 0
    idle_waits: int = 0


class WorkClient:
    """One remote worker: connect, hello, then lease/compute/complete
    until the coordinator says ``done`` (or ``draining``).

    Survival kit: request/ack with ``seq`` matching (duplicate and
    delayed replies are discarded), ack timeouts (a dropped frame is
    a reconnect, and the unacknowledged ``complete`` is resent on the
    new connection), exponential reconnect backoff with deterministic
    jitter seeded by the worker id, lease heartbeats during compute
    with definitive :class:`~repro.dist.queue.LeaseLost` abandonment,
    and SIGTERM drain (finish the in-flight chunk, report, bye).
    """

    def __init__(
        self,
        address: str,
        transport: Transport,
        worker_id: str,
        *,
        host: str | None = None,
        ack_timeout: float | None = None,
        reconnect_base: float = 0.2,
        reconnect_cap: float = 10.0,
        max_connect_attempts: int = 8,
        faults: FaultPlan | None = None,
        handle_signals: bool = False,
        log: Callable[[str], None] | None = None,
    ) -> None:
        self.address = address
        self.transport = transport
        self.worker_id = worker_id
        self.host = host if host is not None else socket.gethostname()
        self.ack_timeout = ack_timeout
        self.reconnect_base = reconnect_base
        self.reconnect_cap = reconnect_cap
        self.max_connect_attempts = max_connect_attempts
        self.faults = faults
        self.handle_signals = handle_signals
        self.log = log
        self.stats = ClientStats()
        self.config: SearchConfig | None = None
        self.chunk_size: int | None = None
        self.lease_duration = 30.0
        #: What the server's ``hello`` asks each chunk to collect.
        self.collect_metrics = False
        self.collect_traces = False
        self.outcome: str | None = None
        self._seq = 0
        self._completions = 0
        self._pending_complete: dict | None = None
        self._draining = False

    def _say(self, message: str) -> None:
        if self.log is not None:
            self.log(message)

    def _backoff(self, attempt: int) -> float:
        """Exponential with deterministic jitter: the same worker's
        n-th retry always waits the same time, but different workers
        never stampede in lockstep."""
        delay = min(
            self.reconnect_base * (2 ** max(attempt - 1, 0)),
            self.reconnect_cap,
        )
        rng = random.Random(f"{self.worker_id}#{attempt}")
        return delay * (0.5 + rng.random())

    def _begin_drain(self, signame: str) -> None:
        self._draining = True

    # -- request/ack --------------------------------------------------

    @property
    def _ack_timeout(self) -> float:
        if self.ack_timeout is not None:
            return self.ack_timeout
        return max(self.lease_duration, 2.0)

    async def _request(self, conn: Connection, frame: dict) -> dict:
        """Send one request and wait for its matching (``seq``) reply.
        Duplicated or delayed replies from earlier exchanges are
        discarded; a timeout or dead wire raises
        :class:`ConnectionLost`; a coded server error raises
        :class:`WorkProtocolError`."""
        self._seq += 1
        frame = dict(frame, seq=self._seq, worker=self.worker_id)
        await conn.send(frame)
        while True:
            try:
                reply = await asyncio.wait_for(conn.recv(), self._ack_timeout)
            except asyncio.TimeoutError:
                raise ConnectionLost(
                    f"no reply to {frame.get('op')!r} within "
                    f"{self._ack_timeout}s"
                ) from None
            except FrameError as exc:
                raise ConnectionLost(f"garbled reply: {exc}") from None
            if reply is None:
                raise ConnectionLost("server closed the connection")
            if not isinstance(reply, dict) or reply.get("seq") != self._seq:
                continue  # a duplicate or delayed reply: discard
            if not reply.get("ok", False):
                error = reply.get("error") or {}
                raise WorkProtocolError(
                    str(error.get("code", "error")),
                    str(error.get("message", "server rejected the request")),
                )
            return reply

    async def _connect(self) -> Connection:
        conn = await self.transport.connect(self.address, label=self.worker_id)
        try:
            reply = await self._request(
                conn,
                {"op": "hello", "protocol": PROTOCOL, "host": self.host},
            )
        except (ConnectionLost, WorkProtocolError):
            await conn.close()
            raise
        self.config = config_from_wire(reply["config"])
        self.chunk_size = reply.get("chunk_size")
        self.lease_duration = float(reply.get("lease", self.lease_duration))
        self.collect_metrics = bool(reply.get("collect_metrics", False))
        self.collect_traces = bool(reply.get("collect_traces", False))
        return conn

    # -- compute ------------------------------------------------------

    def _compute(
        self, start: int, end: int, chunk_id: int, attempt: int
    ) -> tuple[SearchResult, dict | None]:
        """Runs on an executor thread, collecting what the server's
        ``hello`` asked for."""
        return compute_chunk(
            self.config, start, end, chunk_id, attempt,
            self.collect_metrics, self.collect_traces, worker=self.worker_id,
        )

    async def _compute_with_heartbeat(
        self, conn: Connection, chunk: int, start: int, end: int,
        epoch: int, attempt: int,
    ) -> tuple[SearchResult, dict, bool, ConnectionLost | None]:
        """Compute off-loop while renewing the lease every third of
        its duration.  Returns ``(result, obs, lost, conn_dead)``:
        ``lost`` means the server said the lease is definitively gone
        (abandon the chunk), ``conn_dead`` that the wire died mid-
        chunk (finish, then reconnect and deliver anyway)."""
        loop = asyncio.get_running_loop()
        fut = loop.run_in_executor(
            None, self._compute, start, end, chunk, attempt
        )
        interval = max(self.lease_duration / 3.0, 0.05)
        lost = False
        conn_dead: ConnectionLost | None = None
        while True:
            done, _ = await asyncio.wait({fut}, timeout=interval)
            if fut in done:
                break
            if lost or conn_dead is not None:
                continue  # nothing left to heartbeat; just finish
            try:
                reply = await self._request(
                    conn, {"op": "renew", "chunk": chunk, "epoch": epoch}
                )
                if reply.get("lost"):
                    lost = True
            except ConnectionLost as exc:
                conn_dead = exc
        result, obs = fut.result()
        return result, obs, lost, conn_dead

    # -- the work loop ------------------------------------------------

    async def _deliver(self, conn: Connection, frame: dict) -> dict:
        """Send a ``complete``; the frame stays pended until the ack
        lands, so a reconnect resends it."""
        self._pending_complete = frame
        reply = await self._request(conn, frame)
        self._pending_complete = None
        self.stats.chunks += 1
        self._completions += 1
        return reply

    async def _session(self, conn: Connection) -> str:
        """One connection's work loop; returns ``"done"`` or
        ``"drained"``, raises :class:`ConnectionLost` to reconnect."""
        if self._pending_complete is not None:
            frame = self._pending_complete
            self._say(
                f"{self.worker_id}: resending unacknowledged completion "
                f"of chunk {frame.get('chunk')}"
            )
            reply = await self._deliver(conn, frame)
            self.stats.resent_completes += 1
            if reply.get("done"):
                return "done"
        while True:
            if self._draining:
                return "drained"
            reply = await self._request(conn, {"op": "lease"})
            if reply.get("done"):
                return "done"
            if reply.get("draining"):
                return "drained"
            if reply.get("chunk") is None:
                self.stats.idle_waits += 1
                await asyncio.sleep(
                    max(float(reply.get("retry_in", 0.05)), IDLE_FLOOR)
                )
                continue
            chunk = reply["chunk"]
            epoch = reply.get("epoch", 0)
            attempt = reply.get("attempt", 1)
            if self.faults is not None and (
                self.faults.net_kills(self.worker_id, self._completions)
                or chunk in self.faults.poison_chunks
            ):
                # Die *holding* the lease: the coordinator must notice
                # (the reaper, or a pool's launcher) and re-pend it.
                raise WorkerKilled(
                    f"worker {self.worker_id} killed holding chunk "
                    f"{chunk} after {self._completions} completions"
                )
            result, obs, lost, conn_dead = await self._compute_with_heartbeat(
                conn, chunk, reply["start"], reply["end"], epoch, attempt
            )
            if lost:
                # Someone else owns (or finished) the chunk; the
                # deterministic answer is already on its way from them.
                self.stats.lease_losses += 1
                self._say(
                    f"{self.worker_id}: lease on chunk {chunk} lost; "
                    "abandoning result"
                )
                continue
            frame = {
                "op": "complete",
                "chunk": chunk,
                "epoch": epoch,
                "result": result_to_wire(result),
                "obs": obs,
            }
            if conn_dead is not None:
                # The wire died while we computed: pend the completion
                # for the reconnect path and surface the loss.
                self._pending_complete = frame
                raise conn_dead
            reply = await self._deliver(conn, frame)
            self.stats.examined += result.examined
            if reply.get("done"):
                return "done"

    async def run(self) -> int:
        """Work until the campaign is done (0), the coordinator
        drains (0), the server is unreachable past the reconnect
        budget (1), or the protocol is incompatible (2)."""
        previous = (
            install_drain_handlers(self._begin_drain)
            if self.handle_signals
            else {}
        )
        self.outcome = None
        connect_failures = 0
        try:
            while True:
                try:
                    conn = await self._connect()
                except ConnectionLost as exc:
                    connect_failures += 1
                    if connect_failures >= self.max_connect_attempts:
                        self._say(
                            f"{self.worker_id}: giving up after "
                            f"{connect_failures} failed connection "
                            f"attempts: {exc}"
                        )
                        self.outcome = "unreachable"
                        return 1
                    await asyncio.sleep(self._backoff(connect_failures))
                    continue
                except WorkProtocolError as exc:
                    self._say(
                        f"{self.worker_id}: coordinator rejected us "
                        f"({exc.code}): {exc}"
                    )
                    self.outcome = exc.code
                    return 2
                connect_failures = 0
                try:
                    outcome = await self._session(conn)
                except ConnectionLost as exc:
                    self.stats.reconnects += 1
                    self._say(
                        f"{self.worker_id}: connection lost ({exc}); "
                        "reconnecting"
                    )
                    await conn.close()
                    continue
                except WorkProtocolError as exc:
                    self._say(
                        f"{self.worker_id}: fatal protocol error "
                        f"({exc.code}): {exc}"
                    )
                    await conn.close()
                    self.outcome = exc.code
                    return 2
                except WorkerKilled:
                    # Abrupt death: no bye, just drop the wire.
                    await conn.close()
                    self.outcome = "killed"
                    raise
                try:
                    await self._request(conn, {"op": "bye"})
                except (ConnectionLost, WorkProtocolError):
                    pass  # the goodbye is best-effort
                await conn.close()
                self.outcome = outcome
                self._say(
                    f"{self.worker_id}: {outcome} -- {self.stats.chunks} "
                    f"chunks, {self.stats.examined} candidates"
                )
                return 0
        finally:
            restore_handlers(previous)
