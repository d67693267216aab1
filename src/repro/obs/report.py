"""Render an event log into a run report.

The inverse of :mod:`repro.obs.events`: given the JSONL a campaign
(or search) wrote, reconstruct what happened -- chunks completed,
lease churn, crash/recovery traffic, checkpoint cadence, filtering
efficiency -- and derive the numbers an operator steers by:

* **throughput** in polynomials (candidates) per second of observed
  wall time, aggregated across kill/resume sessions;
* **lease-expiry rate** (expiries per grant), the health signal the
  2001 farm would have watched for flaky machines;
* **bailout efficiency**: what fraction of candidates the
  increasing-length filter cascade killed before the expensive final
  length (the paper's §4.1 argument, measured);
* the :class:`~repro.dist.progress.ProgressTracker` estimator's view,
  replayed from the recorded completion times, so its ETA can be
  compared against what actually happened.

Two output forms: :meth:`RunReport.render` for humans, and
:meth:`RunReport.to_bench_dict` for machines -- the same envelope the
repo's ``BENCH_*.json`` perf-trajectory files use
(``{"bench": ..., "schema": 1, "config": ..., "metrics": ...}``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Any

from repro.obs.events import iter_events
from repro.obs.hist import Histogram
from repro.obs.metrics import MetricsRegistry

if False:  # import only for type checkers: repro.dist imports repro.obs
    from repro.dist.progress import ProgressTracker

#: Event names that mark a merged chunk completion, any backend.
_CHUNK_DONE = ("chunk.done", "search.chunk.done")


@dataclass
class RunReport:
    """Aggregated view of one event log (possibly many sessions)."""

    path: str = ""
    sessions: int = 0
    config: dict[str, Any] = field(default_factory=dict)
    total_chunks: int | None = None
    chunks_completed: int = 0
    chunks_resumed: int = 0
    candidates_examined: int = 0
    survivors: int = 0
    lease_grants: int = 0
    lease_renewals: int = 0
    lease_expiries: int = 0
    worker_crashes: int = 0
    checkpoint_writes: int = 0
    #: Of ``checkpoint_writes``: how many appended a log frame and how
    #: many compacted the record into a fresh log, and the bytes all
    #: of them wrote.
    checkpoint_appends: int = 0
    checkpoint_compactions: int = 0
    checkpoint_bytes: int = 0
    checkpoint_corruptions: int = 0
    duplicate_deliveries: int = 0
    quarantined_chunks: int = 0
    retry_backoffs: int = 0
    interruptions: int = 0
    drain_forfeits: int = 0
    stage_kills: dict[int, int] = field(default_factory=dict)
    #: Per-kernel screening totals folded from ``search.batch.done``
    #: events: ``{kernel: {"batches", "candidates", "seconds"}}``.
    #: Lets a report attribute throughput to the kernel that actually
    #: produced it (events from before the kernel tag existed count as
    #: "batched" -- the retired driver that was the only emitter then).
    kernel_stats: dict[str, dict[str, float]] = field(default_factory=dict)
    #: Per-worker accounting folded from the farm's and the pool's
    #: ``worker.*`` events and ``worker``-tagged completions:
    #: ``{worker: {"host", "chunks", "examined", "seconds",
    #: "connections", "reconnects", "lease_losses", "expiries",
    #: "benched"}}``.  Empty when no event in the log names a
    #: worker.
    workers: dict[str, dict[str, Any]] = field(default_factory=dict)
    active_seconds: float = 0.0
    busy_seconds: float = 0.0
    #: Per-chunk compute durations, folded from the ``seconds`` field
    #: of every (non-duplicate) chunk completion -- present even when
    #: the run collected no metrics, so percentiles never need a
    #: second flag.
    chunk_durations: Histogram = field(default_factory=Histogram)
    metrics: MetricsRegistry = field(default_factory=MetricsRegistry)
    estimator_rate: float | None = None
    estimator_eta_seconds: float | None = None

    # -- derived -------------------------------------------------------

    @property
    def polys_per_second(self) -> float:
        """Candidates fully dispatched per observed wall second --
        directly comparable to the coordinator's own accounting and to
        the paper's "two polynomials per second per CPU"."""
        if self.active_seconds <= 0:
            return 0.0
        return self.candidates_examined / self.active_seconds

    @property
    def lease_expiry_rate(self) -> float:
        """Expiries per grant: 0.0 on a healthy fleet, climbing toward
        1.0 as workers die faster than they finish chunks."""
        if self.lease_grants == 0:
            return 0.0
        return self.lease_expiries / self.lease_grants

    @property
    def final_length(self) -> int | None:
        return self.config.get("final_length")

    @property
    def bailout_efficiency(self) -> float:
        """Fraction of examined candidates the cascade killed *before*
        the final length -- the measured value of the paper's
        increasing-length filtering."""
        if self.candidates_examined == 0:
            return 0.0
        final = self.final_length
        early = sum(
            kills
            for length, kills in self.stage_kills.items()
            if final is None or length < final
        )
        return early / self.candidates_examined

    @property
    def complete(self) -> bool:
        if self.total_chunks is None:
            return False
        return self.chunks_completed + self.chunks_resumed >= self.total_chunks

    # -- construction --------------------------------------------------

    @classmethod
    def from_events(
        cls, records: list[dict[str, Any]], path: str = ""
    ) -> "RunReport":
        """Fold a parsed event stream (see
        :func:`repro.obs.events.read_events`) into a report."""
        # Deferred: repro.dist instruments itself with repro.obs, so
        # the package-level import would be circular.
        from repro.dist.progress import ProgressTracker

        report = cls(path=path)

        def _worker(name: str) -> dict[str, Any]:
            return report.workers.setdefault(
                name,
                {
                    "host": "",
                    "chunks": 0,
                    "examined": 0,
                    "seconds": 0.0,
                    "connections": 0,
                    "reconnects": 0,
                    "lease_losses": 0,
                    "expiries": 0,
                    "benched": False,
                },
            )

        tracker: ProgressTracker | None = None
        session_last_t = 0.0
        session_elapsed: float | None = None
        done_in_log = 0

        def _close_session() -> None:
            # A session's active time is the coordinator's own elapsed
            # accounting when it reported one (``campaign.end``); only
            # a session that died without reaching campaign.end falls
            # back to its last event timestamp, which also counts the
            # pre-run setup (log open to campaign start) that the
            # coordinator's clock excludes.
            report.active_seconds += (
                session_elapsed if session_elapsed is not None
                else session_last_t
            )

        for rec in records:
            event = rec["event"]
            t = float(rec.get("t", 0.0))
            if event == "log.open":
                _close_session()
                report.sessions += 1
                session_last_t = 0.0
                session_elapsed = None
                continue
            session_last_t = max(session_last_t, t)
            if event == "campaign.start" or event == "search.start":
                for key in (
                    "width",
                    "target_hd",
                    "final_length",
                    "chunk_size",
                    "chunks",
                    "processes",
                    "workers",
                    "backend",
                ):
                    if key in rec:
                        report.config[key] = rec[key]
                if "chunks" in rec:
                    report.total_chunks = rec["chunks"]
                    tracker = ProgressTracker(total_chunks=rec["chunks"])
                    done_in_log = report.chunks_resumed
            elif event == "campaign.resume":
                report.chunks_resumed += rec.get("skipped", 0)
                done_in_log = report.chunks_resumed
            elif event in _CHUNK_DONE:
                if rec.get("duplicate"):
                    report.duplicate_deliveries += 1
                    continue
                if isinstance(rec.get("worker"), str):
                    w = _worker(rec["worker"])
                    w["chunks"] += 1
                    w["examined"] += rec.get("examined", 0)
                    w["seconds"] += rec.get("seconds", 0.0)
                report.chunks_completed += 1
                report.candidates_examined += rec.get("examined", 0)
                report.survivors += rec.get("survivors", 0)
                report.busy_seconds += rec.get("seconds", 0.0)
                report.chunk_durations.observe(rec.get("seconds", 0.0))
                for length, kills in rec.get("stage_kills", {}).items():
                    length = int(length)
                    report.stage_kills[length] = (
                        report.stage_kills.get(length, 0) + kills
                    )
                done_in_log += 1
                if tracker is not None:
                    try:
                        tracker.observe(t, done_in_log)
                    except ValueError:
                        # A fresh session restarts the clock; so does
                        # the estimator on the real coordinator.
                        tracker = ProgressTracker(
                            total_chunks=tracker.total_chunks
                        )
                        tracker.observe(t, done_in_log)
            elif event == "search.batch.done":
                kernel = rec.get("kernel", "batched")
                stats = report.kernel_stats.setdefault(
                    kernel,
                    {"batches": 0, "candidates": 0, "seconds": 0.0},
                )
                stats["batches"] += 1
                stats["candidates"] += rec.get("batch", 0)
                stats["seconds"] += rec.get("seconds", 0.0)
            elif event == "lease.grant":
                report.lease_grants += 1
            elif event == "lease.renew":
                report.lease_renewals += rec.get("chunks", 1)
            elif event == "lease.expire":
                report.lease_expiries += 1
                owner = rec.get("owner")
                if isinstance(owner, str) and owner in report.workers:
                    report.workers[owner]["expiries"] += 1
            elif event == "worker.hello":
                if isinstance(rec.get("worker"), str):
                    w = _worker(rec["worker"])
                    w["connections"] += 1
                    if rec.get("reconnect"):
                        w["reconnects"] += 1
                    if isinstance(rec.get("host"), str) and rec["host"]:
                        w["host"] = rec["host"]
            elif event == "worker.lease_lost":
                if isinstance(rec.get("worker"), str):
                    _worker(rec["worker"])["lease_losses"] += 1
            elif event == "worker.benched":
                if isinstance(rec.get("worker"), str):
                    _worker(rec["worker"])["benched"] = True
            elif event == "worker.crash":
                report.worker_crashes += 1
            elif event == "checkpoint.write":
                report.checkpoint_writes += 1
                if rec.get("mode") == "append":
                    report.checkpoint_appends += 1
                elif rec.get("mode") == "compact":
                    report.checkpoint_compactions += 1
                report.checkpoint_bytes += rec.get("bytes", 0)
            elif event == "checkpoint.corrupt":
                report.checkpoint_corruptions += 1
            elif event == "chunk.quarantine":
                # A resumed session re-announces checkpoint-restored
                # quarantines with restored=True; count fresh verdicts
                # only, so multi-session logs don't double-count.
                if not rec.get("restored"):
                    report.quarantined_chunks += 1
            elif event == "lease.backoff":
                report.retry_backoffs += 1
            elif event == "shutdown.drain":
                report.interruptions += 1
                report.drain_forfeits += rec.get("forfeited", 0)
            elif event == "metrics.snapshot":
                report.metrics.merge(rec.get("metrics"))
            elif event in ("campaign.end", "campaign.interrupted") and (
                "elapsed" in rec
            ):
                session_elapsed = (session_elapsed or 0.0) + float(
                    rec["elapsed"]
                )
        _close_session()
        if tracker is not None:
            report.estimator_rate = tracker.rate
            if tracker.samples:
                report.estimator_eta_seconds = tracker.eta(
                    tracker.samples[-1][0]
                )
        return report

    @classmethod
    def from_path(cls, path: str | os.PathLike[str]) -> "RunReport":
        return cls.from_events(list(iter_events(path)), path=os.fspath(path))

    # -- output --------------------------------------------------------

    def render(self) -> str:
        """The human-readable run summary the CLI prints."""
        lines = [f"run report: {self.path or '(in-memory events)'}"]
        if self.config:
            cfg = ", ".join(
                f"{k}={v}" for k, v in sorted(self.config.items())
            )
            lines.append(f"  campaign: {cfg}")
        status = "complete" if self.complete else "incomplete"
        total = self.total_chunks if self.total_chunks is not None else "?"
        lines += [
            f"  sessions: {self.sessions} "
            f"({self.active_seconds:.1f}s observed wall time)",
            f"  chunks: {self.chunks_completed} computed"
            + (
                f" + {self.chunks_resumed} resumed from checkpoint"
                if self.chunks_resumed
                else ""
            )
            + f" of {total} ({status})",
            f"  candidates: {self.candidates_examined} examined, "
            f"{self.survivors} survivors",
            f"  throughput: {self.polys_per_second:.1f} polys/s observed "
            f"({self.busy_seconds:.1f} worker-busy seconds)",
            f"  chunk latency: p50={self.chunk_durations.p50 * 1000:.1f}ms "
            f"p95={self.chunk_durations.p95 * 1000:.1f}ms "
            f"p99={self.chunk_durations.p99 * 1000:.1f}ms "
            f"max={self.chunk_durations.max * 1000:.1f}ms "
            f"(n={self.chunk_durations.count})",
            f"  leases: {self.lease_grants} granted, "
            f"{self.lease_renewals} renewals, {self.lease_expiries} expired "
            f"(expiry rate {self.lease_expiry_rate:.1%})",
            f"  faults: {self.worker_crashes} worker crashes, "
            f"{self.duplicate_deliveries} duplicate deliveries, "
            f"{self.retry_backoffs} retry backoffs",
            f"  checkpoints: {self.checkpoint_writes} written "
            f"({self.checkpoint_appends} appended, "
            f"{self.checkpoint_compactions} compacted, "
            f"{self.checkpoint_bytes} bytes), "
            f"{self.checkpoint_corruptions} corruption fallbacks",
        ]
        if self.quarantined_chunks:
            lines.append(
                f"  quarantine: {self.quarantined_chunks} chunks exhausted "
                "their retry budget (campaign incomplete by design)"
            )
        if self.interruptions:
            lines.append(
                f"  shutdowns: {self.interruptions} graceful drains "
                f"({self.drain_forfeits} in-flight chunks forfeited)"
            )
        if self.stage_kills:
            final = self.final_length
            parts = []
            for length in sorted(self.stage_kills):
                mark = "" if final is None or length < final else " (final)"
                parts.append(f"{self.stage_kills[length]}@{length}b{mark}")
            lines.append(
                f"  filter cascade: {', '.join(parts)} killed; "
                f"bailout efficiency {self.bailout_efficiency:.1%} "
                "before the final length"
            )
        if self.workers:
            lines.append(f"  workers: {len(self.workers)} host(s)")
            for name in sorted(self.workers):
                w = self.workers[name]
                rate = (
                    w["examined"] / w["seconds"] if w["seconds"] > 0 else 0.0
                )
                line = f"    {name}"
                if w["host"] and w["host"] != name:
                    line += f" ({w['host']})"
                line += (
                    f": {w['chunks']} chunks, {w['examined']} candidates "
                    f"({rate:.0f}/s busy), {w['connections']} connection(s)"
                )
                if w["reconnects"]:
                    line += f", {w['reconnects']} reconnect(s)"
                if w["expiries"] or w["lease_losses"]:
                    line += (
                        f", {w['expiries']} lease(s) expired, "
                        f"{w['lease_losses']} lost"
                    )
                if w["benched"]:
                    line += " [benched]"
                lines.append(line)
        if self.kernel_stats:
            parts = []
            for kernel in sorted(self.kernel_stats):
                stats = self.kernel_stats[kernel]
                rate = (
                    stats["candidates"] / stats["seconds"]
                    if stats["seconds"] > 0
                    else 0.0
                )
                parts.append(
                    f"{kernel} {int(stats['batches'])} batches at "
                    f"{rate:.0f} cand/s ({stats['seconds']:.1f}s busy)"
                )
            lines.append(f"  kernels: {'; '.join(parts)}")
        if self.estimator_rate is not None:
            eta = self.estimator_eta_seconds
            eta_s = (
                "complete"
                if not eta
                else f"{eta:.1f}s of work remaining at that rate"
            )
            lines.append(
                f"  estimator: {self.estimator_rate:.2f} chunks/s over the "
                f"final window; {eta_s}"
            )
        metrics_text = self.metrics.render()
        if metrics_text != "  (no metrics recorded)":
            lines.append("  worker metrics (merged):")
            lines.append(
                "\n".join("  " + line for line in metrics_text.split("\n"))
            )
        return "\n".join(lines)

    def to_bench_dict(self, name: str = "campaign") -> dict[str, Any]:
        """The machine-readable summary, in the repo's ``BENCH_*.json``
        envelope: ``bench`` name, ``schema`` version, the campaign
        ``config``, and a flat ``metrics`` mapping."""
        return {
            "bench": name,
            "schema": 1,
            "config": dict(self.config),
            "metrics": {
                "sessions": self.sessions,
                "active_seconds": round(self.active_seconds, 3),
                "busy_seconds": round(self.busy_seconds, 3),
                "chunks_completed": self.chunks_completed,
                "chunks_resumed": self.chunks_resumed,
                "total_chunks": self.total_chunks,
                "candidates_examined": self.candidates_examined,
                "survivors": self.survivors,
                "polys_per_second": round(self.polys_per_second, 3),
                "lease_grants": self.lease_grants,
                "lease_expiries": self.lease_expiries,
                "lease_expiry_rate": round(self.lease_expiry_rate, 4),
                "worker_crashes": self.worker_crashes,
                "checkpoint_writes": self.checkpoint_writes,
                "checkpoint_appends": self.checkpoint_appends,
                "checkpoint_compactions": self.checkpoint_compactions,
                "checkpoint_bytes": self.checkpoint_bytes,
                "checkpoint_corruptions": self.checkpoint_corruptions,
                "duplicate_deliveries": self.duplicate_deliveries,
                "quarantined_chunks": self.quarantined_chunks,
                "retry_backoffs": self.retry_backoffs,
                "interruptions": self.interruptions,
                "drain_forfeits": self.drain_forfeits,
                "bailout_efficiency": round(self.bailout_efficiency, 4),
                "chunk_seconds_p50": round(self.chunk_durations.p50, 6),
                "chunk_seconds_p95": round(self.chunk_durations.p95, 6),
                "chunk_seconds_p99": round(self.chunk_durations.p99, 6),
                "chunk_seconds_max": round(self.chunk_durations.max, 6),
                "stage_kills": {
                    str(k): v for k, v in sorted(self.stage_kills.items())
                },
                "kernels": {
                    kernel: {
                        "batches": int(stats["batches"]),
                        "candidates": int(stats["candidates"]),
                        "seconds": round(stats["seconds"], 3),
                    }
                    for kernel, stats in sorted(self.kernel_stats.items())
                },
                "workers": {
                    name: dict(w, seconds=round(w["seconds"], 3))
                    for name, w in sorted(self.workers.items())
                },
            },
        }

    def write_bench_json(
        self, path: str | os.PathLike[str], name: str = "campaign"
    ) -> None:
        """Write :meth:`to_bench_dict` to ``path`` (atomic rename)."""
        tmp = os.fspath(path) + ".tmp"
        with open(tmp, "w", encoding="utf-8") as f:
            json.dump(self.to_bench_dict(name), f, indent=1, sort_keys=True)
            f.write("\n")
        os.replace(tmp, path)
