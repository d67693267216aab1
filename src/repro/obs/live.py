"""Live terminal dashboard over a campaign's JSONL event stream.

``repro report`` is the post-mortem; this module is the flight deck.
``repro dash run.jsonl --follow`` tails the event log a campaign (or
service) is writing *right now* and renders, once a second, the
numbers the 2001 operators steered ~80 workstations by: throughput,
chunks in flight, lease churn, quarantines, per-chunk latency
percentiles, the estimator's ETA -- and, with tracing on, the most
recent span waterfall showing where inside a chunk or request the
time went.

Stdlib only, like everything in ``repro.obs``: the renderer writes
plain text (one ANSI clear-screen between frames in follow mode), so
it works over ssh, under ``watch``, and in CI (``--once`` renders a
single frame and exits -- ``make dash-smoke`` asserts on it).

Tailing is torn-tolerant twice over, because the writer may be killed
mid-record at any moment:

* :class:`EventTail` only consumes *newline-terminated* lines; a
  partial final line stays in the file until the writer finishes it
  (or is never finished -- a dead writer's torn tail is simply never
  rendered, same as :func:`repro.obs.events.iter_events` skipping it).
* A log that shrinks (rotated or restarted) resets the tail to the
  start rather than erroring.

Aggregation reuses :class:`~repro.obs.report.RunReport` wholesale --
the dashboard re-folds the accumulated records each frame, so every
number shown live is *definitionally* the number the post-mortem
report will print.  Event logs are chunk-granular (never
per-candidate), so a re-fold is thousands of records, not millions.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from typing import Any, Callable

from repro.obs.events import SCHEMA_VERSION
from repro.obs.report import _CHUNK_DONE, RunReport
from repro.obs.trace import span_tree

#: How many finished spans the dashboard keeps for waterfall rendering.
SPAN_WINDOW = 512


class EventTail:
    """Incremental JSONL reader: each :meth:`poll` yields the records
    appended since the last poll, never consuming a torn final line."""

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self._offset = 0

    def poll(self) -> list[dict[str, Any]]:
        """The records appended since the last poll (possibly empty).

        Raises ``ValueError`` on a malformed *interior* line -- the
        file is not an event log -- but leaves an unterminated final
        line unconsumed for the next poll.
        """
        try:
            size = os.path.getsize(self.path)
        except OSError:
            return []
        if size < self._offset:
            self._offset = 0  # rotated/truncated: start over
        if size == self._offset:
            return []
        with open(self.path, "rb") as f:
            f.seek(self._offset)
            data = f.read()
        # Only newline-terminated lines are complete records; whatever
        # follows the last newline is a write in progress.
        end = data.rfind(b"\n")
        if end < 0:
            return []
        complete, self._offset = data[: end + 1], self._offset + end + 1
        records: list[dict[str, Any]] = []
        for raw in complete.split(b"\n"):
            if not raw.strip():
                continue
            try:
                record = json.loads(raw)
            except json.JSONDecodeError:
                raise ValueError(
                    f"{self.path}: not a JSONL event log (malformed line)"
                ) from None
            if not isinstance(record, dict) or "event" not in record:
                raise ValueError(f"{self.path}: not an event record")
            if record.get("v", 0) > SCHEMA_VERSION:
                raise ValueError(
                    f"{self.path}: schema v{record['v']} is newer than "
                    f"this reader (v{SCHEMA_VERSION})"
                )
            records.append(record)
        return records


def _bar(fraction: float, width: int = 24) -> str:
    fraction = min(max(fraction, 0.0), 1.0)
    filled = int(round(fraction * width))
    return "#" * filled + "." * (width - filled)


def _fmt_eta(seconds: float | None) -> str:
    if seconds is None:
        return "unknown (no completions yet)"
    if seconds <= 0:
        return "complete"
    if seconds < 90:
        return f"{seconds:.1f}s"
    minutes, secs = divmod(int(seconds), 60)
    if minutes < 90:
        return f"{minutes}m{secs:02d}s"
    hours, minutes = divmod(minutes, 60)
    return f"{hours}h{minutes:02d}m"


class Dashboard:
    """Fold a (possibly still growing) event stream into render frames.

    Aggregate numbers come from re-folding all records through
    :class:`~repro.obs.report.RunReport`; the live-only state --
    chunks currently in flight, the recent span window, last event
    time -- is tracked incrementally here.
    """

    def __init__(self, path: str | os.PathLike[str]) -> None:
        self.path = os.fspath(path)
        self.tail = EventTail(path)
        self.records: list[dict[str, Any]] = []
        self.spans: deque[dict[str, Any]] = deque(maxlen=SPAN_WINDOW)
        #: Chunk ids leased but not yet completed/forfeited.
        self.in_flight: set[int] = set()
        self.last_event: dict[str, Any] | None = None
        #: Farm-worker liveness: last (t, event) *from* each worker --
        #: hellos, renews, completions.  A lease expiring is evidence
        #: of death, not life, so it never refreshes this.
        self.worker_last: dict[str, tuple[float, str]] = {}

    def refresh(self) -> int:
        """Pull newly appended records; returns how many arrived."""
        new = self.tail.poll()
        for rec in new:
            self._fold_live(rec)
        self.records.extend(new)
        return len(new)

    def _fold_live(self, rec: dict[str, Any]) -> None:
        event = rec.get("event")
        self.last_event = rec
        worker = rec.get("worker")
        if isinstance(worker, str) and event != "lease.expire":
            self.worker_last[worker] = (
                float(rec.get("t", 0.0)),
                str(event),
            )
        if event == "trace.span":
            self.spans.append(rec)
        elif event == "lease.grant":
            self.in_flight.add(rec.get("chunk"))
        elif event in _CHUNK_DONE or event in (
            "lease.expire",
            "chunk.quarantine",
            "worker.crash",
        ):
            self.in_flight.discard(rec.get("chunk"))
        elif event in ("shutdown.drain", "log.open"):
            # Everything in flight was forfeited or belongs to a dead
            # session.
            self.in_flight.clear()

    # -- waterfall ------------------------------------------------------

    def _waterfall(self, max_rows: int = 12) -> list[str]:
        """The most recent *root* span's subtree, one row per span:
        name, offset from the root start, duration, and a bar scaled
        to the root's duration."""
        spans = list(self.spans)
        if not spans:
            return []
        root = next(
            (s for s in reversed(spans) if s.get("parent") is None), None
        )
        if root is None:
            return []
        tree = span_tree(spans)
        rows: list[tuple[int, dict[str, Any]]] = []

        def walk(span: dict[str, Any], depth: int) -> None:
            rows.append((depth, span))
            for child in tree.get(span.get("span"), []):
                walk(child, depth + 1)

        walk(root, 0)
        total = max(float(root.get("dur", 0.0)), 1e-9)
        label = root.get("name", "?")
        for key in ("chunk", "op"):
            if key in root:
                label += f" {key}={root[key]}"
        lines = [f"last trace ({label}, {total * 1000:.1f}ms):"]
        for depth, span in rows[:max_rows]:
            rel = float(span.get("rel", 0.0))
            dur = float(span.get("dur", 0.0))
            pre = int(round((rel / total) * 20))
            fill = max(int(round((dur / total) * 20)), 1)
            bar = " " * min(pre, 19) + "#" * min(fill, 20 - min(pre, 19))
            name = "  " * depth + str(span.get("name", "?"))
            lines.append(
                f"    {name:<26} {bar:<20} +{rel * 1000:7.1f}ms "
                f"{dur * 1000:8.1f}ms"
            )
        if len(rows) > max_rows:
            lines.append(f"    ... {len(rows) - max_rows} more spans")
        return lines

    # -- frames ---------------------------------------------------------

    def render(self, *, following: bool = False) -> str:
        """One dashboard frame as plain text."""
        report = RunReport.from_events(self.records, path=self.path)
        mode = "following" if following else "snapshot"
        lines = [f"repro dash -- {self.path} ({mode})"]
        if report.config:
            cfg = ", ".join(
                f"{k}={v}" for k, v in sorted(report.config.items())
            )
            lines.append(f"  campaign: {cfg}")
        done = report.chunks_completed + report.chunks_resumed
        total = report.total_chunks
        if total:
            frac = done / total
            lines.append(
                f"  progress: [{_bar(frac)}] {done}/{total} chunks "
                f"({frac:.0%})"
                + (
                    f", {report.chunks_resumed} resumed"
                    if report.chunks_resumed
                    else ""
                )
            )
        else:
            lines.append(f"  progress: {done} chunks done (total unknown)")
        dur = report.chunk_durations
        lines.append(
            f"  throughput: {report.polys_per_second:.1f} polys/s over "
            f"{report.active_seconds:.1f}s observed "
            f"({report.candidates_examined} examined, "
            f"{report.survivors} survivors)"
        )
        lines.append(
            f"  latency: chunk p50={dur.p50 * 1000:.1f}ms "
            f"p95={dur.p95 * 1000:.1f}ms p99={dur.p99 * 1000:.1f}ms "
            f"max={dur.max * 1000:.1f}ms (n={dur.count})"
        )
        workers = report.config.get("processes") or report.config.get(
            "workers"
        )
        lines.append(
            f"  workers: {workers if workers is not None else '?'} "
            f"configured, {len(self.in_flight)} chunks in flight, "
            f"session {report.sessions}"
        )
        if self.worker_last:
            frontier = (
                float(self.last_event.get("t", 0.0))
                if self.last_event is not None
                else 0.0
            )
            parts = []
            for name in sorted(self.worker_last):
                t, last = self.worker_last[name]
                folded = report.workers.get(name, {})
                part = (
                    f"{name} {folded.get('chunks', 0)}ch "
                    f"(last {last} {max(frontier - t, 0.0):.1f}s ago)"
                )
                if folded.get("benched"):
                    part += " [benched]"
                parts.append(part)
            lines.append(f"  hosts: {'; '.join(parts)}")
        lines.append(
            f"  health: {report.lease_expiries} lease expiries "
            f"({report.lease_expiry_rate:.0%} of grants), "
            f"{report.worker_crashes} crashes, "
            f"{report.quarantined_chunks} quarantined, "
            f"{report.interruptions} drains"
        )
        if report.complete:
            lines.append("  eta: complete")
        else:
            rate = report.estimator_rate
            lines.append(
                f"  eta: {_fmt_eta(report.estimator_eta_seconds)}"
                + (f" at {rate:.2f} chunks/s" if rate else "")
            )
        if self.last_event is not None:
            lines.append(
                f"  last event: {self.last_event.get('event')} "
                f"at t={self.last_event.get('t', 0.0):.1f}s"
            )
        waterfall = self._waterfall()
        if waterfall:
            lines.append("  " + waterfall[0])
            lines.extend(waterfall[1:])
        return "\n".join(lines)


#: ANSI: clear screen + home -- the whole "TUI framework".
CLEAR = "\x1b[2J\x1b[H"


def check_log_path(path: str) -> str | None:
    """A friendly diagnosis of an unusable event-log path, or ``None``
    when the path is a plausible log file."""
    if not os.path.exists(path):
        return f"{path}: no such file"
    if os.path.isdir(path):
        return (
            f"{path} is a directory, not an event log; pass the "
            ".jsonl file a campaign wrote with --events"
        )
    if os.path.getsize(path) == 0:
        return (
            f"{path} is empty: no events were written yet (is the "
            "campaign running with --events pointing here?)"
        )
    return None


def run_dash(
    path: str,
    *,
    follow: bool = False,
    interval: float = 1.0,
    out: Callable[[str], None] = print,
    max_frames: int | None = None,
) -> int:
    """Drive the dashboard: render once, or every ``interval`` seconds
    until Ctrl-C.  ``max_frames`` bounds follow mode for tests."""
    problem = check_log_path(path)
    if problem is not None and not (follow and not os.path.isdir(path)):
        out(f"repro dash: {problem}")
        return 2
    dash = Dashboard(path)
    try:
        dash.refresh()
    except ValueError as exc:
        out(f"repro dash: {exc}")
        return 2
    if not follow:
        out(dash.render())
        return 0
    frames = 0
    try:
        while True:
            out(CLEAR + dash.render(following=True))
            frames += 1
            if max_frames is not None and frames >= max_frames:
                return 0
            time.sleep(interval)
            try:
                dash.refresh()
            except ValueError as exc:
                out(f"repro dash: {exc}")
                return 2
    except KeyboardInterrupt:
        out("")  # leave the shell prompt on its own line
        return 0
