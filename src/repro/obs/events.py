"""Structured campaign event log (JSONL, schema-versioned).

Koopman's 2001 search was steerable only because its progress was
measurable; this module is the reproduction's flight recorder.  An
:class:`EventLog` appends one JSON object per line to a file -- no
dependencies, no daemon, safe to ``tail -f`` -- and the emit sites in
:mod:`repro.dist.campaign`, :mod:`repro.dist.net`,
:mod:`repro.dist.pool`, :mod:`repro.dist.coordinator` and
:mod:`repro.search.exhaustive` record every lease grant/renewal/
expiry, worker hello, crash and respawn, chunk completion and
checkpoint write.  :mod:`repro.obs.report` turns the file back into a run
summary.

Design constraints, in order:

* **Crash-durable.**  Every record is flushed on write: a campaign
  killed with SIGKILL loses at most the line being written.  The
  parser (:func:`read_events`) therefore tolerates a torn final line.
* **Appendable.**  A killed-and-resumed campaign reopens the same
  path in append mode; each process session starts with a
  ``log.open`` record carrying a wall-clock anchor, and record
  timestamps are *monotonic seconds since that session's open* (wall
  clocks jump; ``time.monotonic`` does not).  Sessions are delimited
  by the ``log.open`` records.
* **Schema-versioned.**  Every record carries ``{"v": 1}``; readers
  reject records from a future schema instead of misreading them.

Record shape::

    {"v": 1, "seq": 17, "t": 3.201, "event": "pool.chunk.done", ...}

``seq`` restarts at 0 each session; ``t`` is seconds since the
session's ``log.open``.  All other keys are event-specific payload
fields (see docs/OBSERVABILITY.md for the full vocabulary).

The disabled path is :data:`NULL_EVENTS`, whose :meth:`~NullEventLog.emit`
is a constant no-op -- instrumented code calls it unconditionally and
pays one no-op method call per *chunk-scale* event (never per
candidate), which is unmeasurable against real chunk work.
"""

from __future__ import annotations

import json
import os
import time
from typing import Any, Callable, Iterator

#: Version written into every record; bump on incompatible changes.
SCHEMA_VERSION = 1


class NullEventLog:
    """The disabled event sink: every operation is a no-op.

    A single shared instance (:data:`NULL_EVENTS`) is the default
    ``events`` argument throughout the library, so call sites never
    branch on "is logging enabled".
    """

    enabled = False

    def emit(self, event: str, **fields: Any) -> None:  # noqa: ARG002
        return None

    def close(self) -> None:
        return None

    def __enter__(self) -> "NullEventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


#: Shared no-op sink; use as the default for ``events`` parameters.
NULL_EVENTS = NullEventLog()


class EventLog(NullEventLog):
    """Append-only JSONL event writer for one process session.

    Opening the same path again (e.g. after a kill + ``--resume``)
    appends a new session rather than truncating history -- the run
    report aggregates across sessions.

    ``clock`` is injectable for tests; it must be monotonic.
    """

    enabled = True

    def __init__(
        self,
        path: str | os.PathLike[str],
        *,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        self.path = os.fspath(path)
        self._clock = clock
        self._file = open(self.path, "a", encoding="utf-8")
        self._t0 = clock()
        self._seq = 0
        self.emit(
            "log.open",
            wall=round(time.time(), 3),
            pid=os.getpid(),
            schema=SCHEMA_VERSION,
        )

    def emit(self, event: str, **fields: Any) -> None:
        """Append one record and flush it to the OS.

        Payload values must be JSON-serializable (ints, floats,
        strings, lists, dicts); emit sites keep payloads flat.
        """
        if self._file.closed:
            return
        record = {
            "v": SCHEMA_VERSION,
            "seq": self._seq,
            "t": round(self._clock() - self._t0, 6),
            "event": event,
        }
        record.update(fields)
        self._seq += 1
        self._file.write(json.dumps(record, separators=(",", ":")) + "\n")
        self._file.flush()

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()


def iter_events(path: str | os.PathLike[str]) -> Iterator[dict[str, Any]]:
    """Yield event records from a JSONL log, oldest first.

    A torn final line (the writer was killed mid-record) is skipped
    silently; a malformed line anywhere *else* raises ``ValueError``,
    because it means the file is not an event log at all.  Records
    from a newer schema than this reader raise too -- guessing at
    unknown semantics is how dashboards lie.
    """
    with open(path, encoding="utf-8") as f:
        lines = f.read().split("\n")
    # Trailing "" from the final newline, plus possibly a torn record.
    while lines and not lines[-1].strip():
        lines.pop()
    for i, line in enumerate(lines):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            if i == len(lines) - 1:
                return  # torn tail from a kill mid-write
            raise ValueError(
                f"{os.fspath(path)}:{i + 1}: not a JSONL event record"
            ) from None
        if not isinstance(record, dict) or "event" not in record:
            raise ValueError(
                f"{os.fspath(path)}:{i + 1}: not an event record"
            )
        if record.get("v", 0) > SCHEMA_VERSION:
            raise ValueError(
                f"{os.fspath(path)}:{i + 1}: schema v{record['v']} is newer "
                f"than this reader (v{SCHEMA_VERSION})"
            )
        yield record


def read_events(path: str | os.PathLike[str]) -> list[dict[str, Any]]:
    """Read a whole event log into memory (see :func:`iter_events`)."""
    return list(iter_events(path))
