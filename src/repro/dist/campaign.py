"""What every campaign worker runs, and the drain-signal helpers.

The campaign engine itself -- the queue, the record, checkpoints,
drains and the merge of every completion -- is the network farm's
:class:`~repro.dist.net.WorkServer`, which the process pool
(:mod:`repro.dist.pool`) runs on one host.  This module holds the
worker side: :func:`compute_chunk` computes one chunk under per-chunk
metrics and tracing, and :func:`install_drain_handlers` /
:func:`restore_handlers` route SIGTERM and SIGINT to a drain, for the
coordinator and its workers alike.
"""

from __future__ import annotations

import signal
import threading
from typing import Callable

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Tracer
from repro.search.exhaustive import SearchConfig, SearchResult, search_chunk


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
    the coordinator's :meth:`~repro.dist.net.WorkServer.deliver` to
    merge and adopt; it is None when nothing is collected.
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

