"""Trace spans: hierarchy, pickling across the pool, kill-and-resume.

Three layers.  The unit tests drive a :class:`Tracer` with an
injected clock and pin the record shape (ids, parents, ``rel``/
``dur``), the unattached-buffer -> :meth:`~Tracer.adopt` re-parenting
that carries worker spans across the process boundary, and the no-op
contract of the disabled path.  The integration test runs a real
pool campaign -- with a hard-killed worker, a mid-flight stop, and a
resumed second session appending to the same log -- and asserts the
*integrity invariant*: every ``trace.span`` record's parent resolves
to another span in the log, so the waterfall reassembles with no
orphans even though workers died and sessions restarted.
"""

from __future__ import annotations

import pickle

from repro.dist.faults import FaultPlan
from repro.dist.pool import ParallelCoordinator
from repro.obs import trace as obs_trace
from repro.obs.events import EventLog, read_events
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACE,
    Tracer,
    flatten_tree,
    span_tree,
    spans_from_events,
)

from tests.dist.conftest import CFG


class FakeClock:
    def __init__(self) -> None:
        self.now = 100.0

    def __call__(self) -> float:
        return self.now


class CollectingLog:
    """Event sink capturing emitted records in memory."""

    enabled = True

    def __init__(self) -> None:
        self.records: list[dict] = []

    def emit(self, event: str, **fields) -> None:
        self.records.append({"event": event, **fields})


class TestAttachedTracer:
    def test_nested_spans_record_hierarchy_and_timing(self):
        clock = FakeClock()
        log = CollectingLog()
        tracer = Tracer(events=log, clock=clock)
        with tracer.span("chunk", chunk=3) as root:
            clock.now += 1.0
            with tracer.span("stage", n=32):
                clock.now += 0.5
            clock.now += 0.25
        assert [r["name"] for r in log.records] == ["stage", "chunk"]
        stage, chunk = log.records
        assert all(r["event"] == "trace.span" for r in log.records)
        assert stage["parent"] == chunk["span"] == root.id
        assert chunk["parent"] is None
        assert stage["rel"] == 1.0 and stage["dur"] == 0.5
        assert chunk["rel"] == 0.0 and chunk["dur"] == 1.75
        assert stage["n"] == 32 and chunk["chunk"] == 3

    def test_start_end_handles_outlive_lexical_scope(self):
        clock = FakeClock()
        log = CollectingLog()
        tracer = Tracer(events=log, clock=clock)
        root = tracer.start("chunk", chunk=1)
        child = tracer.start("dispatch", parent=root.id)
        clock.now += 2.0
        child.annotate(outcome="ok")
        child.end()
        child.end()  # idempotent: no double record
        root.end()
        assert [r["name"] for r in log.records] == ["dispatch", "chunk"]
        assert log.records[0]["parent"] == root.id
        assert log.records[0]["outcome"] == "ok"
        assert len(log.records) == 2

    def test_span_ids_are_pid_scoped_and_unique(self):
        tracer = Tracer()
        ids = {tracer.start(f"s{i}").id for i in range(100)}
        assert len(ids) == 100
        assert all(":" in i for i in ids)


class TestWorkerShipping:
    def test_unattached_buffers_picklable_dicts(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)  # no event log: worker shape
        with tracer.span("chunk.compute", chunk=7):
            clock.now += 0.5
        spans = tracer.snapshot()
        assert len(spans) == 1 and spans[0]["name"] == "chunk.compute"
        assert tracer.snapshot() == []  # snapshot drains
        assert pickle.loads(pickle.dumps(spans)) == spans

    def test_adopt_reparents_roots_only(self):
        worker_clock = FakeClock()
        worker = Tracer(clock=worker_clock)
        with worker.span("chunk.compute"):
            with worker.span("screen.stage", n=16):
                worker_clock.now += 0.1
        shipped = pickle.loads(pickle.dumps(worker.snapshot()))

        log = CollectingLog()
        parent = Tracer(events=log)
        dispatch = parent.start("chunk.dispatch")
        parent.adopt(shipped, parent=dispatch.id)
        dispatch.end()
        by_name = {r["name"]: r for r in log.records}
        # The worker's root now hangs under the parent's dispatch span
        # and is marked remote; the stage span keeps its worker-local
        # parent, which still resolves inside the shipped set.
        assert by_name["chunk.compute"]["parent"] == dispatch.id
        assert by_name["chunk.compute"]["remote"] is True
        assert (
            by_name["screen.stage"]["parent"]
            == by_name["chunk.compute"]["span"]
        )

    def test_adopt_none_is_noop(self):
        log = CollectingLog()
        Tracer(events=log).adopt(None, parent="x")
        assert log.records == []


class TestDisabledPath:
    def test_null_trace_records_nothing(self):
        with NULL_TRACE.span("anything", x=1) as span:
            assert span is NULL_SPAN
            span.annotate(y=2)
        assert NULL_TRACE.start("s") is NULL_SPAN
        assert NULL_TRACE.snapshot() is None
        assert not NULL_TRACE.enabled

    def test_install_active_uninstall(self):
        tracer = Tracer()
        assert obs_trace.active() is NULL_TRACE
        previous = obs_trace.install(tracer)
        try:
            assert obs_trace.active() is tracer
        finally:
            obs_trace.install(previous)
        assert obs_trace.active() is NULL_TRACE


class TestTreeHelpers:
    def test_flatten_orphans_become_roots(self):
        spans = [
            {"span": "a:1", "parent": None, "name": "root"},
            {"span": "a:2", "parent": "a:1", "name": "child"},
            {"span": "a:3", "parent": "gone", "name": "orphan"},
        ]
        tree = span_tree(spans)
        assert [s["name"] for s in tree[None]] == ["root"]
        rows = flatten_tree(spans)
        assert [(d, s["name"]) for d, s in rows] == [
            (0, "root"), (1, "child"), (0, "orphan"),
        ]


class TestKillAndResumeIntegrity:
    def test_span_parents_resolve_across_kill_and_resume(self, tmp_path):
        """A campaign with a hard-killed worker is stopped mid-flight,
        then resumed in a second session appending to the same event
        log.  Every span's parent must resolve within the log, every
        computed chunk must show the full lease->dispatch->compute
        waterfall, and the killed chunk's spans must be closed with an
        outcome instead of leaking open."""
        events_path = str(tmp_path / "run.jsonl")
        ckpt = str(tmp_path / "campaign.json")

        def make(**kw):
            return ParallelCoordinator(
                config=CFG, chunk_size=8, processes=2, lease_duration=0.5,
                max_seconds=120.0, checkpoint_path=ckpt,
                checkpoint_every=1, **kw,
            )

        # Both first-generation children die holding their first lease,
        # so no chunk completes before a kill: the stop count cannot
        # be reached by the children racing past the fault.
        with EventLog(events_path) as events:
            first = make(
                events=events,
                faults=FaultPlan(net_kill_after={"pool-0": 0, "pool-1": 0}),
            )
            assert first.collect_traces  # auto-on: events are attached
            first.run(stop_after=4)
        assert 0 < first.stats.completions < len(first.queue)

        with EventLog(events_path) as events:  # second session, appended
            resumed = make(events=events)
            resumed.resume()
            resumed.run()
        assert resumed.queue.all_done

        records = read_events(events_path)
        assert sum(r["event"] == "log.open" for r in records) == 2
        spans = spans_from_events(records)
        ids = {s["span"] for s in spans}
        assert len(ids) == len(spans), "span ids must be unique"

        # Integrity: every parent reference resolves inside the log.
        for span in spans:
            assert span["parent"] is None or span["parent"] in ids, span
        # Equivalent global statement: flattening loses nothing and
        # finds no orphaned subtrees.
        rows = flatten_tree(spans)
        assert len(rows) == len(spans)
        assert all(s["name"] == "chunk" for d, s in rows if d == 0)

        # Every computed (non-duplicate) chunk completion has the full
        # waterfall: root chunk -> dispatch -> remote compute.
        tree = span_tree(spans)
        computed = {
            r["chunk"]
            for r in records
            if r["event"] == "chunk.done" and not r.get("duplicate")
        }
        chunks_with_compute = set()
        for root in tree.get(None, []):
            children = tree.get(root["span"], [])
            names = {c["name"] for c in children}
            if "chunk.dispatch" in names:
                for c in children:
                    if c["name"] == "chunk.dispatch":
                        grand = tree.get(c["span"], [])
                        if any(
                            g["name"] == "chunk.compute"
                            and g.get("remote")
                            for g in grand
                        ):
                            chunks_with_compute.add(root.get("chunk"))
        assert computed <= chunks_with_compute

        # The hard-killed attempt's spans were closed with an outcome,
        # not leaked (the pool emits them when the future dies).
        outcomes = {s.get("outcome") for s in spans if "outcome" in s}
        assert outcomes & {"killed", "pool-broken", "crashed"}
        # And nothing is left open on either coordinator.
        assert first._chunk_spans == {} and resumed._chunk_spans == {}
