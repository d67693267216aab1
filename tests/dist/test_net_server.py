"""End-to-end farm campaigns over the loopback transport.

Every test runs a real :class:`WorkServer` and real
:class:`WorkClient` workers in one event loop -- the protocol, the
lease machinery, the obs mail-home and the fault recovery paths are
all the production code; only the wire is in-process.  The recurring
assertion is the campaign invariant: whatever the faults did, the
final :class:`CampaignRecord` is bit-identical to a fault-free run's.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.dist.faults import FaultPlan
from repro.dist.net import WorkClient, WorkServer, WorkerKilled
from repro.dist.transport import FaultyTransport, LoopbackTransport
from repro.obs.events import EventLog, read_events
from repro.obs.report import RunReport
from repro.search.records import CampaignRecord

from tests.dist.conftest import CFG, CHUNK_SIZE, MAX_SECONDS


def make_server(transport, **kwargs) -> WorkServer:
    kwargs.setdefault("lease_duration", 1.0)
    kwargs.setdefault("handle_signals", False)
    kwargs.setdefault("max_seconds", MAX_SECONDS)
    kwargs.setdefault("retry_backoff", 0.01)
    return WorkServer(CFG, CHUNK_SIZE, transport, **kwargs)


def make_client(transport, worker_id, **kwargs) -> WorkClient:
    kwargs.setdefault("ack_timeout", 0.8)
    kwargs.setdefault("reconnect_base", 0.02)
    kwargs.setdefault("reconnect_cap", 0.2)
    kwargs.setdefault("max_connect_attempts", 30)
    return WorkClient("loopback:0", transport, worker_id, **kwargs)


async def run_farm(server, clients):
    """Gather the server and workers; workers' exceptions (the
    injected kills) become string outcomes instead of failing the
    gather."""

    async def run_client(client):
        try:
            return await client.run()
        except WorkerKilled:
            return "killed"

    return await asyncio.gather(
        server.serve(), *[run_client(c) for c in clients]
    )


class TestFaultFreeFarm:
    def test_three_workers_complete_the_campaign(self, reference):
        transport = LoopbackTransport()
        server = make_server(transport)
        clients = [make_client(transport, f"w{i}") for i in range(3)]
        rcs = asyncio.run(run_farm(server, clients))
        assert rcs == [0, 0, 0, 0]
        assert server.queue.all_done
        assert server.campaign.to_json() == reference
        assert server.stats.completions == len(server.queue)
        assert server.stats.duplicate_deliveries == 0
        # Every worker connected exactly once and the books balance.
        assert sum(b.chunks for b in server.workers.values()) == len(
            server.queue
        )
        assert all(b.connections == 1 for b in server.workers.values())

    def test_single_worker_farm(self, reference):
        transport = LoopbackTransport()
        server = make_server(transport)
        client = make_client(transport, "solo")
        rcs = asyncio.run(run_farm(server, [client]))
        assert rcs == [0, 0]
        assert server.campaign.to_json() == reference
        assert client.stats.chunks == len(server.queue)

    def test_events_feed_run_report_per_worker_accounting(self, tmp_path):
        log = tmp_path / "farm.jsonl"
        transport = LoopbackTransport()
        with EventLog(log) as events:
            server = make_server(transport, events=events)
            clients = [make_client(transport, f"w{i}") for i in range(2)]
            asyncio.run(run_farm(server, clients))
        names = [rec["event"] for rec in read_events(log)]
        assert "campaign.start" in names
        assert "worker.hello" in names
        assert "campaign.end" in names
        report = RunReport.from_path(log)
        assert set(report.workers) == {"w0", "w1"}
        assert (
            sum(w["chunks"] for w in report.workers.values())
            == report.chunks_completed
            == len(server.queue)
        )
        assert all(
            w["connections"] == 1 and w["reconnects"] == 0
            for w in report.workers.values()
        )
        rendered = report.render()
        assert "workers: 2 host(s)" in rendered


class TestFaultRecovery:
    def test_dropped_complete_is_resent_after_reconnect(self, reference):
        plan = FaultPlan(net_drop_complete={"w0": {0}})
        transport = FaultyTransport(LoopbackTransport(), plan)
        server = make_server(transport)
        clients = [make_client(transport, f"w{i}", faults=plan)
                   for i in range(2)]
        rcs = asyncio.run(run_farm(server, clients))
        assert rcs == [0, 0, 0]
        assert server.campaign.to_json() == reference
        assert clients[0].stats.reconnects >= 1
        assert clients[0].stats.resent_completes >= 1
        assert server.workers["w0"].connections >= 2

    def test_duplicated_complete_merges_once(self, reference):
        plan = FaultPlan(net_duplicate_complete={"w0": {0}})
        transport = FaultyTransport(LoopbackTransport(), plan)
        server = make_server(transport)
        clients = [make_client(transport, f"w{i}", faults=plan)
                   for i in range(2)]
        rcs = asyncio.run(run_farm(server, clients))
        assert rcs == [0, 0, 0]
        assert server.campaign.to_json() == reference
        assert server.stats.duplicate_deliveries == 1
        assert server.stats.completions == len(server.queue)

    def test_severed_connection_reconnects_and_finishes(self, reference):
        plan = FaultPlan(net_sever_after={"w0": 3})
        transport = FaultyTransport(LoopbackTransport(), plan)
        server = make_server(transport)
        clients = [make_client(transport, f"w{i}", faults=plan)
                   for i in range(2)]
        rcs = asyncio.run(run_farm(server, clients))
        assert rcs == [0, 0, 0]
        assert server.campaign.to_json() == reference
        assert server.workers["w0"].connections == 2

    def test_killed_worker_strands_a_lease_the_reaper_reclaims(self, reference):
        plan = FaultPlan(net_kill_after={"w0": 1})
        transport = FaultyTransport(LoopbackTransport(), plan)
        server = make_server(transport)
        clients = [make_client(transport, f"w{i}", faults=plan)
                   for i in range(2)]
        rcs = asyncio.run(run_farm(server, clients))
        assert rcs == [0, "killed", 0]
        assert server.campaign.to_json() == reference
        # w0 died holding a lease; the reaper expired it and w1
        # computed the chunk.
        assert server.stats.lease_expiries >= 1
        assert server.workers["w0"].expiries >= 1

    def test_fault_budget_benches_a_flaky_worker(self, reference):
        plan = FaultPlan(net_kill_after={"w0": 0})  # dies on first lease
        transport = FaultyTransport(LoopbackTransport(), plan)
        server = make_server(transport, worker_fault_budget=1)
        clients = [make_client(transport, f"w{i}", faults=plan)
                   for i in range(2)]
        rcs = asyncio.run(run_farm(server, clients))
        assert rcs == [0, "killed", 0]
        assert server.campaign.to_json() == reference
        assert server.workers["w0"].benched
        assert server.workers["w0"].chunks == 0
        assert server.workers["w1"].chunks == len(server.queue)


class TestDrainAndResume:
    def test_drain_checkpoints_and_resume_completes(self, tmp_path, reference):
        ckpt = str(tmp_path / "farm.ckpt")
        plan = FaultPlan(kill_signal_after=3)
        transport = LoopbackTransport()
        server = make_server(
            transport, checkpoint_path=ckpt, checkpoint_every=2,
            faults=plan, drain_grace=2.0,
        )
        clients = [make_client(transport, f"w{i}") for i in range(2)]
        asyncio.run(run_farm(server, clients))
        assert server.interrupted == "SIGTERM"
        assert 0 < server.queue.done < len(server.queue)

        transport2 = LoopbackTransport()
        server2 = make_server(transport2, checkpoint_path=ckpt)
        skipped = server2.resume()
        assert skipped == server.queue.done
        clients2 = [make_client(transport2, f"x{i}") for i in range(2)]
        rcs = asyncio.run(run_farm(server2, clients2))
        assert rcs == [0, 0, 0]
        assert server2.campaign.to_json() == reference
        assert server2.stats.skipped_from_checkpoint == skipped

    def test_draining_server_turns_workers_away(self):
        transport = LoopbackTransport()
        # Drain immediately after the first completion; workers must
        # exit 0 with the "drained" outcome, not hang or crash.
        server = make_server(
            transport, faults=FaultPlan(kill_signal_after=1),
            drain_grace=1.0,
        )
        clients = [make_client(transport, f"w{i}") for i in range(2)]
        rcs = asyncio.run(run_farm(server, clients))
        assert rcs[0] == 0 and all(rc == 0 for rc in rcs[1:])
        assert server.interrupted == "SIGTERM"
        assert any(c.outcome == "drained" for c in clients)


class TestObsMailHome:
    def test_worker_metrics_and_spans_reach_the_coordinator(self, tmp_path):
        log = tmp_path / "farm.jsonl"
        transport = LoopbackTransport()
        with EventLog(log) as events:
            server = make_server(
                transport, events=events, collect_metrics=True
            )
            clients = [make_client(transport, "w0")]
            asyncio.run(run_farm(server, clients))
        # Worker-side screening counters merged into the coordinator's
        # registry via the completion mail-home.
        snapshot = server.metrics.snapshot()
        assert snapshot is not None
        counters = snapshot.get("counters", {})
        assert counters.get("work.lease", 0) == len(server.queue)
        spans = [
            rec for rec in read_events(log) if rec["event"] == "trace.span"
        ]
        names = {rec.get("name") for rec in spans}
        # lease -> remote dispatch -> worker compute -> merge, one tree
        # per chunk, with the worker's spans re-parented under ours.
        assert {"chunk", "chunk.remote", "chunk.compute", "chunk.merge"} <= names
        assert any(rec.get("remote") for rec in spans)

    def test_campaign_json_round_trips(self):
        transport = LoopbackTransport()
        server = make_server(transport)
        clients = [make_client(transport, "w0")]
        asyncio.run(run_farm(server, clients))
        dumped = server.campaign.to_json()
        assert (
            CampaignRecord.from_json(dumped).to_json() == dumped
        )
        assert json.loads(dumped)["chunks_done"] == list(
            range(len(server.queue))
        )
