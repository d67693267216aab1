"""Protocol robustness for the ``repro-work/1`` coordinator.

These tests drive :meth:`WorkServer._handle_connection` directly over
a loopback wire -- no serve loop, no client library -- so every frame
is hand-built and every abuse case (malformed JSON, truncated and
oversized frames, unknown verbs, version skew, out-of-order ops,
stale leases) can be pinned to its coded error.  The standing rule:
the coordinator answers with an error frame or closes the connection;
it NEVER raises out of dispatch, whatever arrives on the wire.
"""

from __future__ import annotations

import asyncio

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist.net import PROTOCOL, WorkClient, WorkServer, result_to_wire
from repro.dist.transport import LoopbackTransport
from repro.search.exhaustive import search_chunk

from tests.dist.conftest import CFG, CHUNK_SIZE


def make_server(**kwargs) -> WorkServer:
    kwargs.setdefault("lease_duration", 5.0)
    kwargs.setdefault("handle_signals", False)
    return WorkServer(CFG, CHUNK_SIZE, LoopbackTransport(), **kwargs)


def hello(worker="w0", protocol=PROTOCOL, seq=0):
    return {"op": "hello", "protocol": protocol, "worker": worker,
            "host": "testhost", "seq": seq}


def session(script, **server_kwargs):
    """Run ``script(server, conn)`` against a listening coordinator
    with no serve loop: the protocol surface in isolation."""

    async def scenario():
        server = make_server(**server_kwargs)
        await server.transport.listen(server._handle_connection)
        conn = await server.transport.connect(label="test")
        try:
            return await script(server, conn)
        finally:
            await server.transport.close()

    return asyncio.run(scenario())


async def ask(conn, frame):
    await conn.send(frame)
    return await conn.recv()


def error_code(reply):
    assert reply["ok"] is False
    return reply["error"]["code"]


def wire_result(chunk_id: int) -> dict:
    start = chunk_id * CHUNK_SIZE
    return result_to_wire(search_chunk(CFG, start, start + CHUNK_SIZE))


class TestHandshake:
    def test_hello_reply_carries_the_campaign_brief(self):
        async def script(server, conn):
            return await ask(conn, hello(seq=17))

        reply = session(script)
        assert reply["ok"] and reply["op"] == "hello"
        assert reply["seq"] == 17
        assert reply["protocol"] == PROTOCOL
        assert reply["chunk_size"] == CHUNK_SIZE
        assert reply["config"]["width"] == CFG.width
        assert reply["lease"] == 5.0
        # The server, not the worker, decides what each chunk collects.
        assert reply["collect_metrics"] is False
        assert reply["collect_traces"] is False

    @pytest.mark.parametrize("collect", [False, True])
    def test_workers_collect_what_hello_asks_for(self, collect):
        """An untraced, unmetered campaign ships no per-chunk obs
        snapshots; a collecting one gets metrics and spans back."""
        frames = []

        class Tap(LoopbackTransport):
            async def connect(self, address="", label=""):
                conn = await super().connect(address, label)
                send = conn.send

                async def tapped(obj):
                    frames.append(obj)
                    await send(obj)

                conn.send = tapped
                return conn

        transport = Tap()
        server = WorkServer(
            CFG, CHUNK_SIZE, transport, handle_signals=False,
            collect_metrics=collect, collect_traces=collect,
        )
        client = WorkClient("loopback:0", transport, "w0")

        async def farm():
            return await asyncio.gather(server.serve(), client.run())

        assert asyncio.run(farm()) == [0, 0]
        assert (client.collect_metrics, client.collect_traces) == (
            collect, collect
        )
        completes = [f for f in frames if f["op"] == "complete"]
        assert len(completes) == len(server.queue)
        if collect:
            assert all(f["obs"]["metrics"] and f["obs"]["spans"]
                       for f in completes)
        else:
            assert all(f["obs"] is None for f in completes)

    def test_version_mismatch_is_coded_and_closes(self):
        async def script(server, conn):
            reply = await ask(conn, hello(protocol="repro-work/99"))
            return reply, await conn.recv()

        reply, after = session(script)
        assert error_code(reply) == "version-mismatch"
        assert after is None  # coordinator hung up

    def test_op_before_hello_is_refused_but_survivable(self):
        async def script(server, conn):
            refused = await ask(conn, {"op": "lease", "seq": 1})
            greeted = await ask(conn, hello(seq=2))
            leased = await ask(conn, {"op": "lease", "seq": 3})
            return refused, greeted, leased

        refused, greeted, leased = session(script)
        assert error_code(refused) == "no-hello"
        assert greeted["ok"]
        assert leased["ok"] and "chunk" in leased

    def test_hello_without_worker_id_is_bad_field(self):
        async def script(server, conn):
            frame = hello()
            del frame["worker"]
            return await ask(conn, frame)

        assert error_code(session(script)) == "bad-field"


class TestMalformedFrames:
    def test_bad_json_gets_coded_reply_and_connection_survives(self):
        async def script(server, conn):
            conn.send_raw(b"{definitely not json\n")
            garbled = await conn.recv()
            greeted = await ask(conn, hello())
            return server.stats.frame_errors, garbled, greeted

        frame_errors, garbled, greeted = session(script)
        assert frame_errors == 1
        assert error_code(garbled) == "bad-json"
        assert greeted["ok"]

    def test_oversized_frame_is_coded_and_closes(self):
        async def script(server, conn):
            from repro.net_common import MAX_LINE

            conn.send_raw(b'{"op":"' + b"x" * MAX_LINE + b'"}\n')
            reply = await conn.recv()
            return reply, await conn.recv()

        reply, after = session(script)
        assert error_code(reply) == "oversized-frame"
        assert after is None

    def test_mid_frame_disconnect_does_not_crash_the_server(self):
        async def script(server, conn):
            conn.send_raw(b'{"op": "hel')  # died mid-write
            await asyncio.sleep(0.01)
            # A fresh connection still gets full service.
            conn2 = await server.transport.connect(label="test2")
            reply = await ask(conn2, hello(worker="w1"))
            await conn2.close()
            return reply

        assert session(script)["ok"]

    def test_non_object_frames_are_bad_frame(self):
        # (A bare JSON ``null`` is not here: it decodes to None, which
        # is the close sentinel, so the coordinator reads it as EOF.)
        async def script(server, conn):
            replies = []
            for frame in ([1, 2, 3], "lease", 17, True, 2.5):
                replies.append(await ask(conn, frame))
            return replies

        for reply in session(script):
            assert error_code(reply) == "bad-frame"

    def test_missing_or_non_string_op_is_bad_frame(self):
        async def script(server, conn):
            return (
                await ask(conn, {"seq": 1}),
                await ask(conn, {"op": 7, "seq": 2}),
            )

        for reply in session(script):
            assert error_code(reply) == "bad-frame"

    def test_unknown_op_names_the_known_ones_and_survives(self):
        async def script(server, conn):
            await ask(conn, hello())
            refused = await ask(conn, {"op": "gimme", "seq": 5})
            leased = await ask(conn, {"op": "lease", "seq": 6})
            return refused, leased

        refused, leased = session(script)
        assert error_code(refused) == "unknown-op"
        assert "lease" in refused["error"]["message"]
        assert refused["seq"] == 5
        assert leased["ok"]


class TestBadFields:
    def test_renew_rejects_missing_bool_and_unknown_chunks(self):
        async def script(server, conn):
            await ask(conn, hello())
            return (
                await ask(conn, {"op": "renew"}),
                await ask(conn, {"op": "renew", "chunk": True}),
                await ask(conn, {"op": "renew", "chunk": "3"}),
                await ask(conn, {"op": "renew", "chunk": 10**9}),
            )

        for reply in session(script):
            assert error_code(reply) == "bad-field"

    def test_complete_with_undecodable_result_is_bad_field(self):
        async def script(server, conn):
            await ask(conn, hello())
            lease = await ask(conn, {"op": "lease"})
            chunk = lease["chunk"]
            bad = [
                {"op": "complete", "chunk": chunk},  # no result at all
                {"op": "complete", "chunk": chunk, "result": "zap"},
                {"op": "complete", "chunk": chunk,
                 "result": {"records": 3, "examined": 1}},
                {"op": "complete", "chunk": chunk,
                 "result": {"records": [], "examined": "many",
                            "stage_kills": {}, "elapsed": 0.0}},
            ]
            return [await ask(conn, frame) for frame in bad]

        for reply in session(script):
            assert error_code(reply) == "bad-field"

    def test_bad_field_leaves_the_lease_intact(self):
        async def script(server, conn):
            await ask(conn, hello())
            lease = await ask(conn, {"op": "lease"})
            chunk = lease["chunk"]
            await ask(conn, {"op": "complete", "chunk": chunk,
                             "result": "zap"})  # rejected
            good = await ask(conn, {"op": "complete", "chunk": chunk,
                                    "result": wire_result(chunk)})
            return good

        good = session(script)
        assert good["ok"] and good["merged"] is True


class TestLeaseLifecycle:
    def test_duplicate_complete_is_idempotent(self):
        async def script(server, conn):
            await ask(conn, hello())
            lease = await ask(conn, {"op": "lease"})
            chunk = lease["chunk"]
            frame = {"op": "complete", "chunk": chunk,
                     "result": wire_result(chunk)}
            first = await ask(conn, frame)
            second = await ask(conn, frame)
            return first, second, server

        first, second, server = session(script)
        assert first["merged"] is True
        assert second["ok"] and second["merged"] is False
        assert server.stats.completions == 1
        assert server.stats.duplicate_deliveries == 1
        assert server.campaign.candidates_examined == CHUNK_SIZE

    def test_renew_after_expiry_reports_the_lost_lease(self):
        async def script(server, conn):
            await ask(conn, hello())
            lease = await ask(conn, {"op": "lease"})
            chunk, epoch = lease["chunk"], lease["epoch"]
            # The reaper fires long after the lease ran out.
            server.queue.reclaim(server.clock() + 60.0)
            reply = await ask(
                conn, {"op": "renew", "chunk": chunk, "epoch": epoch}
            )
            return reply, server

        reply, server = session(script, lease_duration=0.01)
        assert reply["ok"] and reply["renewed"] is False
        assert reply["lost"] is True
        assert server.stats.lease_expiries == 1
        assert server.workers["w0"].lease_losses == 1

    def test_renew_with_stale_epoch_reports_lost(self):
        async def script(server, conn):
            await ask(conn, hello())
            lease = await ask(conn, {"op": "lease"})
            reply = await ask(conn, {
                "op": "renew", "chunk": lease["chunk"],
                "epoch": lease["epoch"] + 1,
            })
            return reply

        reply = session(script)
        assert reply["renewed"] is False and reply["lost"] is True
        assert "epoch" in reply["reason"]

    def test_renew_by_the_wrong_worker_reports_lost(self):
        async def script(server, conn):
            await ask(conn, hello(worker="owner"))
            lease = await ask(conn, {"op": "lease"})
            thief = await server.transport.connect(label="thief")
            await ask(thief, hello(worker="thief"))
            reply = await ask(
                thief, {"op": "renew", "chunk": lease["chunk"]}
            )
            await thief.close()
            return reply

        reply = session(script)
        assert reply["renewed"] is False and reply["lost"] is True

    def test_lease_when_everything_is_taken_says_idle(self):
        async def script(server, conn):
            await ask(conn, hello())
            grants = []
            while True:
                reply = await ask(conn, {"op": "lease"})
                if "chunk" not in reply:
                    break
                grants.append(reply["chunk"])
            return grants, reply

        grants, last = session(script)
        assert sorted(grants) == list(range(len(grants)))
        assert last["idle"] is True and last["retry_in"] > 0

    def test_bye_is_acknowledged_and_closes(self):
        async def script(server, conn):
            await ask(conn, hello())
            reply = await ask(conn, {"op": "bye", "seq": 9})
            return reply, await conn.recv()

        reply, after = session(script)
        assert reply["ok"] and reply["seq"] == 9
        assert after is None


# Any JSON value whatsoever, plus dict shapes that get close to real
# requests (right op names, wrong field types).
any_json = st.recursive(
    st.none() | st.booleans()
    | st.integers(min_value=-(2**53), max_value=2**53)
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=20),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=12,
)
near_miss = st.fixed_dictionaries(
    {"op": st.sampled_from(
        ["hello", "lease", "renew", "complete", "snapshot", "bye", "HELLO", ""]
    )},
    optional={
        "seq": any_json,
        "worker": any_json,
        "protocol": any_json,
        "chunk": any_json,
        "epoch": any_json,
        "result": any_json,
        "obs": any_json,
    },
)


class TestDispatchFuzz:
    @given(req=any_json | near_miss)
    @settings(max_examples=150, deadline=None)
    def test_dispatch_never_raises_before_hello(self, req):
        server = make_server()
        reply, close, worker = server._dispatch(req, None)
        assert isinstance(reply, dict)
        assert isinstance(close, bool)
        if reply.get("ok") is False:
            assert isinstance(reply["error"]["code"], str)

    @given(req=near_miss)
    @settings(max_examples=150, deadline=None)
    def test_dispatch_never_raises_after_hello(self, req):
        server = make_server()
        _, _, worker = server._dispatch(hello(), None)
        assert worker == "w0"
        reply, close, _ = server._dispatch(req, worker)
        assert isinstance(reply, dict)
        assert isinstance(close, bool)
        if reply.get("ok") is False:
            assert isinstance(reply["error"]["code"], str)
        # However mangled the request, the queue stays coherent.
        assert server.queue.done + server.queue.pending + \
            server.queue.leased + server.queue.quarantined == len(server.queue)
