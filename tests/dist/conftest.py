"""The campaign every dist test drives, its reference record, and the
two ways the one executor runs it: the pool and the loopback farm.

One cheap-but-real search -- width 8, HD 4, cascade (16, 40, 100):
128 candidates in 16 chunks of 8, subsecond per chunk -- and one
reference: the direct merge of scalar :func:`search_chunk` over the
partition.  Either, with or without injected faults, must finish on
that record byte for byte (``tests/dist/test_identity_matrix.py``).
The obs suite's real campaigns import the same config from here.
"""

from __future__ import annotations

import asyncio
import json
import time
from dataclasses import replace

import pytest

from repro.dist import checkpoint
from repro.dist.net import WorkClient, WorkServer, WorkerKilled
from repro.dist.pool import ParallelCoordinator
from repro.dist.tasks import partition_space
from repro.dist.transport import FaultyTransport, LoopbackTransport
from repro.obs.events import NullEventLog
from repro.search.exhaustive import SearchConfig, search_chunk
from repro.search.records import CampaignRecord

CFG = SearchConfig(width=8, target_hd=4, filter_lengths=(16, 40, 100),
                   confirm_weights=False)
CHUNK_SIZE = 8  # 16 chunks
CHUNKS = len(partition_space(CFG.width, CHUNK_SIZE))
#: Far above a normal run; guards CI against a wedged executor.
MAX_SECONDS = 120.0
#: Worker ids of the farm crew.
WORKERS = ["w0", "w1", "w2"]


class Recorder(NullEventLog):
    """Event sink that keeps ``(event, fields)`` pairs in order, and
    the monotonic instant of each in :attr:`times`."""

    enabled = True

    def __init__(self) -> None:
        self.records: list[tuple[str, dict]] = []
        self.times: list[float] = []

    def emit(self, event, **fields):
        self.records.append((event, fields))
        self.times.append(time.monotonic())

    def first(self, event: str, **match) -> tuple[float, dict]:
        """``(instant, fields)`` of the first ``event`` whose fields
        include ``match``."""
        return next(
            (t, f)
            for t, (name, f) in zip(self.times, self.records)
            if name == event and match.items() <= f.items()
        )

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self.records]

    def fields(self, event: str) -> list[dict]:
        return [f for name, f in self.records if name == event]


def record_of(chunks) -> CampaignRecord:
    """The record of a campaign that has computed exactly ``chunks``,
    merged directly from the scalar oracle."""
    scalar = replace(CFG, backend="scalar")
    record = CampaignRecord(
        width=CFG.width, data_word_bits=CFG.final_length,
        target_hd=CFG.target_hd,
    )
    for task in partition_space(CFG.width, CHUNK_SIZE):
        if task.chunk_id in chunks:
            res = search_chunk(scalar, task.start_index, task.end_index)
            record.merge_chunk(task.chunk_id, res.records, res.examined)
    return record


def write_format3(path, campaign, config, chunk_size, quarantined=()):
    """Write ``campaign`` to ``path`` as the format-3 writer did: the
    whole record in the identity envelope with a CRC-32C of its
    canonical payload, on one line with ``"key": value`` spacing.  The
    module no longer writes format 3 but still reads it."""
    doc = {
        "format": checkpoint.FORMAT_3,
        "config": {
            "width": config.width,
            "target_hd": config.target_hd,
            "final_length": config.final_length,
            "chunk_size": chunk_size,
        },
        "campaign": campaign.to_json_dict(),
        "quarantined": sorted(set(quarantined)),
    }
    doc["crc32"] = f"{checkpoint.payload_crc(doc):#010x}"
    with open(path, "wb") as f:
        f.write(json.dumps(doc, separators=(",", ": ")).encode("ascii"))


@pytest.fixture(scope="session")
def reference() -> str:
    """``to_json`` of the whole campaign's reference record."""
    return record_of(range(CHUNKS)).to_json()


# -- the pool and the farm, each as (coordinator, run-to-the-end) -----
#
# ``settings`` are coordinator settings (``checkpoint_every``,
# ``max_attempts``, ``lease_duration``, ...); ``faults`` reaches the
# coordinator, the workers and, on the farm, the wire.


def pool(path, events, *, config=CFG, faults=None, **settings):
    settings.setdefault("handle_signals", False)
    runner = ParallelCoordinator(
        config=config, chunk_size=CHUNK_SIZE, processes=2,
        checkpoint_path=path, events=events, faults=faults,
        max_seconds=MAX_SECONDS, **settings,
    )
    return runner, runner.run


def farm(path, events, *, config=CFG, faults=None, **settings):
    transport = LoopbackTransport()
    if faults is not None:
        transport = FaultyTransport(transport, faults)
    settings.setdefault("lease_duration", 5.0)
    server = WorkServer(
        config, CHUNK_SIZE, transport, checkpoint_path=path, events=events,
        faults=faults, handle_signals=False, max_seconds=MAX_SECONDS,
        **settings,
    )
    # A server with nothing to lease stops listening at once; workers
    # that arrive late give up after a few quick reconnects.  A dropped
    # completion surfaces as an ack timeout, then a reconnect and resend.
    clients = [
        WorkClient("loopback:0", transport, w, faults=faults,
                   ack_timeout=0.8, reconnect_base=0.01, reconnect_cap=0.05,
                   max_connect_attempts=5)
        for w in WORKERS
    ]

    async def run_client(client):
        try:
            return await client.run()
        except WorkerKilled:
            return "killed"

    async def run_farm():
        return await asyncio.gather(
            server.serve(), *(run_client(client) for client in clients)
        )

    return server, lambda: asyncio.run(run_farm())


EXECUTORS = [pool, farm]
