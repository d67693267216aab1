"""E14: CRC-as-a-service throughput (serving-layer performance).

The north star's "millions of users" framing makes the serving layer a
measured deliverable like any table: this times the two hot paths of
:mod:`repro.service` -- streaming checksum MB/s through
:class:`~repro.service.session.CrcSession` per backend (64 KiB
fragments, the scatter/gather receive shape), and NDJSON requests/s
through :class:`~repro.service.server.CrcService.handle_line` with
``advise``/``hd`` answered from the warmed breakpoint cache (the
no-MITM hot path the acceptance criteria pin).

Output: ``results/service.json`` plus the committed
``BENCH_service.json`` at the repo root (schema 1, like
``BENCH_crc_engines.json``).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

from conftest import once
from repro.crc.backends import available_backends, crc_compute
from repro.crc.catalog import get_spec
from repro.crc.codeword import append_fcs
from repro.service.advice import AdviceStore, default_polys
from repro.service.server import CrcService
from repro.service.session import CrcSession

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
CACHE = REPO_ROOT / "results" / "advice_cache.json"

SPEC = get_spec("CRC-32/IEEE-802.3")
CHUNK = 64 * 1024
STREAM_REPS = 3
#: Per-backend payload sizes: the python bit-serial loop is ~3-4
#: orders of magnitude slower, so it gets a smaller (but still
#: chunk-spanning) buffer to keep the benchmark subsecond.
STREAM_BYTES = {"bitwise": 2 * CHUNK, "default": 64 * CHUNK}

REQUEST_REPS = 2000


def payload_for(backend: str) -> bytes:
    n = STREAM_BYTES.get(backend, STREAM_BYTES["default"])
    return bytes((i * 167 + 13) & 0xFF for i in range(n))


def stream_mbps(backend: str) -> float:
    data = payload_for(backend)
    view = memoryview(data)
    expected = crc_compute(SPEC, data)
    session = CrcSession(SPEC, backend)
    best = None
    for _ in range(STREAM_REPS):
        session.reset()
        t0 = time.perf_counter()
        for off in range(0, len(data), CHUNK):
            session.add(view[off:off + CHUNK])
        elapsed = time.perf_counter() - t0
        assert session.value == expected, backend
        best = elapsed if best is None else min(best, elapsed)
    return len(data) / best / 1e6


def requests_per_second(service: CrcService, line: str) -> float:
    out = json.loads(service.handle_line(line))  # warm + correctness
    assert out["ok"], out
    t0 = time.perf_counter()
    for _ in range(REQUEST_REPS):
        service.handle_line(line)
    return REQUEST_REPS / (time.perf_counter() - t0)


def test_service_throughput(benchmark, record):
    store = AdviceStore(str(CACHE), autosave=False)
    missing = [g for g in default_polys() if g not in store.entries]
    assert not missing, f"advice cache is cold for {missing}; re-warm it"
    service = CrcService(store, compute_on_miss=False)

    frame = append_fcs(SPEC, b"x" * 1500).hex()
    requests = {
        "advise": json.dumps({"op": "advise", "length": 1500, "hd": 4}),
        "hd": json.dumps({"op": "hd", "poly": "0xBA0DC66B", "length": 1024}),
        "checksum": json.dumps(
            {"op": "checksum", "spec": SPEC.name, "data": "ab" * 256}
        ),
        "verify": json.dumps(
            {"op": "verify", "spec": SPEC.name, "frame": frame}
        ),
    }

    def measure():
        return {
            "stream_mbyte_per_s": {
                backend: round(stream_mbps(backend), 2)
                for backend in available_backends(SPEC)
            },
            "requests_per_s": {
                op: round(requests_per_second(service, line), 1)
                for op, line in requests.items()
            },
        }

    metrics = once(benchmark, measure)
    record("service", metrics)

    bench = {
        "bench": "service",
        "schema": 1,
        "config": {
            "spec": SPEC.name,
            "chunk_bytes": CHUNK,
            "stream_bytes": {
                b: len(payload_for(b)) for b in available_backends(SPEC)
            },
            "stream_reps": STREAM_REPS,
            "request_reps": REQUEST_REPS,
            "advice_cache": "results/advice_cache.json",
        },
        "metrics": metrics,
    }
    out = REPO_ROOT / "BENCH_service.json"
    tmp = str(out) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(bench, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, out)

    # The serving layer's reasons to exist: table-driven streaming
    # beats the bit-serial loop, and cache-served advice holds
    # interactive request rates without any exact search in-request.
    assert metrics["stream_mbyte_per_s"]["bytewise"] > (
        metrics["stream_mbyte_per_s"]["bitwise"]
    )
    assert min(metrics["requests_per_s"].values()) > 100
