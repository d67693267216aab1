"""E12: CRC engine throughput (substrate performance).

The paper's polynomials only matter if CRCs stay cheap to compute at
line rate; this measures the generated kernel registry
(:mod:`repro.crc.backends`) on MTU-sized payloads: every registered
backend of every catalog spec, correctness asserted against the
bit-serial reference before any timing is kept.  The per-byte cost
ordering (bit-serial << byte table, with the numpy wordwise kernel
ahead on large buffers) is the expected *throughput* ordering.
These are true microbenchmarks (multiple rounds), unlike the
reproduction measurements elsewhere in the harness.

Output: ``results/crc_engines.json`` plus the committed
``BENCH_crc_engines.json`` at the repo root (schema 1, like
``BENCH_batched_search.json``).
"""

from __future__ import annotations

import json
import os
import pathlib
import time

import pytest

from conftest import once
from repro.crc.backends import available_backends, crc_compute
from repro.crc.catalog import CATALOG, get_spec
from repro.crc.engine import crc_bitwise

SPEC = get_spec("CRC-32/IEEE-802.3")
PAYLOAD = bytes(range(256)) * 6  # 1536 bytes ~ one MTU frame
SWEEP_PAYLOAD = bytes((i * 151 + 43) & 0xFF for i in range(4096))
SWEEP_REPS = 3

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def expected():
    return crc_bitwise(SPEC, PAYLOAD)


@pytest.mark.parametrize("backend", ["bitwise", "bytewise", "wordwise"])
def test_engine_backend(benchmark, expected, backend):
    if backend not in available_backends(SPEC):
        pytest.skip(f"{backend} backend not registered here")
    crc_compute(SPEC, b"warm", backend=backend)  # build outside the clock
    result = benchmark(crc_compute, SPEC, PAYLOAD, backend=backend)
    assert result == expected


def test_backend_sweep(benchmark, record):
    """Every catalog spec through every registered backend: correctness
    against the reference, then best-of-``SWEEP_REPS`` throughput."""

    def sweep():
        rows = {}
        for name in sorted(CATALOG):
            spec = CATALOG[name]
            ref = crc_bitwise(spec, SWEEP_PAYLOAD)
            per_backend = {}
            for backend in available_backends(spec):
                assert crc_compute(spec, SWEEP_PAYLOAD, backend=backend) == ref
                best = None
                for _ in range(SWEEP_REPS):
                    t0 = time.perf_counter()
                    crc_compute(spec, SWEEP_PAYLOAD, backend=backend)
                    elapsed = time.perf_counter() - t0
                    if best is None or elapsed < best:
                        best = elapsed
                per_backend[backend] = len(SWEEP_PAYLOAD) / best / 1e6
            rows[name] = per_backend
        return rows

    rows = once(benchmark, sweep)

    metrics = {
        name: {backend: round(mbps, 2) for backend, mbps in per.items()}
        for name, per in rows.items()
    }
    record("crc_engines", {"backend_mbyte_per_s": metrics})

    bench = {
        "bench": "crc_engines",
        "schema": 1,
        "config": {
            "payload_bytes": len(SWEEP_PAYLOAD),
            "reps": SWEEP_REPS,
            "specs": sorted(CATALOG),
        },
        "metrics": {"backend_mbyte_per_s": metrics},
    }
    out = REPO_ROOT / "BENCH_crc_engines.json"
    tmp = str(out) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(bench, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, out)

    # The registry's reason to exist: the table kernel must beat the
    # bit-serial loop on every spec, narrow and mixed-reflection ones
    # included.
    for name, per in rows.items():
        assert per["bytewise"] > per["bitwise"], name


def test_sparse_poly_register_cost(benchmark, record):
    """The hardware argument for 0x90022004/0x80108400: fewer feedback
    taps.  Software analogue measured here: tap count drives the
    bit-serial engine's XOR work; recorded alongside gate counts."""
    from repro.crc.engine import BitSerialRegister
    from repro.crc.spec import CRCSpec
    from repro.gf2.notation import koopman_to_full

    def gate_counts():
        out = {}
        for key, koop in [("802.3", 0x82608EDB), ("90022004", 0x90022004),
                          ("80108400", 0x80108400), ("BA0DC66B", 0xBA0DC66B)]:
            full = koopman_to_full(koop)
            spec = CRCSpec(name=key, width=32, poly=full & 0xFFFFFFFF)
            out[key] = BitSerialRegister(spec).xor_gate_count
        return out

    counts = benchmark.pedantic(gate_counts, rounds=1, iterations=1)
    record("crc_engines", {"xor_gate_counts": counts})
    assert counts["80108400"] < counts["90022004"] < counts["802.3"]
    assert counts["BA0DC66B"] > counts["90022004"]
