"""E-BATCH: the vectorized screen against its oracle -- packed vs scalar.

The paper's campaign throughput ("approximately two polynomials
filtered per second per CPU" on 2001 hardware) is bounded by the
screening phase: per-candidate syndrome tables and low-weight searches.
This exhibit prices the one vectorized kernel against the scalar
oracle on the E7b configuration (width-12 full canonical space,
``SearchConfig.for_bits(12, 4, 300)``).  The scalar kernel is a python
loop; short filter lengths keep a full-space scalar sweep affordable.
The packed backend (:mod:`repro.search.packed`) carries one
narrow-value syndrome sweep per batch and reads every screen off it.

Method: screening only (:func:`~repro.search.exhaustive.screen_chunk`
-- survivor confirmation is byte-identical code on both backends),
interleaved best-of-``REPS`` so background drift penalizes both
alike.  Correctness is asserted before speed: the two kernels must
tell the same story record for record -- survivors, per-stage kill
counts, kill weights, witnesses.

Output: ``results/batched_search.json`` plus the committed
``BENCH_batched_search.json`` at the repo root (schema 1, like
``BENCH_observability.json``).  Acceptance: packed >= 8x scalar
(candidates/second).
"""

from __future__ import annotations

import json
import os
import pathlib
import time
from dataclasses import replace

from conftest import once
from repro.search.exhaustive import SearchConfig, expected_examined, screen_chunk

CONFIG = SearchConfig.for_bits(12, 4, 300)
# Each rep is sub-second, so extra reps are cheap and the best-of needs
# them: the packed side finishes in a few ms, where scheduler noise
# moves the ratio by whole multiples.
REPS = 7
# The floor leaves headroom under the measured margin: a regression
# that halves the kernel trips it, scheduler noise does not.
FLOOR = 8.0

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def screen_full_space(config: SearchConfig, backend: str):
    end = 1 << (config.width - 1)
    t0 = time.perf_counter()
    result = screen_chunk(replace(config, backend=backend), 0, end)
    return time.perf_counter() - t0, result


def run_pair(config: SearchConfig, contender: str, baseline: str, reps: int):
    """Interleaved best-of-``reps`` of two kernels on one full space."""
    best = {contender: None, baseline: None}
    results = {}
    for _ in range(reps):
        for backend in (contender, baseline):
            elapsed, res = screen_full_space(config, backend)
            results[backend] = res
            if best[backend] is None or elapsed < best[backend]:
                best[backend] = elapsed
    return best, results


def assert_identical(a, b, width: int) -> None:
    assert a.examined == b.examined == expected_examined(width)
    assert a.stage_kills == b.stage_kills
    assert a.records == b.records
    assert [s[:2] for s in a.survivors] == [s[:2] for s in b.survivors]


def pair_payload(config: SearchConfig, best, results, contender, baseline):
    res = results[contender]
    rate = {k: res.examined / t for k, t in best.items()}
    return {
        "width": config.width,
        "target_hd": config.target_hd,
        "filter_lengths": list(config.filter_lengths),
        "batch_size": config.batch_size,
        "candidates": res.examined,
        "survivors": len(res.survivors),
        "stage_kills": {str(k): v for k, v in sorted(res.stage_kills.items())},
        "screen_seconds": {k: round(t, 4) for k, t in best.items()},
        "candidates_per_second": {k: round(r, 1) for k, r in rate.items()},
        "speedup": round(rate[contender] / rate[baseline], 2),
    }


def test_packed_vs_scalar(benchmark, record):
    best, results = once(
        benchmark, run_pair, CONFIG, "packed", "scalar", REPS
    )

    # Correctness before speed.
    assert_identical(results["packed"], results["scalar"], CONFIG.width)

    payload = {
        "reps": REPS,
        "packed_vs_scalar": pair_payload(
            CONFIG, best, results, "packed", "scalar"
        ),
    }
    record("batched_search", payload)

    bench = {
        "bench": "batched_search",
        "schema": 1,
        "config": {
            "reps": REPS,
            "packed_vs_scalar": {
                "width": CONFIG.width,
                "target_hd": CONFIG.target_hd,
                "final_length": CONFIG.final_length,
                "batch_size": CONFIG.batch_size,
            },
        },
        "metrics": payload,
    }
    out = REPO_ROOT / "BENCH_batched_search.json"
    tmp = str(out) + ".tmp"
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(bench, f, indent=1, sort_keys=True)
        f.write("\n")
    os.replace(tmp, out)

    speedup = payload["packed_vs_scalar"]["speedup"]
    assert speedup >= FLOOR, (
        f"packed screening speedup {speedup:.1f}x below {FLOOR:.0f}x floor"
    )
