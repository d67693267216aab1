#!/usr/bin/env python
"""Packed-kernel identity gate: the vectorized screen vs the scalar oracle.

The CI-sized sibling of ``benchmarks/bench_batched_search.py``: run the
width-10 full canonical space (256 candidates) through the packed
backend and through the scalar cascade, and assert the census is
*bit-identical* -- every record's kill weight, kill stage and witness,
every survivor, every per-stage kill count.  A second sweep at HD 5
routes the packed backend through the weight-4/5 screens on
materialized uint64 tables, a batch-size-7 pass exercises lane
compaction and batch boundaries, and a 120-bit pass also compares the
screening phase's survivor slots and final syndrome tables.  Index-range
sweeps at widths 40 and 63 cover the uint64 sweep, the serial advance
and the weight-3 screen above 32 bits.

Two independent spot-check oracles ride along:

* ``repro.gf2.matpow``: the GF(2) companion-matrix ladder must agree
  with the big-int square-and-multiply ``x_pow_mod`` at large n.
* ``repro.hd.jump``: the bisecting breakpoint engine must reproduce
  the CRC-32 HD=4 breakpoint (2974/2975) from the paper's Table 1.

Exit status 0 iff every census and every oracle agrees
(`make packed-gate`, wired into CI alongside tier-1).
"""

from __future__ import annotations

import sys
import time
from dataclasses import replace

from repro.gf2.matpow import ladder_for
from repro.gf2.notation import koopman_to_full
from repro.gf2.poly import x_pow_mod
from repro.hd.breakpoints import first_failure_length, max_length_for_hd
import numpy as np

from repro.search.exhaustive import (
    SearchConfig,
    expected_examined,
    screen_chunk,
    search_chunk,
)

SWEEPS = (
    ("width-10 hd4", SearchConfig.for_bits(10, 4, 160)),
    ("width-10 hd5", SearchConfig.for_bits(10, 5, 120)),
    ("width-10 hd4 batch7", SearchConfig.for_bits(10, 4, 160, batch_size=7)),
)

#: Index-range sweeps beyond the uint32 sweep: (label, config, ranges).
#: The low indices hold sparse generators that die at weights 2-5; a
#: third of the way in, most candidates survive to confirmation.
WIDE_SWEEPS = tuple(
    (
        f"width-{w} hd{hd}",
        SearchConfig.for_bits(w, hd, bits),
        [(lo, lo + 48) for lo in (0, (1 << (w - 1)) // 3)],
    )
    for w in (40, 63)
    for hd, bits in ((4, 64), (6, 40))
)


def census(config: SearchConfig, backend: str, start=0, end=None):
    if end is None:
        end = 1 << (config.width - 1)
    t0 = time.perf_counter()
    result = search_chunk(replace(config, backend=backend), start, end)
    return time.perf_counter() - t0, result


def diff_screens(label, config, failures):
    """Screening-phase identity: survivor slots, polys and final
    syndrome tables, besides the kill records."""
    end = 1 << (config.width - 1)
    packed = screen_chunk(config, 0, end)
    scalar = screen_chunk(replace(config, backend="scalar"), 0, end)
    if packed.records != scalar.records:
        failures.append(f"{label}: screen records differ")
    if [s[:2] for s in packed.survivors] != [s[:2] for s in scalar.survivors]:
        failures.append(f"{label}: screen survivors differ")
    for (_, g, tp), (_, _, ts) in zip(packed.survivors, scalar.survivors):
        if not np.array_equal(tp.astype(np.uint64), ts):
            failures.append(f"{label}: final syndrome table differs at {g:#x}")
            return


def diff_census(label, packed, scalar, failures):
    if packed.examined != scalar.examined:
        failures.append(
            f"{label}: examined {packed.examined} != {scalar.examined}"
        )
        return
    if packed.stage_kills != scalar.stage_kills:
        failures.append(
            f"{label}: stage kills {packed.stage_kills} "
            f"!= {scalar.stage_kills}"
        )
    for rp, rs in zip(packed.records, scalar.records):
        if rp != rs:
            failures.append(
                f"{label}: record mismatch at {rp.poly:#x}: {rp} != {rs}"
            )
            return


def main() -> int:
    failures: list[str] = []
    for label, cfg in SWEEPS:
        tp, packed = census(cfg, "packed")
        ts, scalar = census(cfg, "scalar")
        diff_census(label, packed, scalar, failures)
        expect = expected_examined(cfg.width)
        if packed.examined != expect:
            failures.append(
                f"{label}: census covered {packed.examined}, "
                f"expected {expect}"
            )
        survivors = sum(r.survived for r in packed.records)
        print(
            f"{label:22s} {packed.examined} candidates, "
            f"{survivors} survive, packed {tp:.3f}s / scalar {ts:.3f}s"
        )
    diff_screens(
        "width-10 hd4 120b screen", SearchConfig.for_bits(10, 4, 120), failures
    )
    print("width-10 hd4 120b screen: survivors and final tables compared")

    for label, cfg, ranges in WIDE_SWEEPS:
        examined = survivors = 0
        for start, end in ranges:
            _, packed = census(cfg, "packed", start, end)
            _, scalar = census(cfg, "scalar", start, end)
            diff_census(f"{label} [{start}, {end})", packed, scalar, failures)
            examined += packed.examined
            survivors += sum(r.survived for r in packed.records)
        print(f"{label:22s} {examined} candidates, {survivors} survive")

    # Independent oracle 1: matrix ladder vs big-int exponentiation.
    g = koopman_to_full(0x82608EDB)  # CRC-32
    ladder = ladder_for(g)
    for n in (1, 63, 64, 4096, 12_112, 10**9, 10**15):
        jumped = ladder.syndrome_at(n)
        direct = x_pow_mod(n, g)
        if jumped != direct:
            failures.append(
                f"matpow: x^{n} mod g: {jumped:#x} != {direct:#x}"
            )
    print("matpow ladder vs x_pow_mod at n up to 1e15: OK")

    # Independent oracle 2: the jump engine must land on the paper's
    # CRC-32 HD=4/5 breakpoint (2974 data bits at HD 5).
    ff = first_failure_length(g, 4, n_max=4000)
    ml = max_length_for_hd(g, 5, n_max=4000)
    if (ff, ml) != (2975, 2974):
        failures.append(
            f"jump engine: CRC-32 breakpoint ({ff}, {ml}) != (2975, 2974)"
        )
    print(f"jump engine CRC-32 breakpoint: first HD<5 failure at {ff}, OK")

    if failures:
        print(f"\n{len(failures)} MISMATCH(ES):")
        for line in failures:
            print(f"  {line}")
        return 1
    print("\npacked census bit-identical to scalar oracle: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
