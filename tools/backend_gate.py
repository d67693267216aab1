#!/usr/bin/env python
"""Kernel-registry identity gate: every backend, every catalog spec.

The CI-sized sibling of ``benchmarks/bench_crc_engines.py``: for each
catalog spec, run the published ``b"123456789"`` check vector plus a
handful of adversarial buffers (empty, single byte, chunk-split,
multi-KiB) through every registered backend and assert exact agreement
with the bit-serial reference.  The same reference checks what is
built on the kernels: a ``CrcSession`` fed at an awkward 97-byte
split, ``crc_combine`` of the two halves, and the
``append_fcs``/``check_fcs`` round trip (byte-multiple widths only).
The registry already differential-tests each kernel at construction;
this gate re-proves it end to end through the public API
(`make backend-gate`, wired into CI alongside tier-1).

Exit status 0 iff every backend of every spec tells the same story.
"""

from __future__ import annotations

import sys

from repro.crc.backends import available_backends, crc_compute
from repro.crc.catalog import CATALOG
from repro.crc.codeword import append_fcs, check_fcs
from repro.crc.engine import crc_bitwise
from repro.crc.stream import crc_combine
from repro.service.session import CrcSession

#: The awkward split point: not a word, block or table boundary.
SPLIT = 97

VECTORS = (
    b"",
    b"\x00",
    b"123456789",
    bytes(range(256)),
    bytes((i * 167 + 13) & 0xFF for i in range(4096)),
)


def main() -> int:
    failures = []
    for name in sorted(CATALOG):
        spec = CATALOG[name]
        backends = available_backends(spec)
        if crc_compute(spec, b"123456789") != spec.check:
            failures.append(f"{name}: auto backend missed the check vector")
        for data in VECTORS:
            ref = crc_bitwise(spec, data)
            for backend in backends:
                got = crc_compute(spec, data, backend=backend)
                if got != ref:
                    failures.append(
                        f"{name}/{backend}: {got:#x} != {ref:#x} "
                        f"({len(data)} bytes)"
                    )
        # streaming and combining at an awkward split must match one-shot
        long = VECTORS[-1]
        head, tail = long[:SPLIT], long[SPLIT:]
        ref = crc_bitwise(spec, long)
        session = CrcSession(spec).add(head).add(b"").add(tail)
        if session.value != ref:
            failures.append(f"{name}: CrcSession split value mismatch")
        combined = crc_combine(
            spec, crc_bitwise(spec, head), crc_bitwise(spec, tail), len(tail)
        )
        if combined != ref:
            failures.append(f"{name}: crc_combine split mismatch")
        if spec.width % 8 == 0:
            order = "little" if spec.refout else "big"
            frame = append_fcs(spec, long)
            if frame != long + ref.to_bytes(spec.width // 8, order) or (
                not check_fcs(spec, frame)
            ):
                failures.append(f"{name}: append_fcs/check_fcs round trip")
        print(f"{name:22s} {len(backends)} backends OK "
              f"({', '.join(backends)})")
    if failures:
        print(f"\n{len(failures)} MISMATCH(ES):")
        for line in failures:
            print(f"  {line}")
        return 1
    print(f"\nall backends identical across {len(CATALOG)} specs: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
