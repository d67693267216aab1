"""CRC-as-a-service: the serving layer over the kernel registry.

The paper's deliverable is ultimately *advice* -- "which 32-bit CRC
should an Internet application use at length L?" -- and the rest of
the repo computes that advice.  This package serves it, at the
granularity real protocol stacks consume it:

* :mod:`repro.service.session` -- :class:`CrcSession`, the streaming
  ``add()/value/check_residue()`` engine API (pycyphal-style) running
  on generated registry kernels with zero-copy ``memoryview``
  ingestion and O(log n) ``combine()`` for concatenated frames.
* :mod:`repro.service.advice` -- :class:`AdviceStore`, precomputed
  Table-1/2-style answers ("best polynomial for length L / HD
  target", "HD of poly P at length L") backed by
  :mod:`repro.hd.breakpoints` and persisted as a JSON cache under
  ``results/``; cache misses fall back to on-demand exact (MITM)
  verification whose answers are persisted too.
* :mod:`repro.service.server` -- the ``repro serve-crc`` front end:
  newline-delimited JSON over TCP (or stdin/stdout for CI pipelines)
  answering ``verify`` / ``checksum`` / ``advise`` / ``hd`` requests,
  instrumented through :mod:`repro.obs` (``service.request.*``
  counters, per-op latency histograms) with a graceful SIGTERM/SIGINT
  drain in the style of the campaign pool.

Protocol reference, cache semantics and ops notes: docs/SERVICE.md.
"""

from repro.service.advice import AdviceEntry, AdviceStore
from repro.service.server import CrcService, ProtocolError, ServiceServer
from repro.service.session import CrcSession, residue_value

__all__ = [
    "AdviceEntry",
    "AdviceStore",
    "CrcService",
    "CrcSession",
    "ProtocolError",
    "ServiceServer",
    "residue_value",
]
