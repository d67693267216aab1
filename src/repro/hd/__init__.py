"""Hamming-distance and weight evaluation of CRC polynomials.

This package is the reproduction of the paper's core contribution: the
machinery that decides, for a generator polynomial ``G`` and data-word
length ``n``, the minimum Hamming distance of the resulting code and
the undetected-error weights ``W_k``.

Three engines are provided:

* :mod:`repro.hd.reference` -- the paper's own approach: enumerate
  k-bit error patterns with early bailout and FCS-bits-first ordering.
  O(C(n+r, k)) per polynomial; kept as the independently-validated
  reference and to reproduce the paper's §4.1 optimization studies.
* :mod:`repro.hd.mitm` -- an anchored meet-in-the-middle search over
  syndrome combinations, O(C(n+r, ceil((k-1)/2))), whose sides answer
  membership through a one-row :class:`~repro.hd.batched.BatchKeys`.
  This is the
  algorithmic substitution that lets a single 2026 CPU verify
  breakpoints (HD=6 to 16,360 bits, etc.) that took the paper's
  workstation farm days; results are bit-identical where both run.
* :mod:`repro.hd.packed` -- the vectorized screen's sweep: one
  position-major syndrome buffer per batch of generators in the
  narrowest dtype holding the register, plus the one weight-3 screen
  for every width (row sorts of composite keys, or argsorted values
  above 32 bits) -- the engine behind the search's default
  ``backend="packed"``; record-identical to the scalar cascade.
* :mod:`repro.hd.batched` -- the membership engine: a presence filter
  of at most 32 slots per key over a batch of uint64 tables,
  direct-indexed when the batch's whole key space fits that and
  hashed with exact confirmation otherwise.  The weight-4/5 screens
  match composite-key pairs against it, and every meet-in-the-middle
  side in :mod:`repro.hd.mitm` is a one-row batch of it.

Breakpoint extraction (:mod:`repro.hd.breakpoints`) runs on the
:mod:`repro.hd.jump` engine: shared extend-only syndrome tables,
verified early-exit straddle probes, and windowed-witness bisection,
with GF(2) companion-matrix power ladders
(:mod:`repro.gf2.matpow`) providing ``O(r**2 log n)`` random access
to the syndrome sequence as an independent cross-check oracle.

Exactness contract: every public result is exact.  Shortcuts (parity
of (x+1)-divisible polynomials, order-of-x for weight 2) are theorems,
not heuristics; the windowed witness search only ever *proves*
existence (witnesses are re-verified), never non-existence.
"""

from repro.hd.syndromes import syndrome_table, syndrome_of_positions
from repro.hd.batched import BatchKeys
from repro.hd.jump import (
    SpanCache,
    first_failure_jump,
    refine_span,
    syndrome_at,
    syndrome_window,
)
from repro.hd.mitm import (
    exists_weight_k,
    find_witness,
    windowed_witness,
    minimal_codeword_span,
)
from repro.hd.weights import (
    count_weight_2,
    count_weight_3,
    count_weight_4,
    count_weight_5,
    count_weight_6,
    brute_force_weights,
    weight_profile,
)
from repro.hd.hamming import (
    hamming_distance,
    hamming_distance_bound,
    hd_profile,
    EnvelopeError,
)
from repro.hd.breakpoints import (
    FirstFailure,
    first_failure_detailed,
    first_failure_length,
    max_length_for_hd,
    hd_breakpoint_table,
    refute_hd_at,
)
from repro.hd.bounds import max_theoretical_hd, hamming_bound_ok
from repro.hd.reference import (
    enumerate_weights_reference,
    first_undetected_reference,
)
from repro.hd.invariants import (
    check_parity_invariant,
    check_monotonic_weights,
)

__all__ = [
    "syndrome_table",
    "syndrome_of_positions",
    "BatchKeys",
    "SpanCache",
    "first_failure_jump",
    "refine_span",
    "syndrome_at",
    "syndrome_window",
    "exists_weight_k",
    "find_witness",
    "windowed_witness",
    "minimal_codeword_span",
    "count_weight_2",
    "count_weight_3",
    "count_weight_4",
    "count_weight_5",
    "count_weight_6",
    "brute_force_weights",
    "weight_profile",
    "hamming_distance",
    "hamming_distance_bound",
    "hd_profile",
    "EnvelopeError",
    "FirstFailure",
    "first_failure_detailed",
    "first_failure_length",
    "max_theoretical_hd",
    "hamming_bound_ok",
    "max_length_for_hd",
    "hd_breakpoint_table",
    "refute_hd_at",
    "enumerate_weights_reference",
    "first_undetected_reference",
    "check_parity_invariant",
    "check_monotonic_weights",
]
