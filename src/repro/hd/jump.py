"""Length-jumping breakpoint search: shared tables + span bisection.

The old first-failure loop in :mod:`repro.hd.breakpoints` paid three
avoidable costs per weight: every geometric probe rebuilt its syndrome
table from position 0, every probe was a *collect-all* span scan even
when the window held nothing (or held thousands of codewords it did
not need to enumerate), and nothing was shared between weights of the
same polynomial.  This module replaces that engine:

* :class:`SpanCache` keeps **one** extend-only syndrome table per
  polynomial.  Geometric probes, bisection probes, and all weights of
  a breakpoint-table build read prefixes of the same array -- the LFSR
  cost of each length is paid once.
* :func:`first_failure_jump` keeps the exact geometric window schedule
  of the old loop (so envelope-capped outcomes are unchanged) but
  leads each probe with a **budgeted windowed-witness check**
  (:func:`~repro.hd.mitm.windowed_witness` with a per-weight window
  sized so the materialized side stays under
  :data:`_WINDOWED_SIDE_BUDGET` elements).  Hits are re-verified
  against the exact big-int syndrome, so a hit is proof; a miss --
  ``None``, also when the probe is past its own envelope -- costs one
  bounded side and falls back to the *same* collect-all scan the old
  engine ran at the same window -- the worst case is the old engine
  plus a rounding error.
* On a windowed hit, :func:`refine_span` **binary-searches** the
  minimal span instead of collect-all-scanning the overshot window:
  each windowed hit at the midpoint shrinks the upper bound to that
  witness's own span for nearly free; the first inconclusive midpoint
  stops the cheap phase and one
  :func:`~repro.hd.mitm.minimal_codeword_span` scan at the tightened
  window settles the exact answer.  In the dense regime (the window
  overshot the breakpoint by up to ``growth == 2``) this scans up to
  ``growth**2 == 4`` times fewer pairs for weight 4.

:func:`syndrome_at` / :func:`syndrome_window` give random access to the
syndrome sequence through :func:`repro.gf2.poly.x_pow_mod`:
square-and-multiply reaches ``x**n mod g`` in ``O(log n)`` polynomial
products, so a far window of syndromes costs ``O(log start + count)``
instead of ``O(start + count)``.  MITM probes inherently read the
whole prefix (every position below the window is a potential error
position), so the production cascade keeps linear tables; the jump
serves the tests, which cross-validate sweep-built tables at randomly
chosen far positions, and any caller that needs a distant syndrome
slice without the prefix.
"""

from __future__ import annotations

from math import comb

import numpy as np

from repro.gf2.poly import degree, x_pow_mod
from repro.hd.cost import (
    DEFAULT_MEM_ELEMS,
    DEFAULT_STREAM_ELEMS,
    EnvelopeError,
    max_affordable_window,
)
from repro.hd.mitm import minimal_codeword_span, windowed_witness
from repro.hd.syndromes import _fill, extend_syndrome_table, syndrome_table


def syndrome_at(g: int, n: int) -> int:
    """``x**n mod g`` -- :func:`~repro.gf2.poly.x_pow_mod` in the
    HD layer's argument order.

    >>> from repro.hd.syndromes import syndrome_table
    >>> g = 0x104C11DB7
    >>> syndrome_at(g, 9999) == int(syndrome_table(g, 10000)[9999])
    True
    """
    return x_pow_mod(n, g)


def syndrome_window(g: int, start: int, count: int) -> np.ndarray:
    """``syndrome_table(g, start + count)[start:]`` without the prefix.

    One :func:`syndrome_at` jump lands on position ``start``; the
    table's LFSR loop emits the ``count`` positions from there.

    >>> from repro.hd.syndromes import syndrome_table
    >>> g = 0b1011
    >>> syndrome_window(g, 3, 2).tolist() == syndrome_table(g, 5)[3:].tolist()
    True
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    return _fill(g, np.empty(count, dtype=np.uint64), 0, syndrome_at(g, start))


class SpanCache:
    """One extend-only syndrome table shared by every probe of ``g``.

    All meet-in-the-middle entry points accept a table *longer* than
    the window they scan (they only read positions below the window),
    so one monotonically growing array serves geometric probes,
    bisection midpoints, and all weights of a breakpoint-table build.
    """

    def __init__(self, g: int) -> None:
        self.g = g
        self._syn: np.ndarray | None = None

    def table(self, n_positions: int) -> np.ndarray:
        """A syndrome table covering at least ``n_positions``."""
        if self._syn is None:
            self._syn = syndrome_table(self.g, n_positions)
        elif len(self._syn) < n_positions:
            self._syn = extend_syndrome_table(self.g, self._syn, n_positions)
        return self._syn


#: Cap on the materialized windowed-witness side, C(window-1, k-2).
#: Keeps every windowed probe to one bounded side: the default
#: 400-bit window is fine for k <= 4 but balloons to C(399, 3) at
#: weight 5, which would dwarf the collect-all scan it tries to skip.
_WINDOWED_SIDE_BUDGET = 100_000


def _probe_window(k: int, n: int) -> int:
    """Largest windowed-witness restriction window (<= 400, <= n)
    whose side stays within :data:`_WINDOWED_SIDE_BUDGET`.  A probe
    with it returns a verified weight-``k`` witness within ``n`` bits
    or an inconclusive ``None``."""
    w = min(400, n)
    while w > k + 2 and comb(w - 1, k - 2) > _WINDOWED_SIDE_BUDGET:
        w -= max(1, w // 8)
    return w


def refine_span(
    g: int,
    k: int,
    hi_span: int,
    lo: int,
    syn: np.ndarray,
    *,
    mem_elems: int = DEFAULT_MEM_ELEMS,
    stream_elems: int = DEFAULT_STREAM_ELEMS,
) -> int:
    """Exact minimal weight-``k`` codeword span in ``(lo, hi_span]``.

    Preconditions: a verified codeword of span ``hi_span`` exists, and
    no weight-``k`` codeword fits in ``lo`` bits.

    Binary search with windowed-witness midpoint probes: a hit shrinks
    the upper bound to the found witness's span (not just the
    midpoint) at near-zero cost; a miss proves nothing, so the first
    inconclusive midpoint ends the cheap phase and a single
    collect-all scan of the tightened window delivers the exact
    minimum.  Every avoided collect-all at a loose window saves
    ``O(C(window, k-2))`` streamed elements.
    """
    hi = hi_span
    while hi > lo + 1:
        mid = (lo + hi) // 2
        witness = windowed_witness(
            g, mid, k, window=_probe_window(k, mid), syn=syn, mem_elems=mem_elems
        )
        if witness is None:
            break
        hi = max(witness) + 1
    if hi == lo + 1:
        return hi
    span = minimal_codeword_span(
        g, hi, k, syn=syn, mem_elems=mem_elems, stream_elems=stream_elems
    )
    assert span is not None  # a codeword of span <= hi is in hand
    return span


def first_failure_jump(
    g: int,
    k: int,
    *,
    n_max: int,
    mem_elems: int = DEFAULT_MEM_ELEMS,
    stream_elems: int = DEFAULT_STREAM_ELEMS,
    cache: SpanCache | None = None,
) -> tuple[int | None, int, bool]:
    """First-failure search for one weight ``k >= 3``.

    Returns ``(n, cleared, capped)`` with the exact semantics of
    :class:`repro.hd.breakpoints.FirstFailure` (which wraps it): the
    geometric window schedule, envelope capping, and cleared-length
    bookkeeping replicate the old collect-all loop outcome for
    outcome, while the probes themselves early-exit and the straddled
    breakpoint is bisected (:func:`refine_span`).

    Pass a :class:`SpanCache` to share the syndrome table across
    weights (a breakpoint-table build probes ``k = 2..hd_max`` against
    prefixes of one array).
    """
    if k < 3:
        raise ValueError("first_failure_jump handles k >= 3 (k == 2 is order-based)")
    r = degree(g)
    n_limit = n_max + r
    affordable = max_affordable_window(k, mem_elems, stream_elems)
    # The schedule is part of the contract: capped/cleared outcomes
    # must match the previous engine exactly.
    if k >= 12:
        window = max(2 * k, r + 8)
        growth = 1.25
    elif k >= 9:
        window = max(2 * k, r + 8)
        growth = 1.5
    else:
        window = max(64, 2 * k, r + 2)
        growth = 2.0
    cleared = 0
    if cache is None:
        cache = SpanCache(g)
    while True:
        capped_here = window >= min(affordable, n_limit) and affordable < n_limit
        window = min(window, affordable, n_limit)
        if window - r <= cleared and cleared > 0:
            # no new ground affordable: cap
            return None, cleared, True
        syn = cache.table(window)
        witness = windowed_witness(
            g, window, k,
            window=_probe_window(k, window), syn=syn, mem_elems=mem_elems,
        )
        if witness is not None:
            # The previous window (cleared + r bits) was verified
            # empty, so the minimal span lies in (lo, span(witness)];
            # with no previous window, k positions need k bits.
            lo = cleared + r if cleared > 0 else k - 1
            span = refine_span(
                g, k, max(witness) + 1, lo, syn,
                mem_elems=mem_elems, stream_elems=stream_elems,
            )
        else:
            # Inconclusive windowed probe: the old engine's collect-all
            # scan at the same window, on the shared table.
            try:
                span = minimal_codeword_span(
                    g, window, k,
                    syn=syn, mem_elems=mem_elems, stream_elems=stream_elems,
                )
            except EnvelopeError:  # pragma: no cover - affordable bound guards this
                return None, cleared, True
        if span is not None:
            n = span - r
            if n <= n_max:
                return n, n - 1, False
            return None, n_max, False
        cleared = max(window - r, 0)
        if window >= n_limit:
            return None, min(cleared, n_max), False
        if capped_here:
            return None, cleared, True
        window = int(window * growth) + 1
