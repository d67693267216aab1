"""Cost models for weight evaluation, and the envelope guard.

The paper's §4.1 reasons explicitly about evaluation cost -- e.g. that
filtering for HD>4 at 1024 bits is "almost 17,500 times faster" than at
12112 bits because the work grows as ``(n+r)**4``.  These estimators
reproduce that cost model for the reference engine, give the
corresponding model for the meet-in-the-middle engine, and provide the
:class:`EnvelopeError` raised when an exact computation would exceed
the work envelope (so the library never silently approximates).

This module is the one home of that envelope: the budgets below are
read from it at call time by every check in :mod:`repro.hd` and the
search drivers, and no function takes a budget argument.  Code that
needs another envelope -- a benchmark's tighter one, a test's tiny
one -- rebinds the module attribute for the duration (for example
``unittest.mock.patch.object(cost, "MEM_ELEMS", 10**6)``), and every
caller moves with it.
"""

from __future__ import annotations

from math import comb


class EnvelopeError(RuntimeError):
    """Raised when an exact computation would exceed the configured
    work/memory envelope.

    The library's exactness contract forbids silently degrading to an
    approximation; callers catch this and either raise the envelope
    (e.g. ``REPRO_FULL=1`` benchmarks) or report the cell as
    not-computed.
    """


def enumeration_cost(codeword_bits: int, k: int) -> int:
    """Number of k-bit patterns the paper's enumeration engine examines
    in the worst case: ``C(n+r, k)`` (paper §3's combinatorial count).

    >>> enumeration_cost(12144, 4)   # the paper's "906 10^12"
    905776814103876
    """
    return comb(codeword_bits, k)


def enumeration_speedup(short_bits: int, long_bits: int, k: int = 4) -> float:
    """Cost ratio of filtering at a longer vs shorter length -- the
    paper's "filtering at 1024 bits is ~17,500x faster than at 12112
    bits" claim (data words; +32 FCS bits each).

    >>> round(enumeration_speedup(1024 + 32, 12112 + 32, 4))
    17581
    """
    return enumeration_cost(long_bits, k) / enumeration_cost(short_bits, k)


def mitm_cost(codeword_bits: int, k: int) -> int:
    """Work of the anchored meet-in-the-middle check for weight ``k``:
    the size of the streamed (larger) side, ``C(N-1, ceil((k-1)/2))``.
    """
    if k <= 2:
        return codeword_bits
    return comb(codeword_bits - 1, (k - 1 + 1) // 2)


def mitm_sorted_side(codeword_bits: int, k: int) -> int:
    """Memory (in elements) of the materialized smaller side:
    ``C(N-1, (k-1)//2)``."""
    if k <= 2:
        return codeword_bits
    return comb(codeword_bits - 1, (k - 1) // 2)


# The envelope.  The memory cap is sized for a ~15 GB machine: at
# the cap a hashed side (8 bytes/element, 5.6 GB) plus its sorted copy
# (5.6 GB) plus a 64 MiB presence filter peaks near 11.3 GB, more than
# an 8 GB host holds -- there a check near the cap fails for memory
# before the guard trips.  The streamed side is pure compute time.
MEM_ELEMS = 700_000_000        # elements of a materialized side
STREAM_ELEMS = 30_000_000_000  # a few minutes of membership queries

# Largest fully-materialized combination-XOR array (elements) for the
# level-wise generator; streaming sides deeper than s=3 must fit this,
# and so must the W5/W6 counters' triple table.
LEVELWISE_CAP = 60_000_000

# The windowed witness's restriction window (bits): the screens and
# the HD drivers look for a cheap proof {0, b} | S with S inside it.
WITNESS_WINDOW = 400

# An HD driver skips the windowed witness when the exact scan is this
# cheap (side and stream elements), and otherwise halves the window
# until the witness side fits WINDOWED_SIDE.
CHEAP_SIDE = 2_000_000
CHEAP_STREAM = 20_000_000
WINDOWED_SIDE = 30_000_000

# Side cap of a breakpoint probe's windowed witness: the window shrinks
# below WITNESS_WINDOW until C(window - 1, k - 2) fits it, so a probe's
# side never dwarfs the collect-all scan it tries to skip.
PROBE_SIDE = 100_000


def _stream_depth(k: int) -> int:
    """Subset size of the streamed (large) side for a weight-k check."""
    return (k - 1) - (k - 1) // 2


def max_affordable_window(k: int) -> int:
    """Largest codeword window (bits) at which an exact weight-k check
    fits the envelope -- used by breakpoint probes to extract the most
    information before capping a high-weight scan."""
    depth = _stream_depth(k)

    def fits(n: int) -> bool:
        if mitm_sorted_side(n, k) > MEM_ELEMS:
            return False
        if mitm_cost(n, k) > STREAM_ELEMS:
            return False
        # Deep streamed sides (s >= 4) are generated group-by-max from
        # a materialized level s-1, which must fit its own cap.
        if depth >= 4 and comb(n - 1, depth - 1) > LEVELWISE_CAP:
            return False
        return True

    lo, hi = k, 1 << 24
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if fits(mid):
            lo = mid
        else:
            hi = mid - 1
    return lo


def check_envelope(codeword_bits: int, k: int) -> None:
    """Raise :class:`EnvelopeError` if an exact weight-k check at this
    window size exceeds the envelope."""
    mem = mitm_sorted_side(codeword_bits, k)
    if mem > MEM_ELEMS:
        raise EnvelopeError(
            f"weight-{k} check at {codeword_bits} bits needs a sorted side of "
            f"{mem:.3g} elements (> {MEM_ELEMS:.3g} allowed)"
        )
    work = mitm_cost(codeword_bits, k)
    if work > STREAM_ELEMS:
        raise EnvelopeError(
            f"weight-{k} check at {codeword_bits} bits streams {work:.3g} "
            f"elements (> {STREAM_ELEMS:.3g} allowed)"
        )
