"""Syndrome sequences ``r_i = x**i mod G``.

An error pattern flipping bit positions ``P = {p1..pk}`` of a codeword
is undetectable iff ``sum_{p in P} x**p`` is divisible by ``G`` --
equivalently iff the XOR of the per-position syndromes ``r_p`` is zero
(paper §3: undetectable errors are themselves codewords).  Every
algorithm in this package therefore starts from the syndrome table.

Positions follow the convention of :mod:`repro.crc.codeword`:
position 0 is the last FCS bit, positions ``0..r-1`` are the FCS
field, positions ``r..n+r-1`` are data bits.
"""

from __future__ import annotations

import numpy as np

from repro.gf2.poly import degree, gf2_mod


def _fill(g: int, out: np.ndarray, start: int, acc: int) -> np.ndarray:
    """Write the syndromes ``acc, x*acc, x**2*acc, ... mod g`` into
    ``out[start:]`` and return ``out``.

    The one LFSR loop of the package, ``r_{i+1} = (r_i << 1) ^ (g if
    top bit set)``, in plain Python: one shift and at most one XOR per
    position.  Requires ``degree(g) <= 64`` so remainders fit a
    machine word.
    """
    r = degree(g)
    if not 1 <= r <= 64:
        raise ValueError(f"generator degree {r} outside supported range 1..64")
    low = g & ((1 << r) - 1)  # generator without its top term
    top = 1 << (r - 1)
    for i in range(start, len(out)):
        out[i] = acc
        if acc & top:
            acc = ((acc ^ top) << 1) ^ low
        else:
            acc <<= 1
    return out


def syndrome_table(g: int, n_positions: int) -> np.ndarray:
    """Return ``uint64`` array ``S`` with ``S[i] = x**i mod g``.

    Requires ``degree(g) <= 64`` so remainders fit a machine word (any
    CRC width through 64 bits -- the paper's r=32 comfortably, and
    also the degree-64 *combined* generators of stacked link+app CRC
    analysis).

    >>> syndrome_table(0b1011, 4).tolist()   # x^3+x+1
    [1, 2, 4, 3]
    """
    if n_positions < 0:
        raise ValueError("n_positions must be non-negative")
    return _fill(g, np.empty(n_positions, dtype=np.uint64), 0, 1)


def extend_syndrome_table(g: int, table: np.ndarray, new_len: int) -> np.ndarray:
    """Grow an existing syndrome table to ``new_len`` positions without
    recomputing the prefix (used by increasing-length filtering)."""
    old_len = len(table)
    if new_len <= old_len:
        return table[:new_len]
    out = np.empty(new_len, dtype=np.uint64)
    out[:old_len] = table
    if not old_len:
        return _fill(g, out, 0, 1)
    # restart from the last stored syndrome, rewriting it unchanged
    return _fill(g, out, old_len - 1, int(table[-1]))


def syndrome_of_positions(g: int, positions: list[int] | tuple[int, ...]) -> int:
    """Exact (big-int) syndrome of an error pattern given by positions.

    Independent of :func:`syndrome_table` -- used to re-verify every
    witness the fast engines produce, and as the oracle in
    property-based tests.

    >>> syndrome_of_positions(0b1011, [0, 1, 3])  # x^3+x+1 itself
    0
    """
    pattern = 0
    for p in positions:
        if p < 0:
            raise ValueError("negative position")
        pattern ^= 1 << p
    return gf2_mod(pattern, g)


def is_undetected_pattern(g: int, positions: list[int] | tuple[int, ...]) -> bool:
    """True iff flipping exactly these codeword positions is an
    undetectable error for generator ``g`` (i.e. the pattern is a
    codeword)."""
    return syndrome_of_positions(g, positions) == 0
