"""The candidate space of r-bit CRC generator polynomials.

A useful degree-r generator has its ``x**r`` term (by definition of
degree) and its ``+1`` term (otherwise it is ``x * G'`` and wastes a
bit), leaving ``2**(r-1)`` candidates.  Reciprocal polynomials have
identical weight distributions [Peterson72], so only one per pair need
be evaluated -- the paper's reduction to "approximately 2**30 distinct
32-bit CRC polynomials ... a few more than 2**30 because palindromes
are self-reciprocal".

This module provides dense integer indexing of the raw space (for
work partitioning across the distributed campaign) and canonical
filtering (each reciprocal pair surfaces exactly once).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.gf2.poly import reciprocal


def index_to_poly(index: int, width: int) -> int:
    """Map a dense index in ``[0, 2**(width-1))`` to the full
    polynomial encoding: bits 1..width-1 come from the index, the
    ``x**width`` and ``+1`` bits are fixed.

    >>> hex(index_to_poly(0x82608EDB & 0x7FFFFFFF, 32))
    '0x104c11db7'
    """
    if not 0 <= index < (1 << (width - 1)):
        raise ValueError(f"index {index} out of range for width {width}")
    return (1 << width) | (index << 1) | 1


def poly_to_index(p: int, width: int) -> int:
    """Inverse of :func:`index_to_poly`."""
    expected_top = 1 << width
    if p & 1 == 0 or not (p & expected_top) or p >> (width + 1):
        raise ValueError(f"{p:#x} is not a width-{width} candidate")
    return (p >> 1) & ((1 << (width - 1)) - 1)


def candidate_polys(width: int) -> Iterator[int]:
    """All ``2**(width-1)`` candidate generators of the given width,
    in dense-index order (no reciprocal dedup)."""
    for index in range(1 << (width - 1)):
        yield index_to_poly(index, width)


def canonical(p: int) -> int:
    """Canonical representative of a reciprocal pair: the numerically
    smaller encoding.  Self-reciprocal (palindromic) polynomials are
    their own representative.

    >>> canonical(0x104C11DB7) == min(0x104C11DB7, 0x1DB710641)
    True
    """
    return min(p, reciprocal(p))


def is_canonical(p: int) -> bool:
    """True iff ``p`` is its reciprocal pair's representative."""
    return p <= reciprocal(p)


def canonical_candidates(
    width: int, start_index: int = 0, end_index: int | None = None
) -> Iterator[int]:
    """Candidates in the dense-index range ``[start_index, end_index)``
    that are canonical -- the stream a search worker actually
    evaluates.  Partitioning by index range keeps chunk boundaries
    trivially disjoint across workers."""
    if end_index is None:
        end_index = 1 << (width - 1)
    for index in range(start_index, end_index):
        p = index_to_poly(index, width)
        if is_canonical(p):
            yield p


#: Bit-reversal of each byte value, for the vectorized reciprocal.
_REV8 = np.array(
    [int(f"{b:08b}"[::-1], 2) for b in range(256)], dtype=np.uint64
)


def index_range_polys(
    width: int, start_index: int, end_index: int
) -> np.ndarray:
    """The dense index range ``[start_index, end_index)`` as a uint64
    array of full polynomial encodings -- :func:`index_to_poly`
    vectorized (requires ``width <= 63`` so encodings fit uint64)."""
    if not 0 <= start_index <= end_index <= (1 << (width - 1)):
        raise ValueError(
            f"index range [{start_index}, {end_index}) out of bounds "
            f"for width {width}"
        )
    idx = np.arange(start_index, end_index, dtype=np.uint64)
    return (idx << np.uint64(1)) | np.uint64((1 << width) | 1)


def canonical_mask(width: int, polys: np.ndarray) -> np.ndarray:
    """Vectorized :func:`is_canonical` over an array of width-``width``
    candidate encodings: True where the polynomial is its reciprocal
    pair's representative.

    The reciprocal of a degree-``width`` candidate is its bit-reversal
    over ``width + 1`` bits (both end bits are set, so the bit length
    is fixed); a byte-table compose reverses the whole batch without a
    Python-level loop.
    """
    rev = np.zeros_like(polys)
    # The width + 1 encoding bits span (width + 8) // 8 bytes; going
    # one further would shift by a negative amount at widths 56-63.
    for byte in range((width + 8) // 8):
        chunk = (polys >> np.uint64(8 * byte)) & np.uint64(0xFF)
        rev |= _REV8[chunk.astype(np.intp)] << np.uint64(56 - 8 * byte)
    rev >>= np.uint64(64 - (width + 1))
    return polys <= rev


def candidate_count(width: int) -> dict[str, int]:
    """Exact sizes of the width-r space: raw candidates, palindromes,
    and canonical representatives.

    Palindromes over ``width+1`` bits with both end bits set: the
    ``width-1`` interior bits are mirrored in pairs (with a free
    center bit when ``width`` is even), giving ``2**(width//2)`` of
    them.  Canonicals = (raw - palindromes)/2 + palindromes -- the
    paper's exact 1,073,774,592 ("a few more than 2**30") at width 32.

    >>> candidate_count(32)['canonical']
    1073774592
    """
    raw = 1 << (width - 1)
    palindromes = 1 << (width // 2)
    return {
        "raw": raw,
        "palindromes": palindromes,
        "canonical": (raw - palindromes) // 2 + palindromes,
    }
