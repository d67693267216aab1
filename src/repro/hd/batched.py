"""Batch screening primitives: B candidates per numpy op.

The filter cascade's cost structure is uniform across generators: every
candidate runs the same LFSR recurrence and the same low-weight
matching -- only the tap constants differ.  The packed search driver
(:mod:`repro.search.packed`) sweeps a batch's ``(B, N)`` syndrome
tables once (:class:`~repro.hd.packed.ValueSweep`) and screens weights
2 and 3 there; this module holds the membership engine and the
weight-4/5 screens, which run on uint64 copies of those tables:

* :class:`BatchKeys` answers set membership -- does value ``v`` occur
  in row ``b``? -- for a whole batch, through one presence filter of
  at most 32 slots per key: indexed directly when the ``B << r`` key
  space fits it, hashed with exact confirmation against the sorted
  keys otherwise.  It is also the only membership test of
  :mod:`repro.hd.mitm`: each meet-in-the-middle side is a one-row
  batch, whose keys are its values, uncopied.
* Weight-4/5 existence (:func:`weight4_exists`, :func:`weight5_exists`)
  uses **composite keys** -- candidate (row) index in the high bits,
  syndrome in the low ``r`` bits -- so one filter lookup over pair-XOR
  keys services the entire batch; weight 5 builds a second
  :class:`BatchKeys` over the pair values.  Both bail out early:
  pairs stream in blocks of ascending larger position ``b``, built
  from contiguous slices, and a row leaves the query set at its first
  hit.  A ``start`` skips the pairs below a window the rows are
  already known to be clean in -- the cascade's previous stage.

Exactness contract: identical to the scalar engines.  Every existence
answer is exact for rows that passed the lower-weight screens first
(the same ascending-``k`` precondition :mod:`repro.hd.mitm` relies
on), and with a ``start``, for rows with no codeword of that weight
in the first ``start`` positions; condemned rows get their witnesses
from the scalar search, so records match the scalar backend bit for
bit.

Requirements: all generators in a batch share one degree ``r`` with
``r <= 63`` (so ``g`` itself fits a machine word), and
``r + ceil(log2(B))`` must not exceed 64 so the composite keys fit
uint64 -- the search driver caps its batch size accordingly.
"""

from __future__ import annotations

from math import isqrt

import numpy as np

from repro.hd.cost import EnvelopeError

#: Pair XORs per streamed weight-4/5 block (1 MiB of uint64), and per
#: weight-5 pair side short of one whole row.
_PAIR_BLOCK = 1 << 17

#: Largest presence filter, in one-byte slots (64 MiB), a
#: :class:`BatchKeys` builds; below it the filter is sized from the
#: batch's key count.
_FILTER_SLOTS = 1 << 26


# ---------------------------------------------------------------------------
# batch screening primitives
# ---------------------------------------------------------------------------


class BatchKeys:
    """Set-membership state for one ``(B, N)`` syndrome batch: does a
    composite key ``(row << r) | value`` name a value in its row?

    One engine answers: a presence filter, one byte per slot, marked at
    every key of the batch.

    The filter holds at most 32 slots per key and at most
    :data:`_FILTER_SLOTS`, so small batches stay cache-sized.

    *Direct* (the ``B << r`` key space fits that room): a key is its
    own slot, so a filter hit is the exact answer.  Keys this dense
    are mostly hits, which a hashed filter would all have to confirm.

    *Hashed* (otherwise): a multiplicative hash of the key picks a slot
    in a power-of-two filter of 16 to 32 slots per key, fewer at the
    cap.  A miss is exact (every key marked its slot); each hit is
    confirmed against the sorted composite keys with ``searchsorted``,
    so every positive is exact too.
    """

    def __init__(self, tables: np.ndarray, r: int) -> None:
        B, N = tables.shape
        if B and r + (B - 1).bit_length() > 64:
            raise EnvelopeError(
                f"composite keys for batch of {B} rows at degree {r} "
                "exceed 64 bits; shrink the batch"
            )
        self.B, self.N, self.r = B, N, r
        self.tables = tables
        #: ``(B, N)`` composite keys ``(row << r) | value``; row 0's
        #: keys are its values, so a one-row batch keeps the table.
        self.keys = tables
        if B > 1:
            rows = np.arange(B, dtype=np.uint64) << np.uint64(r)
            self.keys = rows[:, None] | tables
        room = min(_FILTER_SLOTS, 32 * max(B * N, 1))
        self.hashed = (B << r) > room
        if self.hashed:
            bits = room.bit_length() - 1
            self._shift = np.uint64(64 - bits)
            self._filter = np.zeros(1 << bits, dtype=bool)
            self._sorted = np.sort(self.keys, axis=1).reshape(-1)
        else:
            self._filter = np.zeros(B << r, dtype=bool)
        self._filter[self._slots(self.keys)] = True

    def _slots(self, keys: np.ndarray) -> np.ndarray:
        if not self.hashed:
            return keys
        # Fibonacci hashing: the top bits of the key times 2**64 / phi.
        slots = keys * np.uint64(0x9E3779B97F4A7C15)
        slots >>= self._shift
        return slots

    def contains(self, query_keys: np.ndarray) -> np.ndarray:
        """Element-wise membership of ``query_keys`` (composite keys,
        any shape) in their own row's syndrome set."""
        hit = self._filter[self._slots(query_keys)]
        if self.hashed:
            # Index tuples, not a flattened view: query arrays arrive
            # in either memory order.
            cand = np.nonzero(hit)
            q = query_keys[cand]
            pos = np.searchsorted(self._sorted, q)
            np.minimum(pos, len(self._sorted) - 1, out=pos)
            hit[cand] = self._sorted[pos] == q
        return hit


def _pair_side(tables: np.ndarray) -> np.ndarray:
    """``(R, C(N - 1, 2))``: every pair XOR ``syn[a] ^ syn[b]``,
    ``1 <= a < b < N``, of each row, by ascending ``b`` -- one
    contiguous slice per ``b``."""
    R, N = tables.shape
    side = np.empty((R, (N - 1) * (N - 2) // 2), dtype=tables.dtype)
    off = 0
    for b in range(2, N):
        np.bitwise_xor(
            tables[:, 1:b], tables[:, b, None], out=side[:, off : off + b - 1]
        )
        off += b - 1
    return side


def _block_width(rows: int, b0: int, N: int) -> int:
    """Columns ``b`` of the next pair block: the most ``w`` whose
    ``rows * (b0 - 1 + w) * w`` pairs fit :data:`_PAIR_BLOCK`."""
    room, p = max(_PAIR_BLOCK // rows, 1), b0 - 1
    return max(1, min(N - b0, (isqrt(p * p + 4 * room) - p) // 2))


def _pair_hits(
    contains, tables: np.ndarray, key_rows: np.ndarray, r: int, start: int
) -> np.ndarray:
    """``(R,)`` bool: does ``contains`` hold the composite key
    ``(key_rows[i] << r) | (syn[a] ^ syn[b] ^ 1)`` for some pair
    ``1 <= a < b < N`` of row ``i`` with ``b >= start``?

    Pairs stream in blocks of ascending larger position ``b``: block
    ``[b0, b1)`` is the contiguous-slice product
    ``syn[1:b1, None] ^ syn[None, b0:b1]``.  Its ``a > b`` entries are
    pairs whose larger position is ``a``, in the block too; its
    ``a == b`` diagonal (XOR 0) is masked.  A row leaves the query set
    at its first confirmed hit, so a killable row pays only for the
    blocks up to its first match.
    """
    R, N = tables.shape
    found = np.zeros(R, dtype=bool)
    live = np.arange(R)
    # The row bits and the anchor's 1 ride on the ``a`` operand, so a
    # block is one XOR: ``(row << r | syn[a] ^ 1) ^ syn[b]``.
    marks = (key_rows.astype(np.uint64) << np.uint64(r)) | np.uint64(1)
    t, tq = tables, tables ^ marks[:, None]
    b0 = max(start, 2)
    while b0 < N and len(live):
        w = _block_width(len(live), b0, N)
        b1 = b0 + w
        hit = contains(tq[:, 1:b1, None] ^ t[:, None, b0:b1])
        diag = np.arange(w)
        hit[:, b0 - 1 + diag, diag] = False
        got = hit.any(axis=(1, 2))
        if got.any():
            found[live[got]] = True
            live = live[~got]
            t, tq = t[~got], tq[~got]
        b0 = b1
    return found


def weight4_exists(
    keys: BatchKeys, rows_mask: np.ndarray, start: int = 0
) -> np.ndarray:
    """(B,) bool (meaningful where ``rows_mask``): does a weight-4
    codeword fit the window?  Anchored form: pair XOR
    ``syn[a] ^ syn[b]`` equals ``syn[p] ^ 1`` for some single ``p`` --
    exact for rows with no weight-2 codeword in the window (a
    degenerate ``p in {a, b}`` match would need a duplicate syndrome).

    Only pairs with ``b >= start`` are asked: exact for rows with no
    weight-4 codeword in a ``start``-bit window, whose new codewords
    all hold a position ``>= start`` -- and any of a codeword's three
    non-zero positions can play ``p``, so the other two can be the
    pair holding the largest.
    """
    tables = keys.tables
    B, N = tables.shape
    out = np.zeros(B, dtype=bool)
    idx = np.flatnonzero(rows_mask)
    if len(idx) == 0 or N < 4:
        return out
    out[idx] = _pair_hits(keys.contains, tables[idx], idx, keys.r, start)
    return out


def weight5_exists(
    keys: BatchKeys, rows_mask: np.ndarray, start: int = 0
) -> np.ndarray:
    """(B,) bool (meaningful where ``rows_mask``): weight-5 existence
    by (2,2)-split matching ``syn[a] ^ syn[b] ^ 1 == syn[c] ^ syn[d]``.
    Exact for rows already clean of weights 2 and 3 (a shared position
    would collapse the match to a weight-3 codeword).

    The side holds every pair of the window; only pairs with
    ``b >= start`` are asked of it -- exact, as for
    :func:`weight4_exists`, for rows with no weight-5 codeword in a
    ``start``-bit window: either pair may be the query, so it can be
    the one holding the codeword's largest position.
    """
    tables = keys.tables
    B, N = tables.shape
    out = np.zeros(B, dtype=bool)
    idx = np.flatnonzero(rows_mask)
    if len(idx) == 0 or N < 5:
        return out
    rows_per = max(1, _PAIR_BLOCK // ((N - 1) * (N - 2) // 2))
    for i0 in range(0, len(idx), rows_per):
        sub = idx[i0 : i0 + rows_per]
        t = tables[sub]
        pairs = BatchKeys(_pair_side(t), keys.r)
        out[sub] = _pair_hits(
            pairs.contains, t, np.arange(len(sub)), keys.r, start
        )
    return out
