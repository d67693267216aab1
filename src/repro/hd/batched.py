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
  :class:`BatchKeys` over the pair values.

Exactness contract: identical to the scalar engines.  Every existence
answer is exact for rows that passed the lower-weight screens first
(the same ascending-``k`` precondition :mod:`repro.hd.mitm` relies
on); condemned rows get their witnesses from the scalar search, so
records match the scalar backend bit for bit.

Requirements: all generators in a batch share one degree ``r`` with
``r <= 63`` (so ``g`` itself fits a machine word), and
``r + ceil(log2(B))`` must not exceed 64 so the composite keys fit
uint64 -- the search driver caps its batch size accordingly.
"""

from __future__ import annotations

import numpy as np

from repro.hd.cost import EnvelopeError

#: Elements of pair-XOR workspace materialized at once by the
#: weight-4/5 kernels (~64 MB of uint64); rows are sub-batched to fit.
PAIR_BUDGET = 8_000_000

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


_PAIR_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_PAIR_CACHE_SLOTS = 8


def _pair_indices(N: int) -> tuple[np.ndarray, np.ndarray]:
    """All pairs ``1 <= a < b < N`` as two index arrays.

    Memoized: a cascade re-enters each stage length once per batch, and
    ``np.triu_indices`` rebuilds cost as much as a whole pair sweep.
    Pair sets above :data:`PAIR_BUDGET` elements are returned uncached
    rather than pinned (callers chunk by the same budget anyway).
    Callers must treat the arrays as read-only.
    """
    hit = _PAIR_CACHE.get(N)
    if hit is not None:
        return hit
    a, b = np.triu_indices(N - 1, k=1)
    a += 1
    b += 1
    if len(a) <= PAIR_BUDGET:
        while len(_PAIR_CACHE) >= _PAIR_CACHE_SLOTS:
            _PAIR_CACHE.pop(next(iter(_PAIR_CACHE)))
        _PAIR_CACHE[N] = (a, b)
    return a, b


def weight4_exists(keys: BatchKeys, rows_mask: np.ndarray) -> np.ndarray:
    """(B,) bool (meaningful where ``rows_mask``): does a weight-4
    codeword fit the window?  Anchored form: pair XOR
    ``syn[a] ^ syn[b]`` equals ``syn[p] ^ 1`` for some single ``p`` --
    exact for rows with no weight-2 codeword in the window (a
    degenerate ``p in {a, b}`` match would need a duplicate syndrome).
    """
    tables = keys.tables
    B, N = tables.shape
    out = np.zeros(B, dtype=bool)
    idx = np.flatnonzero(rows_mask)
    if len(idx) == 0 or N < 4:
        return out
    a, b = _pair_indices(N)
    rows_per = max(1, PAIR_BUDGET // max(len(a), 1))
    r_u = np.uint64(keys.r)
    for i0 in range(0, len(idx), rows_per):
        sub = idx[i0 : i0 + rows_per]
        vals = tables[sub][:, a] ^ tables[sub][:, b]
        qk = (sub.astype(np.uint64) << r_u)[:, None] | (vals ^ np.uint64(1))
        out[sub] = keys.contains(qk).any(axis=1)
    return out


def weight5_exists(keys: BatchKeys, rows_mask: np.ndarray) -> np.ndarray:
    """(B,) bool (meaningful where ``rows_mask``): weight-5 existence
    by (2,2)-split matching ``syn[a] ^ syn[b] ^ 1 == syn[c] ^ syn[d]``.
    Exact for rows already clean of weights 2 and 3 (a shared position
    would collapse the match to a weight-3 codeword)."""
    tables = keys.tables
    B, N = tables.shape
    out = np.zeros(B, dtype=bool)
    idx = np.flatnonzero(rows_mask)
    if len(idx) == 0 or N < 5:
        return out
    a, b = _pair_indices(N)
    rows_per = max(1, PAIR_BUDGET // max(len(a), 1))
    for i0 in range(0, len(idx), rows_per):
        sub = idx[i0 : i0 + rows_per]
        pairs = BatchKeys(tables[sub][:, a] ^ tables[sub][:, b], keys.r)
        out[sub] = pairs.contains(pairs.keys ^ np.uint64(1)).any(axis=1)
    return out
