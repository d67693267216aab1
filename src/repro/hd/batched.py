"""Batch screening primitives: B candidates per numpy op.

The filter cascade's cost structure is uniform across generators: every
candidate runs the same LFSR recurrence and the same low-weight
matching -- only the tap constants differ.  The packed search driver
(:mod:`repro.search.packed`) sweeps a batch's ``(B, N)`` syndrome
tables once (:class:`~repro.hd.packed.ValueSweep`) and screens weights
2 and 3 there; this module holds the weight-4/5 screens, which run on
uint64 copies of those tables:

* :class:`BatchKeys` answers set membership -- does value ``v`` occur
  in row ``b``? -- for a whole batch, through a dense presence map
  (:class:`PositionMap`) when ``B << r`` slots fit, sorted keys
  otherwise.
* Weight-4/5 existence (:func:`weight4_exists`, :func:`weight5_exists`)
  uses **composite keys** -- candidate (row) index in the high bits,
  syndrome in the low ``r`` bits -- so a single gather or global
  ``searchsorted`` over pair-XOR keys services the entire batch.

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

#: Largest dense presence-map (``B << r`` elements, one byte each) the
#: batch screens may allocate.  Within it, every screen is a
#: scatter/gather over the 2**r possible syndrome values -- no sorting
#: at all; beyond it (large degree x large batch) the sorted-key
#: screens take over.
BITMAP_BUDGET = 1 << 26


class PositionMap:
    """Reusable presence-map workspace for the dense batch screens.

    One uint8 array marks which ``(row << r) | value`` slots are
    occupied *this stage*: a slot is present iff it holds the current
    epoch stamp.  Each :meth:`mark` *bumps the epoch* instead of
    clearing the map -- entries written by earlier marks simply stop
    matching -- so the allocation (``np.zeros``, lazily paged) and the
    invalidation are both free; only the slots actually present are
    ever written.  One byte per slot keeps the hot footprint small
    enough to stay cache-resident for the random scatter/gather
    traffic.  A mark invalidates every earlier one, so one map serves
    one reader at a time.
    """

    MAX_EPOCH = (1 << 8) - 1

    def __init__(self, elems: int) -> None:
        self.array = np.zeros(elems, dtype=np.uint8)
        self._epoch = 0

    def mark(self, slots: np.ndarray) -> np.uint8:
        """Start a new epoch with exactly ``slots`` present; returns
        the stamp a slot holds iff it is present."""
        self._epoch += 1
        if self._epoch > self.MAX_EPOCH:
            # One full clear every 255 marks: amortized to nothing.
            self.array.fill(0)
            self._epoch = 1
        epoch = np.uint8(self._epoch)
        self.array[slots] = epoch
        return epoch


# ---------------------------------------------------------------------------
# batch screening primitives
# ---------------------------------------------------------------------------


class BatchKeys:
    """Set-membership state for one ``(B, N)`` syndrome batch: does a
    composite key ``(row << r) | value`` name a value in its row?

    Two interchangeable engines answer the same exact question:

    *Dense presence map* (borrowed :class:`PositionMap` workspace,
    fitting ``B << r`` slots): construction marks the ``B * N`` present
    slots, and :meth:`contains` is one gather -- no sorting anywhere.

    *Sorted keys* (fallback above :data:`BITMAP_BUDGET`): a row-wise
    sort lifts rows into composite keys whose row-major flattening is
    globally sorted, so one ``searchsorted`` serves the whole batch.

    :func:`weight5_exists` re-marks the map for its pair values; it
    takes the map over (:meth:`take_map`), so the keys answer from the
    sorted engine from then on and never from a re-stamped plane.
    """

    def __init__(
        self,
        tables: np.ndarray,
        r: int,
        workspace: "PositionMap | None" = None,
    ) -> None:
        B, N = tables.shape
        if B and r + max((B - 1).bit_length(), 1) > 64:
            raise EnvelopeError(
                f"composite keys for batch of {B} rows at degree {r} "
                "exceed 64 bits; shrink the batch"
            )
        self.B, self.N, self.r = B, N, r
        self.tables = tables
        self._map: PositionMap | None = None
        self._epoch = np.uint8(0)
        self._sorted_syn: np.ndarray | None = None
        self._flat: np.ndarray | None = None
        if workspace is not None and B and N and (B << r) <= len(
            workspace.array
        ):
            # intp composite indices: fancy indexing then skips the
            # internal uint64 -> intp cast.
            idx = (np.arange(B, dtype=np.intp) << r)[:, None] | tables.view(
                np.int64
            ).astype(np.intp, copy=False)
            self._epoch = workspace.mark(idx.reshape(-1))
            self._map = workspace

    def take_map(self) -> "PositionMap | None":
        """Hand the presence map to a caller that will re-mark it; the
        keys answer from sorted keys from then on."""
        workspace, self._map = self._map, None
        return workspace

    # -- sorted-key fallback state (built on demand) -------------------

    @property
    def sorted_syn(self) -> np.ndarray:
        if self._sorted_syn is None:
            self._sorted_syn = np.sort(self.tables, axis=1)
        return self._sorted_syn

    def flat_keys(self) -> np.ndarray:
        """The globally sorted composite-key array (built on demand)."""
        if self._flat is None:
            rows = np.arange(self.B, dtype=np.uint64) << np.uint64(self.r)
            self._flat = (rows[:, None] | self.sorted_syn).ravel()
        return self._flat

    def contains(self, query_keys: np.ndarray) -> np.ndarray:
        """Element-wise membership of ``query_keys`` (composite keys,
        any shape) in their own row's syndrome set."""
        if self._map is not None:
            return self._map.array[query_keys] == self._epoch
        flat = self.flat_keys()
        q = query_keys.ravel()
        if len(flat) == 0 or len(q) == 0:
            return np.zeros(query_keys.shape, dtype=bool)
        idx = np.searchsorted(flat, q)
        np.minimum(idx, len(flat) - 1, out=idx)
        return (flat[idx] == q).reshape(query_keys.shape)


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
    P = len(a)
    rows_per = max(1, PAIR_BUDGET // max(P, 1))
    r_u = np.uint64(keys.r)
    workspace = keys.take_map()
    for i0 in range(0, len(idx), rows_per):
        sub = idx[i0 : i0 + rows_per]
        m = len(sub)
        vals = tables[sub][:, a] ^ tables[sub][:, b]
        pk = (np.arange(m, dtype=np.uint64) << r_u)[:, None] | vals
        if workspace is not None:
            # Pair values live in the same 2**r space as singles, and
            # m <= B rows fit the keys' map: one mark of the pair set,
            # one gather at ``value ^ 1``.
            epoch = workspace.mark(pk.ravel())
            out[sub] = (
                workspace.array[(pk ^ np.uint64(1)).ravel()] == epoch
            ).reshape(m, P).any(axis=1)
        else:
            flat = np.sort(pk, axis=1).ravel()
            q = (pk ^ np.uint64(1)).ravel()
            pos = np.searchsorted(flat, q)
            np.minimum(pos, len(flat) - 1, out=pos)
            out[sub] = (flat[pos] == q).reshape(m, P).any(axis=1)
    return out
