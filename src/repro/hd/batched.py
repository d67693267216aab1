"""Batch screening primitives: B candidates per numpy op.

The filter cascade's cost structure is uniform across generators: every
candidate runs the same LFSR recurrence and the same low-weight
matching -- only the tap constants differ.  The packed search driver
(:mod:`repro.search.packed`) sweeps a batch's ``(B, N)`` syndrome
tables once (:class:`~repro.hd.packed.ValueSweep`); this module holds
the screens that run on uint64 copies of those tables:

* :class:`BatchKeys` answers weight-3 existence (``syn[p] ^ syn[q] ==
  1``) and membership queries for a whole batch, through a dense
  presence map when ``B << r`` slots fit, sorted keys otherwise.  The
  driver's weight-3 screen runs on it for widths above the composite
  keys' 32-bit value half.
* Weight-4/5 existence (:func:`weight4_exists`, :func:`weight5_exists`)
  uses **composite keys** -- candidate (row) index in the high bits,
  syndrome in the low ``r`` bits -- so a single gather or global
  ``searchsorted`` over pair-XOR keys services the entire batch.

Exactness contract: identical to the scalar engines.  Every existence
answer is exact for rows that passed the lower-weight screens first
(the same ascending-``k`` precondition :mod:`repro.hd.mitm` relies
on), and witness extraction replicates the scalar selection rule, so
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

    One uint8 array marks which ``(row << r) | syndrome`` slots are
    occupied *this stage*: a slot is present iff it holds the current
    epoch stamp.  A new screening stage *bumps the epoch* instead of
    clearing the map -- entries written by earlier stages simply stop
    matching -- so the allocation (``np.zeros``, lazily paged) and the
    invalidation are both free; only the ``B * N`` slots actually
    present are ever written.  One byte per slot keeps the hot
    footprint small enough to stay cache-resident for the random
    scatter/gather traffic.
    """

    MAX_EPOCH = (1 << 8) - 1

    def __init__(self, elems: int) -> None:
        self.array = np.zeros(elems, dtype=np.uint8)
        self._positions: np.ndarray | None = None
        self._epoch = 0

    @property
    def positions(self) -> np.ndarray:
        """Companion uint16 plane for witness extraction: position of
        the syndrome occupying a slot.  Never cleared -- a slot's value
        is meaningful only where ``array`` carries the current epoch
        *and* the caller re-scattered the rows it queries this stage --
        so ``np.empty`` suffices, allocated on first use (screens that
        never extract witnesses never pay for it)."""
        if self._positions is None:
            self._positions = np.empty(len(self.array), dtype=np.uint16)
        return self._positions

    def next_epoch(self) -> int:
        self._epoch += 1
        if self._epoch > self.MAX_EPOCH:
            # One full clear every 255 stages: amortized to nothing.
            self.array.fill(0)
            self._epoch = 1
        return self._epoch


# ---------------------------------------------------------------------------
# batch screening primitives
# ---------------------------------------------------------------------------


class BatchKeys:
    """Screening state for one ``(B, N)`` syndrome batch.

    Two interchangeable engines answer the same exact questions:

    *Dense presence map* (borrowed :class:`PositionMap` workspace,
    fitting ``B << r`` slots): slot ``(row << r) | value`` carries the
    stage's epoch stamp iff the value occurs in the row --
    construction scatters the ``B * N`` present slots and nothing is
    ever cleared.  Weight-3 existence (``syn[p] ^ syn[q] == 1``) is a
    gather at ``value ^ 1`` and the pair screens query membership with
    one gather each -- no sorting anywhere.  (Witness *extraction*
    needs positions, not just presence, so it runs the sorted-key
    machinery -- on the already-condemned rows only.)

    *Sorted keys* (fallback above :data:`BITMAP_BUDGET`): a row-wise
    sort makes weight-3 partners -- consecutive integers -- *adjacent*
    entries XORing to 1; the pair screens lift rows into composite keys
    ``(row << r) | syndrome``, whose row-major flattening is globally
    sorted, so one ``searchsorted`` serves the whole batch.
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
        self._workspace = workspace
        self._inv: np.ndarray | None = None
        self._epoch = np.uint8(0)
        self._idx: np.ndarray | None = None
        self._w3_hit: np.ndarray | None = None
        self._sorted_syn: np.ndarray | None = None
        self._adj: np.ndarray | None = None
        self._flat: np.ndarray | None = None
        if workspace is not None and B and N and (B << r) <= len(
            workspace.array
        ):
            self._epoch = np.uint8(workspace.next_epoch())
            # intp composite indices, built once and reused by the
            # partner gather (`idx ^ 1`): fancy indexing then skips the
            # internal uint64 -> intp cast on every access.
            self._idx = (np.arange(B, dtype=np.intp) << r)[
                :, None
            ] | tables.view(np.int64).astype(np.intp, copy=False)
            inv = workspace.array
            inv[self._idx.reshape(-1)] = self._epoch
            self._inv = inv

    # -- sorted-key fallback state (built on demand) -------------------

    @property
    def sorted_syn(self) -> np.ndarray:
        if self._sorted_syn is None:
            self._sorted_syn = np.sort(self.tables, axis=1)
        return self._sorted_syn

    @property
    def _adjacent_xor(self) -> np.ndarray:
        if self._adj is None:
            if self.N >= 2:
                self._adj = self.sorted_syn[:, 1:] ^ self.sorted_syn[:, :-1]
            else:
                self._adj = np.empty((self.B, 0), dtype=np.uint64)
        return self._adj

    def flat_keys(self) -> np.ndarray:
        """The globally sorted composite-key array (built on demand)."""
        if self._flat is None:
            rows = np.arange(self.B, dtype=np.uint64) << np.uint64(self.r)
            self._flat = (rows[:, None] | self.sorted_syn).ravel()
        return self._flat

    def contains(self, query_keys: np.ndarray) -> np.ndarray:
        """Element-wise membership of ``query_keys`` (composite keys,
        any shape) in their own row's syndrome set."""
        if self._inv is not None:
            return self._inv[query_keys] == self._epoch
        flat = self.flat_keys()
        q = query_keys.ravel()
        if len(flat) == 0 or len(q) == 0:
            return np.zeros(query_keys.shape, dtype=bool)
        idx = np.searchsorted(flat, q)
        np.minimum(idx, len(flat) - 1, out=idx)
        return (flat[idx] == q).reshape(query_keys.shape)

    # -- screens -------------------------------------------------------

    def weight3_rows(self) -> np.ndarray:
        """(B,) bool: rows where some ``syn[p] ^ syn[q] == 1`` -- i.e.
        ``{0, p, q}`` is a weight-3 codeword (anchored form; position 0
        can never participate, since its syndrome is 1 and a partner
        would need the never-occurring syndrome 0).  Exact on rows
        without duplicate syndromes -- the cascade's ascending-weight
        precondition."""
        if self._inv is not None:
            assert self._idx is not None
            if self._w3_hit is None:
                self._w3_hit = (
                    np.take(self._inv, self._idx ^ 1) == self._epoch
                )
            return self._w3_hit.any(axis=1)
        return (self._adjacent_xor == np.uint64(1)).any(axis=1)

    def weight3_witnesses(
        self, rows: np.ndarray, window: int
    ) -> list[tuple[int, int, int] | None]:
        """Weight-3 witnesses for the given (weight-2-clean) rows,
        replicating the scalar :func:`~repro.hd.mitm.windowed_witness`
        choice exactly; ``None`` where every match needs a partner at
        or beyond ``window`` (callers fall back to the full search).

        With the presence map active, positions come from a companion
        uint16 plane scattered for just the requested rows -- presence
        proves a partner exists, the plane says *where*; a gathered
        position is trusted only where presence holds, so the plane is
        never cleared.  Without the map (or with positions overflowing
        uint16) the sorted-key extraction runs on the requested rows.
        """
        m = len(rows)
        if (
            self._inv is None
            or self._w3_hit is None
            or self.N > 0xFFFF
            or m == 0
        ):
            return weight3_witnesses(self.tables[rows], window)
        assert self._idx is not None and self._workspace is not None
        w = min(window, self.N)
        idx_r = self._idx[rows]
        pos = self._workspace.positions
        pos[idx_r] = np.arange(self.N, dtype=np.uint16)[None, :]
        p = np.take(pos, idx_r ^ 1)
        ok = self._w3_hit[rows] & (p < w)
        has = ok.any(axis=1)
        b = ok.argmax(axis=1)
        pp = p[np.arange(m), b]
        return [
            tuple(sorted((0, int(pp[i]), int(b[i])))) if has[i] else None
            for i in range(m)
        ]


def weight3_witnesses(
    tables: np.ndarray, window: int
) -> list[tuple[int, int, int] | None]:
    """Extract a weight-3 witness per row, replicating the scalar
    :func:`~repro.hd.mitm.windowed_witness` choice exactly: the first
    position ``b`` (ascending) whose syndrome matches some
    ``syn[p] ^ 1`` with ``p < window``.  Rows whose only matches need
    ``p >= window`` get ``None`` (the caller falls back to the full
    witness search, like the scalar cascade does).

    All partner pairs fall out of one argsort per row: partners are
    consecutive integers, hence adjacent in sort order.  ``p`` is
    unique per ``b`` because the rows are weight-2 clean (distinct
    syndromes) -- the precondition the ascending-weight cascade
    guarantees.
    """
    R, N = tables.shape
    w = min(window, N)
    order = np.argsort(tables, axis=1, kind="stable")
    sv = np.take_along_axis(tables, order, axis=1)
    adj = (sv[:, 1:] ^ sv[:, :-1]) == np.uint64(1)
    hit_row, hit_col = np.nonzero(adj)
    pos_a = order[hit_row, hit_col]
    pos_b = order[hit_row, hit_col + 1]
    best_b: list[int | None] = [None] * R
    best_p: list[int] = [0] * R
    for i, pa, pb in zip(hit_row.tolist(), pos_a.tolist(), pos_b.tolist()):
        for b, p in ((pa, pb), (pb, pa)):
            # b >= 1 and p >= 1 hold automatically: position 0 has
            # syndrome 1, whose partner would be syndrome 0, which
            # never occurs.
            bb = best_b[i]
            if p < w and (bb is None or b < bb):
                best_b[i], best_p[i] = b, p
    return [
        None if b is None else tuple(sorted((0, best_p[i], b)))
        for i, b in enumerate(best_b)
    ]


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


_W5_SCRATCH = np.empty(0, dtype=np.uint8)
_W5_EPOCH = 0


def _w5_present_buffer(size: int) -> tuple[np.ndarray, np.uint8]:
    """Reusable presence plane for the weight-5 bitmap match.

    The buffer is epoch-stamped instead of re-zeroed (same trick as
    :class:`PositionMap`): an entry is "present" iff it holds the
    current epoch, so consecutive cascade stages and batches reuse one
    allocation with no clearing scatter; a bulk wipe happens only when
    the ``uint8`` epoch wraps.
    """
    global _W5_SCRATCH, _W5_EPOCH
    if len(_W5_SCRATCH) < size:
        _W5_SCRATCH = np.zeros(size, dtype=np.uint8)
        _W5_EPOCH = 0
    _W5_EPOCH += 1
    if _W5_EPOCH == 256:
        _W5_SCRATCH[:] = 0
        _W5_EPOCH = 1
    return _W5_SCRATCH, np.uint8(_W5_EPOCH)


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
    use_bitmap = keys._inv is not None
    for i0 in range(0, len(idx), rows_per):
        sub = idx[i0 : i0 + rows_per]
        m = len(sub)
        vals = tables[sub][:, a] ^ tables[sub][:, b]
        pk = (np.arange(m, dtype=np.uint64) << r_u)[:, None] | vals
        if use_bitmap:
            # Pair values live in the same 2**r space as singles: one
            # scatter of the pair set, one gather at ``value ^ 1``.
            present, epoch = _w5_present_buffer(m << keys.r)
            present[pk.ravel()] = epoch
            out[sub] = (
                present[(pk ^ np.uint64(1)).ravel()] == epoch
            ).reshape(m, P).any(axis=1)
        else:
            flat = np.sort(pk, axis=1).ravel()
            q = (pk ^ np.uint64(1)).ravel()
            pos = np.searchsorted(flat, q)
            np.minimum(pos, len(flat) - 1, out=pos)
            out[sub] = (flat[pos] == q).reshape(m, P).any(axis=1)
    return out
