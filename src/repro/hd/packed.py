"""Packed screening kernels: one narrow-value sweep per batch.

The cascade's screens need one syndrome value per candidate per
position, and under CPython the binding cost of producing them is
per-step numpy *dispatch*, not arithmetic.  So this module carries a
batch's LFSR register states in the **narrowest** unsigned dtype that
holds an ``r``-bit syndrome (uint16 for ``r <= 16``, uint32 to 32,
uint64 to :data:`PACKED_MAX_WIDTH`) as one position-major buffer
(:class:`ValueSweep`), advanced four in-place ops per position, and
every screen reads slices of that one buffer.

Narrow-register sweeps exploit dtype wraparound: with ``g`` truncated
to the value dtype, ``acc = (acc << 1) ^ (top * g)`` cancels the
``x**r`` term either explicitly (``r`` < dtype bits: ``g``'s top bit
is in range) or by overflow (``r`` == dtype bits), bit-identical to
the arbitrary-precision recurrence.

For weight 3 (``r <= 32``) ``(value << pos_bits) | position`` packs a
*composite key* into one uint32 or uint64 (:func:`composite_from_values`).
One SIMD row sort then makes weight-3 partners -- consecutive integer
values -- adjacent entries whose XOR's high half is exactly 1, and the
position payload rides along for free, so witness extraction never
re-sorts (:func:`weight3_witnesses_packed`).  Wider registers leave no
room for the position beside the value; the search driver screens
their weight 3 with :class:`~repro.hd.batched.BatchKeys` instead.

Exactness contract: identical to the scalar cascade -- same screens,
same witness selection rules, same ascending-weight preconditions.
The packed search driver (:mod:`repro.search.packed`) is
differentially tested against the scalar oracle on full canonical
spaces and on sampled index ranges up to width 63.
"""

from __future__ import annotations

import numpy as np

from repro.hd.cost import EnvelopeError

#: Largest degree the packed kernels accept: the generator's full
#: ``r + 1``-bit encoding must fit a uint64 lane.
PACKED_MAX_WIDTH = 63

#: Largest degree whose syndrome values fit the uint32 half of a
#: 64-bit composite key (and whose GF(2) products fit a uint64 lane,
#: which the sliced sweep's jump-start needs).
COMPOSITE_MAX_WIDTH = 32

#: Elements of composite-key workspace materialized at once by the
#: weight-3 screen (uint32/uint64 each); the search driver sub-batches
#: candidate rows to fit.
COMPOSITE_BUDGET = 1 << 26


#: Independent position slices the carried sweep advances in lockstep.
#: Each slice's start state is jump-started with vectorized GF(2)
#: exponentiation, so a segment of ``seg`` positions costs
#: ``ceil(seg / _SWEEP_SLICES)`` interpreter-dispatched steps instead
#: of ``seg`` -- under CPython the dispatch count, not the arithmetic,
#: is the binding cost of the whole cascade.
_SWEEP_SLICES = 16

#: Rows per block of the weight-2 first-one scan: the segment min-scan
#: runs block-wise so hit extraction only re-reads the one block that
#: contains a lane's first ``register == 1``, not the whole segment.
_DETECT_BLOCK = 256

#: Segments at or below this length skip the slice machinery: the
#: exponentiation overhead (~a couple ms) outweighs the saved steps.
_SLICE_MIN_SEGMENT = 256

#: Rows per tile of the transposing :meth:`ValueSweep.values` copy --
#: sized so a tile stays cache-resident while its columns scatter.
_TILE_ROWS = 256


def _reduce_vec(prod: np.ndarray, g64: np.ndarray, r: int) -> np.ndarray:
    """Reduce per-lane GF(2) products of degree ``< 2r - 1`` mod each
    lane's ``g`` (uint64 lanes, ``r <= 32``)."""
    for i in range(2 * r - 2, r - 1, -1):
        prod ^= ((prod >> np.uint64(i)) & np.uint64(1)) * (g64 << np.uint64(i - r))
    return prod


def _mulmod_vec(a: np.ndarray, b: np.ndarray, g64: np.ndarray, r: int) -> np.ndarray:
    """Per-lane ``(a * b) mod g`` for degree-``< r`` operands."""
    prod = np.zeros_like(a)
    for i in range(r):
        prod ^= ((a >> np.uint64(i)) & np.uint64(1)) * (b << np.uint64(i))
    return _reduce_vec(prod, g64, r)


def _square_vec(a: np.ndarray, g64: np.ndarray, r: int) -> np.ndarray:
    """Per-lane ``a**2 mod g``: squaring over GF(2) is ``a(x^2)``, a
    bit spread, so no cross products are needed."""
    v = a.copy()
    v = (v | (v << np.uint64(16))) & np.uint64(0x0000FFFF0000FFFF)
    v = (v | (v << np.uint64(8))) & np.uint64(0x00FF00FF00FF00FF)
    v = (v | (v << np.uint64(4))) & np.uint64(0x0F0F0F0F0F0F0F0F)
    v = (v | (v << np.uint64(2))) & np.uint64(0x3333333333333333)
    v = (v | (v << np.uint64(1))) & np.uint64(0x5555555555555555)
    return _reduce_vec(v, g64, r)


def _x_pow_mod_vec(e: int, g64: np.ndarray, r: int) -> np.ndarray:
    """Per-lane ``x**e mod g`` by square-and-multiply (uint64 lanes).

    The lane-parallel cousin of :func:`repro.gf2.poly.x_pow_mod`: a
    few hundred whole-batch word ops regardless of ``e``.
    """
    acc = np.ones_like(g64)
    for bit in format(e, "b") if e else "":
        acc = _square_vec(acc, g64, r)
        if bit == "1":
            acc <<= np.uint64(1)
            acc ^= ((acc >> np.uint64(r)) & np.uint64(1)) * g64
    return acc


class ValueSweep:
    """Carried narrow-register value sweep for one batch: the
    ``(capacity, B)`` position-major syndrome value table, filled
    incrementally as the cascade's stages ask for longer windows, with
    weight-2 detection amortized over whole segments.

    This is what the packed search driver runs
    (:mod:`repro.search.packed`).  A value step is 4 in-place calls on
    narrow rows, and everything downstream -- weight-2 first-one
    detection, composite keys, weight-4/5 tables, survivor tables --
    is sliced out of the one materialized buffer instead of
    re-sweeping.  For ``r <= 32`` each long segment is advanced as
    :data:`_SWEEP_SLICES` independent position ranges in lockstep --
    their start states jump-started by :func:`_x_pow_mod_vec` -- so
    the dispatched step count drops by that factor again; wider
    registers step serially, since the jump-start's GF(2) products
    need ``2r`` bits.

    Weight-2 detection exploits that syndromes are never 0 (``g`` is
    odd, so ``x`` is invertible mod ``g`` and ``x^j mod g != 0``): a
    segment's column-wise *minimum* equals 1 exactly on the lanes
    whose register revisited 1 inside it, one contiguous pass instead
    of a compare per step.  :attr:`first_one` then holds, per lane,
    the first position ``j >= 1`` with ``syn[j] == 1`` -- the order of
    ``x`` mod ``g`` -- or -1 while unseen, and the weight-2 witness
    ``(0, first_one)`` is free.
    """

    def __init__(self, gs: np.ndarray, r: int, capacity: int) -> None:
        g_arr = np.asarray(gs, dtype=np.uint64)
        self.r = r
        self.B = len(g_arr)
        self.dtype = value_dtype(r)
        self._g64 = g_arr
        # Truncation to the value dtype is exact (module docstring).
        self.g = (g_arr & np.uint64(np.iinfo(self.dtype).max)).astype(self.dtype)
        # + _SWEEP_SLICES pad rows: the lockstep slices may overhang
        # the requested fill by up to a slice-length remainder; the
        # overhang rows hold garbage until the next segment overwrites
        # them, and no read ever goes past ``pos``.
        self.buf = np.empty(
            (max(capacity, 1) + _SWEEP_SLICES, max(self.B, 1)), dtype=self.dtype
        )
        self.buf[0] = 1  # register starts at syn[0] == 1
        self.pos = 1  # rows [0, pos) are filled
        self.first_one = np.full(self.B, -1, dtype=np.int64)

    def advance_to(self, n_positions: int) -> None:
        """Fill rows up to ``n_positions`` and scan the new segment for
        first ``register == 1`` sightings."""
        start = self.pos
        if n_positions <= start or self.B == 0:
            return
        seg = n_positions - start
        if seg <= _SLICE_MIN_SEGMENT or self.r > COMPOSITE_MAX_WIDTH:
            self._advance_serial(start, n_positions)
        else:
            self._advance_sliced(start, n_positions)
        self.pos = n_positions
        self._detect(start, n_positions)

    def _advance_serial(self, a: int, stop: int) -> None:
        buf, g = self.buf, self.g
        t = np.empty(self.B, dtype=self.dtype)
        sh = self.dtype(self.r - 1)
        one = self.dtype(1)
        for j in range(a, stop):
            prev = buf[j - 1]
            np.right_shift(prev, sh, out=t)
            np.multiply(t, g, out=t)
            np.left_shift(prev, one, out=buf[j])
            np.bitwise_xor(buf[j], t, out=buf[j])

    def _advance_sliced(self, a: int, stop: int) -> None:
        seg = stop - a
        S = _SWEEP_SLICES
        C = -(-seg // S)
        r, g64 = self.r, self._g64
        # Slice q owns rows [a + q*C, a + (q+1)*C); its start state is
        # x^(a + q*C) mod g, exactly the value the serial sweep would
        # put there: chain syn[a] (one serial step) with x^C jumps.
        s0 = np.empty((1, self.B), dtype=self.dtype)
        prev = self.buf[a - 1]
        np.left_shift(prev, self.dtype(1), out=s0[0])
        s0[0] ^= (prev >> self.dtype(r - 1)) * self.g
        starts = np.empty((S, self.B), dtype=np.uint64)
        starts[0] = s0[0]
        # Log-doubling chain: starts[q + i] = starts[i] * x^(q*C), with
        # the jump polynomial squared alongside -- log2(S) lane-wide
        # mulmods instead of S - 1 (S is a power of two).
        pq = _x_pow_mod_vec(C, g64, r)
        q = 1
        while q < S:
            starts[q : 2 * q] = _mulmod_vec(starts[:q], pq, g64, r)
            q *= 2
            if q < S:
                pq = _mulmod_vec(pq, pq, g64, r)
        buf = self.buf
        buf[a : a + S * C : C] = starts.astype(self.dtype)
        t = np.empty((S, self.B), dtype=self.dtype)
        g = self.g
        sh = self.dtype(self.r - 1)
        one = self.dtype(1)
        for j in range(a + 1, a + C):
            prev = buf[j - 1 : j - 1 + S * C : C]
            cur = buf[j : j + S * C : C]
            np.right_shift(prev, sh, out=t)
            np.multiply(t, g, out=t)
            np.left_shift(prev, one, out=cur)
            np.bitwise_xor(cur, t, out=cur)

    def compact(self, cols: np.ndarray) -> None:
        """Shrink the sweep to the given buffer columns.

        After a cascade stage kills most of a batch, every further
        position would still be stepped for the dead columns (width is
        vector-cheap, but not free: the sweep is bandwidth-bound).  A
        one-off gather of the filled rows re-bases the sweep on the
        survivors; the caller's lane indices become ``arange(len(cols))``.
        """
        new = np.empty((self.buf.shape[0], max(len(cols), 1)), dtype=self.dtype)
        new[: self.pos, : len(cols)] = self.buf[: self.pos, cols]
        self.buf = new
        self.B = len(cols)
        self.g = self.g[cols]
        self._g64 = self._g64[cols]
        self.first_one = self.first_one[cols]

    def _detect(self, start: int, stop: int) -> None:
        lo = max(start, 1)
        if lo >= stop or self.B == 0:
            return
        one = self.dtype(1)
        unseen = self.first_one < 0
        # Block-wise: min-scan each _DETECT_BLOCK-row block, and
        # extract a lane's exact first-one position only inside the
        # first block whose min hit 1 for it -- the extraction gather
        # then touches _DETECT_BLOCK rows per hit lane, not the whole
        # segment.
        for b0 in range(lo, stop, _DETECT_BLOCK):
            blk = self.buf[b0 : min(b0 + _DETECT_BLOCK, stop), : self.B]
            hits = np.flatnonzero(unseen & (blk.min(axis=0) == one))
            if len(hits):
                eq = blk[:, hits] == one
                self.first_one[hits] = b0 + eq.argmax(axis=0)
                unseen[hits] = False

    def values(
        self, lanes: np.ndarray, n_positions: int, dtype: type | None = None
    ) -> np.ndarray:
        """``(len(lanes), n_positions)`` contiguous value tables for
        the given buffer columns (filled up to at least that depth),
        in ``dtype`` (default: the narrow sweep dtype).

        The transpose out of the position-major buffer is tiled
        (:data:`_TILE_ROWS` rows at a time) so the strided reads stay
        cache-resident -- measurably faster than a flat
        ``buf[:, lanes].T`` copy at survivor-table sizes.
        """
        assert n_positions <= self.pos
        out = np.empty((len(lanes), n_positions), dtype or self.dtype)
        for j0 in range(0, n_positions, _TILE_ROWS):
            tile = self.buf[j0 : min(j0 + _TILE_ROWS, n_positions), lanes]
            out[:, j0 : j0 + tile.shape[0]] = tile.T
        return out


def value_dtype(r: int) -> type:
    """Narrowest unsigned dtype holding a degree-``r`` syndrome."""
    if r > PACKED_MAX_WIDTH:
        raise EnvelopeError(
            f"packed kernels support degrees 1..{PACKED_MAX_WIDTH}, got {r}"
        )
    if r <= 16:
        return np.uint16
    return np.uint32 if r <= 32 else np.uint64


def composite_spec(r: int, n_positions: int) -> tuple[type, int]:
    """Composite-key layout ``(dtype, pos_bits)`` for degree ``r``
    tables of ``n_positions``: value in the high bits, position in the
    low ``pos_bits``."""
    if r <= 16 and n_positions <= (1 << 16):
        return np.uint32, 16
    if n_positions > (1 << 32):
        raise EnvelopeError("composite positions exceed 32 bits")
    if r > COMPOSITE_MAX_WIDTH:
        raise EnvelopeError(
            f"composite keys support degrees 1..{COMPOSITE_MAX_WIDTH}, got {r}"
        )
    return np.uint64, 32


def composite_from_values(
    values: np.ndarray, r: int, n_positions: int
) -> tuple[np.ndarray, int]:
    """Composite keys from an already-materialized ``(rows, n)`` narrow
    value table (a :meth:`ValueSweep.values` slice):
    ``keys[b, j] = (syn_b[j] << pos_bits) | j``, rows contiguous.

    Sorting a row orders by (value, position); weight-3 partners --
    values XORing to 1 -- are then adjacent entries whose key XOR,
    shifted down ``pos_bits``, is exactly 1, with both positions in
    hand.
    """
    cdtype, pos_bits = composite_spec(r, n_positions)
    keys = values.astype(cdtype)
    keys <<= cdtype(pos_bits)
    keys |= np.arange(n_positions, dtype=cdtype)[None, :]
    return keys, pos_bits


def weight3_rows_packed(sorted_keys: np.ndarray, pos_bits: int) -> np.ndarray:
    """(B,) bool: rows of a *row-sorted* composite-key batch containing
    some ``syn[p] ^ syn[q] == 1`` -- adjacent sorted values XORing
    to 1.  Exact on weight-2-clean rows (distinct values), the
    cascade's ascending-weight precondition."""
    if sorted_keys.shape[1] < 2:
        return np.zeros(len(sorted_keys), dtype=bool)
    x = sorted_keys[:, 1:] ^ sorted_keys[:, :-1]
    return (x >> sorted_keys.dtype.type(pos_bits) == sorted_keys.dtype.type(1)).any(
        axis=1
    )


def weight3_witnesses_packed(
    sorted_keys: np.ndarray, pos_bits: int, window: int
) -> list[tuple[int, int, int] | None]:
    """Weight-3 witnesses from row-sorted composite keys, replicating
    the scalar :func:`~repro.hd.mitm.windowed_witness` choice exactly
    (same rule as :func:`repro.hd.batched.weight3_witnesses`): the
    first position ``b`` (ascending) whose partner sits below
    ``window``; ``None`` where every match needs a partner at or
    beyond it.  Positions fall straight out of the sorted keys -- the
    existence scan already paid for the sort, so extraction costs one
    pass over the adjacent-pair hits."""
    R, N = sorted_keys.shape
    w = min(window, N)
    if N < 2:
        return [None] * R
    dt = sorted_keys.dtype.type
    x = sorted_keys[:, 1:] ^ sorted_keys[:, :-1]
    hit_row, hit_col = np.nonzero((x >> dt(pos_bits)) == dt(1))
    pmask = dt((1 << pos_bits) - 1)
    pos_a = sorted_keys[hit_row, hit_col] & pmask
    pos_b = sorted_keys[hit_row, hit_col + 1] & pmask
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
