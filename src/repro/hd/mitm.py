"""Anchored meet-in-the-middle weight-k codeword search.

The paper's engine enumerates all ``C(n+r, k)`` k-bit patterns.  This
module exploits two structural facts to do exponentially better while
remaining exact:

1. **Anchoring.**  ``x`` is invertible mod ``G`` (``G(0)=1``), so any
   weight-k codeword can be shifted down until its lowest set bit is
   position 0 while remaining a codeword inside the same window.  A
   weight-k codeword exists within an ``N``-bit window iff there are
   distinct positions ``0 < b_1 < .. < b_{k-1} < N`` whose syndromes
   XOR to ``r_0 == 1``.
2. **Meet in the middle.**  Split ``k-1 = s + t`` (``s <= t``).
   Materialize and sort the ``C(N-1, s)`` XORs of the small side
   (pre-XORed with the target 1); run the ``C(N-1, t)`` XORs of the
   large side through ``searchsorted``.  A match is a codeword --
   *provided* the two sides use disjoint positions, which is
   guaranteed whenever no codeword of weight ``k - 2m`` exists in the
   window (overlapping positions cancel pairwise).  The drivers in
   :mod:`repro.hd.hamming` always test ``k`` in increasing order, so
   this precondition holds by construction; witness extraction also
   re-verifies every candidate against the exact big-int syndrome.

Cost: ``O(C(N, ceil((k-1)/2)))`` versus the paper's ``O(C(N, k))``.
Concretely, confirming HD=6 for 0xBA0DC66B at 16,360 bits -- 19 days
of compute in the paper -- is a ~1.3e8-element stream here (seconds).

Two generation strategies, chosen by shape:

* **row streaming** (s <= 3, large windows): iterate (s-1)-prefixes in
  Python, vectorize the innermost index.  Overhead O(C(N, s-1)) rows,
  amortized when rows are long.
* **level-wise materialization** (s >= 2, small windows): build all
  s-subset XORs bottom-up grouped by maximum position -- O(s*N)
  Python iterations regardless of s, with closed-form unranking to
  recover positions.  This is what makes weight-14 checks at 40-bit
  windows (Table 1's top rows) instantaneous.

The windowed witness (:func:`windowed_witness`), the screens' cheap
proof for a kill, looks only at codewords ``{0, b} | S`` with ``S`` a
(k-2)-subset of a short window.  It returns the smallest ``b``, then
the colex-smallest ``S`` -- one fixed rule, because records carry the
witness.  Up to ``k = 4`` it sorts every ``S`` at once.  From ``k = 5``
it meets in the middle: it sorts the (k-3)-subsets ``T`` and streams
``syn[b] ^ syn[c]`` against them in blocks of ascending ``b``, each
``S = T + (c,)`` seen once with ``c`` its largest position.  At width
32 that sorts ``C(399, 2)`` pairs where the whole side was
``C(399, 3)`` triples.  Its envelope guard still prices the whole side:
a raise sends callers to :func:`find_witness`, whose witness differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from collections.abc import Iterator, Callable

import numpy as np

from repro.hd.cost import (
    DEFAULT_MEM_ELEMS,
    DEFAULT_STREAM_ELEMS,
    LEVELWISE_CAP,
    EnvelopeError,
    check_envelope,
)
from repro.hd.syndromes import syndrome_table, syndrome_of_positions
from repro.obs import metrics as obs_metrics

DEFAULT_CHUNK = 1 << 22  # streamed elements per searchsorted batch
_SPLIT_QUERIES = 1 << 16  # (b, c) queries per windowed-witness block


# ---------------------------------------------------------------------------
# generation: row streaming
# ---------------------------------------------------------------------------


@dataclass
class _Row:
    """One streamed row: XORs of ``prefix`` with each single position
    ``j_start .. j_start+len-1`` (positions, not offsets)."""

    prefix: tuple[int, ...]
    j_start: int
    values: np.ndarray


def _rows(
    syn: np.ndarray, s: int, lo: int, hi: int, prefix: tuple[int, ...], acc: int
) -> Iterator[_Row]:
    """Yield all XORs of ``acc`` with s-subsets of positions [lo, hi),
    one row per (s-1)-prefix, innermost dimension vectorized.

    Python-level overhead is one iteration per (s-1)-prefix, i.e.
    O(C(hi-lo, s-1)) -- fine for s <= 3 where rows are long, ruinous
    beyond (use :func:`_levelwise` there).
    """
    if s == 1:
        if lo < hi:
            yield _Row(prefix, lo, np.bitwise_xor(syn[lo:hi], np.uint64(acc)))
        return
    for i in range(lo, hi - (s - 1)):
        yield from _rows(syn, s - 1, i + 1, hi, prefix + (i,), acc ^ int(syn[i]))


# ---------------------------------------------------------------------------
# generation: level-wise materialization
# ---------------------------------------------------------------------------


def _levelwise(
    syn: np.ndarray, s: int, lo: int, hi: int
) -> tuple[np.ndarray, np.ndarray]:
    """All XORs of s-subsets of positions [lo, hi), fully materialized.

    Returns ``(values, maxpos)`` ordered by maximum position (grouped),
    and within a group recursively by the same rule -- the order that
    :func:`_unrank_levelwise` inverts in closed form.

    The t-subsets with maximum ``j`` are ``syn[j] ^`` every
    (t-1)-subset drawn from positions below ``j``; grouping makes
    "below j" a prefix slice, so each level is one pass of vectorized
    XORs with O(hi - lo) Python iterations.
    """
    m = hi - lo
    if s < 1 or m < s:
        return np.empty(0, dtype=np.uint64), np.empty(0, dtype=np.int64)
    if comb(m, s) > LEVELWISE_CAP:
        raise EnvelopeError(
            f"level-wise side C({m},{s}) exceeds materialization cap"
        )
    vals = syn[lo:hi].astype(np.uint64, copy=True)
    for t in range(2, s + 1):
        parts = []
        for j in range(lo + t - 1, hi):
            cnt = comb(j - lo, t - 1)  # (t-1)-subsets entirely below j
            parts.append(np.bitwise_xor(vals[:cnt], syn[j]))
        vals = np.concatenate(parts) if parts else np.empty(0, np.uint64)
    # maxpos of the final level, rebuilt from group sizes (cheap).
    sizes = [comb(j - lo, s - 1) for j in range(lo + s - 1, hi)]
    maxpos = np.repeat(
        np.arange(lo + s - 1, hi, dtype=np.int64), sizes
    ) if sizes else np.empty(0, np.int64)
    return vals, maxpos


def _unrank_levelwise(index: int, s: int, lo: int) -> tuple[int, ...]:
    """Positions of the ``index``-th entry of :func:`_levelwise` output.

    The group of subsets with maximum ``j`` starts at offset
    ``C(j - lo, t)`` (the count of subsets entirely below ``j``), so
    each position is recovered arithmetically, largest first.
    """
    positions = []
    for t in range(s, 0, -1):
        j = t - 1 + lo
        while comb(j + 1 - lo, t) <= index:
            j += 1
        positions.append(j)
        index -= comb(j - lo, t)
    assert index == 0
    return tuple(sorted(positions))


# ---------------------------------------------------------------------------
# sides
# ---------------------------------------------------------------------------


@dataclass
class _SortedSide:
    """The materialized, sorted small side of a MITM check."""

    values: np.ndarray                 # sorted ascending
    s: int
    lo: int
    maxpos: np.ndarray | None = None   # aligned with values
    orig_index: np.ndarray | None = None  # aligned; unranking handle

    def positions_at(self, i: int) -> tuple[int, ...]:
        assert self.orig_index is not None
        return _unrank_levelwise(int(self.orig_index[i]), self.s, self.lo)

    def max_at(self, i: int) -> int:
        assert self.maxpos is not None
        return int(self.maxpos[i])


def _materialize_side(
    syn: np.ndarray,
    s: int,
    lo: int,
    hi: int,
    target: int,
    with_positions: bool,
) -> _SortedSide:
    """Build the sorted small side: all s-subset XORs of [lo, hi),
    each pre-XORed with ``target``."""
    if s == 1:
        values = np.bitwise_xor(syn[lo:hi], np.uint64(target))
        maxpos = np.arange(lo, hi, dtype=np.int64)
        orig = np.arange(hi - lo, dtype=np.int64)
    else:
        values, maxpos = _levelwise(syn, s, lo, hi)
        values = np.bitwise_xor(values, np.uint64(target))
        orig = np.arange(len(values), dtype=np.int64)
    if not with_positions:
        values.sort(kind="stable")
        return _SortedSide(values=values, s=s, lo=lo)
    order = np.argsort(values, kind="stable")
    return _SortedSide(
        values=values[order],
        s=s,
        lo=lo,
        maxpos=maxpos[order],
        orig_index=orig[order],
    )


@dataclass
class _Chunk:
    """One streamed chunk of the large side."""

    values: np.ndarray
    elem_max: np.ndarray | None            # per-element max position
    resolve: Callable[[int], tuple[int, ...]]  # offset -> positions


def _stream_side(
    syn: np.ndarray,
    s: int,
    lo: int,
    hi: int,
    chunk_elems: int,
    *,
    want_max: bool = False,
) -> Iterator[_Chunk]:
    """Stream the large side in chunks.

    Preferred strategy (any ``s >= 2``): materialize level ``s-1``
    once (``C(N, s-1)`` elements) and stream the final level grouped
    by its maximum position ``j`` -- group ``j`` is
    ``syn[j] ^ level[:C(j-lo, s-1)]``, a prefix slice.  When even
    level ``s-1`` exceeds the cap (huge windows), fall back to row
    streaming, which only ``s <= 3`` can afford.
    """
    m = hi - lo
    total = comb(m, s) if m >= s else 0
    if total == 0:
        return
    if s == 1:
        for base in range(lo, hi, chunk_elems):
            end = min(base + chunk_elems, hi)
            yield _Chunk(
                values=syn[base:end],
                elem_max=(
                    np.arange(base, end, dtype=np.int64) if want_max else None
                ),
                resolve=(lambda off, base=base: (base + off,)),
            )
        return
    if comb(m, s - 1) <= LEVELWISE_CAP:
        base_vals, _ = _levelwise(syn, s - 1, lo, hi)
        groups: list[tuple[int, np.ndarray]] = []
        size = 0

        def emit(groups: list[tuple[int, np.ndarray]]) -> _Chunk:
            values = (
                np.concatenate([v for _, v in groups])
                if len(groups) > 1
                else groups[0][1]
            )
            elem_max = None
            if want_max:
                elem_max = np.concatenate(
                    [np.full(len(v), j, dtype=np.int64) for j, v in groups]
                )

            def resolve(offset: int, groups=groups) -> tuple[int, ...]:
                for j, v in groups:
                    if offset < len(v):
                        inner = _unrank_levelwise(offset, s - 1, lo)
                        return tuple(sorted(inner + (j,)))
                    offset -= len(v)
                raise IndexError("offset out of chunk range")

            return _Chunk(values=values, elem_max=elem_max, resolve=resolve)

        for j in range(lo + s - 1, hi):
            cnt = comb(j - lo, s - 1)
            vals = np.bitwise_xor(base_vals[:cnt], syn[j])
            groups.append((j, vals))
            size += cnt
            if size >= chunk_elems:
                yield emit(groups)
                groups = []
                size = 0
        if groups:
            yield emit(groups)
        return
    if s > 3:
        raise EnvelopeError(
            f"streaming side C({m},{s}) needs level C({m},{s - 1}) "
            "materialized, which exceeds the cap"
        )
    batch: list[_Row] = []
    size = 0

    def emit_rows(batch: list[_Row]) -> _Chunk:
        values = (
            np.concatenate([row.values for row in batch])
            if len(batch) > 1
            else batch[0].values
        )
        elem_max = None
        if want_max:
            elem_max = np.concatenate(
                [
                    np.arange(row.j_start, row.j_start + len(row.values), dtype=np.int64)
                    for row in batch
                ]
            )

        def resolve(offset: int, batch=batch) -> tuple[int, ...]:
            for row in batch:
                if offset < len(row.values):
                    return tuple(sorted(row.prefix + (row.j_start + offset,)))
                offset -= len(row.values)
            raise IndexError("offset out of chunk range")

        return _Chunk(values=values, elem_max=elem_max, resolve=resolve)

    for row in _rows(syn, s, lo, hi, (), 0):
        batch.append(row)
        size += len(row.values)
        if size >= chunk_elems:
            yield emit_rows(batch)
            batch = []
            size = 0
    if batch:
        yield emit_rows(batch)


def _hits(side_values: np.ndarray, chunk_values: np.ndarray) -> np.ndarray:
    """Offsets within ``chunk_values`` whose value occurs in the sorted
    side."""
    if len(side_values) == 0 or len(chunk_values) == 0:
        return np.empty(0, dtype=np.intp)
    idx = np.searchsorted(side_values, chunk_values)
    np.minimum(idx, len(side_values) - 1, out=idx)
    return np.flatnonzero(side_values[idx] == chunk_values)


# ---------------------------------------------------------------------------
# public checks
# ---------------------------------------------------------------------------


def _split(k: int) -> tuple[int, int]:
    s_total = k - 1
    s_small = s_total // 2
    return s_small, s_total - s_small


def exists_weight_k(
    g: int,
    codeword_bits: int,
    k: int,
    *,
    syn: np.ndarray | None = None,
    chunk_elems: int = DEFAULT_CHUNK,
    mem_elems: int = DEFAULT_MEM_ELEMS,
    stream_elems: int = DEFAULT_STREAM_ELEMS,
) -> bool:
    """Exact test: does any weight-``k`` codeword of ``g`` fit within a
    window of ``codeword_bits`` bits?

    Precondition (drivers test ``k`` ascending): no codeword of weight
    ``j`` with ``2 <= j < k`` and ``j == k (mod 2)`` exists in the
    window; otherwise a cross-side position overlap could masquerade
    as a weight-k hit.

    Raises :class:`EnvelopeError` rather than exceeding the configured
    memory/stream envelope.

    >>> exists_weight_k(0b10011, 8, 3)   # x^4+x+1: the generator itself
    True
    """
    N = codeword_bits
    if k < 2 or N < k:
        return False
    if syn is None:
        syn = syndrome_table(g, N)
    metrics = obs_metrics.active()
    metrics.inc("mitm.exists.calls")
    if k == 2:
        # Duplicate syndromes <=> x^(j-i) == 1 <=> order(x) <= N-1.
        return len(np.unique(syn)) < N
    check_envelope(N, k, mem_elems, stream_elems)
    s_small, s_large = _split(k)
    side = _materialize_side(syn, s_small, 1, N, target=1, with_positions=False)
    for chunk in _stream_side(syn, s_large, 1, N, chunk_elems):
        metrics.inc("mitm.chunks_streamed")
        metrics.inc("mitm.elements_streamed", len(chunk.values))
        if len(_hits(side.values, chunk.values)):
            # Early bailout: a hit ends the scan without streaming the
            # rest of the C(N-1, t) side -- the savings the filter
            # cascade banks on in the dense regime.
            metrics.inc("mitm.early_bailouts")
            return True
    return False


def find_witness(
    g: int,
    codeword_bits: int,
    k: int,
    *,
    syn: np.ndarray | None = None,
    chunk_elems: int = DEFAULT_CHUNK,
    mem_elems: int = DEFAULT_MEM_ELEMS,
    stream_elems: int = DEFAULT_STREAM_ELEMS,
) -> tuple[int, ...] | None:
    """Like :func:`exists_weight_k` but returns the positions of a
    weight-``k`` codeword (anchored at 0), or ``None``.

    Every witness is re-verified against the exact big-int syndrome
    before being returned; candidate matches whose sides share a
    position (possible only when the ascending-``k`` precondition was
    violated) are rejected and the scan continues.
    """
    N = codeword_bits
    if k < 2 or N < k:
        return None
    if syn is None:
        syn = syndrome_table(g, N)
    if k == 2:
        values, counts = np.unique(syn, return_counts=True)
        dup = values[counts > 1]
        if len(dup) == 0:
            return None
        where = np.flatnonzero(syn == dup[0])[:2]
        return (int(where[0]), int(where[1]))
    check_envelope(N, k, mem_elems, stream_elems)
    s_small, s_large = _split(k)
    side = _materialize_side(syn, s_small, 1, N, target=1, with_positions=True)
    for chunk in _stream_side(syn, s_large, 1, N, chunk_elems):
        for flat in _hits(side.values, chunk.values):
            flat = int(flat)
            large_part = chunk.resolve(flat)
            value = chunk.values[flat]
            lo_i = int(np.searchsorted(side.values, value, side="left"))
            hi_i = int(np.searchsorted(side.values, value, side="right"))
            for si in range(lo_i, hi_i):
                small_part = side.positions_at(si)
                flat_set = set(small_part) | set(large_part) | {0}
                if len(flat_set) != k:
                    continue
                positions = tuple(sorted(flat_set))
                if syndrome_of_positions(g, positions) == 0:
                    return positions
    return None


def windowed_witness(
    g: int,
    codeword_bits: int,
    k: int,
    *,
    window: int = 400,
    syn: np.ndarray | None = None,
    mem_elems: int = DEFAULT_MEM_ELEMS,
) -> tuple[int, ...] | None:
    """Cheap *existence proof* for dense regimes: look for a weight-k
    codeword of the restricted shape ``{0, b} | S`` with ``S`` a
    (k-2)-subset of the first ``window`` positions (excluding 0) and
    ``b`` ranging over the whole window of ``codeword_bits``.

    Far above a breakpoint the number of weight-k codewords grows like
    ``C(N, k) / 2**r``, so even this thin slice of the search space
    contains many -- a hit is returned (verified) almost immediately.
    A ``None`` result proves nothing; callers must fall back to
    :func:`exists_weight_k`.

    The witness returned is fixed by one rule, whichever way it is
    searched: the smallest ``b`` in ``[1, N)`` for which some ``S``
    not containing ``b`` has ``XOR syn[S] == syn[b] ^ 1``, and for that
    ``b`` the colex-smallest such ``S`` (the levelwise order), each
    candidate verified against the exact big-int syndrome.  For
    ``k <= 4`` every ``S`` is materialized and sorted at once.  For
    ``k >= 5`` the search meets in the middle (:func:`_split_candidates`):
    only the (k-3)-subsets are sorted and ``syn[b] ^ syn[c]`` is
    streamed against them -- unless the window is so short that the
    (k-3)-subsets outnumber the (k-2)-subsets.

    The envelope guard still prices the whole ``C(window - 1, k - 2)``
    side even where the split never builds it: a raise sends callers
    to :func:`find_witness`, whose witness differs, so moving the guard
    would change which witness a record carries.
    """
    N = codeword_bits
    if k < 3 or N < k:
        return None
    window = min(window, N)
    if comb(window - 1, k - 2) > min(mem_elems, LEVELWISE_CAP):
        raise EnvelopeError(
            f"windowed witness side C({window - 1},{k - 2}) exceeds memory envelope"
        )
    if syn is None:
        syn = syndrome_table(g, N)
    metrics = obs_metrics.active()
    metrics.inc("mitm.windowed.calls")
    if k <= 4 or comb(window - 1, k - 3) >= comb(window - 1, k - 2):
        candidates = _whole_candidates(syn, N, k, window)
    else:
        candidates = _split_candidates(syn, N, k, window)
    for b, subset in candidates:
        if b in subset:
            continue
        positions = tuple(sorted((0, b) + subset))
        if syndrome_of_positions(g, positions) == 0:
            # The cheap existence proof landed: the candidate dies
            # without a full meet-in-the-middle scan.
            metrics.inc("mitm.windowed.hits")
            return positions
    return None


def _whole_candidates(
    syn: np.ndarray, N: int, k: int, window: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every ``(b, S)`` with ``XOR syn[S] == syn[b] ^ 1`` in
    :func:`windowed_witness`'s order, from all ``C(window - 1, k - 2)``
    subsets ``S`` sorted at once.

    A stable sort keeps equal values in levelwise (colex) order, and
    hits come out by ascending ``b``.
    """
    side = _materialize_side(syn, k - 2, 1, window, target=1, with_positions=True)
    queries = syn[1:N]
    for flat in _hits(side.values, queries):
        value = queries[int(flat)]
        lo_i = int(np.searchsorted(side.values, value, side="left"))
        hi_i = int(np.searchsorted(side.values, value, side="right"))
        for si in range(lo_i, hi_i):
            yield int(flat) + 1, side.positions_at(si)


def _split_candidates(
    syn: np.ndarray, N: int, k: int, window: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The same ``(b, S)`` sequence as :func:`_whole_candidates`, by
    meeting in the middle: ``S = T + (c,)`` with ``c = max(S)``.

    Only the ``C(window - 1, k - 3)`` subsets ``T`` are sorted (with
    their maximum position and levelwise rank).  ``syn[b] ^ syn[c]``
    is streamed for every ``c`` in the window and ``b`` in ascending
    blocks of about :data:`_SPLIT_QUERIES` queries; a match with
    ``c > max(T)`` is a candidate, so each ``S`` is seen once.  The
    hits of a block come out ordered by ``(b, c)``, and a stable sort
    keeps the ``T`` of one value in rank order, so candidates leave
    ordered by ``(b, c, rank(T))`` -- which is ``b``, then the colex
    order of ``S``.
    """
    side = _materialize_side(syn, k - 3, 1, window, target=1, with_positions=True)
    assert side.maxpos is not None
    ends = np.asarray(syn[1:window], dtype=np.uint64)  # syn[c], c in [1, window)
    span = window - 1
    rows = max(1, _SPLIT_QUERIES // span)
    for b0 in range(1, N, rows):
        heads = np.asarray(syn[b0 : min(b0 + rows, N)], dtype=np.uint64)
        queries = np.bitwise_xor(heads[:, None], ends).ravel()
        flat = _hits(side.values, queries)
        if len(flat) == 0:
            continue
        values = queries[flat]
        lo = np.searchsorted(side.values, values, side="left")
        counts = np.searchsorted(side.values, values, side="right") - lo
        # Expand each hit into its run of equal side entries.
        query_of = np.repeat(flat, counts)
        entry = np.arange(len(query_of)) + np.repeat(
            lo - (np.cumsum(counts) - counts), counts
        )
        c = query_of % span + 1
        keep = side.maxpos[entry] < c
        b = query_of[keep] // span + b0
        for bi, ci, ei in zip(b.tolist(), c[keep].tolist(), entry[keep].tolist()):
            yield bi, side.positions_at(ei) + (ci,)


def minimal_codeword_span(
    g: int,
    probe_bits: int,
    k: int,
    *,
    syn: np.ndarray | None = None,
    chunk_elems: int = DEFAULT_CHUNK,
    mem_elems: int = DEFAULT_MEM_ELEMS,
    stream_elems: int = DEFAULT_STREAM_ELEMS,
) -> int | None:
    """Exact minimal span (in bits) of any weight-``k`` codeword, found
    by a single full scan of a ``probe_bits`` window.

    The span of a codeword is ``highest position + 1`` after anchoring
    at 0; the first data-word length at which weight-k errors become
    undetectable is ``span - r``.  Returns ``None`` if no weight-k
    codeword fits the probe window (caller should widen it).

    Unlike repeated bisection this costs one scan: every anchored
    codeword inside the window is observed, and the minimum of
    ``max(position)`` over hits is exactly the minimal span, because
    any codeword of smaller span would itself appear (anchored) inside
    the window.
    """
    N = probe_bits
    if k < 2 or N < k:
        return None
    if syn is None:
        syn = syndrome_table(g, N)
    if k == 2:
        from repro.gf2.order import order_of_x

        order = order_of_x(g)
        return order + 1 if order + 1 <= N else None
    check_envelope(N, k, mem_elems, stream_elems)
    s_small, s_large = _split(k)
    side = _materialize_side(syn, s_small, 1, N, target=1, with_positions=True)
    assert side.maxpos is not None
    best: int | None = None
    for chunk in _stream_side(syn, s_large, 1, N, chunk_elems, want_max=True):
        hit_offsets = _hits(side.values, chunk.values)
        if len(hit_offsets) == 0:
            continue
        assert chunk.elem_max is not None
        # Sort hits by a *lower bound* on their span (the large side's
        # max position alone); the early break below is then safe even
        # when duplicate side entries give one hit several true spans.
        spans_lb = chunk.elem_max[hit_offsets] + 1
        order = np.argsort(spans_lb, kind="stable")
        for oi in order:
            flat = int(hit_offsets[oi])
            candidate_lb = int(spans_lb[oi])
            if best is not None and candidate_lb >= best:
                break
            large_part = chunk.resolve(flat)
            value = chunk.values[flat]
            lo_i = int(np.searchsorted(side.values, value, side="left"))
            hi_i = int(np.searchsorted(side.values, value, side="right"))
            for si in range(lo_i, hi_i):
                small_part = side.positions_at(si)
                flat_set = {0} | set(small_part) | set(large_part)
                if len(flat_set) != k:
                    continue
                span = max(max(large_part), side.max_at(si)) + 1
                if best is not None and span >= best:
                    continue
                if syndrome_of_positions(g, tuple(sorted(flat_set))) == 0:
                    best = span
    return best
