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
   Materialize the ``C(N-1, s)`` XORs of the small side (pre-XORed
   with the target 1) in rank order, behind a one-row
   :class:`~repro.hd.batched.BatchKeys` presence filter; stream the
   ``C(N-1, t)`` XORs of the large side through its membership test.
   A match is a codeword --
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

One private scan runs every exact check -- :func:`exists_weight_k`,
:func:`find_witness` and :func:`minimal_codeword_span`: it checks the
envelope, builds the side, streams the large side through the side's
membership test and counts the ``mitm.*`` metrics, while each check
only says what to do with a chunk's hits (stop at the first, expand
and verify them in order, or keep the shortest span).

The side keeps its rank order (only a hashed filter holds a sorted
copy, for confirming its hits).  A hit expands to its subsets by
scanning the side for entries equal to its value, which yields them
in rank order -- the colex order of their positions, so "first hit,
then lowest rank" is a fixed rule the records can carry.  Where every
hit of a chunk is visited, one pass over the side expands them all.

The windowed witness (:func:`windowed_witness`), the screens' cheap
proof for a kill, looks only at codewords ``{0, b} | S`` with ``S`` a
(k-2)-subset of a short window.  It returns the smallest ``b``, then
the colex-smallest ``S``.  Up to ``k = 4`` the side holds every ``S``
and is asked once for all ``syn[b]``.  From ``k = 5`` it meets in the
middle: the side holds the (k-3)-subsets ``T`` and is asked for
``syn[b] ^ syn[c]`` in blocks of ascending ``b``, each ``S = T + (c,)``
seen once with ``c`` its largest position -- the ``T`` below ``c`` are
a levelwise prefix of the side, so a hit scans only that prefix.  At
width 32 that builds ``C(399, 2)`` pairs where the whole side was
``C(399, 3)`` triples.  Its envelope guard still prices the whole side,
and past it the answer is a miss: ``None`` sends callers to
:func:`find_witness`, whose witness differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from collections.abc import Iterator, Callable

import numpy as np

from repro.gf2.poly import degree
from repro.hd import cost
from repro.hd.batched import BatchKeys
from repro.hd.cost import EnvelopeError, check_envelope
from repro.hd.syndromes import syndrome_table, syndrome_of_positions
from repro.obs import metrics as obs_metrics

CHUNK_ELEMS = 1 << 22  # streamed elements per membership query
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


def _levelwise(syn: np.ndarray, s: int, lo: int, hi: int) -> np.ndarray:
    """All XORs of s-subsets of positions [lo, hi), fully materialized,
    as a fresh array the caller may modify.

    Ordered by maximum position (grouped), and within a group
    recursively by the same rule -- the colex order that
    :func:`_unrank_levelwise` inverts in closed form.  A subset's index
    in it is its *rank*.

    The t-subsets with maximum ``j`` are ``syn[j] ^`` every
    (t-1)-subset drawn from positions below ``j``; grouping makes
    "below j" a prefix slice, so each level is one pass of vectorized
    XORs with O(hi - lo) Python iterations.
    """
    m = hi - lo
    if s < 1 or m < s:
        return np.empty(0, dtype=np.uint64)
    if comb(m, s) > cost.LEVELWISE_CAP:
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
    return vals


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


class _Side:
    """The materialized side of a meet-in-the-middle check: the XORs of
    every s-subset of positions [lo, hi), each pre-XORed with
    ``target``, kept in rank order, plus a one-row :class:`BatchKeys`
    over them that answers membership for whole query arrays."""

    def __init__(
        self, syn: np.ndarray, s: int, lo: int, hi: int, target: int, r: int
    ) -> None:
        self.values = _levelwise(syn, s, lo, hi)
        self.values ^= np.uint64(target)
        self.s, self.lo, self.r = s, lo, r
        self.keys = BatchKeys(self.values[None, :], r)

    def ranks(self, value: np.uint64, end: int | None = None) -> list[int]:
        """Ranks of the entries equal to ``value`` among the first
        ``end`` -- ascending, so their subsets come out in colex order."""
        return np.flatnonzero(self.values[:end] == value).tolist()

    def expand(self, hit_values: np.ndarray) -> dict[int, list[int]]:
        """The ranks of the entries equal to each of ``hit_values``
        (ascending per value), found in one pass over the side."""
        wanted = BatchKeys(hit_values[None, :], self.r)
        matched = np.flatnonzero(wanted.contains(self.values))
        out: dict[int, list[int]] = {}
        for rank, value in zip(matched.tolist(), self.values[matched].tolist()):
            out.setdefault(value, []).append(rank)
        return out

    def positions_at(self, rank: int) -> tuple[int, ...]:
        return _unrank_levelwise(rank, self.s, self.lo)


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
    *,
    want_max: bool = False,
) -> Iterator[_Chunk]:
    """Stream the large side in chunks.

    Preferred strategy (any ``s >= 2``): materialize level ``s-1``
    once (``C(N, s-1)`` elements) and stream the final level grouped
    by its maximum position ``j`` -- group ``j`` is
    ``syn[j] ^ level[:C(j-lo, s-1)]``, a prefix slice.  When even
    level ``s-1`` exceeds the cap (huge windows), fall back to row
    streaming, which only ``s <= 3`` can afford.  Chunks hold about
    :data:`CHUNK_ELEMS` elements.
    """
    m = hi - lo
    total = comb(m, s) if m >= s else 0
    if total == 0:
        return
    if s == 1:
        for base in range(lo, hi, CHUNK_ELEMS):
            end = min(base + CHUNK_ELEMS, hi)
            yield _Chunk(
                values=syn[base:end],
                elem_max=(
                    np.arange(base, end, dtype=np.int64) if want_max else None
                ),
                resolve=(lambda off, base=base: (base + off,)),
            )
        return
    if comb(m, s - 1) <= cost.LEVELWISE_CAP:
        base_vals = _levelwise(syn, s - 1, lo, hi)
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
            if size >= CHUNK_ELEMS:
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
        if size >= CHUNK_ELEMS:
            yield emit_rows(batch)
            batch = []
            size = 0
    if batch:
        yield emit_rows(batch)


# ---------------------------------------------------------------------------
# the exact scan
# ---------------------------------------------------------------------------


def _split(k: int) -> tuple[int, int]:
    s_total = k - 1
    s_small = s_total // 2
    return s_small, s_total - s_small


def _scan(
    g: int,
    N: int,
    k: int,
    syn: np.ndarray,
    visit: Callable[[_Side, _Chunk, np.ndarray], object],
    *,
    want_max: bool = False,
) -> object:
    """The one exact weight-``k`` scan (``k >= 3``) of an ``N``-bit
    window, behind :func:`exists_weight_k`, :func:`find_witness` and
    :func:`minimal_codeword_span`.

    Checks the envelope, builds the small side, streams the large side
    through its membership test and hands every chunk with hits to
    ``visit(side, chunk, hits)``.  The first answer that is not
    ``None`` ends the scan -- the early bailout -- and is returned;
    ``None`` means every chunk was visited.
    """
    metrics = obs_metrics.active()
    metrics.inc("mitm.exists.calls")
    check_envelope(N, k)
    s_small, s_large = _split(k)
    side = _Side(syn, s_small, 1, N, 1, degree(g))
    for chunk in _stream_side(syn, s_large, 1, N, want_max=want_max):
        metrics.inc("mitm.chunks_streamed")
        metrics.inc("mitm.elements_streamed", len(chunk.values))
        hits = np.flatnonzero(side.keys.contains(chunk.values))
        if len(hits) == 0:
            continue
        answer = visit(side, chunk, hits)
        if answer is not None:
            metrics.inc("mitm.early_bailouts")
            return answer
    return None


def _hit_ranks(
    side: _Side, chunk: _Chunk, hits: np.ndarray
) -> Iterator[tuple[int, list[int]]]:
    """Each of a chunk's ``hits`` in stream order, as its offset in the
    chunk and the ascending ranks of the side entries it matched, all
    found in one shared pass over the side."""
    values = chunk.values[hits]
    ranks = side.expand(values)
    for flat, value in zip(hits.tolist(), values.tolist()):
        yield flat, ranks[value]


def _codeword(
    g: int, k: int, small: tuple[int, ...], large: tuple[int, ...]
) -> tuple[int, ...] | None:
    """The anchored positions ``{0} | small | large`` if they are ``k``
    distinct positions of a codeword (verified against the exact
    big-int syndrome), else ``None``."""
    flat_set = {0} | set(small) | set(large)
    if len(flat_set) != k:
        return None
    positions = tuple(sorted(flat_set))
    return positions if syndrome_of_positions(g, positions) == 0 else None


# ---------------------------------------------------------------------------
# public checks
# ---------------------------------------------------------------------------


def exists_weight_k(
    g: int,
    codeword_bits: int,
    k: int,
    *,
    syn: np.ndarray | None = None,
) -> bool:
    """Exact test: does any weight-``k`` codeword of ``g`` fit within a
    window of ``codeword_bits`` bits?

    Precondition (drivers test ``k`` ascending): no codeword of weight
    ``j`` with ``2 <= j < k`` and ``j == k (mod 2)`` exists in the
    window; otherwise a cross-side position overlap could masquerade
    as a weight-k hit.

    The scan stops at the first chunk with a hit, without expanding
    it -- the savings the filter cascade banks on in the dense
    regime.  Raises :class:`EnvelopeError` rather than exceeding the
    memory/stream envelope of :mod:`repro.hd.cost`.

    >>> exists_weight_k(0b10011, 8, 3)   # x^4+x+1: the generator itself
    True
    """
    N = codeword_bits
    if k < 2 or N < k:
        return False
    if syn is None:
        syn = syndrome_table(g, N)
    if k == 2:
        # Duplicate syndromes <=> x^(j-i) == 1 <=> order(x) <= N-1.
        return len(np.unique(syn)) < N
    return _scan(g, N, k, syn, lambda side, chunk, hits: True) is not None


def find_witness(
    g: int,
    codeword_bits: int,
    k: int,
    *,
    syn: np.ndarray | None = None,
) -> tuple[int, ...] | None:
    """Like :func:`exists_weight_k` but returns the positions of a
    weight-``k`` codeword (anchored at 0), or ``None``.

    The witness is the first verified one in scan order: hits in
    stream order, each hit's side entries in rank order.  Every
    witness is re-verified against the exact big-int syndrome before
    being returned; candidate matches whose sides share a position
    (possible only when the ascending-``k`` precondition was
    violated) are rejected and the scan continues.  Callers that need
    a witness for a weight they have not yet decided call this alone:
    ``None`` is the exact "absent".
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

    def first_codeword(side: _Side, chunk: _Chunk, hits: np.ndarray):
        for flat, ranks in _hit_ranks(side, chunk, hits):
            large = chunk.resolve(flat)
            for rank in ranks:
                positions = _codeword(g, k, side.positions_at(rank), large)
                if positions is not None:
                    return positions
        return None

    return _scan(g, N, k, syn, first_codeword)


def windowed_witness(
    g: int,
    codeword_bits: int,
    k: int,
    *,
    window: int | None = None,
    syn: np.ndarray | None = None,
) -> tuple[int, ...] | None:
    """Cheap *existence proof* for dense regimes: look for a weight-k
    codeword of the restricted shape ``{0, b} | S`` with ``S`` a
    (k-2)-subset of the first ``window`` positions (excluding 0) and
    ``b`` ranging over the whole window of ``codeword_bits``.
    ``window`` defaults to :data:`repro.hd.cost.WITNESS_WINDOW`.

    Far above a breakpoint the number of weight-k codewords grows like
    ``C(N, k) / 2**r``, so even this thin slice of the search space
    contains many -- a hit is returned (verified) almost immediately.
    A ``None`` result proves nothing; callers fall back to the exact
    scan (:func:`find_witness` or :func:`exists_weight_k`).

    The witness returned is fixed by one rule, whichever way it is
    searched: the smallest ``b`` in ``[1, N)`` for which some ``S``
    not containing ``b`` has ``XOR syn[S] == syn[b] ^ 1``, and for that
    ``b`` the colex-smallest such ``S`` (the levelwise order), each
    candidate verified against the exact big-int syndrome.  For
    ``k <= 4`` every ``S`` is materialized at once
    (:func:`_whole_candidates`).  For ``k >= 5`` the search meets in
    the middle (:func:`_split_candidates`): only the (k-3)-subsets are
    materialized and ``syn[b] ^ syn[c]`` is asked of them -- unless the
    window is so short that the (k-3)-subsets outnumber the
    (k-2)-subsets.

    Past its envelope -- the side must fit both
    :data:`~repro.hd.cost.MEM_ELEMS` and
    :data:`~repro.hd.cost.LEVELWISE_CAP` -- the search is not run and
    the answer is a miss, ``None``.  The guard still prices the whole
    ``C(window - 1, k - 2)`` side even where the split never builds
    it: a miss sends callers to :func:`find_witness`, whose witness
    differs, so moving the guard would change which witness a record
    carries.
    """
    N = codeword_bits
    if k < 3 or N < k:
        return None
    window = min(cost.WITNESS_WINDOW if window is None else window, N)
    if comb(window - 1, k - 2) > min(cost.MEM_ELEMS, cost.LEVELWISE_CAP):
        return None
    if syn is None:
        syn = syndrome_table(g, N)
    metrics = obs_metrics.active()
    metrics.inc("mitm.windowed.calls")
    if k <= 4 or comb(window - 1, k - 3) >= comb(window - 1, k - 2):
        candidates = _whole_candidates(syn, N, k, window, degree(g))
    else:
        candidates = _split_candidates(syn, N, k, window, degree(g))
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
    syn: np.ndarray, N: int, k: int, window: int, r: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """Every ``(b, S)`` with ``XOR syn[S] == syn[b] ^ 1`` in
    :func:`windowed_witness`'s order, from a side of all
    ``C(window - 1, k - 2)`` subsets ``S``.

    One membership query over ``syn[1:N]`` marks every ``b`` that has
    some ``S``; hits are taken by ascending ``b``, and each expands to
    its ``S`` by scanning the side for its value, in rank (colex)
    order.  Candidates are generated lazily, so the scans stop at the
    first witness the caller accepts.
    """
    side = _Side(syn, k - 2, 1, window, 1, r)
    queries = syn[1:N]
    for flat in np.flatnonzero(side.keys.contains(queries)):
        for rank in side.ranks(queries[flat]):
            yield int(flat) + 1, side.positions_at(rank)


def _split_candidates(
    syn: np.ndarray, N: int, k: int, window: int, r: int
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The same ``(b, S)`` sequence as :func:`_whole_candidates`, by
    meeting in the middle: ``S = T + (c,)`` with ``c = max(S)``.

    The side holds only the ``C(window - 1, k - 3)`` subsets ``T``.
    ``syn[b] ^ syn[c]`` is asked of it for every ``c`` in the window
    and ``b`` in ascending blocks of about :data:`_SPLIT_QUERIES`
    queries, and a block's hits are taken in ``(b, c)`` order.  The
    ``T`` with ``max(T) < c`` are exactly the side's levelwise prefix
    of ``C(c - 1, k - 3)`` entries, so a hit scans only that prefix
    for its value: each ``S`` is seen once, and the ``T`` of one hit
    come out in rank order.  Candidates thus leave ordered by
    ``(b, c, rank(T))`` -- which is ``b``, then the colex order of ``S``.
    """
    side = _Side(syn, k - 3, 1, window, 1, r)
    ends = syn[1:window]  # syn[c], c in [1, window)
    span = window - 1
    rows = max(1, _SPLIT_QUERIES // span)
    for b0 in range(1, N, rows):
        queries = np.bitwise_xor(syn[b0 : min(b0 + rows, N), None], ends)
        for flat in np.flatnonzero(side.keys.contains(queries)):
            b, c = divmod(int(flat), span)
            c += 1
            for rank in side.ranks(queries.flat[flat], comb(c - 1, k - 3)):
                yield b0 + b, side.positions_at(rank) + (c,)


def minimal_codeword_span(
    g: int,
    probe_bits: int,
    k: int,
    *,
    syn: np.ndarray | None = None,
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
    best: int | None = None

    def shortest(side: _Side, chunk: _Chunk, hits: np.ndarray) -> None:
        nonlocal best
        assert chunk.elem_max is not None
        # The large side's max position alone is a lower bound on a
        # hit's span: hits that cannot beat the best so far are dropped
        # before their one shared pass over the side.
        if best is not None:
            hits = hits[chunk.elem_max[hits] + 1 < best]
        if len(hits) == 0:
            return
        for flat, ranks in _hit_ranks(side, chunk, hits):
            if best is not None and chunk.elem_max[flat] + 1 >= best:
                continue
            large = chunk.resolve(flat)
            for rank in ranks:
                small = side.positions_at(rank)
                span = max(large[-1], small[-1]) + 1
                if best is not None and span >= best:
                    continue
                if _codeword(g, k, small, large) is not None:
                    best = span

    _scan(g, N, k, syn, shortest, want_max=True)
    return best
