"""MITM engine vs brute force: the critical cross-validation.

Every behaviour of the fast engine is checked against direct
enumeration on small windows, across random generators -- the same
"simple code vs optimized code" validation the paper performed (§4.5).
"""

from __future__ import annotations

import tracemalloc
from contextlib import nullcontext
from itertools import combinations
from math import comb
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.gf2.notation import koopman_to_full
from repro.gf2.poly import degree
from repro.hd import batched as hd_batched
from repro.hd import mitm
from repro.hd.mitm import (
    _levelwise,
    _stream_side,
    _unrank_levelwise,
    exists_weight_k,
    find_witness,
    minimal_codeword_span,
    windowed_witness,
)
from repro.hd.syndromes import syndrome_of_positions, syndrome_table
from tests.conftest import envelope

gen_polys = st.integers(min_value=0b1001, max_value=(1 << 13) - 1).filter(
    lambda p: p & 1
)

# Generators of widths 8-24 not divisible by (x+1) (an odd number of
# terms), so odd-weight codewords exist.
parity_free_polys = (
    st.integers(min_value=8, max_value=24)
    .flatmap(lambda r: st.integers(min_value=1 << r, max_value=(2 << r) - 1))
    .filter(lambda p: p & 1 and bin(p).count("1") % 2 == 1)
)


def brute_exists(g: int, N: int, k: int) -> bool:
    syn = [int(s) for s in syndrome_table(g, N)]
    for combo in combinations(range(N), k):
        acc = 0
        for p in combo:
            acc ^= syn[p]
        if acc == 0:
            return True
    return False


def brute_min_span(g: int, N: int, k: int) -> int | None:
    best = None
    syn = [int(s) for s in syndrome_table(g, N)]
    for combo in combinations(range(N), k):
        acc = 0
        for p in combo:
            acc ^= syn[p]
        if acc == 0:
            span = combo[-1] - combo[0] + 1
            best = span if best is None else min(best, span)
    return best


class TestExistsAgainstBruteForce:
    @given(gen_polys, st.integers(min_value=6, max_value=22),
           st.integers(min_value=2, max_value=5))
    @settings(max_examples=200, deadline=None)
    def test_agreement(self, g, N, k):
        # ascending-k precondition: only test k if no lower even-gap
        # weight exists (mirrors how drivers call it)
        for j in range(2, k):
            if brute_exists(g, N, j):
                return
        assert exists_weight_k(g, N, k) == brute_exists(g, N, k)

    def test_doctest_case(self):
        assert exists_weight_k(0b10011, 8, 3)

    def test_window_smaller_than_weight(self):
        assert not exists_weight_k(0b10011, 2, 3)

    def test_weight_2_is_order_based(self):
        # x^2+x+1 has order 3: weight-2 codeword x^3+1 needs 4 positions
        assert not exists_weight_k(0b111, 3, 2)
        assert exists_weight_k(0b111, 4, 2)


class TestWitness:
    @given(gen_polys, st.integers(min_value=6, max_value=20),
           st.integers(min_value=2, max_value=5))
    @settings(max_examples=150, deadline=None)
    def test_witness_is_verified_codeword(self, g, N, k):
        for j in range(2, k):
            if brute_exists(g, N, j):
                return
        w = find_witness(g, N, k)
        if brute_exists(g, N, k):
            assert w is not None
            assert len(w) == k
            assert len(set(w)) == k
            assert max(w) < N
            assert syndrome_of_positions(g, w) == 0
        else:
            assert w is None

    def test_weight2_witness(self):
        w = find_witness(0b111, 5, 2)
        assert w is not None and syndrome_of_positions(g=0b111, positions=w) == 0


# ---------------------------------------------------------------------------
# sort-based reference: the exact checks answered by a stable argsort of
# the small side and searchsorted, as the engine did before its sides
# got a presence filter.  Same sides, same streaming, same rule for
# which hit wins -- only the membership test and hit expansion differ.
# ---------------------------------------------------------------------------


def _split(k: int) -> tuple[int, int]:
    return (k - 1) // 2, k - 1 - (k - 1) // 2


def sorted_side(syn, s: int, hi: int):
    """The s-subset XORs of [1, hi) XOR the target 1, sorted, with the
    levelwise rank of each entry (equal values in rank order)."""
    values = _levelwise(syn, s, 1, hi) ^ np.uint64(1)
    order = np.argsort(values, kind="stable")
    return values[order], order


def sorted_hits(side, queries) -> list[int]:
    values, _ = side
    if len(values) == 0 or len(queries) == 0:
        return []
    idx = np.minimum(np.searchsorted(values, queries), len(values) - 1)
    return np.flatnonzero(values[idx] == queries).tolist()


def sorted_ranks(side, value) -> list[int]:
    values, order = side
    lo = np.searchsorted(values, value, side="left")
    hi = np.searchsorted(values, value, side="right")
    return order[lo:hi].tolist()


def ref_exists(g: int, N: int, k: int) -> bool:
    syn = syndrome_table(g, N)
    s, t = _split(k)
    side = sorted_side(syn, s, N)
    return any(sorted_hits(side, ch.values) for ch in _stream_side(syn, t, 1, N))


def ref_hits(g: int, N: int, k: int):
    """Each stream hit's large-side positions with the ranks of its
    equal small-side entries, in stream order (chunked at
    ``mitm.CHUNK_ELEMS``)."""
    syn = syndrome_table(g, N)
    s, t = _split(k)
    side = sorted_side(syn, s, N)
    for ch in _stream_side(syn, t, 1, N):
        for flat in sorted_hits(side, ch.values):
            yield ch.resolve(flat), sorted_ranks(side, ch.values[flat])


def ref_codeword(g: int, k: int, small: tuple, large: tuple):
    positions = {0} | set(small) | set(large)
    if len(positions) == k:
        positions = tuple(sorted(positions))
        if syndrome_of_positions(g, positions) == 0:
            return positions
    return None


def ref_find_witness(g: int, N: int, k: int):
    s = _split(k)[0]
    for large, ranks in ref_hits(g, N, k):
        for rank in ranks:
            w = ref_codeword(g, k, _unrank_levelwise(rank, s, 1), large)
            if w is not None:
                return w
    return None


def ref_min_span(g: int, N: int, k: int):
    s = _split(k)[0]
    best = None
    for large, ranks in ref_hits(g, N, k):
        if best is not None and large[-1] + 1 >= best:
            continue  # the large side alone already spans too far
        for rank in ranks:
            w = ref_codeword(g, k, _unrank_levelwise(rank, s, 1), large)
            if w is not None and (best is None or w[-1] + 1 < best):
                best = w[-1] + 1
    return best


def ref_windowed(g: int, N: int, k: int, window: int = 400, syn=None):
    """``windowed_witness``'s rule by sorting: the (k-2)-subsets ``S``
    of the window sorted whole for ``k <= 4``; from ``k = 5`` the
    (k-3)-subsets ``T`` sorted, ``syn[b] ^ syn[c]`` searched for each
    ``b`` ascending and ``c`` in the window, ``S = T + (c,)`` kept
    where ``max(T) < c``."""
    window = min(window, N)
    if syn is None:
        syn = syndrome_table(g, N)
    if k <= 4:
        side = sorted_side(syn, k - 2, window)
        for b in sorted_hits(side, syn[1:N]):
            for rank in sorted_ranks(side, syn[b + 1]):
                w = ref_codeword(g, k, _unrank_levelwise(rank, k - 2, 1), (b + 1,))
                if w is not None:
                    return w
        return None
    side = sorted_side(syn, k - 3, window)
    for b in range(1, N):
        queries = syn[b] ^ syn[1:window]
        for c in sorted_hits(side, queries):
            for rank in sorted_ranks(side, queries[c]):
                T = _unrank_levelwise(rank, k - 3, 1)
                if T[-1] < c + 1:
                    w = ref_codeword(g, k, T + (c + 1,), (b,))
                    if w is not None:
                        return w
    return None


def assert_matches_reference(g: int, N: int, k: int, chunk: int) -> None:
    with envelope(mitm, CHUNK_ELEMS=chunk):
        assert exists_weight_k(g, N, k) == ref_exists(g, N, k)
        assert find_witness(g, N, k) == ref_find_witness(g, N, k)
        assert minimal_codeword_span(g, N, k) == ref_min_span(g, N, k)


def polys_of_width(widths):
    """A degree drawn from ``widths``, then either a dense random
    generator or a sparse one (few interior terms), which is itself a
    short low-weight codeword so that wide generators hit too."""
    def build(r):
        dense = st.integers(min_value=0, max_value=(1 << (r - 1)) - 1).map(
            lambda i: (1 << r) | (i << 1) | 1
        )
        sparse = st.sets(
            st.integers(min_value=1, max_value=r - 1), max_size=5
        ).map(lambda ps: (1 << r) | 1 | sum(1 << p for p in ps))
        return st.one_of(dense, sparse)

    return st.sampled_from(widths).flatmap(build)


chunks = st.sampled_from([7, 64, 1 << 22])


class TestAgainstSortedReference:
    """``exists_weight_k``, ``find_witness`` and ``minimal_codeword_span``
    equal the sort-based reference in each regime of the side's
    presence filter.  No ascending-k precondition is needed: both
    answer the same membership questions and pick hits in the same
    order, so they agree even where overlaps make hits degenerate."""

    @given(polys_of_width(range(5, 11)), st.integers(min_value=12, max_value=48),
           st.integers(min_value=3, max_value=6), chunks)
    @settings(max_examples=80, deadline=None)
    def test_direct_regime(self, g, N, k, chunk):
        # The side indexes directly when 2**r <= 32 * its key count.
        side = comb(N - 1, _split(k)[0])
        assume((1 << degree(g)) <= 32 * side)
        assert_matches_reference(g, N, k, chunk)

    @given(polys_of_width([32, 40]), st.integers(min_value=6, max_value=80),
           st.integers(min_value=3, max_value=6), chunks)
    @settings(max_examples=80, deadline=None)
    def test_hashed_regime(self, g, N, k, chunk):
        assert_matches_reference(g, N, k, chunk)

    @given(polys_of_width([4, 6, 9, 16, 32, 40]), st.integers(min_value=6, max_value=48),
           st.integers(min_value=3, max_value=6), chunks)
    @settings(max_examples=80, deadline=None)
    def test_colliding_filter(self, g, N, k, chunk):
        # A two-slot filter: every side hashes and nearly every query
        # hits a marked slot, so confirmation decides every answer.
        with mock.patch.object(hd_batched, "_FILTER_SLOTS", 2):
            assert_matches_reference(g, N, k, chunk)

    @pytest.mark.parametrize("slots", [None, 2])
    @pytest.mark.parametrize(
        "g, k, N",
        [
            # order 5: syndromes repeat every 5 positions
            (0b11111, 4, 40), (0b11111, 5, 40), (0b11111, 6, 40),
            # order 32, hashed
            ((1 << 32) | 1, 4, 70), ((1 << 32) | 1, 6, 70),
        ],
    )
    def test_many_hits_share_a_value(self, g, k, N, slots):
        # Short-order generators repeat their syndromes, so one chunk
        # holds many hits of one value: each must expand to the same
        # ranks from the chunk's single pass over the side.
        chunk = 1 << 22
        syn = syndrome_table(g, N)
        s, t = _split(k)
        (ch,) = _stream_side(syn, t, 1, N)
        hit_values = ch.values[sorted_hits(sorted_side(syn, s, N), ch.values)]
        assert len(hit_values) >= 2 * len(set(hit_values.tolist()))
        patch = (
            mock.patch.object(hd_batched, "_FILTER_SLOTS", slots)
            if slots
            else nullcontext()
        )
        with patch:
            assert_matches_reference(g, N, k, chunk)


def brute_windowed(g: int, N: int, k: int, window: int) -> tuple[int, ...] | None:
    """``windowed_witness``'s rule by enumeration: the smallest ``b`` in
    [1, N) with some (k-2)-subset ``S`` of [1, window), ``b`` not in
    ``S``, such that ``{0, b} | S`` is a codeword; for that ``b`` the
    colex-smallest ``S``."""
    window = min(window, N)
    syn = [int(s) for s in syndrome_table(g, N)]
    colex = sorted(combinations(range(1, window), k - 2), key=lambda S: S[::-1])
    for b in range(1, N):
        for S in colex:
            if b in S:
                continue
            acc = syn[0] ^ syn[b]
            for p in S:
                acc ^= syn[p]
            if acc == 0:
                positions = tuple(sorted((0, b) + S))
                assert syndrome_of_positions(g, positions) == 0
                return positions
    return None


# Largest window per weight that keeps the oracle's enumeration small.
ORACLE_WINDOW = {3: 80, 4: 48, 5: 40, 6: 28, 7: 20}


class TestWindowedWitness:
    @given(parity_free_polys, st.integers(min_value=3, max_value=7),
           st.integers(min_value=7, max_value=80), st.integers(min_value=2, max_value=40))
    @settings(max_examples=120, deadline=None)
    def test_matches_brute_force_rule(self, g, k, N, window):
        window = min(window, ORACLE_WINDOW[k])
        expect = brute_windowed(g, N, k, window)
        assert windowed_witness(g, N, k, window=window) == expect
        assert ref_windowed(g, N, k, window) == expect

    @pytest.mark.parametrize(
        "g, N, k, window, expect",
        [
            # b = 1, the smallest b there is; window < N
            (0x133, 80, 5, 33, (0, 1, 4, 5, 8)),
            # b = 2, inside the window
            (0x135, 26, 5, 10, (0, 2, 4, 5, 8)),
            # b = 15, beyond a 13-bit window
            (0x81AD, 34, 7, 13, (0, 2, 3, 5, 7, 8, 15)),
            # window == N
            (0x499, 16, 6, 16, (0, 2, 4, 8, 13, 15)),
            (0x2CF, 13, 7, 13, (0, 1, 2, 3, 6, 7, 9)),
            # several S fit the smallest b: the colex-smallest wins, not
            # the lexicographically smallest ((5, 35, 37) here)
            (0x1F99, 46, 5, 38, (0, 3, 6, 17, 18)),
            (0x1C95, 77, 6, 28, (0, 1, 2, 6, 11, 16)),
            (0x1151, 47, 7, 19, (0, 6, 8, 10, 12, 14, 20)),
            # ... and among several S with one largest position, the
            # colex-smallest rest ((15, 22, 24) also fits b = 1 here)
            (0xE35, 43, 5, 37, (0, 1, 2, 11, 24)),
            (0x7B7, 40, 6, 20, (0, 1, 3, 6, 9, 16)),
            (0x111, 20, 7, 13, (0, 1, 2, 6, 10, 12, 13)),
            # misses, window < N and window == N
            (0x36B, 30, 5, 8, None),
            (0x53985, 15, 5, 15, None),
            (0xB0BD, 20, 7, 16, None),
            (0x1076CE3, 37, 6, 26, None),
        ],
    )
    def test_pinned_witnesses(self, g, N, k, window, expect):
        assert brute_windowed(g, N, k, window) == expect
        assert windowed_witness(g, N, k, window=window) == expect

    @given(gen_polys, st.integers(min_value=16, max_value=64),
           st.integers(min_value=3, max_value=5))
    @settings(max_examples=100, deadline=None)
    def test_any_result_is_a_codeword(self, g, N, k):
        w = windowed_witness(g, N, k, window=min(N, 24))
        if w is not None:
            assert len(set(w)) == k
            assert syndrome_of_positions(g, w) == 0

    def test_finds_in_dense_regime(self):
        # CRC-8 0x107 at 120 bits: weight-4 codewords are plentiful
        # (weight-3 are impossible -- it is divisible by (x+1)).
        g = 0x107
        w = windowed_witness(g, 120, 4, window=120)
        assert w is not None
        # non-parity generator: weight-3 dense regime
        g2 = 0b100011101  # 0x11D, 5 terms, not divisible by (x+1)
        w3 = windowed_witness(g2, 120, 3, window=120)
        assert w3 is not None

    def test_envelope_guard(self):
        # Past its envelope the windowed search is a miss, not an error.
        with envelope(MEM_ELEMS=1000):
            assert windowed_witness(0x107, 4000, 6, window=4000) is None

    def test_envelope_guard_prices_the_whole_side(self):
        # The guard counts all C(window - 1, k - 2) = C(37, 3) = 7,770
        # subsets, though the weight-5 search sorts only C(37, 2) pairs.
        expect = (0, 3, 6, 17, 18)
        with envelope(MEM_ELEMS=7770):
            assert windowed_witness(0x1F99, 46, 5, window=38) == expect
        with envelope(MEM_ELEMS=7769):
            assert windowed_witness(0x1F99, 46, 5, window=38) is None

    def test_weight5_memory(self):
        # A width-32 weight-5 kill.  Sorting all C(399, 3) window triples
        # takes over 500 MB; the bound holds only if pairs are sorted.
        g = 0x179F48B87
        syn = syndrome_table(g, 1056)
        tracemalloc.start()
        try:
            w = windowed_witness(g, 1056, 5, window=400, syn=syn)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert w == (0, 38, 151, 218, 924)
        assert peak < 32 * 2**20


def test_exists_memory():
    # 0xBA0DC66B at 3,000 bits, weight 6: a side of C(2999, 2) pair
    # values.  The sort-based engine peaked at 236 MiB here; the side's
    # presence filter may add at most its 64 MiB cap to that.
    g = koopman_to_full(0xBA0DC66B)
    syn = syndrome_table(g, 3000)
    tracemalloc.start()
    try:
        assert exists_weight_k(g, 3000, 6, syn=syn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (236 + 64) * 2**20


class TestMinimalSpan:
    @given(gen_polys, st.integers(min_value=8, max_value=20),
           st.integers(min_value=3, max_value=4))
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force(self, g, N, k):
        for j in range(2, k):
            if brute_exists(g, N, j):
                return
        assert minimal_codeword_span(g, N, k) == brute_min_span(g, N, k)

    def test_weight2_span_is_order_plus_one(self):
        # x^2+x+1: shortest weight-2 codeword is x^3+1, span 4
        assert minimal_codeword_span(0b111, 10, 2) == 4

    def test_none_when_absent(self):
        # primitive degree-4: no weight-2 codeword within 10 bits
        assert minimal_codeword_span(0b10011, 10, 2) is None

    def test_generator_span_found(self):
        # The generator itself is always the, or a, short codeword.
        g = 0x107  # weight 4, span 9
        assert minimal_codeword_span(g, 40, 4) <= 9
