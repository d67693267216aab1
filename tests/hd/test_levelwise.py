"""Tests for the level-wise combination-XOR generator and its
closed-form unranking -- the machinery behind high-weight checks."""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hd import mitm
from repro.hd.cost import EnvelopeError
from repro.hd.mitm import (
    _levelwise,
    _stream_side,
    _unrank_levelwise,
    exists_weight_k,
    find_witness,
)
from repro.hd.syndromes import syndrome_of_positions, syndrome_table
from tests.conftest import envelope

gen_polys = st.integers(min_value=0b1000001, max_value=(1 << 12) - 1).filter(
    lambda p: p & 1
)


class TestLevelwiseGeneration:
    @given(gen_polys, st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=4),
           st.integers(min_value=6, max_value=16))
    @settings(max_examples=150, deadline=None)
    def test_matches_itertools(self, g, s, lo, hi):
        if hi - lo < s:
            return
        syn = syndrome_table(g, hi)
        vals = _levelwise(syn, s, lo, hi)
        got = sorted(int(v) for v in vals)
        brute = sorted(
            int(np.bitwise_xor.reduce(syn[list(c)]))
            for c in combinations(range(lo, hi), s)
        )
        assert got == brute
        assert len(vals) == comb(hi - lo, s)
        # grouped by ascending max position: the subsets with max < c
        # are the first C(c - lo, s)
        maxpos = [max(_unrank_levelwise(i, s, lo)) for i in range(len(vals))]
        assert maxpos == sorted(maxpos)
        for c in range(lo + s, hi):
            assert maxpos[comb(c - lo, s) - 1] < c

    def test_empty_when_too_small(self):
        syn = syndrome_table(0x107, 10)
        assert len(_levelwise(syn, 5, 0, 3)) == 0

    def test_cap_enforced(self):
        syn = syndrome_table(0x107, 3000)
        with pytest.raises(EnvelopeError):
            _levelwise(syn, 4, 0, 3000)


class TestUnranking:
    @given(st.integers(min_value=1, max_value=5),
           st.integers(min_value=0, max_value=3),
           st.integers(min_value=6, max_value=14))
    @settings(max_examples=100, deadline=None)
    def test_unrank_inverts_generation_order(self, s, lo, hi):
        if hi - lo < s:
            return
        syn = syndrome_table(0x107, hi)
        vals = _levelwise(syn, s, lo, hi)
        for index in range(len(vals)):
            positions = _unrank_levelwise(index, s, lo)
            assert len(positions) == s
            assert all(lo <= p < hi for p in positions)
            acc = 0
            for p in positions:
                acc ^= int(syn[p])
            assert acc == int(vals[index]), (index, positions)

    def test_unrank_distinct(self):
        seen = {_unrank_levelwise(i, 3, 1) for i in range(comb(9, 3))}
        assert len(seen) == comb(9, 3)


class TestStreamSide:
    @given(gen_polys, st.integers(min_value=1, max_value=4),
           st.integers(min_value=8, max_value=18),
           st.integers(min_value=4, max_value=64))
    @settings(max_examples=100, deadline=None)
    def test_stream_covers_all_subsets(self, g, s, hi, chunk):
        if hi - 1 < s:
            return
        syn = syndrome_table(g, hi)
        streamed = []
        with envelope(mitm, CHUNK_ELEMS=chunk):
            chunks = list(_stream_side(syn, s, 1, hi, want_max=True))
        for ch in chunks:
            assert len(ch.values) == len(ch.elem_max)
            for off in range(len(ch.values)):
                positions = ch.resolve(off)
                assert len(positions) == s
                assert max(positions) == int(ch.elem_max[off])
                acc = 0
                for p in positions:
                    acc ^= int(syn[p])
                assert acc == int(ch.values[off])
                streamed.append(positions)
        assert sorted(streamed) == sorted(combinations(range(1, hi), s))


class TestHighWeightChecks:
    """The regime the level-wise path exists for: weights 6-14 at the
    small windows of Table 1's upper rows."""

    def brute_exists(self, g, N, k):
        syn = [int(s) for s in syndrome_table(g, N)]
        for c in combinations(range(N), k):
            acc = 0
            for p in c:
                acc ^= syn[p]
            if acc == 0:
                return True
        return False

    @pytest.mark.parametrize("k", [6, 7, 8, 9])
    def test_agreement_small_windows(self, k):
        g = 0x11021  # CRC-16/CCITT
        for N in (k + 1, k + 4, 22):
            # honor the ascending-k precondition
            skip = False
            for j in range(2, k):
                if self.brute_exists(g, N, j):
                    skip = True
                    break
            if skip:
                continue
            assert exists_weight_k(g, N, k) == self.brute_exists(g, N, k)

    def test_witness_weight_9(self):
        # Build a generator with a known weight-9 multiple: g * (1+x)
        # patterns; simpler: find any real witness and verify it.
        g = 0b11010011001  # degree 10, 6 terms
        N = 26
        for k in range(2, 9):
            if self.brute_exists(g, N, k):
                w = find_witness(g, N, k)
                assert w is not None
                assert syndrome_of_positions(g, w) == 0
                assert len(w) == k
                break

    def test_generator_itself_found_at_high_weight(self):
        # a 15-term degree-16 generator is a weight-15 codeword
        g = 0b11111111111110111
        k = g.bit_count()
        N = 20
        assert exists_weight_k(g, N, k)
        w = find_witness(g, N, k)
        assert w is not None and syndrome_of_positions(g, w) == 0
