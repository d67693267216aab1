"""Candidate-space enumeration and reciprocal deduplication tests."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2.poly import is_palindrome, reciprocal
from repro.search.space import (
    candidate_count,
    candidate_polys,
    canonical,
    canonical_candidates,
    canonical_mask,
    index_range_polys,
    index_to_poly,
    is_canonical,
    poly_to_index,
)


class TestIndexing:
    @given(st.integers(min_value=0, max_value=(1 << 15) - 1))
    def test_roundtrip(self, idx):
        assert poly_to_index(index_to_poly(idx, 16), 16) == idx

    def test_8023_index(self):
        # interior bits of the full encoding (koopman repr minus the
        # fixed x^32 top bit) form the dense index
        assert index_to_poly(0x82608EDB & 0x7FFFFFFF, 32) == 0x104C11DB7

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            index_to_poly(1 << 31, 32)
        with pytest.raises(ValueError):
            poly_to_index(0x104C11DB6, 32)  # missing +1 term

    def test_enumeration_shape(self):
        polys = list(candidate_polys(6))
        assert len(polys) == 32
        assert all(p >> 6 == 1 and p & 1 for p in polys)
        assert len(set(polys)) == 32


class TestCanonicalization:
    @given(st.integers(min_value=0, max_value=(1 << 15) - 1))
    @settings(max_examples=200)
    def test_canonical_is_min_of_pair(self, idx):
        p = index_to_poly(idx, 16)
        c = canonical(p)
        assert c in (p, reciprocal(p))
        assert c <= p and c <= reciprocal(p)

    @given(st.integers(min_value=0, max_value=(1 << 15) - 1))
    def test_exactly_one_of_pair_is_canonical(self, idx):
        p = index_to_poly(idx, 16)
        r = reciprocal(p)
        if p == r:
            assert is_canonical(p)
        else:
            assert is_canonical(p) != is_canonical(r)

    def test_reciprocal_stays_in_space(self):
        # reciprocal of a width-w candidate is a width-w candidate
        for p in candidate_polys(8):
            r = reciprocal(p)
            assert r >> 8 == 1 and r & 1


class TestCanonicalMask:
    @pytest.mark.parametrize("width", range(5, 64))
    def test_matches_scalar_is_canonical(self, width):
        # Small index ranges at the bottom, middle and top of the space:
        # the vectorized reversal must agree with the scalar test at
        # every width the packed screen runs, 56-63 included.
        space = 1 << (width - 1)
        for start in {0, max(space // 2 - 16, 0), max(space - 32, 0)}:
            polys = index_range_polys(width, start, min(start + 32, space))
            expect = [is_canonical(int(p)) for p in polys]
            assert canonical_mask(width, polys).tolist() == expect


class TestCounts:
    @pytest.mark.parametrize("width", [3, 4, 5, 6, 8, 10])
    def test_census_matches_enumeration(self, width):
        canonicals = list(canonical_candidates(width))
        expected = candidate_count(width)
        assert len(canonicals) == expected["canonical"]
        palindromes = [p for p in candidate_polys(width) if is_palindrome(p)]
        assert len(palindromes) == expected["palindromes"]

    def test_paper_32bit_count(self):
        # "The entire set of 1,073,774,592 distinct polynomials"
        assert candidate_count(32)["canonical"] == 1_073_774_592

    def test_partition_covers_space(self):
        # chunked canonical enumeration == full canonical enumeration
        full = list(canonical_candidates(8))
        chunked = []
        for lo in range(0, 128, 13):
            chunked.extend(canonical_candidates(8, lo, min(lo + 13, 128)))
        assert chunked == full
