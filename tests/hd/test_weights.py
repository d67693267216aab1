"""Weight counting vs brute force, and the counting identities."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2.order import order_of_x
from repro.gf2.poly import degree
from repro.hd import weights
from repro.hd.cost import EnvelopeError
from repro.hd.syndromes import syndrome_table
from repro.hd.weights import (
    brute_force_weights,
    count_weight_2,
    count_weight_3,
    count_weight_4,
    count_weight_5,
    count_weight_6,
    undetected_fraction,
    weight_profile,
)
from tests.conftest import envelope

gen_polys = st.integers(min_value=0b10001, max_value=(1 << 13) - 1).filter(
    lambda p: p & 1
)


class TestCountingAgainstBruteForce:
    @given(gen_polys, st.integers(min_value=5, max_value=26))
    @settings(max_examples=150, deadline=None)
    def test_w3_w4_match(self, g, N):
        if order_of_x(g) < N:
            return  # counting precondition
        n = N - degree(g)
        if n < 1:
            return
        brute = brute_force_weights(g, n, 4)
        assert count_weight_2(g, N) == brute[2]
        assert count_weight_3(g, N) == brute[3]
        assert count_weight_4(g, N) == brute[4]

    def test_w2_counts_duplicates(self):
        # order 3 generator: within 7 positions, {0,3},{1,4},{2,5},{3,6},
        # {0,6} are weight-2 codewords -> pairs with equal syndromes
        g = 0b111
        brute = brute_force_weights(g, 5, 2)  # N=7
        assert count_weight_2(g, 7) == brute[2]

    def test_chunking_invariance(self):
        g = 0x107
        N = 120
        with envelope(weights, W3_CHUNK_ROWS=2048):
            baseline = count_weight_3(g, N)
        with envelope(weights, W3_CHUNK_ROWS=7):
            assert count_weight_3(g, N) == baseline

    @given(gen_polys, st.integers(min_value=6, max_value=22))
    @settings(max_examples=80, deadline=None)
    def test_w5_w6_match_brute_force(self, g, N):
        if order_of_x(g) < N:
            return
        n = N - degree(g)
        if n < 1:
            return
        brute = brute_force_weights(g, n, 6)
        assert count_weight_5(g, N) == brute[5]
        assert count_weight_6(g, N) == brute[6]

    def test_w5_w6_with_nonzero_low_weights(self):
        # a generator with W3 > 0 in range exercises the degeneracy
        # corrections (3(N-3)W3 for W5, 3(N-4)W4 for W6)
        g = 0b1011  # x^3+x+1, order 7: lots of small codewords
        N = 7       # stay at/below the order
        brute = brute_force_weights(g, N - 3, 6)
        assert count_weight_5(g, N) == brute[5]
        assert count_weight_6(g, N) == brute[6]

    def test_w5_parity_poly_is_zero(self):
        # (x+1)-divisible: every odd weight is 0 -- and the counter
        # must agree from raw counting, not the theorem
        assert count_weight_5(0x107, 60) == 0

    def test_w6_802_3_small(self):
        from repro.gf2.notation import koopman_to_full

        g = koopman_to_full(0x82608EDB)
        # HD=6 band (172-268): some weight-6 errors must exist at 300
        assert count_weight_6(g, 300 + 32) > 0
        # and none in the HD>=7 region
        assert count_weight_6(g, 150 + 32) == 0


class TestPreconditionsAndGuards:
    def test_rejects_window_beyond_order(self):
        with pytest.raises(EnvelopeError):
            count_weight_3(0b111, 10)  # order 3 << 10

    def test_w4_memory_guard(self):
        with envelope(MEM_ELEMS=100), pytest.raises(EnvelopeError):
            count_weight_4(0x104C11DB7, 10_000)

    def test_brute_force_guard(self):
        with pytest.raises(EnvelopeError):
            brute_force_weights(0x104C11DB7, 1000, 6)

    def test_weight_profile_k_range(self):
        with pytest.raises(ValueError):
            weight_profile(0x107, 50, 7)

    def test_weight_profile_to_six(self):
        prof = weight_profile(0x107, 30, 6)
        brute = brute_force_weights(0x107, 30, 6)
        assert prof == brute


class TestWeightProfile:
    def test_profile_keys(self):
        prof = weight_profile(0x107, 40, 4)
        assert sorted(prof) == [2, 3, 4]

    def test_profile_matches_individual_counts(self):
        g, n = 0x107, 40
        N = n + 8
        prof = weight_profile(g, n, 4)
        assert prof[2] == count_weight_2(g, N)
        assert prof[3] == count_weight_3(g, N)
        assert prof[4] == count_weight_4(g, N)

    def test_hd4_poly_has_zero_low_weights(self):
        # CRC-8 0x107 detects all 2- and 3-bit errors out to 119 bits
        prof = weight_profile(0x107, 100, 3)
        assert prof[2] == 0 and prof[3] == 0


class TestUndetectedFraction:
    def test_paper_style_fraction(self):
        # "slightly more than 1 out of every 2^32" for 802.3 at MTU:
        # checked against the real numbers in test_paper_claims.
        assert undetected_fraction(1, 100, 4) == pytest.approx(1 / 3921225)

    def test_zero_weight(self):
        assert undetected_fraction(0, 1000, 4) == 0.0
