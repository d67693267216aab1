"""hamming_distance vs brute force and known CRC facts."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2.poly import degree, divisible_by_x_plus_1
from repro.hd.hamming import hamming_distance, hd_profile
from repro.hd.weights import brute_force_weights
from tests.conftest import envelope

gen_polys = st.integers(min_value=0b10011, max_value=(1 << 11) - 1).filter(
    lambda p: p & 1
)


def brute_hd(g: int, n: int, k_max: int = 8) -> int:
    w = brute_force_weights(g, n, k_max)
    for k in range(2, k_max + 1):
        if w[k]:
            return k
    raise AssertionError("HD beyond k_max")


class TestAgainstBruteForce:
    @given(gen_polys, st.integers(min_value=2, max_value=18))
    @settings(max_examples=120, deadline=None)
    def test_agreement(self, g, n):
        if n + degree(g) > 26:
            return
        try:
            expected = brute_hd(g, n)
        except AssertionError:
            return
        assert hamming_distance(g, n, k_max=8) == expected

    @given(gen_polys, st.integers(min_value=2, max_value=14))
    @settings(max_examples=60, deadline=None)
    def test_parity_flag_never_changes_answer(self, g, n):
        if n + degree(g) > 24:
            return
        try:
            with_parity = hamming_distance(g, n, k_max=8, exploit_parity=True)
            without = hamming_distance(g, n, k_max=8, exploit_parity=False)
        except ValueError:
            return
        assert with_parity == without


class TestKnownValues:
    def test_crc8_atm_hd(self):
        # 0x107: HD=4 through 119 bits, HD=2 beyond (order 127).
        g = 0x107
        assert hamming_distance(g, 10) == 4
        assert hamming_distance(g, 119) == 4
        assert hamming_distance(g, 120) == 2

    def test_crc16_ccitt_hd(self):
        # x^16+x^12+x^5+1 = (x+1)(x^15+x^14+x^13+x^12+x^4+x^3+x^2+x+1):
        # the classic HD=4 to 32751 bits CCITT behaviour at short lengths.
        g = 0x11021
        assert hamming_distance(g, 100) == 4
        assert hamming_distance(g, 1000) == 4

    def test_hd_monotone_nonincreasing(self):
        g = 0x107
        hds = [hamming_distance(g, n) for n in (5, 20, 80, 119, 130)]
        assert hds == sorted(hds, reverse=True)

    def test_invalid_length(self):
        with pytest.raises(ValueError):
            hamming_distance(0x107, 0)

    def test_kmax_exceeded(self):
        # x+1 alone detects only parity: HD=2 everywhere; but a huge
        # generator at tiny length can exceed small k_max.
        with pytest.raises(ValueError):
            hamming_distance(0x104C11DB7, 2, k_max=3)


class TestProfile:
    def test_profile_shape(self):
        prof = hd_profile(0x107, [10, 50, 119, 125])
        assert prof == {10: 4, 50: 4, 119: 4, 125: 2}


class TestBound:
    def test_bound_is_exact_when_feasible(self):
        from repro.hd.hamming import hamming_distance_bound

        hd, exact = hamming_distance_bound(0x107, 50)
        assert (hd, exact) == (4, True)

    def test_bound_degrades_at_envelope(self):
        from repro.hd.hamming import hamming_distance_bound

        # tiny envelope: the weight-4 check at 500 bits is unaffordable,
        # so we get a verified HD >= 4 lower bound instead of an answer
        g = 0x11021  # CCITT: true HD is 4 at 500 bits
        with envelope(MEM_ELEMS=10_000, STREAM_ELEMS=10_000, WITNESS_WINDOW=3):
            hd, exact = hamming_distance_bound(g, 500)
        assert not exact
        assert hd >= 3

    def test_bound_respects_kmax(self):
        from repro.hd.hamming import hamming_distance_bound

        # HD of 802.3 at 91 bits is >= 8; with k_max=5 we learn only that
        from repro.gf2.notation import koopman_to_full

        hd, exact = hamming_distance_bound(
            koopman_to_full(0x82608EDB), 91, k_max=5
        )
        assert (hd, exact) == (6, False)

    def test_bound_weight2_exact(self):
        from repro.hd.hamming import hamming_distance_bound

        assert hamming_distance_bound(0x107, 150) == (2, True)
