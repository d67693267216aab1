"""Tests for syndrome sequence generation."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2.poly import x_pow_mod
from repro.hd.syndromes import (
    extend_syndrome_table,
    is_undetected_pattern,
    syndrome_of_positions,
    syndrome_table,
)

gen_polys = st.integers(min_value=0b101, max_value=(1 << 17) - 1).filter(
    lambda p: p & 1 and p.bit_length() >= 2
)


class TestSyndromeTable:
    def test_doctest_example(self):
        assert syndrome_table(0b1011, 4).tolist() == [1, 2, 4, 3]

    def test_empty(self):
        assert len(syndrome_table(0b1011, 0)) == 0

    def test_width_bounds(self):
        with pytest.raises(ValueError):
            syndrome_table(0b1, 4)  # degree 0
        with pytest.raises(ValueError):
            syndrome_table(1 << 65 | 1, 4)  # wider than a machine word

    @given(gen_polys, st.integers(min_value=1, max_value=300))
    @settings(max_examples=100, deadline=None)
    def test_matches_powmod_oracle(self, g, n):
        table = syndrome_table(g, n)
        for i in (0, n // 2, n - 1):
            assert int(table[i]) == x_pow_mod(i, g)

    @given(gen_polys)
    @settings(max_examples=50, deadline=None)
    def test_recurrence_consistency(self, g):
        # every consecutive pair satisfies r_{i+1} = x * r_i mod g
        table = syndrome_table(g, 64)
        from repro.gf2.poly import gf2_mulmod

        for i in range(63):
            assert int(table[i + 1]) == gf2_mulmod(int(table[i]), 0b10, g)

    def test_crc32_values(self):
        g = 0x104C11DB7
        table = syndrome_table(g, 40)
        assert int(table[31]) == 1 << 31
        assert int(table[32]) == 0x04C11DB7  # x^32 mod g == g - x^32


class TestExtend:
    @given(gen_polys, st.integers(min_value=0, max_value=100),
           st.integers(min_value=0, max_value=200))
    @settings(max_examples=100, deadline=None)
    def test_extension_matches_fresh(self, g, n1, n2):
        base = syndrome_table(g, n1)
        ext = extend_syndrome_table(g, base, n2)
        fresh = syndrome_table(g, n2)
        assert np.array_equal(ext, fresh)

    def test_shrink_is_slice(self):
        g = 0b1011
        t = syndrome_table(g, 10)
        assert np.array_equal(extend_syndrome_table(g, t, 5), t[:5])


class TestPatternOracle:
    def test_generator_is_codeword(self):
        g = 0x107
        positions = [i for i in range(9) if (g >> i) & 1]
        assert is_undetected_pattern(g, positions)

    def test_single_bits_always_detected(self):
        g = 0x107
        for p in range(20):
            assert not is_undetected_pattern(g, [p])

    def test_negative_position(self):
        with pytest.raises(ValueError):
            syndrome_of_positions(0b1011, [-2])

    @given(gen_polys, st.sets(st.integers(min_value=0, max_value=200), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_xor_of_table_matches_oracle(self, g, positions):
        table = syndrome_table(g, 201)
        acc = 0
        for p in positions:
            acc ^= int(table[p])
        assert (acc == 0) == is_undetected_pattern(g, sorted(positions))
