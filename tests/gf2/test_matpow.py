"""GF(2) matrix-power ladder vs the big-int polynomial oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2.matpow import (
    MATPOW_MAX_DEGREE,
    PowerLadder,
    companion_matrix,
    identity_matrix,
    ladder_for,
    mat_mul,
    mat_pow,
    mat_square,
    mat_vec,
)
from repro.gf2.poly import degree, gf2_mulmod, x_pow_mod


@st.composite
def odd_polys(draw, max_degree=MATPOW_MAX_DEGREE):
    """Generators with g(0) == 1 (invertible x), any degree 1..64."""
    r = draw(st.integers(min_value=1, max_value=max_degree))
    interior = draw(st.integers(min_value=0, max_value=(1 << r) - 1))
    return (1 << r) | interior | 1


class TestCompanionMatrix:
    @given(odd_polys(), st.integers(min_value=0, max_value=(1 << 64) - 1))
    @settings(max_examples=100, deadline=None)
    def test_one_step_is_multiply_by_x(self, g, state):
        r = degree(g)
        state &= (1 << r) - 1
        stepped = mat_vec(companion_matrix(g), state)
        assert stepped == gf2_mulmod(state, 0b10, g)

    @given(odd_polys())
    @settings(max_examples=50, deadline=None)
    def test_identity_is_neutral(self, g):
        c = companion_matrix(g)
        i = identity_matrix(degree(g))
        np.testing.assert_array_equal(mat_mul(c, i), c)
        np.testing.assert_array_equal(mat_mul(i, c), c)

    def test_degree_out_of_range(self):
        with pytest.raises(ValueError):
            companion_matrix(1 << 65 | 1)
        with pytest.raises(ValueError):
            identity_matrix(0)


class TestMatPow:
    @given(odd_polys(), st.integers(min_value=0, max_value=10**12))
    @settings(max_examples=100, deadline=None)
    def test_mat_pow_matches_x_pow_mod(self, g, n):
        assert mat_vec(mat_pow(companion_matrix(g), n), 1) == x_pow_mod(n, g)

    @given(odd_polys())
    @settings(max_examples=50, deadline=None)
    def test_square_is_self_product(self, g):
        c = companion_matrix(g)
        np.testing.assert_array_equal(mat_square(c), mat_mul(c, c))

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            mat_pow(companion_matrix(0b1011), -1)


class TestPowerLadder:
    @given(odd_polys(), st.lists(
        st.integers(min_value=0, max_value=10**9), min_size=1, max_size=8,
    ))
    @settings(max_examples=60, deadline=None)
    def test_jumps_match_oracle(self, g, ns):
        ladder = PowerLadder(g)
        for n in ns:  # repeated jumps share the cached squarings
            assert ladder.syndrome_at(n) == x_pow_mod(n, g)

    @given(odd_polys(), st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_jump_composes(self, g, a, b):
        ladder = ladder_for(g)
        assert ladder.jump(ladder.syndrome_at(a), b) == ladder.syndrome_at(a + b)

    def test_crc32_jumps_match_oracle_up_to_1e15(self, g_8023):
        # The CRC-32 generator at fixed lengths: word boundaries, the
        # paper's 12,112-bit MTU, and jumps far past any table.
        ladder = ladder_for(g_8023)
        for n in (1, 63, 64, 4096, 12_112, 10**9, 10**15):
            assert ladder.syndrome_at(n) == x_pow_mod(n, g_8023), n

    def test_ladder_cache_returns_same_object(self):
        assert ladder_for(0x104C11DB7) is ladder_for(0x104C11DB7)

    def test_backward_jump_rejected(self):
        with pytest.raises(ValueError):
            PowerLadder(0b1011).jump(1, -5)
