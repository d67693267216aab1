"""``x**n mod g`` as a power of the companion matrix vs the big-int
polynomial oracle.

The companion matrix of ``g`` is the one-zero-bit evolution matrix of
a normal register of width ``degree(g)`` -- ``shift_operator`` of the
bit-matrix helpers in :mod:`repro.crc.parallel`.  Its powers give an
oracle for the HD layer's jump (:func:`repro.hd.jump.syndrome_at`,
which is :func:`~repro.gf2.poly.x_pow_mod`) that shares no code with
square-and-multiply over polynomials.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crc.parallel import identity, mat_mul, mat_pow, mat_vec, shift_operator
from repro.gf2.poly import degree, gf2_mulmod, x_pow_mod
from repro.hd.jump import syndrome_at, syndrome_window
from repro.hd.syndromes import syndrome_table

MAX_DEGREE = 64  # syndromes must fit a machine word


def companion_matrix(g: int):
    """Multiplication by ``x`` modulo ``g``, column-major."""
    r = degree(g)
    return shift_operator(r, g ^ (1 << r))


def matrix_jump(g: int, n: int) -> int:
    """``x**n mod g`` as ``C**n`` applied to the syndrome ``1``."""
    return mat_vec(mat_pow(companion_matrix(g), n), 1)


@st.composite
def odd_polys(draw, max_degree=MAX_DEGREE):
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
        i = identity(degree(g))
        assert mat_mul(c, i) == c
        assert mat_mul(i, c) == c

    def test_degree_out_of_range(self):
        # The syndrome machinery keeps remainders in a machine word:
        # degree 65 and degree 0 are refused.
        with pytest.raises(ValueError):
            syndrome_table(1 << 65 | 1, 4)
        with pytest.raises(ValueError):
            syndrome_window(1 << 65 | 1, 10**6, 4)
        with pytest.raises(ValueError):
            syndrome_table(1, 4)


class TestMatPow:
    @given(odd_polys(), st.integers(min_value=0, max_value=10**12))
    @settings(max_examples=100, deadline=None)
    def test_mat_pow_matches_x_pow_mod(self, g, n):
        assert matrix_jump(g, n) == x_pow_mod(n, g)

    @given(odd_polys())
    @settings(max_examples=50, deadline=None)
    def test_square_is_self_product(self, g):
        c = companion_matrix(g)
        assert mat_pow(c, 2) == mat_mul(c, c)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            mat_pow(companion_matrix(0b1011), -1)


class TestPowerLadder:
    """The HD layer's jump against the matrix-power oracle."""

    @given(odd_polys(), st.lists(
        st.integers(min_value=0, max_value=10**9), min_size=1, max_size=8,
    ))
    @settings(max_examples=60, deadline=None)
    def test_jumps_match_oracle(self, g, ns):
        # One ladder of squarings C**(2**i) serves every jump.
        squares = [companion_matrix(g)]
        for _ in range(max(ns).bit_length()):
            squares.append(mat_mul(squares[-1], squares[-1]))
        for n in ns:
            s = 1
            for i in range(n.bit_length()):
                if n >> i & 1:
                    s = mat_vec(squares[i], s)
            assert syndrome_at(g, n) == s, n

    @given(odd_polys(), st.integers(min_value=0, max_value=10**6),
           st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=60, deadline=None)
    def test_jump_composes(self, g, a, b):
        from_a = mat_vec(mat_pow(companion_matrix(g), b), syndrome_at(g, a))
        assert from_a == syndrome_at(g, a + b)

    def test_crc32_jumps_match_oracle_up_to_1e15(self, g_8023):
        # The CRC-32 generator at fixed lengths: word boundaries, the
        # paper's 12,112-bit MTU, and jumps far past any table.
        for n in (1, 63, 64, 4096, 12_112, 10**9, 10**15):
            assert syndrome_at(g_8023, n) == matrix_jump(g_8023, n), n

    def test_backward_jump_rejected(self):
        with pytest.raises(ValueError):
            syndrome_at(0b1011, -5)
        with pytest.raises(ValueError):
            syndrome_window(0b1011, -5, 2)
