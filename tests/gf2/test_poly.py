"""Unit and property tests for GF(2)[x] arithmetic."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gf2.poly import (
    degree,
    derivative,
    divisible_by_x_plus_1,
    evaluate_at_one,
    gf2_add,
    gf2_divmod,
    gf2_gcd,
    gf2_mod,
    gf2_mul,
    gf2_mulmod,
    gf2_powmod,
    gf2_sqrt,
    is_palindrome,
    reciprocal,
    x_pow_mod,
)

polys = st.integers(min_value=0, max_value=(1 << 64) - 1)
nonzero_polys = st.integers(min_value=1, max_value=(1 << 64) - 1)


class TestDegree:
    def test_zero(self):
        assert degree(0) == -1

    def test_one(self):
        assert degree(1) == 0

    def test_crc32(self):
        assert degree(0x104C11DB7) == 32

    @given(polys)
    def test_matches_bit_length(self, p):
        assert degree(p) == p.bit_length() - 1


class TestAddMul:
    def test_add_is_xor(self):
        assert gf2_add(0b101, 0b011) == 0b110

    @given(polys, polys)
    def test_add_self_inverse(self, a, b):
        assert gf2_add(gf2_add(a, b), b) == a

    def test_mul_basic(self):
        # (x+1)^2 == x^2 + 1 in characteristic 2
        assert gf2_mul(0b11, 0b11) == 0b101

    def test_mul_zero(self):
        assert gf2_mul(0, 0x104C11DB7) == 0
        assert gf2_mul(0x104C11DB7, 0) == 0

    def test_mul_identity(self):
        assert gf2_mul(1, 0xDEADBEEF) == 0xDEADBEEF

    @given(polys, polys)
    @settings(max_examples=200)
    def test_mul_commutative(self, a, b):
        assert gf2_mul(a, b) == gf2_mul(b, a)

    @given(polys, polys, polys)
    @settings(max_examples=100)
    def test_mul_distributes_over_add(self, a, b, c):
        assert gf2_mul(a, b ^ c) == gf2_mul(a, b) ^ gf2_mul(a, c)

    @given(nonzero_polys, nonzero_polys)
    def test_mul_degree_adds(self, a, b):
        assert degree(gf2_mul(a, b)) == degree(a) + degree(b)


class TestDivMod:
    def test_exact_division(self):
        prod = gf2_mul(0b1011, 0b111)
        q, r = gf2_divmod(prod, 0b1011)
        assert (q, r) == (0b111, 0)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gf2_divmod(0b101, 0)
        with pytest.raises(ZeroDivisionError):
            gf2_mod(0b101, 0)

    @given(polys, nonzero_polys)
    @settings(max_examples=300)
    def test_divmod_invariant(self, a, b):
        q, r = gf2_divmod(a, b)
        assert gf2_mul(q, b) ^ r == a
        assert degree(r) < degree(b)

    @given(polys, nonzero_polys)
    def test_mod_agrees_with_divmod(self, a, b):
        assert gf2_mod(a, b) == gf2_divmod(a, b)[1]


class TestGcd:
    def test_known(self):
        # gcd((x+1)(x^2+x+1), (x+1)) == x+1
        assert gf2_gcd(gf2_mul(0b11, 0b111), 0b11) == 0b11

    @given(polys, polys)
    @settings(max_examples=200)
    def test_gcd_divides_both(self, a, b):
        g = gf2_gcd(a, b)
        if g:
            assert gf2_mod(a, g) == 0
            assert gf2_mod(b, g) == 0

    @given(polys, polys)
    def test_gcd_commutative(self, a, b):
        assert gf2_gcd(a, b) == gf2_gcd(b, a)

    @given(nonzero_polys, nonzero_polys, nonzero_polys)
    @settings(max_examples=100)
    def test_common_factor_detected(self, a, b, c):
        # gcd(ac, bc) is always a multiple of c.
        g = gf2_gcd(gf2_mul(a, c), gf2_mul(b, c))
        assert gf2_mod(g, c) == 0


class TestPowMod:
    def test_x_pow(self):
        # x^3 mod (x^3+x+1) == x+1
        assert x_pow_mod(3, 0b1011) == 0b011

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            gf2_powmod(0b10, -1, 0b1011)

    @given(st.integers(min_value=0, max_value=500), nonzero_polys.filter(lambda p: p > 1))
    @settings(max_examples=100)
    def test_powmod_matches_repeated_mul(self, e, m):
        expected = gf2_mod(1, m)
        for _ in range(e % 20):
            expected = gf2_mulmod(expected, 0b10, m)
        assert gf2_powmod(0b10, e % 20, m) == expected

    @given(
        st.integers(min_value=1, max_value=64).flatmap(
            lambda r: st.integers(min_value=1 << r, max_value=(2 << r) - 1)
        ),
        st.integers(min_value=0, max_value=10**15),
        st.integers(min_value=0, max_value=10**15),
    )
    @example(0x104C11DB7, 1000, 234)
    @settings(max_examples=100, deadline=None)
    def test_exponent_addition_law(self, m, a, b):
        # The far-n reach of the one scalar jump: every generator of
        # degree 1..64, lengths far past any syndrome table.
        assert x_pow_mod(a + b, m) == gf2_mulmod(
            x_pow_mod(a, m), x_pow_mod(b, m), m
        )

    def test_x_to_its_order_is_one(self, paper_polys):
        from repro.gf2.order import order_of_x

        for poly in paper_polys.values():
            g = poly.full
            n = order_of_x(g)
            assert x_pow_mod(n, g) == 1, poly.label


class TestSqrtDerivative:
    def test_sqrt_of_square(self):
        p = 0b1011011
        assert gf2_sqrt(gf2_mul(p, p)) == p

    def test_sqrt_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            gf2_sqrt(0b10)  # x is not a perfect square

    @given(polys)
    @settings(max_examples=200)
    def test_sqrt_roundtrip(self, p):
        assert gf2_sqrt(gf2_mul(p, p)) == p

    def test_derivative_of_square_is_zero(self):
        p = 0b110111
        assert derivative(gf2_mul(p, p)) == 0

    def test_derivative_known(self):
        # d/dx (x^3 + x^2 + x + 1) = 3x^2 + 2x + 1 = x^2 + 1 over GF(2)
        assert derivative(0b1111) == 0b101

    @given(polys, polys)
    @settings(max_examples=150)
    def test_derivative_product_rule(self, a, b):
        left = derivative(gf2_mul(a, b))
        right = gf2_mul(derivative(a), b) ^ gf2_mul(a, derivative(b))
        assert left == right


class TestReciprocal:
    def test_crc32_reciprocal(self):
        assert reciprocal(0x104C11DB7) == 0x1DB710641

    @given(nonzero_polys.filter(lambda p: p & 1))
    @settings(max_examples=200)
    def test_involution_for_unit_constant_term(self, p):
        # With a non-zero constant term, bit-reversal is an involution.
        assert reciprocal(reciprocal(p)) == p

    @given(nonzero_polys.filter(lambda p: p & 1), nonzero_polys.filter(lambda p: p & 1))
    @settings(max_examples=100)
    def test_reciprocal_multiplicative(self, a, b):
        assert reciprocal(gf2_mul(a, b)) == gf2_mul(reciprocal(a), reciprocal(b))

    def test_palindrome(self):
        assert is_palindrome(0b1001001)
        assert not is_palindrome(0b1101)


class TestParity:
    def test_even_terms_divisible(self):
        assert divisible_by_x_plus_1(0b11)       # x+1 itself
        assert divisible_by_x_plus_1(0b1111)     # 4 terms
        assert not divisible_by_x_plus_1(0b1011)  # 3 terms

    @given(nonzero_polys)
    @settings(max_examples=200)
    def test_matches_actual_division(self, p):
        assert divisible_by_x_plus_1(p) == (gf2_mod(p, 0b11) == 0)

    @given(nonzero_polys)
    def test_evaluate_at_one(self, p):
        assert evaluate_at_one(p) == (0 if divisible_by_x_plus_1(p) else 1)
