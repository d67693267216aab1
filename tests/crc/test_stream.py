"""Streaming / advance / combine CRC tests, and the bit-matrix algebra
of the parallel realization (``repro.crc.parallel``) tied to the same
syndromes ``x**k mod G``.  Streaming is ``CrcSession``; its service
behaviour is in ``tests/service/test_session.py``."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crc.backends import get_kernel
from repro.crc.catalog import CATALOG
from repro.crc.engine import crc_bitwise
from repro.crc.parallel import identity, mat_mul, mat_pow, mat_vec, shift_operator
from repro.crc.stream import advance, crc_combine
from repro.service.session import CrcSession

SPEC_IDS = sorted(CATALOG)


class TestMatrixAlgebra:
    def test_identity(self):
        ident = identity(4)
        assert mat_vec(ident, 0b1011) == 0b1011

    def test_mat_mul_associative(self):
        a = shift_operator(8, 0x07)
        b = mat_pow(a, 3)
        assert mat_mul(a, mat_mul(a, a)) == b

    def test_pow_zero_is_identity(self):
        a = shift_operator(8, 0x07)
        assert mat_pow(a, 0) == identity(8)

    @given(st.integers(min_value=0, max_value=500))
    @settings(max_examples=50)
    def test_pow_additivity(self, e):
        a = shift_operator(16, 0x1021)
        assert mat_mul(mat_pow(a, e), mat_pow(a, 7)) == mat_pow(a, e + 7)

    def test_shift_matches_syndrome_evolution(self):
        # advancing the remainder register by k zero bits multiplies
        # the corresponding polynomial by x^k mod G
        from repro.gf2.poly import x_pow_mod

        g = 0x104C11DB7
        op = shift_operator(32, 0x04C11DB7)
        state = 1
        for k in range(1, 64):
            state = mat_vec(op, state)
            assert state == x_pow_mod(k, g)


class TestCombine:
    @given(st.sampled_from(SPEC_IDS), st.binary(max_size=60), st.binary(max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_combine_matches_concatenation(self, name, a, b):
        spec = CATALOG[name]
        combined = crc_combine(
            spec, crc_bitwise(spec, a), crc_bitwise(spec, b), len(b)
        )
        assert combined == crc_bitwise(spec, a + b)

    def test_empty_b(self):
        spec = CATALOG["CRC-32/IEEE-802.3"]
        c = crc_bitwise(spec, b"abc")
        assert crc_combine(spec, c, crc_bitwise(spec, b""), 0) == c

    def test_negative_length(self):
        spec = CATALOG["CRC-32/IEEE-802.3"]
        with pytest.raises(ValueError):
            crc_combine(spec, 0, 0, -1)

    @given(st.sampled_from(SPEC_IDS), st.binary(max_size=30),
           st.binary(max_size=30), st.binary(max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_combine_is_associative(self, name, a, b, c):
        spec = CATALOG[name]
        ca, cb, cc = (crc_bitwise(spec, d) for d in (a, b, c))
        left = crc_combine(spec, crc_combine(spec, ca, cb, len(b)), cc, len(c))
        right = crc_combine(spec, ca, crc_combine(spec, cb, cc, len(c)), len(b) + len(c))
        assert left == right == crc_bitwise(spec, a + b + c)


class TestAdvance:
    @given(st.sampled_from(SPEC_IDS), st.binary(max_size=40),
           st.integers(min_value=0, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_advance_equals_zero_padding(self, name, data, zeros):
        spec = CATALOG[name]
        padded = crc_bitwise(spec, data + bytes(zeros))
        via_combine = crc_combine(
            spec, crc_bitwise(spec, data), crc_bitwise(spec, bytes(zeros)), zeros
        )
        assert via_combine == padded

    @pytest.mark.parametrize("name", SPEC_IDS)
    @given(st.integers(min_value=0, max_value=(1 << 32) - 1),
           st.integers(min_value=0, max_value=4000))
    @settings(max_examples=25, deadline=None)
    def test_advance_equals_kernel_over_zero_bytes(self, name, register, m):
        # Every catalog spec: both orientations, widths 5 through 32.
        spec = CATALOG[name]
        register &= spec.mask
        kernel = get_kernel(spec, "bytewise")
        assert advance(spec, register, 8 * m) == kernel.process(
            register, bytes(m)
        )


class TestStreaming:
    @given(st.sampled_from(SPEC_IDS), st.binary(max_size=120),
           st.integers(min_value=0, max_value=119))
    @settings(max_examples=200, deadline=None)
    def test_split_updates_match_oneshot(self, name, data, cut):
        spec = CATALOG[name]
        cut = min(cut, len(data))
        h = CrcSession(spec)
        h.add(data[:cut])
        h.add(data[cut:])
        assert h.value == crc_bitwise(spec, data)
        assert h.length == len(data)

    def test_digest_mid_stream(self):
        spec = CATALOG["CRC-32/IEEE-802.3"]
        h = CrcSession(spec)
        h.add(b"123456789")
        assert h.value == 0xCBF43926
        h.add(b"more")
        assert h.value == crc_bitwise(spec, b"123456789more")

    def test_copy_forks(self):
        spec = CATALOG["CRC-16/CCITT-FALSE"]
        h = CrcSession(spec)
        h.add(b"shared")
        fork = h.fork()
        h.add(b"-a")
        fork.add(b"-b")
        assert h.value == crc_bitwise(spec, b"shared-a")
        assert fork.value == crc_bitwise(spec, b"shared-b")
