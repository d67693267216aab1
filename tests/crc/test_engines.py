"""Engine equivalence and check-value tests.

The engines (bit-serial reference plus the generated kernels behind
``crc_compute``) must agree bit for bit on every spec and input --
property-tested -- and match the published check values for deployed
CRCs (independent ground truth).  The byte table every table kernel
reads (``backends._byte_table``) is checked here too.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crc.backends import _byte_table, available_backends, crc_compute
from repro.crc.catalog import CATALOG
from repro.crc.engine import BitSerialRegister, crc_bits, crc_bitwise
from repro.crc.spec import CRCSpec

SPEC_IDS = sorted(CATALOG)


@pytest.mark.parametrize("name", SPEC_IDS)
class TestCheckValues:
    def test_bitwise(self, name):
        spec = CATALOG[name]
        assert crc_bitwise(spec, b"123456789") == spec.check

    def test_table(self, name):
        spec = CATALOG[name]
        assert crc_compute(spec, b"123456789", backend="bytewise") == spec.check


class TestEngineEquivalence:
    @given(st.sampled_from(SPEC_IDS), st.binary(min_size=0, max_size=200))
    @settings(max_examples=200, deadline=None)
    def test_all_engines_agree(self, name, data):
        spec = CATALOG[name]
        ref = crc_bitwise(spec, data)
        for backend in available_backends(spec):
            assert crc_compute(spec, data, backend=backend) == ref, backend

    @given(st.binary(min_size=0, max_size=64))
    def test_bits_vs_bytes(self, data):
        # crc_bits over MSB-first bit expansion == crc_bitwise for a
        # non-reflected spec.
        spec = CRCSpec(name="t", width=16, poly=0x1021)
        bits = [(byte >> i) & 1 for byte in data for i in range(7, -1, -1)]
        assert crc_bits(spec, bits) == crc_bitwise(spec, data)


class TestTableConstruction:
    def test_table_entry_zero(self):
        for refin in (False, True):
            assert _byte_table(32, 0x04C11DB7, refin)[0] == 0

    def test_table_is_linear(self):
        # T[a ^ b] == T[a] ^ T[b]: the table is a linear map.
        t = _byte_table(16, 0x1021, False)
        for a, b in [(1, 2), (3, 5), (0x55, 0xAA), (17, 200)]:
            assert t[a ^ b] == t[a] ^ t[b]

    def test_reflected_table_linear(self):
        t = _byte_table(32, 0x04C11DB7, True)
        for a, b in [(1, 2), (3, 5), (0x55, 0xAA)]:
            assert t[a ^ b] == t[a] ^ t[b]

    def test_narrow_width_is_left_aligned(self):
        # A width-5 normal table is the width-8 table of ``poly << 3``:
        # the register works left-aligned in a byte.  Reflected narrow
        # registers need no alignment; both stay linear.
        assert _byte_table(5, 0x05, False) == _byte_table(8, 0x05 << 3, False)
        for refin in (False, True):
            t = _byte_table(5, 0x05, refin)
            assert t[0] == 0
            for a, b in [(1, 2), (3, 5), (0x55, 0xAA)]:
                assert t[a ^ b] == t[a] ^ t[b]
        assert max(_byte_table(5, 0x05, True)) < 1 << 5


class TestLinearityOfCrc:
    """CRC(a xor b) == CRC(a) xor CRC(b) for bare specs -- the paper's
    §3 linearity argument, verified on the actual engine."""

    @given(st.binary(min_size=8, max_size=64), st.binary(min_size=8, max_size=64))
    @settings(max_examples=100)
    def test_xor_additivity(self, a, b):
        n = min(len(a), len(b))
        a, b = a[:n], b[:n]
        spec = CRCSpec(name="bare", width=32, poly=0x04C11DB7)
        xored = bytes(x ^ y for x, y in zip(a, b))
        assert crc_bitwise(spec, xored) == crc_bitwise(spec, a) ^ crc_bitwise(spec, b)


class TestBitSerialRegister:
    def test_matches_crc_bits(self):
        spec = CRCSpec(name="t", width=8, poly=0x07)
        reg = BitSerialRegister(spec)
        bits = [1, 0, 1, 1, 0, 0, 1, 0, 1, 1]
        reg.shift_bits(bits)
        assert reg.value() == crc_bits(spec, bits)

    def test_reset(self):
        spec = CRCSpec(name="t", width=8, poly=0x07, init=0xAB)
        reg = BitSerialRegister(spec)
        reg.shift_bits([1, 1, 1])
        reg.reset()
        assert reg.register == 0xAB

    def test_tap_counts_paper_sparse_polys(self):
        # The paper's "only five non-zero coefficients" for 0x90022004
        # counts set bits of the implicit-+1 representation; the full
        # polynomial x^32+x^29+x^18+x^14+x^3+1 has six terms, five of
        # them interior feedback taps in a Galois LFSR.
        from repro.gf2.notation import koopman_to_full

        assert (0x90022004).bit_count() == 5
        full_90 = koopman_to_full(0x90022004)
        assert full_90.bit_count() == 6
        full_80 = koopman_to_full(0x80108400)
        assert full_80.bit_count() == 5  # x^32+x^21+x^16+x^11+1
        spec = CRCSpec(name="t", width=32, poly=full_90 & 0xFFFFFFFF)
        assert BitSerialRegister(spec).xor_gate_count == 5
        sparse80 = CRCSpec(name="t", width=32, poly=full_80 & 0xFFFFFFFF)
        assert BitSerialRegister(sparse80).xor_gate_count == 4
        # Far sparser than the deployed 802.3 generator's 14 taps.
        dense = CRCSpec(name="t", width=32, poly=0x04C11DB7)
        assert BitSerialRegister(dense).xor_gate_count == 14

    def test_8023_tap_count(self):
        assert (0x104C11DB7).bit_count() == 15
