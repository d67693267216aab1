"""Differential tests for the generated kernel registry.

Every registered backend of every catalog spec must agree with the
bit-serial reference -- on the published check vectors, on random data
split at random chunk boundaries (including empty fragments), and
through ``CrcSession`` / ``crc_combine``.  Plus a regression test
that reproduces the seed's narrow-reflected streaming orientation bug
against the exact old update/digest logic.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crc.backends import (
    WORDWISE_BLOCK,
    BackendMismatch,
    Kernel,
    available_backends,
    crc_compute,
    dress,
    engine_init,
    get_kernel,
    kernels_for,
    undress,
    _reference,
    _verify,
)
from repro.crc.catalog import CATALOG
from repro.crc.engine import _reflect, crc_bitwise
from repro.crc.spec import CRCSpec
from repro.crc.stream import crc_combine
from repro.service.session import CrcSession

SPEC_IDS = sorted(CATALOG)

# Backends every environment must provide (wordwise additionally
# appears when numpy is importable; CI has numpy, so the identity gate
# in tools/backend_gate.py covers it there).
CORE_BACKENDS = ("bitwise", "bytewise")


# ---------------------------------------------------------------------------
# check vectors, every backend x every catalog spec
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", SPEC_IDS)
def test_every_backend_matches_check_vector(name):
    spec = CATALOG[name]
    for backend in available_backends(spec):
        assert crc_compute(spec, b"123456789", backend=backend) == spec.check, backend


@pytest.mark.parametrize("name", SPEC_IDS)
def test_core_backends_present(name):
    assert set(CORE_BACKENDS) <= set(available_backends(CATALOG[name]))


# ---------------------------------------------------------------------------
# hypothesis differential suite: random data at random chunk boundaries
# ---------------------------------------------------------------------------


@st.composite
def chunked_message(draw):
    """A message plus a chunking of it into fragments, some empty."""
    data = draw(st.binary(min_size=0, max_size=300))
    cuts = draw(
        st.lists(st.integers(min_value=0, max_value=len(data)), max_size=6)
    )
    bounds = [0, *sorted(cuts), len(data)]
    chunks = [data[a:b] for a, b in zip(bounds, bounds[1:])]
    return data, chunks


class TestDifferential:
    @given(st.sampled_from(SPEC_IDS), chunked_message())
    @settings(max_examples=200, deadline=None)
    def test_streaming_equals_reference_equals_backends(self, name, msg):
        spec = CATALOG[name]
        data, chunks = msg
        ref = crc_bitwise(spec, data)
        for backend in available_backends(spec):
            assert crc_compute(spec, data, backend=backend) == ref, backend
        session = CrcSession(spec)
        for chunk in chunks:
            session.add(chunk)
        assert session.value == ref
        assert session.length == len(data)

    @given(
        st.sampled_from(SPEC_IDS),
        st.binary(max_size=120),
        st.binary(max_size=120),
    )
    @settings(max_examples=200, deadline=None)
    def test_combine_equals_one_shot(self, name, a, b):
        spec = CATALOG[name]
        combined = crc_combine(
            spec, crc_bitwise(spec, a), crc_bitwise(spec, b), len(b)
        )
        assert combined == crc_bitwise(spec, a + b)

    @given(st.sampled_from(SPEC_IDS), st.binary(max_size=200))
    @settings(max_examples=100, deadline=None)
    def test_kernels_restartable_mid_buffer(self, name, data):
        spec = CATALOG[name]
        for kernel in kernels_for(spec).values():
            start = engine_init(spec)
            mid = kernel.process(start, data[: len(data) // 2])
            assert kernel.process(mid, data[len(data) // 2:]) == kernel.process(
                start, data
            ), kernel.name


# ---------------------------------------------------------------------------
# refin != refout (CRC-12/UMTS is the only catalog entry)
# ---------------------------------------------------------------------------


class TestMixedReflection:
    def test_catalog_has_mixed_reflection_entry(self):
        assert any(s.refin != s.refout for s in CATALOG.values())

    def test_umts_streaming_digest(self):
        spec = CATALOG["CRC-12/UMTS"]
        assert spec.refin != spec.refout
        session = CrcSession(spec).add(b"1234").add(b"56789")
        assert session.value == spec.check == 0xDAF

    def test_umts_combine(self):
        spec = CATALOG["CRC-12/UMTS"]
        a, b = b"header", b"payload!"
        assert crc_combine(
            spec, crc_bitwise(spec, a), crc_bitwise(spec, b), len(b)
        ) == crc_bitwise(spec, a + b)

    def test_dress_undress_round_trip(self):
        for spec in CATALOG.values():
            for raw in (0, spec.mask, 0x5C17_93A6 & spec.mask):
                assert undress(spec, dress(spec, raw)) == raw


# ---------------------------------------------------------------------------
# regression: the seed's narrow-reflected streaming bug
# ---------------------------------------------------------------------------


def _seed_streaming_digest(spec: CRCSpec, chunks) -> int:
    """The seed repo's StreamingCrc update/digest logic, verbatim, for
    the width < 8 path: the (already reflected) stored register was
    passed as ``init`` to a normal-presentation ``crc_bitwise`` spec,
    and ``digest`` skipped the output reflection whenever
    ``refin == refout``."""
    register = _reflect(spec.init, spec.width) if spec.refin else spec.init
    for data in chunks:
        plain = CRCSpec(
            name=spec.name, width=spec.width, poly=spec.poly,
            init=register, refin=spec.refin,
        )
        register = crc_bitwise(plain, data)
    if spec.refin != spec.refout:
        register = _reflect(register, spec.width)
    return register ^ spec.xorout


class TestNarrowReflectedRegression:
    def test_seed_logic_was_wrong_on_crc5_usb(self):
        spec = CATALOG["CRC-5/USB"]
        assert spec.width < 8 and spec.refin and spec.refout
        assert _seed_streaming_digest(spec, [b"123456789"]) != spec.check

    def test_new_streaming_is_right_on_crc5_usb(self):
        spec = CATALOG["CRC-5/USB"]
        session = CrcSession(spec)
        for chunk in (b"123", b"", b"456789"):
            session.add(chunk)
        assert session.value == spec.check == 0x19

    @given(st.binary(min_size=1, max_size=60))
    @settings(max_examples=100, deadline=None)
    def test_seed_and_new_agree_only_when_register_palindromic(self, data):
        # The old logic happens to survive inputs whose running register
        # is a 5-bit palindrome; the new path must match the reference
        # everywhere.
        spec = CATALOG["CRC-5/USB"]
        assert CrcSession(spec).add(data).value == crc_bitwise(spec, data)


# ---------------------------------------------------------------------------
# registry mechanics
# ---------------------------------------------------------------------------


class TestRegistry:
    def test_kernel_cache_shared_across_presentation(self):
        # Same (width, poly, refin), different init/refout/xorout:
        # one kernel object.
        ieee = CATALOG["CRC-32/IEEE-802.3"]
        twin = CRCSpec(name="twin", width=32, poly=0x04C11DB7, refin=True)
        assert ieee.kernel_key == twin.kernel_key
        assert get_kernel(ieee, "bytewise") is get_kernel(twin, "bytewise")

    def test_unknown_backend_raises(self):
        with pytest.raises(KeyError, match="no 'nope' backend"):
            get_kernel(CATALOG["CRC-8/ATM-HEC"], "nope")

    def test_generated_source_is_kept(self):
        kernel = get_kernel(CATALOG["CRC-32/IEEE-802.3"], "bytewise")
        assert "def _process" in kernel.source

    def test_auto_selects_a_table_kernel(self):
        spec = CATALOG["CRC-16/ARC"]
        assert get_kernel(spec, "auto").name == "bytewise"

    def test_available_backends_are_exactly_three(self):
        # bitwise is the reference; bytewise the default table kernel;
        # wordwise the numpy kernel for long one-shot buffers.
        for name in SPEC_IDS:
            assert available_backends(CATALOG[name]) == (
                "bitwise", "bytewise", "wordwise"
            )

    def test_bad_backend_rejected_at_construction(self):
        # A kernel that computes the wrong thing must never be served.
        broken = Kernel("broken", lambda reg, data: reg ^ 1, "# broken")
        key = CATALOG["CRC-8/ATM-HEC"].kernel_key
        with pytest.raises(BackendMismatch, match="broken kernel"):
            _verify(*key, broken, _reference(*key))

    def test_narrow_specs_have_table_kernels(self):
        # The point of codegen: width-5 reflected and width-12 mixed
        # specs get the same fast paths as CRC-32.
        for name in ("CRC-5/USB", "CRC-12/UMTS"):
            assert {"bytewise", "wordwise"} <= set(
                available_backends(CATALOG[name])
            )


# ---------------------------------------------------------------------------
# wordwise (numpy) kernel specifics
# ---------------------------------------------------------------------------

np = pytest.importorskip("numpy")


class TestWordwise:
    @pytest.mark.parametrize("name", SPEC_IDS)
    def test_long_buffer_matches_reference(self, name):
        spec = CATALOG[name]
        data = bytes((i * 89 + 17) & 0xFF for i in range(3000))
        assert crc_compute(spec, data, backend="wordwise") == crc_bitwise(spec, data)

    def test_auto_cutover_uses_wordwise_result(self):
        spec = CATALOG["CRC-32C/Castagnoli"]
        data = bytes(1024)
        assert crc_compute(spec, data) == crc_bitwise(spec, data)

    def test_non_power_of_two_lengths(self):
        spec = CATALOG["CRC-32/IEEE-802.3"]
        kernel = get_kernel(spec, "wordwise")
        for n in (1, 2, 3, 5, 255, 256, 257, 1000):
            data = bytes((i * 7 + n) & 0xFF for i in range(n))
            assert kernel.process(engine_init(spec), data) == get_kernel(
                spec, "bitwise"
            ).process(engine_init(spec), data)


class TestWordwiseBlocks:
    """The wordwise fold runs in WORDWISE_BLOCK-byte blocks, chaining
    the register between them; block edges must be invisible."""

    BLOCK = WORDWISE_BLOCK
    SPECS = ("CRC-32C/Castagnoli", "CRC-5/USB", "CRC-12/UMTS", "CRC-16/XMODEM")

    @staticmethod
    def data(n: int) -> bytes:
        return bytes((i * 131 + (i >> 9) + 89) & 0xFF for i in range(n))

    @pytest.mark.parametrize("name", SPECS)
    def test_lengths_around_block_edges(self, name):
        spec = CATALOG[name]
        wordwise = get_kernel(spec, "wordwise")
        bytewise = get_kernel(spec, "bytewise")
        register = undress(spec, 0x5C17_93A6 & ((1 << spec.width) - 1))
        assert register != engine_init(spec)
        for n in (self.BLOCK - 1, self.BLOCK, self.BLOCK + 1, 3 * self.BLOCK + 7):
            buf = self.data(n)
            for start in (engine_init(spec), register):
                assert wordwise.process(start, buf) == bytewise.process(start, buf), n

    def test_chunk_splits_straddling_a_block(self):
        spec = CATALOG["CRC-32C/Castagnoli"]
        wordwise = get_kernel(spec, "wordwise")
        buf = self.data(2 * self.BLOCK + 300)
        want = get_kernel(spec, "bytewise").process(engine_init(spec), buf)
        for cut in (1, self.BLOCK - 5, self.BLOCK + 5, 2 * self.BLOCK + 1):
            mid = wordwise.process(engine_init(spec), buf[:cut])
            assert wordwise.process(mid, buf[cut:]) == want, cut
        # three pieces, the middle one spanning a whole block edge
        a, b = self.BLOCK // 2, self.BLOCK + self.BLOCK // 2
        reg = engine_init(spec)
        for piece in (buf[:a], buf[a:b], buf[b:]):
            reg = wordwise.process(reg, piece)
        assert reg == want

    def test_accepts_any_buffer_object(self):
        spec = CATALOG["CRC-32C/Castagnoli"]
        wordwise = get_kernel(spec, "wordwise")
        buf = self.data(self.BLOCK + 9)
        want = wordwise.process(0, buf)
        assert wordwise.process(0, bytearray(buf)) == want
        assert wordwise.process(0, memoryview(buf)) == want

    def test_peak_memory_is_bounded_by_the_block(self):
        import tracemalloc

        spec = CATALOG["CRC-32C/Castagnoli"]
        wordwise = get_kernel(spec, "wordwise")
        buf = self.data(1 << 20)
        want = wordwise.process(engine_init(spec), buf)  # builds all levels
        tracemalloc.start()
        try:
            got = wordwise.process(engine_init(spec), buf)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert got == want
        assert dress(spec, got) == crc_compute(spec, buf, backend="bytewise")
        # An unblocked fold holds 8 bytes per input byte (8 MiB here)
        # plus its halves; the blocked one about 1.5 MiB at any length.
        assert peak < 4 * 2**20, peak
