"""CRC computation engines.

The reference engine lives here; the fast engines are *generated*:

``crc_bitwise``
    The textbook shift-register, one bit at a time.  Slow but obviously
    correct; the reference every generated kernel is differential-tested
    against at construction (:mod:`repro.crc.backends`).
``crc_table``
    Facade over the backend registry's generated byte-table kernel.
    Every spec -- any width, either orientation -- gets every kernel;
    there is no hand-maintained inner loop per engine anymore, and no
    "32-bit reflected only" restriction.

All engines produce identical results for every spec (property-tested,
and re-checked at kernel construction); the benchmark
``bench_crc_engines.py`` sweeps their relative throughput per spec,
standing in for the paper's concern that CRC choice must remain cheap
to compute at line rate.

There is also :class:`BitSerialRegister`, a stateful model of the
hardware LFSR with explicit feedback taps, used to demonstrate the
paper's observation that polynomials with few non-zero coefficients
(0x90022004, 0x80108400) need fewer XOR gates.
"""

from __future__ import annotations

from functools import lru_cache

from repro.crc.spec import CRCSpec


def _reflect(value: int, nbits: int) -> int:
    """Bit-reverse ``value`` over ``nbits`` bits."""
    result = 0
    for _ in range(nbits):
        result = (result << 1) | (value & 1)
        value >>= 1
    return result


def crc_bitwise(spec: CRCSpec, data: bytes) -> int:
    """Compute the CRC of ``data`` one bit at a time.

    This is the direct realization of polynomial division: the register
    holds the running remainder; each message bit enters at the top and
    a set top bit triggers subtraction (XOR) of the generator.
    """
    register = spec.init
    top = spec.topbit
    mask = spec.mask
    for byte in data:
        if spec.refin:
            byte = _reflect(byte, 8)
        for bit_index in range(7, -1, -1):
            in_bit = (byte >> bit_index) & 1
            feedback = ((register >> (spec.width - 1)) & 1) ^ in_bit
            register = (register << 1) & mask
            if feedback:
                register ^= spec.poly
    _ = top
    if spec.refout:
        register = _reflect(register, spec.width)
    return register ^ spec.xorout


def crc_bits(spec: CRCSpec, bits: list[int]) -> int:
    """CRC of an arbitrary *bit sequence* (not byte-aligned).

    The paper reasons about data words of arbitrary bit length (e.g.
    12112 bits); this entry point supports those directly.  Reflection
    parameters are ignored -- bit streams have no byte structure.
    """
    register = spec.init
    mask = spec.mask
    for in_bit in bits:
        feedback = ((register >> (spec.width - 1)) & 1) ^ (in_bit & 1)
        register = (register << 1) & mask
        if feedback:
            register ^= spec.poly
    return register ^ spec.xorout


@lru_cache(maxsize=128)
def make_table(width: int, poly: int, refin: bool) -> tuple[int, ...]:
    """Build the 256-entry lookup table for byte-at-a-time computation.

    For reflected specs the table is built over the reflected
    polynomial so the inner loop needs no per-byte reflection.

    Requires ``width >= 8`` in *both* orientations: entries of this
    table are plain ``width``-bit register values, and a register
    narrower than a byte has no table of that shape.  (The seed only
    guarded the normal branch, so a direct caller could get an
    out-of-range reflected table.)  Narrow specs are fully served by
    the generated kernels in :mod:`repro.crc.backends`, which keep
    narrow normal registers left-aligned internally.
    """
    if width < 8:
        raise ValueError("table method requires width >= 8")
    table = []
    if refin:
        poly_r = _reflect(poly, width)
        for byte in range(256):
            crc = byte
            for _ in range(8):
                crc = (crc >> 1) ^ poly_r if crc & 1 else crc >> 1
            table.append(crc)
    else:
        mask = (1 << width) - 1
        top = 1 << (width - 1)
        for byte in range(256):
            crc = byte << (width - 8)
            for _ in range(8):
                crc = ((crc << 1) & mask) ^ (poly if crc & top else 0)
            table.append(crc)
    return tuple(table)


def crc_table(spec: CRCSpec, data: bytes) -> int:
    """Byte-at-a-time table-driven CRC via the generated ``bytewise``
    kernel.  Any width, either orientation; matches
    :func:`crc_bitwise` exactly (differential-tested at kernel
    construction and property-tested in ``tests/crc/``)."""
    from repro.crc import backends

    return backends.crc_compute(spec, data, backend="bytewise")


class BitSerialRegister:
    """Explicit hardware-style LFSR model with named feedback taps.

    The paper highlights 0x90022004 and 0x80108400 as having the
    minimum number of non-zero coefficients among the HD=6 / HD=5
    classes, "potentially simplifying high-speed hardware
    implementations".  This class makes that concrete: the
    :attr:`xor_gate_count` of a Galois-configuration LFSR equals the
    number of interior feedback taps.
    """

    def __init__(self, spec: CRCSpec) -> None:
        self.spec = spec
        self.register = spec.init
        # Galois taps: one XOR gate per set coefficient below x^width.
        self.taps = [i for i in range(spec.width) if (spec.poly >> i) & 1]

    @property
    def xor_gate_count(self) -> int:
        """XOR gates of a Galois LFSR realization (interior taps)."""
        return len(self.taps)

    def reset(self) -> None:
        """Return the register to the spec's initial value."""
        self.register = self.spec.init

    def shift_bit(self, in_bit: int) -> None:
        """Clock a single message bit through the register."""
        feedback = ((self.register >> (self.spec.width - 1)) & 1) ^ (in_bit & 1)
        self.register = (self.register << 1) & self.spec.mask
        if feedback:
            self.register ^= self.spec.poly

    def shift_bits(self, bits: list[int]) -> int:
        """Clock a bit sequence; return the current register value."""
        for b in bits:
            self.shift_bit(b)
        return self.register

    def value(self) -> int:
        """Current register contents after output transformations."""
        register = self.register
        if self.spec.refout:
            register = _reflect(register, self.spec.width)
        return register ^ self.spec.xorout
