"""The bit-serial CRC reference.

``crc_bitwise``
    The textbook shift-register, one bit at a time.  Slow but obviously
    correct; the reference every generated kernel is differential-tested
    against at construction (:mod:`repro.crc.backends`, which holds the
    byte table and every fast kernel -- one-shot CRCs go through its
    :func:`~repro.crc.backends.crc_compute`).
``crc_bits``
    The same register over an arbitrary bit sequence, for data words
    that are not a whole number of bytes (the paper's 12,112 bits).

There is also :class:`BitSerialRegister`, a stateful model of the
hardware LFSR with explicit feedback taps, used to demonstrate the
paper's observation that polynomials with few non-zero coefficients
(0x90022004, 0x80108400) need fewer XOR gates.
"""

from __future__ import annotations

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
