"""Frame Check Sequence handling and codeword membership.

A *codeword* is a data word with its FCS appended.  For a bare CRC
(zero init/xorout, no reflection) the codeword, read as a polynomial,
is exactly ``M(x) * x**r + (M(x) * x**r mod G(x))``, i.e. a multiple of
``G`` -- which is why an error pattern is undetectable iff the pattern
itself is a multiple of ``G`` (paper §3, the linearity argument).

Bit-position convention (used across :mod:`repro.hd` too): a codeword
of ``N = n + r`` bits maps to a polynomial of degree ``< N`` where the
*last transmitted* FCS bit is ``x**0`` and the first data bit is
``x**(N-1)``.  The FCS therefore occupies positions ``0 .. r-1`` --
the "FCS field" whose bit flips the paper's search heuristic tries
first.
"""

from __future__ import annotations

from repro.crc.backends import crc_compute
from repro.crc.spec import CRCSpec
from repro.crc.engine import crc_bits
from repro.gf2.poly import gf2_mod


def append_fcs(spec: CRCSpec, data: bytes) -> bytes:
    """Return ``data`` with its FCS appended (big-endian for normal
    specs, little-endian byte order for reflected specs, matching how
    802.3 puts the complemented CRC on the wire).

    Requires a byte-multiple width.
    """
    if spec.width % 8:
        raise ValueError("append_fcs requires a byte-multiple CRC width")
    fcs = crc_compute(spec, data)
    nbytes = spec.width // 8
    order = "little" if spec.refout else "big"
    return data + fcs.to_bytes(nbytes, order)


def check_fcs(spec: CRCSpec, frame: bytes) -> bool:
    """Verify a frame produced by :func:`append_fcs`.

    Recomputes the CRC over the data portion and compares with the
    trailing FCS -- the receive-side procedure the paper describes.
    """
    nbytes = spec.width // 8
    if len(frame) < nbytes:
        return False
    data, fcs_bytes = frame[:-nbytes], frame[-nbytes:]
    order = "little" if spec.refout else "big"
    return crc_compute(spec, data) == int.from_bytes(fcs_bytes, order)


def codeword_from_message(spec: CRCSpec, message_bits: list[int]) -> list[int]:
    """Build the ``n + r`` bit codeword for an ``n``-bit message using
    the *bare* form of the spec (codewords are then multiples of G).

    >>> from repro.crc.spec import CRCSpec
    >>> s = CRCSpec(name="toy", width=3, poly=0b011)  # x^3 + x + 1
    >>> codeword_from_message(s, [1, 0, 1])   # == (x^3+x+1) * x^2
    [1, 0, 1, 1, 0, 0]
    """
    bare = spec.plain()
    fcs = crc_bits(bare, message_bits)
    fcs_bits = [(fcs >> i) & 1 for i in range(spec.width - 1, -1, -1)]
    return list(message_bits) + fcs_bits


def is_codeword(spec: CRCSpec, bits: list[int]) -> bool:
    """True iff the bit sequence is a valid (bare) codeword, i.e. the
    polynomial it spells is divisible by the generator.

    The sequence is read MSB-first: ``bits[0]`` is the highest-order
    coefficient.
    """
    value = 0
    for b in bits:
        value = (value << 1) | (b & 1)
    return gf2_mod(value, spec.full_poly) == 0


def syndrome_of_bits(spec: CRCSpec, positions: list[int]) -> int:
    """Syndrome (remainder mod G) of an error pattern given by bit
    positions (position 0 = last FCS bit, per the module convention).

    Zero syndrome == undetectable error.  This is the scalar reference
    for the vectorized machinery in :mod:`repro.hd.syndromes`.
    """
    pattern = 0
    for p in positions:
        if p < 0:
            raise ValueError("negative bit position")
        pattern ^= 1 << p
    return gf2_mod(pattern, spec.full_poly)
