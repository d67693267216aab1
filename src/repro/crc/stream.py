"""Compositional CRC computation: advancing and splicing registers.

Real protocol stacks rarely see a message as one buffer: they splice
pre-computed CRCs of fragments together (scatter/gather, packet
coalescing) and patch CRCs after in-place header rewrites.  Streaming
itself is :class:`repro.service.session.CrcSession`, one raw register
advanced by a generated registry kernel; this module adds the two
operations that need no data:

* :func:`advance` -- the register after ``k`` zero input bits: one
  multiplication by the syndrome ``x**k mod G``
  (:func:`repro.gf2.poly.x_pow_mod`), ``O(log k)`` polynomial
  products;
* :func:`crc_combine` -- zlib-style ``crc32_combine``: merge
  ``crc(A)`` and ``crc(B)`` into ``crc(A || B)`` from ``len(B)``
  alone, by one advance.

Both agree bit-for-bit with one-shot computation for every catalog
spec (``tests/crc/test_stream.py``, ``tests/crc/test_backends.py``).
The engine-orientation conventions -- what "raw register" means per
spec, and how init/refout/xorout dress it -- live in
:mod:`repro.crc.backends`.
"""

from __future__ import annotations

from repro.crc.backends import dress, engine_init, undress
from repro.crc.engine import _reflect
from repro.crc.spec import CRCSpec
from repro.gf2.poly import gf2_mulmod, x_pow_mod


def advance(spec: CRCSpec, register: int, zero_bits: int) -> int:
    """Evolve an engine-orientation register through ``zero_bits``
    zero input bits.

    A normal register's bit ``i`` is the coefficient of ``x**i`` in
    the running remainder, and one zero bit multiplies it by ``x``
    modulo the generator, so ``k`` zero bits multiply it by
    ``x**k mod G``.  A reflected register is the same polynomial
    bit-reversed: reflect in, multiply, reflect out.

    >>> from repro.crc.catalog import get_spec
    >>> from repro.crc.backends import get_kernel
    >>> s = get_spec("CRC-32/IEEE-802.3")
    >>> advance(s, 0x1234, 8 * 1500) == get_kernel(s).process(0x1234, bytes(1500))
    True
    """
    g = spec.full_poly
    if spec.refin:
        register = _reflect(register, spec.width)
    register = gf2_mulmod(register, x_pow_mod(zero_bits, g), g)
    return _reflect(register, spec.width) if spec.refin else register


def crc_combine(spec: CRCSpec, crc_a: int, crc_b: int, len_b_bytes: int) -> int:
    """CRC of the concatenation ``A || B`` from ``crc(A)``, ``crc(B)``
    and ``len(B)`` -- without touching the data (zlib's
    ``crc32_combine``, generalized to any spec).

    Linearity argument: for fixed data ``B`` the register map is
    affine, ``out = L(in) ^ c_B`` with ``L`` the advance-by-len(B)
    operator.  ``crc(B)`` gives ``c_B = raw_B ^ L(init)``, so
    ``raw(A||B) = L(raw_A) ^ raw_B ^ L(init) = L(raw_A ^ init) ^ raw_B``.

    >>> from repro.crc.catalog import get_spec
    >>> from repro.crc.engine import crc_bitwise
    >>> s = get_spec("CRC-32/IEEE-802.3")
    >>> crc_combine(s, crc_bitwise(s, b"hello "), crc_bitwise(s, b"world"), 5) \\
    ...     == crc_bitwise(s, b"hello world")
    True
    """
    if len_b_bytes < 0:
        raise ValueError("negative length")
    if len_b_bytes == 0:
        return crc_a
    raw_a = undress(spec, crc_a)
    raw_b = undress(spec, crc_b)
    return dress(
        spec, advance(spec, raw_a ^ engine_init(spec), 8 * len_b_bytes) ^ raw_b
    )
