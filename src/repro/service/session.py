"""Streaming CRC sessions: the receive-path engine API.

:class:`CrcSession` is the shape protocol stacks actually use --
pycyphal's ``CRCAlgorithm`` interface (``add()`` fragments as they
arrive, read ``value``, ``check_residue()`` after the FCS bytes have
been fed through) -- implemented over the generated kernel registry
(:mod:`repro.crc.backends`), so every width/reflection combination the
registry serves streams through the same differential-tested kernels
as one-shot computation.

Design points:

* **Zero-copy ingestion.**  ``add()`` accepts ``bytes``,
  ``bytearray`` or any C-contiguous ``memoryview`` and never copies:
  the generated kernels index and iterate the buffer in place
  (non-byte views are ``cast("B")``, a zero-copy reinterpretation).
* **Residue checking.**  Feeding a whole frame -- message *plus* its
  FCS in wire byte order -- drives ``value`` to a spec-dependent
  constant, the *residue*; a receiver verifies a frame without ever
  splitting message from FCS.  :func:`residue_value` derives the
  constant per spec (and proves its message-independence on first
  use).  Byte-multiple widths only: a width that straddles bytes has
  no byte-aligned wire FCS (`append_fcs` refuses it for the same
  reason).
* **Composition.**  ``combine()`` merges two sessions over
  concatenated inputs in O(log n) via
  :func:`repro.crc.stream.crc_combine` -- scatter/gather reassembly
  without touching payload bytes.

It is the package's one streaming CRC state: the backend gate, the
examples and the CRC service all stream through it.

Every operation agrees bit-for-bit with one-shot
:func:`~repro.crc.backends.crc_compute` (``tests/service/test_session.py``
property-tests this across the catalog).
"""

from __future__ import annotations

from functools import lru_cache

from repro.crc.backends import dress, engine_init, get_kernel, undress
from repro.crc.codeword import append_fcs
from repro.crc.spec import CRCSpec
from repro.crc.stream import crc_combine

#: Messages used to derive (and verify the constancy of) a spec's
#: residue.  Different lengths and contents: a spec whose
#: frame-feeding map is not constant across all of them has no usable
#: residue and is rejected rather than half-checked.
_RESIDUE_PROBES = (b"", b"\x00", b"123456789", bytes(range(64)))


@lru_cache(maxsize=256)
def residue_value(spec: CRCSpec) -> int:
    """The spec's residue: the constant ``value`` a :class:`CrcSession`
    reaches after absorbing any message followed by that message's FCS
    in wire byte order (little-endian for ``refout`` specs, big-endian
    otherwise, matching :func:`~repro.crc.codeword.append_fcs`).

    Derived, not hardcoded: the candidate is computed from one probe
    message and proven message-independent against several others
    (the linearity argument makes the map affine in the register, so
    agreement on a spanning probe set is a proof, not a spot check).
    Raises ``ValueError`` for widths that are not a whole number of
    bytes -- there is no byte-aligned wire FCS to feed back.

    Note this is the residue of the *dressed* value (after ``xorout``),
    so for CRC-32C it is ``0x48674BC7`` -- implementations that check
    the raw register instead (e.g. pycyphal) quote its complement
    ``0xB798B438``; the two differ exactly by ``xorout``.

    >>> from repro.crc.catalog import get_spec
    >>> residue_value(get_spec("CRC-32C/Castagnoli")) == 0x48674BC7
    True
    """
    if spec.width % 8:
        raise ValueError(
            f"{spec.name}: residue checking needs a byte-multiple width "
            f"(got {spec.width}); verify by recomputing the CRC instead"
        )
    kernel = get_kernel(spec, "bytewise")
    values = set()
    for message in _RESIDUE_PROBES:
        frame = append_fcs(spec, message)
        values.add(dress(spec, kernel.process(engine_init(spec), frame)))
    if len(values) != 1:
        raise ValueError(
            f"{spec.name}: no constant residue (frame-feeding map is "
            "message-dependent); verify by recomputing the CRC instead"
        )
    return values.pop()


class CrcSession:
    """One streaming CRC computation over registry kernels.

    ``add()`` absorbs message fragments (returning ``self`` so calls
    chain), ``value`` is the dressed CRC of everything absorbed so
    far, ``check_residue()`` validates a fully-fed frame, ``reset()``
    rewinds to the empty message.  ``fork()`` clones the state for
    speculative suffixes; ``combine()`` splices two sessions over
    concatenated data in O(log n).

    >>> from repro.crc.catalog import get_spec
    >>> s = CrcSession(get_spec("CRC-32/IEEE-802.3"))
    >>> s.add(b"123").add(memoryview(b"456789")).value == 0xCBF43926
    True
    >>> from repro.crc.codeword import append_fcs
    >>> s.reset().add(append_fcs(s.spec, b"hello")).check_residue()
    True
    """

    __slots__ = ("spec", "backend", "_process", "_register", "_length")

    def __init__(self, spec: CRCSpec, backend: str = "auto") -> None:
        kernel = get_kernel(spec, backend)
        self.spec = spec
        self.backend = kernel.name
        self._process = kernel.process
        self._register = engine_init(spec)
        self._length = 0

    @property
    def length(self) -> int:
        """Bytes absorbed since construction or the last ``reset()``."""
        return self._length

    def add(self, data: "bytes | bytearray | memoryview") -> "CrcSession":
        """Absorb a message fragment without copying it.

        ``memoryview`` inputs must be C-contiguous; views over wider
        element types are reinterpreted as bytes in place.
        """
        if isinstance(data, memoryview) and data.format != "B":
            data = data.cast("B")
        self._register = self._process(self._register, data)
        self._length += len(data)
        return self

    @property
    def value(self) -> int:
        """The dressed CRC of everything absorbed so far.  Reading it
        does not disturb the stream -- keep ``add()``-ing afterwards."""
        return dress(self.spec, self._register)

    def check_residue(self) -> bool:
        """True iff the absorbed stream is a valid frame: a message
        followed by its own FCS in wire byte order.  Byte-multiple
        widths only (see :func:`residue_value`)."""
        return self.value == residue_value(self.spec)

    def reset(self) -> "CrcSession":
        """Rewind to the empty message (same spec, same kernel)."""
        self._register = engine_init(self.spec)
        self._length = 0
        return self

    def fork(self) -> "CrcSession":
        """An independent copy of the current state -- trial-checksum a
        speculative suffix without disturbing the original."""
        clone = CrcSession.__new__(CrcSession)
        clone.spec = self.spec
        clone.backend = self.backend
        clone._process = self._process
        clone._register = self._register
        clone._length = self._length
        return clone

    def combine(self, other: "CrcSession") -> "CrcSession":
        """The session that would result from absorbing this session's
        input followed by ``other``'s -- computed from the two CRC
        values and ``other``'s length alone, in O(log len) polynomial
        products, never touching the data (scatter/gather reassembly).

        Both sessions must share a spec; neither operand is mutated.
        """
        if other.spec != self.spec:
            raise ValueError(
                f"cannot combine {self.spec.name} with {other.spec.name}"
            )
        value = crc_combine(self.spec, self.value, other.value, other._length)
        out = self.fork()
        out._register = undress(self.spec, value)
        out._length = self._length + other._length
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<CrcSession {self.spec.name} backend={self.backend} "
            f"length={self._length} value={self.value:#x}>"
        )
