"""Spec-driven CRC kernel codegen and the backend registry.

The paper's premise is that polynomial *choice* must stay decoupled
from implementation cost: any generator should run at line rate
through table kernels.  Hand-maintaining one inner loop per engine
per orientation (the seed's hand-written table, slice-by-4 and
streaming-update loops) is how orientation bugs breed,
so this module *generates* the kernels instead -- the software analog
of amaranth's per-spec derivation of parallel CRC update logic.

Given any :class:`~repro.crc.spec.CRCSpec`, the registry builds, at
first use and cached per ``(width, poly, refin)``:

``bitwise``
    The bit-serial reference loop, emitted in the register's own
    orientation (reflected registers shift down, normal shift up).
``bytewise``
    Classic 256-entry byte-table kernel over :func:`_byte_table`, the
    package's one CRC table.  *Any* width: narrow normal
    registers (width < 8) are kept left-aligned in a byte-wide working
    register internally, so the table method no longer has a width
    floor.  The default kernel: under CPython, slice-by-N unrolling
    does not pay for its extra table lookups.
``wordwise``
    A numpy kernel (registered only when numpy is importable) that
    folds the whole buffer in ``O(log n)`` vectorized rounds: per-byte
    contributions are gathered through the byte table in one shot,
    then adjacent blocks are combined with byte-sliced applications of
    the advance-by-2^t-bytes operator -- the Fast-CRCs decomposition
    (Nguyen) driven entirely by precomputed lookup planes.

Every generated kernel is **differential-tested against the bit-serial
reference on construction** (several data vectors, several register
values, plus a chunk-split consistency check); a kernel that disagrees
raises :class:`BackendMismatch` instead of ever being served.

All kernels share one state convention, the *engine orientation*: the
raw register is bit-reversed for ``refin`` specs and natural
otherwise, matching :func:`repro.crc.stream.advance`.  The helpers
:func:`engine_init` / :func:`dress` / :func:`undress` move between
that raw state and the dressed (init/refout/xorout) CRC value;
:func:`crc_compute`, :class:`repro.service.session.CrcSession` and
:func:`repro.crc.stream.crc_combine` all build on them, so there is
exactly one place where orientation decisions live.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable

from repro.crc.engine import _reflect, crc_bitwise
from repro.crc.spec import CRCSpec

try:  # numpy is optional for the crc package; gate, don't require
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-less installs
    _np = None


class BackendMismatch(RuntimeError):
    """A generated kernel disagreed with the bit-serial reference.

    Raised at *construction* time -- a kernel is differential-tested
    before it is ever served, so consumers can assume every registered
    backend is exact.
    """


class Kernel:
    """One generated CRC kernel: a raw engine-orientation update.

    ``process(register, data) -> register`` advances a raw register
    (engine orientation, see module docstring) through ``data``; it is
    pure and restartable, so streaming, combining and one-shot use are
    all the same call.  ``source`` keeps the generated code for
    introspection and tests.
    """

    __slots__ = ("name", "process", "source")

    def __init__(
        self,
        name: str,
        process: Callable[[int, bytes], int],
        source: str,
    ) -> None:
        self.name = name
        self.process = process
        self.source = source

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Kernel {self.name}>"


# ---------------------------------------------------------------------------
# orientation helpers (the single home of dress/undress decisions)
# ---------------------------------------------------------------------------


def engine_init(spec: CRCSpec) -> int:
    """The spec's initial register value in engine orientation."""
    return _reflect(spec.init, spec.width) if spec.refin else spec.init


def dress(spec: CRCSpec, register: int) -> int:
    """Apply refout/xorout to an engine-orientation register."""
    if spec.refout != spec.refin:
        register = _reflect(register, spec.width)
    return register ^ spec.xorout


def undress(spec: CRCSpec, crc: int) -> int:
    """Invert xorout/refout to recover the engine-orientation register."""
    register = crc ^ spec.xorout
    if spec.refout != spec.refin:
        register = _reflect(register, spec.width)
    return register


# ---------------------------------------------------------------------------
# table construction (any width, both orientations)
# ---------------------------------------------------------------------------


def _aligned(width: int) -> tuple[int, int]:
    """Working width and left-alignment shift for normal registers.

    Narrow normal registers (width < 8) are computed left-aligned in a
    byte-wide working register over ``poly << (8 - width)`` -- the
    standard technique that makes the byte-table kernel width-uniform.
    Reflected registers never need alignment.
    """
    work = max(width, 8)
    return work, work - width


@lru_cache(maxsize=256)
def _byte_table(width: int, poly: int, refin: bool) -> tuple[int, ...]:
    """The 256-entry byte table in engine orientation, any width."""
    table = []
    if refin:
        poly_r = _reflect(poly, width)
        for byte in range(256):
            crc = byte
            for _ in range(8):
                crc = (crc >> 1) ^ poly_r if crc & 1 else crc >> 1
            table.append(crc)
    else:
        work, align = _aligned(width)
        poly_w = poly << align
        mask = (1 << work) - 1
        top = 1 << (work - 1)
        for byte in range(256):
            crc = byte << (work - 8)
            for _ in range(8):
                crc = ((crc << 1) & mask) ^ (poly_w if crc & top else 0)
            table.append(crc)
    return tuple(table)


# ---------------------------------------------------------------------------
# kernel codegen
# ---------------------------------------------------------------------------


def _compile(name: str, source: str, namespace: dict) -> Kernel:
    """Compile generated kernel source and wrap it as a :class:`Kernel`."""
    scope = dict(namespace)
    exec(compile(source, f"<crc-kernel:{name}>", "exec"), scope)
    return Kernel(name, scope["_process"], source)


def _gen_bitwise(width: int, poly: int, refin: bool) -> Kernel:
    """The bit-serial loop in engine orientation (the reference's twin,
    emitted so the registry's slowest backend shares the raw-register
    calling convention of the fast ones)."""
    if refin:
        poly_r = _reflect(poly, width)
        source = (
            "def _process(register, data):\n"
            "    for byte in data:\n"
            "        for _ in range(8):\n"
            "            feedback = (register ^ byte) & 1\n"
            "            register >>= 1\n"
            "            byte >>= 1\n"
            "            if feedback:\n"
            f"                register ^= {poly_r:#x}\n"
            "    return register\n"
        )
    else:
        source = (
            "def _process(register, data):\n"
            "    for byte in data:\n"
            "        for i in range(7, -1, -1):\n"
            f"            feedback = ((register >> {width - 1}) ^ (byte >> i)) & 1\n"
            f"            register = (register << 1) & {(1 << width) - 1:#x}\n"
            "            if feedback:\n"
            f"                register ^= {poly:#x}\n"
            "    return register\n"
        )
    return _compile("bitwise", source, {})


def _gen_bytewise(width: int, poly: int, refin: bool) -> Kernel:
    """Byte-at-a-time table kernel, any width."""
    table = _byte_table(width, poly, refin)
    if refin:
        step = (
            "register = _t[register ^ byte]"
            if width <= 8
            else "register = (register >> 8) ^ _t[(register ^ byte) & 0xFF]"
        )
        source = (
            "def _process(register, data, _t=_T0):\n"
            "    for byte in data:\n"
            f"        {step}\n"
            "    return register\n"
        )
    else:
        work, align = _aligned(width)
        mask = (1 << work) - 1
        if work == 8:
            step = "register = _t[register ^ byte]"
        else:
            step = (
                f"register = ((register << 8) & {mask:#x}) "
                f"^ _t[((register >> {work - 8}) ^ byte) & 0xFF]"
            )
        enter = f"    register <<= {align}\n" if align else ""
        leave = f"register >> {align}" if align else "register"
        source = (
            "def _process(register, data, _t=_T0):\n"
            f"{enter}"
            "    for byte in data:\n"
            f"        {step}\n"
            f"    return {leave}\n"
        )
    return _compile("bytewise", source, {"_T0": table})


#: Bytes the wordwise kernel folds at a time (a power of two).  Its
#: temporaries scale with the block, not with the buffer.
WORDWISE_BLOCK = 1 << 16


def _gen_wordwise(width: int, poly: int, refin: bool, bytewise: Kernel):
    """Numpy log-fold kernel: per-byte contributions in one gather,
    then ``O(log n)`` rounds of vectorized block combining.

    Linearity gives ``raw(M) = A_len(register) ^ C(M)`` where ``A_k``
    advances through ``k`` zero bytes and ``C`` is the zero-register
    contribution of the data.  ``C`` is computed by a binary reduction:
    adjacent blocks combine as ``A_s(left) ^ right``, with ``A_{2^t}``
    applied to a whole *array* of states via ``ceil(width/8)``
    byte-sliced 256-entry lookup planes (built once per level by
    composing the previous level with itself).  Zero bytes contribute
    nothing, so buffers pad at the *front* for free.

    The fold runs over :data:`WORDWISE_BLOCK`-byte blocks, chaining the
    register from one block into the next, so its working set (eight
    bytes per input byte, padded to a power of two) stays bounded
    however long the buffer is.
    """
    if _np is None or width > 64:
        return None
    np = _np
    nb = (width + 7) // 8
    mask = (1 << width) - 1
    process_byte = bytewise.process

    contrib = np.array(
        [process_byte(0, bytes([b])) for b in range(256)], dtype=np.uint64
    )
    # level t holds the byte-sliced planes of A_{2^t} (advance 2^t bytes)
    level0 = [
        np.array(
            [process_byte((b << (8 * k)) & mask, b"\x00") for b in range(256)],
            dtype=np.uint64,
        )
        for k in range(nb)
    ]
    levels = [level0]
    shifts = [np.uint64(8 * k) for k in range(nb)]
    low = np.uint64(0xFF)

    def _apply_vec(planes, states):
        out = planes[0][states & low]
        for k in range(1, nb):
            out ^= planes[k][(states >> shifts[k]) & low]
        return out

    def _level(t: int):
        while len(levels) <= t:
            prev = levels[-1]
            levels.append([_apply_vec(prev, prev[k]) for k in range(nb)])
        return levels[t]

    def _process(register: int, data: bytes) -> int:
        octets = np.frombuffer(data, dtype=np.uint8)
        for start in range(0, len(octets), WORDWISE_BLOCK):
            register = _fold(register, octets[start:start + WORDWISE_BLOCK])
        return register

    def _fold(register: int, octets) -> int:
        n = len(octets)
        vals = contrib[octets]
        size = 1 << (n - 1).bit_length()
        if size != n:
            padded = np.zeros(size, dtype=np.uint64)
            padded[size - n:] = vals
            vals = padded
        t = 0
        while len(vals) > 1:
            planes = _level(t)
            vals = _apply_vec(planes, vals[0::2]) ^ vals[1::2]
            t += 1
        out = int(vals[0])
        # advance the incoming register through n bytes, binary-split
        t = 0
        while n:
            if n & 1:
                planes = _level(t)
                acc = 0
                for k in range(nb):
                    acc ^= int(planes[k][(register >> (8 * k)) & 0xFF])
                register = acc
            n >>= 1
            t += 1
        return register ^ out

    source = (
        "# numpy log-fold kernel: contrib gather + per-level byte-sliced\n"
        f"# application planes of A_(2^t) for width={width} poly={poly:#x} "
        f"refin={refin} (see _gen_wordwise)\n"
    )
    return Kernel("wordwise", _process, source)


# ---------------------------------------------------------------------------
# construction-time differential testing
# ---------------------------------------------------------------------------

#: Data vectors every generated kernel must agree on with the
#: bit-serial reference before it is served.
_PROBE_VECTORS = (
    b"",
    b"\x00",
    b"123456789",
    bytes(range(64)),
    bytes((i * 131 + 89) & 0xFF for i in range(251)),
)


def _probe_inits(width: int) -> tuple[int, ...]:
    """Register values the differential test starts from: zero, all
    ones, and a bit-asymmetric constant so orientation mistakes cannot
    hide behind palindromic registers."""
    mask = (1 << width) - 1
    return tuple({0, mask, 0x5C17_93A6_5C17_93A6 & mask})


def _reference(width: int, poly: int, refin: bool) -> dict:
    """Expected raw registers per (init, vector), from the bit-serial
    reference: a probe spec with ``refout == refin`` and zero xorout
    makes ``crc_bitwise`` return the engine-orientation register."""
    out = {}
    for init in _probe_inits(width):
        probe = CRCSpec(
            name="probe", width=width, poly=poly,
            init=init, refin=refin, refout=refin,
        )
        start = _reflect(init, width) if refin else init
        for data in _PROBE_VECTORS:
            out[(start, data)] = crc_bitwise(probe, data)
    return out


def _verify(width: int, poly: int, refin: bool, kernel: Kernel, ref: dict) -> Kernel:
    """Differential-test a kernel against the reference; raise
    :class:`BackendMismatch` on the first disagreement."""
    for (start, data), want in ref.items():
        got = kernel.process(start, data)
        if got != want:
            raise BackendMismatch(
                f"{kernel.name} kernel for width={width} poly={poly:#x} "
                f"refin={refin} computed {got:#x}, reference says {want:#x} "
                f"(register {start:#x}, {len(data)} bytes)"
            )
    # restartability: split processing must equal one-shot
    long = _PROBE_VECTORS[-1]
    start = next(iter(_probe_inits(width)))
    mid = kernel.process(start, long[:97])
    if kernel.process(mid, long[97:]) != kernel.process(start, long):
        raise BackendMismatch(
            f"{kernel.name} kernel for width={width} poly={poly:#x} "
            f"refin={refin} is not restartable across a chunk boundary"
        )
    return kernel


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------

#: Builders in canonical order; each maps (width, poly, refin) to a
#: Kernel or ``None`` when the backend cannot serve the spec (e.g. the
#: numpy kernel without numpy).
_BUILDERS: dict[str, Callable[[int, int, bool], "Kernel | None"]] = {
    "bitwise": _gen_bitwise,
    "bytewise": _gen_bytewise,
    "wordwise": lambda w, p, r: _gen_wordwise(w, p, r, _gen_bytewise(w, p, r)),
}

_KERNELS: dict[tuple[int, int, bool], dict[str, Kernel]] = {}

#: Table-driven default for streaming and small one-shot inputs; it
#: serves every spec.
DEFAULT_BACKEND = "bytewise"
#: One-shot buffers at least this long prefer the numpy kernel.
WORDWISE_CUTOVER = 512


def kernels_for(spec: CRCSpec) -> dict[str, Kernel]:
    """All kernels generated (and differential-tested) for a spec's
    :attr:`~repro.crc.spec.CRCSpec.kernel_key`, keyed by backend name.
    Specs differing only in presentation constants share kernels."""
    key = spec.kernel_key
    cached = _KERNELS.get(key)
    if cached is None:
        ref = _reference(*key)
        cached = {}
        for name, builder in _BUILDERS.items():
            kernel = builder(*key)
            if kernel is not None:
                cached[name] = _verify(*key, kernel, ref)
        _KERNELS[key] = cached
    return cached


def available_backends(spec: CRCSpec) -> tuple[str, ...]:
    """Backend names the registry can serve for this spec, in
    canonical order."""
    return tuple(kernels_for(spec))


def get_kernel(spec: CRCSpec, backend: str = "auto") -> Kernel:
    """Look up one generated kernel.  ``"auto"`` selects the default
    table-driven kernel (:data:`DEFAULT_BACKEND`), which is the right
    choice for streaming; one-shot large-buffer callers should prefer
    :func:`crc_compute`, which also considers the numpy kernel."""
    kernels = kernels_for(spec)
    if backend == "auto":
        backend = DEFAULT_BACKEND
    try:
        return kernels[backend]
    except KeyError:
        raise KeyError(
            f"no {backend!r} backend for {spec.name}; "
            f"available: {sorted(kernels)}"
        ) from None


def crc_compute(spec: CRCSpec, data: bytes, backend: str = "auto") -> int:
    """One-shot dressed CRC through a registry kernel.

    ``"auto"`` picks the numpy word-at-a-time kernel for buffers of at
    least :data:`WORDWISE_CUTOVER` bytes when numpy is present, the
    default table kernel otherwise.

    >>> from repro.crc.catalog import get_spec
    >>> crc_compute(get_spec("CRC-32/IEEE-802.3"), b"123456789") == 0xCBF43926
    True
    """
    kernels = kernels_for(spec)
    if backend == "auto":
        if len(data) >= WORDWISE_CUTOVER and "wordwise" in kernels:
            backend = "wordwise"
        else:
            backend = DEFAULT_BACKEND
    kernel = get_kernel(spec, backend)
    return dress(spec, kernel.process(engine_init(spec), data))
