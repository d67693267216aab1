"""Parallel (wide-datapath) CRC realization and its hardware cost.

The paper's recommendation of 0x90022004 / 0x80108400 rests on a
hardware argument: "having only five non-zero coefficients may help in
creating high-speed combinational logic implementations of CRCs by
reducing logic synthesis minterms."  This module makes that claim
measurable.

A w-bits-per-cycle CRC circuit computes
``next = F * state  ^  G * input_w`` where ``F`` (r x r) and ``G``
(r x w) are GF(2) matrices determined by the generator.  The XOR-gate
cost of the flattened combinational network is (to first order) the
number of ones in ``[F | G]`` minus one per output row -- the metric
:func:`xor_term_count` reports and the paper's sparse polynomials
minimize.

The construction is validated against the bit-serial engine for every
spec and datapath width (``tests/crc/test_parallel.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crc.spec import CRCSpec

Matrix = tuple[int, ...]  # column-major: matrix[i] = column i as a bitmask


def mat_vec(matrix: Matrix, vector: int) -> int:
    """Multiply a GF(2) matrix (column bitmasks) by a bit-vector."""
    out = 0
    col = 0
    while vector:
        if vector & 1:
            out ^= matrix[col]
        vector >>= 1
        col += 1
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """GF(2) matrix product ``a @ b`` (both column-major)."""
    return tuple(mat_vec(a, col) for col in b)


def identity(n: int) -> Matrix:
    """The n x n identity."""
    return tuple(1 << i for i in range(n))


def mat_pow(matrix: Matrix, exp: int) -> Matrix:
    """Matrix power by squaring."""
    if exp < 0:
        raise ValueError("negative exponent")
    result = identity(len(matrix))
    base = matrix
    while exp:
        if exp & 1:
            result = mat_mul(base, result)
        base = mat_mul(base, base)
        exp >>= 1
    return result


def shift_operator(width: int, poly: int) -> Matrix:
    """The one-zero-bit evolution matrix of a normal register: it
    shifts up with top-bit feedback.  Column ``i`` is the image of
    basis state ``1 << i``."""
    mask = (1 << width) - 1
    top = 1 << (width - 1)
    cols = []
    for i in range(width):
        state = 1 << i
        cols.append(((state << 1) & mask) ^ (poly if state & top else 0))
    return tuple(cols)


def input_operator(width: int, poly: int, datapath: int) -> Matrix:
    """The ``G`` matrix: contribution of ``datapath`` message bits
    (MSB first) to the next register state, for a non-reflected
    register.

    The bit-serial recurrence is ``state' = F(state) ^ b * poly``
    (a set input bit XORs into the incoming top position, triggering
    one polynomial subtraction as it shifts out), so an input bit with
    ``j`` cycles still to go lands as ``F^j(poly)``.  Column ``j`` is
    that image; bit 0 of the input word is the *last* bit to enter.
    """
    base = shift_operator(width, poly)
    return tuple(mat_vec(mat_pow(base, j), poly) for j in range(datapath))


@dataclass(frozen=True)
class ParallelCrc:
    """A w-bit-per-cycle CRC next-state network for a bare spec."""

    spec: CRCSpec
    datapath: int
    state_matrix: Matrix    # F: r x r
    input_matrix: Matrix    # G: r x w (column j = input bit j)

    @classmethod
    def build(cls, spec: CRCSpec, datapath: int) -> "ParallelCrc":
        if datapath < 1:
            raise ValueError("datapath must be at least one bit")
        if spec.refin or spec.refout:
            raise ValueError("parallel construction models bare registers; "
                             "use spec.plain()")
        F = mat_pow(shift_operator(spec.width, spec.poly), datapath)
        G = input_operator(spec.width, spec.poly, datapath)
        return cls(spec=spec, datapath=datapath, state_matrix=F,
                   input_matrix=G)

    def step(self, state: int, input_bits: int) -> int:
        """One clock: absorb ``datapath`` message bits (MSB-first
        within the word; bit 0 of ``input_bits`` is the last bit)."""
        if input_bits >> self.datapath:
            raise ValueError("input wider than datapath")
        return mat_vec(self.state_matrix, state) ^ mat_vec(
            self.input_matrix, input_bits
        )

    def run(self, message_bits: list[int]) -> int:
        """Process a whole message (length must be a multiple of the
        datapath width); returns the final register."""
        if len(message_bits) % self.datapath:
            raise ValueError("message length not a multiple of datapath")
        state = self.spec.init
        for i in range(0, len(message_bits), self.datapath):
            word = 0
            for b in message_bits[i : i + self.datapath]:
                word = (word << 1) | (b & 1)
            state = self.step(state, word)
        return state ^ self.spec.xorout

    def xor_term_count(self) -> int:
        """Total ones in ``[F | G]`` -- the flattened minterm count the
        paper's sparse-polynomial argument concerns.  Each output bit
        needs ``(ones in its row) - 1`` 2-input XORs, so this is a
        faithful relative cost metric across polynomials."""
        total = 0
        for col in self.state_matrix + self.input_matrix:
            total += col.bit_count()
        return total

    def max_fanin(self) -> int:
        """Largest XOR fan-in over output bits -- bounds the logic
        depth of the synthesized network."""
        rows = [0] * self.spec.width
        for col in self.state_matrix + self.input_matrix:
            for i in range(self.spec.width):
                if (col >> i) & 1:
                    rows[i] += 1
        return max(rows)


def compare_hardware_cost(
    polys: dict[str, int], datapath: int = 8
) -> dict[str, dict[str, int]]:
    """XOR-term and fan-in comparison across generators at a datapath
    width -- the quantified version of the paper's §4.2 hardware
    remark."""
    out = {}
    for name, full in polys.items():
        width = full.bit_length() - 1
        spec = CRCSpec(name=name, width=width, poly=full & ((1 << width) - 1))
        pc = ParallelCrc.build(spec, datapath)
        out[name] = {
            "xor_terms": pc.xor_term_count(),
            "max_fanin": pc.max_fanin(),
            "generator_terms": full.bit_count(),
        }
    return out
