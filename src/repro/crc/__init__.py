"""CRC computation substrate.

Implements parameterized CRC calculation the way real network stacks
do -- a bit-serial reference plus per-spec *generated* byte-table and
numpy kernels (:mod:`repro.crc.backends`) over a common
:class:`~repro.crc.spec.CRCSpec` -- plus Frame Check Sequence (FCS)
handling and codeword membership tests.

The HD analysis in :mod:`repro.hd` reasons about the *codeword set*
{ M(x)*x^r + FCS(M) }, which by CRC linearity is exactly the set of
polynomial multiples of the generator; this package provides the
concrete encoders whose behaviour those theorems describe, and the
catalog of the paper's polynomials.
"""

from repro.crc.spec import CRCSpec
from repro.crc.engine import crc_bitwise, BitSerialRegister
from repro.crc.backends import (
    BackendMismatch,
    available_backends,
    crc_compute,
    get_kernel,
    kernels_for,
)
from repro.crc.codeword import (
    append_fcs,
    check_fcs,
    is_codeword,
    codeword_from_message,
    syndrome_of_bits,
)
from repro.crc.catalog import (
    CATALOG,
    PAPER_POLYS,
    PaperPoly,
    get_spec,
    paper_poly,
)

__all__ = [
    "CRCSpec",
    "crc_bitwise",
    "BitSerialRegister",
    "BackendMismatch",
    "available_backends",
    "crc_compute",
    "get_kernel",
    "kernels_for",
    "append_fcs",
    "check_fcs",
    "is_codeword",
    "codeword_from_message",
    "syndrome_of_bits",
    "CATALOG",
    "PAPER_POLYS",
    "PaperPoly",
    "get_spec",
    "paper_poly",
]
