"""Single-polynomial property reports.

Gathers, for one generator, every static property the paper discusses:
all four notations, the irreducible factorization and its class
signature, order of x (hence the exact HD=2 onset), primitivity, the
(x+1) parity property, and the feedback tap count that motivated
0x90022004 / 0x80108400.  Dynamic properties (HD bands) attach via a
:class:`~repro.hd.breakpoints.BreakpointTable`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.gf2.factorize import factorize
from repro.gf2.irreducible import is_irreducible
from repro.gf2.notation import (
    class_signature,
    class_signature_str,
    full_to_koopman,
    full_to_normal,
    full_to_reflected,
    poly_str,
)
from repro.gf2.order import is_primitive, order_of_x
from repro.gf2.poly import degree, divisible_by_x_plus_1, reciprocal
from repro.hd.breakpoints import BreakpointTable


@dataclass
class PolyReport:
    """Static properties of one generator polynomial."""

    full: int
    width: int
    koopman: int
    normal: int
    reflected: int
    reciprocal_full: int
    polynomial: str
    factors: list[tuple[str, int]]
    factor_class: tuple[int, ...]
    irreducible: bool
    primitive: bool
    parity: bool
    order: int
    hd2_onset: int
    taps: int
    breakpoints: BreakpointTable | None = None

    def render(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"polynomial      {self.polynomial}",
            f"  full          {self.full:#x}",
            f"  paper/koopman {self.koopman:#x}",
            f"  normal        {self.normal:#x}",
            f"  reflected     {self.reflected:#x}",
            f"  reciprocal    {self.reciprocal_full:#x}"
            + ("  (self-reciprocal)" if self.reciprocal_full == self.full else ""),
            f"  class         {{{','.join(map(str, self.factor_class))}}}",
            "  factors       "
            + " * ".join(
                f"({s})" + (f"^{m}" if m > 1 else "") for s, m in self.factors
            ),
            f"  irreducible   {self.irreducible}   primitive {self.primitive}",
            f"  (x+1) parity  {self.parity}",
            f"  order of x    {self.order}  => HD=2 from data-word length {self.hd2_onset}",
            f"  feedback taps {self.taps} non-zero coefficients",
        ]
        if self.breakpoints is not None:
            lines.append("  HD bands (data-word bits):")
            sentinel = max(self.breakpoints.first_failure) + 1
            for hd, lo, hi in self.breakpoints.bands:
                hi_s = str(hi) if hi is not None else f">= {self.breakpoints.n_max}"
                # Only the sentinel band ("better than every tested
                # weight") is a lower bound; measured bands are exact.
                prefix = (
                    f"    HD >= {hd}" if hd >= sentinel else f"    HD  = {hd}"
                )
                lines.append(f"{prefix}: {lo} .. {hi_s}")
        return "\n".join(lines)


def report_for(full: int, breakpoints: BreakpointTable | None = None) -> PolyReport:
    """Build the report for a full-encoded generator.

    >>> report_for(0x104C11DB7).factor_class
    (32,)
    """
    width = degree(full)
    order = order_of_x(full)
    return PolyReport(
        full=full,
        width=width,
        koopman=full_to_koopman(full),
        normal=full_to_normal(full),
        reflected=full_to_reflected(full),
        reciprocal_full=reciprocal(full),
        polynomial=poly_str(full),
        factors=[(poly_str(f), m) for f, m in factorize(full)],
        factor_class=class_signature(full),
        irreducible=is_irreducible(full),
        primitive=is_primitive(full),
        parity=divisible_by_x_plus_1(full),
        order=order,
        hd2_onset=order - width + 1,
        taps=full.bit_count(),
        breakpoints=breakpoints,
    )

