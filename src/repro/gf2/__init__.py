"""Polynomial algebra over GF(2).

This subpackage is the mathematical substrate of the reproduction: CRC
generator polynomials are binary polynomials, and everything the paper
does -- factorization classes such as ``{1,3,28}``, primitivity, the
order of ``x`` (which fixes the HD=2 breakpoint), reciprocal-pair
deduplication of the search space -- reduces to arithmetic in GF(2)[x].

Polynomials are represented as Python integers where bit ``i`` is the
coefficient of ``x**i``.  The integer ``0b1011`` is therefore
``x^3 + x + 1``.  Python's arbitrary-precision integers make this exact
for any degree.

Modules
-------
``poly``
    Core arithmetic: multiply, divmod, gcd, modular exponentiation.
    ``x_pow_mod(n, g)`` -- the syndrome ``x**n mod g`` by
    square-and-multiply in ``O(log n)`` products -- is the one scalar
    jump along the syndrome sequence: the HD layer's ``syndrome_at``
    and the CRC layer's ``advance``/``crc_combine`` both call it.
``irreducible``
    Rabin irreducibility test and irreducible-polynomial enumeration.
``intfactor``
    Integer factorization (Miller-Rabin + Pollard rho) used to factor
    ``2**d - 1`` when computing multiplicative orders.
``order``
    Multiplicative order of ``x`` modulo a polynomial; primitivity.
``factorize``
    Full factorization in GF(2)[x] (squarefree / distinct-degree /
    equal-degree splitting).
``notation``
    Conversions between the paper's implicit-+1 hex notation, the
    conventional MSB-first notation, reflected notation, exponent
    lists, and factorization-class signatures.
"""

from repro.gf2.poly import (
    degree,
    gf2_add,
    gf2_mul,
    gf2_divmod,
    gf2_mod,
    gf2_gcd,
    gf2_mulmod,
    gf2_powmod,
    x_pow_mod,
    reciprocal,
    is_palindrome,
)
from repro.gf2.irreducible import is_irreducible, irreducibles
from repro.gf2.order import order_of_x, is_primitive
from repro.gf2.factorize import factorize, factor_degrees
from repro.gf2.notation import (
    koopman_to_full,
    full_to_koopman,
    full_to_normal,
    normal_to_full,
    full_to_reflected,
    exponents,
    from_exponents,
    poly_str,
    class_signature,
    class_signature_str,
)

__all__ = [
    "degree",
    "gf2_add",
    "gf2_mul",
    "gf2_divmod",
    "gf2_mod",
    "gf2_gcd",
    "gf2_mulmod",
    "gf2_powmod",
    "x_pow_mod",
    "reciprocal",
    "is_palindrome",
    "is_irreducible",
    "irreducibles",
    "order_of_x",
    "is_primitive",
    "factorize",
    "factor_degrees",
    "koopman_to_full",
    "full_to_koopman",
    "full_to_normal",
    "normal_to_full",
    "full_to_reflected",
    "exponents",
    "from_exponents",
    "poly_str",
    "class_signature",
    "class_signature_str",
]
