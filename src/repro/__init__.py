"""repro: a reproduction of Koopman, "32-Bit Cyclic Redundancy Codes
for Internet Applications" (DSN 2002).

The library answers the paper's two questions for any CRC polynomial:

* *How good is it?* -- exact Hamming distance and undetected-error
  weights at any data-word length
  (:func:`~repro.hd.hamming.hamming_distance`,
  :func:`~repro.hd.weights.weight_profile`,
  :func:`~repro.hd.breakpoints.hd_breakpoint_table`).
* *Which is best?* -- exhaustive search over the design space with the
  paper's filter-cascade methodology
  (:func:`~repro.search.exhaustive.search_all`), distributable across
  unreliable workers (:mod:`repro.dist`).

Quick taste::

    >>> from repro import hamming_distance, koopman_to_full
    >>> hamming_distance(koopman_to_full(0x82608EDB), 12112)   # 802.3 at MTU
    4
    >>> hamming_distance(koopman_to_full(0xBA0DC66B), 12112)   # the paper's pick
    6

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every table and figure.
"""

import importlib

#: Every public name, by the module that defines it.  Loaded on first
#: use (PEP 562), so importing one subsystem -- a search worker, say --
#: does not pay for the CRC service or the farm's network stack.
_EXPORTS = {
    "koopman_to_full": "repro.gf2",
    "full_to_koopman": "repro.gf2",
    "class_signature": "repro.gf2",
    "class_signature_str": "repro.gf2",
    "order_of_x": "repro.gf2",
    "is_primitive": "repro.gf2",
    "factorize": "repro.gf2",
    "CRCSpec": "repro.crc",
    "CATALOG": "repro.crc",
    "PAPER_POLYS": "repro.crc",
    "get_spec": "repro.crc",
    "paper_poly": "repro.crc",
    "hamming_distance": "repro.hd",
    "weight_profile": "repro.hd",
    "hd_breakpoint_table": "repro.hd",
    "max_length_for_hd": "repro.hd",
    "refute_hd_at": "repro.hd",
    "SearchConfig": "repro.search",
    "search_all": "repro.search",
    "census_of": "repro.search",
    "best_for_length": "repro.search.optimize",
    "report_for": "repro.analysis",
    "render_table1": "repro.analysis",
    "render_table2": "repro.analysis",
    "GF2Poly": "repro.gf2.ring",
    "StreamingCrc": "repro.crc.stream",
    "crc_combine": "repro.crc.stream",
    "stacked_hd": "repro.network.stacked",
    "AdviceStore": "repro.service",
    "CrcSession": "repro.service",
    "residue_value": "repro.service",
}


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(module), name)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))


# The single source of truth for the release version: pyproject.toml
# declares ``version`` dynamic and reads this attribute at build time,
# and the CLI's ``--version`` prints it.  Bump here and nowhere else.
__version__ = "1.2.0"

__all__ = [*_EXPORTS, "__version__"]
