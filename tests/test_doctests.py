"""Run the library's docstring examples as tests.

Doctests are part of the documentation deliverable; this keeps every
``>>>`` in the public modules honest.  Heavier examples (multi-second
searches) live in modules listed under ``SLOW_MODULES`` and run with
the slow marker.
"""

from __future__ import annotations

import doctest
import importlib

import pytest

FAST_MODULES = [
    "repro.gf2.poly",
    "repro.gf2.irreducible",
    "repro.gf2.intfactor",
    "repro.gf2.order",
    "repro.gf2.factorize",
    "repro.gf2.notation",
    "repro.gf2.ring",
    "repro.crc.spec",
    "repro.crc.backends",
    "repro.crc.codeword",
    "repro.crc.stream",
    "repro.hd.cost",
    "repro.hd.jump",
    "repro.hd.syndromes",
    "repro.hd.mitm",
    "repro.hd.invariants",
    "repro.service.session",
    "repro.search.space",
    "repro.search.census",
    "repro.search.classes",
    "repro.network.stacked",
]

SLOW_MODULES = [
    "repro.hd.hamming",
    "repro.hd.breakpoints",
    "repro.search.optimize",
    "repro.__init__",
]


@pytest.mark.parametrize("module_name", FAST_MODULES)
def test_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failure(s) in {module_name}"


@pytest.mark.slow
@pytest.mark.parametrize("module_name", SLOW_MODULES)
def test_slow_doctests(module_name):
    module = importlib.import_module(module_name)
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failure(s) in {module_name}"
