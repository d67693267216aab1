"""Shared fixtures and slow-test gating.

Tests marked ``@pytest.mark.slow`` (multi-second exact computations at
long lengths) are skipped unless ``RUN_SLOW=1`` is set or ``-m slow``
is requested explicitly; the default suite stays fast enough to run on
every change.
"""

from __future__ import annotations

import os
from contextlib import ExitStack, contextmanager
from unittest.mock import patch

import pytest

from repro.crc.catalog import PAPER_POLYS
from repro.gf2.notation import koopman_to_full
from repro.hd import cost


def pytest_collection_modifyitems(config, items):
    if os.environ.get("RUN_SLOW") == "1":
        return
    if "slow" in config.getoption("-m", default=""):
        return
    skip_slow = pytest.mark.skip(reason="slow; set RUN_SLOW=1 to run")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)


@contextmanager
def envelope(module=cost, **values):
    """Rebind module constants for the ``with`` block -- by default the
    work envelope of :mod:`repro.hd.cost` (``MEM_ELEMS``,
    ``STREAM_ELEMS``, ``WITNESS_WINDOW``, ...), which every HD check
    and search reads at call time; pass a module to set its own
    constants, e.g. ``envelope(mitm, CHUNK_ELEMS=3)``.

    A plain context manager over :func:`unittest.mock.patch.object`,
    so a Hypothesis test can set a different budget per example; a
    misspelt name raises ``AttributeError`` instead of setting nothing.
    """
    with ExitStack() as stack:
        for name, value in values.items():
            stack.enter_context(patch.object(module, name, value))
        yield


@pytest.fixture(scope="session")
def paper_polys():
    """The paper's eight polynomials, keyed as in the catalog."""
    return PAPER_POLYS


@pytest.fixture(scope="session")
def g_8023():
    """IEEE 802.3 generator, full encoding (0x104C11DB7)."""
    return koopman_to_full(0x82608EDB)


@pytest.fixture(scope="session")
def g_ba0d():
    """The paper's headline polynomial 0xBA0DC66B, full encoding."""
    return koopman_to_full(0xBA0DC66B)


# Small generators used by unit and property tests (named by their
# conventional identities where they have one).
TOY_POLYS = {
    "crc3": 0b1011,            # x^3+x+1, primitive
    "crc4-itu": 0b10011,       # x^4+x+1, primitive
    "crc5": 0b110101,          # x^5+x^4+x^2+1 = (x+1)(x^4+x^3+1)
    "crc7": 0b10001001,        # x^7+x^3+1 (MMC), primitive
    "crc8-atm": 0x107,         # x^8+x^2+x+1 = (x+1)(x^7+x^6+x^5+x^4+x^3+x^2+1)?
    "crc8-maxim": 0x131,       # x^8+x^5+x^4+1
    "crc16-ccitt": 0x11021,    # x^16+x^12+x^5+1
    "crc16-ibm": 0x18005,      # x^16+x^15+x^2+1
}


@pytest.fixture(scope="session", params=sorted(TOY_POLYS))
def toy_poly(request):
    """Parametrized small generator polynomial (full encoding)."""
    return TOY_POLYS[request.param]
