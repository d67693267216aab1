"""The package namespaces load their exports on first use.

``repro`` and ``repro.dist`` re-export names from across the tree.
Loading them eagerly would make every search worker import the CRC
service and the farm's asyncio/ssl stack; the namespaces resolve each
name on first access instead (PEP 562).  Every package namespace,
lazy or not, must resolve each name its ``__all__`` lists.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
import repro.crc
import repro.dist
import repro.gf2
import repro.hd
import repro.obs
import repro.search
import repro.service

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def test_search_import_leaves_service_and_farm_unloaded():
    code = (
        "import sys, repro.search.exhaustive, repro.dist.checkpoint\n"
        "print(sorted(m for m in sys.modules if m.startswith("
        "('repro.service', 'repro.dist.net', 'repro.dist.pool'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


PACKAGES = [
    repro, repro.crc, repro.dist, repro.gf2, repro.hd, repro.obs,
    repro.search, repro.service,
]


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_every_export_resolves(package):
    # A name deleted from a module but left in ``__all__`` fails here.
    for name in package.__all__:
        assert getattr(package, name) is not None
        assert name in dir(package)
    with pytest.raises(AttributeError):
        getattr(package, "no_such_name")
