"""Cost-model tests, anchored on the paper's own arithmetic."""

from __future__ import annotations

import dataclasses
import importlib
import inspect
import pkgutil
from math import comb

import pytest

import repro.hd
import repro.search

from repro.hd.cost import (
    EnvelopeError,
    check_envelope,
    enumeration_cost,
    enumeration_speedup,
    max_affordable_window,
    mitm_cost,
    mitm_sorted_side,
)
from tests.conftest import envelope


class TestEnumerationCost:
    def test_paper_weight6_count(self):
        # §3: "all combinations of 12144 bits taken 6 at a time
        # (4.45e21)"
        assert enumeration_cost(12144, 6) == comb(12144, 6)
        assert abs(enumeration_cost(12144, 6) / 4.45e21 - 1) < 0.01

    def test_paper_weight4_count(self):
        # §3's "906 10^12" (typeset-garbled) count of possible 4-bit
        # errors across a 12144-bit codeword: C(12144,4) ~ 9.06e14.
        assert abs(enumeration_cost(12144, 4) / 9.058e14 - 1) < 0.01

    def test_paper_17500x_speedup(self):
        # §4.1: filtering at 1024 bits "almost 17,500 times faster"
        # than at 12112 bits.
        s = enumeration_speedup(1024 + 32, 12112 + 32, 4)
        assert 17000 < s < 17600


class TestMitmCost:
    def test_exponent_halving(self):
        # weight-5 checks stream pairs, not quadruples
        assert mitm_cost(1000, 5) == comb(999, 2)
        assert mitm_sorted_side(1000, 5) == comb(999, 2)

    def test_weight4_asymmetric_split(self):
        assert mitm_sorted_side(1000, 4) == comb(999, 1)
        assert mitm_cost(1000, 4) == comb(999, 2)

    def test_ba0dc66b_check_is_feasible(self):
        # the paper's "19 days" confirmation at 16360 bits is ~1.3e8
        # streamed elements for the MITM engine
        work = mitm_cost(16360 + 32, 4)
        assert work < 2e8


class TestEnvelope:
    def test_within(self):
        check_envelope(1000, 5)

    def test_memory_exceeded(self):
        with envelope(MEM_ELEMS=10**6):
            with pytest.raises(EnvelopeError, match="sorted side"):
                check_envelope(100_000, 5)

    def test_stream_exceeded(self):
        with envelope(MEM_ELEMS=10**18, STREAM_ELEMS=10**9):
            with pytest.raises(EnvelopeError, match="streams"):
                check_envelope(100_000, 6)


BUDGET_KEYWORDS = {
    "mem_elems", "stream_elems", "witness_window", "chunk_elems", "chunk_rows",
}


def _public_callables():
    """Every public function, class and public method defined in a
    module of :mod:`repro.hd` or :mod:`repro.search`."""
    for package in (repro.hd, repro.search):
        names = [package.__name__] + [
            f"{package.__name__}.{info.name}"
            for info in pkgutil.iter_modules(package.__path__)
        ]
        for name in names:
            module = importlib.import_module(name)
            for attr, obj in vars(module).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != name:
                    continue
                if inspect.isfunction(obj):
                    yield f"{name}.{attr}", obj
                elif inspect.isclass(obj):
                    yield f"{name}.{attr}", obj
                    for meth, fn in vars(obj).items():
                        fn = getattr(fn, "__func__", fn)
                        if inspect.isfunction(fn) and (
                            meth == "__init__" or not meth.startswith("_")
                        ):
                            yield f"{name}.{attr}.{meth}", fn


class TestOneEnvelope:
    """The work envelope lives in :mod:`repro.hd.cost` alone."""

    def test_no_public_callable_takes_a_budget(self):
        offenders = []
        seen = 0
        for name, obj in _public_callables():
            try:
                params = inspect.signature(obj).parameters
            except (TypeError, ValueError):
                continue
            seen += 1
            offenders += [f"{name}({p})" for p in params if p in BUDGET_KEYWORDS]
        assert seen > 50
        assert offenders == []

    def test_search_config_fields(self):
        from repro.search.exhaustive import SearchConfig

        assert [f.name for f in dataclasses.fields(SearchConfig)] == [
            "width", "target_hd", "filter_lengths", "confirm_weights",
            "backend", "batch_size",
        ]

    def test_one_rebinding_moves_every_caller(self):
        from repro.hd.mitm import exists_weight_k, windowed_witness
        from repro.hd.weights import count_weight_4

        g = 0x107  # dense weight-4 codewords at 120 bits
        assert windowed_witness(g, 120, 4) is not None
        with envelope(MEM_ELEMS=100):
            with pytest.raises(EnvelopeError):
                exists_weight_k(g, 120, 4)
            with pytest.raises(EnvelopeError):
                count_weight_4(g, 120)
            assert windowed_witness(g, 120, 4) is None
            assert max_affordable_window(4) < 120
        assert max_affordable_window(4) > 120
