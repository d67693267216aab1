"""Batch-level tests: the packed driver run chunk by chunk, and the
:mod:`repro.hd.batched` screens it runs on, against scalar references.

The pool and the farm hand the driver small index ranges, so batch and
chunk boundaries fall anywhere in a space.  The identity tests here
screen each space in many small chunks with the packed backend and
require the concatenated records to equal one scalar pass over the
whole space -- same survivors, same per-stage kill counts, same kill
weights and witnesses.  (:mod:`tests.search.test_packed` runs the same
cases as one chunk each.)
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2.order import order_of_x
from repro.hd.batched import BatchKeys, PositionMap
from repro.hd.packed import ValueSweep
from repro.hd.syndromes import syndrome_table
from repro.search.exhaustive import (
    SearchConfig,
    SearchResult,
    campaign_from_results,
    screen_chunk,
    search_chunk,
)
from repro.search.space import canonical, poly_to_index

#: Odd, so chunk edges drift against every batch size used below.
CHUNK = 37


@st.composite
def same_degree_batches(draw, min_width=2, max_width=16, max_size=8):
    """Batches sharing one degree, as the kernels require: the x**w and
    +1 terms are fixed, the interior bits drawn freely."""
    w = draw(st.integers(min_value=min_width, max_value=max_width))
    interiors = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << (w - 1)) - 1),
            min_size=1,
            max_size=max_size,
        )
    )
    return [(1 << w) | (i << 1) | 1 for i in interiors]


def chunked_and_scalar(config: SearchConfig) -> tuple[SearchResult, SearchResult]:
    """The full space screened packed in ``CHUNK``-sized pieces (merged
    in index order) and scalar in one piece."""
    end = 1 << (config.width - 1)
    packed_cfg = replace(config, backend="packed")
    merged = SearchResult(config=packed_cfg)
    for lo in range(0, end, CHUNK):
        part = search_chunk(packed_cfg, lo, min(lo + CHUNK, end))
        merged.records.extend(part.records)
        merged.examined += part.examined
        for n, kills in part.stage_kills.items():
            merged.stage_kills[n] = merged.stage_kills.get(n, 0) + kills
    scalar = search_chunk(replace(config, backend="scalar"), 0, end)
    return merged, scalar


def assert_identical(a: SearchResult, b: SearchResult) -> None:
    assert a.examined == b.examined
    assert a.stage_kills == b.stage_kills
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra == rb, f"record mismatch for {ra.poly:#x}:\n  {ra}\n  {rb}"


class TestFullSpaceIdentity:
    @pytest.mark.parametrize("width", [8, 9, 10, 11, 12])
    def test_hd4_screening_identical(self, width):
        cfg = SearchConfig.for_bits(width, 4, 120)
        assert_identical(*chunked_and_scalar(cfg))

    @pytest.mark.parametrize("target_hd", [5, 6])
    def test_deep_cascade_identical(self, target_hd):
        # HD >= 5 exercises the weight-4 pair screen; HD >= 6 adds the
        # weight-5 (2,3)-split screen and parity immunity on odd k.
        cfg = SearchConfig(
            width=9, target_hd=target_hd, filter_lengths=(12, 24, 48),
            confirm_weights=False,
        )
        assert_identical(*chunked_and_scalar(cfg))

    def test_scalar_tail_identical(self):
        # HD >= 7 pushes weight 6 through the per-row scalar tail.
        cfg = SearchConfig(
            width=10, target_hd=7, filter_lengths=(8, 16),
            confirm_weights=False,
        )
        assert_identical(*chunked_and_scalar(cfg))

    def test_tiny_batches_identical(self):
        # Batch boundaries inside chunks must not change anything.
        cfg = SearchConfig.for_bits(10, 4, 100, batch_size=7)
        assert_identical(*chunked_and_scalar(cfg))

    def test_merged_campaigns_identical(self):
        # Chunks merged by the campaign equal one scalar chunk.
        cfg = SearchConfig.for_bits(9, 4, 100)
        chunks = {
            i: search_chunk(cfg, lo, min(lo + 50, 256))
            for i, lo in enumerate(range(0, 256, 50))
        }
        merged = campaign_from_results(cfg, chunks)
        scalar_cfg = replace(cfg, backend="scalar")
        scalar = campaign_from_results(
            scalar_cfg, {0: search_chunk(scalar_cfg, 0, 256)}
        )
        assert merged.candidates_examined == scalar.candidates_examined
        assert {r.poly for r in merged.survivors} == {
            r.poly for r in scalar.survivors
        }
        assert merged.results == scalar.results


def uint64_tables(gs, n: int) -> np.ndarray:
    """The ``(B, n)`` uint64 tables the driver hands :class:`BatchKeys`."""
    r = gs[0].bit_length() - 1
    sweep = ValueSweep(np.array(gs, dtype=np.uint64), r, n)
    sweep.advance_to(n)
    return sweep.values(np.arange(len(gs)), n, np.uint64)


def both_engines(gs, n: int) -> list[BatchKeys]:
    """The same batch behind the dense presence map and the sorted keys."""
    r = gs[0].bit_length() - 1
    tables = uint64_tables(gs, n)
    dense = BatchKeys(tables, r, workspace=PositionMap(len(gs) << r))
    assert dense._inv is not None
    return [dense, BatchKeys(tables, r)]


class TestKernelProperties:
    @given(
        same_degree_batches(),
        st.integers(min_value=1, max_value=120),
        st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_tables_match_scalar(self, gs, n, probes):
        # Both engines' membership answers agree with the scalar tables:
        # every table value is present, a probe only if it occurs.
        r = gs[0].bit_length() - 1
        for keys in both_engines(gs, n):
            assert keys.tables.shape == (len(gs), n)
            for row, g in enumerate(gs):
                syn = syndrome_table(g, n)
                np.testing.assert_array_equal(keys.tables[row], syn)
                vals = np.concatenate(
                    [syn, np.array(probes, dtype=np.uint64) & np.uint64((1 << r) - 1)]
                )
                found = keys.contains((np.uint64(row) << np.uint64(r)) | vals)
                expect = np.isin(vals, syn)
                np.testing.assert_array_equal(found, expect)

    @given(
        same_degree_batches(min_width=3, max_width=63, max_size=8),
        st.integers(min_value=8, max_value=300),
    )
    @settings(max_examples=40, deadline=None)
    def test_weight2_screen_is_order_check(self, gs, n):
        # The driver's weight-2 kill <=> order(x) <= N-1, with witness
        # (0, order): run on the index range holding each generator.
        width = gs[0].bit_length() - 1
        cfg = SearchConfig(
            width=width, target_hd=3, filter_lengths=(n,),
            confirm_weights=False,
        )
        N = n + width
        for g in gs:
            idx = poly_to_index(canonical(g), width)
            screen = screen_chunk(cfg, idx, idx + 1)
            order = order_of_x(g)
            (rec,) = screen.records
            if order <= N - 1:
                assert rec is not None
                assert (rec.hd, rec.witness, rec.filtered_at_bits) == (
                    2, (0, order), n,
                )
            else:
                assert rec is None and len(screen.survivors) == 1

    @given(same_degree_batches(), st.integers(min_value=4, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_keyed_weight3_matches_table_scan(self, gs, n):
        # Both engines find exactly the rows whose syndrome table holds
        # a pair differing by 1 (a weight-3 codeword).
        expect = []
        for g in gs:
            vals = set(syndrome_table(g, n).tolist())
            expect.append(any((v ^ 1) in vals for v in vals))
        for keys in both_engines(gs, n):
            assert keys.weight3_rows().tolist() == expect
