"""Differential tests: the packed screening backend against the scalar
oracle.

The packed backend's contract is *record-for-record identity* with the
scalar path -- same survivors, same per-stage kill counts, same kill
weights and witnesses -- asserted here on full canonical spaces at
validation widths, on index ranges up to width 63, and on
hypothesis-drawn widths, target HDs, and chunkings.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gf2.order import order_of_x
from repro.hd.mitm import find_witness, windowed_witness
from repro.hd.packed import ValueSweep, weight3_witnesses
from repro.hd.syndromes import syndrome_of_positions, syndrome_table
from repro.search.exhaustive import (
    SearchConfig,
    campaign_from_results,
    effective_kernel,
    expected_examined,
    screen_chunk,
    search_chunk,
)

gen_polys = st.integers(min_value=0b101, max_value=(1 << 17) - 1).filter(
    lambda p: p & 1 and p.bit_length() >= 2
)


def run_backend(config: SearchConfig, backend: str, start=0, end=None):
    if end is None:
        end = 1 << (config.width - 1)
    return search_chunk(replace(config, backend=backend), start, end)


def both_backends(config: SearchConfig, start=0, end=None) -> tuple:
    """Run the same index range through the packed and scalar backends."""
    return (
        run_backend(config, "packed", start, end),
        run_backend(config, "scalar", start, end),
    )


def assert_identical(a, b) -> None:
    assert a.examined == b.examined
    assert a.stage_kills == b.stage_kills
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra == rb, f"record mismatch for {ra.poly:#x}:\n  {ra}\n  {rb}"


class TestFullSpaceIdentity:
    @pytest.mark.parametrize("width", [8, 9, 10, 11, 12])
    def test_hd4_screening_identical(self, width):
        cfg = SearchConfig.for_bits(width, 4, 120)
        packed, scalar = both_backends(cfg)
        assert_identical(packed, scalar)
        # The census covers the whole canonical space.
        assert packed.examined == expected_examined(width)

    def test_hd5_weight4_screen_identical(self):
        # At HD 5 the packed backend routes weight 4 through the pair
        # screen on materialized uint64 tables, over a full space.
        cfg = SearchConfig.for_bits(10, 5, 120)
        packed, scalar = both_backends(cfg)
        assert_identical(packed, scalar)
        assert packed.examined == expected_examined(10)

    def test_screen_survivors_and_tables_identical(self):
        # The screening phase itself, before confirmation: the same kill
        # records, the same survivor slots and polys, and the same
        # final-length syndrome table handed to confirmation.
        cfg = SearchConfig.for_bits(10, 4, 120)
        end = 1 << (cfg.width - 1)
        packed = screen_chunk(cfg, 0, end)
        scalar = screen_chunk(replace(cfg, backend="scalar"), 0, end)
        assert packed.records == scalar.records
        assert [s[:2] for s in packed.survivors] == [
            s[:2] for s in scalar.survivors
        ]
        assert packed.survivors
        for (_, g, tp), (_, _, ts) in zip(packed.survivors, scalar.survivors):
            np.testing.assert_array_equal(
                tp.astype(np.uint64), ts, err_msg=f"{g:#x}"
            )

    @pytest.mark.parametrize("target_hd", [5, 6])
    def test_deep_cascade_identical(self, target_hd):
        # HD >= 5 runs the weight-4 pair screen on materialized uint64
        # tables; HD >= 6 adds the weight-5 split screen and parity
        # immunity on odd weights.
        cfg = SearchConfig(
            width=9, target_hd=target_hd, filter_lengths=(12, 24, 48),
            confirm_weights=False,
        )
        assert_identical(*both_backends(cfg))

    def test_scalar_tail_identical(self):
        # HD >= 7 pushes weight 6 through the per-row scalar tail.
        cfg = SearchConfig(
            width=10, target_hd=7, filter_lengths=(8, 16),
            confirm_weights=False,
        )
        assert_identical(*both_backends(cfg))

    def test_tiny_batches_identical(self):
        # Lane compaction and batch boundaries must not change records.
        cfg = SearchConfig.for_bits(10, 4, 100, batch_size=7)
        assert_identical(*both_backends(cfg))

    @pytest.mark.parametrize(
        "batch", [{}, {"batch_size": 7}], ids=["default", "batch7"]
    )
    def test_160_bit_cascade_identical(self, batch):
        # The (20, 80, 160) cascade over the width-10 space, at the
        # default batch size and at one that forces lane compaction.
        cfg = SearchConfig.for_bits(10, 4, 160, **batch)
        packed, scalar = both_backends(cfg)
        assert_identical(packed, scalar)
        assert packed.examined == expected_examined(10)

    def test_merged_campaigns_identical(self):
        cfg = SearchConfig.for_bits(9, 4, 100)
        bounds = [(lo, min(lo + 50, 256)) for lo in range(0, 256, 50)]
        merged = {}
        for backend in ("packed", "scalar"):
            chunks = {
                i: run_backend(cfg, backend, lo, hi)
                for i, (lo, hi) in enumerate(bounds)
            }
            merged[backend] = campaign_from_results(
                replace(cfg, backend=backend), chunks
            )
        packed, scalar = merged["packed"], merged["scalar"]
        assert packed.candidates_examined == scalar.candidates_examined
        assert {r.poly for r in packed.survivors} == {
            r.poly for r in scalar.survivors
        }
        assert packed.results == scalar.results

    @pytest.mark.parametrize("width", [33, 40, 63])
    @pytest.mark.parametrize(
        "target_hd, bits, span",
        [
            pytest.param(4, 48, 24, id="4-48"),
            pytest.param(4, 64, 48, id="4-64"),
            pytest.param(6, 32, 24, id="6-32"),
            pytest.param(6, 40, 48, id="6-40"),
        ],
    )
    def test_wide_index_ranges_identical(self, width, target_hd, bits, span):
        # Above 32 bits the sweep runs uint64 and serially, and weight 3
        # argsorts the values; the low indices hold sparse generators
        # that die at weights 2-5, a third of the way in they survive.
        cfg = SearchConfig.for_bits(width, target_hd, bits)
        third = (1 << (width - 1)) // 3
        for start in (0, third):
            assert_identical(*both_backends(cfg, start, start + span))

    def test_width_above_packed_cap_falls_back(self):
        # A generator wider than 63 bits no longer fits a uint64 lane:
        # backend="packed" must dispatch to the scalar path, not fail.
        cfg = SearchConfig.for_bits(64, 4, 80)
        assert effective_kernel(cfg) == "scalar"
        assert effective_kernel(replace(cfg, width=63)) == "packed"


@st.composite
def packed_configs(draw):
    """Random (config, chunk bounds): widths 5-16, hd 4-6, chunkings."""
    width = draw(st.integers(min_value=5, max_value=16))
    target_hd = draw(st.integers(min_value=4, max_value=6))
    bits = draw(st.integers(min_value=40, max_value=200))
    batch_size = draw(st.sampled_from([3, 17, 64, 4096]))
    space = 1 << (width - 1)
    start = draw(st.integers(min_value=0, max_value=max(space - 2, 0)))
    # Bounded so the scalar oracle stays quick on every example.
    end = draw(st.integers(min_value=start + 1, max_value=min(space, start + 128)))
    cfg = SearchConfig.for_bits(
        width, target_hd, bits, batch_size=batch_size
    )
    return cfg, start, end


class TestHypothesisDifferential:
    @given(packed_configs())
    @settings(max_examples=25, deadline=None)
    def test_packed_and_scalar_agree(self, case):
        cfg, start, end = case
        assert_identical(*both_backends(cfg, start, end))


@st.composite
def same_degree_batches(draw, max_width=16, max_size=8):
    """Batches sharing one degree, as the kernels require: the x**w and
    +1 terms are fixed, the interior bits drawn freely."""
    w = draw(st.integers(min_value=2, max_value=max_width))
    interiors = draw(
        st.lists(
            st.integers(min_value=0, max_value=(1 << (w - 1)) - 1),
            min_size=1,
            max_size=max_size,
        )
    )
    return [(1 << w) | (i << 1) | 1 for i in interiors]


def sweep_tables(gs, n: int, steps=()) -> np.ndarray:
    """``(B, n)`` uint64 tables from a :class:`ValueSweep`, advanced
    through the intermediate depths ``steps`` first."""
    r = gs[0].bit_length() - 1
    sweep = ValueSweep(np.array(gs, dtype=np.uint64), r, n)
    for depth in (*steps, n):
        sweep.advance_to(depth)
    return sweep.values(np.arange(len(gs)), n, np.uint64)


class TestPackedKernels:
    @given(
        same_degree_batches(max_width=63),
        st.integers(min_value=1, max_value=700),
    )
    @settings(max_examples=60, deadline=None)
    def test_packed_tables_match_scalar(self, gs, n):
        # Up to 700 positions reaches the sliced advance (segments over
        # 256 rows at r <= 32) and the serial uint64 one (r > 32).
        tables = sweep_tables(gs, n)
        assert tables.shape == (len(gs), n)
        for row, g in zip(tables, gs):
            np.testing.assert_array_equal(row, syndrome_table(g, n))

    @given(
        same_degree_batches(max_width=63, max_size=6),
        st.integers(min_value=1, max_value=600),
        st.integers(min_value=1, max_value=600),
    )
    @settings(max_examples=60, deadline=None)
    def test_incremental_advance_matches_fresh_sweep(self, gs, n1, n2):
        # The cascade grows one sweep stage by stage; growing it in two
        # steps must fill exactly what one step fills.
        lo, hi = sorted((n1, n2))
        np.testing.assert_array_equal(
            sweep_tables(gs, hi, steps=(lo,)), sweep_tables(gs, hi)
        )

    @given(
        gen_polys,
        st.sets(st.integers(min_value=0, max_value=80), min_size=1, max_size=5),
    )
    @settings(max_examples=100, deadline=None)
    def test_rows_agree_with_position_syndromes(self, g, positions):
        # Each table row XOR-composes exactly like syndrome_of_positions.
        n = max(positions) + 1
        tables = sweep_tables([g], n)
        acc = np.uint64(0)
        for p in positions:
            acc ^= tables[0, p]
        assert int(acc) == syndrome_of_positions(g, sorted(positions))

    @given(
        same_degree_batches(max_width=63, max_size=70),
        st.integers(min_value=2, max_value=600),
    )
    @settings(max_examples=40, deadline=None)
    def test_sweep_first_one_is_order(self, gs, n):
        # The sweep's first "register == 1" position is the order of
        # x -- the weight-2 screen -- across detection blocks and
        # batches of many lanes.
        r = gs[0].bit_length() - 1
        sweep = ValueSweep(np.array(gs, dtype=np.uint64), r, n)
        sweep.advance_to(n)
        for lane, g in enumerate(gs):
            order = order_of_x(g)
            expect = order if order <= n - 1 else -1
            assert sweep.first_one[lane] == expect

    @given(
        same_degree_batches(max_width=63),
        st.integers(min_value=4, max_value=300),
        st.integers(min_value=2, max_value=300),
    )
    # 0x1473 at 300 bits: the windowed witness (0, 23, 181) is not the
    # full search's (0, 17, 202); window 2 forces the windowed miss.
    @example([0x1473], 300, 32)
    @example([0x1473], 300, 2)
    @settings(max_examples=60, deadline=None)
    def test_weight3_rows_match_table_scan(self, gs, n, window):
        # The weight-3 screen -- composite-key sort up to 32 bits,
        # argsort above -- finds exactly the rows whose syndrome table
        # holds a pair differing by 1 (a weight-3 codeword), and on
        # weight-2-clean rows picks the scalar cascade's witness:
        # windowed first, the full search on a windowed miss.
        r = gs[0].bit_length() - 1
        sweep = ValueSweep(np.array(gs, dtype=np.uint64), r, n)
        sweep.advance_to(n)
        hits = dict(weight3_witnesses(sweep, np.arange(len(gs)), n, window))
        for row, g in enumerate(gs):
            syn = syndrome_table(g, n)
            vals = set(syn.tolist())
            assert (row in hits) == any((v ^ 1) in vals for v in vals)
            if row in hits and order_of_x(g) > n - 1:
                expect = windowed_witness(
                    g, n, 3, window=min(window, n), syn=syn
                ) or find_witness(g, n, 3, syn=syn)
                assert hits[row] == expect
