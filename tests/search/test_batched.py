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

import tracemalloc
from contextlib import contextmanager, nullcontext
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.gf2.order import order_of_x
from repro.hd import batched as hd_batched
from repro.hd.batched import BatchKeys, weight4_exists, weight5_exists
from repro.hd.packed import ValueSweep, weight3_witnesses
from repro.hd.syndromes import syndrome_table
from repro.search.exhaustive import (
    SearchConfig,
    SearchResult,
    campaign_from_results,
    screen_chunk,
    search_chunk,
)
from repro.search import packed as search_packed
from repro.search.space import canonical, poly_to_index
from tests.conftest import envelope

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


@contextmanager
def tiny_filter():
    """Cap the presence filter at two slots: every batch hashes, nearly
    every query hits a marked slot, and the confirmation decides."""
    with mock.patch.object(hd_batched, "_FILTER_SLOTS", 2):
        yield


def both_engines(gs, n: int) -> list[BatchKeys]:
    """The same batch behind the filter it gets by default (direct when
    ``2**r <= 32 * n``: every width up to 5, wider ones at longer
    ``n``) and behind a forced-hashed one."""
    r = gs[0].bit_length() - 1
    tables = uint64_tables(gs, n)
    default = BatchKeys(tables, r)
    assert_envelope(default)
    with tiny_filter():
        hashed = BatchKeys(tables, r)
    assert hashed.hashed
    return [default, hashed]


def assert_envelope(keys: BatchKeys) -> None:
    """A filter holds at most 32 slots per key and at most the cap; a
    direct one holds exactly the batch's key space."""
    slots = len(keys._filter)
    assert slots <= min(hd_batched._FILTER_SLOTS, 32 * max(keys.B * keys.N, 1))
    assert keys.hashed or slots == keys.B << keys.r


@st.composite
def key_batches(draw):
    """Random ``(B, N)`` value tables at a degree ``r``, whose composite
    keys fit 64 bits, plus probe values."""
    # Degrees up to 10 index the filter directly once N is large enough.
    r = draw(st.one_of(st.integers(2, 10), st.integers(2, 63)))
    B = draw(st.integers(min_value=1, max_value=min(8, 1 << (64 - r))))
    N = draw(st.integers(min_value=0, max_value=40))
    value = st.integers(min_value=0, max_value=(1 << r) - 1)
    tables = np.array(
        draw(st.lists(st.lists(value, min_size=N, max_size=N), min_size=B, max_size=B)),
        dtype=np.uint64,
    ).reshape(B, N)
    probes = draw(st.lists(value, max_size=20))
    return r, tables, probes


class TestKernelProperties:
    @given(
        same_degree_batches(),
        st.integers(min_value=1, max_value=120),
        st.lists(st.integers(min_value=0, max_value=(1 << 16) - 1), max_size=20),
    )
    @settings(max_examples=60, deadline=None)
    def test_tables_match_scalar(self, gs, n, probes):
        # Both filters' membership answers agree with the scalar tables:
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
        # Probing each filter for every value XOR 1 finds exactly the
        # rows whose syndrome table holds a pair differing by 1 (a
        # weight-3 codeword), and so does the weight-3 screen.
        r = gs[0].bit_length() - 1
        expect = []
        for g in gs:
            vals = set(syndrome_table(g, n).tolist())
            expect.append(any((v ^ 1) in vals for v in vals))
        rows = np.arange(len(gs), dtype=np.uint64)[:, None] << np.uint64(r)
        for keys in both_engines(gs, n):
            probes = rows | (keys.tables ^ np.uint64(1))
            assert keys.contains(probes).any(axis=1).tolist() == expect
        sweep = ValueSweep(np.array(gs, dtype=np.uint64), r, n)
        sweep.advance_to(n)
        hits = {i for i, _ in weight3_witnesses(sweep, np.arange(len(gs)), n, n)}
        assert [row in hits for row in range(len(gs))] == expect

    @given(key_batches(), st.booleans(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_contains_matches_set_oracle(self, batch, tiny, fortran):
        # Every table value, its XOR-1 neighbour and each probe, asked
        # of every row, in either memory order: the answer is exactly
        # "is it in that row's set?".  Dense rows (small degrees) index
        # the filter directly, sparse ones hash; the tiny filter hashes
        # everything and collides nearly always.
        r, tables, probes = batch
        B, N = tables.shape
        vals = np.concatenate(
            [tables.ravel(), tables.ravel() ^ np.uint64(1),
             np.array(probes, dtype=np.uint64)]
        ) & np.uint64((1 << r) - 1)
        rows = np.arange(B, dtype=np.uint64)
        queries = (rows[:, None] << np.uint64(r)) | vals[None, :]
        if fortran:
            queries = np.asfortranarray(queries)
        if tiny:
            with tiny_filter():
                keys = BatchKeys(tables, r)
            assert keys.hashed
        else:
            keys = BatchKeys(tables, r)
            assert_envelope(keys)
        sets = [set(row) for row in tables.tolist()]
        expect = [[v in sets[row] for v in vals.tolist()] for row in range(B)]
        assert keys.contains(queries).tolist() == expect

    @given(same_degree_batches(min_width=3), st.integers(min_value=5, max_value=120))
    @settings(max_examples=40, deadline=None)
    def test_pair_screens_match_brute_force(self, gs, n):
        # Weights 4 and 5 answer the anchored pair equations exactly,
        # by default and forced-hashed alike: syn[a] ^ syn[b] ^ 1 is a
        # single (weight 4) or another pair (weight 5), 1 <= a < b.
        tables = uint64_tables(gs, n)
        expect4, expect5 = pair_equations(tables, n)
        r = gs[0].bit_length() - 1
        rows = np.ones(len(gs), dtype=bool)
        for tiny in (False, True):
            with tiny_filter() if tiny else nullcontext():
                keys = BatchKeys(tables, r)
                assert keys.hashed or not tiny
                assert weight4_exists(keys, rows).tolist() == expect4
                assert weight5_exists(keys, rows).tolist() == expect5

    @given(
        same_degree_batches(min_width=3),
        st.integers(min_value=5, max_value=90),
        st.integers(min_value=0, max_value=90),
        st.sampled_from([64, 1 << 17]),
    )
    # The first new solution ends at position n_prev itself: weight 4
    # {0, 50, 75, 77} for 0x134E1, and a weight-5 equation for 0x1980D.
    @example(gs=[0x134E1], n=78, n_prev=77, block=64)
    @example(gs=[0x1980D], n=55, n_prev=54, block=64)
    @settings(max_examples=60, deadline=None)
    def test_resumed_screens_match_full_window(self, gs, n, n_prev, block):
        # A row the brute force shows clean in an n_prev window needs
        # only the pairs reaching n_prev: the screens resumed there
        # give the full window's answer, in tiny blocks and in one.
        n_prev = min(n_prev, n)
        tables = uint64_tables(gs, n)
        keys = BatchKeys(tables, gs[0].bit_length() - 1)
        before, full = pair_equations(tables, n_prev), pair_equations(tables, n)
        with mock.patch.object(hd_batched, "_PAIR_BLOCK", block):
            for screen, dirty, expect in zip(
                (weight4_exists, weight5_exists), before, full
            ):
                clean = ~np.array(dirty, dtype=bool)
                got = screen(keys, clean, n_prev)
                assert got[clean].tolist() == np.array(expect)[clean].tolist()


def pair_equations(tables: np.ndarray, N: int) -> tuple[list[bool], list[bool]]:
    """Brute force of the anchored pair equations in the first ``N``
    positions of each row, for weight 4 (``syn[a] ^ syn[b] ^ 1`` a
    single) and weight 5 (another pair), ``1 <= a < b < N``."""
    expect4, expect5 = [], []
    for row in tables[:, :N].tolist():
        singles = set(row)
        pairs = {row[a] ^ row[b] for a in range(1, N) for b in range(a + 1, N)}
        expect4.append(any(v ^ 1 in singles for v in pairs))
        expect5.append(any(v ^ 1 in pairs for v in pairs))
    return expect4, expect5


def test_rows_retire_at_their_first_hit(monkeypatch):
    # One batch in blocks of at most 1,024 pairs.  A codeword is found
    # at the block holding its second-largest position (the pair's b;
    # the largest can be the single).  0x10811's first weight-4
    # codeword ends at position 16, inside the first block; 0x134E1's
    # only one in the window is {0, 50, 75, 77}, reached in the last
    # block; 0x128CD has none.  (All three are divisible by x + 1 with
    # orders beyond the window: no weight-2 or weight-3 codeword.)
    gs, N = [0x10811, 0x134E1, 0x128CD], 78
    tables = uint64_tables(gs, N)
    assert [pair_equations(tables, n)[0] for n in (17, 77, 78)] == [
        [True, False, False], [True, False, False], [True, True, False],
    ]
    monkeypatch.setattr(hd_batched, "_PAIR_BLOCK", 1024)
    keys = BatchKeys(tables, 16)
    asked = []
    contains = keys.contains

    def spy(query_keys):
        asked.append((query_keys[:, 0, 0] >> np.uint64(16)).tolist())
        return contains(query_keys)

    keys.contains = spy
    assert weight4_exists(keys, np.ones(3, dtype=bool)).tolist() == [True, True, False]
    # Row 0 leaves after the first block; rows 1 and 2 are asked to the
    # end, and only row 1 is condemned.
    assert len(asked) >= 3
    assert asked == [[0, 1, 2]] + [[1, 2]] * (len(asked) - 1)


@pytest.mark.parametrize("r", [8, 32, 64])
def test_one_row_keeps_its_table(r):
    # A one-row batch needs no row bits: its keys are its values, not
    # a copy, even at degree 64.  The hashed filter's sorted keys are
    # the only copy it makes, and nothing else outlives construction.
    rng = np.random.default_rng(r)
    values = rng.integers(0, 1 << min(r, 63), size=20_000, dtype=np.uint64)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        keys = BatchKeys(values[None, :], r)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert np.shares_memory(keys.keys, values)
    assert keys.hashed == (r > 8)
    copies = values.nbytes if keys.hashed else 0
    if keys.hashed:
        assert not np.shares_memory(keys._sorted, values)
    assert kept <= keys._filter.nbytes + copies + 4096
    assert keys.contains(values).all()


class TestMembershipEngines:
    """The weight-4/5 screens below width 33 through the driver, with
    every filter they build (weight 5's pair filters too) recorded.
    Width-24 rows are sparse -- 2**24 values against at most 32 slots
    per key -- so every filter hashes, even on the thin remainders of
    small batches.  At width 12 the weight-4 filters at the 37-bit
    stage hash, while the pair filters (630 keys per row against 4,096
    values) are indexed directly."""

    @staticmethod
    def spy(monkeypatch) -> list[BatchKeys]:
        engines = []

        class Spy(BatchKeys):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                assert_envelope(self)
                engines.append(self)

        monkeypatch.setattr(search_packed, "BatchKeys", Spy)
        monkeypatch.setattr(hd_batched, "BatchKeys", Spy)
        return engines

    @pytest.mark.parametrize("batch_size", [4, 5])
    def test_width24_hd6_identical(self, monkeypatch, batch_size):
        engines = self.spy(monkeypatch)
        cfg = SearchConfig.for_bits(24, 6, 96, batch_size=batch_size)
        third = (1 << 23) // 3
        packed = search_chunk(cfg, third, third + 48)
        scalar = search_chunk(replace(cfg, backend="scalar"), third, third + 48)
        assert_identical(packed, scalar)
        assert engines and all(keys.hashed for keys in engines)
        # The range holds weight-4 and weight-5 kills, so both screens
        # condemned rows.
        assert {r.hd for r in packed.records if not r.survived} >= {4, 5}

    def test_width12_hd6_identical(self, monkeypatch):
        engines = self.spy(monkeypatch)
        # An 8-position witness window misses weight-5 codewords the
        # driver must then screen for, so pair filters get built.
        cfg = SearchConfig.for_bits(12, 6, 200)
        with envelope(WITNESS_WINDOW=8):
            packed = search_chunk(cfg, 0, 256)
            scalar = search_chunk(replace(cfg, backend="scalar"), 0, 256)
        assert_identical(packed, scalar)
        assert {keys.hashed for keys in engines} == {False, True}
        assert {r.hd for r in packed.records if not r.survived} >= {4, 5}


def test_weight5_windowed_miss_killed_by_full_search(monkeypatch):
    # An 8-position witness window misses the weight-5 codewords of
    # some rows at the 37-bit stage: the screen condemns them and the
    # full search alone supplies their witnesses -- the scalar path's
    # witnesses, with no second windowed search.
    cfg = SearchConfig.for_bits(12, 6, 200)
    windowed, full = [], []

    def spy(log, fn):
        def call(g, N, k, **kwargs):
            witness = fn(g, N, k, **kwargs)
            log.append((g, N, k, witness))
            return witness

        return call

    monkeypatch.setattr(
        search_packed, "windowed_witness", spy(windowed, search_packed.windowed_witness)
    )
    monkeypatch.setattr(
        search_packed, "find_witness", spy(full, search_packed.find_witness)
    )
    with envelope(WITNESS_WINDOW=8):
        packed = search_chunk(cfg, 0, 256)
        scalar = search_chunk(replace(cfg, backend="scalar"), 0, 256)
    assert_identical(packed, scalar)
    by_full = {(g, N): wit for g, N, k, wit in full if k == 5}
    assert by_full
    for g, N in by_full:
        assert [wit for g2, N2, k, wit in windowed if (g2, N2, k) == (g, N, 5)] == [None]
    killed = {r.poly: r for r in packed.records if not r.survived and r.hd == 5}
    for (g, N), wit in by_full.items():
        assert killed[g].witness == wit and killed[g].filtered_at_bits == N - 12
