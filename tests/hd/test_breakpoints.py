"""Breakpoint machinery tests (first-failure lengths, bands, inverse
filtering)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2.poly import degree
from repro.hd.breakpoints import (
    BreakpointTable,
    first_failure_length,
    hd_breakpoint_table,
    max_length_for_hd,
    refute_hd_at,
)
from repro.hd import mitm
from repro.hd.syndromes import is_undetected_pattern
from repro.hd.weights import brute_force_weights
from repro.search.exhaustive import SearchConfig, _screen_candidate

gen_polys = st.integers(min_value=0b100101, max_value=(1 << 10) - 1).filter(
    lambda p: p & 1
)


def brute_first_failure(g: int, k: int, n_max: int) -> int | None:
    for n in range(1, n_max + 1):
        if brute_force_weights(g, n, k)[k] > 0:
            return n
    return None


class TestFirstFailure:
    @given(gen_polys, st.integers(min_value=3, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_matches_brute_scan(self, g, k):
        n_max = 16 - degree(g) + 8
        if n_max < 2:
            return
        expected = brute_first_failure(g, k, n_max)
        got = first_failure_length(g, k, n_max=n_max, exploit_parity=False)
        assert got == expected

    def test_crc8_weight2(self):
        # 0x107 has order 127: first weight-2 failure at n = 127+1-8 = 120
        assert first_failure_length(0x107, 2, n_max=200) == 120
        assert first_failure_length(0x107, 2, n_max=100) is None

    def test_parity_shortcut(self):
        # 0x107 is divisible by (x+1): odd weights never fail.
        assert first_failure_length(0x107, 3, n_max=500) is None

    def test_parity_shortcut_matches_search(self):
        got = first_failure_length(0x107, 3, n_max=200, exploit_parity=False)
        assert got is None

    def test_rejects_k1(self):
        with pytest.raises(ValueError):
            first_failure_length(0x107, 1, n_max=10)


class TestBreakpointTable:
    def test_crc8_full_table(self):
        t = hd_breakpoint_table(0x107, hd_max=5, n_max=200)
        # {(k): first failure}: w4 fails from the generator itself
        assert t.first_failure[2] == 120
        assert t.first_failure[3] is None
        assert t.first_failure[4] is not None
        assert t.hd_at(119) == 4
        assert t.hd_at(120) == 2
        assert t.max_length_for(4) == 119
        assert t.max_length_for(3) == 119  # HD jumps 4 -> 2

    def test_bands_partition(self):
        t = hd_breakpoint_table(0x107, hd_max=5, n_max=200)
        bands = t.bands
        # bands tile [1, inf) without gaps or overlaps
        assert bands[0][1] == 1
        for (_, _, hi), (_, lo, _) in zip(bands, bands[1:]):
            assert hi is not None and lo == hi + 1
        assert bands[-1][2] is None

    def test_hd_at_beyond_table(self):
        t = hd_breakpoint_table(0x107, hd_max=4, n_max=50)
        with pytest.raises(ValueError):
            t.hd_at(51)

    @given(gen_polys)
    @settings(max_examples=25, deadline=None)
    def test_hd_at_matches_direct_hd(self, g):
        from repro.hd.hamming import hamming_distance

        n_max = 24 - degree(g)
        if n_max < 3:
            return
        t = hd_breakpoint_table(g, hd_max=6, n_max=n_max, exploit_parity=False)
        for n in range(1, n_max + 1):
            direct = None
            try:
                direct = hamming_distance(g, n, k_max=6, exploit_parity=False)
            except ValueError:
                continue  # HD above the table's range at this length
            assert t.hd_at(n) == direct


class TestMaxLengthForHd:
    def test_crc8(self):
        assert max_length_for_hd(0x107, 4, n_max=300) == 119
        assert max_length_for_hd(0x107, 3, n_max=300) == 119
        assert max_length_for_hd(0x107, 2, n_max=300) == 300  # everywhere

    def test_unachievable(self):
        # HD=5 from a weight-4 generator is impossible at length >= 2
        # (the generator itself is an undetected 4-bit error once it fits).
        g = 0b1011  # weight 3 generator: HD <= 3 immediately
        assert max_length_for_hd(g, 4, n_max=100) is None


class TestRefute:
    def test_refutation_witness_is_real(self):
        out = refute_hd_at(0x107, 5, 50)
        assert out is not None
        k, positions = out
        assert k == 4
        assert is_undetected_pattern(0x107, positions)
        assert max(positions) < 58

    def test_no_refutation_when_hd_holds(self):
        assert refute_hd_at(0x107, 4, 100) is None

    def test_weight2_refutation(self):
        out = refute_hd_at(0x107, 3, 150)
        assert out is not None and out[0] == 2

    def test_windowed_miss_streams_each_exact_side_once(self, monkeypatch):
        # An 8-position witness window misses 0x1F99's weight-4 codeword
        # at 40 bits, so the kill comes from the exact scan -- which
        # must stream the weight-4 side once, not once to decide the
        # weight and again to name the witness.
        streamed = []

        def spy(syn, s, *args, **kwargs):
            streamed.append(s)
            return stream_side(syn, s, *args, **kwargs)

        stream_side = mitm._stream_side
        monkeypatch.setattr(mitm, "_stream_side", spy)
        out = refute_hd_at(0x1F99, 5, 40, witness_window=8)
        assert out == (4, (0, 7, 8, 47))
        # Weight 3 (large side of 1 position) is cleared, weight 4
        # (pairs) is killed: one scan each.
        assert streamed == [1, 2]


def scalar_cascade(
    candidates: list[int], lengths: list[int], hd: int
) -> tuple[list[int], dict[int, int]]:
    """The scalar screen's cascade over ``candidates``: its survivors,
    and how many candidates it killed at each length."""
    config = SearchConfig(
        width=degree(candidates[0]),
        target_hd=hd,
        filter_lengths=tuple(lengths),
        backend="scalar",
    )
    survivors, kills = [], dict.fromkeys(lengths, 0)
    for g in candidates:
        record, _ = _screen_candidate(g, config)
        if record is None:
            survivors.append(g)
        else:
            kills[record.filtered_at_bits] += 1
            # The kill is the refutation at the length it died at.
            assert refute_hd_at(g, hd, record.filtered_at_bits) == (
                record.hd, record.witness
            )
    return survivors, kills


def per_length_refutation(
    candidates: list[int], lengths: list[int], hd: int
) -> tuple[list[int], dict[int, int]]:
    """The same cascade by independent per-length refutations."""
    survivors, kills = list(candidates), {}
    for n in lengths:
        still = [g for g in survivors if refute_hd_at(g, hd, n) is None]
        kills[n] = len(survivors) - len(still)
        survivors = still
    return survivors, kills


class TestCascade:
    def test_filter_matches_direct(self):
        candidates = [(1 << 8) | (i << 1) | 1 for i in range(40, 80)]
        survivors, kills = scalar_cascade(candidates, [16, 60], 4)
        assert (survivors, kills) == per_length_refutation(
            candidates, [16, 60], 4
        )
        for g in candidates:
            assert (g in survivors) == (refute_hd_at(g, 4, 60) is None)
