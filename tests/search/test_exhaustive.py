"""Exhaustive search driver tests at validation widths."""

from __future__ import annotations

import pytest

from repro.gf2.poly import divisible_by_x_plus_1, reciprocal
from repro.hd.hamming import hamming_distance
from repro.search.exhaustive import (
    SearchConfig,
    campaign_from_results,
    confirm_survivor,
    expected_examined,
    search_all,
    search_chunk,
)
from repro.search.space import canonical_candidates


@pytest.fixture(scope="module")
def crc8_search():
    cfg = SearchConfig(width=8, target_hd=4, filter_lengths=(16, 40, 100))
    return cfg, search_all(cfg)


class TestConfigValidation:
    def test_rejects_descending_lengths(self):
        with pytest.raises(ValueError):
            SearchConfig(width=8, target_hd=4, filter_lengths=(40, 16))

    def test_rejects_empty_cascade(self):
        with pytest.raises(ValueError):
            SearchConfig(width=8, target_hd=4, filter_lengths=())

    def test_rejects_tiny_width(self):
        with pytest.raises(ValueError):
            SearchConfig(width=2, target_hd=4, filter_lengths=(10,))


class TestCrc8Exhaustive:
    def test_examined_count(self, crc8_search):
        cfg, res = crc8_search
        assert res.examined == expected_examined(8)

    def test_survivors_truly_achieve_target(self, crc8_search):
        cfg, res = crc8_search
        for rec in res.survivors:
            assert hamming_distance(rec.poly, cfg.final_length) >= 4
            assert rec.weights[2] == 0 and rec.weights[3] == 0

    def test_filtered_out_have_witnesses(self, crc8_search):
        from repro.hd.syndromes import is_undetected_pattern

        cfg, res = crc8_search
        for rec in res.records:
            if not rec.survived:
                assert rec.witness is not None
                assert is_undetected_pattern(rec.poly, rec.witness)
                assert len(rec.witness) < 4
                assert max(rec.witness) < rec.filtered_at_bits + 8

    def test_known_good_crc8_survives(self, crc8_search):
        # ATM-HEC x^8+x^2+x+1 has HD=4 to 119 bits: must survive at 100.
        _, res = crc8_search
        survivors = {r.poly for r in res.survivors}
        assert 0x107 in survivors or reciprocal(0x107) in survivors

    def test_all_survivors_divisible_by_x_plus_1(self, crc8_search):
        # The scaled analogue of the paper's §4.2 law holds at width 8
        # for HD=4 at 100 bits.
        _, res = crc8_search
        assert res.survivors  # non-vacuous
        for rec in res.survivors:
            assert divisible_by_x_plus_1(rec.poly)

    def test_stage_kills_accounting(self, crc8_search):
        cfg, res = crc8_search
        assert sum(res.stage_kills.values()) + len(res.survivors) == res.examined
        # the cascade kills most candidates at the cheapest length
        assert res.stage_kills[16] > res.stage_kills[100]


class TestChunkedEquivalence:
    def test_chunks_equal_whole(self):
        cfg = SearchConfig(width=6, target_hd=4, filter_lengths=(10, 24))
        whole = search_all(cfg)
        parts = {}
        for i, lo in enumerate(range(0, 32, 7)):
            parts[i] = search_chunk(cfg, lo, min(lo + 7, 32))
        merged = campaign_from_results(cfg, parts)
        assert merged.candidates_examined == whole.examined
        assert {r.poly for r in merged.survivors} == {
            r.poly for r in whole.survivors
        }

    def test_survivor_hd_is_exact_not_just_threshold(self):
        cfg = SearchConfig(width=6, target_hd=3, filter_lengths=(8, 16))
        res = search_all(cfg)
        for rec in res.survivors:
            assert rec.hd == hamming_distance(rec.poly, 16, exploit_parity=False)


class TestConfirmAtMtu:
    """Confirming the paper's headline polynomial, 0xBA0DC66B, at its
    12,112-bit MTU.  The screen already proved weights 2-5 absent, so
    confirmation only looks for the weight-6 witness."""

    CFG = SearchConfig.for_bits(32, 6, 12112)
    BA0D_FULL = 0x1741B8CD7  # 0xBA0DC66B in full notation
    BA0D_INDEX = 973981291  # its dense canonical index at width 32

    def test_headline_polynomial_confirms_hd6(self):
        rec = confirm_survivor(self.BA0D_FULL, self.CFG)
        assert rec.hd == 6
        assert rec.survived
        assert rec.data_word_bits == 12112

    @pytest.mark.slow
    def test_headline_single_index_chunk_completes(self):
        res = search_chunk(self.CFG, self.BA0D_INDEX, self.BA0D_INDEX + 1)
        (rec,) = res.records
        assert rec.poly == self.BA0D_FULL
        assert rec.hd == 6 and rec.survived
