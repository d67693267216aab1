"""Result record serialization and idempotent merging."""

from __future__ import annotations

import pytest

from repro.search.records import CampaignRecord, PolyRecord, describe_poly


def make_record(poly=0x107, survived=True):
    return PolyRecord(
        poly=poly,
        width=8,
        data_word_bits=100,
        hd=4,
        survived=survived,
        filtered_at_bits=None if survived else 16,
        witness=None if survived else (0, 1, 5),
        weights={2: 0, 3: 0, 4: 42872} if survived else None,
    )


class TestPolyRecord:
    def test_json_roundtrip_survivor(self):
        rec = make_record()
        assert PolyRecord.from_json_dict(rec.to_json_dict()) == rec

    def test_json_roundtrip_filtered(self):
        rec = make_record(survived=False)
        assert PolyRecord.from_json_dict(rec.to_json_dict()) == rec

    def test_derived_properties(self):
        rec = make_record()
        assert rec.koopman == 0x83
        assert rec.factor_class == (1, 7)

    def test_describe(self):
        s = describe_poly(0x107)
        assert "0x107" in s and "{1,7}" in s and "degree 8" in s


class TestCampaignRecord:
    def test_merge_is_idempotent(self):
        c = CampaignRecord(width=8, data_word_bits=100, target_hd=4)
        recs = [make_record()]
        assert c.merge_chunk(0, recs, 10)
        assert not c.merge_chunk(0, recs, 10)  # replay ignored
        assert c.candidates_examined == 10
        assert len(c.results) == 1

    def test_survivors_sorted(self):
        c = CampaignRecord(width=8, data_word_bits=100, target_hd=4)
        c.merge_chunk(0, [make_record(0x1F5), make_record(0x107)], 2)
        assert [r.poly for r in c.survivors] == [0x107, 0x1F5]

    def test_json_roundtrip(self):
        c = CampaignRecord(width=8, data_word_bits=100, target_hd=4)
        c.merge_chunk(3, [make_record(), make_record(0x11D, survived=False)], 7)
        c2 = CampaignRecord.from_json(c.to_json())
        assert c2.width == 8
        assert c2.chunks_done == {3}
        assert c2.candidates_examined == 7
        assert c2.results == c.results

    def test_merge_journal_holds_references_outside_equality(self):
        c = CampaignRecord(width=8, data_word_bits=100, target_hd=4)
        c.merge_chunk(5, [make_record(0x1F5)], 1)
        assert c.take_journal() is None  # nothing journaled before
        recs = [make_record()]
        c.merge_chunk(0, recs, 10)
        c.merge_chunk(0, recs, 10)  # a replay journals nothing
        ((ids, journaled, examined),) = c.take_journal()
        assert ids == (0,) and examined == 10
        assert journaled is recs  # the caller's list, not a copy
        assert c.take_journal() == []
        twin = CampaignRecord.from_json(c.to_json())
        assert twin == c
        assert "journal" not in c.to_json()

    def test_merge_chunks_is_all_or_nothing(self):
        c = CampaignRecord(width=8, data_word_bits=100, target_hd=4)
        c.merge_chunk(1, [make_record()], 5)
        other = make_record(0x11D, survived=False)
        assert not c.merge_chunks((0, 1), [other], 9)
        assert c.chunks_done == {1} and 0x11D not in c.results
        assert c.merge_chunks((0, 2), [other], 9)
        assert c.chunks_done == {0, 1, 2} and c.candidates_examined == 14
