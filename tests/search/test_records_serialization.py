"""Serialization identity of campaign records.

``PolyRecord.to_json_dict`` is built by hand for speed; it must stay
exactly the dict the ``dataclasses.asdict``-based form produced, key
order included, because checkpoints, the chaos harness and the
benchmark all compare serialized records byte for byte.  The old form
lives here only, as the oracle.
"""

from __future__ import annotations

import copy as copy_module
import dataclasses
import os
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.search.exhaustive import SearchConfig, search_chunk
from repro.search.records import CampaignRecord, PolyRecord

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "campaign_w8.json")


def asdict_form(rec: PolyRecord) -> dict:
    """The original ``to_json_dict``: ``asdict`` plus the JSON fix-ups."""
    d = dataclasses.asdict(rec)
    d["poly"] = f"{rec.poly:#x}"
    if rec.witness is not None:
        d["witness"] = list(rec.witness)
    if rec.weights is not None:
        d["weights"] = {str(k): v for k, v in rec.weights.items()}
    return d


small = st.integers(min_value=0, max_value=1 << 20)

poly_records = st.builds(
    PolyRecord,
    poly=st.integers(min_value=1, max_value=(1 << 33) - 1),
    width=st.integers(min_value=3, max_value=32),
    data_word_bits=small,
    hd=st.integers(min_value=2, max_value=12),
    survived=st.booleans(),
    filtered_at_bits=st.none() | small,
    witness=st.none() | st.lists(small, max_size=8).map(tuple),
    weights=st.none() | st.dictionaries(
        st.integers(min_value=2, max_value=12), small, max_size=5
    ),
)


@given(poly_records)
def test_to_json_dict_equals_asdict_form_in_key_order(rec):
    got = rec.to_json_dict()
    want = asdict_form(rec)
    assert list(got.items()) == list(want.items())
    if rec.weights is not None:
        assert list(got["weights"]) == list(want["weights"])


def fixture_campaign() -> CampaignRecord:
    """Width 8 at 48 bits: killed records carry witnesses, survivors
    carry weights, merged out of index order."""
    config = SearchConfig(width=8, target_hd=4, filter_lengths=(16, 48))
    campaign = CampaignRecord(
        width=config.width,
        data_word_bits=config.final_length,
        target_hd=config.target_hd,
    )
    half = 1 << 6
    for chunk_id, (lo, hi) in enumerate([(half, 2 * half), (0, half)]):
        res = search_chunk(config, lo, hi)
        campaign.merge_chunk(chunk_id, res.records, res.examined)
    return campaign


def test_campaign_to_json_is_byte_identical_to_fixture():
    campaign = fixture_campaign()
    records = campaign.results.values()
    # The fixture exercises both shapes of every optional field.
    assert any(r.witness is not None for r in records)
    assert any(r.witness is None for r in records)
    assert any(r.weights is not None for r in records)
    with open(FIXTURE, encoding="utf-8") as f:
        assert campaign.to_json() == f.read()


def test_fixture_round_trips():
    with open(FIXTURE, encoding="utf-8") as f:
        text = f.read()
    assert CampaignRecord.from_json(text).to_json() == text


def kill_record() -> PolyRecord:
    return PolyRecord(
        poly=0x179F48B87, width=32, data_word_bits=1024, hd=5,
        survived=False, filtered_at_bits=1024, witness=(0, 38, 151, 218, 924),
    )


def test_record_is_slotted():
    # A campaign holds one record per candidate: no per-record __dict__.
    rec = kill_record()
    assert not hasattr(rec, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.hd = 6


@given(poly_records)
def test_slotted_record_copies_and_compares(rec):
    for copy in (pickle.loads(pickle.dumps(rec)), copy_module.deepcopy(rec)):
        assert copy == rec and copy.to_json_dict() == rec.to_json_dict()
    assert dataclasses.replace(rec) == rec
    assert dataclasses.replace(rec, hd=rec.hd + 1).hd == rec.hd + 1
    assert asdict_form(rec) == rec.to_json_dict()
    if rec.weights is None:
        assert hash(rec) == hash(dataclasses.replace(rec))
