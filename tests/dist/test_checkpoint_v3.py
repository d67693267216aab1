"""Checkpoint durability: format-3 reads (CRC self-check, any JSON
layout) on files a test helper writes in the format-3 writer's layout,
and the guarantees the format-4 writer keeps -- generation rotation,
corruption fallback, rotation safety, legacy-format migration.  The
format-4 manifest and log themselves are ``test_checkpoint_v4.py``'s."""

from __future__ import annotations

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import checkpoint as checkpoint_io
from repro.dist.checkpoint import (
    CheckpointCorrupt,
    CheckpointMismatch,
    CheckpointMissing,
    previous_path,
)
from repro.dist.faults import corrupt_file
from repro.search.exhaustive import SearchConfig, search_chunk
from repro.search.records import CampaignRecord, PolyRecord

from tests.dist.conftest import write_format3

CFG = SearchConfig(width=6, target_hd=4, filter_lengths=(8, 20),
                   confirm_weights=False)
CHUNK = 8


def make_campaign(chunks_done=()) -> CampaignRecord:
    campaign = CampaignRecord(
        width=CFG.width, data_word_bits=CFG.final_length,
        target_hd=CFG.target_hd,
    )
    for chunk_id in chunks_done:
        res = search_chunk(CFG, chunk_id * CHUNK, (chunk_id + 1) * CHUNK)
        campaign.merge_chunk(chunk_id, res.records, res.examined)
    return campaign


def save(path, campaign, quarantined=()):
    checkpoint_io.save(str(path), campaign, CFG, CHUNK, quarantined)


def save_v3(path, campaign, quarantined=()):
    write_format3(str(path), campaign, CFG, CHUNK, quarantined)


class TestFormat3:
    def test_round_trips_with_crc(self, tmp_path):
        path = tmp_path / "c.json"
        campaign = make_campaign([0, 1])
        save_v3(path, campaign, quarantined=[3])
        loaded = checkpoint_io.load(str(path), CFG, CHUNK)
        assert loaded.format_version == 3
        assert not loaded.fell_back
        assert loaded.source == str(path)
        assert loaded.quarantined == {3}
        assert loaded.campaign.to_json() == campaign.to_json()

    def test_crc_covers_canonical_payload(self, tmp_path):
        path = tmp_path / "c.json"
        save_v3(path, make_campaign([0]))
        doc = json.loads(path.read_text())
        assert int(doc["crc32"], 16) == checkpoint_io.payload_crc(doc)
        # The checksum field itself is excluded from the covered bytes.
        assert b"crc32" not in checkpoint_io.canonical_payload_bytes(doc)

    def test_any_byte_flip_is_detected(self, tmp_path):
        path = tmp_path / "c.json"
        save_v3(path, make_campaign([0, 1, 2]))
        raw = bytearray(path.read_bytes())
        # Change one digit of a count: the file stays perfectly valid
        # JSON (a structural parse would accept the silently-wrong
        # number), but the CRC self-check must refuse it.
        marker = b'"candidates_examined": '
        idx = raw.index(marker) + len(marker)
        raw[idx] = ord("9") if raw[idx] != ord("9") else ord("8")
        path.write_bytes(bytes(raw))
        assert not checkpoint_io.verify_file(str(path))
        with pytest.raises(CheckpointCorrupt, match="CRC-32 self-check"):
            checkpoint_io.load(str(path), CFG, CHUNK)

    def test_truncated_file_is_corrupt(self, tmp_path):
        path = tmp_path / "c.json"
        save_v3(path, make_campaign([0]))  # no .prev to fall back on
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])  # torn write
        with pytest.raises(CheckpointCorrupt):
            checkpoint_io.load(str(path), CFG, CHUNK)

    def test_missing_checkpoint_has_actionable_error(self, tmp_path):
        with pytest.raises(CheckpointMissing, match="no checkpoint found"):
            checkpoint_io.load(str(tmp_path / "never.json"), CFG, CHUNK)


class TestGenerations:
    def test_save_rotates_previous_generation(self, tmp_path):
        path = tmp_path / "c.json"
        save(path, make_campaign([0]))
        assert not os.path.exists(previous_path(str(path)))
        save(path, make_campaign([0, 1]))
        prev = checkpoint_io.load(previous_path(str(path)), CFG, CHUNK)
        assert prev.campaign.chunks_done == {0}

    def test_corrupt_current_falls_back_to_previous(self, tmp_path):
        path = tmp_path / "c.json"
        save(path, make_campaign([0]))
        save(path, make_campaign([0, 1]))
        corrupt_file(str(path), seed=7)
        loaded = checkpoint_io.load(str(path), CFG, CHUNK)
        assert loaded.fell_back
        assert loaded.source == previous_path(str(path))
        assert loaded.corrupt_error is not None
        assert loaded.campaign.chunks_done == {0}

    def test_missing_current_falls_back_to_previous(self, tmp_path):
        path = tmp_path / "c.json"
        save(path, make_campaign([0]))
        save(path, make_campaign([0, 1]))
        os.unlink(path)
        loaded = checkpoint_io.load(str(path), CFG, CHUNK)
        assert loaded.fell_back and loaded.campaign.chunks_done == {0}

    def test_both_generations_corrupt_raises(self, tmp_path):
        path = tmp_path / "c.json"
        save(path, make_campaign([0]))
        save(path, make_campaign([0, 1]))
        corrupt_file(str(path), seed=1)
        corrupt_file(previous_path(str(path)), seed=2)
        with pytest.raises(CheckpointCorrupt, match="both"):
            checkpoint_io.load(str(path), CFG, CHUNK)

    def test_corrupt_current_is_not_promoted(self, tmp_path):
        """Saving over silent bit rot must not rotate the rotten bytes
        into .prev -- that would poison the only fallback."""
        path = tmp_path / "c.json"
        save(path, make_campaign([0]))
        corrupt_file(str(path), seed=3)
        save(path, make_campaign([0, 1]))
        assert not os.path.exists(previous_path(str(path)))
        loaded = checkpoint_io.load(str(path), CFG, CHUNK)
        assert loaded.campaign.chunks_done == {0, 1}

    def test_mismatch_never_triggers_fallback(self, tmp_path):
        """A well-formed foreign checkpoint raises CheckpointMismatch
        even when a previous generation exists: the .prev of a foreign
        campaign is just as foreign."""
        path = tmp_path / "c.json"
        save(path, make_campaign([0]))
        save(path, make_campaign([0, 1]))
        other = SearchConfig(width=8, target_hd=4, filter_lengths=(8, 20),
                             confirm_weights=False)
        with pytest.raises(CheckpointMismatch):
            checkpoint_io.load(str(path), other, CHUNK)


class TestLegacyFormats:
    def test_format_1_bare_record_loads(self, tmp_path):
        campaign = make_campaign([0])
        path = tmp_path / "legacy1.json"
        path.write_text(campaign.to_json())
        loaded = checkpoint_io.load(str(path), CFG, CHUNK)
        assert loaded.format_version == 1
        assert loaded.quarantined == set()
        assert loaded.campaign.chunks_done == {0}

    def test_format_2_envelope_loads(self, tmp_path):
        campaign = make_campaign([0, 2])
        doc = {
            "format": checkpoint_io.FORMAT_2,
            "config": {
                "width": CFG.width, "target_hd": CFG.target_hd,
                "final_length": CFG.final_length, "chunk_size": CHUNK,
            },
            "campaign": campaign.to_json_dict(),
        }
        path = tmp_path / "legacy2.json"
        path.write_text(json.dumps(doc))
        loaded = checkpoint_io.load(str(path), CFG, CHUNK)
        assert loaded.format_version == 2
        assert loaded.campaign.chunks_done == {0, 2}


# -- rotation by byte identity -------------------------------------------

LEGACY_V3 = os.path.join(
    os.path.dirname(__file__), "data", "checkpoint_v3_indent1.json"
)


@pytest.fixture
def verify_calls(monkeypatch):
    """Record every path the full CRC check is run on during rotation."""
    calls = []
    real = checkpoint_io.verify_file

    def spy(path):
        calls.append(path)
        return real(path)

    monkeypatch.setattr(checkpoint_io, "verify_file", spy)
    return calls


class TestRotationSafety:
    def test_own_publication_rotates_without_full_check(
        self, tmp_path, verify_calls
    ):
        path = tmp_path / "c.json"
        save(path, make_campaign([0]))
        save(path, make_campaign([0, 1]))
        assert verify_calls == []
        prev = checkpoint_io.load(previous_path(str(path)), CFG, CHUNK)
        assert prev.campaign.chunks_done == {0}

    def test_corrupted_generation_never_reaches_prev(
        self, tmp_path, verify_calls
    ):
        path = tmp_path / "c.json"
        save(path, make_campaign([0]))
        save(path, make_campaign([0, 1]))
        corrupt_file(str(path), seed=11)
        save(path, make_campaign([0, 1, 2]))
        # The rotten live file took the full check, failed it, and was
        # dropped: .prev still holds the last good generation.
        assert verify_calls == [str(path)]
        assert checkpoint_io.verify_file(previous_path(str(path)))
        prev = checkpoint_io.load(previous_path(str(path)), CFG, CHUNK)
        assert prev.campaign.chunks_done == {0}
        corrupt_file(str(path), seed=12)
        loaded = checkpoint_io.load(str(path), CFG, CHUNK)
        assert loaded.fell_back
        assert loaded.campaign.chunks_done == {0}

    def test_file_copied_in_takes_full_check(self, tmp_path, verify_calls):
        source = tmp_path / "elsewhere.json"
        save(source, make_campaign([0]))
        path = tmp_path / "c.json"
        path.write_bytes(source.read_bytes())
        save(path, make_campaign([0, 1]))
        assert verify_calls == [str(path)]
        prev = checkpoint_io.load(previous_path(str(path)), CFG, CHUNK)
        assert prev.campaign.chunks_done == {0}

    def test_file_from_an_earlier_run_takes_full_check(
        self, tmp_path, verify_calls, monkeypatch
    ):
        path = tmp_path / "c.json"
        save(path, make_campaign([0]))
        # A new process has no digest for the file it finds.
        monkeypatch.setattr(checkpoint_io, "_published", {})
        save(path, make_campaign([0, 1]))
        assert verify_calls == [str(path)]
        assert checkpoint_io.verify_file(previous_path(str(path)))

    def test_corrupt_foreign_file_is_not_promoted(self, tmp_path):
        source = tmp_path / "elsewhere.json"
        save(source, make_campaign([0]))
        corrupt_file(str(source), seed=5)
        path = tmp_path / "c.json"
        path.write_bytes(source.read_bytes())
        save(path, make_campaign([0, 1]))
        assert not os.path.exists(previous_path(str(path)))

    def test_written_file_uses_key_colon_space_layout(self, tmp_path):
        """The format-3 writer's single-line layout still reads."""
        path = tmp_path / "c.json"
        save_v3(path, make_campaign([0]))
        raw = path.read_bytes()
        assert b'"candidates_examined": ' in raw
        assert b"\n" not in raw
        loaded = checkpoint_io.load(str(path), CFG, CHUNK)
        assert loaded.format_version == 3
        assert loaded.campaign.to_json() == make_campaign([0]).to_json()


class TestOlderLayouts:
    def test_indent1_format3_from_the_previous_writer_loads(self):
        loaded = checkpoint_io.load(LEGACY_V3, CFG, CHUNK)
        assert loaded.format_version == 3 and not loaded.fell_back
        assert loaded.quarantined == {3}
        assert loaded.campaign.to_json() == make_campaign([0, 1]).to_json()

    def test_indent1_file_is_promoted_after_full_check(
        self, tmp_path, verify_calls
    ):
        path = tmp_path / "c.json"
        with open(LEGACY_V3, "rb") as f:
            path.write_bytes(f.read())
        save(path, make_campaign([0, 1, 2]))
        assert verify_calls == [str(path)]
        prev = checkpoint_io.load(previous_path(str(path)), CFG, CHUNK)
        assert prev.campaign.chunks_done == {0, 1}

    def test_whitespace_is_not_part_of_the_format(self, tmp_path):
        path = tmp_path / "c.json"
        save_v3(path, make_campaign([0, 1]), quarantined=[2])
        doc = json.loads(path.read_text())
        for layout in ({"indent": 1}, {"indent": 4}, {"separators": (",", ":")}):
            path.write_text(json.dumps(doc, **layout))
            loaded = checkpoint_io.load(str(path), CFG, CHUNK)
            assert loaded.format_version == 3
            assert loaded.campaign.chunks_done == {0, 1}


# -- property: any record survives save / verify / load ------------------

small = st.integers(min_value=0, max_value=1 << 16)

poly_records = st.builds(
    PolyRecord,
    poly=st.integers(min_value=1, max_value=(1 << 7) - 1),
    width=st.just(CFG.width),
    data_word_bits=st.just(CFG.final_length),
    hd=st.integers(min_value=2, max_value=8),
    survived=st.booleans(),
    filtered_at_bits=st.none() | small,
    # Empty witness / weights read back as None, so "set" means non-empty.
    witness=st.none() | st.lists(small, min_size=1, max_size=6).map(tuple),
    weights=st.none() | st.dictionaries(
        st.integers(min_value=2, max_value=8), small, min_size=1, max_size=4
    ),
)


@st.composite
def campaigns(draw):
    campaign = CampaignRecord(
        width=CFG.width, data_word_bits=CFG.final_length,
        target_hd=CFG.target_hd,
    )
    for rec in draw(st.lists(poly_records, max_size=12)):
        campaign.results[rec.poly] = rec
    campaign.chunks_done = draw(st.sets(st.integers(0, 63), max_size=10))
    campaign.candidates_examined = draw(small)
    return campaign


@settings(max_examples=40, deadline=None)
@given(
    first=campaigns(),
    second=campaigns(),
    quarantined=st.sets(st.integers(0, 63), max_size=6),
)
def test_saved_checkpoints_verify_and_load_equal(first, second, quarantined):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        checkpoint_io.save(path, first, CFG, CHUNK, quarantined)
        checkpoint_io.save(path, second, CFG, CHUNK, ())
        for where, want, quarantine in (
            (path, second, set()),
            (previous_path(path), first, quarantined),
        ):
            assert checkpoint_io.verify_file(where)
            loaded = checkpoint_io.load(where, CFG, CHUNK)
            assert loaded.campaign == want
            assert loaded.quarantined == quarantine
            with open(where, "rb") as f:
                doc = json.loads(f.read())
            payload = checkpoint_io.canonical_payload_bytes(doc)
            assert int(doc["crc32"], 16) == checkpoint_io.payload_crc(payload)
            assert checkpoint_io.payload_crc(payload) == checkpoint_io.payload_crc(doc)
