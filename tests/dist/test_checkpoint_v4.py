"""Format-4 checkpoints: a small CRC-checked manifest at the path, the
records in an append-only CRC-32C-framed log beside it.

A save costs what changed: it encodes only the records merged since
this writer's last save, appends one frame and republishes a manifest
of constant size.  Those are counted here, not timed.  Loads replay
the covered frames; a torn tail is ignored, rot in a covered frame
ends the replay at the last intact one, and a property test draws
crashes and rot at random against both rules.
"""

from __future__ import annotations

import json
import os
import shutil
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dist import checkpoint as checkpoint_io
from repro.dist.checkpoint import (
    CheckpointCorrupt,
    CheckpointMissing,
    previous_path,
)
from repro.dist.net import WorkServer
from repro.dist.transport import LoopbackTransport
from repro.search.exhaustive import SearchConfig
from repro.search.records import CampaignRecord, PolyRecord

from tests.dist.conftest import (
    CFG as CAMPAIGN_CFG,
    CHUNK_SIZE as CAMPAIGN_CHUNK,
    CHUNKS,
    EXECUTORS,
    Recorder,
    record_of,
)

CFG = SearchConfig.for_bits(13, 4, 300)
CHUNK = 8
#: Records per synthetic chunk.
PER_CHUNK = 4

LEGACY_V3 = os.path.join(
    os.path.dirname(__file__), "data", "checkpoint_v3_indent1.json"
)
LEGACY_CFG = SearchConfig(width=6, target_hd=4, filter_lengths=(8, 20),
                          confirm_weights=False)


def chunk_records(chunk_id: int) -> list[PolyRecord]:
    """A deterministic stand-in for one chunk's verdicts: distinct
    polynomials per chunk, survivors and kills alike."""
    out = []
    for k in range(PER_CHUNK):
        poly = (1 << CFG.width) | ((chunk_id * PER_CHUNK + k) << 1) | 1
        survived = k == 0
        out.append(PolyRecord(
            poly=poly, width=CFG.width, data_word_bits=CFG.final_length,
            hd=4 if survived else 3, survived=survived,
            filtered_at_bits=None if survived else 37,
            witness=None if survived else (0, k + 1, 13),
            weights={4: chunk_id + 1} if survived else None,
        ))
    return out


def empty() -> CampaignRecord:
    return CampaignRecord(width=CFG.width, data_word_bits=CFG.final_length,
                          target_hd=CFG.target_hd)


def merge(record: CampaignRecord, chunk_ids) -> list[int]:
    """Merge synthetic chunks; the polynomials newly merged."""
    merged = []
    for chunk_id in chunk_ids:
        recs = chunk_records(chunk_id)
        if record.merge_chunk(chunk_id, recs, len(recs) + 1):
            merged += [r.poly for r in recs]
    return merged


def save(path, record, quarantined=()):
    return checkpoint_io.save(str(path), record, CFG, CHUNK, quarantined)


def load(path):
    return checkpoint_io.load(str(path), CFG, CHUNK)


def manifest(path) -> dict:
    with open(path, "rb") as f:
        return json.loads(f.read())


def log_path(path) -> str:
    return os.path.join(os.path.dirname(str(path)), manifest(path)["log"])


def logs(directory, base="c.json") -> list[str]:
    return sorted(
        n for n in os.listdir(directory)
        if n.startswith(base + ".") and n.endswith(".log")
    )


def frames_of(path) -> list[tuple[int, dict]]:
    """Decode the log a manifest names: each frame's offset and
    payload, checking the framing."""
    with open(log_path(path), "rb") as f:
        data = f.read()
    head = checkpoint_io._HEAD
    out, offset = [], 0
    while offset < len(data):
        magic, size, _ = head.unpack_from(data, offset)
        assert magic == checkpoint_io.FRAME_MAGIC
        end = offset + head.size + size
        (crc,) = checkpoint_io._TAIL.unpack_from(data, end)
        assert checkpoint_io.payload_crc(data[offset:end]) == crc
        out.append((offset, json.loads(data[offset + head.size:end])))
        offset = end + checkpoint_io._TAIL.size
    assert offset == len(data)
    return out


def flip(path, offset: int, change=lambda b: b ^ 0xFF) -> None:
    with open(path, "r+b") as f:
        f.seek(offset)
        byte = f.read(1)
        f.seek(offset)
        f.write(bytes([change(byte[0])]))


@pytest.fixture
def encoded(monkeypatch):
    """The polynomial of every PolyRecord JSON-encoded, in order."""
    seen: list[int] = []
    real = PolyRecord.to_json_dict

    def spy(self):
        seen.append(self.poly)
        return real(self)

    monkeypatch.setattr(PolyRecord, "to_json_dict", spy)
    return seen


# -- the O(delta) gate: counted, not timed ---------------------------------


def test_each_save_costs_what_merged_since_the_last(tmp_path, encoded):
    path = tmp_path / "c.json"
    record = empty()
    manifest_sizes = []
    for batch in range(64):
        merged = merge(record, range(batch * 8, batch * 8 + 8))
        encoded.clear()
        stats = save(path, record, quarantined=[3, 5])
        if batch == 0:
            assert stats.mode == "compact"
            assert sorted(encoded) == sorted(merged)
        else:
            assert stats.mode == "append"
            assert encoded == merged
        doc = manifest(path)
        manifest_sizes.append(os.path.getsize(path))
        assert int(doc["frames"], 16) == batch + 1
        assert os.path.getsize(log_path(path)) == int(doc["log_bytes"], 16)
        encoded.clear()
        assert load(path).campaign.to_json() == record.to_json()
    assert len(set(manifest_sizes)) == 1
    assert logs(tmp_path) == [manifest(path)["log"]]
    frames = frames_of(path)
    # One frame per save, each holding exactly its batch.
    assert len(frames) == 64
    for batch, (_, frame) in enumerate(frames):
        assert sorted(frame["chunks_done"]) == list(
            range(batch * 8, batch * 8 + 8)
        )
        assert frame["candidates_examined"] == 8 * (PER_CHUNK + 1)
        assert len(frame["results"]) == 8 * PER_CHUNK


def test_compaction_encodes_the_record_once(tmp_path, encoded):
    record = empty()
    merge(record, range(10))
    encoded.clear()
    assert save(tmp_path / "c.json", record).mode == "compact"
    assert sorted(encoded) == sorted(record.results)


# -- format-4 twins of the format-3 writer tests ---------------------------


class TestManifest:
    def test_round_trips_with_crc(self, tmp_path):
        path = tmp_path / "c.json"
        record = empty()
        merge(record, [0, 1])
        save(path, record, quarantined=[3])
        loaded = load(path)
        assert loaded.format_version == 4
        assert not loaded.fell_back and loaded.corrupt_error is None
        assert loaded.source == str(path)
        assert loaded.quarantined == {3}
        assert loaded.campaign.to_json() == record.to_json()

    def test_crc_covers_canonical_payload(self, tmp_path):
        path = tmp_path / "c.json"
        save(path, empty())
        doc = manifest(path)
        assert int(doc["crc32"], 16) == checkpoint_io.payload_crc(doc)
        assert b"crc32" not in checkpoint_io.canonical_payload_bytes(doc)
        # The manifest holds no records: those are in the log.
        assert set(doc) == {
            "format", "config", "quarantined", "log", "log_bytes", "frames",
            "chain", "crc32",
        }

    def test_written_file_uses_key_colon_space_layout(self, tmp_path):
        path = tmp_path / "c.json"
        save(path, empty())
        raw = path.read_bytes()
        assert b'"log_bytes": ' in raw
        assert b"\n" not in raw

    def test_whitespace_is_not_part_of_the_format(self, tmp_path):
        path = tmp_path / "c.json"
        record = empty()
        merge(record, [0, 1])
        save(path, record, quarantined=[2])
        doc = manifest(path)
        for layout in ({"indent": 1}, {"indent": 4}, {"separators": (",", ":")}):
            path.write_text(json.dumps(doc, **layout))
            loaded = load(path)
            assert loaded.format_version == 4
            assert loaded.campaign.to_json() == record.to_json()

    def test_any_byte_flip_is_detected(self, tmp_path):
        path = tmp_path / "c.json"
        save(path, empty())
        raw = bytearray(path.read_bytes())
        # Still valid JSON, but a covered length that lies.
        marker = b'"log_bytes": "0x'
        idx = raw.index(marker) + len(marker)
        raw[idx] = ord("1") if raw[idx] != ord("1") else ord("2")
        path.write_bytes(bytes(raw))
        assert not checkpoint_io.verify_file(str(path))
        with pytest.raises(CheckpointCorrupt, match="CRC-32 self-check"):
            load(path)

    def test_truncated_manifest_is_corrupt(self, tmp_path):
        path = tmp_path / "c.json"
        save(path, empty())
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(CheckpointCorrupt):
            load(path)

    def test_manifest_without_its_log_is_not_promoted(self, tmp_path):
        path = tmp_path / "c.json"
        save(path, empty())
        os.unlink(log_path(path))
        assert not checkpoint_io.verify_file(str(path))


# -- append or compact -----------------------------------------------------


class TestAppendOrCompact:
    def test_same_record_appends(self, tmp_path):
        path = tmp_path / "c.json"
        record = empty()
        merge(record, [0])
        assert save(path, record).mode == "compact"
        merge(record, [1])
        first_log = manifest(path)["log"]
        assert save(path, record).mode == "append"
        assert manifest(path)["log"] == first_log
        # Nothing merged since: still one (empty) frame per save.
        assert save(path, record).mode == "append"
        assert int(manifest(path)["frames"], 16) == 3
        assert load(path).campaign.to_json() == record.to_json()

    def test_another_record_compacts(self, tmp_path):
        path = tmp_path / "c.json"
        record = empty()
        merge(record, [0])
        save(path, record)
        other = empty()
        merge(other, [0, 1])
        assert save(path, other).mode == "compact"
        assert load(path).campaign.to_json() == other.to_json()
        assert load(previous_path(str(path))).campaign.to_json() == \
            record.to_json()

    def test_new_process_compacts(self, tmp_path, monkeypatch):
        path = tmp_path / "c.json"
        record = empty()
        merge(record, [0])
        save(path, record)
        monkeypatch.setattr(checkpoint_io, "_published", {})
        merge(record, [1])
        assert save(path, record).mode == "compact"
        assert load(path).campaign.to_json() == record.to_json()

    def test_rotten_manifest_compacts(self, tmp_path):
        path = tmp_path / "c.json"
        record = empty()
        merge(record, [0])
        save(path, record)
        flip(path, 5)
        merge(record, [1])
        assert save(path, record).mode == "compact"
        assert load(path).campaign.to_json() == record.to_json()

    def test_change_behind_merge_chunk_compacts(self, tmp_path):
        path = tmp_path / "c.json"
        record = empty()
        merge(record, [0])
        save(path, record)
        record.chunks_done.add(9)
        assert save(path, record).mode == "compact"
        assert load(path).campaign.chunks_done == {0, 9}

    def test_log_that_lost_covered_bytes_compacts(self, tmp_path):
        path = tmp_path / "c.json"
        record = empty()
        merge(record, [0, 1])
        save(path, record)
        with open(log_path(path), "r+b") as f:
            f.truncate(10)
        merge(record, [2])
        assert save(path, record).mode == "compact"
        assert load(path).campaign.to_json() == record.to_json()

    def test_own_manifest_rotates_without_full_check(
        self, tmp_path, monkeypatch
    ):
        calls = []
        real = checkpoint_io.verify_file
        monkeypatch.setattr(
            checkpoint_io, "verify_file",
            lambda p: calls.append(p) or real(p),
        )
        path = tmp_path / "c.json"
        record = empty()
        merge(record, [0])
        save(path, record)
        merge(record, [1])
        save(path, record)
        assert calls == []
        prev = load(previous_path(str(path)))
        assert prev.campaign.chunks_done == {0}


# -- torn tails, rot, missing logs -----------------------------------------


def three_frames(path) -> CampaignRecord:
    record = empty()
    for chunks in ([0, 1], [2, 3], [4, 5]):
        merge(record, chunks)
        save(path, record)
    return record


def frame_starts(path) -> list[int]:
    return [offset for offset, _ in frames_of(path)]


class TestDamage:
    def test_torn_tail_is_ignored_then_cut_off(self, tmp_path):
        path = tmp_path / "c.json"
        record = three_frames(path)
        covered = os.path.getsize(log_path(path))
        with open(log_path(path), "ab") as f:
            f.write(b"RCF4 half of a frame that never got its manifest")
        loaded = load(path)
        assert loaded.corrupt_error is None
        assert loaded.campaign.to_json() == record.to_json()
        merge(record, [6])
        assert save(path, record).mode == "append"
        assert int(manifest(path)["log_bytes"], 16) == os.path.getsize(
            log_path(path)
        ) > covered
        assert len(frames_of(path)) == 4
        assert load(path).campaign.to_json() == record.to_json()

    @pytest.mark.parametrize("at", [0, 1, 2])
    def test_rot_ends_the_replay_at_the_last_intact_frame(self, tmp_path, at):
        path = tmp_path / "c.json"
        three_frames(path)
        flip(log_path(path), frame_starts(path)[at] + 20)
        loaded = load(path)
        assert not loaded.fell_back
        assert f"frame {at + 1} of 3" in loaded.corrupt_error
        assert loaded.campaign.chunks_done == set(range(2 * at))
        want = empty()
        merge(want, range(2 * at))
        assert loaded.campaign == want

    def test_log_cut_inside_a_frame(self, tmp_path):
        path = tmp_path / "c.json"
        three_frames(path)
        with open(log_path(path), "r+b") as f:
            f.truncate(frame_starts(path)[2] + 7)
        loaded = load(path)
        assert "frame 3 of 3 is cut short" in loaded.corrupt_error
        assert loaded.campaign.chunks_done == {0, 1, 2, 3}

    def test_missing_log_keeps_the_quarantine(self, tmp_path):
        path = tmp_path / "c.json"
        record = empty()
        merge(record, [0])
        save(path, record, quarantined=[7])
        os.unlink(log_path(path))
        loaded = load(path)
        assert loaded.corrupt_error is not None
        assert loaded.campaign.chunks_done == set()
        assert loaded.quarantined == {7}

    def test_frame_from_another_log_breaks_the_chain(self, tmp_path):
        """Each frame links to its predecessor, the first to its log's
        name: an intact frame copied from another log is refused."""
        a, b = tmp_path / "a" / "c.json", tmp_path / "b" / "c.json"
        a.parent.mkdir()
        b.parent.mkdir()
        three_frames(a)
        three_frames(b)
        shutil.copyfile(log_path(b), log_path(a))
        loaded = load(a)
        assert "frame 1 of 3 fails its CRC-32C chain" in loaded.corrupt_error
        assert loaded.campaign.chunks_done == set()


@pytest.fixture(params=EXECUTORS, ids=lambda make: make.__name__)
def make(request):
    return request.param


def test_resume_after_log_rot_recomputes_the_rest(tmp_path, make, reference):
    path = str(tmp_path / "rot.ckpt")
    record = record_of(range(4))
    checkpoint_io.save(path, record, CAMPAIGN_CFG, CAMPAIGN_CHUNK)
    for chunk_id in range(4, 8):
        one = record_of({chunk_id})
        record.merge_chunk(
            chunk_id, list(one.results.values()), one.candidates_examined
        )
    assert checkpoint_io.save(
        path, record, CAMPAIGN_CFG, CAMPAIGN_CHUNK
    ).mode == "append"
    flip(log_path(path), frame_starts(path)[1] + 30)
    events = Recorder()
    coord, run = make(path, events)
    assert coord.resume() == 4
    (corrupt,) = events.fields("checkpoint.corrupt")
    assert corrupt["fallback"] == path and "frame 2 of 2" in corrupt["error"]
    run()
    assert coord.stats.completions == CHUNKS - 4
    assert coord.campaign.to_json() == reference
    assert checkpoint_io.load(
        path, CAMPAIGN_CFG, CAMPAIGN_CHUNK
    ).campaign.to_json() == reference


# -- log collection and the format-3 upgrade -------------------------------


def test_logs_no_manifest_names_are_deleted(tmp_path):
    path = tmp_path / "c.json"
    (tmp_path / "other.json.0123456789abcdef.log").write_bytes(b"not ours")
    first = empty()
    merge(first, [0])
    save(path, first)
    second = empty()
    merge(second, [0, 1])
    save(path, second)
    # Live and .prev name one log each.
    assert len(logs(tmp_path)) == 2
    third = empty()
    merge(third, [0, 1, 2])
    save(path, third)
    assert len(logs(tmp_path)) == 2
    merge(third, [3])
    save(path, third)  # .prev now names the live log too
    assert logs(tmp_path) == [manifest(path)["log"]]
    assert manifest(previous_path(str(path)))["log"] == manifest(path)["log"]
    assert (tmp_path / "other.json.0123456789abcdef.log").exists()


def test_format3_file_upgrades_on_its_first_save(tmp_path):
    path = str(tmp_path / "c.json")
    shutil.copyfile(LEGACY_V3, path)
    loaded = checkpoint_io.load(path, LEGACY_CFG, CHUNK)
    assert loaded.format_version == 3
    record = loaded.campaign
    stats = checkpoint_io.save(path, record, LEGACY_CFG, CHUNK,
                               loaded.quarantined)
    assert stats.mode == "compact"
    now = checkpoint_io.load(path, LEGACY_CFG, CHUNK)
    assert now.format_version == 4
    assert now.campaign.to_json() == record.to_json()
    assert now.quarantined == {3}
    prev = checkpoint_io.load(previous_path(path), LEGACY_CFG, CHUNK)
    assert prev.format_version == 3
    assert prev.campaign.to_json() == record.to_json()


def test_checkpoint_write_event_carries_mode_and_bytes(tmp_path):
    events = Recorder()
    coord = WorkServer(CFG, CHUNK, LoopbackTransport(), events=events)
    path = str(tmp_path / "c.json")
    coord.save_checkpoint(path)
    merge(coord.campaign, [0, 1])
    coord.save_checkpoint(path)
    first, second = events.fields("checkpoint.write")
    assert (first["mode"], second["mode"]) == ("compact", "append")
    with open(log_path(path), "rb") as f:
        log_size = len(f.read())
    assert first["bytes"] + second["bytes"] == log_size + os.path.getsize(
        path
    ) + os.path.getsize(previous_path(path))


# -- property: crashes and rot never cost the campaign ---------------------

steps = st.lists(
    st.one_of(
        st.tuples(st.just("merge"), st.integers(0, 11)),
        st.tuples(st.just("duplicate"), st.integers(0, 11)),
        st.tuples(st.just("save"), st.just(0)),
        st.tuples(st.just("new_process"), st.just(0)),
        st.tuples(st.just("cut_log"), st.integers(0, 10**6)),
        st.tuples(st.just("flip_manifest"), st.integers(0, 10**6)),
        st.tuples(st.just("flip_log"), st.integers(0, 10**6)),
    ),
    max_size=24,
)


def _check_subset(loaded, saved: CampaignRecord, record: CampaignRecord):
    """A record recovered from damage: part of the last save, every
    verdict the in-memory one, no chunk merged twice."""
    assert loaded.corrupt_error is not None
    got = loaded.campaign
    assert got.chunks_done <= saved.chunks_done
    want = empty()
    merge(want, sorted(got.chunks_done))
    assert got == want
    for poly, rec in got.results.items():
        assert record.results[poly] == rec


@settings(max_examples=80, deadline=None)
@given(steps=steps)
def test_crash_and_rot_never_cost_the_campaign(steps):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.json")
        key = os.path.abspath(path)
        record = empty()
        saved: CampaignRecord | None = None
        live_intact = True   # the live manifest is as published
        log_damaged = False  # the live manifest's log was cut or flipped
        appendable = False   # the next save may append
        for op, arg in steps:
            if op == "merge":
                merge(record, [arg])
            elif op == "duplicate" and record.chunks_done:
                done = sorted(record.chunks_done)
                assert merge(record, [done[arg % len(done)]]) == []
            elif op == "save":
                stats = save(path, record)
                if appendable:
                    assert stats.mode == "append"
                if stats.mode == "compact":
                    log_damaged = False
                saved = CampaignRecord.from_json(record.to_json())
                live_intact = appendable = True
            elif op == "new_process":
                checkpoint_io._published.pop(key, None)
                appendable = False
            elif saved is not None and live_intact:
                if op == "flip_manifest":
                    flip(path, arg % os.path.getsize(path))
                    live_intact = appendable = False
                    continue
                log = log_path(path)
                size = os.path.getsize(log)
                if op == "cut_log" and size:
                    with open(log, "r+b") as f:
                        f.truncate(arg % size)
                    log_damaged = True
                    appendable = False
                elif op == "flip_log" and size:
                    # +1, not an XOR: two flips of one byte stay damage.
                    flip(log, arg % size, lambda b: (b + 1) % 256)
                    log_damaged = True

            if saved is None:
                with pytest.raises(CheckpointMissing):
                    load(path)
                continue
            if not live_intact:
                try:
                    loaded = load(path)
                except CheckpointCorrupt:
                    # Only when no intact manifest is left.
                    assert not os.path.exists(previous_path(path))
                    continue
                assert loaded.fell_back
                _check_subset(loaded, saved, record)
            elif log_damaged:
                loaded = load(path)
                assert not loaded.fell_back
                _check_subset(loaded, saved, record)
            else:
                loaded = load(path)
                assert loaded.corrupt_error is None
                assert loaded.campaign == saved
                assert loaded.campaign.to_json() == saved.to_json()
