"""Checkpoint-compatibility guarding (the confirmed seed bug: a
width-8/chunk-8 checkpoint loaded cleanly into a width-9/chunk-64
coordinator with 0 chunks skipped and no error)."""

from __future__ import annotations

import json

import pytest

from repro.dist import checkpoint as checkpoint_io
from repro.dist.checkpoint import CheckpointMismatch
from repro.dist.net import WorkServer
from repro.dist.transport import LoopbackTransport
from repro.search.exhaustive import SearchConfig

from tests.dist.conftest import write_format3

CFG = SearchConfig(width=8, target_hd=4, filter_lengths=(16, 40),
                   confirm_weights=False)


def unserved(config, chunk_size):
    """An unserved coordinator: the campaign engine with no workers."""
    return WorkServer(config, chunk_size, LoopbackTransport())


def write_checkpoint(tmp_path, config=CFG, chunk_size=8):
    coord = unserved(config=config, chunk_size=chunk_size)
    path = str(tmp_path / "campaign.json")
    coord.save_checkpoint(path)
    return path


def test_same_campaign_round_trips(tmp_path):
    path = write_checkpoint(tmp_path)
    coord = unserved(config=CFG, chunk_size=8)
    assert coord.resume(path) == 0  # nothing done yet, no error


def test_identity_recorded_in_envelope(tmp_path):
    """A format-3 envelope, as its writer laid it out, still pins the
    identity the resume checks."""
    coord = unserved(config=CFG, chunk_size=8)
    path = str(tmp_path / "campaign.json")
    write_format3(path, coord.campaign, CFG, 8)
    d = json.loads(open(path).read())
    assert d["format"] == checkpoint_io.FORMAT_3
    assert d["config"] == {
        "width": 8, "target_hd": 4, "final_length": 40, "chunk_size": 8,
    }
    assert unserved(config=CFG, chunk_size=8).resume(path) == 0
    with pytest.raises(CheckpointMismatch, match="chunk_size"):
        unserved(config=CFG, chunk_size=64).resume(path)


def test_identity_recorded_in_manifest(tmp_path):
    path = write_checkpoint(tmp_path)
    d = json.loads(open(path).read())
    assert d["format"] == checkpoint_io.FORMAT
    assert d["config"] == {
        "width": 8, "target_hd": 4, "final_length": 40, "chunk_size": 8,
    }
    # The records live in the log the manifest names, beside it.
    assert (tmp_path / d["log"]).is_file()


@pytest.mark.parametrize(
    "other,label",
    [
        (dict(width=9), "width"),
        (dict(target_hd=5), "target_hd"),
        (dict(filter_lengths=(16, 48)), "final_length"),
    ],
)
def test_config_mismatch_raises(tmp_path, other, label):
    path = write_checkpoint(tmp_path)
    params = dict(width=8, target_hd=4, filter_lengths=(16, 40),
                  confirm_weights=False)
    params.update(other)
    coord = unserved(config=SearchConfig(**params), chunk_size=8)
    with pytest.raises(CheckpointMismatch, match=label):
        coord.resume(path)


def test_chunk_size_mismatch_raises(tmp_path):
    path = write_checkpoint(tmp_path, chunk_size=8)
    coord = unserved(config=CFG, chunk_size=64)
    with pytest.raises(CheckpointMismatch, match="chunk_size"):
        coord.resume(path)


def test_seed_bug_scenario_now_raises(tmp_path):
    """The exact confirmed bug: width-8/chunk-8 checkpoint into a
    width-9/chunk-64 coordinator used to 'succeed' with 0 skipped."""
    path = write_checkpoint(tmp_path, config=CFG, chunk_size=8)
    other = SearchConfig(width=9, target_hd=4, filter_lengths=(16, 40),
                         confirm_weights=False)
    coord = unserved(config=other, chunk_size=64)
    with pytest.raises(CheckpointMismatch):
        coord.resume(path)


def test_legacy_bare_record_still_loads(tmp_path):
    """Format-1 files (bare CampaignRecord JSON) load when compatible
    and are refused when the record's own identity disagrees."""
    coord = unserved(config=CFG, chunk_size=8)
    path = str(tmp_path / "legacy.json")
    with open(path, "w") as f:
        f.write(coord.campaign.to_json())
    assert unserved(config=CFG, chunk_size=8).resume(path) == 0

    other = SearchConfig(width=9, target_hd=4, filter_lengths=(16, 40),
                         confirm_weights=False)
    with pytest.raises(CheckpointMismatch, match="width"):
        unserved(config=other, chunk_size=8).resume(path)


def test_out_of_partition_chunk_ids_raise(tmp_path):
    """Even a hand-edited envelope cannot smuggle chunk ids outside
    the current partition into the queue."""
    src = unserved(config=CFG, chunk_size=8)
    src.campaign.chunks_done.add(999)
    path = str(tmp_path / "edited.json")
    src.save_checkpoint(path)
    coord = unserved(config=CFG, chunk_size=8)
    with pytest.raises(CheckpointMismatch, match="999"):
        coord.resume(path)
