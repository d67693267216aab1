"""Campaign checkpoint format: compatibility-guarded and self-checksummed.

A checkpoint written months into a campaign is only useful if it can
never be silently merged into the *wrong* campaign, and never trusted
when the bytes on disk are not the bytes that were written.  The
format has grown accordingly:

* **Format 1** (seed): the bare
  :class:`~repro.search.records.CampaignRecord` JSON.  Still
  readable; the record's own ``width``/``target_hd``/
  ``data_word_bits`` are validated on load.
* **Format 2** (PR 1): an envelope pinning the search identity --
  ``width``, ``target_hd``, ``final_length`` and the partition
  ``chunk_size`` -- with :class:`CheckpointMismatch` raised on any
  deviation.  Still readable.
* **Format 3** (this module's writer): the format-2 envelope plus

  - a **CRC-32 self-checksum** over the canonical payload bytes,
    computed with the repository's own kernel registry -- the numpy
    log-fold ``wordwise`` kernel once the payload is large (eating our
    own cooking: the paper's subject matter guarding the campaign's
    own state).  A torn write, a flipped bit, or a truncated file fails
    verification and raises :class:`CheckpointCorrupt` instead of
    feeding garbage into a resume;
  - a ``quarantined`` list recording poison chunks whose retry budget
    was exhausted, so a resumed campaign does not re-run them;
  - **durable publication**: the temp file is fsynced before the
    atomic rename and the directory is fsynced after it, so a
    power-loss-shaped kill cannot publish a torn file;
  - a **rotated previous generation** (``<path>.prev``): each save
    first promotes the current (verified-good) file to ``.prev``,
    and :func:`load` falls back to it when the current generation is
    corrupt or missing.  "Verified" is cheap in the common case: a
    live file whose bytes hash to the digest of what this process last
    published there is exactly that checked publication; any other
    file (bit rot, a foreign or older writer) gets the full CRC check.

The file layout (whitespace, key order) is not part of the format:
only the canonical payload is checksummed, so files written with any
JSON layout -- including the older ``indent=1`` one -- load alike.

:func:`load` returns a :class:`LoadedCheckpoint` carrying the
campaign, the quarantine set, and whether the fallback generation had
to be used (the caller emits the ``checkpoint.corrupt`` event).  A
missing checkpoint (no current, no previous) raises
:class:`CheckpointMissing` with an actionable message instead of a
bare ``FileNotFoundError``.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.crc.backends import crc_compute
from repro.crc.catalog import CATALOG
from repro.search.exhaustive import SearchConfig
from repro.search.records import CampaignRecord

#: Format tag this module writes.
FORMAT = "repro-campaign-checkpoint/3"
#: The PR-1 envelope tag (still readable).
FORMAT_2 = "repro-campaign-checkpoint/2"

#: The self-checksum algorithm: CRC-32C (Castagnoli), the polynomial
#: the paper's lineage put into iSCSI for exactly this at-rest-data
#: integrity job, computed through the kernel registry's ``auto``
#: choice (the numpy ``wordwise`` kernel for all but tiny payloads).
CRC_SPEC = CATALOG["CRC-32C/Castagnoli"]


class CheckpointMismatch(ValueError):
    """The checkpoint belongs to a different campaign than the one
    trying to load it."""


class CheckpointCorrupt(ValueError):
    """The checkpoint's bytes are torn, truncated, or fail the CRC-32
    self-checksum -- the file cannot be trusted."""


class CheckpointMissing(FileNotFoundError):
    """No checkpoint exists at the given path (nor a rotated previous
    generation next to it)."""


def previous_path(path: str) -> str:
    """Where the rotated previous generation of ``path`` lives."""
    return path + ".prev"


# -- canonical bytes & CRC ---------------------------------------------


def canonical_payload_bytes(doc: dict[str, Any]) -> bytes:
    """The byte string the self-checksum covers: the document minus
    its ``crc32`` field, serialized canonically (sorted keys, no
    whitespace, UTF-8)."""
    body = {k: v for k, v in doc.items() if k != "crc32"}
    return json.dumps(
        body, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def payload_crc(doc: dict[str, Any] | bytes) -> int:
    """CRC-32C of :func:`canonical_payload_bytes` -- of ``doc``, or of
    ``doc`` itself when it already is those bytes."""
    if not isinstance(doc, bytes):
        doc = canonical_payload_bytes(doc)
    return crc_compute(CRC_SPEC, doc)


# -- save --------------------------------------------------------------


def _fsync_dir(directory: str) -> None:
    """Force the rename itself to stable storage (POSIX: directory
    entries are durable only once the directory is fsynced)."""
    try:
        fd = os.open(directory or ".", os.O_RDONLY)
    except OSError:
        return  # platform without directory fds; best effort
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def verify_file(path: str) -> bool:
    """True iff ``path`` holds a structurally sound checkpoint (any
    format; format 3 must also pass its CRC).  Decides whether a
    current generation this process did not just publish deserves
    promotion to ``.prev``."""
    try:
        _read_document(path)
    except (OSError, CheckpointCorrupt):
        return False
    return True


#: Digest of the bytes this process last published at each absolute
#: checkpoint path, for :func:`_promotable`.  Process-wide on purpose:
#: a stale or inherited entry can only match bytes some save wrote with
#: a correct CRC, so sharing it never lets a bad file through.
_published: dict[str, bytes] = {}


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=32).digest()


def _promotable(path: str) -> bool:
    """Whether the live file at ``path`` may be rotated to ``.prev``.

    Bytes that hash to what this process last published there are that
    publication, whose CRC was computed as it was written; any other
    file -- rotten, foreign, or left by an earlier run -- must pass
    the full :func:`verify_file`.  Promoting silent bit rot into
    ``.prev`` would poison the fallback.
    """
    try:
        with open(path, "rb") as f:
            digest = _digest(f.read())
    except OSError:
        return False
    return _published.get(os.path.abspath(path)) == digest or verify_file(path)


def save(
    path: str,
    campaign: CampaignRecord,
    config: SearchConfig,
    chunk_size: int,
    quarantined: Iterable[int] = (),
) -> None:
    """Durably persist the campaign record plus its identity.

    Write path: temp file -> flush -> fsync -> promote the existing
    (verified-good) current file to ``.prev`` -> atomic rename ->
    directory fsync.  At every instant there is at least one intact
    generation on disk.  The canonical payload is serialized once and
    checksummed once; both encoders run in C.
    """
    doc: dict[str, Any] = {
        "format": FORMAT,
        "config": {
            "width": config.width,
            "target_hd": config.target_hd,
            "final_length": config.final_length,
            "chunk_size": chunk_size,
        },
        "campaign": campaign.to_json_dict(),
        "quarantined": sorted(set(quarantined)),
    }
    doc["crc32"] = f"{payload_crc(canonical_payload_bytes(doc)):#010x}"
    # ": " keeps the familiar "key": value spacing; without indent the
    # C encoder does the work.
    data = json.dumps(doc, separators=(",", ": ")).encode("ascii")
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    if _promotable(path):
        os.replace(path, previous_path(path))
    os.replace(tmp, path)
    _published[os.path.abspath(path)] = _digest(data)
    _fsync_dir(os.path.dirname(os.path.abspath(path)))


# -- load --------------------------------------------------------------


@dataclass
class LoadedCheckpoint:
    """What :func:`load` hands back to the coordinator."""

    campaign: CampaignRecord
    quarantined: set[int] = field(default_factory=set)
    #: Path actually read (``path`` or ``path + ".prev"``).
    source: str = ""
    #: True when the current generation was corrupt/missing and the
    #: rotated previous generation was used instead.
    fell_back: bool = False
    #: Human-readable reason the current generation was rejected.
    corrupt_error: str | None = None
    #: 1, 2 or 3.
    format_version: int = 3


def _check(field_name: str, found: Any, expected: Any, path: str) -> None:
    if found != expected:
        raise CheckpointMismatch(
            f"checkpoint {path} is from a different campaign: "
            f"{field_name}={found!r} but this campaign has "
            f"{field_name}={expected!r}"
        )


def _read_document(path: str) -> dict[str, Any]:
    """Parse and (for format 3) CRC-verify one checkpoint file.
    Raises :class:`CheckpointCorrupt` on torn/garbled bytes and
    returns the parsed document otherwise."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        d = json.loads(raw.decode("utf-8"))
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckpointCorrupt(
            f"checkpoint {path} is not readable JSON (torn write or "
            f"corruption): {exc}"
        ) from None
    if not isinstance(d, dict):
        raise CheckpointCorrupt(f"checkpoint {path}: not a JSON object")
    if d.get("format") == FORMAT or "crc32" in d:
        stored = d.get("crc32")
        if not isinstance(stored, str):
            raise CheckpointCorrupt(
                f"checkpoint {path}: format-3 file missing its crc32 field"
            )
        try:
            stored_value = int(stored, 16)
        except ValueError:
            raise CheckpointCorrupt(
                f"checkpoint {path}: unparseable crc32 field {stored!r}"
            ) from None
        computed = payload_crc(d)
        if stored_value != computed:
            raise CheckpointCorrupt(
                f"checkpoint {path} failed its CRC-32 self-check "
                f"(stored {stored}, computed {computed:#010x}): the file "
                "was corrupted after it was written"
            )
    return d


def _load_file(
    path: str, config: SearchConfig, chunk_size: int
) -> tuple[CampaignRecord, set[int], int]:
    """Load one generation; raises ``FileNotFoundError``,
    :class:`CheckpointCorrupt` or :class:`CheckpointMismatch`."""
    d = _read_document(path)
    quarantined: set[int] = set()
    if isinstance(d.get("campaign"), dict):
        # Formats 2 and 3 share the identity envelope.
        version = 3 if "crc32" in d else 2
        meta = d.get("config", {})
        _check("width", meta.get("width"), config.width, path)
        _check("target_hd", meta.get("target_hd"), config.target_hd, path)
        _check(
            "final_length", meta.get("final_length"), config.final_length, path
        )
        _check("chunk_size", meta.get("chunk_size"), chunk_size, path)
        try:
            campaign = CampaignRecord.from_json_dict(d["campaign"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointCorrupt(
                f"checkpoint {path}: campaign payload unreadable: {exc}"
            ) from None
        quarantined = {int(c) for c in d.get("quarantined", [])}
    else:
        # Format 1: a bare CampaignRecord; validate what it carries.
        version = 1
        try:
            campaign = CampaignRecord.from_json_dict(d)
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointCorrupt(
                f"checkpoint {path}: campaign payload unreadable: {exc}"
            ) from None
    _check("width", campaign.width, config.width, path)
    _check("target_hd", campaign.target_hd, config.target_hd, path)
    _check("final_length", campaign.data_word_bits, config.final_length, path)
    return campaign, quarantined, version


def load(
    path: str, config: SearchConfig, chunk_size: int
) -> LoadedCheckpoint:
    """Read a checkpoint, refusing one from an incompatible campaign
    and falling back to the rotated previous generation when the
    current one is corrupt or missing.

    Raises :class:`CheckpointMissing` when neither generation exists,
    :class:`CheckpointCorrupt` when every existing generation fails
    verification, and :class:`CheckpointMismatch` on a (well-formed)
    foreign checkpoint -- a mismatch never triggers fallback, because
    the previous generation of a foreign campaign is just as foreign.
    """
    prev = previous_path(path)
    corrupt_error: str | None = None
    try:
        campaign, quarantined, version = _load_file(path, config, chunk_size)
        return LoadedCheckpoint(
            campaign=campaign,
            quarantined=quarantined,
            source=path,
            format_version=version,
        )
    except FileNotFoundError:
        if not os.path.exists(prev):
            raise CheckpointMissing(
                f"no checkpoint found at {path} "
                "(use a fresh run or check --checkpoint)"
            ) from None
        corrupt_error = f"checkpoint {path} is missing"
    except CheckpointCorrupt as exc:
        corrupt_error = str(exc)
        if not os.path.exists(prev):
            raise CheckpointCorrupt(
                f"{corrupt_error}; no previous generation at {prev} "
                "to fall back to"
            ) from None
    try:
        campaign, quarantined, version = _load_file(prev, config, chunk_size)
    except FileNotFoundError:
        raise CheckpointCorrupt(
            f"{corrupt_error}; previous generation {prev} vanished"
        ) from None
    except CheckpointCorrupt as exc:
        raise CheckpointCorrupt(
            f"both checkpoint generations are unreadable: "
            f"{corrupt_error}; {exc}"
        ) from None
    return LoadedCheckpoint(
        campaign=campaign,
        quarantined=quarantined,
        source=prev,
        fell_back=True,
        corrupt_error=corrupt_error,
        format_version=version,
    )
