"""Campaign checkpoint format: compatibility-guarded, self-checksummed,
and written in proportion to what changed.

A checkpoint written months into a campaign is only useful if it can
never be silently merged into the *wrong* campaign, and never trusted
when the bytes on disk are not the bytes that were written.  It must
also stay cheap: the coordinator saves on its critical path, so a save
that rewrites every record ever merged makes a campaign quadratic in
its own length.  The format has grown accordingly:

* **Format 1** (seed): the bare
  :class:`~repro.search.records.CampaignRecord` JSON.  Still
  readable; the record's own ``width``/``target_hd``/
  ``data_word_bits`` are validated on load.
* **Format 2**: an envelope pinning the search identity -- ``width``,
  ``target_hd``, ``final_length`` and the partition ``chunk_size`` --
  with :class:`CheckpointMismatch` raised on any deviation.  Still
  readable.
* **Format 3**: the format-2 envelope around the whole record, with a
  CRC-32C self-checksum over its canonical payload and a
  ``quarantined`` list.  Still readable (any JSON layout); a resumed
  campaign's first save writes format 4 and rotates the old file to
  ``.prev``.
* **Format 4** (this module's writer): two kinds of file.

  - The **manifest** at ``path``: the identity envelope, the
    quarantine list, the file name of a **segment log** beside it,
    the log's covered byte length and frame count, the CRC-32C that
    chains its frames, and its own CRC-32C over its canonical payload.
    A few hundred bytes.
  - The **log** (``<name>.<16 hex digits>.log``): append-only, one
    frame per save.  A frame holds the chunk ids merged since the
    previous frame, their ``candidates_examined`` total and their
    :class:`~repro.search.records.PolyRecord` JSON, canonically
    encoded, behind a 12-byte header (magic, payload length, link) and
    ahead of a CRC-32C of header and payload.  The link is the
    previous frame's CRC (the first frame's is the CRC of the log's
    own name), so each frame's check also binds it to its place.

Every CRC is CRC-32C (Castagnoli), the polynomial the paper's lineage
put into iSCSI for exactly this at-rest integrity job, computed by
:func:`payload_crc` through the repository's own kernel registry.

**Append or compact.**  A save *appends* when it extends the very
record object this process last saved to ``path`` (through
:meth:`~repro.search.records.CampaignRecord.merge_chunk`, whose merge
journal names what is new) and the live manifest is byte for byte the
one this process published: it writes one frame holding only the
chunks merged since, at the covered length (cutting off any torn tail
first), and republishes the manifest.  Any other save -- the first, a
new process, a copied-in or rotten manifest, a different record --
*compacts*: the whole record, encoded once, as the single frame of a
fresh log.  Logs named by neither the live manifest nor ``.prev`` are
deleted.

**Durable publication**, as for format 3: the manifest goes to a temp
file, is fsynced, the live manifest is rotated to ``<path>.prev`` if
it verifies, the temp file is renamed over ``path``, and the
directory is fsynced.  The log frame is fsynced before all of that.
"Verified" is cheap in the common case: a live manifest whose bytes
hash to the digest of what this process last published there is that
checked publication; any other file (bit rot, a foreign or older
writer) gets the full check.  A rotten live file never reaches
``.prev``.

**Load** verifies the manifest, falling back to ``.prev`` when it is
corrupt or missing, then replays the covered frames through
:meth:`~repro.search.records.CampaignRecord.merge_chunks`.  Bytes past
the covered length are a torn append and are ignored.  A covered
frame that fails its CRC or breaks the chain ends the replay at the
last intact frame and sets ``corrupt_error``: the resume reports it
and recomputes the rest.  Rot in the log costs work, never the
campaign.

:func:`load` returns a :class:`LoadedCheckpoint` carrying the
campaign, the quarantine set, and what went wrong if anything did (the
caller emits the ``checkpoint.corrupt`` event).  A missing checkpoint
(no current, no previous) raises :class:`CheckpointMissing` with an
actionable message instead of a bare ``FileNotFoundError``.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
import weakref
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.crc.backends import crc_compute
from repro.crc.catalog import CATALOG
from repro.search.exhaustive import SearchConfig
from repro.search.records import CampaignRecord, PolyRecord

#: Format tag this module writes.
FORMAT = "repro-campaign-checkpoint/4"
#: The whole-record envelope with a self-checksum (still readable).
FORMAT_3 = "repro-campaign-checkpoint/3"
#: The identity envelope without a checksum (still readable).
FORMAT_2 = "repro-campaign-checkpoint/2"

#: The self-checksum algorithm: CRC-32C (Castagnoli), computed through
#: the kernel registry's ``auto`` choice (the numpy ``wordwise`` kernel
#: for all but tiny payloads).
CRC_SPEC = CATALOG["CRC-32C/Castagnoli"]

#: A log frame: header (magic, payload length, link), payload, then
#: the CRC-32C of header and payload.
FRAME_MAGIC = b"RCF4"
_HEAD = struct.Struct(">4sII")
_TAIL = struct.Struct(">I")
#: The record fields a frame carries (the names of the record's JSON).
_FRAME_KEYS = ("chunks_done", "candidates_examined", "results")


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


def _canonical(obj: Any) -> bytes:
    """Sorted keys, no whitespace, ASCII."""
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    ).encode("ascii")


def canonical_payload_bytes(doc: dict[str, Any]) -> bytes:
    """The byte string a document's self-checksum covers: the document
    minus its ``crc32`` field, serialized canonically (sorted keys, no
    whitespace, ASCII)."""
    return _canonical({k: v for k, v in doc.items() if k != "crc32"})


def payload_crc(doc: dict[str, Any] | bytes) -> int:
    """CRC-32C of :func:`canonical_payload_bytes` -- of ``doc``, or of
    ``doc`` itself when it already is bytes (a log frame)."""
    if not isinstance(doc, bytes):
        doc = canonical_payload_bytes(doc)
    return crc_compute(CRC_SPEC, doc)


def _chain_seed(log_name: str) -> int:
    """The link of a log's first frame: the CRC of the log's name, so
    frames cannot be spliced in from another log."""
    return payload_crc(log_name.encode("utf-8"))


def _write_frame(f, payload: bytes, link: int) -> tuple[int, int]:
    """Write one log frame at ``f``'s position and fsync it; returns
    its CRC and its size."""
    body = _HEAD.pack(FRAME_MAGIC, len(payload), link) + payload
    crc = payload_crc(body)
    f.write(body)
    f.write(_TAIL.pack(crc))
    f.flush()
    os.fsync(f.fileno())
    return crc, len(body) + _TAIL.size


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
    """True iff ``path`` holds a structurally sound checkpoint: any
    format; formats 3 and 4 must also pass their CRC, and a format-4
    manifest's log must hold at least the bytes it covers.  Decides
    whether a live file this process did not just publish deserves
    promotion to ``.prev``."""
    try:
        doc = _read_document(path)
        if doc.get("format") == FORMAT:
            log, length, _, _ = _covered(doc, path)
            return os.path.getsize(_beside(path, log)) >= length
    except (OSError, CheckpointCorrupt):
        return False
    return True


@dataclass
class _Publication:
    """What this process last published at one checkpoint path."""

    #: BLAKE2b of the manifest bytes.
    digest: bytes
    #: The log it names, and what of it it covers.
    log: str
    length: int
    frames: int
    chain: int
    #: The log the ``.prev`` manifest names, if any.
    prev_log: str | None
    #: The record those frames hold, and what it held then.
    record: weakref.ref
    chunks: int
    examined: int


#: What this process last published at each absolute checkpoint path.
#: Process-wide on purpose: a stale or inherited entry can only match
#: bytes some save wrote with a correct CRC, so sharing it never lets a
#: bad file through.
_published: dict[str, _Publication] = {}


@dataclass(frozen=True)
class SaveStats:
    """What one :func:`save` did."""

    #: ``"append"`` (one frame of what changed) or ``"compact"`` (the
    #: whole record into a fresh log).
    mode: str
    #: Bytes written: the frame plus the manifest.
    bytes: int


def _digest(data: bytes) -> bytes:
    return hashlib.blake2b(data, digest_size=32).digest()


def _beside(path: str, name: str) -> str:
    return os.path.join(os.path.dirname(os.path.abspath(path)), name)


def _read_small(path: str) -> bytes | None:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError:
        return None


def _log_named_by(data: bytes | None) -> str | None:
    """The log a manifest's bytes name; None for anything else."""
    try:
        doc = json.loads(data)
        return doc["log"] if doc.get("format") == FORMAT else None
    except (TypeError, ValueError, KeyError, AttributeError):
        return None


def _append(
    directory: str, last: _Publication, campaign: CampaignRecord, entries
) -> tuple[str, int, int, int, int] | None:
    """Append one frame of the journal ``entries`` -- the chunks merged
    since ``last`` -- to its log; ``(log, length, frames, chain, bytes
    written)``, or None when the record or the log is not the one
    ``last`` describes."""
    if last.record() is not campaign:
        return None
    chunk_ids = [c for ids, _, _ in entries for c in ids]
    examined = sum(e for _, _, e in entries)
    if (
        len(campaign.chunks_done) != last.chunks + len(chunk_ids)
        or campaign.candidates_examined != last.examined + examined
    ):
        return None  # changed behind merge_chunk's back, or saved elsewhere
    try:
        f = open(os.path.join(directory, last.log), "r+b")
    except OSError:
        return None
    with f:
        size = os.fstat(f.fileno()).st_size
        if size < last.length:
            return None  # the log lost covered bytes
        payload = _canonical({
            "chunks_done": chunk_ids,
            "candidates_examined": examined,
            "results": [r.to_json_dict() for _, rs, _ in entries for r in rs],
        })
        if size > last.length:
            f.truncate(last.length)  # a torn append from a crash
        f.seek(last.length)
        crc, written = _write_frame(f, payload, last.chain)
    return last.log, last.length + written, last.frames + 1, crc, written


def _compact(
    directory: str, base: str, campaign: CampaignRecord
) -> tuple[str, int, int, int, int]:
    """Write the whole record as the one frame of a fresh log."""
    record = campaign.to_json_dict()
    payload = _canonical({k: record[k] for k in _FRAME_KEYS})
    while True:
        log = f"{base}.{os.urandom(8).hex()}.log"
        try:
            fd = os.open(
                os.path.join(directory, log),
                os.O_WRONLY | os.O_CREAT | os.O_EXCL,
                0o644,
            )
        except FileExistsError:
            continue
        break
    with os.fdopen(fd, "wb") as f:
        crc, written = _write_frame(f, payload, _chain_seed(log))
    return log, written, 1, crc, written


def _collect_logs(directory: str, base: str, keep: set[str]) -> None:
    """Delete the logs of ``base`` that no manifest names."""
    pattern = re.compile(re.escape(base) + r"\.[0-9a-f]{16}\.log\Z")
    for name in os.listdir(directory):
        if name not in keep and pattern.match(name):
            try:
                os.unlink(os.path.join(directory, name))
            except OSError:
                pass


def save(
    path: str,
    campaign: CampaignRecord,
    config: SearchConfig,
    chunk_size: int,
    quarantined: Iterable[int] = (),
) -> SaveStats:
    """Durably persist the campaign record plus its identity.

    Write path: a log frame (append or compact; module docstring) ->
    fsync -> manifest temp file -> fsync -> promote the existing
    (verified-good) manifest to ``.prev`` -> atomic rename ->
    directory fsync.  At every instant there is at least one intact
    generation on disk.
    """
    key = os.path.abspath(path)
    directory, base = os.path.split(key)
    live = _read_small(path)
    last = _published.get(key)
    if last is not None and (live is None or _digest(live) != last.digest):
        last = None
    entries = campaign.take_journal()
    written = None
    if last is not None and entries is not None:
        written = _append(directory, last, campaign, entries)
    mode = "append"
    if written is None:
        mode = "compact"
        written = _compact(directory, base, campaign)
    log, length, frames, chain, frame_bytes = written
    doc: dict[str, Any] = {
        "format": FORMAT,
        "config": {
            "width": config.width,
            "target_hd": config.target_hd,
            "final_length": config.final_length,
            "chunk_size": chunk_size,
        },
        "quarantined": sorted(set(quarantined)),
        "log": log,
        # Fixed-width hex, like the CRCs: the manifest's size does not
        # grow with the log.
        "log_bytes": f"{length:#018x}",
        "frames": f"{frames:#010x}",
        "chain": f"{chain:#010x}",
    }
    doc["crc32"] = f"{payload_crc(canonical_payload_bytes(doc)):#010x}"
    # ": " keeps the familiar "key": value spacing; the layout is not
    # part of the format.
    data = json.dumps(doc, separators=(",", ": ")).encode("ascii")
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        os.fsync(f.fileno())
    prev = previous_path(path)
    rotate = last is not None or (live is not None and verify_file(path))
    if rotate:
        os.replace(path, prev)
        prev_log = last.log if last is not None else _log_named_by(live)
    else:
        prev_log = _log_named_by(_read_small(prev))
    os.replace(tmp, path)
    _fsync_dir(directory)
    keep = {log} | ({prev_log} if prev_log else set())
    if last is None or keep != {last.log, last.prev_log} - {None}:
        _collect_logs(directory, base, keep)
    _published[key] = _Publication(
        digest=_digest(data),
        log=log,
        length=length,
        frames=frames,
        chain=chain,
        prev_log=prev_log,
        record=weakref.ref(campaign),
        chunks=len(campaign.chunks_done),
        examined=campaign.candidates_examined,
    )
    return SaveStats(mode=mode, bytes=frame_bytes + len(data))


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
    #: Human-readable reason the current generation was rejected, or
    #: its log replayed only up to a damaged frame; None when intact.
    corrupt_error: str | None = None
    #: 1, 2, 3 or 4.
    format_version: int = 4


def _check(field_name: str, found: Any, expected: Any, path: str) -> None:
    if found != expected:
        raise CheckpointMismatch(
            f"checkpoint {path} is from a different campaign: "
            f"{field_name}={found!r} but this campaign has "
            f"{field_name}={expected!r}"
        )


def _read_document(path: str) -> dict[str, Any]:
    """Parse and (for formats 3 and 4) CRC-verify one checkpoint file.
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
    if d.get("format") in (FORMAT, FORMAT_3) or "crc32" in d:
        stored = d.get("crc32")
        if not isinstance(stored, str):
            raise CheckpointCorrupt(
                f"checkpoint {path}: file missing its crc32 field"
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


def _covered(doc: dict[str, Any], path: str) -> tuple[str, int, int, int]:
    """A verified manifest's ``(log, length, frames, chain)``."""
    try:
        log = doc["log"]
        if not isinstance(log, str) or os.path.basename(log) != log:
            raise ValueError(f"bad log name {log!r}")
        return (
            log,
            int(doc["log_bytes"], 16),
            int(doc["frames"], 16),
            int(doc["chain"], 16),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorrupt(
            f"checkpoint {path}: manifest unreadable: {exc}"
        ) from None


def _replay(
    log_path: str,
    log: str,
    length: int,
    frames: int,
    chain: int,
    campaign: CampaignRecord,
) -> str | None:
    """Merge the covered frames of a log into ``campaign``, stopping at
    the first that is missing, fails its CRC or breaks the chain.
    Returns None when every covered frame replayed, else why not."""
    try:
        with open(log_path, "rb") as f:
            data = f.read(length)  # bytes past it are a torn append
    except OSError as exc:
        return f"checkpoint log {log_path} unreadable: {exc}"
    link = _chain_seed(log)
    offset = 0
    for index in range(frames):
        problem = None
        end = offset + _HEAD.size
        if end > len(data):
            problem = "is cut short"
        else:
            magic, size, found_link = _HEAD.unpack_from(data, offset)
            end += size
            if magic != FRAME_MAGIC or end + _TAIL.size > len(data):
                problem = "is cut short or unframed"
        if problem is None:
            body = data[offset:end]
            (crc,) = _TAIL.unpack_from(data, end)
            last = index == frames - 1
            if (
                found_link != link
                or payload_crc(body) != crc
                or (last and crc != chain)
            ):
                problem = "fails its CRC-32C chain"
        if problem is None:
            try:
                frame = json.loads(body[_HEAD.size :])
                ids = tuple(int(c) for c in frame["chunks_done"])
                examined = int(frame["candidates_examined"])
                records = [
                    PolyRecord.from_json_dict(r) for r in frame["results"]
                ]
            except (KeyError, TypeError, ValueError) as exc:
                problem = f"is unreadable ({exc})"
            else:
                if not campaign.merge_chunks(ids, records, examined):
                    problem = "re-merges a chunk"
        if problem is not None:
            return (
                f"checkpoint log {log_path}: frame {index + 1} of {frames} "
                f"{problem}; replayed the {index} intact frame(s) before it"
            )
        link = crc
        offset = end + _TAIL.size
    return None


def _load_file(
    path: str, config: SearchConfig, chunk_size: int
) -> tuple[CampaignRecord, set[int], int, str | None]:
    """Load one generation: ``(campaign, quarantined, format version,
    log damage)``.  Raises ``FileNotFoundError``,
    :class:`CheckpointCorrupt` or :class:`CheckpointMismatch`."""
    d = _read_document(path)
    quarantined: set[int] = set()
    manifest = d.get("format") == FORMAT
    if manifest or isinstance(d.get("campaign"), dict):
        # Formats 2 to 4 share the identity envelope.
        meta = d.get("config", {})
        _check("width", meta.get("width"), config.width, path)
        _check("target_hd", meta.get("target_hd"), config.target_hd, path)
        _check(
            "final_length", meta.get("final_length"), config.final_length, path
        )
        _check("chunk_size", meta.get("chunk_size"), chunk_size, path)
        quarantined = {int(c) for c in d.get("quarantined", [])}
    if manifest:
        log, length, frames, chain = _covered(d, path)
        campaign = CampaignRecord(
            width=config.width,
            data_word_bits=config.final_length,
            target_hd=config.target_hd,
        )
        log_error = _replay(
            _beside(path, log), log, length, frames, chain, campaign
        )
        return campaign, quarantined, 4, log_error
    if isinstance(d.get("campaign"), dict):
        version = 3 if "crc32" in d else 2
        payload = d["campaign"]
    else:
        # Format 1: a bare CampaignRecord; validate what it carries.
        version = 1
        payload = d
    try:
        campaign = CampaignRecord.from_json_dict(payload)
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointCorrupt(
            f"checkpoint {path}: campaign payload unreadable: {exc}"
        ) from None
    _check("width", campaign.width, config.width, path)
    _check("target_hd", campaign.target_hd, config.target_hd, path)
    _check("final_length", campaign.data_word_bits, config.final_length, path)
    return campaign, quarantined, version, None


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
    Damage to a verified manifest's log never raises: the record
    holds the frames before it, and ``corrupt_error`` says so.
    """
    prev = previous_path(path)
    corrupt_error: str | None = None
    try:
        campaign, quarantined, version, log_error = _load_file(
            path, config, chunk_size
        )
        return LoadedCheckpoint(
            campaign=campaign,
            quarantined=quarantined,
            source=path,
            corrupt_error=log_error,
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
        campaign, quarantined, version, log_error = _load_file(
            prev, config, chunk_size
        )
    except FileNotFoundError:
        raise CheckpointCorrupt(
            f"{corrupt_error}; previous generation {prev} vanished"
        ) from None
    except CheckpointCorrupt as exc:
        raise CheckpointCorrupt(
            f"both checkpoint generations are unreadable: "
            f"{corrupt_error}; {exc}"
        ) from None
    if log_error is not None:
        corrupt_error = f"{corrupt_error}; {log_error}"
    return LoadedCheckpoint(
        campaign=campaign,
        quarantined=quarantined,
        source=prev,
        fell_back=True,
        corrupt_error=corrupt_error,
        format_version=version,
    )
