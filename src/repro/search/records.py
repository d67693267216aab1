"""Serializable result records for search campaigns.

A months-long distributed campaign (the paper's was May-September
2001) must checkpoint, merge partial results from unreliable workers,
and remain auditable afterwards.  These records are the wire/disk
format: plain dataclasses with lossless JSON round-trip, keyed so
that merging is idempotent (re-delivered results overwrite equal
values, never double-count).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from repro.gf2.notation import class_signature, full_to_koopman
from repro.gf2.poly import degree


@dataclass(frozen=True, slots=True)
class PolyRecord:
    """Evaluation outcome for a single candidate polynomial.

    ``hd`` is the exact Hamming distance at ``data_word_bits`` for
    survivors; for filtered-out candidates it is the weight of the
    witness that killed them (an upper bound on HD) and
    ``filtered_at_bits`` records the (shorter) length where that
    happened -- mirroring the paper's cascade, which never wastes time
    computing exact values for losers.
    """

    poly: int
    width: int
    data_word_bits: int
    hd: int
    survived: bool
    filtered_at_bits: int | None = None
    witness: tuple[int, ...] | None = None
    weights: dict[int, int] | None = None

    @property
    def koopman(self) -> int:
        """Implicit-+1 representation."""
        return full_to_koopman(self.poly)

    @property
    def factor_class(self) -> tuple[int, ...]:
        """Factorization-class signature {d1,..,dk}."""
        return class_signature(self.poly)

    def to_json_dict(self) -> dict[str, Any]:
        # Built by hand, in field order: ``dataclasses.asdict`` deep-
        # copies recursively, which dominated serializing a large
        # campaign for every checkpoint.
        return {
            "poly": f"{self.poly:#x}",
            "width": self.width,
            "data_word_bits": self.data_word_bits,
            "hd": self.hd,
            "survived": self.survived,
            "filtered_at_bits": self.filtered_at_bits,
            "witness": None if self.witness is None else list(self.witness),
            "weights": (
                None
                if self.weights is None
                else {str(k): v for k, v in self.weights.items()}
            ),
        }

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "PolyRecord":
        return cls(
            poly=int(d["poly"], 16),
            width=d["width"],
            data_word_bits=d["data_word_bits"],
            hd=d["hd"],
            survived=d["survived"],
            filtered_at_bits=d.get("filtered_at_bits"),
            witness=tuple(d["witness"]) if d.get("witness") else None,
            weights=(
                {int(k): v for k, v in d["weights"].items()}
                if d.get("weights")
                else None
            ),
        )


@dataclass
class CampaignRecord:
    """Aggregated, idempotently-mergeable campaign state.

    ``results`` is keyed by polynomial; merging the same chunk twice
    (duplicate delivery from a crashed-then-recovered worker) is a
    no-op, which tests in ``tests/dist`` verify.
    """

    width: int
    data_word_bits: int
    target_hd: int
    results: dict[int, PolyRecord] = field(default_factory=dict)
    chunks_done: set[int] = field(default_factory=set)
    candidates_examined: int = 0
    #: The merges since the last :meth:`take_journal`, in order, as
    #: ``(chunk_ids, records, examined)``: the arguments themselves,
    #: never copies.  None until the first take, so a record nobody
    #: checkpoints journals nothing.  Not serialized, not part of
    #: equality.
    _journal: list[tuple[tuple[int, ...], list[PolyRecord], int]] | None = (
        field(default=None, init=False, repr=False, compare=False)
    )

    def merge_chunk(
        self, chunk_id: int, records: list[PolyRecord], examined: int
    ) -> bool:
        """Merge one completed chunk.  Returns False (and changes
        nothing) if the chunk was already merged."""
        return self.merge_chunks((chunk_id,), records, examined)

    def merge_chunks(
        self, chunk_ids: tuple[int, ...], records: list[PolyRecord],
        examined: int,
    ) -> bool:
        """Merge several completed chunks as one unit: their records
        and their ``examined`` total (a checkpoint frame replays this
        way).  Returns False (and changes nothing) if any of them was
        already merged."""
        if not self.chunks_done.isdisjoint(chunk_ids):
            return False
        for rec in records:
            self.results[rec.poly] = rec
        self.chunks_done.update(chunk_ids)
        self.candidates_examined += examined
        if self._journal is not None:
            self._journal.append((chunk_ids, records, examined))
        return True

    def take_journal(
        self,
    ) -> list[tuple[tuple[int, ...], list[PolyRecord], int]] | None:
        """The merges since the previous call (None on the first, when
        nothing was journaled), and a fresh journal for the next.  The
        checkpoint writer appends what this returns instead of
        re-encoding the whole record."""
        taken, self._journal = self._journal, []
        return taken

    @property
    def survivors(self) -> list[PolyRecord]:
        """Records that passed the full filter cascade."""
        return sorted(
            (r for r in self.results.values() if r.survived),
            key=lambda r: r.poly,
        )

    def to_json_dict(self) -> dict[str, Any]:
        # Results are serialized in polynomial order, not insertion
        # (= chunk completion) order: two campaigns that merged the
        # same chunks in different interleavings produce bit-identical
        # JSON, which the identity matrix asserts and the checkpoint
        # CRC-32 self-checksum depends on.
        return {
            "width": self.width,
            "data_word_bits": self.data_word_bits,
            "target_hd": self.target_hd,
            "chunks_done": sorted(self.chunks_done),
            "candidates_examined": self.candidates_examined,
            "results": [
                r.to_json_dict()
                for r in sorted(self.results.values(), key=lambda r: r.poly)
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=1)

    @classmethod
    def from_json_dict(cls, d: dict[str, Any]) -> "CampaignRecord":
        rec = cls(
            width=d["width"],
            data_word_bits=d["data_word_bits"],
            target_hd=d["target_hd"],
        )
        rec.chunks_done = set(d["chunks_done"])
        rec.candidates_examined = d["candidates_examined"]
        for rd in d["results"]:
            pr = PolyRecord.from_json_dict(rd)
            rec.results[pr.poly] = pr
        return rec

    @classmethod
    def from_json(cls, text: str) -> "CampaignRecord":
        return cls.from_json_dict(json.loads(text))


def describe_poly(p: int) -> str:
    """One-line human summary used in logs and reports."""
    return (
        f"{p:#x} (koopman {full_to_koopman(p):#x}, degree {degree(p)}, "
        f"class {{{','.join(map(str, class_signature(p)))}}})"
    )
