"""The filter-cascade search driver (paper §4.1).

For every canonical candidate polynomial, screen for "HD >= target"
at a sequence of increasing data-word lengths.  A candidate that shows
any undetected error of weight < target at a short length is dead --
remove it before spending effort at longer lengths (the paper's
"filtering with increasing lengths", which it credits with making the
search tractable: screening at 1024 bits is ~17,500x cheaper than at
12112 bits and kills the overwhelming majority).

Survivors of the final length are then *confirmed*: exact HD, exact
low weights, and the §4.5 invariants (parity, monotonicity) checked
over the cascade's observations.

``search_chunk`` operates on a dense index range of the candidate
space so the distributed layer (:mod:`repro.dist`) can partition work
across unreliable workers, exactly as the 2001 campaign did across
~80 machines.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.gf2.poly import degree
from repro.gf2.order import order_of_x
from repro.hd.breakpoints import _refute_weights
from repro.hd.hamming import _ascending_weights
from repro.hd.invariants import WeightMonitor
from repro.hd.syndromes import extend_syndrome_table, syndrome_table
from repro.hd.weights import weight_profile
from repro.obs import metrics as obs_metrics
from repro.obs.events import NULL_EVENTS, NullEventLog
from repro.search.records import CampaignRecord, PolyRecord
from repro.search.space import candidate_count, canonical_candidates


@dataclass(frozen=True)
class SearchConfig:
    """Parameters of an exhaustive search.

    ``filter_lengths`` is the increasing cascade; the last entry is
    the length at which the target HD must hold (e.g. the paper's
    12112).  Reasonable cascades start around 64-256 bits and double.

    ``confirm_weights`` controls whether survivors get exact
    W2..W4 computed at the final length (the paper computed exact
    weights for all 21,292 HD=6 survivors' *detection* but left
    precise weights impractical; at scaled widths we can afford them).

    ``backend`` selects the screening engine: ``"packed"`` (default)
    filters candidates in vectorized blocks of up to ``batch_size``
    over one narrow-value sweep per block (:mod:`repro.search.packed`);
    ``"scalar"`` is the one-at-a-time reference path, kept as the
    differential-test oracle.  Both produce identical records;
    ``"packed"`` falls back to scalar beyond
    :data:`~repro.hd.packed.PACKED_MAX_WIDTH` (63), where a generator
    no longer fits a machine word.

    The work envelope -- memory and stream budgets, the windowed
    witness's window -- is not part of a config: every search reads it
    from :mod:`repro.hd.cost`, so records depend only on the fields
    here.
    """

    width: int
    target_hd: int
    filter_lengths: tuple[int, ...]
    confirm_weights: bool = True
    backend: str = "packed"
    batch_size: int = 4096

    def __post_init__(self) -> None:
        if self.width < 3:
            raise ValueError("width must be at least 3")
        if self.target_hd < 3:
            raise ValueError("target_hd must be at least 3")
        if not self.filter_lengths or list(self.filter_lengths) != sorted(
            self.filter_lengths
        ):
            raise ValueError("filter_lengths must be a non-empty ascending sequence")
        if self.backend not in ("packed", "scalar"):
            raise ValueError(
                f"backend must be 'packed' or 'scalar', got {self.backend!r}"
            )
        if self.batch_size < 1:
            raise ValueError("batch_size must be positive")

    @property
    def final_length(self) -> int:
        """The data-word length the target HD is required at."""
        return self.filter_lengths[-1]

    @classmethod
    def for_bits(
        cls, width: int, target_hd: int, bits: int, **overrides
    ) -> "SearchConfig":
        """The standard screening config for a final length: a
        three-stage cascade (bits/8, bits/2, bits, floored at useful
        minimums) with weight confirmation off -- what the CLI's
        ``search`` and ``campaign`` commands run."""
        cascade = tuple(
            sorted({max(8, bits // 8), max(12, bits // 2), bits})
        )
        overrides.setdefault("confirm_weights", False)
        return cls(
            width=width,
            target_hd=target_hd,
            filter_lengths=cascade,
            **overrides,
        )


@dataclass
class SearchResult:
    """Outcome of (a chunk of) an exhaustive search.

    Chunk results cross process boundaries in the parallel campaign
    (:mod:`repro.dist.pool`), so this type and everything it contains
    must remain plain picklable dataclasses -- no open handles, no
    lambdas, no generators (``tests/dist/test_pool.py`` enforces it).
    """

    config: SearchConfig
    records: list[PolyRecord] = field(default_factory=list)
    examined: int = 0
    stage_kills: dict[int, int] = field(default_factory=dict)
    elapsed_seconds: float = 0.0

    @property
    def survivors(self) -> list[PolyRecord]:
        return [r for r in self.records if r.survived]

    @property
    def filtering_rate(self) -> float:
        """Candidates fully dispatched per second -- comparable to the
        paper's "approximately two polynomials filtered per second per
        CPU" (on 2001 hardware)."""
        if self.elapsed_seconds == 0:
            return float("inf")
        return self.examined / self.elapsed_seconds


@dataclass
class ScreenResult:
    """Outcome of the *screening* phase of a chunk: every candidate
    either has a kill record or is a survivor awaiting confirmation.

    ``records`` is aligned with dense-candidate order and holds
    ``None`` at survivor slots; ``survivors`` carries
    ``(slot, poly, syn)`` where ``syn`` is the candidate's final-length
    syndrome table (screening already paid for it -- confirmation
    reuses it instead of rebuilding).  The table's dtype is whatever
    unsigned width the backend natively sweeps in (the packed kernel
    keeps ``r``-bit values narrow); :func:`confirm_survivor` widens at
    the point of use.
    """

    config: SearchConfig
    records: list[PolyRecord | None] = field(default_factory=list)
    survivors: list[tuple[int, int, "np.ndarray | None"]] = field(
        default_factory=list
    )
    examined: int = 0
    stage_kills: dict[int, int] = field(default_factory=dict)


def _screen_candidate(
    g: int, config: SearchConfig
) -> tuple[PolyRecord | None, "np.ndarray | None"]:
    """Scalar screening of one candidate: ``(kill_record, None)`` if a
    cascade stage refutes it, ``(None, syn)`` -- with the final-length
    syndrome table -- if it survives.

    One syndrome table is threaded through the whole cascade via
    :func:`~repro.hd.syndromes.extend_syndrome_table`: each stage pays
    only for the positions the previous stage didn't already cover.
    """
    r = degree(g)
    order = order_of_x(g)
    syn: np.ndarray | None = None
    for n in config.filter_lengths:
        N = n + r
        if order <= N - 1:
            return (
                PolyRecord(
                    poly=g,
                    width=config.width,
                    data_word_bits=config.final_length,
                    hd=2,
                    survived=False,
                    filtered_at_bits=n,
                    witness=(0, order),
                ),
                None,
            )
        syn = (
            syndrome_table(g, N)
            if syn is None
            else extend_syndrome_table(g, syn, N)
        )
        refutation = _refute_weights(g, config.target_hd, N, syn)
        if refutation is not None:
            weight, witness = refutation
            return (
                PolyRecord(
                    poly=g,
                    width=config.width,
                    data_word_bits=config.final_length,
                    hd=weight,
                    survived=False,
                    filtered_at_bits=n,
                    witness=witness,
                ),
                None,
            )
    return None, syn


def confirm_survivor(
    g: int, config: SearchConfig, syn: "np.ndarray | None" = None
) -> PolyRecord:
    """Exact confirmation of a filter-cascade survivor: HD at the
    final length (optionally plus the exact low-weight profile),
    reusing the screening phase's syndrome table when provided.

    ``g`` must have passed the screen: the record is marked survived
    without re-checking the weights below ``target_hd``.  Surviving
    the screen already proves every weight below
    ``target_hd`` absent at the final length (weight 2 by the order
    of x, odd weights by parity when (x+1) | g), so the search for the
    exact HD starts at ``target_hd`` and skips odd weights under the
    same theorem.  Each weight is decided as :func:`hamming_distance`
    decides it; re-proving the screened weights parity-blind from
    k=3 is the tests' oracle, not this path's work -- at 12,112 bits
    and width 32 its weight-5 step exceeds the materialization cap.
    """
    n = config.final_length
    N = n + degree(g)
    if syn is None:
        syn = syndrome_table(g, N)
    elif syn.dtype != np.uint64:
        # Backends hand the table over in their native sweep width;
        # the weight searches below key on uint64.
        syn = syn.astype(np.uint64)
    k_max = max(config.target_hd + 4, 10)
    for hd, exists in _ascending_weights(
        g, N, config.target_hd, k_max, syn=syn
    ):
        if exists:
            break
    else:
        raise ValueError(f"HD exceeds k_max={k_max} at n={n}; raise k_max")
    weights = None
    if config.confirm_weights:
        monitor = WeightMonitor(g)
        weights = weight_profile(g, n, 4)
        monitor.observe(n, weights)
    return PolyRecord(
        poly=g,
        width=config.width,
        data_word_bits=n,
        hd=hd,
        survived=True,
        weights=weights,
    )


def effective_kernel(config: SearchConfig) -> str:
    """The screening kernel :func:`screen_chunk` will actually run
    after the width fallback: the packed kernels cap at
    :data:`~repro.hd.packed.PACKED_MAX_WIDTH`, beyond which everything
    runs scalar.  Instrumentation tags (``screen.stage`` spans,
    ``search.batch.*`` metrics, ``search.chunk.done`` events) carry
    this value so reports attribute throughput to the kernel that
    produced it.
    """
    from repro.hd.packed import PACKED_MAX_WIDTH

    if config.backend == "packed" and config.width <= PACKED_MAX_WIDTH:
        return "packed"
    return "scalar"


def screen_chunk(
    config: SearchConfig,
    start_index: int,
    end_index: int,
    *,
    events: NullEventLog = NULL_EVENTS,
) -> ScreenResult:
    """Run the filter cascade (no survivor confirmation) over a dense
    index range, dispatching to the configured backend.

    The packed backend screens ``config.batch_size`` candidates per
    block of numpy ops (:mod:`repro.search.packed`); the scalar
    backend -- also the fallback above
    :data:`~repro.hd.packed.PACKED_MAX_WIDTH` -- walks candidates one
    at a time and serves as the differential oracle.
    """
    if effective_kernel(config) == "packed":
        from repro.search.packed import screen_chunk_packed

        return screen_chunk_packed(
            config, start_index, end_index, events=events
        )
    result = ScreenResult(config=config)
    for g in canonical_candidates(config.width, start_index, end_index):
        slot = len(result.records)
        record, syn = _screen_candidate(g, config)
        result.records.append(record)
        result.examined += 1
        if record is None:
            result.survivors.append((slot, g, syn))
        elif record.filtered_at_bits is not None:
            result.stage_kills[record.filtered_at_bits] = (
                result.stage_kills.get(record.filtered_at_bits, 0) + 1
            )
    return result


def search_chunk(
    config: SearchConfig,
    start_index: int,
    end_index: int,
    *,
    events: NullEventLog = NULL_EVENTS,
) -> SearchResult:
    """Evaluate the canonical candidates whose dense index falls in
    ``[start_index, end_index)`` -- the unit of distributed work.

    Two phases: *screening* (backend-dispatched, see
    :func:`screen_chunk`) kills the overwhelming majority cheaply;
    *confirmation* computes exact HD for the survivors.

    Observability (all off by default, see :mod:`repro.obs`): the
    chunk outcome -- candidates examined, filter-pass survivors, and
    kills per cascade length -- goes to ``events`` as one
    ``search.chunk.done`` record and to the process-local metrics
    registry; the packed backend additionally emits one
    ``search.batch.done`` record per block.  Instrumentation stays at
    chunk/batch granularity so the per-candidate hot loop is untouched.
    """
    t0 = time.perf_counter()
    screen = screen_chunk(config, start_index, end_index, events=events)
    result = SearchResult(config=config)
    result.examined = screen.examined
    result.stage_kills = dict(screen.stage_kills)
    records = list(screen.records)
    for slot, g, syn in screen.survivors:
        records[slot] = confirm_survivor(g, config, syn=syn)
    assert all(rec is not None for rec in records)
    result.records = records  # type: ignore[assignment]
    result.elapsed_seconds = time.perf_counter() - t0
    metrics = obs_metrics.active()
    if metrics.enabled:
        metrics.inc("search.candidates", result.examined)
        metrics.inc("search.survivors", len(result.survivors))
        for length, kills in result.stage_kills.items():
            metrics.inc(f"search.stage_kill.{length}", kills)
        metrics.observe("search.chunk_seconds", result.elapsed_seconds)
    events.emit(
        "search.chunk.done",
        start=start_index,
        end=end_index,
        examined=result.examined,
        survivors=len(result.survivors),
        seconds=round(result.elapsed_seconds, 6),
        stage_kills=result.stage_kills,
        kernel=effective_kernel(config),
    )
    return result


def search_all(
    config: SearchConfig, *, events: NullEventLog = NULL_EVENTS
) -> SearchResult:
    """Exhaustive search over the full canonical candidate space.

    Practical for widths through ~16 (the validation widths the paper
    itself used); at width 32 use a distributed campaign
    (:mod:`repro.dist`) instead -- this function would need the 2001
    farm.
    """
    events.emit(
        "search.start",
        width=config.width,
        target_hd=config.target_hd,
        final_length=config.final_length,
        filter_lengths=list(config.filter_lengths),
        chunks=1,  # the whole space in one chunk, so reports close out
    )
    return search_chunk(config, 0, 1 << (config.width - 1), events=events)


def campaign_from_results(
    config: SearchConfig, chunk_results: dict[int, SearchResult]
) -> CampaignRecord:
    """Fold per-chunk results into an idempotent campaign record."""
    campaign = CampaignRecord(
        width=config.width,
        data_word_bits=config.final_length,
        target_hd=config.target_hd,
    )
    for chunk_id, res in sorted(chunk_results.items()):
        campaign.merge_chunk(chunk_id, res.records, res.examined)
    return campaign


def expected_examined(width: int) -> int:
    """Number of canonical candidates a full search visits (the
    paper's 1,073,774,592 at width 32)."""
    return candidate_count(width)["canonical"]
