"""Packed screening driver: the vectorized filter cascade.

:func:`screen_chunk_packed` is the fast counterpart of the scalar
screening loop in :mod:`repro.search.exhaustive`, built on the kernels
of :mod:`repro.hd.packed` and :mod:`repro.hd.batched`.  It walks the
chunk's candidates in blocks of up to ``config.batch_size`` and
narrows an *alive set* stage by stage: each filter length kills its
share of the batch, and only what's left flows into the next -- longer,
more expensive -- stage.

* **One sweep per batch.**  A :class:`~repro.hd.packed.ValueSweep`
  fills a single position-major narrow-value buffer (uint16 for
  ``r <= 16``, uint32 to 32, uint64 beyond) incrementally as the
  stages ask for longer windows.  Everything downstream is a slice of
  that buffer: under CPython the binding cost of the cascade is
  per-step numpy *dispatch*, so one 4-op carried sweep beats
  re-sweeping per stage.
* **Weight 2** is a compare: the sweep's per-segment min-scan records
  each lane's first ``register == 1`` position (= the order of
  ``x``), so the stage kill is ``first_one <= N - 1`` and the witness
  ``(0, order)`` is free.
* **Weight 3** runs only on the lanes that can still die of it
  (parity-immune and already-condemned lanes are excluded first), in
  one screen for every width (:func:`~repro.hd.packed.weight3_witnesses`):
  a row sort of their buffer columns -- composite keys
  ``(value << pos_bits) | position`` for ``r <= 32``, argsorted uint64
  values above -- makes partners adjacent, and one selection picks
  the scalar witness.
* **Weights 4/5 and the scalar tail** (``target_hd >= 5``) run the
  :mod:`repro.hd.batched` membership screens on uint64 casts of the
  same buffer, through one presence filter per batch (direct-indexed
  when the ``batch << r`` key space fits 32 slots per key, hashed
  with exact confirmation otherwise) -- these stages only run on the
  thin post-weight-3 remainder.  The screens stream pairs and retire
  a row at its first hit, and each stage asks only the pairs reaching
  past the previous stage's window, which every alive row passed.
  Weight 5 proves kills by the windowed witness first and screens
  only its misses.  Target weights >= 6 (rare: ``target_hd >= 7``)
  drop to the per-row scalar tail shared with
  :func:`repro.hd.breakpoints.refute_hd_at`.

Killed lanes stay in the buffer until a stage has condemned enough of
the batch (a quarter or more) to make one gather of the filled rows
cheaper than stepping the dead columns through the remaining stages;
in between, the alive bookkeeping just stops indexing them.

The output is record-for-record identical to the scalar backend --
same survivors, same per-stage kill counts, same witnesses -- which
``tests/search/test_packed.py`` asserts differentially and the
identity matrix (``tests/dist/test_identity_matrix.py``) holds
campaign-wide on every executor.  Witness choices replicate the
scalar sequence exactly: weight 2 reports ``(0, order_of_x)``; weights
3-5 try the windowed extraction first and fall back to the full
meet-in-the-middle witness search on a windowed miss.  Weight 5 runs
that sequence in the scalar order (windowed extraction, then the
existence screen, then the full search); weight 4 screens first and
extracts witnesses for its hits only, which yields the same witness.
"""

from __future__ import annotations

import time

import numpy as np

from repro.hd.batched import BatchKeys, weight4_exists, weight5_exists
from repro.hd.breakpoints import _refute_weights
from repro.hd.cost import EnvelopeError, check_envelope
from repro.hd.mitm import find_witness, windowed_witness
from repro.hd.packed import ValueSweep, weight3_witnesses
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.obs.events import NULL_EVENTS, NullEventLog
from repro.search.exhaustive import ScreenResult, SearchConfig
from repro.search.records import PolyRecord
from repro.search.space import canonical_mask, index_range_polys

Kills = list[tuple[int, tuple[int, ...]]]


def _keyed_kills(
    k: int,
    keys: BatchKeys,
    cand: np.ndarray,
    g_alive: np.ndarray,
    N: int,
    start: int,
    config: SearchConfig,
) -> Kills:
    """Weight-``k`` kills among the ``cand`` rows (weights 4 and 5),
    each with the scalar path's witness.

    Weight 4 screens first and extracts witnesses for its hits.
    Weight 5 proves by the windowed witness first: its candidates are
    the rows not divisible by ``x + 1``, which hold no HD-6 survivor,
    so most die there, and only the misses go to the screen -- whose
    hits then take the full search directly, as the scalar path does.
    (At weight 4 every survivor is a candidate, and a windowed search
    per survivor per stage costs more than the screen it would skip.)
    Both screens ask only pairs reaching ``start``, the previous
    stage's window, which every candidate passed at this weight.
    """
    tables = keys.tables
    window = min(config.witness_window, N)
    if k == 4:
        cand = weight4_exists(keys, cand, start) & cand
    kills, missed = [], np.zeros_like(cand)
    for row in np.flatnonzero(cand).tolist():
        witness = windowed_witness(
            int(g_alive[row]), N, k, window=window, syn=tables[row]
        )
        if witness is None:
            missed[row] = True
        else:
            kills.append((row, witness))
    if k == 5:
        missed = weight5_exists(keys, missed, start) & missed
    # A row the screen proved killable that the windowed witness
    # missed takes the full search, as on the scalar path.
    for row in np.flatnonzero(missed).tolist():
        witness = find_witness(
            int(g_alive[row]), N, k,
            syn=tables[row],
            mem_elems=config.mem_elems,
            stream_elems=config.stream_elems,
        )
        assert witness is not None, "batch screen asserted existence"
        kills.append((row, witness))
    return kills


def _screen_batch_packed(
    config: SearchConfig, g_all: np.ndarray
) -> tuple[list[PolyRecord | None], list[tuple[int, int, np.ndarray]], dict[int, int]]:
    """Screen one batch of same-width candidates.

    Returns ``(records, survivors, stage_kills)`` where ``records`` is
    aligned with ``g_all`` (``None`` at survivor slots) and
    ``survivors`` holds ``(local_slot, poly, final_syndrome_row)``.
    """
    B = len(g_all)
    r = config.width
    hd = config.target_hd
    records: list[PolyRecord | None] = [None] * B
    kills: dict[int, int] = {}
    tracer = obs_trace.active()
    # (x+1) | g  <=>  even popcount: odd weights are immune (parity).
    immune = (np.bitwise_count(g_all) & np.uint64(1)) == np.uint64(0)
    alive_slot = np.arange(B)
    g_alive = g_all
    # One carried value sweep serves every stage of the cascade plus
    # the survivors' final tables; lanes map alive rows to its columns
    # (killed columns keep sweeping -- width is cheap, compaction
    # copies are not).
    capacity = max(
        [config.final_length + r] + [n + r for n in config.filter_lengths]
    )
    sweep = ValueSweep(g_all, r, capacity)
    lanes = np.arange(B)
    # Every row alive at a stage passed the previous one at every
    # weight below hd, so the pair screens resume at its window.
    prev_N = 0

    for n in config.filter_lengths:
        if len(alive_slot) == 0:
            break
        # One span per cascade stage: n is the filter length, alive the
        # batch rows entering; killed annotated on close.
        stage_span = tracer.start(
            "screen.stage", n=n, alive=len(alive_slot), kernel="packed"
        )
        N = n + r
        sweep.advance_to(N)
        n_alive = len(alive_slot)
        kill_weight = np.zeros(n_alive, dtype=np.int64)
        witnesses: list[tuple[int, ...] | None] = [None] * n_alive
        eligible = np.ones(n_alive, dtype=bool)

        # Weight 2: the sweep's segment scans already know each lane's
        # first "register == 1" position -- the order of x -- so the
        # kill is a compare and the witness (0, order) is free.
        first_one = sweep.first_one[lanes]
        dup = (first_one >= 0) & (first_one <= N - 1)
        if dup.any():
            for row in np.flatnonzero(dup).tolist():
                kill_weight[row] = 2
                witnesses[row] = (0, int(first_one[row]))
            eligible &= ~dup

        # Weights 3..5, ascending (the exactness precondition of every
        # screen below: lower even/odd weights already clean).
        tail_k_min = 6
        tables: np.ndarray | None = None
        keys: BatchKeys | None = None
        for k in (3, 4, 5):
            if k >= hd or not eligible.any():
                break
            cand = eligible if k == 4 else (eligible & ~immune)
            if k == 3:
                rows = np.flatnonzero(cand)
                hits = [
                    (int(rows[i]), wit)
                    for i, wit in weight3_witnesses(
                        sweep, lanes[rows], N, config.witness_window
                    )
                ]
            else:
                try:
                    check_envelope(N, k, config.mem_elems, config.stream_elems)
                except EnvelopeError:
                    # The scalar path would be envelope-bound here
                    # too; delegate this weight and everything
                    # above it to the per-row tail, which
                    # replicates it exactly.
                    tail_k_min = k
                    break
                if keys is None:
                    tables = sweep.values(lanes, N, np.uint64)
                    keys = BatchKeys(tables, r)
                hits = _keyed_kills(k, keys, cand, g_alive, N, prev_N, config)
            for row, wit in hits:
                kill_weight[row] = k
                witnesses[row] = wit
                eligible[row] = False

        if tail_k_min < hd and eligible.any():
            if tables is None:
                tables = sweep.values(lanes, N, np.uint64)
            for row in np.flatnonzero(eligible).tolist():
                g = int(g_alive[row])
                refutation = _refute_weights(
                    g,
                    hd,
                    N,
                    tables[row],
                    witness_window=config.witness_window,
                    mem_elems=config.mem_elems,
                    stream_elems=config.stream_elems,
                    k_min=tail_k_min,
                )
                if refutation is not None:
                    kill_weight[row], witnesses[row] = refutation

        killed = kill_weight > 0
        if killed.any():
            kills[n] = int(killed.sum())
            final_length = config.final_length
            for row in np.flatnonzero(killed).tolist():
                wit = witnesses[row]
                assert wit is not None
                records[int(alive_slot[row])] = PolyRecord(
                    poly=int(g_alive[row]),
                    width=r,
                    data_word_bits=final_length,
                    hd=int(kill_weight[row]),
                    survived=False,
                    filtered_at_bits=n,
                    witness=tuple(map(int, wit)),
                )
            keep = ~killed
            alive_slot = alive_slot[keep]
            g_alive = g_alive[keep]
            immune = immune[keep]
            lanes = lanes[keep]
            # The sweep is bandwidth-bound: once a stage has killed a
            # real fraction of the batch, stepping the dead columns
            # through the remaining positions costs more than one
            # gather of the filled rows.  Compare the two -- dead
            # columns times positions still to sweep against the
            # filled-row gather (with a healthy factor for the
            # gather's cache-hostile access pattern) -- so the early
            # stages compact and the last stage, with nothing left to
            # sweep, never pays for a pointless copy.
            dead_work = (capacity - sweep.pos) * (sweep.B - len(lanes))
            if dead_work > 4 * sweep.pos * max(len(lanes), 1):
                sweep.compact(lanes)
                lanes = np.arange(len(alive_slot))
        stage_span.annotate(killed=kills.get(n, 0))
        stage_span.end()
        prev_N = N

    # Survivors get their final-length tables as slices of the sweep
    # buffer, kept in the narrow sweep dtype: confirm_survivor widens
    # at the point of use, so the screen phase never pays for 4x the
    # write traffic.
    if len(alive_slot):
        sweep.advance_to(config.final_length + r)
        final_tables = sweep.values(lanes, config.final_length + r)
    else:
        final_tables = np.empty((0, config.final_length + r), dtype=sweep.dtype)
    survivors = [
        (int(alive_slot[i]), int(g_alive[i]), final_tables[i])
        for i in range(len(alive_slot))
    ]
    return records, survivors, kills


def screen_chunk_packed(
    config: SearchConfig,
    start_index: int,
    end_index: int,
    *,
    events: NullEventLog = NULL_EVENTS,
) -> ScreenResult:
    """Packed screening of a dense candidate-index range.

    Emits one ``search.batch.done`` event per block (batch size,
    survivors, per-stage kills, seconds, ``kernel="packed"``) and bumps
    the ``search.batches`` / ``search.batch_kill.{length}`` metrics --
    chunk-level instrumentation stays with the caller.
    """
    polys = index_range_polys(config.width, start_index, end_index)
    polys = polys[canonical_mask(config.width, polys)]
    # The uint64-table screens' composite keys pack the row index
    # above the r syndrome bits.
    batch_size = min(config.batch_size, 1 << (64 - config.width))
    result = ScreenResult(config=config)
    metrics = obs_metrics.active()
    for base in range(0, len(polys), batch_size):
        g_batch = polys[base : base + batch_size]
        t0 = time.perf_counter()
        records, survivors, kills = _screen_batch_packed(config, g_batch)
        seconds = time.perf_counter() - t0
        offset = len(result.records)
        result.records.extend(records)
        result.survivors.extend(
            (offset + slot, g, syn) for slot, g, syn in survivors
        )
        result.examined += len(g_batch)
        for length, count in kills.items():
            result.stage_kills[length] = (
                result.stage_kills.get(length, 0) + count
            )
        if metrics.enabled:
            metrics.inc("search.batches")
            for length, count in kills.items():
                metrics.inc(f"search.batch_kill.{length}", count)
        events.emit(
            "search.batch.done",
            start=start_index,
            end=end_index,
            batch=len(g_batch),
            survivors=len(survivors),
            seconds=round(seconds, 6),
            stage_kills=kills,
            kernel="packed",
        )
    return result
