"""Ablations of the design choices DESIGN.md calls out.

Each test switches one mechanism off (or swaps it for the naive
alternative) and measures the effect, with correctness asserted
invariant:

* reciprocal deduplication (paper §3): search the raw space vs the
  canonical space -- same survivor *pairs*, ~2x work;
* parity shortcut: HD evaluation with and without exploiting the
  (x+1) theorem -- same answers, fewer checks;
* windowed-witness fast path: hamming_distance with the probe
  disabled (window smaller than useful) vs enabled -- same answers;
  and one weight-5 windowed witness at width 32 and one weight-4
  witness of a width-16 survivor at 12,112 bits, each its seconds and
  ``tracemalloc`` peak;
* one exact ``exists_weight_k`` (weight 6 at 3,000 bits), its seconds
  and ``tracemalloc`` peak;
* membership screens: the weight-4/5 pair screens' seconds in each
  presence-filter regime, hashed at width 32 and direct at width 12,
  with answers checked against a sort-based oracle first;
* the packed and scalar backends on the ``w32_hd6_1k`` chunk, with
  identical records asserted first;
* chunk-size sensitivity of the distributed coordinator -- same
  campaign outcome across granularities.
"""

from __future__ import annotations

import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from conftest import once
from repro.gf2.notation import koopman_to_full
from repro.gf2.poly import reciprocal
from repro.hd import cost
from repro.hd.batched import BatchKeys, weight4_exists, weight5_exists
from repro.hd.hamming import hamming_distance
from repro.hd.mitm import exists_weight_k, windowed_witness
from repro.hd.packed import ValueSweep
from repro.hd.syndromes import syndrome_table
from repro.search.exhaustive import SearchConfig, search_chunk, search_all
from repro.search.space import canonical_mask, index_range_polys
from tests.hd.test_mitm import ref_exists, ref_windowed


def test_reciprocal_dedup_ablation(benchmark, record):
    """Searching without dedup doubles work and finds each survivor's
    reciprocal too -- verifying both the saving and Peterson's
    reciprocal-equivalence theorem on real data."""
    cfg = SearchConfig(width=8, target_hd=4, filter_lengths=(16, 60),
                       confirm_weights=False)

    def both():
        deduped = search_all(cfg)
        # raw space: evaluate every candidate (no canonicalization)
        from repro.hd.breakpoints import refute_hd_at
        raw_survivors = []
        raw_examined = 0
        from repro.search.space import candidate_polys
        for g in candidate_polys(8):
            raw_examined += 1
            if refute_hd_at(g, 4, 60) is None:
                raw_survivors.append(g)
        return deduped, raw_survivors, raw_examined

    deduped, raw_survivors, raw_examined = once(benchmark, both)
    canon = {r.poly for r in deduped.survivors}
    assert {min(p, reciprocal(p)) for p in raw_survivors} == canon
    # reciprocal pairs behave identically (the theorem, empirically)
    for p in raw_survivors:
        assert min(p, reciprocal(p)) in canon
    record("ablation", {"reciprocal_dedup": {
        "raw_examined": raw_examined,
        "canonical_examined": deduped.examined,
        "raw_survivors": len(raw_survivors),
        "canonical_survivors": len(canon),
    }})
    assert deduped.examined < raw_examined


def test_parity_shortcut_ablation(benchmark, record):
    """Same HD with the (x+1) theorem on and off, over a sweep."""
    g = koopman_to_full(0xBA0DC66B)
    lengths = [50, 120, 153, 300, 900]

    def both():
        t0 = time.perf_counter()
        with_p = [hamming_distance(g, n, exploit_parity=True) for n in lengths]
        t_with = time.perf_counter() - t0
        t0 = time.perf_counter()
        without = [hamming_distance(g, n, exploit_parity=False) for n in lengths]
        t_without = time.perf_counter() - t0
        return with_p, without, t_with, t_without

    with_p, without, t_with, t_without = once(benchmark, both)
    assert with_p == without
    record("ablation", {"parity_shortcut": {
        "seconds_with": round(t_with, 3),
        "seconds_without": round(t_without, 3),
        "answers": dict(zip(map(str, lengths), with_p)),
    }})


def test_windowed_witness_ablation(benchmark, record, monkeypatch):
    """Disable the windowed fast path (a 3-bit window, too small to
    ever hit) and confirm identical HDs from the full checks, with
    timing."""
    g = koopman_to_full(0x82608EDB)
    lengths = [400, 1000, 4000, 12112]

    def both():
        t0 = time.perf_counter()
        fast = [hamming_distance(g, n) for n in lengths]
        t_fast = time.perf_counter() - t0
        with monkeypatch.context() as m:
            m.setattr(cost, "WITNESS_WINDOW", 3)
            t0 = time.perf_counter()
            slow = [hamming_distance(g, n) for n in lengths]
            t_slow = time.perf_counter() - t0
        return fast, slow, t_fast, t_slow

    fast, slow, t_fast, t_slow = once(benchmark, both)
    # 802.3: HD=5 through 2974 bits, HD=4 beyond (Table 1)
    assert fast == slow == [5, 5, 4, 4]
    record("ablation", {"windowed_witness": {
        "seconds_with": round(t_fast, 3),
        "seconds_without": round(t_slow, 3),
    }})


def _timed_with_peak(fn, rounds: int = 1):
    """``fn()``'s result, its best time over ``rounds`` calls, and the
    ``tracemalloc`` peak of one more call."""
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    tracemalloc.start()
    try:
        assert fn() == result
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, best, peak


def test_windowed_witness_weight5(benchmark, record):
    """One weight-5 kill of the width-32 HD-6 search at 1,056 bits:
    the windowed witness's time and ``tracemalloc`` peak.  The
    ablation above never reaches k >= 5, because ``hamming_distance``
    takes the full meet-in-the-middle at its lengths."""
    g = 0x179F48B87
    syn = syndrome_table(g, 1056)
    expect = ref_windowed(g, 1056, 5, 400, syn=syn)
    assert expect == (0, 38, 151, 218, 924)

    def call():
        return windowed_witness(g, 1056, 5, window=400, syn=syn)

    witness, seconds, peak = once(benchmark, _timed_with_peak, call)
    assert witness == expect
    record("ablation", {"windowed_witness_weight5": {
        "seconds": round(seconds, 4),
        "peak_mb": round(peak / 2**20, 1),
        "witness": list(witness),
    }})


def test_windowed_witness_weight4(benchmark, record):
    """The weight-4 witness that confirms a width-16 survivor at the
    paper's 12,112 bits (``0x10007``, a survivor of ``mtu16_hd4``'s
    space): the whole-window search over C(399, 2) pairs, asked once
    for all 12,127 positions ``b``.  Best of 5."""
    g, N = 0x10007, 12112 + 16
    syn = syndrome_table(g, N)
    expect = ref_windowed(g, N, 4, 400, syn=syn)

    def call():
        return windowed_witness(g, N, 4, window=400, syn=syn)

    witness, seconds, peak = once(benchmark, _timed_with_peak, call, 5)
    assert witness == expect
    record("ablation", {"windowed_witness_weight4": {
        "seconds": round(seconds, 4),
        "peak_mb": round(peak / 2**20, 1),
        "witness": list(witness),
    }})


def test_exists_weight6(benchmark, record):
    """The exact weight-6 check for 0xBA0DC66B at 3,000 bits: a side of
    C(2999, 2) pair values, hashed, streamed against the triples until
    the first hit."""
    g = koopman_to_full(0xBA0DC66B)
    syn = syndrome_table(g, 3000)
    expect = ref_exists(g, 3000, 6)
    assert expect

    def call():
        return exists_weight_k(g, 3000, 6, syn=syn)

    answer, seconds, peak = once(benchmark, _timed_with_peak, call)
    assert answer == expect
    record("ablation", {"exists_weight6_3000": {
        "seconds": round(seconds, 3),
        "peak_mb": round(peak / 2**20, 1),
    }})


def _screen_tables(width: int, start: int, end: int, n: int) -> np.ndarray:
    """The uint64 ``(B, n + width)`` syndrome tables of the canonical
    candidates in an index range, as the packed driver hands them to
    :class:`BatchKeys`."""
    polys = index_range_polys(width, start, end)
    polys = polys[canonical_mask(width, polys)]
    N = n + width
    sweep = ValueSweep(polys, width, N)
    sweep.advance_to(N)
    return sweep.values(np.arange(len(polys)), N, np.uint64)


def _pair_oracle(tables: np.ndarray) -> tuple[list[bool], list[bool]]:
    """Row by row with ``np.isin``: is some ``syn[a] ^ syn[b] ^ 1`` a
    single (weight 4) or another pair (weight 5)?"""
    a, b = np.triu_indices(tables.shape[1] - 1, k=1)
    a += 1
    b += 1
    w4, w5 = [], []
    for row in tables:
        pairs = row[a] ^ row[b]
        w4.append(bool(np.isin(pairs ^ np.uint64(1), row).any()))
        w5.append(bool(np.isin(pairs ^ np.uint64(1), pairs).any()))
    return w4, w5


def test_membership_screens(benchmark, record):
    """The weight-4 plus weight-5 pair screens, best of 3, in both
    presence-filter regimes: hashed on the ``w32_hd6_1k`` chunk (its 4
    canonical candidates at 1,056 positions), direct on the width-12
    space of ``for_bits(12, 6, 200)`` (1,056 candidates at 212
    positions).  Answers must equal a sort-based oracle before
    anything is timed."""
    cases = {
        "hashed_w32": (32, _screen_tables(32, 1023034816, 1023034824, 1024)),
        "direct_w12": (12, _screen_tables(12, 0, 1 << 11, 200)),
    }

    def timed():
        out = {}
        for name, (r, tables) in cases.items():
            rows = np.ones(len(tables), dtype=bool)
            keys = BatchKeys(tables, r)
            assert keys.hashed == (name == "hashed_w32")
            answers = (
                weight4_exists(keys, rows).tolist(),
                weight5_exists(keys, rows).tolist(),
            )
            assert answers == _pair_oracle(tables)
            best = float("inf")
            for _ in range(3):
                t0 = time.perf_counter()
                keys = BatchKeys(tables, r)
                weight4_exists(keys, rows)
                weight5_exists(keys, rows)
                best = min(best, time.perf_counter() - t0)
            out[name] = {
                "width": r,
                "rows": len(tables),
                "positions": tables.shape[1],
                "seconds": round(best, 3),
                "weight4": answers[0].count(True),
                "weight5": answers[1].count(True),
            }
        return out

    out = once(benchmark, timed)
    record("ablation", {"membership_screens": out})


def test_packed_vs_scalar_w32(benchmark, record):
    """``search_chunk`` on the ``w32_hd6_1k`` chunk (``for_bits(32, 6,
    1024)``, its 4 canonical candidates: two HD-6 survivors and two
    weight-5 kills) on each backend, best of 5, after both backends'
    records are checked equal."""
    cfg = SearchConfig.for_bits(32, 6, 1024)
    lo, hi = 1023034816, 1023034824
    backends = ("packed", "scalar")

    def timed():
        packed, scalar = (
            search_chunk(replace(cfg, backend=b), lo, hi) for b in backends
        )
        assert packed.stage_kills == scalar.stage_kills
        assert packed.records == scalar.records
        out = {"candidates": packed.examined}
        for b in backends:
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                search_chunk(replace(cfg, backend=b), lo, hi)
                best = min(best, time.perf_counter() - t0)
            out[f"{b}_ms"] = round(best * 1000, 1)
        return out

    out = once(benchmark, timed)
    record("ablation", {"packed_vs_scalar_w32": out})


@pytest.mark.parametrize("chunk_size", [4, 16, 64])
def test_chunk_size_invariance(benchmark, record, chunk_size):
    """Campaign outcome is independent of work-partition granularity."""
    cfg = SearchConfig(width=6, target_hd=4, filter_lengths=(8, 20),
                       confirm_weights=False)

    def run():
        parts = {}
        total = 1 << 5
        for i, lo in enumerate(range(0, total, chunk_size)):
            parts[i] = search_chunk(cfg, lo, min(lo + chunk_size, total))
        return parts

    parts = once(benchmark, run)
    survivors = sorted(
        r.poly for res in parts.values() for r in res.survivors
    )
    baseline = sorted(r.poly for r in search_all(cfg).survivors)
    assert survivors == baseline
    record("ablation", {f"chunk_size_{chunk_size}_survivors": len(survivors)})
