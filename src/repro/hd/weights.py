"""Exact undetected-error weight counting.

A weight ``W_k(n)`` is the number of distinct k-bit error patterns in
an ``(n+r)``-bit codeword that a polynomial fails to detect (paper §3:
e.g. the 802.3 CRC at n=12112 has ``{W2=0, W3=0, W4=223059, ...}``).

Counting (as opposed to existence, :mod:`repro.hd.mitm`) cannot use
anchoring -- each codeword must be counted once per *placement* -- so
the algorithms here work over all ``C(N, k)`` position subsets, but
still avoid enumerating them:

* ``W2``: duplicate syndromes (``C(m,2)`` summed over multiplicities).
* ``W3``: number of (pair, single) syndrome matches / 3 -- every
  weight-3 codeword {i,j,k} is found once per choice of the "single".
* ``W4``: number of colliding unordered pairs-of-pairs / 3 -- every
  weight-4 codeword {i,j,k,l} splits into 3 pairings, each colliding.

Both W3 and W4 require ``N <= order(x mod g)`` so that all single
syndromes are distinct (no degenerate collisions); the functions check
this and raise otherwise.  That condition holds for every length the
paper evaluates (Table 1 stops at or before each polynomial's order).
"""

from __future__ import annotations

from itertools import combinations
from math import comb

import numpy as np

from repro.gf2.poly import degree
from repro.gf2.order import order_of_x
from repro.hd.cost import DEFAULT_MEM_ELEMS, EnvelopeError
from repro.hd.syndromes import syndrome_table, syndrome_of_positions
from repro.obs import metrics as obs_metrics

_PAIR_CHUNK = 1 << 22


def _pair_block_indices(
    i0: int, i1: int, N: int
) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays ``(left, right)`` enumerating every pair ``(i, j)``
    with ``i0 <= i < i1`` and ``i < j < N`` in row-major order -- the
    vectorized replacement for the per-row ``syn[i] ^ syn[i+1:]``
    Python loop.  ``syn[right] ^ syn[left]`` yields the pair syndromes
    in exactly the order the scalar loop produced them."""
    rows = np.arange(i0, i1, dtype=np.intp)
    lens = N - 1 - rows
    total = int(lens.sum())
    left = np.repeat(rows, lens)
    starts = np.cumsum(lens) - lens
    right = left + 1 + (
        np.arange(total, dtype=np.intp) - np.repeat(starts, lens)
    )
    return left, right


def count_weight_2(g: int, codeword_bits: int, syn: np.ndarray | None = None) -> int:
    """Exact ``W2``: undetectable 2-bit errors within the window.

    >>> count_weight_2(0b111, 4)   # x^2+x+1 has order 3: x^3+1 fits in 4 bits
    1
    """
    if syn is None:
        syn = syndrome_table(g, codeword_bits)
    _, counts = np.unique(syn, return_counts=True)
    return int((counts * (counts - 1) // 2).sum())


def _require_distinct_singles(g: int, codeword_bits: int) -> None:
    if order_of_x(g) < codeword_bits:
        raise EnvelopeError(
            f"W3/W4 counting requires window <= order(x) = {order_of_x(g)}; "
            f"got {codeword_bits}"
        )


def count_weight_3(
    g: int,
    codeword_bits: int,
    syn: np.ndarray | None = None,
    chunk_rows: int = 2048,
) -> int:
    """Exact ``W3`` by pair-vs-single syndrome matching.

    O(N^2) work, chunked; practical through N ~ 131K (one to two
    minutes at the top end, seconds through a few 10K).
    """
    N = codeword_bits
    _require_distinct_singles(g, N)
    if syn is None:
        syn = syndrome_table(g, N)
    metrics = obs_metrics.active()
    singles_sorted = np.sort(syn, kind="stable")
    total = 0
    for i0 in range(0, N - 1, chunk_rows):
        i1 = min(i0 + chunk_rows, N - 1)
        # Rows i0..i1: XORs syn[i] ^ syn[i+1:], one vectorized gather.
        left, right = _pair_block_indices(i0, i1, N)
        values = syn[right] ^ syn[left]
        left = np.searchsorted(singles_sorted, values, side="left")
        right = np.searchsorted(singles_sorted, values, side="right")
        total += int((right - left).sum())
        metrics.inc("weights.w3.chunks")
        metrics.inc("weights.w3.pair_syndromes", len(values))
    # Each codeword {i,j,k} is counted once per role assignment of the
    # "single" (3 ways); matches where the single coincides with a pair
    # member are impossible (would need a zero syndrome).
    assert total % 3 == 0, "W3 accounting violated"
    return total // 3


def count_weight_4(
    g: int,
    codeword_bits: int,
    syn: np.ndarray | None = None,
    mem_elems: int = DEFAULT_MEM_ELEMS,
) -> int:
    """Exact ``W4`` by pair-collision counting.

    Materializes all ``C(N,2)`` pair syndromes (the envelope allows
    N ~ 37K in ~5.6 GB; the paper's headline W4(12112)=223,059 for
    802.3 needs 7.4e7 elements, well inside).
    """
    N = codeword_bits
    _require_distinct_singles(g, N)
    npairs = comb(N, 2)
    if npairs > mem_elems:
        raise EnvelopeError(
            f"W4 counting at N={N} needs {npairs:.3g} pair syndromes in memory"
        )
    if syn is None:
        syn = syndrome_table(g, N)
    pairs = np.empty(npairs, dtype=np.uint64)
    fill = 0
    # Row-blocked so the gather index arrays stay within the pair
    # chunk budget rather than tripling peak memory.
    rows_per_block = max(1, _PAIR_CHUNK // max(N - 1, 1))
    for i0 in range(0, N - 1, rows_per_block):
        i1 = min(i0 + rows_per_block, N - 1)
        left, right = _pair_block_indices(i0, i1, N)
        np.bitwise_xor(
            syn[right], syn[left], out=pairs[fill : fill + len(left)]
        )
        fill += len(left)
    assert fill == npairs
    obs_metrics.active().inc("weights.w4.pair_syndromes", npairs)
    pairs.sort(kind="stable")
    # Sum C(m,2) over equal-value runs, vectorized.
    boundaries = np.flatnonzero(pairs[1:] != pairs[:-1])
    run_starts = np.concatenate(([0], boundaries + 1))
    run_ends = np.concatenate((boundaries + 1, [npairs]))
    runs = run_ends - run_starts
    collisions = int((runs * (runs - 1) // 2).sum())
    # Distinct singles => colliding pairs never share an index, so each
    # collision is a genuine weight-4 codeword, counted once per each
    # of its 3 pair-pairings.
    assert collisions % 3 == 0, "W4 accounting violated"
    return collisions // 3


def count_weight_5(
    g: int,
    codeword_bits: int,
    syn: np.ndarray | None = None,
    mem_elems: int = DEFAULT_MEM_ELEMS,
) -> int:
    """Exact ``W5`` by (2,3)-split syndrome matching.

    Every weight-5 codeword is counted once per (pair, triple)
    partition of its positions -- ``C(5,2) = 10`` times.  Matches with
    a shared position collapse to a weight-3 codeword plus a free
    repeated position, contributing ``3 * (N-3) * W3`` spurious
    matches (pair {a,p} vs triple {b,c,p} with {a,b,c} a codeword;
    3 choices of the pair's codeword member, N-3 choices of p); these
    are subtracted exactly.  Requires distinct single syndromes
    (``N <= order``) like the other counters.

    Memory: materializes the ``C(N,3)`` triple XORs -- practical to
    N ~ 700 under the default envelope, which covers every length at
    which W5 is interesting for 32-bit codes (W5 != 0 only below the
    HD=5 limit's neighbourhood or for non-parity generators).
    """
    from math import comb as _comb

    from repro.hd.mitm import _levelwise

    N = codeword_bits
    _require_distinct_singles(g, N)
    if _comb(N, 3) > min(mem_elems, 60_000_000):
        raise EnvelopeError(
            f"W5 counting at N={N} materializes C({N},3) triple syndromes"
        )
    if syn is None:
        syn = syndrome_table(g, N)
    triples = _levelwise(syn, 3, 0, N)
    triples.sort(kind="stable")
    matches = 0
    for i in range(N - 1):
        pair_vals = np.bitwise_xor(syn[i + 1 :], syn[i])
        left = np.searchsorted(triples, pair_vals, side="left")
        right = np.searchsorted(triples, pair_vals, side="right")
        matches += int((right - left).sum())
    w3 = count_weight_3(g, N, syn)
    spurious = 3 * (N - 3) * w3
    assert (matches - spurious) % 10 == 0, "W5 accounting violated"
    return (matches - spurious) // 10


def count_weight_6(
    g: int,
    codeword_bits: int,
    syn: np.ndarray | None = None,
    mem_elems: int = DEFAULT_MEM_ELEMS,
) -> int:
    """Exact ``W6`` by (3,3)-split matching.

    Unordered pairs of distinct triples with equal syndromes arise
    from: weight-6 codewords (``C(6,3)/2 = 10`` pairings each) and
    weight-4 codewords with one shared position
    (``3 * (N-4)`` pairings each: 3 balanced splits of the 4
    positions, N-4 choices of the shared extra).  Weight-2
    contributions require duplicate singles, excluded by the
    ``N <= order`` precondition.

    Same materialization envelope as :func:`count_weight_5`.
    """
    from math import comb as _comb

    from repro.hd.mitm import _levelwise

    N = codeword_bits
    _require_distinct_singles(g, N)
    if _comb(N, 3) > min(mem_elems, 60_000_000):
        raise EnvelopeError(
            f"W6 counting at N={N} materializes C({N},3) triple syndromes"
        )
    if syn is None:
        syn = syndrome_table(g, N)
    triples = _levelwise(syn, 3, 0, N)
    triples.sort(kind="stable")
    boundaries = np.flatnonzero(triples[1:] != triples[:-1])
    run_starts = np.concatenate(([0], boundaries + 1))
    run_ends = np.concatenate((boundaries + 1, [len(triples)]))
    runs = run_ends - run_starts
    pairs_of_triples = int((runs * (runs - 1) // 2).sum())
    w4 = count_weight_4(g, N, syn, mem_elems=mem_elems)
    spurious = 3 * (N - 4) * w4
    assert (pairs_of_triples - spurious) % 10 == 0, "W6 accounting violated"
    return (pairs_of_triples - spurious) // 10


def brute_force_weights(
    g: int, data_word_bits: int, k_max: int, *, hard_limit: int = 30_000_000
) -> dict[int, int]:
    """Reference weights ``{k: W_k}`` for ``k = 2..k_max`` by direct
    enumeration of all position subsets.

    Deliberately naive -- this is the oracle the fast paths are tested
    against.  Refuses workloads beyond ``hard_limit`` patterns.
    """
    r = degree(g)
    N = data_word_bits + r
    total = sum(comb(N, k) for k in range(2, k_max + 1))
    if total > hard_limit:
        raise EnvelopeError(
            f"brute force would enumerate {total:.3g} patterns (> {hard_limit:.3g})"
        )
    syn = [int(s) for s in syndrome_table(g, N)]
    weights: dict[int, int] = {}
    for k in range(2, k_max + 1):
        count = 0
        for combo in combinations(range(N), k):
            acc = 0
            for p in combo:
                acc ^= syn[p]
            if acc == 0:
                count += 1
        weights[k] = count
    return weights


def weight_profile(
    g: int,
    data_word_bits: int,
    k_max: int = 4,
    *,
    mem_elems: int = DEFAULT_MEM_ELEMS,
) -> dict[int, int]:
    """Exact weights ``{2: W2, ..., k_max: W_k}`` (``k_max <= 6``) for
    a data word of ``data_word_bits`` bits.

    This is the quantity the paper reports as
    ``{W2=0; W3=0; W4=223059; ...}`` for 802.3 at 12112 bits.  W5/W6
    counting materializes the triple-syndrome table and is therefore
    limited to short windows (N ~ 700); W2..W4 reach the full Figure 1
    range.
    """
    if not 2 <= k_max <= 6:
        raise ValueError("weight_profile computes k=2..6 exactly; use "
                         "brute_force_weights for higher k at tiny lengths")
    r = degree(g)
    N = data_word_bits + r
    with obs_metrics.active().time("weights.profile_seconds"):
        syn = syndrome_table(g, N)
        profile: dict[int, int] = {2: count_weight_2(g, N, syn)}
        if k_max >= 3:
            profile[3] = count_weight_3(g, N, syn)
        if k_max >= 4:
            profile[4] = count_weight_4(g, N, syn, mem_elems=mem_elems)
        if k_max >= 5:
            profile[5] = count_weight_5(g, N, syn, mem_elems=mem_elems)
        if k_max >= 6:
            profile[6] = count_weight_6(g, N, syn, mem_elems=mem_elems)
    return profile


def undetected_fraction(weight: int, codeword_bits: int, k: int) -> float:
    """Fraction of all k-bit errors that go undetected -- the paper's
    "slightly more than 1 out of every 2**32" observation for 802.3
    at MTU length."""
    return weight / comb(codeword_bits, k)
