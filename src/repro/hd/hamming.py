"""Hamming-distance determination.

``hamming_distance(g, n)`` returns the exact minimum Hamming distance
of the code formed by appending ``g``'s r-bit CRC to n-bit data words:
the smallest ``k`` such that some weight-k error pattern within the
``(n+r)``-bit codeword is undetected.  This single number is the
paper's figure of merit (Figure 1's y-axis, Table 1's row labels).

Strategy per candidate ``k`` (ascending, so the MITM precondition
holds):

1. ``k == 2``: exact via the order of ``x`` (a theorem, no search).
2. odd ``k`` with ``(x+1) | g``: weight is 0 (parity theorem); the
   shortcut can be disabled to mirror the paper's validation runs,
   which deliberately did not exploit it.
3. a *windowed witness* probe -- cheap, and conclusive when it finds
   (and re-verifies) a codeword, which it does almost immediately in
   dense regimes; a miss, including a probe past its own envelope, is
   ``None`` and decides nothing;
4. the full anchored meet-in-the-middle check, which is exact in both
   directions but subject to the work envelope.

If neither 3 nor 4 can decide (no witness, and the full check exceeds
the envelope), an :class:`EnvelopeError` propagates -- the library
never guesses.
"""

from __future__ import annotations

from collections.abc import Iterator
from math import comb

import numpy as np

from repro.gf2.poly import degree, divisible_by_x_plus_1
from repro.gf2.order import order_of_x
from repro.hd.cost import (
    DEFAULT_MEM_ELEMS,
    DEFAULT_STREAM_ELEMS,
    EnvelopeError,
    mitm_sorted_side,
    mitm_cost,
)
from repro.hd.mitm import exists_weight_k, windowed_witness
from repro.hd.syndromes import syndrome_table


def hamming_distance(
    g: int,
    data_word_bits: int,
    *,
    k_max: int = 16,
    exploit_parity: bool = True,
    witness_window: int = 400,
    mem_elems: int = DEFAULT_MEM_ELEMS,
    stream_elems: int = DEFAULT_STREAM_ELEMS,
    syn: np.ndarray | None = None,
) -> int:
    """Exact minimum Hamming distance at the given data-word length.

    Returns the smallest ``k`` (2 <= k <= k_max) for which an
    undetected k-bit error exists; raises ``ValueError`` if the HD
    exceeds ``k_max`` (choose a larger ``k_max``) and
    :class:`EnvelopeError` if exactness would exceed the envelope.

    >>> from repro.gf2.notation import koopman_to_full
    >>> hamming_distance(koopman_to_full(0x82608EDB), 12112)
    4
    """
    r = degree(g)
    N = data_word_bits + r
    if data_word_bits < 1:
        raise ValueError("data word must have at least one bit")
    # k = 2 via order (exact, instant).
    if order_of_x(g) <= N - 1:
        return 2
    if syn is None:
        syn = syndrome_table(g, N)
    for k, exists in _ascending_weights(
        g, N, 3, k_max,
        syn=syn,
        exploit_parity=exploit_parity,
        witness_window=witness_window,
        mem_elems=mem_elems,
        stream_elems=stream_elems,
    ):
        if exists:
            return k
    raise ValueError(
        f"HD exceeds k_max={k_max} at n={data_word_bits}; raise k_max"
    )


def _ascending_weights(
    g: int,
    N: int,
    k_min: int,
    k_max: int,
    *,
    syn: np.ndarray,
    exploit_parity: bool = True,
    witness_window: int,
    mem_elems: int,
    stream_elems: int,
) -> Iterator[tuple[int, bool]]:
    """The ascending HD scan: yield ``(k, exists)`` for ``k = k_min ..
    k_max``, deciding each weight exactly within an ``N``-bit codeword.

    Odd ``k`` are absent by the parity theorem when ``(x+1) | g``
    (unless ``exploit_parity`` is off).  Ascending order is the MITM
    precondition, so the caller must know every weight below ``k_min``
    absent.  :class:`EnvelopeError` propagates at the first weight
    that cannot be decided -- every weight yielded before it is
    decided.
    """
    parity = exploit_parity and divisible_by_x_plus_1(g)
    for k in range(k_min, k_max + 1):
        yield k, not (parity and k % 2 == 1) and _weight_k_exists(
            g, N, k,
            syn=syn,
            witness_window=witness_window,
            mem_elems=mem_elems,
            stream_elems=stream_elems,
        )


def _weight_k_exists(
    g: int,
    N: int,
    k: int,
    *,
    syn: np.ndarray,
    witness_window: int,
    mem_elems: int,
    stream_elems: int,
) -> bool:
    """Decide weight-k existence exactly, trying cheap proofs first."""
    # Cheap positive proof: windowed witness (verified, hence exact).
    full_is_cheap = (
        mitm_sorted_side(N, k) <= 2_000_000 and mitm_cost(N, k) <= 20_000_000
    )
    if not full_is_cheap and k >= 3:
        window = min(witness_window, N)
        # Keep the windowed side within a small memory budget by
        # shrinking the window for larger k.
        while window > k and comb(window - 1, k - 2) > 30_000_000:
            window //= 2
        if windowed_witness(g, N, k, window=window, syn=syn) is not None:
            return True
    # Exact two-sided answer.
    return exists_weight_k(
        g, N, k, syn=syn, mem_elems=mem_elems, stream_elems=stream_elems
    )


def hamming_distance_bound(
    g: int,
    data_word_bits: int,
    *,
    k_max: int = 16,
    exploit_parity: bool = True,
    witness_window: int = 400,
    mem_elems: int = DEFAULT_MEM_ELEMS,
    stream_elems: int = DEFAULT_STREAM_ELEMS,
) -> tuple[int, bool]:
    """Like :func:`hamming_distance`, but degrades gracefully: returns
    ``(hd, True)`` when the exact HD was determined, or
    ``(bound, False)`` where ``bound`` is a *verified lower bound*
    (all weights below ``bound`` proven zero) when the work envelope
    or ``k_max`` cut the search off.

    The degree-64 combined generators of stacked-CRC analysis land
    here routinely: their joint HD often exceeds what is exactly
    computable, and a verified "HD >= 8" is the useful answer.
    """
    r = degree(g)
    N = data_word_bits + r
    if data_word_bits < 1:
        raise ValueError("data word must have at least one bit")
    if order_of_x(g) <= N - 1:
        return 2, True
    verified_below = 3
    try:
        for k, exists in _ascending_weights(
            g, N, 3, k_max,
            syn=syndrome_table(g, N),
            exploit_parity=exploit_parity,
            witness_window=witness_window,
            mem_elems=mem_elems,
            stream_elems=stream_elems,
        ):
            if exists:
                return k, True
            verified_below = k + 1
    except EnvelopeError:
        pass
    return verified_below, False


def hd_profile(
    g: int,
    lengths: list[int],
    *,
    k_max: int = 16,
    exploit_parity: bool = True,
    mem_elems: int = DEFAULT_MEM_ELEMS,
    stream_elems: int = DEFAULT_STREAM_ELEMS,
) -> dict[int, int]:
    """HD at each of several data-word lengths -- one Figure 1 series.

    Computes each length independently; for dense Figure-1-style grids
    prefer :func:`repro.hd.breakpoints.hd_breakpoint_table`, which
    derives the whole curve from the (few) breakpoints instead.
    """
    out: dict[int, int] = {}
    for n in sorted(lengths):
        out[n] = hamming_distance(
            g, n,
            k_max=k_max,
            exploit_parity=exploit_parity,
            mem_elems=mem_elems,
            stream_elems=stream_elems,
        )
    return out
