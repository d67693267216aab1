"""HD breakpoints: where a polynomial's Hamming distance degrades.

Table 1 of the paper is a breakpoint table: for each polynomial, the
ranges of data-word lengths over which each HD holds.  The natural
quantity is the *first failure length*

    ``f(k) = min { n : some weight-k error is undetected at length n }``

because ``HD(n) = min { k : f(k) <= n }``.  This module computes
``f(k)`` exactly using the paper's own search strategy -- probing at
increasing lengths until the breakpoint is straddled (paper §4.1's
"filtering with increasing lengths") and then binary-searching the
straddled interval.  The engine lives in :mod:`repro.hd.jump`: every
probe of one polynomial reads a prefix of a single extend-only
syndrome table (:class:`~repro.hd.jump.SpanCache`), geometric probes
early-exit on their first verified witness, and the final breakpoint
comes from windowed-witness bisection plus one collect-all scan at
the tightened window (:func:`~repro.hd.jump.refine_span`).

Inverse filtering (the paper's tool for proving that *no* polynomial
achieves an HD at a length) appears here as :func:`refute_hd_at`,
which produces a concrete undetected-error witness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.gf2.poly import degree, divisible_by_x_plus_1
from repro.gf2.order import order_of_x
from repro.hd.cost import (
    DEFAULT_MEM_ELEMS,
    DEFAULT_STREAM_ELEMS,
    EnvelopeError,
)
from repro.hd.jump import SpanCache, first_failure_jump
from repro.hd.mitm import exists_weight_k, find_witness, windowed_witness
from repro.hd.syndromes import extend_syndrome_table, syndrome_table

import numpy as np


@dataclass(frozen=True)
class FirstFailure:
    """Outcome of a first-failure search for one weight.

    ``n`` -- the exact first failing data-word length, or ``None``.
    ``cleared`` -- when ``n`` is None, every length through ``cleared``
    is *verified* failure-free (``cleared == n_max`` for a complete
    scan; smaller when the work envelope capped the probe).
    ``capped`` -- True when the envelope, not ``n_max``, ended the
    search; ``None`` then means "unknown beyond ``cleared``", not
    "never".
    """

    n: int | None
    cleared: int
    capped: bool = False


def first_failure_detailed(
    g: int,
    k: int,
    *,
    n_max: int,
    exploit_parity: bool = True,
    mem_elems: int = DEFAULT_MEM_ELEMS,
    stream_elems: int = DEFAULT_STREAM_ELEMS,
    cache: SpanCache | None = None,
) -> FirstFailure:
    """Exact first-failure search with explicit envelope accounting.

    ``k == 2`` comes from the order of ``x`` (no search); odd ``k`` for
    (x+1)-divisible generators never fails (parity theorem; the
    shortcut can be disabled for validation runs).  Everything else is
    the jump engine: verified early-exit straddle probes and span
    bisection on a shared syndrome table
    (:func:`repro.hd.jump.first_failure_jump`).  Pass a
    :class:`~repro.hd.jump.SpanCache` to reuse that table across
    weights of the same polynomial.
    """
    r = degree(g)
    if k < 2:
        raise ValueError("weights are defined for k >= 2")
    if exploit_parity and k % 2 == 1 and divisible_by_x_plus_1(g):
        return FirstFailure(None, n_max)
    if k == 2:
        n = order_of_x(g) + 1 - r
        return FirstFailure(n if n <= n_max else None, n_max)
    n, cleared, capped = first_failure_jump(
        g, k,
        n_max=n_max,
        mem_elems=mem_elems,
        stream_elems=stream_elems,
        cache=cache,
    )
    return FirstFailure(n, cleared, capped=capped)


def first_failure_length(
    g: int,
    k: int,
    *,
    n_max: int,
    exploit_parity: bool = True,
    mem_elems: int = DEFAULT_MEM_ELEMS,
    stream_elems: int = DEFAULT_STREAM_ELEMS,
    cache: SpanCache | None = None,
) -> int | None:
    """Exact smallest data-word length at which some weight-``k`` error
    goes undetected, or ``None`` if that never happens through
    ``n_max``.  Raises :class:`EnvelopeError` rather than silently
    capping (use :func:`first_failure_detailed` for capped scans).

    >>> from repro.gf2.notation import koopman_to_full
    >>> first_failure_length(koopman_to_full(0x82608EDB), 4, n_max=4000)
    2975
    """
    out = first_failure_detailed(
        g, k,
        n_max=n_max,
        exploit_parity=exploit_parity,
        mem_elems=mem_elems,
        stream_elems=stream_elems,
        cache=cache,
    )
    if out.capped:
        raise EnvelopeError(
            f"weight-{k} first-failure search capped at {out.cleared} "
            f"(< n_max={n_max}) by the work envelope"
        )
    return out.n


@dataclass
class BreakpointTable:
    """Exact HD bands for one polynomial -- one column of Table 1.

    ``first_failure[k]`` maps each weight to its first failing length
    (``None`` = no failure found).  ``cleared[k]`` is the length
    through which weight ``k`` is *verified* failure-free when no
    failure was found -- equal to ``n_max`` for complete scans,
    smaller when the work envelope capped a high-weight probe (those
    cells never bind the HD anyway, but :meth:`hd_at` refuses to
    overstate the sentinel band).  ``bands`` lists ``(hd, n_lo, n_hi)``
    with ``n_hi = None`` for the final open band.
    """

    g: int
    n_max: int
    first_failure: dict[int, int | None] = field(default_factory=dict)
    cleared: dict[int, int] = field(default_factory=dict)

    @property
    def bands(self) -> list[tuple[int, int, int | None]]:
        """HD bands ``(hd, n_lo, n_hi)`` covering ``r+1 .. n_max``.

        The minimum representable data-word length is 1; bands start at
        the smallest length where the HD is defined by our table
        (lengths below the smallest recorded failure get the sentinel
        HD ``max(k)+1``, rendered by callers as ">=k+1").
        """
        fails = sorted(
            (n, k) for k, n in self.first_failure.items() if n is not None
        )
        bands: list[tuple[int, int, int | None]] = []
        pos = 1
        best = max(self.first_failure) + 1  # "better than all tested k"
        for n, k in fails:
            if k >= best:
                continue  # a later, higher-weight failure never lowers HD
            if n > pos:
                bands.append((best, pos, n - 1))
            pos = n
            best = k
        bands.append((best, pos, None))
        return bands

    def _cleared_for(self, k: int) -> int:
        return self.cleared.get(k, self.n_max)

    def hd_at(self, n: int) -> int:
        """HD at data-word length ``n`` (must be <= n_max).  Raises
        :class:`EnvelopeError` if an envelope-capped weight could bind
        at this length (never the case for the weights that matter in
        practice, since low weights always complete)."""
        if n > self.n_max:
            raise ValueError(f"table only covers lengths through {self.n_max}")
        best = max(self.first_failure) + 1
        for k, fn in self.first_failure.items():
            if fn is not None and fn <= n and k < best:
                best = k
        for k, fn in self.first_failure.items():
            if k < best and fn is None and self._cleared_for(k) < n:
                raise EnvelopeError(
                    f"weight {k} only verified through {self._cleared_for(k)} "
                    f"bits; HD at {n} cannot be stated exactly"
                )
        return best

    def max_length_for(self, hd: int) -> int | None:
        """Largest length *verified* to have HD >= hd: ``None`` if HD <
        hd even at length 1, ``n_max`` when the guarantee extends
        through the whole table.  Envelope-capped weights below ``hd``
        conservatively clamp the answer to their cleared length."""
        limit = self.n_max
        for k, fn in self.first_failure.items():
            if k >= hd:
                continue
            if fn is not None:
                limit = min(limit, fn - 1)
            else:
                limit = min(limit, self._cleared_for(k))
        if limit < 1:
            return None
        return limit


def hd_breakpoint_table(
    g: int,
    *,
    hd_max: int = 6,
    n_max: int = 131072,
    exploit_parity: bool = True,
    mem_elems: int = DEFAULT_MEM_ELEMS,
    stream_elems: int = DEFAULT_STREAM_ELEMS,
) -> BreakpointTable:
    """Compute a polynomial's exact breakpoint table (one Table 1
    column) for weights ``2 .. hd_max`` through length ``n_max``.

    Cost note: the expensive cells are weight-4 first-failures beyond
    ~16K bits (minutes); everything else is seconds.  Choose ``hd_max``
    / ``n_max`` to taste -- e.g. Figure 1 uses hd_max=8 with modest
    lengths, the full Table 1 needs ``REPRO_FULL``-sized envelopes.
    """
    table = BreakpointTable(g=g, n_max=n_max)
    cache = SpanCache(g)  # one LFSR sweep feeds every weight's probes
    for k in range(2, hd_max + 1):
        out = first_failure_detailed(
            g, k,
            n_max=n_max,
            exploit_parity=exploit_parity,
            mem_elems=mem_elems,
            stream_elems=stream_elems,
            cache=cache,
        )
        table.first_failure[k] = out.n
        if out.n is None:
            table.cleared[k] = out.cleared
    return table


def max_length_for_hd(
    g: int,
    hd: int,
    *,
    n_max: int = 131072,
    exploit_parity: bool = True,
    mem_elems: int = DEFAULT_MEM_ELEMS,
    stream_elems: int = DEFAULT_STREAM_ELEMS,
) -> int | None:
    """Largest data-word length at which ``g`` still guarantees the
    requested HD: ``min_k<hd f(k) - 1`` (None if unachievable even at
    length 1; ``n_max`` if it holds through the whole range).

    >>> from repro.gf2.notation import koopman_to_full
    >>> max_length_for_hd(koopman_to_full(0x82608EDB), 5, n_max=4000)
    2974
    """
    limit = n_max
    cache = SpanCache(g)
    for k in range(2, hd):
        fn = first_failure_length(
            g, k,
            n_max=limit,
            exploit_parity=exploit_parity,
            mem_elems=mem_elems,
            stream_elems=stream_elems,
            cache=cache,
        )
        if fn is not None:
            limit = min(limit, fn - 1)
            if limit < 1:
                return None
    return limit


def _refute_weights(
    g: int,
    hd: int,
    N: int,
    syn: "np.ndarray",
    *,
    witness_window: int = 400,
    mem_elems: int = DEFAULT_MEM_ELEMS,
    stream_elems: int = DEFAULT_STREAM_ELEMS,
    k_min: int = 3,
) -> tuple[int, tuple[int, ...]] | None:
    """The ascending-``k`` refutation loop over weights
    ``k_min .. hd-1``, given a ready length-``N`` syndrome table.

    Shared between :func:`refute_hd_at` (from ``k_min=3``) and the
    packed screening backend, whose vectorized kernels handle the
    weights below ``k_min`` and delegate the tail here.
    """
    for k in range(k_min, hd):
        if k % 2 == 1 and divisible_by_x_plus_1(g):
            continue
        try:
            witness = windowed_witness(
                g, N, k, window=min(witness_window, N), syn=syn
            )
        except EnvelopeError:
            witness = None
        if witness is None:
            if exists_weight_k(
                g, N, k, syn=syn, mem_elems=mem_elems, stream_elems=stream_elems
            ):
                witness = find_witness(
                    g, N, k, syn=syn, mem_elems=mem_elems, stream_elems=stream_elems
                )
        if witness is not None:
            return k, witness
    return None


def refute_hd_at(
    g: int,
    hd: int,
    data_word_bits: int,
    *,
    witness_window: int = 400,
    mem_elems: int = DEFAULT_MEM_ELEMS,
    stream_elems: int = DEFAULT_STREAM_ELEMS,
    syn: "np.ndarray | None" = None,
) -> tuple[int, tuple[int, ...]] | None:
    """Inverse filtering: try to *refute* "HD >= hd at this length" by
    exhibiting an undetected error of weight < hd.

    Returns ``(weight, positions)`` of a verified witness, or ``None``
    if no such error exists (i.e. the HD claim stands -- exact).

    This mirrors the paper's use of fast early-out runs at long
    lengths to prove upper bounds on achievable HD: a witness is a
    constructive proof that the HD is not achieved.

    ``syn`` may carry a previously computed syndrome table for ``g``
    (any length); it is extended -- not rebuilt -- to the ``N`` this
    call needs, which is what lets the filter cascade pay the LFSR
    cost of each prefix once across all its lengths.
    """
    r = degree(g)
    N = data_word_bits + r
    order = order_of_x(g)
    if order <= N - 1:
        return 2, (0, order)
    if syn is None:
        syn = syndrome_table(g, N)
    elif len(syn) != N:
        syn = extend_syndrome_table(g, syn, N)
    return _refute_weights(
        g,
        hd,
        N,
        syn,
        witness_window=witness_window,
        mem_elems=mem_elems,
        stream_elems=stream_elems,
    )


def increasing_length_filter(
    candidates: list[int],
    lengths: list[int],
    hd_target: int,
    *,
    mem_elems: int = DEFAULT_MEM_ELEMS,
    stream_elems: int = DEFAULT_STREAM_ELEMS,
) -> tuple[list[int], list[tuple[int, int]]]:
    """The paper's filter cascade: screen candidate polynomials for
    "HD >= hd_target" at each length in ascending order, discarding
    failures before moving to the (more expensive) next length.

    Returns ``(survivors, stage_counts)`` where ``stage_counts`` is
    ``[(length, survivors_after_stage), ...]`` -- the measurement the
    §4.1 discussion is about (most candidates die cheaply at short
    lengths).

    Each surviving candidate carries its syndrome table (and its
    order of ``x``) from stage to stage: ascending lengths *extend*
    the table rather than rebuild it, so the LFSR cost of each prefix
    is paid once per candidate, and killed candidates release their
    tables immediately.  Peak memory is ``8 * (n_last + r)`` bytes per
    candidate still alive at the final length.
    """
    lengths = sorted(lengths)
    survivors = list(candidates)
    stage_counts: list[tuple[int, int]] = []
    syn_by_g: dict[int, "np.ndarray"] = {}
    order_by_g: dict[int, int] = {}
    for n in lengths:
        still: list[int] = []
        for g in survivors:
            N = n + degree(g)
            order = order_by_g.get(g)
            if order is None:
                order = order_by_g[g] = order_of_x(g)
            if order <= N - 1:
                refuted = True
            else:
                syn = syn_by_g.get(g)
                syn = (
                    syndrome_table(g, N)
                    if syn is None
                    else extend_syndrome_table(g, syn, N)
                )
                syn_by_g[g] = syn
                refuted = _refute_weights(
                    g, hd_target, N, syn,
                    mem_elems=mem_elems, stream_elems=stream_elems,
                ) is not None
            if refuted:
                syn_by_g.pop(g, None)
                order_by_g.pop(g, None)
            else:
                still.append(g)
        survivors = still
        stage_counts.append((n, len(survivors)))
        if not survivors:
            break
    return survivors, stage_counts
