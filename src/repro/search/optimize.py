"""Length-customized polynomial selection -- the paper's closing idea.

    "The availability of a more efficient search capability ... opens
    up the possibility of identifying optimal polynomials that are
    customized to the particular message lengths of specific
    applications and special-purpose communication networks."

:func:`best_for_length` turns that into an API: exhaustively determine
the best achievable HD at a given message length for a given CRC
width, and return the polynomials that achieve it -- optionally ranked
the way the paper ranks (fewest undetected errors at the first
non-zero weight, then fewest feedback taps).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hd.weights import weight_profile
from repro.search.census import fewest_taps
from repro.search.exhaustive import SearchConfig, search_all


@dataclass(frozen=True)
class OptimizationResult:
    """Outcome of a best-polynomial-for-length search."""

    width: int
    data_word_bits: int
    best_hd: int
    achievers: tuple[int, ...]          # all polynomials achieving best_hd
    ranked: tuple[int, ...]             # achievers, best first
    candidates_examined: int

    @property
    def winner(self) -> int:
        """The top-ranked polynomial."""
        return self.ranked[0]


def rank_achievers(
    polys: list[int], data_word_bits: int, hd: int
) -> list[int]:
    """Rank polynomials that share the same HD at a length.

    Primary key: the first non-zero weight's value (lower = fewer
    undetected errors at the critical weight -- Castagnoli's
    "optimal (lowest-weight at the lowest HD)" criterion quoted in
    §3).  Secondary: fewer feedback taps (the paper's hardware
    criterion).  Tertiary: numeric value, for determinism.

    Only weights up to 4 are counted exactly (the library's counting
    envelope); for HD > 4 codes the critical-weight key is skipped and
    tap count leads -- matching the paper, which likewise found exact
    weights of HD=6 survivors impractical.
    """
    def key(p: int):
        if hd <= 4:
            w = weight_profile(p, data_word_bits, 4).get(hd, 0)
            return (w, p.bit_count(), p)
        return (0, p.bit_count(), p)

    return sorted(polys, key=key)


def best_for_length(
    width: int,
    data_word_bits: int,
    *,
    hd_ceiling: int = 10,
    confirm_weights: bool = False,
) -> OptimizationResult:
    """Exhaustively find the best achievable HD at ``data_word_bits``
    for CRCs of the given ``width``, and the polynomials achieving it.

    Walks candidate HD targets downward; the first target with
    survivors is optimal (HD targets are nested: achieving HD=h
    implies achieving every lower target).  Practical for widths
    through ~12-14 on one CPU -- the paper's point is precisely that
    width 32 needs a campaign (:mod:`repro.dist`).

    >>> res = best_for_length(8, 50)
    >>> res.best_hd
    4
    """
    if width > 16:
        raise ValueError(
            "exhaustive optimization beyond width 16 needs the "
            "distributed campaign (repro.dist)"
        )
    examined_total = 0
    for target in range(hd_ceiling, 2, -1):
        cfg = SearchConfig.for_bits(
            width, target, data_word_bits, confirm_weights=confirm_weights
        )
        result = search_all(cfg)
        examined_total += result.examined
        if result.survivors:
            achievers = tuple(sorted(r.poly for r in result.survivors))
            ranked = tuple(
                rank_achievers(list(achievers), data_word_bits, target)
            )
            return OptimizationResult(
                width=width,
                data_word_bits=data_word_bits,
                best_hd=target,
                achievers=achievers,
                ranked=ranked,
                candidates_examined=examined_total,
            )
    # Every polynomial detects single-bit errors: HD >= 2 always.
    from repro.search.space import canonical_candidates

    achievers = tuple(canonical_candidates(width))
    return OptimizationResult(
        width=width,
        data_word_bits=data_word_bits,
        best_hd=2,
        achievers=achievers,
        ranked=tuple(fewest_taps(list(achievers), len(achievers))),
        candidates_examined=examined_total,
    )
