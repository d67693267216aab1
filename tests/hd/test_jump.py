"""The jump engine: random access vs linear tables, and breakpoint
identity against the collect-all reference.

Two layers of guarantees:

* ``syndrome_at`` / ``syndrome_window`` (``x_pow_mod`` jump + local
  LFSR) must equal slices of ``syndrome_table`` /
  ``extend_syndrome_table`` at arbitrary lengths -- the LFSR sweep
  and square-and-multiply are independent computations of the same
  sequence.
* ``first_failure_jump`` (windowed probes + span bisection) must give
  the same ``(n, cleared, capped)`` as probing every geometric window
  with ``minimal_codeword_span`` -- the engine it replaced.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gf2.poly import degree, divisible_by_x_plus_1
from repro.gf2.order import order_of_x
from repro.hd.breakpoints import (
    FirstFailure,
    first_failure_detailed,
    first_failure_length,
    max_length_for_hd,
)
from repro.hd.cost import EnvelopeError, max_affordable_window
from repro.hd.jump import (
    SpanCache,
    first_failure_jump,
    refine_span,
    syndrome_at,
    syndrome_window,
)
from repro.hd.mitm import minimal_codeword_span
from repro.hd.syndromes import extend_syndrome_table, syndrome_table
from tests.conftest import envelope


@st.composite
def odd_polys(draw, min_degree=3, max_degree=20):
    r = draw(st.integers(min_value=min_degree, max_value=max_degree))
    interior = draw(st.integers(min_value=0, max_value=(1 << r) - 1))
    return (1 << r) | interior | 1


class TestRandomAccess:
    @given(odd_polys(max_degree=32), st.integers(min_value=0, max_value=5000))
    @settings(max_examples=60, deadline=None)
    def test_syndrome_at_matches_table(self, g, n):
        table = syndrome_table(g, n + 1)
        assert syndrome_at(g, n) == int(table[n])

    @given(
        odd_polys(max_degree=32),
        st.integers(min_value=0, max_value=10**7),
        st.integers(min_value=0, max_value=64),
    )
    @settings(max_examples=60, deadline=None)
    def test_window_matches_extended_table(self, g, start, count):
        window = syndrome_window(g, start, count)
        assert window.dtype == np.uint64
        if start + count <= 20000:
            table = syndrome_table(g, start + count)
            np.testing.assert_array_equal(window, table[start:])
        else:
            # Too far to sweep linearly in a test: check the endpoints
            # against the jump itself (tested against the sweep above).
            for i in (0, count - 1) if count else ():
                assert int(window[i]) == syndrome_at(g, start + i)

    @given(odd_polys(), st.integers(min_value=1, max_value=400),
           st.integers(min_value=1, max_value=400))
    @settings(max_examples=40, deadline=None)
    def test_span_cache_extends_not_rebuilds(self, g, n1, n2):
        cache = SpanCache(g)
        t1 = cache.table(n1)
        t2 = cache.table(n2)
        assert len(t2) >= max(n1, n2)
        np.testing.assert_array_equal(
            t2[: max(n1, n2)], syndrome_table(g, max(n1, n2))
        )


def reference_first_failure(g, k, *, n_max):
    """The engine first_failure_jump replaced: identical geometric
    schedule, collect-all span scan at every window, under the
    envelope in force."""
    r = degree(g)
    n_limit = n_max + r
    affordable = max_affordable_window(k)
    if k >= 12:
        window, growth = max(2 * k, r + 8), 1.25
    elif k >= 9:
        window, growth = max(2 * k, r + 8), 1.5
    else:
        window, growth = max(64, 2 * k, r + 2), 2.0
    cleared = 0
    while True:
        capped_here = window >= min(affordable, n_limit) and affordable < n_limit
        window = min(window, affordable, n_limit)
        if window - r <= cleared and cleared > 0:
            return None, cleared, True
        try:
            span = minimal_codeword_span(g, window, k)
        except EnvelopeError:
            return None, cleared, True
        if span is not None:
            n = span - r
            if n <= n_max:
                return n, n - 1, False
            return None, n_max, False
        cleared = max(window - r, 0)
        if window >= n_limit:
            return None, min(cleared, n_max), False
        if capped_here:
            return None, cleared, True
        window = int(window * growth) + 1


class TestFirstFailureIdentity:
    @given(
        odd_polys(max_degree=14),
        st.integers(min_value=3, max_value=6),
        st.sampled_from([100, 400, 1500]),
    )
    @settings(max_examples=30, deadline=None)
    def test_matches_collect_all_reference(self, g, k, n_max):
        with envelope(MEM_ELEMS=10**6, STREAM_ELEMS=10**8):
            ref = reference_first_failure(g, k, n_max=n_max)
            out = first_failure_jump(g, k, n_max=n_max)
        assert out == ref

    @given(
        odd_polys(max_degree=14),
        st.integers(min_value=5, max_value=9),
        st.sampled_from([2000, 20000]),
        st.sampled_from([2000, 50_000]),
    )
    @settings(max_examples=20, deadline=None)
    def test_matches_reference_when_capped(self, g, k, n_max, mem):
        with envelope(MEM_ELEMS=mem, STREAM_ELEMS=200_000):
            ref = reference_first_failure(g, k, n_max=n_max)
            out = first_failure_jump(g, k, n_max=n_max)
        assert out == ref

    def test_crc32_doctest_values_hold(self):
        from repro.gf2.notation import koopman_to_full

        g = koopman_to_full(0x82608EDB)
        assert first_failure_length(g, 4, n_max=4000) == 2975
        assert max_length_for_hd(g, 5, n_max=4000) == 2974

    def test_shared_cache_changes_nothing(self):
        g = 0b10110111001
        cache = SpanCache(g)
        for k in (3, 4, 5):
            alone = first_failure_detailed(g, k, n_max=500)
            shared = first_failure_detailed(g, k, n_max=500, cache=cache)
            assert alone == shared

    def test_k2_is_order_based(self):
        g = 0b101011  # (x+1)(x^4+x^3+1): order 15
        r = degree(g)
        out = first_failure_detailed(g, 2, n_max=100)
        assert out == FirstFailure(order_of_x(g) + 1 - r, 100)
        with pytest.raises(ValueError):
            first_failure_jump(g, 2, n_max=100)


class TestRefineSpan:
    @given(odd_polys(min_degree=4, max_degree=12))
    @settings(max_examples=30, deadline=None)
    def test_refined_span_is_minimal(self, g):
        # Find any weight-3 window hit, then check refine_span against
        # the collect-all answer at the same window.
        if divisible_by_x_plus_1(g):
            return
        k, window = 3, 300
        syn = syndrome_table(g, window)
        span = minimal_codeword_span(g, window, k, syn=syn)
        if span is None:
            return
        refined = refine_span(g, k, window, k - 1, syn)
        assert refined == span


class TestIncreasingLengthFilter:
    def test_matches_per_length_refutation(self):
        # The scalar screen threads one syndrome table through its
        # lengths; survivors and per-length kills must equal
        # independent per-length refutations.
        from tests.hd.test_breakpoints import per_length_refutation, scalar_cascade

        candidates = [(1 << 8) | (i << 1) | 1 for i in range(0, 128, 5)]
        lengths = [16, 40, 90]
        assert scalar_cascade(candidates, lengths, 4) == per_length_refutation(
            candidates, lengths, 4
        )
