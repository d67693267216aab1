"""Chunking must never change answers -- property tests over the MITM
engine's streaming parameters."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hd import mitm
from repro.hd.mitm import exists_weight_k, find_witness, minimal_codeword_span
from repro.hd.syndromes import syndrome_of_positions
from tests.conftest import envelope

gen_polys = st.integers(min_value=0b100101, max_value=(1 << 11) - 1).filter(
    lambda p: p & 1
)
chunks = st.sampled_from([1, 3, 17, 64, 1 << 22])


class TestChunkInvariance:
    @given(gen_polys, st.integers(min_value=8, max_value=40),
           st.integers(min_value=3, max_value=6), chunks)
    @settings(max_examples=150, deadline=None)
    def test_exists_invariant(self, g, N, k, chunk):
        baseline = exists_weight_k(g, N, k)
        with envelope(mitm, CHUNK_ELEMS=chunk):
            assert exists_weight_k(g, N, k) == baseline

    @given(gen_polys, st.integers(min_value=8, max_value=30),
           st.integers(min_value=3, max_value=5), chunks)
    @settings(max_examples=100, deadline=None)
    def test_span_invariant(self, g, N, k, chunk):
        baseline = minimal_codeword_span(g, N, k)
        with envelope(mitm, CHUNK_ELEMS=chunk):
            assert minimal_codeword_span(g, N, k) == baseline

    @given(gen_polys, st.integers(min_value=8, max_value=30),
           st.integers(min_value=3, max_value=5), chunks)
    @settings(max_examples=100, deadline=None)
    def test_witness_validity_invariant(self, g, N, k, chunk):
        # witnesses may differ across chunkings, but existence must
        # agree and every returned witness must verify
        w_base = find_witness(g, N, k)
        with envelope(mitm, CHUNK_ELEMS=chunk):
            w_chunk = find_witness(g, N, k)
        assert (w_base is None) == (w_chunk is None)
        if w_chunk is not None:
            assert len(w_chunk) == k
            assert syndrome_of_positions(g, w_chunk) == 0
