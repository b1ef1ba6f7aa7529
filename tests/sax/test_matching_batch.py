"""Parity tests: batched matchers vs the scalar reference matchers.

The batched kernels promise *bit-identical* results to the scalar path
— same operations in the same order — so every assertion here is exact
equality, not approximate.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sax import (
    ShiftMatchBatch,
    best_shift_euclidean,
    best_shift_euclidean_batch,
    z_normalize,
)

series_strategy = arrays(
    dtype=np.float64,
    shape=64,
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
)


def ref_stack(rng, views: int = 7, n: int = 64) -> np.ndarray:
    return rng.normal(size=(views, n))


class TestBestShiftEuclideanBatch:
    def test_bit_identical_to_scalar(self):
        rng = np.random.default_rng(0)
        refs = ref_stack(rng, views=11, n=128)
        query = rng.normal(size=128)
        batch = best_shift_euclidean_batch(query, refs)
        for v in range(len(refs)):
            assert batch[v] == best_shift_euclidean(query, refs[v])

    @settings(max_examples=25, deadline=None)
    @given(series_strategy, st.integers(min_value=1, max_value=6))
    def test_bit_identical_property(self, query, views):
        rng = np.random.default_rng(views)
        refs = ref_stack(rng, views=views, n=64)
        batch = best_shift_euclidean_batch(query, refs)
        for v in range(views):
            assert batch[v] == best_shift_euclidean(query, refs[v])

    def test_precomputed_transforms_identical(self):
        """The cached-FFT fast path equals the from-scratch path bitwise."""
        rng = np.random.default_rng(1)
        refs = ref_stack(rng, views=9, n=256)
        query = rng.normal(size=256)
        normalized_refs = np.stack([z_normalize(row) for row in refs])
        cached = best_shift_euclidean_batch(
            z_normalize(query),
            normalized_refs,
            ref_rfft_conj=np.conj(np.fft.rfft(normalized_refs, axis=1)),
            ref_sq_norms=(normalized_refs * normalized_refs).sum(axis=1),
            normalized=True,
        )
        plain = best_shift_euclidean_batch(query, refs)
        assert np.array_equal(cached.distances, plain.distances)
        assert np.array_equal(cached.shifts, plain.shifts)

    def test_recovers_known_shifts(self):
        base = np.sin(np.linspace(0, 2 * np.pi, 128, endpoint=False)) + 0.3 * np.cos(
            np.linspace(0, 6 * np.pi, 128, endpoint=False)
        )
        shifts = [3, 37, 100]
        refs = np.stack([np.roll(base, -s) for s in shifts])
        batch = best_shift_euclidean_batch(base, refs)
        assert list(batch.shifts) == shifts
        assert np.allclose(batch.distances, 0.0, atol=1e-9)

    def test_empty_reference_stack(self):
        batch = best_shift_euclidean_batch(np.arange(8.0), np.empty((0, 8)))
        assert len(batch) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            best_shift_euclidean_batch(np.zeros((2, 8)), np.zeros((3, 8)))
        with pytest.raises(ValueError):
            best_shift_euclidean_batch(np.zeros(8), np.zeros(8))
        with pytest.raises(ValueError):
            best_shift_euclidean_batch(np.zeros(8), np.zeros((3, 9)))


class TestShiftMatchBatch:
    def test_indexing_and_len(self):
        batch = ShiftMatchBatch(
            distances=np.array([1.0, 2.0]), shifts=np.array([3, 4])
        )
        assert len(batch) == 2
        assert batch[1].distance == 2.0
        assert batch[1].shift == 4

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ShiftMatchBatch(distances=np.zeros(2), shifts=np.zeros(3, dtype=int))
