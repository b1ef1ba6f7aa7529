"""Tests for rotation-invariant circular-shift matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sax import (
    SaxEncoder,
    SaxParameters,
    best_shift_euclidean,
    best_shift_mindist,
    euclidean_distance,
    z_normalize,
)

series_strategy = arrays(
    dtype=np.float64,
    shape=64,
    elements=st.floats(min_value=-100, max_value=100, allow_nan=False),
)


class TestBestShiftEuclidean:
    def test_recovers_known_shift(self):
        base = np.sin(np.linspace(0, 2 * np.pi, 128, endpoint=False)) + 0.3 * np.cos(
            np.linspace(0, 6 * np.pi, 128, endpoint=False)
        )
        rolled = np.roll(base, 37)
        match = best_shift_euclidean(rolled, base)
        assert match.shift == 37
        assert match.distance == pytest.approx(0.0, abs=1e-9)

    def test_identical_series(self):
        series = np.random.default_rng(0).normal(size=64)
        match = best_shift_euclidean(series, series)
        assert match.shift == 0
        assert match.distance == pytest.approx(0.0, abs=1e-9)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            best_shift_euclidean(np.zeros(8), np.zeros(9))

    @settings(max_examples=40, deadline=None)
    @given(series_strategy, st.integers(min_value=0, max_value=63))
    def test_shift_invariance_property(self, series, shift):
        """d(rot(a, s), a) == 0 for every s — the rotation invariance the
        paper requires of the recogniser."""
        match = best_shift_euclidean(np.roll(series, shift), series)
        assert match.distance == pytest.approx(0.0, abs=1e-6)

    @settings(max_examples=40, deadline=None)
    @given(series_strategy, series_strategy)
    def test_never_exceeds_fixed_phase(self, a, b):
        best = best_shift_euclidean(a, b).distance
        fixed = euclidean_distance(z_normalize(a), z_normalize(b))
        assert best <= fixed + 1e-6

    @settings(max_examples=30, deadline=None)
    @given(series_strategy, series_strategy)
    def test_symmetry(self, a, b):
        ab = best_shift_euclidean(a, b).distance
        ba = best_shift_euclidean(b, a).distance
        assert ab == pytest.approx(ba, abs=1e-6)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=32), rng.normal(size=32)
        an, bn = z_normalize(a), z_normalize(b)
        brute = min(
            euclidean_distance(an, np.roll(bn, -s)) for s in range(32)
        )
        fft = best_shift_euclidean(a, b).distance
        assert fft == pytest.approx(brute, abs=1e-9)


class TestBestShiftMindist:
    def encoder(self):
        return SaxEncoder(SaxParameters(word_length=16, alphabet_size=6))

    def test_rotated_word_matches(self):
        enc = self.encoder()
        base = np.sin(np.linspace(0, 2 * np.pi, 64, endpoint=False))
        word = enc.encode(base)
        rotated = word.rotated(5)
        match = best_shift_mindist(word, rotated, 64)
        assert match.distance == pytest.approx(0.0, abs=1e-9)

    def test_every_rotation_matches_at_its_shift(self):
        enc = self.encoder()
        word = enc.encode(np.random.default_rng(4).normal(size=64).cumsum())
        for shift in range(16):
            match = best_shift_mindist(word.rotated(shift), word, 64)
            assert match.distance == 0.0
            assert match.shift == shift

    def test_scales_with_series_length(self):
        """MINDIST scales by sqrt(n / w): one word pair read as a series
        four times longer is twice as far apart."""
        enc = self.encoder()
        rng = np.random.default_rng(5)
        a, b = enc.encode(rng.normal(size=64)), enc.encode(rng.normal(size=64))
        short, long = best_shift_mindist(a, b, 64), best_shift_mindist(a, b, 256)
        assert short.distance > 0.0
        assert long.distance == pytest.approx(2.0 * short.distance, rel=1e-12)
        assert long.shift == short.shift

    def test_incompatible_parameters(self):
        a = SaxEncoder(SaxParameters(8, 6)).encode(np.arange(64.0))
        b = SaxEncoder(SaxParameters(8, 4)).encode(np.arange(64.0))
        with pytest.raises(ValueError):
            best_shift_mindist(a, b, 64)

    @settings(max_examples=30, deadline=None)
    @given(series_strategy, series_strategy)
    def test_symmetric_distance(self, a, b):
        """Swapping the words mirrors the best shift, not the distance."""
        enc = self.encoder()
        wa, wb = enc.encode(a), enc.encode(b)
        ab, ba = best_shift_mindist(wa, wb, 64), best_shift_mindist(wb, wa, 64)
        assert ab.distance == pytest.approx(ba.distance, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(series_strategy, series_strategy)
    def test_lower_bounds_best_aligned_shift_euclidean(self, a, b):
        """Word-level best-shift MINDIST lower-bounds the exact distance
        at the best *word-aligned* shift (whole PAA segments, 64/16
        samples each).  It does not lower-bound the best-shift distance
        over every sample shift: a shift of part of a segment can bring
        the series close while their words stay far apart."""
        enc = self.encoder()
        bound = best_shift_mindist(enc.encode(a), enc.encode(b), 64).distance
        za, zb = z_normalize(a), z_normalize(b)
        aligned = min(euclidean_distance(za, np.roll(zb, -s * (64 // 16))) for s in range(16))
        assert bound <= aligned + 1e-9
