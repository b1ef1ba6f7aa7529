"""Distances between SAX words and between series.

``MINDIST`` is the classic SAX lower bound on the Euclidean distance of
the original (z-normalised) series: two words whose MINDIST is large
cannot come from similar series, so words can be told apart without
touching raw data (the word-uniqueness check of
``benchmarks/bench_sign_uniqueness.py``).  The lower-bounding property is verified by a
hypothesis test in ``tests/sax/test_distance.py``.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from repro.sax.breakpoints import gaussian_breakpoints
from repro.sax.encoder import SaxParameters, SaxWord

__all__ = ["symbol_distance_table", "mindist", "euclidean_distance", "paa_distance"]


@lru_cache(maxsize=None)
def symbol_distance_table(alphabet_size: int) -> np.ndarray:
    """Return the ``dist()`` lookup table between symbol indices.

    ``table[i, j]`` is zero for adjacent or equal symbols, and otherwise
    the gap between the closest breakpoints of the two symbols' cells —
    the construction from Lin et al. that makes MINDIST a lower bound.

    The table is cached per alphabet size (the matcher consults it once
    per reference view per query) and returned read-only so cached
    instances cannot be corrupted in place.
    """
    breakpoints = gaussian_breakpoints(alphabet_size)
    table = np.zeros((alphabet_size, alphabet_size), dtype=np.float64)
    for i in range(alphabet_size):
        for j in range(alphabet_size):
            if abs(i - j) <= 1:
                continue
            hi, lo = max(i, j), min(i, j)
            table[i, j] = breakpoints[hi - 1] - breakpoints[lo]
    table.setflags(write=False)
    return table


def mindist(word_a: SaxWord, word_b: SaxWord, series_length: int) -> float:
    """Return the MINDIST lower bound between two SAX words.

    Parameters
    ----------
    series_length:
        Length ``n`` of the original series; MINDIST scales by
        ``sqrt(n / w)`` to stay comparable with raw Euclidean distance.
    """
    if word_a.parameters != word_b.parameters:
        raise ValueError("words were produced with different SAX parameters")
    params: SaxParameters = word_a.parameters
    if series_length < params.word_length:
        raise ValueError("series length must be >= word length")
    table = symbol_distance_table(params.alphabet_size)
    ia, ib = word_a.indices(), word_b.indices()
    cell = table[ia, ib]
    scale = math.sqrt(series_length / params.word_length)
    return scale * float(np.sqrt((cell**2).sum()))


def euclidean_distance(series_a: np.ndarray, series_b: np.ndarray) -> float:
    """Return the plain Euclidean distance between two equal-length series."""
    a = np.asarray(series_a, dtype=np.float64)
    b = np.asarray(series_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


def paa_distance(paa_a: np.ndarray, paa_b: np.ndarray, series_length: int) -> float:
    """Return the PAA-space lower-bound distance (Keogh's DR measure)."""
    a = np.asarray(paa_a, dtype=np.float64)
    b = np.asarray(paa_b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    if series_length < len(a):
        raise ValueError("series length must be >= number of segments")
    scale = math.sqrt(series_length / len(a))
    return scale * float(np.linalg.norm(a - b))
