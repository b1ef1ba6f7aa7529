"""Rotation-invariant matching of shape series.

The paper requires the recognition to be *rotation invariant* ("the
drone will not be stationary vis-à-vis its communication partner").  A
rotation of the silhouette — or an arbitrary starting pixel of the
contour trace — circularly shifts the shape's time-series.  Following
the shape-motif literature (Xi, Keogh et al. [21]), we therefore define
the distance between two shapes as the minimum over all circular shifts.

Two matchers are provided:

* :func:`best_shift_euclidean` — exact, on the raw (z-normalised) series;
* :func:`best_shift_mindist` — on SAX words, using the MINDIST lower
  bound per shift; cheap because words are short.

The exact best-shift Euclidean distance is the rotation-invariant
distance, and the sign database
(:meth:`repro.sax.database.SignDatabase.classify`) scores every
reference view with it.  The word-level best-shift MINDIST does not
lower-bound it (it bounds only the word-aligned shifts), so it serves
the SAX word-uniqueness check, not classification.

The sign database's batched engine scores queries against its view
stack through :func:`_shift_surface`, bit-identical to the scalar
matcher: same operations, same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.sax.distance import symbol_distance_table
from repro.sax.encoder import SaxWord
from repro.sax.normalize import z_normalize

__all__ = [
    "ShiftMatch",
    "best_shift_euclidean",
    "best_shift_mindist",
]


@dataclass(frozen=True, slots=True)
class ShiftMatch:
    """Result of a circular-shift match: the distance and the best shift."""

    distance: float
    shift: int


def _shift_surface(
    spectra: np.ndarray,
    ref_rfft_conj: np.ndarray,
    totals: np.ndarray,
    n: int,
) -> np.ndarray:
    """Shared FFT core of the batched Euclidean matchers.

    Evaluates ``|q_b - rot(r_v, s)|^2 = totals[b, v] - 2 * xcorr`` for
    every (query, view, shift) triple.

    Parameters
    ----------
    spectra:
        ``(B, n//2+1)`` rFFTs of the z-normalised queries.
    ref_rfft_conj:
        ``(V, n//2+1)`` conjugated rFFTs of the z-normalised references.
    totals:
        ``(B, V)`` matrix of ``|q_b|^2 + |r_v|^2``.

    Returns the ``(B, V, n)`` squared-distance shift surface, clamped
    at zero.  Every element is bit-identical to the scalar
    :func:`best_shift_euclidean`'s — same operations in the same order
    (broadcast multiply, not einsum: einsum's complex product is not
    bit-identical to ``*``).  The square root of its minimum over the
    shift axis is the best-shift distance (a minimum is exact, so it
    equals the element at the argmin).
    """
    corr = np.fft.irfft(spectra[:, None, :] * ref_rfft_conj[None, :, :], n=n, axis=2)
    corr *= 2.0
    sq = np.subtract(totals[:, :, None], corr, out=corr)
    np.maximum(sq, 0.0, out=sq)
    return sq


@lru_cache(maxsize=32)
def _rotation_indices(word_length: int) -> np.ndarray:
    """Return the ``(w, w)`` index matrix of all circular shifts.

    Row ``s`` equals ``np.roll(np.arange(w), -s)``, so ``word[rot]``
    materialises every rotation of a word in one strided gather.
    """
    base = np.arange(word_length)
    rot = (base[None, :] + base[:, None]) % word_length
    rot.setflags(write=False)
    return rot


def best_shift_euclidean(series_a: np.ndarray, series_b: np.ndarray) -> ShiftMatch:
    """Return the minimum Euclidean distance over all circular shifts of *b*.

    Both series are z-normalised first.  Implemented with the FFT-based
    circular cross-correlation identity::

        |a - rot(b, s)|^2 = |a|^2 + |b|^2 - 2 * xcorr(a, b)[s]

    so the whole sweep costs ``O(n log n)``.
    """
    a = z_normalize(np.asarray(series_a, dtype=np.float64))
    b = z_normalize(np.asarray(series_b, dtype=np.float64))
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    n = len(a)
    # Circular cross-correlation via FFT.
    corr = np.fft.irfft(np.fft.rfft(a) * np.conj(np.fft.rfft(b)), n=n)
    sq = float((a * a).sum() + (b * b).sum()) - 2.0 * corr
    sq = np.maximum(sq, 0.0)
    best = int(np.argmin(sq))
    return ShiftMatch(distance=float(np.sqrt(sq[best])), shift=best)


def best_shift_mindist(word_a: SaxWord, word_b: SaxWord, series_length: int) -> ShiftMatch:
    """Return the minimum MINDIST over all circular shifts of *word_b*.

    Word-level shifts have granularity ``series_length / word_length``
    raw samples; this is the coarse, cheap stage of the matcher.  All
    ``w`` rotations are materialised at once through the precomputed
    strided index matrix, so the sweep is a single table gather rather
    than ``w`` rolls.
    """
    if word_a.parameters != word_b.parameters:
        raise ValueError("words were produced with different SAX parameters")
    params = word_a.parameters
    table = symbol_distance_table(params.alphabet_size)
    ia = word_a.indices()
    ib = word_b.indices()
    w = params.word_length
    scale = np.sqrt(series_length / w)
    rolled = ib[_rotation_indices(w)]  # (w, w): row s == np.roll(ib, -s)
    sq = (table[ia[None, :], rolled] ** 2).sum(axis=1)
    best = int(np.argmin(sq))
    return ShiftMatch(distance=float(scale * np.sqrt(sq[best])), shift=best)
