"""Time-series z-normalisation.

SAX (Lin/Keogh) assumes the input series has zero mean and unit variance
before discretisation against Gaussian breakpoints; the paper's pipeline
"standardises" the contour time-series for exactly this reason — it also
removes scale, so the same sign seen closer or further away maps to the
same word.
"""

from __future__ import annotations

import numpy as np

__all__ = ["z_normalize", "is_constant"]

# Below this standard deviation the series is treated as constant: the
# SAX literature's usual guard against amplifying quantisation noise.
FLAT_STD_THRESHOLD = 1e-8


def is_constant(series: np.ndarray, threshold: float = FLAT_STD_THRESHOLD) -> bool:
    """Return ``True`` when the series is (numerically) constant."""
    values = np.asarray(series, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("expected a 1-D series")
    if len(values) == 0:
        raise ValueError("series must be non-empty")
    return float(values.std()) < threshold


def z_normalize(series: np.ndarray, flat_std_threshold: float = FLAT_STD_THRESHOLD) -> np.ndarray:
    """Return the series scaled to zero mean and unit variance.

    A (numerically) constant series is returned as all zeros rather than
    dividing by a vanishing standard deviation.
    """
    values = np.asarray(series, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError("expected a 1-D series")
    if len(values) == 0:
        raise ValueError("series must be non-empty")
    # ``(values - values.mean()) / values.std()`` with the mean and the
    # centred series computed once: the same sums, divisions and square
    # root as those two reductions perform.
    n = len(values)
    centred = values - values.sum() / n
    std = float(np.sqrt((centred * centred).sum() / n))
    if std < flat_std_threshold:
        return np.zeros_like(values)
    return centred / std
