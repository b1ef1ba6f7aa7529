"""SAX substrate: Symbolic Aggregate approXimation for shape series.

Implements the paper's recognition core — "standardising this time
series, apply piecewise aggregation to reduce dimensionality and
converting the aggregate to a string of characters" — plus the
rotation-invariant matcher and the string database it compares against.
"""

from repro.sax.breakpoints import MAX_ALPHABET, MIN_ALPHABET, gaussian_breakpoints
from repro.sax.database import MatchResult, SignDatabase, SignEntry
from repro.sax.distance import (
    euclidean_distance,
    mindist,
    paa_distance,
    symbol_distance_table,
)
from repro.sax.encoder import SaxEncoder, SaxParameters, SaxWord
from repro.sax.matching import (
    ShiftMatch,
    best_shift_euclidean,
    best_shift_mindist,
)
from repro.sax.normalize import is_constant, z_normalize
from repro.sax.paa import paa, paa_inverse
from repro.sax.tuning import (
    HarmonySearchConfig,
    TuningResult,
    grid_search,
    harmony_search,
)

__all__ = [
    "MAX_ALPHABET",
    "MIN_ALPHABET",
    "gaussian_breakpoints",
    "MatchResult",
    "SignDatabase",
    "SignEntry",
    "euclidean_distance",
    "mindist",
    "paa_distance",
    "symbol_distance_table",
    "SaxEncoder",
    "SaxParameters",
    "SaxWord",
    "ShiftMatch",
    "best_shift_euclidean",
    "best_shift_mindist",
    "is_constant",
    "z_normalize",
    "paa",
    "paa_inverse",
    "HarmonySearchConfig",
    "TuningResult",
    "grid_search",
    "harmony_search",
]
