"""The SAX encoder: series → word.

Combines z-normalisation, PAA and Gaussian-breakpoint discretisation
into the pipeline the paper describes: "standardising this time series,
apply piecewise aggregation to reduce dimensionality and converting the
aggregate to a string of characters".
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sax.breakpoints import MAX_ALPHABET, MIN_ALPHABET, gaussian_breakpoints
from repro.sax.normalize import z_normalize
from repro.sax.paa import paa

__all__ = ["SaxParameters", "SaxWord", "SaxEncoder"]

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True, slots=True)
class SaxParameters:
    """The two knobs of SAX: word length (PAA segments) and alphabet size.

    The paper cites tuning these ([22]); :mod:`repro.sax.tuning` searches
    this space.
    """

    word_length: int = 32
    alphabet_size: int = 6

    def __post_init__(self) -> None:
        if self.word_length < 1:
            raise ValueError("word length must be >= 1")
        if not MIN_ALPHABET <= self.alphabet_size <= MAX_ALPHABET:
            raise ValueError(
                f"alphabet size must be in [{MIN_ALPHABET}, {MAX_ALPHABET}]"
            )


@dataclass(frozen=True)
class SaxWord:
    """A SAX word: the symbol string plus the parameters that produced it."""

    symbols: str
    parameters: SaxParameters

    def __post_init__(self) -> None:
        if len(self.symbols) != self.parameters.word_length:
            raise ValueError(
                f"word has {len(self.symbols)} symbols but parameters say "
                f"{self.parameters.word_length}"
            )
        limit = self.parameters.alphabet_size
        for ch in self.symbols:
            idx = _ALPHABET.find(ch)
            if idx < 0 or idx >= limit:
                raise ValueError(f"symbol {ch!r} outside alphabet of size {limit}")

    def __len__(self) -> int:
        return len(self.symbols)

    def __str__(self) -> str:
        return self.symbols

    def indices(self) -> np.ndarray:
        """Return the word as integer symbol indices."""
        return np.frombuffer(self.symbols.encode("ascii"), dtype=np.uint8) - ord("a")

    def rotated(self, shift: int) -> "SaxWord":
        """Return the word circularly shifted by *shift* symbols.

        A rotation of the underlying shape corresponds (approximately) to
        a circular shift of its SAX word; the matcher exploits this.
        """
        n = len(self.symbols)
        shift %= n
        return SaxWord(self.symbols[shift:] + self.symbols[:shift], self.parameters)

    def hamming_distance(self, other: "SaxWord") -> int:
        """Return the number of differing symbol positions."""
        self._check_compatible(other)
        return sum(1 for a, b in zip(self.symbols, other.symbols) if a != b)

    def _check_compatible(self, other: "SaxWord") -> None:
        if self.parameters != other.parameters:
            raise ValueError("words were produced with different SAX parameters")


class SaxEncoder:
    """Encodes 1-D series into SAX words.

    Parameters
    ----------
    parameters:
        Word length and alphabet size (see :class:`SaxParameters`).

    Examples
    --------
    >>> import numpy as np
    >>> encoder = SaxEncoder(SaxParameters(word_length=4, alphabet_size=4))
    >>> word = encoder.encode(np.sin(np.linspace(0, 2 * np.pi, 64)))
    >>> len(word.symbols)
    4
    """

    def __init__(self, parameters: SaxParameters | None = None) -> None:
        self.parameters = parameters if parameters is not None else SaxParameters()
        self._breakpoints = gaussian_breakpoints(self.parameters.alphabet_size)

    def encode(self, series: np.ndarray) -> SaxWord:
        """Encode a series: z-normalise → PAA → discretise → word."""
        values = np.asarray(series, dtype=np.float64)
        if values.ndim != 1:
            raise ValueError("expected a 1-D series")
        if len(values) < self.parameters.word_length:
            raise ValueError(
                f"series of length {len(values)} shorter than word length "
                f"{self.parameters.word_length}"
            )
        normalized = z_normalize(values)
        reduced = paa(normalized, self.parameters.word_length)
        return self.word_from_paa(reduced)

    def word_from_paa(self, reduced: np.ndarray) -> SaxWord:
        """Discretise an already-PAA-reduced (normalised) series."""
        if len(reduced) != self.parameters.word_length:
            raise ValueError("PAA series length does not match word length")
        indices = np.searchsorted(self._breakpoints, reduced, side="right")
        symbols = "".join(_ALPHABET[i] for i in indices)
        return SaxWord(symbols, self.parameters)

    def paa_of(self, series: np.ndarray) -> np.ndarray:
        """Return the normalised PAA reduction (pre-discretisation view).

        Exposed for Figure-4-style series comparisons and for MINDIST,
        which can optionally work from the PAA representation.
        """
        values = np.asarray(series, dtype=np.float64)
        normalized = z_normalize(values)
        return paa(normalized, self.parameters.word_length)
