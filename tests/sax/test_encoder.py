"""Tests for breakpoints, SAX words and the encoder."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sax import (
    MAX_ALPHABET,
    MIN_ALPHABET,
    SaxEncoder,
    SaxParameters,
    SaxWord,
    gaussian_breakpoints,
)


class TestBreakpoints:
    def test_binary_alphabet(self):
        assert np.allclose(gaussian_breakpoints(2), [0.0])

    def test_monotonic_and_symmetric(self):
        for size in range(2, 16):
            bp = gaussian_breakpoints(size)
            assert len(bp) == size - 1
            assert np.all(np.diff(bp) > 0)
            assert np.allclose(bp, -bp[::-1], atol=1e-6)

    def test_tabulated_matches_scipy(self):
        from scipy.stats import norm

        for size in (3, 5, 8, 10):
            bp = gaussian_breakpoints(size)
            expected = [norm.ppf(i / size) for i in range(1, size)]
            assert np.allclose(bp, expected, atol=1e-6)

    def test_equiprobable_cells(self):
        # A large standard normal sample lands uniformly across cells.
        rng = np.random.default_rng(0)
        sample = rng.normal(0, 1, 200_000)
        bp = gaussian_breakpoints(6)
        counts = np.histogram(sample, bins=np.concatenate([[-np.inf], bp, [np.inf]]))[0]
        assert np.allclose(counts / len(sample), 1 / 6, atol=0.01)

    def test_bounds(self):
        with pytest.raises(ValueError):
            gaussian_breakpoints(1)
        with pytest.raises(ValueError):
            gaussian_breakpoints(MAX_ALPHABET + 1)


class TestSaxParameters:
    def test_validation(self):
        with pytest.raises(ValueError):
            SaxParameters(word_length=0)
        with pytest.raises(ValueError):
            SaxParameters(alphabet_size=1)
        with pytest.raises(ValueError):
            SaxParameters(alphabet_size=30)


class TestSaxWord:
    def params(self):
        return SaxParameters(word_length=4, alphabet_size=4)

    def test_validation(self):
        with pytest.raises(ValueError):
            SaxWord("abc", self.params())  # wrong length
        with pytest.raises(ValueError):
            SaxWord("abcz", self.params())  # symbol outside alphabet

    def test_indices(self):
        word = SaxWord("abcd", self.params())
        assert word.indices().tolist() == [0, 1, 2, 3]

    def test_rotation(self):
        word = SaxWord("abcd", self.params())
        assert word.rotated(1).symbols == "bcda"
        assert word.rotated(4).symbols == "abcd"
        assert word.rotated(-1).symbols == "dabc"

    def test_hamming(self):
        a = SaxWord("abcd", self.params())
        b = SaxWord("abdd", self.params())
        assert a.hamming_distance(b) == 1
        assert a.hamming_distance(a) == 0

    def test_hamming_incompatible(self):
        a = SaxWord("abcd", self.params())
        c = SaxWord("abcd", SaxParameters(word_length=4, alphabet_size=5))
        with pytest.raises(ValueError):
            a.hamming_distance(c)


class TestSaxEncoder:
    def test_word_length_and_alphabet(self):
        encoder = SaxEncoder(SaxParameters(word_length=8, alphabet_size=4))
        word = encoder.encode(np.sin(np.linspace(0, 2 * np.pi, 64)))
        assert len(word) == 8
        assert set(word.symbols) <= set("abcd")

    def test_sine_wave_structure(self):
        # Rising half gets high symbols, falling half low ones.
        encoder = SaxEncoder(SaxParameters(word_length=4, alphabet_size=4))
        word = encoder.encode(np.sin(np.linspace(0, 2 * np.pi, 128, endpoint=False)))
        assert word.symbols[1] == "d"  # peak quarter
        assert word.symbols[3] == "a"  # trough quarter

    def test_constant_series_central_symbols(self):
        encoder = SaxEncoder(SaxParameters(word_length=4, alphabet_size=4))
        word = encoder.encode(np.full(32, 5.0))
        # Zeros after z-norm fall in one of the two central cells.
        assert set(word.symbols) <= {"b", "c"}

    def test_shift_scale_invariance(self):
        encoder = SaxEncoder(SaxParameters(word_length=8, alphabet_size=6))
        base = np.sin(np.linspace(0, 4 * np.pi, 100))
        assert encoder.encode(base).symbols == encoder.encode(5 * base + 100).symbols

    def test_series_shorter_than_word_raises(self):
        encoder = SaxEncoder(SaxParameters(word_length=16, alphabet_size=4))
        with pytest.raises(ValueError):
            encoder.encode(np.arange(8.0))

    def test_default_parameters(self):
        encoder = SaxEncoder()
        assert encoder.parameters.word_length == 32
        assert encoder.parameters.alphabet_size == 6

    @given(
        st.lists(
            st.floats(min_value=-100, max_value=100, allow_nan=False),
            min_size=32,
            max_size=200,
        )
    )
    def test_symbols_always_in_alphabet(self, values):
        encoder = SaxEncoder(SaxParameters(word_length=8, alphabet_size=5))
        word = encoder.encode(np.array(values))
        assert set(word.symbols) <= set("abcde")

    def test_paa_of_matches_encode(self):
        encoder = SaxEncoder(SaxParameters(word_length=8, alphabet_size=6))
        series = np.cos(np.linspace(0, 3, 64))
        reduced = encoder.paa_of(series)
        assert encoder.word_from_paa(reduced).symbols == encoder.encode(series).symbols

    def test_word_from_paa_rejects_wrong_length(self):
        encoder = SaxEncoder(SaxParameters(word_length=8, alphabet_size=6))
        with pytest.raises(ValueError, match="does not match word length"):
            encoder.word_from_paa(np.zeros(7))
        with pytest.raises(ValueError, match="does not match word length"):
            encoder.word_from_paa(np.zeros((2, 8)))


class TestWordFromPaaBreakpoints:
    """``word_from_paa`` spells each PAA value as the number of
    breakpoints at or below it: a value on a breakpoint takes the upper
    symbol."""

    @pytest.mark.parametrize("alphabet_size", range(MIN_ALPHABET, MAX_ALPHABET + 1))
    def test_symbols_count_breakpoints_at_or_below(self, alphabet_size):
        rng = np.random.default_rng(alphabet_size)
        breakpoints = gaussian_breakpoints(alphabet_size)
        # Values on, just below and just above every breakpoint, plus
        # random draws.
        edges = np.concatenate(
            [breakpoints, np.nextafter(breakpoints, -np.inf), np.nextafter(breakpoints, np.inf)]
        )
        values = np.concatenate([edges, rng.normal(0.0, 1.5, 64), [0.0, -50.0, 50.0]])
        rng.shuffle(values)
        word_length = 8
        values = values[: len(values) - len(values) % word_length]
        encoder = SaxEncoder(SaxParameters(word_length=word_length, alphabet_size=alphabet_size))
        for reduced in values.reshape(-1, word_length):
            expected = [int((breakpoints <= value).sum()) for value in reduced]
            assert encoder.word_from_paa(reduced).indices().tolist() == expected
        on_breakpoints = SaxEncoder(
            SaxParameters(word_length=alphabet_size - 1, alphabet_size=alphabet_size)
        ).word_from_paa(breakpoints)
        assert on_breakpoints.indices().tolist() == list(range(1, alphabet_size))
