"""Tests for z-normalisation."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.sax import is_constant, z_normalize

series_strategy = arrays(
    dtype=np.float64,
    shape=st.integers(min_value=2, max_value=256),
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
)


class TestZNormalize:
    def test_basic(self):
        out = z_normalize(np.array([1.0, 2.0, 3.0]))
        assert out.mean() == pytest.approx(0.0, abs=1e-12)
        assert out.std() == pytest.approx(1.0)

    def test_constant_series_becomes_zero(self):
        out = z_normalize(np.full(16, 7.3))
        assert np.allclose(out, 0.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            z_normalize(np.array([]))

    def test_2d_raises(self):
        with pytest.raises(ValueError):
            z_normalize(np.zeros((3, 3)))

    def test_shift_and_scale_invariance(self):
        base = np.sin(np.linspace(0, 7, 100))
        assert np.allclose(z_normalize(base), z_normalize(3.0 * base + 10.0))

    @given(series_strategy)
    def test_output_statistics(self, series):
        out = z_normalize(series)
        if is_constant(series):
            assert np.allclose(out, 0.0)
        else:
            assert out.mean() == pytest.approx(0.0, abs=1e-6)
            assert out.std() == pytest.approx(1.0, rel=1e-6)

    @given(series_strategy)
    def test_bit_identical_to_mean_and_std(self, series):
        """One centring pass gives the bytes of ``(x - x.mean()) / x.std()``."""
        std = float(series.std())
        expected = np.zeros_like(series) if std < 1e-8 else (series - series.mean()) / std
        assert z_normalize(series).tobytes() == expected.tobytes()

    def test_bit_identical_on_long_and_flat_series(self):
        rng = np.random.default_rng(3)
        for n in (1, 7, 256, 1000, 20000):
            for series in (rng.normal(size=n) * 1e3 + 5.0, np.full(n, 0.25)):
                std = float(series.std())
                expected = np.zeros_like(series) if std < 1e-8 else (series - series.mean()) / std
                assert z_normalize(series).tobytes() == expected.tobytes()

    @given(series_strategy)
    def test_idempotent(self, series):
        once = z_normalize(series)
        twice = z_normalize(once)
        assert np.allclose(once, twice, atol=1e-9)


class TestIsConstant:
    def test_detects_constant(self):
        assert is_constant(np.full(8, 2.5))
        assert not is_constant(np.array([1.0, 2.0]))

    def test_threshold(self):
        nearly = np.full(8, 1.0)
        nearly[0] += 1e-12
        assert is_constant(nearly)
