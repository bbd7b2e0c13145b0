"""Tests for Q16.16 fixed-point arithmetic."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kml import fixedpoint as fx
from repro.kml import mathops
from repro.kml.matrix import Matrix
from repro.readahead.model import build_network

# Values that stay well inside the representable range under mul.
small_reals = st.floats(min_value=-100.0, max_value=100.0)


class TestConversion:
    def test_round_trip_within_eps(self):
        values = np.array([0.0, 1.0, -1.0, 0.5, 3.14159, -2.71828])
        back = fx.from_fixed(fx.to_fixed(values))
        assert np.abs(back - values).max() <= fx.FX_EPS

    def test_saturation_positive(self):
        raw = fx.to_fixed(1e9)
        assert raw == fx.FX_MAX

    def test_saturation_negative(self):
        assert fx.to_fixed(-1e9) == fx.FX_MIN

    def test_nan_maps_to_zero(self):
        assert fx.to_fixed(float("nan")) == 0

    def test_from_int(self):
        assert fx.from_fixed(fx.fx_from_int(7)) == 7.0

    @given(small_reals)
    @settings(max_examples=200, deadline=None)
    def test_property_round_trip(self, value):
        back = float(fx.from_fixed(fx.to_fixed(value)))
        assert abs(back - value) <= fx.FX_EPS


class TestArithmetic:
    def test_add(self):
        a, b = fx.to_fixed(1.5), fx.to_fixed(2.25)
        assert fx.from_fixed(fx.fx_add(a, b)) == 3.75

    def test_add_saturates(self):
        assert fx.fx_add(fx.FX_MAX, fx.to_fixed(1.0)) == fx.FX_MAX

    def test_sub(self):
        a, b = fx.to_fixed(1.0), fx.to_fixed(2.5)
        assert fx.from_fixed(fx.fx_sub(a, b)) == -1.5

    def test_neg_of_min_saturates(self):
        assert fx.fx_neg(fx.FX_MIN) == fx.FX_MAX

    def test_mul(self):
        a, b = fx.to_fixed(3.0), fx.to_fixed(-2.5)
        assert fx.from_fixed(fx.fx_mul(a, b)) == pytest.approx(-7.5, abs=1e-4)

    def test_div(self):
        a, b = fx.to_fixed(7.5), fx.to_fixed(2.5)
        assert fx.from_fixed(fx.fx_div(a, b)) == pytest.approx(3.0, abs=1e-4)

    def test_div_by_zero_saturates(self):
        assert fx.fx_div(fx.to_fixed(1.0), 0) == fx.FX_MAX
        assert fx.fx_div(fx.to_fixed(-1.0), 0) == fx.FX_MIN
        assert fx.fx_div(0, 0) == 0

    def test_div_matches_float_quotient(self):
        """The integer quotient equals the float64 formula it replaced.

        Truncating ``(a << 16) / b`` in float64 is exact because the
        numerator stays below 2**53; random int32 pairs cover the full
        range, log-spaced denominators the unsaturated quotients.
        """

        def float_div(a, b):
            num = np.asarray(a, np.int64) << fx.FRAC_BITS
            den = np.asarray(b, np.int64)
            zero_den = den == 0
            quotient = (num / np.where(zero_den, 1, den)).astype(np.int64)
            quotient = np.where(
                zero_den,
                np.where(num > 0, int(fx.FX_MAX), np.where(num < 0, int(fx.FX_MIN), 0)),
                quotient,
            )
            return fx._saturate(quotient)

        rng = np.random.default_rng(11)
        lo, hi = int(fx.FX_MIN), int(fx.FX_MAX)
        for _ in range(8):
            a = rng.integers(lo, hi, size=250_000, endpoint=True)
            b = rng.integers(lo, hi, size=250_000, endpoint=True)
            magnitude = np.exp2(rng.uniform(0, 31, b.size)).astype(np.int64)
            for den in (b, np.where(b < 0, -magnitude, magnitude)):
                np.testing.assert_array_equal(fx.fx_div(a, den), float_div(a, den))
        extremes = np.array([lo, lo + 1, -(1 << 16), -1, 0, 1, 1 << 16, hi - 1, hi])
        a, b = np.meshgrid(extremes, extremes)
        np.testing.assert_array_equal(fx.fx_div(a, b), float_div(a, b))

    @given(small_reals, small_reals)
    @settings(max_examples=200, deadline=None)
    def test_property_mul_close_to_real(self, a, b):
        got = float(fx.from_fixed(fx.fx_mul(fx.to_fixed(a), fx.to_fixed(b))))
        assert got == pytest.approx(a * b, abs=0.01)

    @given(small_reals, small_reals)
    @settings(max_examples=200, deadline=None)
    def test_property_add_commutes(self, a, b):
        fa, fb = fx.to_fixed(a), fx.to_fixed(b)
        assert fx.fx_add(fa, fb) == fx.fx_add(fb, fa)


class TestMatmul:
    def test_matches_float_matmul(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(-2, 2, size=(4, 6))
        b = rng.uniform(-2, 2, size=(6, 3))
        got = fx.from_fixed(fx.fx_matmul(fx.to_fixed(a), fx.to_fixed(b)))
        np.testing.assert_allclose(got, a @ b, atol=0.01)

    def test_identity(self):
        a = fx.to_fixed(np.array([[1.25, -2.5], [0.75, 3.0]]))
        eye = fx.to_fixed(np.eye(2))
        np.testing.assert_array_equal(fx.fx_matmul(a, eye), a)

    def test_accumulation_precision(self):
        # 1000 terms of 0.001 * 1.0: per-term shifting would lose bits.
        a = fx.to_fixed(np.full((1, 1000), 0.001))
        b = fx.to_fixed(np.ones((1000, 1)))
        got = fx.from_fixed(fx.fx_matmul(a, b)).item()
        assert got == pytest.approx(1.0, abs=0.02)


class TestSum:
    @pytest.mark.parametrize("axis", [None, 0, 1])
    def test_matches_decoded_float_sum(self, axis):
        """Integer accumulation equals the float64 decode-sum-encode path."""
        rng = np.random.default_rng(5)
        lo, hi = int(fx.FX_MIN), int(fx.FX_MAX)
        cases = [
            rng.integers(-(1 << 20), 1 << 20, size=(7, 9)),
            rng.integers(lo, hi, size=(64, 33), endpoint=True),
            np.full((5, 4), lo),
            np.full((5, 4), hi),
            np.array([[hi, 1], [lo, -1], [hi, lo]]),
        ]
        for raw in cases:
            raw = raw.astype(np.int32)
            expected = fx.to_fixed(fx.from_fixed(raw).sum(axis=axis, keepdims=True))
            np.testing.assert_array_equal(fx.fx_sum(raw, axis=axis), expected)
            got = Matrix.from_raw(raw, "fixed32").sum(axis=axis).raw
            np.testing.assert_array_equal(got, expected)


def float_path_sigmoid(raw):
    """The decode -> kml_sigmoid -> encode path the table must reproduce."""
    return fx.to_fixed(mathops.kml_sigmoid(fx.from_fixed(np.asarray(raw, np.int64))))


class TestSigmoidTable:
    def test_table_shape_and_range(self):
        table = fx.sigmoid_table()
        assert table.dtype == np.uint16
        assert len(table) == fx.SIGMOID_LAST + 2
        assert table[0] == fx.SCALE // 2 and table[-1] == 0
        assert fx.sigmoid_table() is table  # built once
        assert not table.flags.writeable

    def test_exhaustive_against_float_path(self):
        edge = fx.SIGMOID_LAST + 2
        for lo in range(-edge, edge + 1, 1 << 16):
            raw = np.arange(lo, min(lo + (1 << 16), edge + 1), dtype=np.int64)
            np.testing.assert_array_equal(
                fx.fx_sigmoid(raw.astype(np.int32)), float_path_sigmoid(raw)
            )

    def test_int32_extremes(self):
        lo, hi = int(fx.FX_MIN), int(fx.FX_MAX)
        raw = np.array([lo, lo + 1, -(1 << 24), 1 << 24, hi - 1, hi], dtype=np.int32)
        got = fx.fx_sigmoid(raw)
        np.testing.assert_array_equal(got, float_path_sigmoid(raw))
        np.testing.assert_array_equal(got, [0, 0, 0, fx.SCALE, fx.SCALE, fx.SCALE])

    @given(st.integers(int(fx.FX_MIN), int(fx.FX_MAX)))
    @settings(max_examples=300, deadline=None)
    def test_property_int32_sweep(self, value):
        raw = np.array([[value]], dtype=np.int32)
        got = fx.fx_sigmoid(raw)
        assert got.dtype == np.int32 and got.shape == (1, 1)
        np.testing.assert_array_equal(got, float_path_sigmoid(raw))

    def test_fixed32_inference_uses_no_float_path(self, monkeypatch):
        """Once the table exists, fixed32 inference never decodes."""
        network = build_network(dtype="fixed32", rng=np.random.default_rng(0))
        row = np.array([[0.3, -1.2, 0.8, 2.5, -0.1]])
        fx.sigmoid_table()
        expected = network.predict_classes(row)

        def forbidden(*args, **kwargs):
            raise AssertionError("fixed32 inference reached the float path")

        monkeypatch.setattr(mathops, "kml_sigmoid", forbidden)
        monkeypatch.setattr(fx, "from_fixed", forbidden)
        np.testing.assert_array_equal(network.predict_classes(row), expected)
