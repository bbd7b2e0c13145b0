"""Tests for the from-scratch math approximations."""

import ast

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kml import fixedpoint, mathops

from ..conftest import STRESS


class TestExp:
    def test_matches_numpy_on_range(self):
        x = np.linspace(-50, 50, 2001)
        rel_err = np.abs(mathops.kml_exp(x) - np.exp(x)) / np.exp(x)
        assert rel_err.max() < 1e-8

    def test_zero(self):
        assert mathops.kml_exp(0.0) == pytest.approx(1.0)

    def test_clamps_large_inputs(self):
        assert np.isfinite(mathops.kml_exp(1e6))
        assert mathops.kml_exp(-1e6) > 0.0

    def test_scalar_and_array_agree(self):
        arr = mathops.kml_exp(np.array([1.5]))
        scalar = mathops.kml_exp(1.5)
        assert float(arr[0]) == pytest.approx(float(scalar))

    @given(st.floats(min_value=-60, max_value=60))
    @settings(max_examples=200, deadline=None)
    def test_property_positive_and_monotone_step(self, x):
        y = float(mathops.kml_exp(x))
        assert y > 0
        assert float(mathops.kml_exp(x + 0.5)) > y


class TestLog:
    def test_matches_numpy(self):
        x = np.logspace(-10, 10, 2001)
        assert np.abs(mathops.kml_log(x) - np.log(x)).max() < 1e-9

    def test_log_one_is_zero(self):
        assert mathops.kml_log(1.0) == pytest.approx(0.0, abs=1e-12)

    def test_log_zero_is_neg_inf(self):
        assert mathops.kml_log(0.0) == -np.inf

    def test_log_negative_is_nan(self):
        assert np.isnan(mathops.kml_log(-1.0))

    @given(st.floats(min_value=1e-6, max_value=1e6))
    @settings(max_examples=200, deadline=None)
    def test_property_inverse_of_exp(self, x):
        assert float(mathops.kml_exp(mathops.kml_log(x))) == pytest.approx(
            x, rel=1e-7
        )


class TestSigmoid:
    def test_matches_reference(self):
        x = np.linspace(-40, 40, 2001)
        ref = 1.0 / (1.0 + np.exp(-x))
        assert np.abs(mathops.kml_sigmoid(x) - ref).max() < 1e-9

    def test_midpoint(self):
        assert mathops.kml_sigmoid(0.0) == pytest.approx(0.5)

    def test_saturation_no_overflow(self):
        assert mathops.kml_sigmoid(1000.0) == pytest.approx(1.0)
        assert mathops.kml_sigmoid(-1000.0) == pytest.approx(0.0)

    @given(st.floats(min_value=-100, max_value=100))
    @settings(max_examples=200, deadline=None)
    def test_property_symmetry(self, x):
        s = float(mathops.kml_sigmoid(x))
        s_neg = float(mathops.kml_sigmoid(-x))
        assert s + s_neg == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= s <= 1.0


class TestTanhSqrt:
    def test_tanh_matches(self):
        x = np.linspace(-20, 20, 1001)
        assert np.abs(mathops.kml_tanh(x) - np.tanh(x)).max() < 1e-8

    def test_sqrt_matches(self):
        x = np.linspace(0.0, 1e8, 1001)
        assert np.abs(mathops.kml_sqrt(x) - np.sqrt(x)).max() < 1e-4

    def test_sqrt_zero(self):
        assert mathops.kml_sqrt(0.0) == 0.0

    def test_sqrt_negative_is_nan(self):
        assert np.isnan(mathops.kml_sqrt(-4.0))

    @given(st.floats(min_value=1e-8, max_value=1e12))
    @settings(max_examples=200, deadline=None)
    def test_property_sqrt_squares_back(self, x):
        root = float(mathops.kml_sqrt(x))
        assert root * root == pytest.approx(x, rel=1e-9)


class TestSoftmax:
    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(8, 5)) * 10
        s = mathops.kml_softmax(x, axis=1)
        np.testing.assert_allclose(s.sum(axis=1), 1.0, rtol=1e-10)

    def test_matches_reference(self):
        x = np.array([[1.0, 2.0, 3.0]])
        e = np.exp(x - x.max())
        np.testing.assert_allclose(
            mathops.kml_softmax(x, axis=1), e / e.sum(), rtol=1e-7
        )

    def test_stability_large_logits(self):
        s = mathops.kml_softmax(np.array([[1000.0, 1000.0]]))
        np.testing.assert_allclose(s, [[0.5, 0.5]])

    def test_log_softmax_consistent(self):
        x = np.random.default_rng(1).normal(size=(4, 6))
        np.testing.assert_allclose(
            mathops.kml_softmax_and_log(x, axis=1)[1],
            np.log(mathops.kml_softmax(x, axis=1)),
            atol=1e-9,
        )

    def test_shift_invariance(self):
        x = np.array([[1.0, 2.0, 3.0]])
        np.testing.assert_allclose(
            mathops.kml_softmax(x), mathops.kml_softmax(x + 100.0), atol=1e-12
        )


def _same_bits(a, b) -> bool:
    """Equal shapes, NaN in the same places and every other value the
    same float64 bits (so -0.0 differs from 0.0)."""
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or not np.array_equal(np.isnan(a), np.isnan(b)):
        return False
    keep = ~np.isnan(a)
    return np.array_equal(a[keep].view(np.uint64), b[keep].view(np.uint64))


#: Values where the kernels branch or round: signed zeros, infinities,
#: NaN, the exp clamp, where float sigmoid saturates (11.78), and
#: subnormals of both widths.
EDGES = [
    0.0, -0.0, np.inf, -np.inf, np.nan, 80.0, -80.0, 11.78, -11.78,
    5e-324, -5e-324, 1e-310, 1e-45, -1e-45, 1e-40,
]
ROW_EXAMPLES = 1000 if STRESS else 200


def _rows(dtype):
    """1 x (1..17) rows of ``dtype``: edges, values in the range where
    rounding differences show, and arbitrary floats."""
    width = np.finfo(dtype).bits
    element = st.one_of(
        st.sampled_from(EDGES),
        st.floats(-40.0, 40.0, width=width),
        st.floats(width=width),
    )
    return st.lists(element, min_size=1, max_size=17).map(
        lambda values: np.array([values], dtype=np.float64).astype(dtype)
    )


rows = st.sampled_from([np.float32, np.float64]).flatmap(_rows)


class TestSingleRowPaths:
    """The Python-float paths for small rows (sigmoid up to 16 values,
    softmax of one row under 8) give the array path's bits."""

    @given(rows)
    @settings(max_examples=ROW_EXAMPLES, deadline=None)
    def test_sigmoid_equals_the_array_path(self, row):
        # Past 16 values the whole row takes the array path.
        padded = np.concatenate([row, np.zeros_like(row, shape=(1, 17))], axis=1)
        with np.errstate(all="ignore"):
            small, wide = mathops.kml_sigmoid(row), mathops.kml_sigmoid(padded)
        assert _same_bits(small, wide[:, : row.shape[1]])

    @given(rows, st.sampled_from(EDGES) | st.floats())
    @settings(max_examples=ROW_EXAMPLES, deadline=None)
    def test_softmax_and_log_equals_a_batch_row(self, row, other):
        with np.errstate(all="ignore"):
            batch = np.concatenate([row, np.full_like(row, other)])
            one = mathops.kml_softmax_and_log(row, axis=1)
            two = mathops.kml_softmax_and_log(batch, axis=1)
        assert _same_bits(one[0], two[0][:1])
        assert _same_bits(one[1], two[1][:1])

    def test_scalar_log_equals_kml_log(self):
        values = EDGES + [-1.0, 0.5, 1.0, 7.0, 1e300]
        for v in values + np.logspace(-300, 300, 601).tolist():
            expected = mathops.kml_log(np.array([v]))[0]
            assert _same_bits(mathops._log_float(v), expected), v

    def test_the_small_rows_take_the_float_path(self, monkeypatch):
        """Guards the property tests above against comparing the array
        path with itself: a small row never reaches the array exp."""
        def no_array_exp(x):
            raise AssertionError("array exp on a small row")

        monkeypatch.setattr(mathops, "_exp_clamped", no_array_exp)
        monkeypatch.setattr(mathops, "kml_exp", no_array_exp)
        row = np.linspace(-3.0, 3.0, 16).reshape(1, -1)
        mathops.kml_sigmoid(row)
        mathops.kml_softmax_and_log(row[:, :7], axis=1)
        with pytest.raises(AssertionError):
            mathops.kml_sigmoid(np.zeros((1, 17)))
        with pytest.raises(AssertionError):
            mathops.kml_softmax_and_log(row[:, :8], axis=1)


class TestLibmFree:
    """mathops builds its kernels from +, -, *, / and frexp/ldexp only.

    ``**`` and the builtin ``pow`` count as libm: CPython computes a
    float power with the C library's ``pow``.
    """

    FORBIDDEN = {
        "exp", "expm1", "log", "log1p", "log2", "tanh", "sqrt", "power", "float_power",
    }

    def _violations(self, source: str) -> list:
        found = []
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
                found.append("**")
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "pow"
            ):
                found.append("pow()")
            elif isinstance(node, ast.Import):
                found += [a.name for a in node.names if a.name == "math"]
            elif isinstance(node, ast.ImportFrom):
                if node.module == "math":
                    found.append("from math import")
                elif node.module == "numpy":
                    found += [a.name for a in node.names if a.name in self.FORBIDDEN]
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
                and node.func.attr in self.FORBIDDEN
            ):
                found.append(f"{node.func.value.id}.{node.func.attr}")
        return found

    def test_mathops_calls_no_libm(self):
        with open(mathops.__file__) as f:
            assert self._violations(f.read()) == []

    @pytest.mark.parametrize(
        "snippet",
        [
            "import math",
            "from math import exp",
            "from numpy import log1p",
            "y = np.exp(x)",
            "np.sqrt(2.0)",
            "y = 2.0 ** k",
            "y **= 0.5",
            "y = pow(x, 3)",
            "y = np.float_power(x, 2)",
            "from numpy import float_power",
        ],
    )
    def test_guard_catches(self, snippet):
        assert self._violations(snippet)


class TestFixedpointIntegerOnly:
    """The fixed32 arithmetic kernels divide only with ``//`` and use no
    float literal, the way FPU-free kernel code must."""

    KERNELS = {
        "_saturate",
        "fx_add",
        "fx_sub",
        "fx_neg",
        "fx_mul",
        "fx_div",
        "fx_matmul",
        "fx_sum",
        "fx_sigmoid",
    }

    def _violations(self, source: str) -> list:
        found = []
        for func in ast.walk(ast.parse(source)):
            if not (isinstance(func, ast.FunctionDef) and func.name in self.KERNELS):
                continue
            for node in ast.walk(func):
                if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
                    node.op, ast.Div
                ):
                    found.append(f"{func.name}: true division")
                elif isinstance(node, ast.Constant) and isinstance(node.value, float):
                    found.append(f"{func.name}: float literal {node.value!r}")
                elif (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")
                    and node.attr in ("divide", "true_divide", "float32", "float64")
                ):
                    found.append(f"{func.name}: np.{node.attr}")
        return found

    def test_fixedpoint_kernels_are_integer_only(self):
        with open(fixedpoint.__file__) as f:
            source = f.read()
        tree = ast.parse(source)
        defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
        assert self.KERNELS <= defined
        assert self._violations(source) == []

    @pytest.mark.parametrize(
        "snippet",
        [
            "def fx_div(a, b):\n    return a / b",
            "def fx_mul(a, b):\n    a /= b",
            "def _saturate(x):\n    return x * 0.5",
            "def fx_sum(a):\n    return np.divide(a, 2)",
            "def fx_sigmoid(a):\n    return a.astype(np.float64)",
        ],
    )
    def test_guard_catches(self, snippet):
        assert self._violations(snippet)

    def test_guard_ignores_other_functions(self):
        assert self._violations("def to_fixed(v):\n    return v * 65536.0 / 1.0") == []
