"""Tests for the Matrix type across all three element types."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.kml import fixedpoint
from repro.kml.matrix import DTYPES, Matrix, kernels, set_alloc_observer

ALL_DTYPES = list(DTYPES)

small_matrices = arrays(
    np.float64,
    shape=st.tuples(st.integers(1, 5), st.integers(1, 5)),
    elements=st.floats(min_value=-50, max_value=50),
)


@pytest.fixture(params=ALL_DTYPES)
def dtype(request):
    return request.param


class TestConstruction:
    def test_from_nested_list(self, dtype):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]], dtype=dtype)
        assert m.shape == (2, 2)
        np.testing.assert_allclose(m.to_numpy(), [[1, 2], [3, 4]], atol=1e-4)

    def test_1d_promotes_to_row(self, dtype):
        m = Matrix([1.0, 2.0, 3.0], dtype=dtype)
        assert m.shape == (1, 3)

    def test_3d_rejected(self):
        with pytest.raises(ValueError, match="2-D"):
            Matrix(np.zeros((2, 2, 2)))

    def test_bad_dtype_rejected(self):
        with pytest.raises(ValueError, match="unsupported dtype"):
            Matrix([[1.0]], dtype="int8")

    def test_zeros(self, dtype):
        zeros = Matrix.zeros(2, 3, dtype=dtype)
        assert zeros.shape == (2, 3) and zeros.dtype == dtype
        assert zeros.to_numpy().sum() == 0

    def test_uniform_uses_rng(self, dtype):
        rng = np.random.default_rng(0)
        a = Matrix.uniform(3, 3, -1, 1, rng, dtype=dtype)
        rng = np.random.default_rng(0)
        b = Matrix.uniform(3, 3, -1, 1, rng, dtype=dtype)
        assert a == b

    def test_from_raw_rejects_wrong_dtype(self):
        with pytest.raises(TypeError):
            Matrix.from_raw(np.zeros((2, 2), dtype=np.float64), "float32")

    def test_repr(self):
        assert "float32" in repr(Matrix.zeros(1, 1))


class TestArithmetic:
    def test_add_sub(self, dtype):
        a = Matrix([[1.0, 2.0]], dtype=dtype)
        b = Matrix([[3.0, 5.0]], dtype=dtype)
        np.testing.assert_allclose((a + b).to_numpy(), [[4, 7]], atol=1e-4)
        np.testing.assert_allclose((b - a).to_numpy(), [[2, 3]], atol=1e-4)

    def test_scalar_ops(self, dtype):
        a = Matrix([[2.0, 4.0]], dtype=dtype)
        np.testing.assert_allclose((a + 1).to_numpy(), [[3, 5]], atol=1e-4)
        np.testing.assert_allclose((a * 0.5).to_numpy(), [[1, 2]], atol=1e-4)
        np.testing.assert_allclose((2.0 * a).to_numpy(), [[4, 8]], atol=1e-4)

    @pytest.mark.parametrize(
        "scalar", [np.float32(0.5), np.float64(-1.25), np.int64(2), np.int32(-3), 3, 0.1, True]
    )
    def test_python_and_numpy_real_scalars(self, dtype, scalar):
        a = Matrix([[1.0, 2.0]], dtype=dtype)
        v = float(scalar)
        np.testing.assert_allclose((a * scalar).to_numpy(), [[v, 2 * v]], atol=1e-4)
        np.testing.assert_allclose((scalar * a).to_numpy(), [[v, 2 * v]], atol=1e-4)
        np.testing.assert_allclose((a + scalar).to_numpy(), [[1 + v, 2 + v]], atol=1e-4)
        np.testing.assert_allclose((scalar - a).to_numpy(), [[v - 1, v - 2]], atol=1e-4)

    @pytest.mark.parametrize("scalar", [0.99, -0.01, 1.0, 2, np.float32(1e-3), 1e10, -7])
    def test_scalar_equals_full_matrix_operand(self, dtype, scalar):
        """A scalar gives exactly what a same-shaped constant matrix gives."""
        a = Matrix([[0.3, -7.5, 1e4], [2.0, 0.0, -1e-3]], dtype=dtype)
        full = Matrix(np.full(a.shape, float(scalar)), dtype=dtype)
        assert a + scalar == a + full
        assert a - scalar == a - full
        assert scalar - a == full - a
        assert a * scalar == a * full
        assert a / scalar == a / full

    def test_non_real_operand_rejected(self, dtype):
        a = Matrix([[1.0, 2.0]], dtype=dtype)
        for other in ("2", 1 + 2j, np.ones((1, 2)), None):
            with pytest.raises(TypeError, match="cannot operate"):
                a * other
        with pytest.raises(TypeError, match="cannot operate"):
            a @ 2.0

    def test_hadamard(self, dtype):
        a = Matrix([[1.0, 2.0], [3.0, 4.0]], dtype=dtype)
        np.testing.assert_allclose((a * a).to_numpy(), [[1, 4], [9, 16]], atol=1e-3)

    def test_neg(self, dtype):
        a = Matrix([[1.5, -2.0]], dtype=dtype)
        np.testing.assert_allclose((-a).to_numpy(), [[-1.5, 2.0]], atol=1e-4)

    def test_div(self, dtype):
        a = Matrix([[6.0, 9.0]], dtype=dtype)
        b = Matrix([[2.0, 3.0]], dtype=dtype)
        np.testing.assert_allclose((a / b).to_numpy(), [[3, 3]], atol=1e-3)

    def test_matmul(self, dtype):
        a = Matrix([[1.0, 2.0], [3.0, 4.0]], dtype=dtype)
        b = Matrix([[5.0], [6.0]], dtype=dtype)
        np.testing.assert_allclose((a @ b).to_numpy(), [[17], [39]], atol=1e-2)

    def test_matmul_shape_error(self, dtype):
        with pytest.raises(ValueError, match="matmul"):
            Matrix.zeros(2, 3, dtype=dtype) @ Matrix.zeros(2, 3, dtype=dtype)

    def test_mixed_dtype_rejected(self):
        with pytest.raises(TypeError, match="dtype mismatch"):
            Matrix.zeros(1, 1, dtype="float32") + Matrix.zeros(1, 1, dtype="float64")

    def test_bias_broadcast(self, dtype):
        x = Matrix(np.ones((4, 3)), dtype=dtype)
        b = Matrix([[1.0, 2.0, 3.0]], dtype=dtype)
        out = x + b
        assert out.shape == (4, 3)
        np.testing.assert_allclose(out.to_numpy()[2], [2, 3, 4], atol=1e-4)

    def test_transpose(self, dtype):
        a = Matrix([[1.0, 2.0, 3.0]], dtype=dtype)
        assert a.T.shape == (3, 1)
        assert a.T.T == a

    @given(small_matrices)
    @settings(max_examples=100, deadline=None)
    def test_property_add_commutative_float64(self, arr):
        a = Matrix(arr, dtype="float64")
        b = Matrix(arr * 0.5, dtype="float64")
        assert np.allclose((a + b).to_numpy(), (b + a).to_numpy(), atol=1e-6)

    @given(small_matrices)
    @settings(max_examples=100, deadline=None)
    def test_property_double_transpose_identity(self, arr):
        for dt in ALL_DTYPES:
            m = Matrix(arr, dtype=dt)
            assert m.T.T == m

    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 4))
    @settings(max_examples=50, deadline=None)
    def test_property_matmul_identity(self, r, k, c):
        rng = np.random.default_rng(r * 100 + k * 10 + c)
        a = Matrix(rng.uniform(-5, 5, (r, c)), dtype="float64")
        eye = Matrix(np.eye(c), dtype="float64")
        assert np.allclose((a @ eye).to_numpy(), a.to_numpy(), atol=1e-6)


#: Values where a float product rounds or propagates specially: signed
#: zeros, subnormals of both widths, infinities and NaN.
MATMUL_EDGES = [0.0, -0.0, 1e-45, -1e-40, 5e-324, -1e-310, np.inf, -np.inf, np.nan]
#: How a hot path lays its operands out: a single row times a weight,
#: a column times a row (a single row's weight gradient), a batch of 32
#: rows, a weight that is a view into SGD's flat parameter buffer, and
#: contiguous copies of transposes (the backward pass's operands).
MATMUL_FORMS = ("row", "outer", "batch", "flat_view", "transposes")


@st.composite
def matmul_operands(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    form = draw(st.sampled_from(MATMUL_FORMS))
    n, m = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    rows = {"outer": n, "batch": 32}.get(form, 1)
    inner = 1 if form == "outer" else n
    elements = st.one_of(
        st.sampled_from(MATMUL_EDGES),
        st.floats(-10.0, 10.0, width=np.finfo(dtype).bits),
        st.floats(width=np.finfo(dtype).bits),
    )
    if form == "transposes":
        a = np.ascontiguousarray(draw(arrays(dtype, (inner, rows), elements=elements)).T)
        b = np.ascontiguousarray(draw(arrays(dtype, (m, inner), elements=elements)).T)
        return a, b
    a = draw(arrays(dtype, (rows, inner), elements=elements))
    b = draw(arrays(dtype, (inner, m), elements=elements))
    if form == "flat_view":
        # SGD lays parameters end to end on 16-byte boundaries; any
        # element offset is tried too.
        offset = draw(st.integers(0, 8)) * (16 // np.dtype(dtype).itemsize)
        offset += draw(st.sampled_from([0, 0, 1, 3]))
        flat = np.zeros(offset + b.size + 7, dtype=dtype)
        view = flat[offset : offset + b.size].reshape(b.shape)
        view[...] = b
        b = view
    return a, b


class TestFloatMatmulKernel:
    """The float kernels' ``matmul`` and ``wide_matmul`` (``np.dot``,
    cheaper to dispatch) give ``np.matmul``'s bytes on every operand
    layout the hot paths use."""

    @given(matmul_operands())
    @settings(max_examples=400, deadline=None)
    def test_equals_np_matmul_byte_for_byte(self, operands):
        a, b = operands
        k = kernels("float32" if a.dtype == np.float32 else "float64")
        with np.errstate(all="ignore"):
            expected = np.matmul(a, b)
            for kernel in (k.bare_matmul, k.bare_wide_matmul):
                got = kernel(a, b)
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert got.tobytes() == expected.tobytes()


class TestNonlinearities:
    def test_sigmoid_range(self, dtype):
        m = Matrix([[-100.0, 0.0, 100.0]], dtype=dtype)
        s = m.sigmoid().to_numpy()
        assert s[0, 0] == pytest.approx(0.0, abs=1e-4)
        assert s[0, 1] == pytest.approx(0.5, abs=1e-4)
        assert s[0, 2] == pytest.approx(1.0, abs=1e-4)

    def test_relu(self, dtype):
        m = Matrix([[-1.0, 0.0, 2.0]], dtype=dtype)
        np.testing.assert_allclose(m.relu().to_numpy(), [[0, 0, 2]], atol=1e-4)

    def test_softmax_rows(self, dtype):
        m = Matrix([[1.0, 2.0], [3.0, 1.0]], dtype=dtype)
        s = m.softmax(axis=1).to_numpy()
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-3)

    def test_exp_log_roundtrip(self):
        m = Matrix([[0.5, 1.0, 2.0]], dtype="float64")
        np.testing.assert_allclose(m.exp().log().to_numpy(), m.to_numpy(), atol=1e-8)


class TestReductions:
    def test_sum_all(self, dtype):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]], dtype=dtype)
        assert m.sum().item() == pytest.approx(10.0, abs=1e-3)

    def test_sum_axis0_keeps_2d(self, dtype):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]], dtype=dtype)
        s = m.sum(axis=0)
        assert s.shape == (1, 2)
        np.testing.assert_allclose(s.to_numpy(), [[4, 6]], atol=1e-3)

    def test_kernel_colsum_is_sum_axis0(self, dtype):
        """The column sum layers call computes ``Matrix.sum(axis=0)``'s bits."""
        m = Matrix(np.random.default_rng(0).normal(size=(33, 7)), dtype=dtype)
        np.testing.assert_array_equal(kernels(dtype).colsum(m.raw), m.sum(axis=0).raw)

    def test_kernel_colsum_of_one_row_keeps_the_summed_bits(self, dtype):
        """A one-row gradient skips the reduction but gives its bits:
        -0.0 still comes back +0.0, and fixed32 extremes stay put."""
        k = kernels(dtype)
        if dtype == "fixed32":
            raw = np.array([[fixedpoint.FX_MIN, -1, 0, 1, fixedpoint.FX_MAX]], np.int32)
            old = fixedpoint.fx_sum(raw, axis=0)
        else:
            values = [-0.0, 0.0, -1.5, 3e38, -np.inf, np.inf, np.nan, 1e-45]
            raw = k.encode(np.array([values]))
            old = k.encode(raw.astype(np.float64).sum(axis=0, keepdims=True))
        new = k.colsum(raw)
        assert new.dtype == old.dtype and new.shape == old.shape
        assert new.tobytes() == old.tobytes()
        assert new is not raw

    def test_mean(self, dtype):
        m = Matrix([[2.0, 4.0]], dtype=dtype)
        assert m.mean().item() == pytest.approx(3.0, abs=1e-3)

    def test_argmax(self, dtype):
        m = Matrix([[1.0, 5.0, 2.0], [9.0, 0.0, 1.0]], dtype=dtype)
        np.testing.assert_array_equal(m.argmax(axis=1), [1, 0])

    def test_item_requires_1x1(self):
        with pytest.raises(ValueError):
            Matrix.zeros(2, 2).item()

    def test_row_and_getitem(self, dtype):
        m = Matrix([[1.0, 2.0], [3.0, 4.0]], dtype=dtype)
        assert m.row(1).shape == (1, 2)
        assert m[1, 0] == pytest.approx(3.0, abs=1e-4)


class TestConversionAndObserver:
    def test_astype_round_trip(self):
        m = Matrix([[1.5, -2.25]], dtype="float64")
        back = m.astype("fixed32").astype("float64")
        assert np.allclose(back.to_numpy(), m.to_numpy(), atol=1e-4)

    def test_copy_is_independent(self, dtype):
        m = Matrix([[1.0]], dtype=dtype)
        c = m.copy()
        assert c == m
        assert c.raw is not m.raw

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(Matrix.zeros(1, 1))

    def test_alloc_observer_sees_allocations(self):
        seen = []
        set_alloc_observer(seen.append)
        try:
            Matrix.zeros(4, 4, dtype="float32")
        finally:
            set_alloc_observer(None)
        assert sum(seen) >= 4 * 4 * 4  # at least the data buffer

    def test_nbytes(self):
        assert Matrix.zeros(2, 2, dtype="float64").nbytes == 32
        assert Matrix.zeros(2, 2, dtype="float32").nbytes == 16
        assert Matrix.zeros(2, 2, dtype="fixed32").nbytes == 16
