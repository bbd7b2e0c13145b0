"""KML matrices with float32 / float64 / fixed-point backends.

The paper's library supports *integer, floating-point, and double*
matrices so users can trade accuracy against kernel-side FPU cost
(HotStorage '21, section 3.1).  :class:`Matrix` is the single public
type; the element representation is selected by ``dtype``:

- ``"float32"`` / ``"float64"`` -- IEEE floats,
- ``"fixed32"`` -- Q16.16 fixed point on int32.  Add, mul and matmul
  are integer-only; nonlinearities and losses still decode to float64,
  compute there, and re-encode.

All arithmetic dispatches through the backend so higher layers (layers,
losses, autodiff) are dtype-agnostic, exactly as in KML where the same
model graph can be instantiated over any supported element type.

Matrix allocations report their byte size to an optional observer so
the runtime memory accountant (``repro.runtime.memory``) can reproduce
the paper's memory-footprint measurements.
"""

from __future__ import annotations

import time
from typing import Callable, Optional, Tuple

import numpy as np

from . import fixedpoint as fx
from . import mathops

__all__ = ["Matrix", "DTYPES", "set_alloc_observer", "set_op_observer"]

DTYPES = ("float32", "float64", "fixed32")

_NUMPY_DTYPES = {
    "float32": np.float32,
    "float64": np.float64,
    "fixed32": np.int32,
}

# Installed by repro.runtime.memory to account matrix allocations.
_alloc_observer: Optional[Callable[[int], None]] = None

# Installed by repro.obs: a duck-typed ``Probe`` that counts every matmul
# and times one in ``mask + 1`` (see ``repro.obs.instrument.Probe``).
_op_observer = None


def set_alloc_observer(observer: Optional[Callable[[int], None]]) -> None:
    """Install a callable invoked with the byte size of each allocation.

    Pass ``None`` to remove the observer.  Used by the runtime memory
    accountant; tests install counters here.
    """
    global _alloc_observer
    _alloc_observer = observer


def set_op_observer(probe) -> None:
    """Install the matmul probe (see module comment above).

    Only the compute-heavy ops report (currently ``matmul``).  Pass
    ``None`` to remove; installed by ``repro.obs.instrument``.
    """
    global _op_observer
    _op_observer = probe


def _check_dtype(dtype: str) -> str:
    if dtype not in DTYPES:
        raise ValueError(f"unsupported dtype {dtype!r}; expected one of {DTYPES}")
    return dtype


class Matrix:
    """A 2-D matrix over one of the KML element types.

    Construction from nested lists or numpy arrays converts *real*
    values into the chosen representation; use :meth:`from_raw` to wrap
    an already-encoded buffer (e.g. fixed-point raw int32).
    """

    __slots__ = ("_data", "_dtype")

    def __init__(self, values, dtype: str = "float32"):
        _check_dtype(dtype)
        arr = np.asarray(values, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr.reshape(1, -1)
        if arr.ndim != 2:
            raise ValueError(f"Matrix must be 2-D, got shape {arr.shape}")
        if dtype == "fixed32":
            data = fx.to_fixed(arr)
        else:
            data = arr.astype(_NUMPY_DTYPES[dtype])
        self._data = data
        self._dtype = dtype
        if _alloc_observer is not None:
            _alloc_observer(int(data.nbytes))

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_raw(cls, raw: np.ndarray, dtype: str) -> "Matrix":
        """Wrap an already-encoded 2-D buffer without conversion."""
        _check_dtype(dtype)
        raw = np.asarray(raw)
        if raw.ndim != 2:
            raise ValueError(f"raw buffer must be 2-D, got shape {raw.shape}")
        expected = _NUMPY_DTYPES[dtype]
        if raw.dtype != expected:
            raise TypeError(f"raw dtype {raw.dtype} does not match {dtype}")
        self = cls.__new__(cls)
        self._data = raw
        self._dtype = dtype
        if _alloc_observer is not None:
            _alloc_observer(int(raw.nbytes))
        return self

    @classmethod
    def zeros(cls, rows: int, cols: int, dtype: str = "float32") -> "Matrix":
        return cls(np.zeros((rows, cols)), dtype=dtype)

    @classmethod
    def ones(cls, rows: int, cols: int, dtype: str = "float32") -> "Matrix":
        return cls(np.ones((rows, cols)), dtype=dtype)

    @classmethod
    def full(cls, rows: int, cols: int, value: float, dtype: str = "float32") -> "Matrix":
        return cls(np.full((rows, cols), float(value)), dtype=dtype)

    @classmethod
    def eye(cls, n: int, dtype: str = "float32") -> "Matrix":
        return cls(np.eye(n), dtype=dtype)

    @classmethod
    def uniform(
        cls,
        rows: int,
        cols: int,
        low: float,
        high: float,
        rng: np.random.Generator,
        dtype: str = "float32",
    ) -> "Matrix":
        """Uniform random matrix; the caller supplies the RNG for determinism."""
        return cls(rng.uniform(low, high, size=(rows, cols)), dtype=dtype)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def dtype(self) -> str:
        return self._dtype

    @property
    def shape(self) -> Tuple[int, int]:
        return self._data.shape  # type: ignore[return-value]

    @property
    def rows(self) -> int:
        return int(self._data.shape[0])

    @property
    def cols(self) -> int:
        return int(self._data.shape[1])

    @property
    def nbytes(self) -> int:
        """Bytes consumed by the element buffer."""
        return int(self._data.nbytes)

    @property
    def raw(self) -> np.ndarray:
        """The underlying encoded buffer (raw int32 for fixed32)."""
        return self._data

    def to_numpy(self) -> np.ndarray:
        """Decode to a float64 numpy array (copies)."""
        if self._dtype == "fixed32":
            return fx.from_fixed(self._data)
        return self._data.astype(np.float64)

    def astype(self, dtype: str) -> "Matrix":
        """Re-encode into another element type."""
        _check_dtype(dtype)
        if dtype == self._dtype:
            return self.copy()
        return Matrix(self.to_numpy(), dtype=dtype)

    def copy(self) -> "Matrix":
        return Matrix.from_raw(self._data.copy(), self._dtype)

    def __repr__(self) -> str:
        return f"Matrix(shape={self.shape}, dtype={self._dtype!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._dtype == other._dtype and np.array_equal(self._data, other._data)

    def __hash__(self):
        raise TypeError("Matrix is mutable and unhashable")

    def allclose(self, other: "Matrix", atol: float = 1e-6) -> bool:
        """Value comparison in decoded (real) space, tolerant of dtype."""
        return self.shape == other.shape and bool(
            np.allclose(self.to_numpy(), other.to_numpy(), atol=atol)
        )

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _coerce(self, other) -> "Matrix":
        if isinstance(other, Matrix):
            if other._dtype != self._dtype:
                raise TypeError(
                    f"dtype mismatch: {self._dtype} vs {other._dtype}; "
                    "convert explicitly with astype()"
                )
            return other
        if isinstance(other, (int, float)):
            return Matrix.full(self.rows, self.cols, float(other), dtype=self._dtype)
        raise TypeError(f"cannot operate on Matrix and {type(other).__name__}")

    def _binary(self, other, float_op, fixed_op) -> "Matrix":
        other = self._coerce(other)
        a, b = self._data, other._data
        if a.shape != b.shape:
            # Allow row/column broadcast, the only forms layers need.
            try:
                np.broadcast_shapes(a.shape, b.shape)
            except ValueError:
                raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}") from None
        if self._dtype == "fixed32":
            out = fixed_op(a, b)
        else:
            out = float_op(a, b).astype(a.dtype)
        return Matrix.from_raw(out, self._dtype)

    def __add__(self, other) -> "Matrix":
        return self._binary(other, np.add, fx.fx_add)

    def __radd__(self, other) -> "Matrix":
        return self.__add__(other)

    def __sub__(self, other) -> "Matrix":
        return self._binary(other, np.subtract, fx.fx_sub)

    def __rsub__(self, other) -> "Matrix":
        return self._coerce(other).__sub__(self)

    def __mul__(self, other) -> "Matrix":
        """Elementwise (Hadamard) product."""
        return self._binary(other, np.multiply, fx.fx_mul)

    def __rmul__(self, other) -> "Matrix":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Matrix":
        return self._binary(
            other,
            lambda a, b: np.divide(
                a, np.where(b == 0, np.finfo(np.float64).tiny, b)
            ),
            fx.fx_div,
        )

    def __neg__(self) -> "Matrix":
        if self._dtype == "fixed32":
            return Matrix.from_raw(fx.fx_neg(self._data), self._dtype)
        return Matrix.from_raw((-self._data).astype(self._data.dtype), self._dtype)

    def __matmul__(self, other) -> "Matrix":
        other = self._coerce(other)
        if self.cols != other.rows:
            raise ValueError(
                f"matmul shape mismatch: {self.shape} @ {other.shape}"
            )
        probe = _op_observer
        t0 = 0.0
        if probe is not None:
            probe.calls = n = probe.calls + 1
            if not n & probe.mask:
                t0 = time.perf_counter()
        if self._dtype == "fixed32":
            out = fx.fx_matmul(self._data, other._data)
        else:
            out = (self._data @ other._data).astype(self._data.dtype)
        if t0:
            probe.hist.observe(time.perf_counter() - t0)
        return Matrix.from_raw(out, self._dtype)

    def transpose(self) -> "Matrix":
        return Matrix.from_raw(
            np.ascontiguousarray(self._data.T), self._dtype
        )

    @property
    def T(self) -> "Matrix":
        return self.transpose()

    # ------------------------------------------------------------------
    # Elementwise nonlinearities (via decoded space for fixed point)
    # ------------------------------------------------------------------

    def _unary_real(self, func) -> "Matrix":
        """Apply a real-valued function elementwise, re-encoding after."""
        return Matrix(func(self.to_numpy()), dtype=self._dtype)

    def sigmoid(self) -> "Matrix":
        return self._unary_real(mathops.kml_sigmoid)

    def tanh(self) -> "Matrix":
        return self._unary_real(mathops.kml_tanh)

    def relu(self) -> "Matrix":
        if self._dtype == "fixed32":
            out = np.where(self._data > 0, self._data, np.int32(0))
            return Matrix.from_raw(out.astype(np.int32), self._dtype)
        out = np.where(self._data > 0, self._data, 0).astype(self._data.dtype)
        return Matrix.from_raw(out, self._dtype)

    def exp(self) -> "Matrix":
        return self._unary_real(mathops.kml_exp)

    def log(self) -> "Matrix":
        return self._unary_real(mathops.kml_log)

    def sqrt(self) -> "Matrix":
        return self._unary_real(mathops.kml_sqrt)

    def softmax(self, axis: int = -1) -> "Matrix":
        return self._unary_real(lambda a: mathops.kml_softmax(a, axis=axis))

    # ------------------------------------------------------------------
    # Reductions and indexing
    # ------------------------------------------------------------------

    def sum(self, axis=None) -> "Matrix":
        """Sum; with an axis, keeps the result 2-D (row or column)."""
        real = self.to_numpy()
        if axis is None:
            return Matrix([[float(real.sum())]], dtype=self._dtype)
        return Matrix(np.sum(real, axis=axis, keepdims=True), dtype=self._dtype)

    def mean(self, axis=None) -> "Matrix":
        real = self.to_numpy()
        if axis is None:
            return Matrix([[float(real.mean())]], dtype=self._dtype)
        return Matrix(np.mean(real, axis=axis, keepdims=True), dtype=self._dtype)

    def argmax(self, axis: int = 1) -> np.ndarray:
        """Index of the maximum along ``axis`` (plain numpy int array)."""
        return np.argmax(self.to_numpy(), axis=axis)

    def item(self) -> float:
        """Decode a 1x1 matrix to a Python float."""
        if self.shape != (1, 1):
            raise ValueError(f"item() requires shape (1, 1), got {self.shape}")
        return float(self.to_numpy()[0, 0])

    def row(self, i: int) -> "Matrix":
        return Matrix.from_raw(self._data[i : i + 1].copy(), self._dtype)

    def __getitem__(self, idx) -> float:
        """Scalar element access, decoded to float."""
        r, c = idx
        value = self._data[r, c]
        if self._dtype == "fixed32":
            return float(value) / fx.SCALE
        return float(value)
