"""KML matrices with float32 / float64 / fixed-point backends.

The paper's library supports *integer, floating-point, and double*
matrices so users can trade accuracy against kernel-side FPU cost
(HotStorage '21, section 3.1).  :class:`Matrix` is the single public
type; the element representation is selected by ``dtype``:

- ``"float32"`` / ``"float64"`` -- IEEE floats,
- ``"fixed32"`` -- Q16.16 fixed point on int32.  Add, sub, neg, mul,
  div, matmul, sum, relu and sigmoid are integer-only (sigmoid by an
  exact lookup table, see ``repro.kml.fixedpoint``); exp, log, tanh,
  sqrt, softmax, mean and the losses still decode to float64, compute
  there, and re-encode.

All arithmetic dispatches through one :class:`Kernels` table per dtype
(:func:`kernels`), so higher layers (layers, losses, optimizers) are
dtype-agnostic, exactly as in KML where the same model graph can be
instantiated over any supported element type.  The hot paths -- a
``Sequential``'s resolved ``Linear``/``Sigmoid`` steps
(``repro.kml.network``), the layers' own passes, the cross-entropy loss
and the SGD step over one flat buffer -- look their table up once and
run on raw buffers, wrapping only what they return; ``Matrix``
arithmetic applies the same kernels (``Matrix.sigmoid`` the table's
``sigmoid``), so all compute the same bits.

A real scalar operand (any ``numbers.Real``: Python or numpy ints and
floats) is encoded once into the matrix's element type -- a 0-d
float32/float64 array for the floats, ``fixedpoint.to_fixed(v)`` for
fixed32 -- and broadcast against the buffer, so ``m * 0.5`` and
``1.0 - m`` allocate only their result and compute exactly what a
constant matrix of that value would give.

Op results are wrapped without re-validation (they are 2-D and encoded
by construction); :meth:`Matrix.from_raw` validates outside buffers.

Matrix allocations report their byte size to an optional observer so
the runtime memory accountant (``repro.runtime.memory``) can reproduce
the paper's memory-footprint measurements; a raw buffer a hot path
keeps reports through :func:`observe_alloc`, and ``_view`` wraps a
buffer already reported (or a view into one) without counting it
again.
"""

from __future__ import annotations

import numbers
import time
from typing import Callable, Optional, Tuple

import numpy as np

from . import fixedpoint as fx
from . import mathops

__all__ = [
    "Matrix",
    "DTYPES",
    "Kernels",
    "kernels",
    "checked_raw",
    "observe_alloc",
    "set_alloc_observer",
]

DTYPES = ("float32", "float64", "fixed32")

_NUMPY_DTYPES = {
    "float32": np.float32,
    "float64": np.float64,
    "fixed32": np.int32,
}

# Installed by repro.runtime.memory to account matrix allocations.
_alloc_observer: Optional[Callable[[int], None]] = None


def set_alloc_observer(observer: Optional[Callable[[int], None]]) -> None:
    """Install a callable invoked with the byte size of each allocation.

    Pass ``None`` to remove the observer.  Used by the runtime memory
    accountant; tests install counters here.
    """
    global _alloc_observer
    _alloc_observer = observer


def _swap_matmul(hook) -> None:
    """The ``matrix.matmul`` slot's setter (see ``repro.hooks``): swap
    every kernel table's ``matmul`` and ``wide_matmul`` for ones
    reporting to ``hook``, or back to the bare kernels, so a matmul pays
    nothing while detached."""
    for k in _KERNELS.values():
        if hook is None:
            k.matmul, k.wide_matmul = k.bare_matmul, k.bare_wide_matmul
        else:
            k.matmul = _timed(k.bare_matmul, hook)
            k.wide_matmul = _timed(k.bare_wide_matmul, hook)


HOOK_SLOTS = {"matrix.matmul": _swap_matmul}


def _check_dtype(dtype: str) -> str:
    if dtype not in DTYPES:
        raise ValueError(f"unsupported dtype {dtype!r}; expected one of {DTYPES}")
    return dtype


def _timed(kernel, hook):
    """``kernel`` as a matmul that reports to ``hook``."""

    def matmul(a, b):
        hook.calls = n = hook.calls + 1
        if n & hook.mask:
            return kernel(a, b)
        t0 = time.perf_counter()
        out = kernel(a, b)
        hook.hist.observe(time.perf_counter() - t0)
        return out

    return matmul


class Kernels:
    """One dtype's raw-buffer kernels: what ``Matrix`` arithmetic applies.

    Every kernel takes and returns encoded numpy buffers (raw int32 for
    fixed32).  ``encode`` turns a real scalar or a fresh float64 array
    into the element type (float64 may keep the array itself) and
    ``decode`` a buffer into a new float64 array; ``one`` is the
    encoded constant 1.  ``add``/``sub``/``mul``/``div``/``neg`` are
    elementwise (fixed32 saturates), ``add_into(buf, delta)`` adds
    ``delta`` into ``buf`` in place, and ``store(buf, delta)`` writes
    what that leaves in a zeroed ``buf`` (``0 + delta``: the floats turn
    -0.0 into 0.0).  ``sigmoid`` is ``Matrix.sigmoid``'s kernel.
    ``colsum`` is the 2-D column sum ``Matrix.sum(axis=0)`` computes
    (float64 accumulation for the floats, int64 for fixed32, then
    encoded).  ``matmul`` and ``wide_matmul`` report to the
    ``matrix.matmul`` hook while one is attached (their ``bare_``
    versions never do); ``wide_matmul`` is ``matmul`` before its final
    fixed32 clamp (int64 for fixed32, ``matmul`` itself for the floats).
    """

    __slots__ = (
        "dtype", "encode", "decode", "one",
        "add", "sub", "mul", "div", "neg", "add_into", "store", "sigmoid",
        "matmul", "bare_matmul", "wide_matmul", "bare_wide_matmul", "colsum",
    )

    def __init__(self, dtype: str, **ops):
        self.dtype = dtype
        for name, op in ops.items():
            setattr(self, name, op)
        self.bare_matmul = self.matmul
        self.bare_wide_matmul = self.wide_matmul
        self.one = self.encode(1.0)


def _float_matmul(a, b):
    """``np.matmul(a, b)`` of two 2-D float buffers.

    For an inner dimension of 2 or more this is ``np.dot``, the same
    BLAS product with less dispatch.  Over an inner dimension of 1
    (an outer product, or a one-element operand) ``np.dot`` multiplies
    instead of accumulating from 0, or scales by BLAS ``scal``: an
    underflowing product stays -0.0 and ``0 * inf`` gives 0, not NaN.
    So that case keeps ``np.matmul``.
    """
    if a.shape[1] > 1:
        return np.dot(a, b)
    return np.matmul(a, b)


def _float_kernels(dtype: str) -> Kernels:
    np_dtype = _NUMPY_DTYPES[dtype]

    def encode(real):
        return np.asarray(real, dtype=np_dtype)

    def decode(raw):
        return raw.astype(np.float64)

    def div(a, b):
        return np.divide(a, np.where(b == 0, np.finfo(np.float64).tiny, b)).astype(
            np_dtype, copy=False
        )

    def add_into(buf, delta):
        np.add(buf, delta, out=buf)

    zero = encode(0.0)

    def store(buf, delta):
        np.add(zero, delta, out=buf)

    def sigmoid(a):
        # mathops computes in float64 whatever its input.
        return encode(mathops.kml_sigmoid(a))

    def colsum(a):
        if a.shape[0] == 1:
            # numpy's float64 sum of one row is 0.0 + each value: the
            # same bits as adding 0.0 in the element type (-0.0 -> 0.0).
            return np.add(a, zero)
        return encode(a.astype(np.float64).sum(axis=0, keepdims=True))

    return Kernels(
        dtype,
        encode=encode,
        decode=decode,
        add=np.add,
        sub=np.subtract,
        mul=np.multiply,
        div=div,
        neg=np.negative,
        add_into=add_into,
        store=store,
        sigmoid=sigmoid,
        matmul=_float_matmul,
        wide_matmul=_float_matmul,
        colsum=colsum,
    )


def _fixed_add_into(buf, delta):
    # Saturating, so computed aside and copied in, not an in-place np.add.
    buf[...] = fx.fx_add(buf, delta)


def _fixed_colsum(a):
    # One row's int64 sum is the row itself, already inside int32.
    return a.copy() if a.shape[0] == 1 else fx.fx_sum(a, axis=0)


_KERNELS = {
    "float32": _float_kernels("float32"),
    "float64": _float_kernels("float64"),
    "fixed32": Kernels(
        "fixed32",
        encode=fx.to_fixed,
        decode=fx.from_fixed,
        add=fx.fx_add,
        sub=fx.fx_sub,
        mul=fx.fx_mul,
        div=fx.fx_div,
        neg=fx.fx_neg,
        add_into=_fixed_add_into,
        # 0 + delta saturates to delta itself.
        store=np.copyto,
        sigmoid=fx.fx_sigmoid,
        matmul=fx.fx_matmul,
        wide_matmul=fx.fx_matmul_wide,
        colsum=_fixed_colsum,
    ),
}


def kernels(dtype: str) -> Kernels:
    """The kernel table of ``dtype``."""
    return _KERNELS[_check_dtype(dtype)]


def checked_raw(m: "Matrix", dtype: str) -> np.ndarray:
    """``m``'s raw buffer, if ``m`` is a ``dtype`` matrix.

    Raises the ``TypeError`` that arithmetic between matrices of
    different dtypes raises.
    """
    if m._dtype != dtype:
        raise TypeError(
            f"dtype mismatch: {dtype} vs {m._dtype}; convert explicitly with astype()"
        )
    return m._data


def observe_alloc(raw: np.ndarray) -> None:
    """Report a raw op result that is not wrapped to the allocation observer."""
    if _alloc_observer is not None:
        _alloc_observer(raw.nbytes)


def _wrap(data: np.ndarray, dtype: str) -> "Matrix":
    """Wrap an op result, already 2-D and encoded, without re-validating it."""
    self = object.__new__(Matrix)
    self._data = data
    self._dtype = dtype
    if _alloc_observer is not None:
        _alloc_observer(data.nbytes)
    return self


def _view(data: np.ndarray, dtype: str) -> "Matrix":
    """Wrap a buffer already reported to the allocation observer (or a
    view into one), so that it is not counted twice."""
    self = object.__new__(Matrix)
    self._data = data
    self._dtype = dtype
    return self


def _wrap_real(real: np.ndarray, dtype: str) -> "Matrix":
    """Encode a fresh 2-D float64 op result into ``dtype`` and wrap it."""
    return _wrap(_KERNELS[dtype].encode(real), dtype)


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
        return _wrap(raw, dtype)

    @classmethod
    def zeros(cls, rows: int, cols: int, dtype: str = "float32") -> "Matrix":
        _check_dtype(dtype)
        return _wrap(np.zeros((rows, cols), dtype=_NUMPY_DTYPES[dtype]), dtype)

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
        return _KERNELS[self._dtype].decode(self._data)

    def astype(self, dtype: str) -> "Matrix":
        """Re-encode into another element type."""
        _check_dtype(dtype)
        if dtype == self._dtype:
            return self.copy()
        return Matrix(self.to_numpy(), dtype=dtype)

    def copy(self) -> "Matrix":
        return _wrap(self._data.copy(), self._dtype)

    def __repr__(self) -> str:
        return f"Matrix(shape={self.shape}, dtype={self._dtype!r})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self._dtype == other._dtype and np.array_equal(self._data, other._data)

    def __hash__(self):
        raise TypeError("Matrix is mutable and unhashable")

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------

    def _binary(self, other, op: str, reflected: bool = False) -> "Matrix":
        """Apply the kernel named ``op`` to this buffer and ``other``'s."""
        k = _KERNELS[self._dtype]
        a = self._data
        if isinstance(other, Matrix):
            b = checked_raw(other, self._dtype)
            if a.shape != b.shape:
                # Allow row/column broadcast, the only forms layers need.
                try:
                    np.broadcast_shapes(a.shape, b.shape)
                except ValueError:
                    raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}") from None
        # A real scalar is encoded once, as a 0-d value (builtins first:
        # the numbers.Real check is slower).
        elif isinstance(other, (float, int)) or isinstance(other, numbers.Real):
            b = k.encode(other)
        else:
            raise TypeError(f"cannot operate on Matrix and {type(other).__name__}")
        if reflected:
            a, b = b, a
        return _wrap(getattr(k, op)(a, b), self._dtype)

    def __add__(self, other) -> "Matrix":
        return self._binary(other, "add")

    def __radd__(self, other) -> "Matrix":
        return self.__add__(other)

    def __sub__(self, other) -> "Matrix":
        return self._binary(other, "sub")

    def __rsub__(self, other) -> "Matrix":
        return self._binary(other, "sub", reflected=True)

    def __mul__(self, other) -> "Matrix":
        """Elementwise (Hadamard) product."""
        return self._binary(other, "mul")

    def __rmul__(self, other) -> "Matrix":
        return self.__mul__(other)

    def __truediv__(self, other) -> "Matrix":
        return self._binary(other, "div")

    def __neg__(self) -> "Matrix":
        return _wrap(_KERNELS[self._dtype].neg(self._data), self._dtype)

    def __matmul__(self, other) -> "Matrix":
        if not isinstance(other, Matrix):
            raise TypeError(f"cannot operate on Matrix and {type(other).__name__}")
        a, b = self._data, checked_raw(other, self._dtype)
        if a.shape[1] != b.shape[0]:
            raise ValueError(
                f"matmul shape mismatch: {a.shape} @ {b.shape}"
            )
        return _wrap(_KERNELS[self._dtype].matmul(a, b), self._dtype)

    def transpose(self) -> "Matrix":
        return _wrap(np.ascontiguousarray(self._data.T), self._dtype)

    @property
    def T(self) -> "Matrix":
        return self.transpose()

    # ------------------------------------------------------------------
    # Elementwise nonlinearities (fixed point decodes, except for
    # sigmoid and relu)
    # ------------------------------------------------------------------

    def _unary_real(self, func) -> "Matrix":
        """Apply a real-valued function elementwise, re-encoding after.

        The mathops kernels compute in float64 whatever their input, so
        a float buffer goes in as it is; fixed32 decodes first.
        """
        if self._dtype == "fixed32":
            return _wrap_real(func(fx.from_fixed(self._data)), "fixed32")
        return _wrap_real(func(self._data), self._dtype)

    def sigmoid(self) -> "Matrix":
        return _wrap(_KERNELS[self._dtype].sigmoid(self._data), self._dtype)

    def tanh(self) -> "Matrix":
        return self._unary_real(mathops.kml_tanh)

    def relu(self) -> "Matrix":
        if self._dtype == "fixed32":
            out = np.where(self._data > 0, self._data, np.int32(0))
            return _wrap(out.astype(np.int32), self._dtype)
        out = np.where(self._data > 0, self._data, 0).astype(self._data.dtype)
        return _wrap(out, self._dtype)

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
        if self._dtype == "fixed32":
            return _wrap(fx.fx_sum(self._data, axis=axis), self._dtype)
        return _wrap_real(self.to_numpy().sum(axis=axis, keepdims=True), self._dtype)

    def mean(self, axis=None) -> "Matrix":
        return _wrap_real(self.to_numpy().mean(axis=axis, keepdims=True), self._dtype)

    def argmax(self, axis: int = 1) -> np.ndarray:
        """Index of the maximum along ``axis`` (plain numpy int array).

        Decoding is exact and order-preserving, so the encoded buffer
        has the same argmax as the real values.
        """
        return self._data.argmax(axis=axis)

    def item(self) -> float:
        """Decode a 1x1 matrix to a Python float."""
        if self.shape != (1, 1):
            raise ValueError(f"item() requires shape (1, 1), got {self.shape}")
        return float(self.to_numpy()[0, 0])

    def row(self, i: int) -> "Matrix":
        return _wrap(self._data[i : i + 1].copy(), self._dtype)

    def __getitem__(self, idx) -> float:
        """Scalar element access, decoded to float."""
        r, c = idx
        value = self._data[r, c]
        if self._dtype == "fixed32":
            return float(value) / fx.SCALE
        return float(value)
