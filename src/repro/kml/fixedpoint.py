"""Q16.16 fixed-point arithmetic for FPU-free matrix operations.

KML supports integer matrices so models can run in kernel contexts where
the FPU is disabled (HotStorage '21, section 3.1).  This module provides
the raw representation and the arithmetic kernels the ``fixed32`` matrix
backend is built on.

Representation: a real value ``v`` is stored as ``round(v * 2**16)`` in
an ``int32``.  Intermediate products are computed in ``int64`` and
shifted back, matching what in-kernel C code would do.  Overflowing
values saturate at the representable limits rather than wrapping, which
is the numerically safer behaviour for neural-network weights.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "FRAC_BITS",
    "SCALE",
    "FX_MAX",
    "FX_MIN",
    "FX_MAX_REAL",
    "FX_MIN_REAL",
    "FX_EPS",
    "to_fixed",
    "from_fixed",
    "fx_add",
    "fx_sub",
    "fx_mul",
    "fx_div",
    "fx_neg",
    "fx_matmul",
    "fx_from_int",
]

FRAC_BITS = 16
SCALE = 1 << FRAC_BITS

FX_MAX = np.int32(2**31 - 1)
FX_MIN = np.int32(-(2**31))
FX_MAX_REAL = float(FX_MAX) / SCALE
FX_MIN_REAL = float(FX_MIN) / SCALE

#: Smallest positive representable increment (2**-16).
FX_EPS = 1.0 / SCALE


# The kernels' constants as 0-d arrays: numpy applies a ufunc to two
# arrays faster than to an array and a Python number, whose conversion
# it repeats on every call.  The arithmetic is the same.
_LO, _HI = np.array(int(FX_MIN), np.int64), np.array(int(FX_MAX), np.int64)
_LO_F64, _HI_F64 = np.array(float(FX_MIN)), np.array(float(FX_MAX))
_SCALE = np.array(float(SCALE))
_SHIFT = np.array(FRAC_BITS, np.int64)


def _saturate(x64):
    """Clamp an int64 array into the int32 range and narrow it."""
    return np.minimum(np.maximum(x64, _LO), _HI).astype(np.int32)


def to_fixed(values):
    """Convert real values (scalar or array) to Q16.16 raw int32.

    Values outside the representable range saturate; NaN maps to 0,
    which is the conventional kernel-safe choice.
    """
    arr = np.asarray(values, dtype=np.float64)
    scaled = np.where(np.isnan(arr), 0.0, arr) * _SCALE
    scaled = np.minimum(np.maximum(np.rint(scaled), _LO_F64), _HI_F64)
    return scaled.astype(np.int32)


def from_fixed(raw):
    """Convert Q16.16 raw int32 back to float64."""
    return np.asarray(raw, dtype=np.float64) / _SCALE


def fx_from_int(values):
    """Convert plain integers to Q16.16 (i.e. shift left by FRAC_BITS)."""
    arr = np.asarray(values, dtype=np.int64) << FRAC_BITS
    return _saturate(arr)


def fx_add(a, b):
    """Saturating fixed-point addition."""
    return _saturate(np.asarray(a, np.int64) + np.asarray(b, np.int64))


def fx_sub(a, b):
    """Saturating fixed-point subtraction."""
    return _saturate(np.asarray(a, np.int64) - np.asarray(b, np.int64))


def fx_neg(a):
    """Saturating fixed-point negation (-FX_MIN saturates to FX_MAX)."""
    return _saturate(-np.asarray(a, np.int64))


def fx_mul(a, b):
    """Fixed-point multiply: (a * b) >> FRAC_BITS with int64 intermediate."""
    prod = np.asarray(a, np.int64) * np.asarray(b, np.int64)
    return _saturate(prod >> _SHIFT)


def fx_div(a, b):
    """Fixed-point divide: (a << FRAC_BITS) / b, rounding toward zero.

    Division by zero saturates to the signed extreme of the numerator
    (0/0 yields 0), mirroring a saturating hardware divider.
    """
    num = np.asarray(a, np.int64) << FRAC_BITS
    den = np.asarray(b, np.int64)
    zero_den = den == 0
    safe_den = np.where(zero_den, 1, den)
    quotient = (num / safe_den).astype(np.int64)  # trunc toward zero
    quotient = np.where(
        zero_den,
        np.where(num > 0, int(FX_MAX), np.where(num < 0, int(FX_MIN), 0)),
        quotient,
    )
    return _saturate(quotient)


def fx_matmul(a, b):
    """Fixed-point matrix multiply with int64 accumulation.

    Each dot product accumulates full int64 products and performs a
    single shift at the end, preserving one extra bit of precision over
    shifting every term (the same trick in-kernel KML uses).
    """
    a64 = np.asarray(a, dtype=np.int64)
    b64 = np.asarray(b, dtype=np.int64)
    acc = a64 @ b64
    return _saturate(acc >> _SHIFT)
