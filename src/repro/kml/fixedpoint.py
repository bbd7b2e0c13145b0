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

The kernels ``fx_add``/``sub``/``neg``/``mul``/``div``/``matmul``/``sum``
and ``fx_sigmoid`` are integer-only; ``fx_matmul_wide`` is ``fx_matmul``
without its final clamp, for callers that have proved it cannot bind.
``fx_sigmoid`` reads a Q16.16 lookup table that is built once per
process, on first use, by running the float path (decode,
:func:`~repro.kml.mathops.kml_sigmoid`, re-encode) over every input
below saturation, so it is bit-identical to that path by construction.  The build takes a few tens of milliseconds
and the table holds about 1.5 MiB.
"""

from __future__ import annotations

import numpy as np

from . import mathops

__all__ = [
    "FRAC_BITS",
    "SCALE",
    "FX_MAX",
    "FX_MIN",
    "FX_EPS",
    "to_fixed",
    "from_fixed",
    "fx_add",
    "fx_sub",
    "fx_mul",
    "fx_div",
    "fx_neg",
    "fx_matmul",
    "fx_matmul_wide",
    "fx_sum",
    "fx_sigmoid",
    "SIGMOID_LAST",
    "sigmoid_table",
]

FRAC_BITS = 16
SCALE = 1 << FRAC_BITS

FX_MAX = np.int32(2**31 - 1)
FX_MIN = np.int32(-(2**31))

#: Smallest positive representable increment (2**-16).
FX_EPS = 1.0 / SCALE


# The kernels compute in int64 by passing ``dtype=np.int64`` to the
# ufunc, which widens int32 operands inside the loop instead of copying
# each one first; integer results do not depend on how they are formed.
#
# The kernels' constants as 0-d arrays: numpy applies a ufunc to two
# arrays faster than to an array and a Python number, whose conversion
# it repeats on every call.  The arithmetic is the same.
_LO, _HI = np.array(int(FX_MIN), np.int64), np.array(int(FX_MAX), np.int64)
_LO_F64, _HI_F64 = np.array(float(FX_MIN)), np.array(float(FX_MAX))
_SCALE = np.array(float(SCALE))
_SHIFT = np.array(FRAC_BITS, np.int64)
_INT64 = np.dtype(np.int64)


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


def fx_add(a, b):
    """Saturating fixed-point addition."""
    return _saturate(np.add(a, b, dtype=np.int64))


def fx_sub(a, b):
    """Saturating fixed-point subtraction."""
    return _saturate(np.subtract(a, b, dtype=np.int64))


def fx_neg(a):
    """Saturating fixed-point negation (-FX_MIN saturates to FX_MAX)."""
    return _saturate(np.negative(a, dtype=np.int64))


def fx_mul(a, b):
    """Fixed-point multiply: (a * b) >> FRAC_BITS with int64 intermediate."""
    return _saturate(np.multiply(a, b, dtype=np.int64) >> _SHIFT)


def fx_div(a, b):
    """Fixed-point divide: (a << FRAC_BITS) / b, rounding toward zero.

    Division by zero saturates to the signed extreme of the numerator
    (0/0 yields 0), mirroring a saturating hardware divider.
    """
    num = np.asarray(a, np.int64) << FRAC_BITS
    den = np.asarray(b, np.int64)
    zero_den = den == 0
    safe_den = np.where(zero_den, 1, den)
    # Truncation toward zero: divide the magnitudes, then negate where
    # the signs differ (their xor is negative).
    quotient = np.abs(num) // np.abs(safe_den)
    quotient = np.where((num ^ safe_den) < 0, -quotient, quotient)
    quotient = np.where(
        zero_den,
        np.where(num > 0, int(FX_MAX), np.where(num < 0, int(FX_MIN), 0)),
        quotient,
    )
    return _saturate(quotient)


def fx_matmul_wide(a, b):
    """:func:`fx_matmul` before its clamp: the shifted int64 products.

    An int64 ``b`` (a ``Linear``'s weight widened once) takes ``np.dot``,
    which widens ``a`` itself and dispatches faster; integer sums do not
    depend on the loop that forms them.
    """
    if b.dtype is _INT64:
        out = np.dot(a, b)
    else:
        out = np.matmul(a, b, dtype=np.int64)
    np.right_shift(out, _SHIFT, out=out)
    return out


def fx_matmul(a, b):
    """Fixed-point matrix multiply with int64 accumulation.

    Each dot product accumulates full int64 products and performs a
    single shift at the end, preserving one extra bit of precision over
    shifting every term (the same trick in-kernel KML uses).
    """
    return _saturate(fx_matmul_wide(a, b))


def fx_sum(a, axis=None):
    """Saturating sum with int64 accumulation; keeps the result 2-D."""
    return _saturate(np.asarray(a).sum(axis=axis, keepdims=True, dtype=np.int64))


#: Largest raw input whose sigmoid is not yet exactly one: from
#: ``SIGMOID_LAST + 1`` up (11.7835 in real terms) the float path returns
#: ``SCALE``, and 0 for the mirrored negative input.
SIGMOID_LAST = 772243

_SIGMOID_CAP = np.array(SIGMOID_LAST + 1, np.int64)
_ONE = np.array(SCALE, np.int32)
#: Inputs per chunk of the table build, which bounds its transient memory.
_TABLE_CHUNK = 4096

_sigmoid_table = None


def _real_sigmoid(raw):
    """The float path the table reproduces: decode, kml_sigmoid, encode."""
    return to_fixed(mathops.kml_sigmoid(from_fixed(raw)))


def sigmoid_table():
    """``sigmoid(-r)`` in Q16.16 for ``r = 0 .. SIGMOID_LAST + 1``, as uint16.

    Built on first call and shared, read-only, by the whole process
    (concurrent first calls may each build it; the builds are equal).
    The build checks the two facts the lookup relies on: the float path
    is symmetric, ``f(-r) == SCALE - f(r)``, over the table, and it
    saturates from ``SIGMOID_LAST + 1`` to the int32 extremes.
    """
    global _sigmoid_table
    if _sigmoid_table is None:
        table = np.empty(SIGMOID_LAST + 2, dtype=np.uint16)
        for lo in range(0, len(table), _TABLE_CHUNK):
            r = np.arange(lo, min(lo + _TABLE_CHUNK, len(table)), dtype=np.int64)
            low = _real_sigmoid(-r)
            if not np.array_equal(_real_sigmoid(r), SCALE - low):
                raise RuntimeError(f"float sigmoid is asymmetric in [{lo}, {r[-1]}]")
            table[lo : lo + len(r)] = low
        edges = np.array([SIGMOID_LAST, SIGMOID_LAST + 1, int(FX_MAX), int(FX_MIN)])
        if _real_sigmoid(edges).tolist() != [SCALE - 1, SCALE, SCALE, 0]:
            raise RuntimeError("float sigmoid does not saturate past SIGMOID_LAST")
        table.flags.writeable = False
        _sigmoid_table = table
    return _sigmoid_table


def fx_sigmoid(a):
    """Q16.16 logistic function by exact table lookup, integer-only.

    Looks ``sigmoid(-|a|)`` up at ``min(|a|, SIGMOID_LAST + 1)`` (in
    int64, so ``FX_MIN`` is safe) and mirrors it to ``SCALE - t`` for
    non-negative inputs.
    """
    a = np.asarray(a)
    index = np.minimum(np.abs(a, dtype=np.int64), _SIGMOID_CAP)
    low = sigmoid_table()[index]
    # ``low`` is uint16 and ``_ONE - low`` int32, so the result is int32.
    return np.where(a < 0, low, _ONE - low)
