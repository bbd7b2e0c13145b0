"""From-scratch transcendental math, as the KML kernel library requires.

The Linux kernel offers no libm, so KML (HotStorage '21, section 2)
implements logarithm, exponential, logistic, and softmax "from scratch
using approximation algorithms".  This module is that component: every
function here is built only from +, -, *, / and bit-level float
decomposition -- no ``numpy`` transcendental kernels and no ``math``
module calls on the approximation path.

All functions accept scalars or numpy arrays, compute in float64 and
are vectorized.  Every ``Matrix`` dtype takes its nonlinearities from
here (fixed32 decodes to float64 first, except sigmoid, whose exact
table ``repro.kml.fixedpoint`` builds from :func:`kml_sigmoid`), and
the losses take softmax and log-softmax from here.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "kml_exp",
    "kml_log",
    "kml_sigmoid",
    "kml_tanh",
    "kml_sqrt",
    "kml_softmax",
    "kml_softmax_and_log",
    "LN2",
    "EXP_CLAMP",
]

# ln(2) to double precision; the pivot constant for range reduction.
LN2 = 0.6931471805599453

# exp() inputs are clamped to +/- EXP_CLAMP to avoid float32 overflow;
# sigmoid saturates far earlier than this in practice.
EXP_CLAMP = 80.0


def _f64(value):
    """``value`` as a 0-d float64 array, for the constants of the hot kernels.

    numpy applies a ufunc to two arrays faster than to an array and a
    Python float, whose conversion it repeats on every call; the float64
    arithmetic is the same.
    """
    return np.array(value, dtype=np.float64)


_LN2 = _f64(LN2)
_ZERO = _f64(0.0)
_HALF = _f64(0.5)
_ONE = _f64(1.0)
_TWO = _f64(2.0)
_NEG_INF = _f64(-np.inf)
_NAN = _f64(np.nan)
_SQRT_HALF = _f64(0.70710678118654752)
_CLAMP_LO = _f64(-EXP_CLAMP)
_CLAMP_HI = _f64(EXP_CLAMP)

# Degree-7 Taylor/minimax-style coefficients for exp(r), |r| <= ln2/2.
_EXP_COEFFS = tuple(
    _f64(c)
    for c in (
        1.0,
        1.0,
        0.5,
        1.0 / 6.0,
        1.0 / 24.0,
        1.0 / 120.0,
        1.0 / 720.0,
        1.0 / 5040.0,
    )
)

# 1/3, 1/5, 1/7 and 9: the terms of the atanh series in kml_log.
_ATANH_SERIES = tuple(_f64(c) for c in (1.0 / 3.0, 1.0 / 5.0, 1.0 / 7.0, 9.0))


def _polyval(coeffs, x):
    """Horner evaluation of sum(coeffs[i] * x**i) (at least two coefficients)."""
    result = coeffs[-1] * x + coeffs[-2]
    for c in reversed(coeffs[:-2]):
        result = result * x + c
    return result


def kml_exp(x):
    """exp(x) via range reduction: x = k*ln2 + r, exp(x) = 2**k * P(r).

    ``k`` is the nearest integer to x/ln2, so ``|r| <= ln2/2`` where the
    degree-7 polynomial is accurate to ~1e-13 relative error.  ``2**k``
    is applied with ``ldexp``-style scaling (exact in binary floats).
    """
    x = np.asarray(x, dtype=np.float64)
    x = np.minimum(np.maximum(x, _CLAMP_LO), _CLAMP_HI)
    k = np.floor(x / _LN2 + _HALF)
    r = x - k * _LN2
    poly = _polyval(_EXP_COEFFS, r)
    return np.ldexp(poly, k.astype(np.int64))


def kml_log(x):
    """Natural log via mantissa/exponent split plus an atanh series.

    Decomposes ``x = m * 2**e`` with ``m`` in [sqrt(1/2), sqrt(2)), then
    uses ``log(m) = 2 * atanh((m - 1) / (m + 1))`` with a degree-9 odd
    polynomial.  Domain errors follow IEEE: log(0) = -inf, log(<0) = nan.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        m, e = np.frexp(x)  # x = m * 2**e, m in [0.5, 1)
        # Shift mantissa into [sqrt(1/2), sqrt(2)) so |t| stays small.
        adjust = m < _SQRT_HALF
        m = np.where(adjust, m * _TWO, m)
        e = e - adjust.astype(np.int64)
        t = (m - _ONE) / (m + _ONE)
        t2 = t * t
        # 2*atanh(t) = 2t * (1 + t^2/3 + t^4/5 + t^6/7 + t^8/9)
        third, fifth, seventh, nine = _ATANH_SERIES
        series = _ONE + t2 * (third + t2 * (fifth + t2 * (seventh + t2 / nine)))
        result = _TWO * t * series + e * _LN2
        result = np.where(x > _ZERO, result, np.where(x == _ZERO, _NEG_INF, _NAN))
    return result


def kml_sigmoid(x):
    """Numerically stable logistic function 1 / (1 + exp(-x)).

    Split at zero so the intermediate exp() argument is always <= 0,
    avoiding overflow for large-magnitude inputs.
    """
    x = np.asarray(x, dtype=np.float64)
    pos = x >= _ZERO
    ez = kml_exp(np.where(pos, -x, x))
    # Each element divides the numerator its branch selects: 1 or ez.
    return np.where(pos, _ONE, ez) / (_ONE + ez)


def kml_tanh(x):
    """tanh via the stable identity tanh(x) = 2*sigmoid(2x) - 1."""
    return 2.0 * kml_sigmoid(2.0 * np.asarray(x, dtype=np.float64)) - 1.0


def kml_sqrt(x):
    """Square root by Newton-Raphson on a frexp-based initial guess.

    Four iterations from a seed accurate to ~2x suffice for double
    precision to ~1 ulp on the tested range.
    """
    x = np.asarray(x, dtype=np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        m, e = np.frexp(x)
        # Seed: sqrt(m * 2^e) ~= (0.5 + 0.5*m) * 2^(e//2)
        half_e = e // 2
        guess = np.ldexp(0.41731 + 0.59016 * m, half_e)
        guess = np.where(e % 2 != 0, guess * 1.4142135623730951, guess)
        guess = np.where(x > 0, guess, 1.0)  # avoid div-by-zero in loop
        for _ in range(4):
            guess = 0.5 * (guess + x / guess)
        result = np.where(x > 0, guess, np.where(x == 0, 0.0, np.nan))
    return result


def _shifted_exp(x, axis):
    """(x - max, exp(x - max), sum of that exp): the stable softmax parts."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - x.max(axis=axis, keepdims=True)
    ex = kml_exp(shifted)
    return shifted, ex, ex.sum(axis=axis, keepdims=True)


def kml_softmax(x, axis=-1):
    """Stable softmax: shift by the max before exponentiating."""
    _, ex, total = _shifted_exp(x, axis)
    return ex / total


def kml_softmax_and_log(x, axis=-1):
    """``(softmax(x), log(softmax(x)))`` from one exp pass."""
    shifted, ex, total = _shifted_exp(x, axis)
    return ex / total, shifted - kml_log(total)
