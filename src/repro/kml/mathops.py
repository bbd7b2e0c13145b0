"""From-scratch transcendental math, as the KML kernel library requires.

The Linux kernel offers no libm, so KML (HotStorage '21, section 2)
implements logarithm, exponential, logistic, and softmax "from scratch
using approximation algorithms".  This module is that component: every
function here is built only from +, -, *, / and bit-level float
decomposition -- no ``numpy`` transcendental kernels and no ``math``
module calls on the approximation path.

All functions accept scalars or numpy arrays and are vectorized.  They
are used directly by the fixed-point matrix backend.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "kml_exp",
    "kml_log",
    "kml_log2",
    "kml_sigmoid",
    "kml_tanh",
    "kml_sqrt",
    "kml_softmax",
    "kml_log_softmax",
    "LN2",
    "EXP_CLAMP",
]

# ln(2) to double precision; the pivot constant for range reduction.
LN2 = 0.6931471805599453

# exp() inputs are clamped to +/- EXP_CLAMP to avoid float32 overflow;
# sigmoid saturates far earlier than this in practice.
EXP_CLAMP = 80.0

# Degree-7 Taylor/minimax-style coefficients for exp(r), |r| <= ln2/2.
_EXP_COEFFS = (
    1.0,
    1.0,
    0.5,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
)


def _polyval(coeffs, x):
    """Horner evaluation of sum(coeffs[i] * x**i)."""
    result = np.zeros_like(x) + coeffs[-1]
    for c in reversed(coeffs[:-1]):
        result = result * x + c
    return result


def kml_exp(x):
    """exp(x) via range reduction: x = k*ln2 + r, exp(x) = 2**k * P(r).

    ``k`` is the nearest integer to x/ln2, so ``|r| <= ln2/2`` where the
    degree-7 polynomial is accurate to ~1e-13 relative error.  ``2**k``
    is applied with ``ldexp``-style scaling (exact in binary floats).
    """
    x = np.asarray(x, dtype=np.float64)
    x = np.clip(x, -EXP_CLAMP, EXP_CLAMP)
    k = np.floor(x / LN2 + 0.5)
    r = x - k * LN2
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
        adjust = m < 0.70710678118654752
        m = np.where(adjust, m * 2.0, m)
        e = e - adjust.astype(np.int64)
        t = (m - 1.0) / (m + 1.0)
        t2 = t * t
        # 2*atanh(t) = 2t * (1 + t^2/3 + t^4/5 + t^6/7 + t^8/9)
        series = 1.0 + t2 * (
            1.0 / 3.0 + t2 * (1.0 / 5.0 + t2 * (1.0 / 7.0 + t2 / 9.0))
        )
        result = 2.0 * t * series + e * LN2
        result = np.where(x > 0, result, np.where(x == 0, -np.inf, np.nan))
    return result


def kml_log2(x):
    """Base-2 logarithm built on :func:`kml_log`."""
    return kml_log(x) / LN2


def kml_sigmoid(x):
    """Numerically stable logistic function 1 / (1 + exp(-x)).

    Split at zero so the intermediate exp() argument is always <= 0,
    avoiding overflow for large-magnitude inputs.
    """
    x = np.asarray(x, dtype=np.float64)
    pos = x >= 0
    ez = kml_exp(np.where(pos, -x, x))
    return np.where(pos, 1.0 / (1.0 + ez), ez / (1.0 + ez))


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


def kml_softmax(x, axis=-1):
    """Stable softmax: shift by the max before exponentiating."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    ex = kml_exp(shifted)
    return ex / np.sum(ex, axis=axis, keepdims=True)


def kml_log_softmax(x, axis=-1):
    """log(softmax(x)) without forming the softmax (stable for CE loss)."""
    x = np.asarray(x, dtype=np.float64)
    shifted = x - np.max(x, axis=axis, keepdims=True)
    log_sum = kml_log(np.sum(kml_exp(shifted), axis=axis, keepdims=True))
    return shifted - log_sum
