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

Two paths, one result.  The online loop feeds these kernels one small
row at a time, where a numpy call costs ~0.4-1 us of dispatch whatever
its size: :func:`kml_sigmoid` on a 1x32 row is ~27 ufunc calls and
~12 us.  So :func:`kml_sigmoid` on at most 16 values, and
:func:`kml_softmax_and_log` and :func:`kml_softmax_cross_entropy` on
one row of at most 7, run on Python floats instead.  That path
applies the same IEEE double operations in the same order as the array
path, so it returns the same bits (NaN aside, which stays NaN):
``// 1.0`` is floor, the exact ``2**k`` comes from a table
``np.ldexp`` builds once, and ``np.frexp`` splits the one value
:func:`kml_log` needs.  The sigmoid runs as one fused loop per value
(``-|x|``, the -80 clamp, exp, the division), not as list passes
zipped together.  ``tests/kml/test_mathops.py`` checks the two paths
against each other bit for bit.  Measured on a 2-vCPU Xeon VM (best of
15 x 5,000 calls), the fused loop costs ~0.45 us a value: on a float32
sigmoid row it takes 4.3 / 7.5 / 9.2 / 11.3 / 14.1 us at 8 / 16 / 20
/ 24 / 32 values against ~11.2-11.9 us for the array path, which wins
from ~26 values on, so 16 keeps a margin and the network's 1x32 layer
stays on arrays.  The 1x4 loss row's softmax and log drop from ~55 to
~11 us.
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
    "kml_softmax_cross_entropy",
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
_SQRT_HALF_FLOAT = 0.70710678118654752
_SQRT_HALF = _f64(_SQRT_HALF_FLOAT)
_CLAMP_LO = _f64(-EXP_CLAMP)
_CLAMP_HI = _f64(EXP_CLAMP)

# Degree-7 Taylor/minimax-style coefficients for exp(r), |r| <= ln2/2,
# as Python floats (the single-row paths) and as 0-d arrays.
_EXP_FLOATS = (
    1.0,
    1.0,
    0.5,
    1.0 / 6.0,
    1.0 / 24.0,
    1.0 / 120.0,
    1.0 / 720.0,
    1.0 / 5040.0,
)
_EXP_COEFFS = tuple(_f64(c) for c in _EXP_FLOATS)

# 1/3, 1/5, 1/7 and 9: the terms of the atanh series in kml_log.
_ATANH_FLOATS = (1.0 / 3.0, 1.0 / 5.0, 1.0 / 7.0, 9.0)
_ATANH_SERIES = tuple(_f64(c) for c in _ATANH_FLOATS)

# 2**k for every k a single-row exp reaches, and one spare: its
# argument lies in [-EXP_CLAMP, 0], so k = floor(x/ln2 + 1/2) lies in
# [-115, 0].  Keyed by int; the float k finds its entry (equal numbers
# hash alike).
_POW2 = dict(zip(range(-116, 1), np.ldexp(1.0, np.arange(-116, 1)).tolist()))

# Most values a kml_sigmoid input may hold to take the single-row path
# (see the module docstring for the crossover).
_SIGMOID_ROW_MAX = 16
# Widest row kml_softmax_and_log takes on the single-row path: numpy
# sums fewer than 8 elements one by one from 0.0, as that path does.
_SOFTMAX_ROW_MAX = 7


def _polyval(coeffs, x):
    """Horner evaluation of sum(coeffs[i] * x**i) (at least two
    coefficients), in place once the first product exists."""
    result = coeffs[-1] * x
    result += coeffs[-2]
    for c in reversed(coeffs[:-2]):
        result *= x
        result += c
    return result


def _exp_clamped(x):
    """kml_exp of float64 ``x`` already clamped to [-EXP_CLAMP, EXP_CLAMP]."""
    k = np.floor(x / _LN2 + _HALF)
    r = x - k * _LN2
    return np.ldexp(_polyval(_EXP_COEFFS, r), k.astype(np.int64))


def kml_exp(x):
    """exp(x) via range reduction: x = k*ln2 + r, exp(x) = 2**k * P(r).

    ``k`` is the nearest integer to x/ln2, so ``|r| <= ln2/2`` where the
    degree-7 polynomial is accurate to ~1e-13 relative error.  ``2**k``
    is applied with ``ldexp``-style scaling (exact in binary floats).
    """
    x = np.asarray(x, dtype=np.float64)
    return _exp_clamped(np.minimum(np.maximum(x, _CLAMP_LO), _CLAMP_HI))


def _exp_floats(xs):
    """kml_exp of each Python float in ``xs``, all <= 0 or NaN.

    The same IEEE operations in the same order as the array path, so
    the same bits: ``// 1.0`` is floor and multiplying by the exact
    ``2**k`` is ldexp, the product being a normal float.
    """
    c0, c1, c2, c3, c4, c5, c6, c7 = _EXP_FLOATS
    ln2, lo, pow2 = LN2, -EXP_CLAMP, _POW2
    out = []
    for x in xs:
        if x < lo:
            x = lo
        elif x != x:
            out.append(x)
            continue
        k = (x / ln2 + 0.5) // 1.0
        r = x - k * ln2
        poly = ((((((c7 * r + c6) * r + c5) * r + c4) * r + c3) * r + c2) * r + c1) * r + c0
        out.append(poly * pow2[k])
    return out


def _sigmoid_floats(xs):
    """kml_sigmoid of each Python float in ``xs``: :func:`_exp_floats`
    of ``-|x|`` fused into the one loop that divides it out."""
    c0, c1, c2, c3, c4, c5, c6, c7 = _EXP_FLOATS
    ln2, lo, pow2 = LN2, -EXP_CLAMP, _POW2
    out = []
    for v in xs:
        e = -abs(v)
        if e < lo:
            e = lo
        if e == e:  # NaN stays NaN
            k = (e / ln2 + 0.5) // 1.0
            r = e - k * ln2
            e = ((((((c7 * r + c6) * r + c5) * r + c4) * r + c3) * r + c2) * r + c1) * r + c0
            e *= pow2[k]
        out.append((1.0 if v >= 0.0 else e) / (1.0 + e))
    return out


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


def _log_float(x):
    """kml_log of one Python float, in the array path's operation order."""
    if not x > 0.0:
        return -np.inf if x == 0.0 else np.nan
    m, e = np.frexp(x)
    m, e = float(m), int(e)
    if m < _SQRT_HALF_FLOAT:
        m *= 2.0
        e -= 1
    t = (m - 1.0) / (m + 1.0)
    t2 = t * t
    third, fifth, seventh, nine = _ATANH_FLOATS
    series = 1.0 + t2 * (third + t2 * (fifth + t2 * (seventh + t2 / nine)))
    return 2.0 * t * series + e * LN2


def kml_sigmoid(x):
    """Numerically stable logistic function 1 / (1 + exp(-x)).

    Split at zero so the intermediate exp() argument, -|x|, is always
    <= 0, avoiding overflow for large-magnitude inputs.  Up to 16
    values go through Python floats (see the module docstring).
    """
    x = np.asarray(x)
    if x.size <= _SIGMOID_ROW_MAX:
        # A float32 or float64 buffer lists its values exactly as float64.
        xs = (x if x.dtype.char in "fd" else x.astype(np.float64)).ravel().tolist()
        return np.array(_sigmoid_floats(xs)).reshape(x.shape)
    x = np.asarray(x, dtype=np.float64)
    pos = x >= _ZERO
    z = np.abs(x)
    np.negative(z, out=z)
    np.maximum(z, _CLAMP_LO, out=z)  # -|x| <= 0: the upper clamp never binds
    ez = _exp_clamped(z)
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


def _softmax_and_log_row(xs):
    """kml_softmax_and_log of one row of Python floats, in the array
    path's operation order (its sum included: see _SOFTMAX_ROW_MAX), as
    two lists of Python floats."""
    top = max(xs)  # with a NaN anywhere every output is NaN either way
    shifted = [v - top for v in xs]
    ex = _exp_floats(shifted)
    total = 0.0
    for e in ex:
        total += e
    log_total = _log_float(total)
    return [e / total for e in ex], [v - log_total for v in shifted]


def kml_softmax_and_log(x, axis=-1):
    """``(softmax(x), log(softmax(x)))`` from one exp pass."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2 and axis in (1, -1) and x.shape[0] == 1:
        if 0 < x.shape[1] <= _SOFTMAX_ROW_MAX:
            softmax, log_softmax = _softmax_and_log_row(x[0].tolist())
            return np.array([softmax]), np.array([log_softmax])
    shifted, ex, total = _shifted_exp(x, axis)
    return ex / total, shifted - kml_log(total)


def kml_softmax_cross_entropy(x, targets):
    """``(softmax(x), loss)`` for 2-D logits ``x`` and target rows of
    its shape, ``loss`` being ``-(targets * log(softmax(x))).sum()``
    over the number of rows, as a Python float.

    One row of up to 7 values takes the single-row path, summing the
    products on Python floats one by one from 0.0 as numpy does (see
    _SOFTMAX_ROW_MAX): the same bits, NaN aside.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] == 1 and 0 < x.shape[1] <= _SOFTMAX_ROW_MAX:
        softmax, log_probs = _softmax_and_log_row(x[0].tolist())
        total = 0.0
        for weight, log_prob in zip(targets[0].tolist(), log_probs):
            total += weight * log_prob
        return np.array([softmax]), -total
    softmax, log_probs = kml_softmax_and_log(x, axis=1)
    return softmax, float(-(targets * log_probs).sum() / x.shape[0])
