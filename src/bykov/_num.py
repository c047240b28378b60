"""Numeric conventions used by the core modules.

Everything that feeds a hitting time or a log-coordinate runs in numpy's
extended-precision ``longdouble``.  The sequences of interest span seven
orders of magnitude within a dozen returns, and the diagnostics difference
nearly-equal quantities of size ~1e7 down at the 1e-10 level, which is
below double-precision differencing noise.  On x86-64 ``longdouble`` is the
80-bit format (eps ~ 1.1e-19), which leaves comfortable headroom.  Where
``longdouble`` has fewer than its 63 fraction bits (it is float64 under
MSVC and on Apple arm64), importing the package raises ``ImportError``.
"""

from __future__ import annotations

import numpy as np

from .errors import InsufficientData

__all__ = ["LD", "PI", "TWO_PI", "asld", "precision_info"]

LD = np.longdouble

_FINFO = np.finfo(LD)
if _FINFO.nmant < 63:
    raise ImportError(
        f"bykov needs np.longdouble in the x87 80-bit extended format (63 fraction bits) "
        f"or wider; here it has {_FINFO.nmant} fraction bits"
        + (", the IEEE binary64 format of float64" if _FINFO.nmant == 52 else "")
    )

PI = np.arccos(LD(-1.0))
TWO_PI = LD(2.0) * PI

# long-double bounds for the per-crossing checks: a comparison with a
# long double of its own type takes half the time of one with ``-np.inf``
# (a global lookup, a negation and a mixed-type comparison) or ``0.0``
_NEG_INF, _INF, _ZERO, _ONE = LD(-np.inf), LD(np.inf), LD(0.0), LD(1.0)


# past this many times |c|, adding c to a product rounds away (see _affine_iterates)
_ABSORBED = LD(2.0) ** (_FINFO.nmant + 3)


def _affine_iterates(x, c, factors: tuple, m: int) -> np.ndarray:
    """The first ``m`` iterates of ``x' = c + f_r*(...*(f_1*x))`` from ``x``, every factor above 1.

    ``c + S2*(S1*x)`` is this recurrence, and so is ``delta*x - c``, as
    ``(-c) + delta*x``: IEEE subtraction adds the negated operand, and
    addition and multiplication commute bit for bit.  Long-double scalars
    step it while ``|x| <= 2**66*|c|`` (``2**(nmant + 3)``, with
    ``nmant = 63`` on x86-64).  Past that, each product ``P`` of the step
    is at least as large as its operand, since every factor exceeds 1 and
    rounding is monotone, so ``|P| > 2**66*|c|`` holds at every later
    step too.  With ``2**e <= |P| < 2**(e+1)``, ``|c| < 2**(e-65)``, which
    is less than half the gap from ``P`` to either neighbour, ``2**(e-64)``
    below a binade edge and ``2**(e-63)`` elsewhere.  So ``c + P`` rounds
    to ``P``, and the rest of the sequence is the products alone: one
    ``np.multiply.accumulate`` over ``x, f_1, ..., f_r, f_1, ...``, which
    multiplies in order and rounds once per product, as the scalar step
    does.  ``+-inf`` passes the test and stays itself, as in the scalar
    step.  A NaN fails ``|x| <= ...`` and goes to the accumulate, which,
    like ``c + NaN``, passes its payload on.  Call it inside
    ``np.errstate(over="ignore")`` where a product may overflow.
    """
    out = np.empty(m, LD)
    bound = _ABSORBED * abs(c)
    k = 0
    while k < m and abs(x) <= bound:
        out[k] = x
        for f in factors:
            x = f * x
        x = c + x
        k += 1
    if k < m:
        r = len(factors)
        run = np.empty(1 + r * (m - 1 - k), LD)
        run[0] = x
        for i, f in enumerate(factors, 1):
            run[i::r] = f
        np.multiply.accumulate(run, out=run)
        out[k:] = run[::r]
    return out


# a difference at most this times the largest |element| is rounding noise
_NOISE = LD(16.0) * _FINFO.eps


def _limit(seq: np.ndarray, rate=None) -> tuple[np.longdouble, float]:
    """``(value, bound)``: the limit of ``seq``, read at its last element, and a bound on its error.

    With a known geometric ``rate``, one Richardson step ``(s[i] -
    rate*s[i-1]) / (1 - rate)`` over the whole sequence first cancels the
    leading error term.  The bound is ``d*r/(1 - r)``, with ``d`` the last
    difference above the noise floor ``16*eps*max|s|`` and ``r`` its ratio
    to the one before (at most 0.9) if that is above the floor and larger,
    else 0.5; with no difference above the floor, the largest one.  No NaN
    is skipped: callers slice off an undefined head.  Fewer than two
    elements, after the step, raise :class:`~bykov.errors.InsufficientData`.
    """
    if rate is not None:
        seq = (seq[1:] - rate * seq[:-1]) / (_ONE - rate)
    if len(seq) < 2:
        raise InsufficientData(f"a limit needs two elements, got {len(seq)}")
    diffs = abs(seq[1:] - seq[:-1])
    floor = _NOISE * abs(seq).max()
    significant = (diffs > floor).nonzero()[0]
    if len(significant) == 0:
        return seq[-1], float(diffs.max())
    k = significant[-1]
    d_last = diffs[k]
    if k >= 1 and diffs[k - 1] > floor and diffs[k - 1] > d_last:
        ratio = min(float(d_last / diffs[k - 1]), 0.9)
    else:
        ratio = 0.5
    return seq[-1], float(d_last) * ratio / (1.0 - ratio)


def asld(x) -> np.longdouble:
    """Coerce a scalar to extended precision without a float64 round-trip."""
    if isinstance(x, np.longdouble):
        return x
    return LD(x)


def precision_info() -> dict:
    """``np.longdouble``'s fraction bits and epsilon, and the NumPy version, JSON-serializable."""
    return {"longdouble_nmant": int(_FINFO.nmant), "longdouble_eps": float(_FINFO.eps),
            "numpy": np.__version__}
