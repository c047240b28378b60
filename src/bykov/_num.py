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


def asld(x) -> np.longdouble:
    """Coerce a scalar to extended precision without a float64 round-trip."""
    if isinstance(x, np.longdouble):
        return x
    return LD(x)


def precision_info() -> dict:
    """``np.longdouble``'s fraction bits and epsilon, and the NumPy version, JSON-serializable."""
    return {"longdouble_nmant": int(_FINFO.nmant), "longdouble_eps": float(_FINFO.eps),
            "numpy": np.__version__}
