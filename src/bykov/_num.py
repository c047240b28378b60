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


def asld(x) -> np.longdouble:
    """Coerce a scalar to extended precision without a float64 round-trip."""
    if isinstance(x, np.longdouble):
        return x
    return LD(x)


def precision_info() -> dict:
    """``np.longdouble``'s fraction bits and epsilon, and the NumPy version, JSON-serializable."""
    return {"longdouble_nmant": int(_FINFO.nmant), "longdouble_eps": float(_FINFO.eps),
            "numpy": np.__version__}
