"""Exact dyadic scalars: a real of the form m * 2^e with m an arbitrary
precision integer.

Floats embed exactly, and sums and products stay exact, so residuals
and distances are computed without rounding and rounded once, when they
are reported as floats.
"""

from __future__ import annotations

import math


def dyadic_of_float(x: float) -> tuple[int, int]:
    if x == 0.0:
        return 0, 0
    if not math.isfinite(x):
        raise ValueError("non-finite value has no dyadic form")
    m, e = math.frexp(x)
    return int(m * 9007199254740992.0), e - 53  # m * 2^53 is an exact integer


def dyadic_to_float(m: int, e: int) -> float:
    """Correctly rounded float value of m * 2^e (exact int/int division);
    past the float range it is +-inf, as round-to-nearest gives."""
    try:
        return float(m << e) if e >= 0 else m / (1 << -e)
    except OverflowError:
        return math.inf if m > 0 else -math.inf  # m itself may not fit a float

