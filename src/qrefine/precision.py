"""Error-free float transforms and exact dyadic scalar helpers.

Everything here exists because the refinement loop spans binary scales
2^20 down to 2^-40 while the residuals it must compare shrink toward
1e-24. Plain 64-bit accumulation loses the signal long before that, so
sums and products are tracked as unevaluated (hi, lo) float pairs whose
mathematical sum carries roughly 107 bits.
"""

from __future__ import annotations

import math
from typing import Iterable, NamedTuple

_SPLITTER = 134217729.0  # 2**27 + 1, Dekker's constant for 53-bit floats


def two_sum(a: float, b: float) -> tuple[float, float]:
    """Return (s, e) with s = fl(a+b) and s + e == a + b exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def two_prod(a: float, b: float) -> tuple[float, float]:
    """Return (p, e) with p = fl(a*b) and p + e == a * b exactly.

    Exactness requires the error term to be representable: |a*b| must
    stay above ~2^-969 (or be 0) and below overflow. Residual terms
    here live within 2^+-200, nowhere near either cliff.
    """
    p = a * b
    ah, al = _split(a)
    bh, bl = _split(b)
    return p, ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _split(a: float) -> tuple[float, float]:
    c = _SPLITTER * a
    hi = c - (c - a)
    return hi, a - hi


class DoubleDouble(NamedTuple):
    """Unevaluated sum hi + lo with |lo| <= ulp(hi)/2."""

    hi: float
    lo: float

    def to_float(self) -> float:
        return self.hi + self.lo

    def __neg__(self) -> "DoubleDouble":
        return DoubleDouble(-self.hi, -self.lo)

    def less_than(self, other: "DoubleDouble") -> bool:
        if self.hi != other.hi:
            return self.hi < other.hi
        return self.lo < other.lo


def dd_sum(values: list[float]) -> DoubleDouble:
    """Sum a list into a DoubleDouble.

    fsum computes the correctly rounded total s; a second fsum over the
    inputs plus -s recovers the rounding error of the first, itself
    correctly rounded. The pair is accurate to ~2^-107 relative.
    """
    s = math.fsum(values)
    e = math.fsum(values + [-s])
    return DoubleDouble(s, e)


def dd_sum_squares(rows: Iterable[list[float]]) -> DoubleDouble:
    """Sum over rows of (sum of the row)^2, as a DoubleDouble.

    Each row is summed with dd_sum; its square enters as the error-free
    two_prod of the high part plus the cross terms of the low part.
    """
    total = DoubleDouble(0.0, 0.0)
    for row in rows:
        r = dd_sum(row)
        sq_hi, sq_err = two_prod(r.hi, r.hi)
        cross = 2.0 * r.hi * r.lo + r.lo * r.lo
        s, e = two_sum(total.hi, sq_hi)
        e += total.lo + sq_err + cross
        total = DoubleDouble(*two_sum(s, e))
    return total


# ---------------------------------------------------------------------------
# Exact scalar dyadics: a real of the form m * 2^e with m an arbitrary
# precision integer. Floats embed exactly; sums and products stay exact.


def dyadic_of_float(x: float) -> tuple[int, int]:
    if x == 0.0:
        return 0, 0
    if not math.isfinite(x):
        raise ValueError("non-finite value has no dyadic form")
    m, e = math.frexp(x)
    return int(m * 9007199254740992.0), e - 53  # m * 2^53 is an exact integer


def dyadic_to_float(m: int, e: int) -> float:
    """Correctly rounded float value of m * 2^e (exact int/int division)."""
    if e >= 0:
        return float(m << e)
    return m / (1 << -e)


def dyadic_sum(terms: list[tuple[int, int]]) -> tuple[int, int]:
    """Exact sum of (mantissa, exponent) pairs at the minimum exponent."""
    live = [(m, e) for m, e in terms if m]
    if not live:
        return 0, 0
    e = min(ex for _, ex in live)
    return sum(m << (ex - e) for m, ex in live), e


def float_parts(m: int, e: int) -> list[float]:
    """Split m * 2^e into floats whose exact sum equals it.

    Repeatedly peels the correctly rounded leading float and subtracts
    it exactly; each pass removes at least 52 bits of mantissa, so a
    handful of parts always suffices.
    """
    parts = []
    while m:
        f = dyadic_to_float(m, e)
        fm, fe = math.frexp(f)
        fi = int(fm * 9007199254740992.0)
        fexp = fe - 53
        ce = min(e, fexp)
        m = (m << (e - ce)) - (fi << (fexp - ce))
        e = ce
        parts.append(f)
    return parts or [0.0]
