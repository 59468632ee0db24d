"""Two-sided radix-2 window encoding and exact dyadic center points.

A window [l_lo, l_hi] gives every unknown k = l_hi - l_lo + 1 bits per
sign, so variable i contributes the increment

    sum_{t=l_lo}^{l_hi} 2^t * (qplus_{i,t} - qminus_{i,t})

around its current center. ``EncodingSpec.qubits`` is the qubit layout,
the (var, sign, bit) of each qubit in index order: variable-major, plus
block before minus block, least significant bit first.

Exact dyadic scalars, (m, e) pairs, and DyadicVectors hold reals m * 2^e
with m an arbitrary precision integer. Floats embed exactly, and sums and
products stay exact, so residuals and distances are computed without
rounding and rounded once, when they are reported as floats.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from typing import Iterable, Sequence

from .errors import DimensionMismatch, IndexOutOfRange

BitVector = tuple[int, ...]
_power_of_five = lru_cache(maxsize=256)((5).__pow__)  # 5^k by k; a run meets few k


def dyadic_of_float(x: float) -> tuple[int, int]:
    """(m, e) with m * 2^e == x exactly, for a finite float x."""
    if not math.isfinite(x):
        raise ValueError("non-finite value has no dyadic form")
    m, den = x.as_integer_ratio()  # den is a power of two
    return m, 1 - den.bit_length()


def dyadic_to_float(m: int, e: int) -> float:
    """Correctly rounded float value of m * 2^e (exact int/int division);
    past the float range it is +-inf, as round-to-nearest gives."""
    try:
        return float(m << e) if e >= 0 else m / (1 << -e)
    except OverflowError:
        return math.inf if m > 0 else -math.inf  # m itself may not fit a float


@dataclass(frozen=True, init=False)
class DyadicVector:
    """Vector with components mantissa_i * 2^exponent, stored exactly.

    The constructor normalizes to the largest representable exponent, so
    equality and hashing follow the represented values, not the chosen
    scaling. All arithmetic is integer arithmetic; nothing ever rounds.
    """

    mantissas: tuple[int, ...]
    exponent: int

    def __init__(self, mantissas: Iterable[int], exponent: int) -> None:
        mantissas = tuple(mantissas)
        low = reduce(operator.or_, mantissas, 0)  # its lowest set bit is the lowest of any mantissa
        shift = (low & -low).bit_length() - 1  # -1 when every mantissa is 0
        if shift > 0:
            mantissas = tuple([m >> shift for m in mantissas])
        object.__setattr__(self, "mantissas", mantissas)
        object.__setattr__(self, "exponent", exponent + shift if low else 0)

    @staticmethod
    def zero(n: int) -> "DyadicVector":
        return DyadicVector((0,) * n, 0)

    @staticmethod
    def from_pairs(pairs: Iterable[tuple[int, int]]) -> "DyadicVector":
        """Vector with components m * 2^e, one per (m, e) pair, exactly."""
        pairs = list(pairs)
        e = min((ex for _, ex in pairs), default=0)
        return DyadicVector([m << (ex - e) for m, ex in pairs], e)

    @staticmethod
    def from_floats(values: Sequence[float]) -> "DyadicVector":
        """Vector equal to the given finite floats, exactly."""
        return DyadicVector.from_pairs(map(dyadic_of_float, values))

    def __len__(self) -> int:
        return len(self.mantissas)

    def add_increments(self, increments: Sequence[int], scale: int) -> "DyadicVector":
        """New vector equal to self + increments * 2^scale, exactly."""
        if len(increments) != len(self.mantissas):
            raise DimensionMismatch("increment count != component count")
        e = min(self.exponent, scale)
        se, de = self.exponent - e, scale - e
        return DyadicVector([(m << se) + (d << de) for m, d in zip(self.mantissas, increments)], e)

    def to_floats(self) -> tuple[float, ...]:
        return tuple(dyadic_to_float(m, self.exponent) for m in self.mantissas)

    def to_decimal_strings(self) -> tuple[str, ...]:
        """Exact finite decimal expansion of each component."""
        return tuple(_dyadic_decimal(m, self.exponent) for m in self.mantissas)


def _dyadic_decimal(m: int, e: int) -> str:
    if e >= 0:
        return str(m << e)
    scaled = m * _power_of_five(-e)  # m * 2^e = m * 5^-e / 10^-e
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(-e + 1, "0")
    whole, frac = digits[:e], digits[e:].rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


@dataclass(frozen=True)
class EncodingSpec:
    """Window geometry: n_vars unknowns, bit exponents l_lo..l_hi."""

    n_vars: int
    l_lo: int
    l_hi: int

    def __post_init__(self) -> None:
        if self.n_vars < 1:
            raise IndexOutOfRange("n_vars must be >= 1")
        if self.l_lo > self.l_hi:
            raise IndexOutOfRange("l_lo must not exceed l_hi")

    @property
    def bits_per_sign(self) -> int:
        return self.l_hi - self.l_lo + 1

    @property
    def total_qubits(self) -> int:
        return 2 * self.bits_per_sign * self.n_vars

    @cached_property
    def qubits(self) -> tuple[tuple[int, int, int], ...]:
        """The qubit layout: (var, sign, bit) of each qubit in index order;
        a set qubit adds sign * 2^(l_lo + bit) to unknown var."""
        k = self.bits_per_sign
        return tuple(
            (var, sign, bit) for var in range(self.n_vars) for sign in (1, -1) for bit in range(k)
        )


def decode_increments(bits: BitVector, spec: EncodingSpec) -> tuple[int, ...]:
    """Integer increment per variable, in units of 2^l_lo, of 0/1 bits."""
    if len(bits) != spec.total_qubits:
        raise DimensionMismatch(f"expected {spec.total_qubits} bits, got {len(bits)}")
    if not {0, 1}.issuperset(bits):
        raise IndexOutOfRange(f"bits must be 0 or 1, got {tuple(bits)}")
    out = [0] * spec.n_vars
    for b, (var, sign, bit) in zip(bits, spec.qubits):
        out[var] += sign * (b << bit)
    return tuple(out)

