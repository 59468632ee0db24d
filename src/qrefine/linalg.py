"""Dense linear-algebra substrate: the exact residual r = b - Ax, and
from it A^T r and ||r||^2; the float and exact Gram matrices A^T A;
symmetric eigendecomposition (LAPACK eigh), singularity test, condition number.

Matrices and vectors are plain float64 numpy arrays; LinearSystem wraps
read-only copies of the (A, b) pair with shape and finiteness checks,
and caches its unit Gram matrix, float_gram of A 2^-s with 2^s the power
of two just above A's largest entry (row tuples, so it can key a cache),
and the exact dyadic form of A and b; it compares by identity.
A matrix held exactly is a pair (rows, e): integer rows times one 2^e.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .encoding import DyadicVector
from .errors import DimensionMismatch, SingularMatrix, TooLarge

@dataclass(frozen=True, eq=False)
class LinearSystem:
    a: np.ndarray
    b: np.ndarray

    def __post_init__(self) -> None:
        # private read-only copies: the cached gram must not go stale
        a = np.array(self.a, dtype=float)
        b = np.array(self.b, dtype=float)
        a.flags.writeable = b.flags.writeable = False
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
            raise DimensionMismatch(f"coefficient matrix must be square and non-empty, got {a.shape}")
        if b.shape != (a.shape[0],):
            raise DimensionMismatch(f"rhs shape {b.shape} does not match matrix {a.shape}")
        if not (np.isfinite(a).all() and np.isfinite(b).all()):
            raise DimensionMismatch("matrix and rhs entries must be finite")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.a.shape[0]

    @cached_property
    def scale(self) -> int:
        """s = unit_scale of A: its largest |entry| times 2^-s is in [0.5, 1)."""
        return unit_scale(*self.exact[:2])

    @cached_property
    def gram(self) -> tuple[tuple[float, ...], ...]:
        """The unit Gram float_gram(A 2^-s), s = scale: A^T A times 4^-s,
        bit for bit wherever both are normal. Only a column whose square
        underflows in it, far below A's largest entry, makes it TooLarge.
        condition_number, default_m_max and the eigenbasis read it."""
        return float_gram(np.ldexp(self.a, -self.scale))

    @cached_property
    def exact(self) -> tuple[tuple[tuple[int, ...], ...], int, DyadicVector]:
        """(rows, e, b): exact_form(A) and b as a DyadicVector."""
        return (*exact_form(self.a), DyadicVector.from_floats(self.b.tolist()))


def float_gram(a: np.ndarray) -> tuple[tuple[float, ...], ...]:
    """A^T A as plain floats; each entry is the fsum (exact sum, rounded
    once) of the float products a[r, i] * a[r, j]. Raises TooLarge when
    an entry is past the float range, or when a nonzero column's diagonal
    entry is 0.0: a sum of squares cannot cancel, so that zero is underflow."""
    cols = a.T.tolist()
    try:  # fsum raises on an overflowing sum and on inf - inf
        g = tuple(tuple(math.fsum(x * y for x, y in zip(ci, cj)) for cj in cols) for ci in cols)
        finite = all(math.isfinite(v) for row in g for v in row)
        if finite and all(g[i][i] or not any(c) for i, c in enumerate(cols)):
            return g
    except (OverflowError, ValueError):
        pass
    raise TooLarge("A^T A is past the float range")


def unit_scale(rows: tuple[tuple[int, ...], ...], e: int) -> int:
    """s with the largest |entry| of the matrix rows 2^e times 2^-s in [0.5, 1),
    so 2^s is the power of two just above it; e for a zero matrix."""
    return max(abs(m) for row in rows for m in row).bit_length() + e


def exact_gram(rows: tuple[tuple[int, ...], ...], e: int) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(rows, e): A^T A exactly, for the matrix A = rows 2^e."""
    cols = tuple(zip(*rows))
    return tuple(tuple(sum(map(operator.mul, ci, cj)) for cj in cols) for ci in cols), 2 * e


def exact_form(a: np.ndarray) -> tuple[tuple[tuple[int, ...], ...], int]:
    """(rows, e): the float matrix A exactly, as integer rows times one 2^e."""
    flat = DyadicVector.from_floats(a.ravel().tolist())
    n = a.shape[1]
    return tuple(flat.mantissas[r * n : (r + 1) * n] for r in range(a.shape[0])), flat.exponent


def exact_matvec(rows: tuple[tuple[int, ...], ...], e: int, x: DyadicVector) -> tuple[list[int], int]:
    """(mantissas, exponent) of (rows * 2^e) x, exactly and not normalized,
    for a matrix in its exact_form."""
    return [sum(map(operator.mul, row, x.mantissas)) for row in rows], e + x.exponent


def residual(system: LinearSystem, x: DyadicVector) -> DyadicVector:
    """b - Ax exactly, with x taken exactly: floats are dyadic, so every
    product and sum is integer arithmetic."""
    if len(x) != system.n:
        raise DimensionMismatch("solution length != system size")
    ax, ax_exp = exact_matvec(*system.exact[:2], x)
    return system.exact[2].add_increments([-m for m in ax], ax_exp)


def normal_residual(rows: tuple[tuple[int, ...], ...], e: int, r: DyadicVector) -> DyadicVector:
    """A^T r exactly, for the matrix A = rows 2^e and r the residual b - Ax."""
    return DyadicVector(*exact_matvec(tuple(zip(*rows)), e, r))


def residual_norm_sq(r: DyadicVector) -> tuple[int, int]:
    """(m, e): ||r||^2 = m 2^e exactly, for r the residual b - Ax."""
    return sum(m * m for m in r.mantissas), 2 * r.exponent


@lru_cache(maxsize=8)
def symmetric_eigen(s: tuple[tuple[float, ...], ...]) -> tuple[np.ndarray, np.ndarray]:
    """(values, vectors): LAPACK eigh of S, given as a tuple of row tuples
    (a system's gram), prescaled by the power of two that brings its
    largest entry into [0.5, 1), so S 2^k gives exactly 2^k times the
    values and the same vectors. Values descend; each vector column is
    signed so its largest entry (the first, on a tie) is positive. The
    pair is cached by S and shared by every caller, so it is read-only."""
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got {s.shape}")
    scale = np.max(np.abs(s)) or 1.0
    if np.max(np.abs(s - s.T)) > 1e-12 * scale:
        raise ValueError("matrix is not symmetric to 1e-12 relative")
    shift = math.frexp(scale)[1]
    values, vectors = np.linalg.eigh(np.ldexp(s, -shift))
    values, vectors = np.ldexp(values[::-1], shift), vectors[:, ::-1]
    anchors = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(s.shape[0])]
    vectors = np.where(anchors < 0, -vectors, vectors)
    values.flags.writeable = vectors.flags.writeable = False
    return values, vectors


def lambda_min(values: np.ndarray) -> float:
    """lmin, the last of the descending eigenvalues of A^T A; raises
    SingularMatrix when lmin <= lmax (n^2 2.5e-16), grouped so that
    lmax n^2 cannot overflow: singular within rounding, as when lmax <= 0."""
    if values[-1] <= values[0] * (len(values) ** 2 * 2.5e-16):
        raise SingularMatrix("A^T A is singular: its smallest eigenvalue is zero within rounding")
    return float(values[-1])


def condition_number(system: LinearSystem) -> float:
    """2-norm condition number sqrt(lmax/lmin) of A^T A, from the
    system's cached Gram matrix."""
    values, _ = symmetric_eigen(system.gram)
    return float(np.sqrt(values[0] / lambda_min(values)))
