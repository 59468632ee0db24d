"""Shifted least-squares QUBO construction and evaluation.

For a window spec around an exact center c, the model assigns every
bitvector q the energy ||A(c + y(q)) - b||^2 - ||b - Ac||^2 where y(q)
is the decoded increment. Writing b' = b - Ac and w_u for the signed
scale 2^t of qubit u on variable i(u), the coefficients are

    linear[u]  = w_u^2 (A^T A)_{i(u),i(u)} - 2 w_u (A^T b')_{i(u)}
    quad[u,v]  = 2 w_u w_v (A^T A)_{i(u),i(v)}        (u < v)

The shift b' is computed in exact dyadic arithmetic and rounded once
per coefficient; since every w_u is a signed power of two, the only
other rounding is in A^T A itself. The constant ||b'||^2 is kept out of
the matrix, so all-zero bits cost exactly zero and no window energy can
go below -||b'||^2, which is -residual_norm_sq(c).
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, compress, islice

import numpy as np

from .encoding import BitVector, DyadicVector, EncodingSpec
from .errors import DimensionMismatch, LengthMismatch, ParseError, TooLarge
from .linalg import LinearSystem, exact_matvec, residual
from .precision import dyadic_to_float
from .problems import _number, strict_json

_PRUNE = 1e-300
_ROWS = 1 << 10  # rows per chunk of an energy batch, bounding its rows x nq x nq products
_PICK = 256  # most outer-product entries in a batch scored without numpy (timed crossover: 100-300)


@dataclass(frozen=True, eq=True)
class QuboMatrix:
    """Linear and upper-triangular quadratic coefficients of nq qubits."""

    n_qubits: int
    linear: tuple[float, ...]
    quadratic: dict[tuple[int, int], float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.linear) != self.n_qubits:
            raise DimensionMismatch("linear term count != n_qubits")
        for (i, j), val in self.quadratic.items():
            if not (0 <= i < j < self.n_qubits):
                raise DimensionMismatch(f"quadratic index pair {(i, j)} not upper-triangular")
            if not math.isfinite(val):
                raise DimensionMismatch(f"non-finite coefficient at {(i, j)}")
        for val in self.linear:
            if not math.isfinite(val):
                raise DimensionMismatch("non-finite linear coefficient")
        object.__setattr__(
            self, "quadratic", dict(sorted(self.quadratic.items()))
        )

    @functools.cached_property
    def coef(self) -> np.ndarray:
        """Read-only dense upper-triangular matrix with the linear terms on
        its diagonal, so state x selects exactly the entries of x x^T.
        ``energy`` and both samplers use it. It is built on first use, so
        a QUBO that is only parsed, dumped or converted never costs nq^2."""
        coef = np.zeros((self.n_qubits, self.n_qubits))
        for u, c in enumerate(self.linear):
            coef[u, u] = c
        for (u, v), c in self.quadratic.items():
            coef[u, v] = c
        coef.setflags(write=False)
        return coef

    __hash__ = None  # dict field; value identity is via ==


@dataclass(frozen=True)
class IsingModel:
    h: tuple[float, ...]
    j: dict[tuple[int, int], float]
    offset: float

    __hash__ = None


def build_window(
    system: LinearSystem, center: DyadicVector, spec: EncodingSpec
) -> QuboMatrix:
    n = system.n
    if spec.n_vars != n or len(center) != n:
        raise DimensionMismatch("system, center and spec sizes disagree")
    if spec.total_qubits > 10**6:
        raise TooLarge(f"{spec.total_qubits} qubits exceeds the 1e6 bound")
    if spec.l_hi > 1023:
        raise TooLarge(f"bit weight 2^{spec.l_hi} is past the float range")

    # b' = b - A c exactly, then g = A^T b' exactly, rounded once per entry
    g_m, g_e = exact_matvec(system.exact_t, system.exact[1], residual(system, center))
    g = [dyadic_to_float(m, g_e) for m in g_m]

    gram = system.gram

    k = spec.bits_per_sign
    nq = spec.total_qubits
    weight = [0.0] * nq
    var = [0] * nq
    for i in range(n):
        for s, block in ((1.0, 0), (-1.0, k)):
            for t in range(k):
                u = i * 2 * k + block + t
                weight[u] = s * 2.0 ** (spec.l_lo + t)
                var[u] = i
    linear = tuple(
        weight[u] * weight[u] * gram[var[u]][var[u]] - 2.0 * weight[u] * g[var[u]]
        for u in range(nq)
    )
    quadratic = {}
    for u in range(nq):
        for v in range(u + 1, nq):
            q = 2.0 * weight[u] * weight[v] * gram[var[u]][var[v]]
            if abs(q) >= _PRUNE:
                quadratic[(u, v)] = q
    if not all(map(math.isfinite, (*linear, *quadratic.values()))):
        raise TooLarge(f"window [{spec.l_lo}, {spec.l_hi}] has coefficients past the float range")
    return QuboMatrix(n_qubits=nq, linear=linear, quadratic=quadratic)


def energy(q: QuboMatrix, bits: BitVector | np.ndarray) -> float | list[float]:
    """Exact-sum energy of one state, or of each row of a batch.

    ``bits`` is one 0/1 vector of length n_qubits, which gives a float,
    or a 2-D 0/1 array with one state per row, which gives a list of
    floats, one per row (an empty batch has shape (0, n_qubits)). Any
    nonzero entry counts as a 1, in a vector and in a batch alike. Each
    result is the exact sum of the coefficients the state selects, the
    entries of coef where x x^T is nonzero, rounded once, so it depends
    neither on the order of the terms nor on the layout of a batch. It
    is taken by ``math.fsum``, which is correctly rounded, or exactly in
    rationals when a running fsum passes the float range. Raises
    TooLarge if an exact sum itself rounds past the float range. A batch
    whose outer products have at most _PICK entries picks each state's
    entries of coef in Python; a larger one forms them with numpy, in
    chunks of _ROWS states.
    """
    x = np.asarray(bits, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != q.n_qubits:
        raise LengthMismatch(f"expected rows of {q.n_qubits} bits, got shape {x.shape}")
    if x.ndim == 1:
        return _energies(q.coef, x[None])[0]
    return _energies(q.coef, x)


def _energies(coef: np.ndarray, x: np.ndarray) -> list[float]:
    if x.size * len(coef) <= _PICK:
        # a few small states: picking each one's entries of coef in Python
        # costs less than the fixed cost of the numpy products below
        table = coef.tolist()
        return [
            _exact_sum(list(chain.from_iterable(compress(t, row) for t in compress(table, row))))
            for row in x.tolist()
        ]
    out: list[float] = []
    for lo in range(0, len(x), _ROWS):
        rows = x[lo:lo + _ROWS] != 0.0
        terms = (rows[:, :, None] & rows[:, None, :]) * coef
        # drop the exact zeros before they become Python floats: most
        # entries are zero, and fsum ignores them
        nonzero = terms != 0.0
        values = iter(terms[nonzero].tolist())
        try:
            out += [math.fsum(islice(values, n)) for n in nonzero.sum(axis=(1, 2)).tolist()]
        except OverflowError:
            out += [_exact_sum(t[z].tolist()) for t, z in zip(terms, nonzero)]
    return out


def _exact_sum(terms: list[float]) -> float:
    """Correctly rounded sum of finite terms, whatever their order. fsum
    raises OverflowError when a running sum passes the float range, which
    depends on the order; the exact rational sum does not."""
    try:
        return math.fsum(terms)
    except OverflowError:
        pass
    try:
        return float(sum(map(Fraction, terms)))
    except OverflowError:
        raise TooLarge("a QUBO energy is past the float range") from None


def qubo_to_ising(q: QuboMatrix) -> IsingModel:
    nq = q.n_qubits
    h_terms: list[list[float]] = [[q.linear[i] / 2.0] for i in range(nq)]
    offset_terms = [q.linear[i] / 2.0 for i in range(nq)]
    j = {}
    for (u, v), c in q.quadratic.items():
        quarter = c / 4.0
        j[(u, v)] = quarter
        h_terms[u].append(quarter)
        h_terms[v].append(quarter)
        offset_terms.append(quarter)
    h = tuple(math.fsum(t) for t in h_terms)
    return IsingModel(h=h, j=j, offset=math.fsum(offset_terms))


def dump(q: QuboMatrix) -> str:
    doc = {
        "num_qubits": q.n_qubits,
        "linear": {str(i): q.linear[i] for i in range(q.n_qubits)},
        "quadratic": {f"{u},{v}": c for (u, v), c in q.quadratic.items()},
    }
    return json.dumps(doc, separators=(",", ":"), allow_nan=False)


def parse(text: str) -> QuboMatrix:
    doc = strict_json(text, "QUBO")
    if not isinstance(doc, dict) or set(doc) != {"num_qubits", "linear", "quadratic"}:
        raise ParseError("QUBO document must have exactly num_qubits, linear, quadratic")
    nq = doc["num_qubits"]
    if isinstance(nq, bool) or not isinstance(nq, int) or nq < 0:
        raise ParseError("num_qubits must be a non-negative integer")
    if not isinstance(doc["linear"], dict) or not isinstance(doc["quadratic"], dict):
        raise ParseError("linear and quadratic must be JSON objects")
    linear = [0.0] * nq
    for key, val in doc["linear"].items():
        (i,) = _indices(key, 1, "linear")
        if not 0 <= i < nq:
            raise ParseError(f"bad linear entry {key!r}")
        linear[i] = _number(val, "linear")
    quadratic = {}
    for key, val in doc["quadratic"].items():
        u, v = _indices(key, 2, "quadratic")
        if not 0 <= u < v < nq:
            raise ParseError(f"bad quadratic entry {key!r}")
        quadratic[(u, v)] = _number(val, "quadratic")
    return QuboMatrix(n_qubits=nq, linear=tuple(linear), quadratic=quadratic)


def _indices(key: str, count: int, what: str) -> tuple[int, ...]:
    """Indices of a key in dump's canonical form ("3", "0,5"); int() alone
    would read "03" or " 3" as 3, so two keys could name one entry."""
    try:
        idx = tuple(int(p) for p in key.split(","))
    except ValueError:
        idx = ()
    if len(idx) != count or ",".join(map(str, idx)) != key:
        raise ParseError(f"bad {what} index {key!r}")
    return idx
