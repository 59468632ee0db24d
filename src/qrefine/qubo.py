"""Shifted least-squares QUBO construction and evaluation.

For a window spec around an exact center c, the model assigns every
bitvector q the energy ||A(c + y(q)) - b||^2 - ||b - Ac||^2 where y(q)
is the decoded increment. Writing r = b - Ac and w_u for the signed
scale 2^t of qubit u on variable i(u), the coefficients are

    linear[u]  = w_u^2 (A^T A)_{i(u),i(u)} - 2 w_u (A^T r)_{i(u)}
    quad[u,v]  = 2 w_u w_v (A^T A)_{i(u),i(v)}        (u < v)

Only the linear terms depend on the center, and only through
g = A^T r, so a window is built in two steps: ``WindowLevel(gram,
spec)`` forms the weights and the quadratic terms once per level from
the float A^T A, and ``build_window(level, g)`` forms the linear terms
of one solve from the exact g; any symmetric form and vector serve.
Every window of a level shares the level's QuadraticPart: its
quadratic terms, built once in order and read-only, and their dense
upper matrix.
g is given exactly (linalg.normal_residual of r, or carried by refine) and
rounded once per entry; since every w_u is a signed power of two, the
only other rounding is in the float A^T A. The constant ||r||^2 is kept out
of the matrix, so all-zero bits cost exactly zero and no window energy
can go below -||r||^2, the (m, e) pair residual_norm_sq(r) negated.
"""

from __future__ import annotations

import functools
import json
import math
import operator
import types
from collections.abc import Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import islice

import numpy as np

from .encoding import BitVector, DyadicVector, EncodingSpec
from .errors import DimensionMismatch, ParseError, TooLarge, TooManyQubits
from .problems import _number, strict_json

_MAX_QUBITS = 10**6  # most qubits of a window or a parsed QUBO
_ROWS = 1 << 10  # rows per chunk of an energy batch, bounding its rows x nq x nq products
_PICK = 256  # most outer-product entries in a batch scored without numpy (timed crossover: 100-300)


class QuadraticPart:
    """The quadratic terms of nq qubits, which its maker checked and put in (u, v)
    order, and their dense upper matrix, built on first use: the only dense form of
    a QUBO's coefficients that outlives a call. QUBOs differing in linear terms share
    it, so its terms are a read-only view of the dict its maker hands over: no caller
    can change what upper and the samplers' scores were cached from."""

    def __init__(self, n_qubits: int, quadratic: dict[tuple[int, int], float]) -> None:
        self.n_qubits = n_qubits
        self.quadratic = types.MappingProxyType(quadratic)

    @functools.cached_property
    def upper(self) -> np.ndarray:
        """Read-only dense strictly upper-triangular matrix of the terms."""
        upper = np.zeros((self.n_qubits, self.n_qubits))
        for (u, v), c in self.quadratic.items():
            upper[u, v] = c
        upper.setflags(write=False)
        return upper


@dataclass(frozen=True, eq=True)
class QuboMatrix:
    """Linear and upper-triangular quadratic coefficients of nq qubits. Terms given
    without their own QuadraticPart of nq qubits are checked and sorted here, into a
    new one; quadratic is always its part's read-only mapping."""

    n_qubits: int
    linear: tuple[float, ...]
    quadratic: Mapping[tuple[int, int], float] = field(default_factory=dict)
    # the QuadraticPart of quadratic, shared by the windows of one level
    _part: QuadraticPart | None = field(default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        if len(self.linear) != self.n_qubits:
            raise DimensionMismatch("linear term count != n_qubits")
        part = self._part
        if part is None or part.quadratic is not self.quadratic or part.n_qubits != self.n_qubits:
            for (i, j), val in self.quadratic.items():
                if not (0 <= i < j < self.n_qubits):
                    raise DimensionMismatch(f"quadratic index pair {(i, j)} not upper-triangular")
                if not math.isfinite(val):
                    raise DimensionMismatch(f"non-finite coefficient at {(i, j)}")
            part = QuadraticPart(self.n_qubits, dict(sorted(self.quadratic.items())))
            object.__setattr__(self, "quadratic", part.quadratic)
            object.__setattr__(self, "_part", part)
        if not all(map(math.isfinite, self.linear)):
            raise DimensionMismatch("non-finite linear coefficient")

    def __reduce__(self):
        # a mappingproxy does not pickle; the copy gets a part of its own
        return QuboMatrix, (self.n_qubits, self.linear, dict(self.quadratic))

    __hash__ = None  # mapping field; value identity is via ==


class WindowLevel:
    """The part of a window that its level fixes, from the float Gram matrix: the
    qubit weights w_u and variables i(u), the w_u^2 gram_{i(u),i(u)} term of each
    linear coefficient, and the shared QuadraticPart, its terms built in (u, v) order.
    Raises DimensionMismatch when the spec does not fit the gram, TooManyQubits past
    _MAX_QUBITS and TooLarge for a window past the float range."""

    def __init__(self, gram: tuple[tuple[float, ...], ...], spec: EncodingSpec) -> None:
        if spec.n_vars != len(gram):
            raise DimensionMismatch("system, center and spec sizes disagree")
        if spec.total_qubits > _MAX_QUBITS:
            raise TooManyQubits(f"{spec.total_qubits} qubits exceeds the 1e6 bound")
        if spec.l_hi > 1023:
            raise TooLarge(f"bit weight 2^{spec.l_hi} is past the float range")

        nq = spec.total_qubits
        var = [i for i, _, _ in spec.qubits]
        weight = [s * 2.0 ** (spec.l_lo + t) for _, s, t in spec.qubits]
        quadratic = {}
        for u in range(nq):
            for v in range(u + 1, nq):
                q = 2.0 * weight[u] * weight[v] * gram[var[u]][var[v]]
                if q != 0.0:  # an exactly zero coupling stays out, as off a diagonal A^T A
                    quadratic[(u, v)] = q
        if not all(map(math.isfinite, quadratic.values())):
            raise _past_float_range(spec)
        self.spec = spec
        self.var = var
        self.square = [w * w * gram[i][i] for w, i in zip(weight, var)]
        self.twice = [2.0 * w for w in weight]
        self.part = QuadraticPart(nq, quadratic)


def _past_float_range(spec: EncodingSpec) -> TooLarge:
    return TooLarge(f"window [{spec.l_lo}, {spec.l_hi}] has coefficients past the float range")


def build_window(level: WindowLevel, g: DyadicVector) -> QuboMatrix:
    """The window QUBO of a level around the center c whose exact normal
    residual A^T (b - Ac) is g; it shares the level's QuadraticPart."""
    if len(g) != level.spec.n_vars:
        raise DimensionMismatch("system, center and spec sizes disagree")
    g = g.to_floats()  # rounded once per entry
    linear = tuple(sq - tw * g[i] for sq, tw, i in zip(level.square, level.twice, level.var))
    if not all(map(math.isfinite, linear)):
        raise _past_float_range(level.spec)
    part = level.part
    return QuboMatrix(n_qubits=part.n_qubits, linear=linear, quadratic=part.quadratic, _part=part)


def energy(q: QuboMatrix, bits: BitVector | np.ndarray) -> float | list[float]:
    """Exact-sum energy of one state, or of each row of a batch.

    ``bits`` is one 0/1 vector of length n_qubits, which gives a float,
    or a 2-D 0/1 array with one state per row, which gives a list of
    floats, one per row (an empty batch has shape (0, n_qubits)). Any
    nonzero entry counts as a 1, in a vector and in a batch alike. Each
    result is the exact sum of the coefficients the state selects, its
    linear terms and the entries of the part's upper where x x^T is
    nonzero, rounded once, so it depends neither on the order of the
    terms nor on the layout of a batch. It is taken by ``math.fsum``,
    which is correctly rounded, or exactly in rationals when a running
    fsum passes the float range. Raises TooLarge if an exact sum itself
    rounds past the float range. A batch whose outer products have at
    most _PICK entries picks each state's terms with a cached itemgetter
    (_selector), keyed by which of its qubits are set; a larger one
    forms them with numpy from upper + diag(linear), _ROWS at a time.
    """
    x = np.asarray(bits, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] != q.n_qubits:
        raise DimensionMismatch(f"expected rows of {q.n_qubits} bits, got shape {x.shape}")
    return _energies(q, x[None])[0] if x.ndim == 1 else _energies(q, x)


def _energies(q: QuboMatrix, x: np.ndarray) -> list[float]:
    upper = q._part.upper
    if x.size * q.n_qubits <= _PICK:
        # a few small states: picking each one's terms in Python costs
        # less than the fixed cost of the numpy products below
        nq = q.n_qubits
        terms = [*q.linear, *upper.ravel().tolist(), 0.0]
        keys = x.astype(bool).tobytes()  # a byte per entry: whether it is nonzero
        return [_exact_sum(_selector(keys[i * nq:i * nq + nq])(terms)) for i in range(len(x))]
    dense = upper + np.diag(q.linear)  # upper's diagonal is exactly zero
    out: list[float] = []
    for lo in range(0, len(x), _ROWS):
        rows = x[lo:lo + _ROWS] != 0.0
        terms = (rows[:, :, None] & rows[:, None, :]) * dense
        # drop the exact zeros before they become Python floats: most
        # entries are zero, and fsum ignores them
        nonzero = terms != 0.0
        values = iter(terms[nonzero].tolist())
        try:
            out += [math.fsum(islice(values, n)) for n in nonzero.sum(axis=(1, 2)).tolist()]
        except OverflowError:
            out += [_exact_sum(t[z].tolist()) for t, z in zip(terms, nonzero)]
    return out


@functools.lru_cache(maxsize=256)
def _selector(key: bytes) -> operator.itemgetter:
    """Picks from [*linear, *upper.ravel(), 0.0] the terms of the state whose
    set qubits are key's nonzero bytes, then the 0.0 twice (so it gives a tuple
    even for no set qubit). All 2^8 states of an 8-qubit window fit the cache."""
    nq = len(key)
    on = [u for u in range(nq) if key[u]]
    pad = nq + nq * nq
    pairs = [nq + u * nq + v for i, u in enumerate(on) for v in on[i + 1:]]
    return operator.itemgetter(*on, *pairs, pad, pad)


def _exact_sum(terms: tuple[float, ...] | list[float]) -> float:
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
    if isinstance(nq, bool) or not isinstance(nq, int) or not 0 <= nq <= _MAX_QUBITS:
        raise ParseError(f"num_qubits must be an integer from 0 to {_MAX_QUBITS}")
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
