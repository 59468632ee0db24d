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
the matrix, so all-zero bits cost exactly zero and no window can go
below -||b'||^2, minus the residual_norm_sq of c.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from .encoding import BitVector, DyadicVector, EncodingSpec
from .errors import DimensionMismatch, LengthMismatch, ParseError, TooLarge
from .linalg import LinearSystem, exact_matvec, residual
from .precision import dyadic_to_float
from .problems import _number, strict_json

_PRUNE = 1e-300


@dataclass(frozen=True, eq=True)
class QuboMatrix:
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


def energy(q: QuboMatrix, bits: BitVector) -> float:
    if len(bits) != q.n_qubits:
        raise LengthMismatch(f"expected {q.n_qubits} bits, got {len(bits)}")
    lin = q.linear
    terms = [lin[u] for u in range(len(bits)) if bits[u]]
    terms += [c for (u, v), c in q.quadratic.items() if bits[u] and bits[v]]
    return math.fsum(terms)


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
