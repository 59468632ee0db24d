"""Exact rational oracles, reference routines and frozen random-instance
families.

The oracles recompute quantities from scratch with Fraction (or plain
integer) arithmetic so the package's own exact paths are never
used to check themselves. The reference routines (qubit layout, decode,
grid enumeration, Ising energy, direct solve, annealer, whole-trace
CSV text, canonical bits, the Ising form of a QUBO) exist only for the
tests.
"""

import io
import itertools
import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from qrefine import (
    AnnealConfig,
    DimensionMismatch,
    DyadicVector,
    IndexOutOfRange,
    LinearSystem,
    SingularMatrix,
    TooLarge,
    qubo,
)
from qrefine.encoding import EncodingSpec, decode_increments
from qrefine.linalg import normal_residual, residual, residual_norm_sq
from qrefine.samplers import SampleEntry, SampleSet
from qrefine.traceio import TraceWriter

_PIVOT_FLOOR = 1e-300


def dyadic_fractions(vec: DyadicVector) -> list[Fraction]:
    """Exact component values straight from the stored fields."""
    scale = Fraction(2) ** vec.exponent
    return [Fraction(m) * scale for m in vec.mantissas]


def frac_residual_sq(a, b, x: list[Fraction]) -> Fraction:
    """||Ax - b||^2 exactly; a, b are float rows, x exact rationals."""
    total = Fraction(0)
    for r in range(len(b)):
        acc = -Fraction(float(b[r]))
        for i, xi in enumerate(x):
            acc += Fraction(float(a[r][i])) * xi
        total += acc * acc
    return total


def frac_normal_rhs(a, b, x: list[Fraction]) -> list[Fraction]:
    """A^T (b - Ax) exactly; a, b are float rows, x exact rationals."""
    n = len(b)
    r = [Fraction(float(b[row])) - sum(Fraction(float(a[row][i])) * x[i] for i in range(n))
         for row in range(n)]
    return [sum(Fraction(float(a[row][i])) * r[row] for row in range(n)) for i in range(n)]


def window_qubo(system: LinearSystem, center: DyadicVector, spec: EncodingSpec):
    """The window QUBO around center, built in the package's two steps: the
    level's part, then the solve's linear terms from the exact normal
    residual."""
    g = normal_residual(*system.exact[:2], residual(system, center))
    return qubo.build_window(qubo.WindowLevel(system.gram, spec), g)


def exact_residual_sq(system: LinearSystem, x: DyadicVector) -> Fraction:
    """||b - Ax||^2 as a Fraction, by the package's own two steps: the
    residual, then its exact (m, e) squared norm."""
    m, e = residual_norm_sq(residual(system, x))
    return Fraction(m) * Fraction(2) ** e


def qubit_index(spec: EncodingSpec, var: int, sign: str, bit: int) -> int:
    """The documented qubit layout: variable-major, plus block before
    minus block, least significant bit first."""
    if not 0 <= var < spec.n_vars:
        raise IndexOutOfRange(f"variable {var} outside [0, {spec.n_vars})")
    if not 0 <= bit < spec.bits_per_sign:
        raise IndexOutOfRange(f"bit {bit} outside [0, {spec.bits_per_sign})")
    if sign not in ("plus", "minus"):
        raise IndexOutOfRange(f"sign must be 'plus' or 'minus', got {sign!r}")
    k = spec.bits_per_sign
    return var * 2 * k + (0 if sign == "plus" else k) + bit


def decode(bits, spec: EncodingSpec, center: DyadicVector) -> DyadicVector:
    """Exact decoded point center + increment(bits)."""
    return center.add_increments(decode_increments(bits, spec), spec.l_lo)


def canonical_bits(increments, spec: EncodingSpec) -> tuple[int, ...]:
    """Representative bits for integer increments: one sign block active per
    variable, never both (the redundant (1,1) pairings are avoided)."""
    if len(increments) != spec.n_vars:
        raise DimensionMismatch("increment count != n_vars")
    limit = (1 << spec.bits_per_sign) - 1
    for d in increments:
        if abs(d) > limit:
            raise IndexOutOfRange(f"increment {d} exceeds window capacity {limit}")
    return tuple((max(sign * increments[var], 0) >> bit) & 1 for var, sign, bit in spec.qubits)


def enumerate_grid(spec: EncodingSpec, center: DyadicVector):
    """Every distinct decodable point around center, each exactly once."""
    per_var = (1 << (spec.bits_per_sign + 1)) - 1
    if per_var ** spec.n_vars > 10**6:
        raise TooLarge(f"grid has {per_var}^{spec.n_vars} points, over the 1e6 bound")
    half = (1 << spec.bits_per_sign) - 1
    for combo in itertools.product(range(-half, half + 1), repeat=spec.n_vars):
        yield center.add_increments(combo, spec.l_lo)


@dataclass(frozen=True)
class IsingModel:
    h: tuple[float, ...]
    j: dict[tuple[int, int], float]
    offset: float

    __hash__ = None


def qubo_to_ising(q: qubo.QuboMatrix) -> IsingModel:
    """The Ising form of q: E(x) = sum h s + sum J s s + offset at s = 2x - 1."""
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


def ising_energy(model, spins) -> float:
    """Energy sum h.s + sum J s s of an IsingModel, excluding the offset."""
    terms = [model.h[i] * spins[i] for i in range(len(spins))]
    terms += [c * spins[u] * spins[v] for (u, v), c in model.j.items()]
    return math.fsum(terms)


def solve_direct(system: LinearSystem) -> np.ndarray:
    """Gaussian elimination with partial pivoting."""
    n = system.n
    a = system.a.copy()
    b = system.b.copy()
    for col in range(n):
        p = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[p, col]) <= _PIVOT_FLOOR:
            raise SingularMatrix(f"pivot {a[p, col]!r} in column {col} below threshold")
        if p != col:
            a[[col, p]] = a[[p, col]]
            b[[col, p]] = b[[p, col]]
        factors = a[col + 1 :, col] / a[col, col]
        a[col + 1 :, col:] -= np.outer(factors, a[col, col:])
        b[col + 1 :] -= factors * b[col]
    x = np.zeros(n)
    for row in range(n - 1, -1, -1):
        x[row] = (b[row] - a[row, row + 1 :] @ x[row + 1 :]) / a[row, row]
    return x


def frac_energy(q, bits) -> Fraction:
    total = Fraction(0)
    for u, coeff in enumerate(q.linear):
        if bits[u]:
            total += Fraction(coeff)
    for (u, v), coeff in q.quadratic.items():
        if bits[u] and bits[v]:
            total += Fraction(coeff)
    return total


def frac_energies(q) -> list[Fraction]:
    """Exact energy of every state, indexed by state (bits[u] = (state >> u) & 1).

    The coefficients are scaled to integers over their common power-of-two
    denominator, and each state's total is the total of the state without
    its lowest set bit plus that bit's linear and coupling terms.
    """
    nq = q.n_qubits
    denom = max((Fraction(c).denominator for c in (*q.linear, *q.quadratic.values())), default=1)
    lin = [int(Fraction(c) * denom) for c in q.linear]
    quad = [[0] * nq for _ in range(nq)]
    for (u, v), c in q.quadratic.items():
        quad[u][v] = quad[v][u] = int(Fraction(c) * denom)
    totals = [0] * (1 << nq)
    for state in range(1, 1 << nq):
        low = (state & -state).bit_length() - 1
        rest = state & (state - 1)
        acc = totals[rest] + lin[low]
        r = rest
        while r:
            acc += quad[low][(r & -r).bit_length() - 1]
            r &= r - 1
        totals[state] = acc
    return [Fraction(t, denom) for t in totals]


def state_bits(state: int, nq: int) -> tuple[int, ...]:
    return tuple((state >> u) & 1 for u in range(nq))


def frac_error(center: DyadicVector, truth) -> float:
    """2-norm distance via exact squared sum, one final sqrt."""
    sq = Fraction(0)
    for ci, ti in zip(dyadic_fractions(center), truth):
        d = ci - Fraction(float(ti))
        sq += d * d
    return math.sqrt(float(sq))


def random_bits(rng: random.Random, n: int) -> tuple[int, ...]:
    return tuple(rng.randint(0, 1) for _ in range(n))


def random_instance(rng: random.Random):
    """(a, b, center, k, l) family used by the energy-identity checks.

    The center exponent sits 6 bits below the window floor so the
    builder's exact-shift path is always exercised.
    """
    n = rng.randint(1, 4)
    k = rng.randint(1, 3)
    l = rng.randint(-10, 10)
    a = [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(n)]
    b = [rng.uniform(-4.0, 4.0) for _ in range(n)]
    center = DyadicVector(tuple(rng.randint(-512, 512) for _ in range(n)), l + k - 1 - 6)
    return a, b, center, k, l


def random_grid_instance(rng: random.Random):
    """(a, b, center, k, l) with 2kn <= 12 so windows stay enumerable."""
    while True:
        n = rng.randint(1, 3)
        k = rng.randint(1, 2)
        if 2 * k * n <= 12:
            break
    l = rng.randint(-8, 8)
    a = [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(n)]
    b = [rng.uniform(-4.0, 4.0) for _ in range(n)]
    center = DyadicVector(tuple(rng.randint(-64, 64) for _ in range(n)), l - 2)
    return a, b, center, k, l


def random_qubo_coeffs(rng: random.Random, nq: int):
    """Dense-ish random QUBO pieces with coefficients spanning signs."""
    linear = tuple(rng.uniform(-8.0, 8.0) for _ in range(nq))
    quadratic = {}
    for u in range(nq):
        for v in range(u + 1, nq):
            if rng.random() < 0.6:
                quadratic[(u, v)] = rng.uniform(-8.0, 8.0)
    return linear, quadratic


def irrational_system() -> tuple[LinearSystem, tuple[float, float]]:
    """The built-in irrational 2x2 system, rebuilt from stdlib constants."""
    r2, r3, r5, r7 = math.sqrt(2), math.sqrt(3), math.sqrt(5), math.sqrt(7)
    truth = (1024.0 * math.pi, -32.0 * math.e)
    a = [[r2, -r3], [r5, r7]]
    b = [1024.0 * r2 * math.pi + 32.0 * r3 * math.e,
         1024.0 * r5 * math.pi - 32.0 * r7 * math.e]
    return LinearSystem(a=a, b=b), truth


def irrational_problem_text(with_truth: bool = True) -> str:
    system, truth = irrational_system()
    doc = {"a": [[float(v) for v in row] for row in system.a],
           "b": [float(v) for v in system.b]}
    if with_truth:
        doc["x_true"] = list(truth)
    return json.dumps(doc)


def build_illcond(theta_deg: float = 44.0):
    """Rotated diag(1, 1/129.44) with b = A.(1,1); truth is (1,1)."""
    th = math.radians(theta_deg)
    c, s = math.cos(th), math.sin(th)
    rot = [[c, -s], [s, c]]
    d = [1.0, 1.0 / 129.44]
    a = [[math.fsum(rot[i][m] * d[m] * rot[j][m] for m in range(2)) for j in range(2)]
         for i in range(2)]
    b = [math.fsum(a[i]) for i in range(2)]
    return LinearSystem(a=a, b=b), (1.0, 1.0)


def anneal_reference(q: qubo.QuboMatrix, config: AnnealConfig) -> SampleSet:
    """Reference annealer: the Metropolis sweeps of sample_anneal over
    read-major state, with fresh arrays and one uniform draw per flip;
    sample_anneal must make the same decisions."""
    nq = q.n_qubits
    lin = np.array(q.linear, dtype=float)
    coupling = np.zeros((nq, nq))
    for (u, v), c in q.quadratic.items():
        coupling[u, v] = c
        coupling[v, u] = c

    scale = max(float(np.max(np.abs(lin))) if nq else 0.0,
                max((abs(c) for c in q.quadratic.values()), default=0.0))
    if scale == 0.0:
        scale = 1.0
    betas = np.geomspace(0.05 / scale, 10.0 / scale, config.sweeps)

    rng = np.random.Generator(np.random.PCG64(config.seed))
    reads = config.reads
    state = rng.integers(0, 2, size=(reads, nq)).astype(float)
    e_now = state @ lin + 0.5 * np.einsum("ri,ij,rj->r", state, coupling, state)
    best_e = e_now.copy()
    best_state = state.copy()

    for beta in betas:
        for u in range(nq):
            field = lin[u] + state @ coupling[:, u]
            delta = (1.0 - 2.0 * state[:, u]) * field
            accept = (delta <= 0.0) | (rng.random(reads) < np.exp(-beta * np.maximum(delta, 0.0)))
            state[:, u] = np.where(accept, 1.0 - state[:, u], state[:, u])
            e_now = e_now + np.where(accept, delta, 0.0)
            improved = e_now < best_e
            if improved.any():
                best_e[improved] = e_now[improved]
                best_state[improved] = state[improved]

    # each read reports the best state it visited; exact energies are
    # recomputed per distinct state so SampleSet stays sampler-agnostic
    counts = Counter(tuple(int(b) for b in row) for row in best_state)
    entries = [
        SampleEntry(bits, qubo.energy(q, bits), occ) for bits, occ in counts.items()
    ]
    entries.sort(key=lambda e: (e.energy, e.bits))
    return SampleSet(entries=tuple(entries))


def trace_to_csv(trace) -> str:
    """The trace CSV of a finished run, as TraceWriter streams it."""
    out = io.StringIO()
    writer = TraceWriter(out)
    for record in trace.records:
        writer(record)
    return out.getvalue()
