"""Classical QUBO minimization backends.

Both samplers return a SampleSet ordered by (energy, bits), where energy
is the exact-sum score ``qubo.energy`` (one correctly rounded ``fsum``).
The exhaustive backend is the exact oracle, the annealer is the scalable
stand-in whose occurrence counts play the role of hardware read
statistics.

The exhaustive sampler scores every state in float with one chain of
matrix products per block of states, so memory stays O(block * nq) up
to the 24-qubit cap. It then rescores exactly with ``qubo.energy`` only
the band of states whose float score lies within a proven rounding
bound of the float minimum, which holds every state of minimum exact
energy. Its full ordered entry list is built on first access.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

import numpy as np

from . import qubo
from .encoding import BitVector
from .errors import DimensionMismatch, TooManyQubits

_EXHAUSTIVE_LIMIT = 24
_BLOCK = 1 << 14  # states per float-pass block; a power of two
_U = 2.0**-53  # unit roundoff of binary64
_TINY = 2.0**-1074  # smallest subnormal
_ONES = np.ones(_EXHAUSTIVE_LIMIT)  # sliced to sum a block's columns
_ONES.flags.writeable = False


class SampleEntry(NamedTuple):
    bits: BitVector
    energy: float
    occurrences: int


class SampleSet:
    """Samples ordered by (energy, bits), each with its occurrence count.

    Built either from the full ordered ``entries``, or from ``head`` and
    ``build``: ``head`` is the leading run of the full order, holding at
    least every entry tied with the minimum energy, and ``build()``
    returns the full order, called on first access to ``entries``.
    best() and ground_occurrences() read only the head.
    """

    def __init__(
        self,
        entries: Sequence[SampleEntry] | None = None,
        *,
        head: Sequence[SampleEntry] | None = None,
        build: Callable[[], tuple[SampleEntry, ...]] | None = None,
    ) -> None:
        if (entries is None) == (head is None) or (head is None) != (build is None):
            raise ValueError("give entries, or head and build")
        self._entries = None if entries is None else tuple(entries)
        self._head = self._entries if head is None else tuple(head)
        self._build = build

    @property
    def entries(self) -> tuple[SampleEntry, ...]:
        if self._entries is None:
            self._entries = self._build()
        return self._entries

    def best(self) -> SampleEntry:
        return self._head[0]

    def ground_occurrences(self) -> int:
        """Total occurrences across entries tied with the minimum energy."""
        e0 = self._head[0].energy
        return sum(e.occurrences for e in self._head if e.energy == e0)


@dataclass(frozen=True)
class AnnealConfig:
    """Seeded single-bit-flip Metropolis annealer settings.

    beta_start/beta_end omitted means the geometric schedule is scaled
    by the QUBO itself: 0.05/E to 10/E with E the largest coefficient
    magnitude, so the same settings work at scale 2^40 and 2^-80.
    """

    reads: int = 1000
    sweeps: int = 100
    beta_start: float | None = None
    beta_end: float | None = None
    seed: int = 0

    def __post_init__(self) -> None:
        if self.reads < 1 or self.sweeps < 1:
            raise ValueError("reads and sweeps must be >= 1")
        if (self.beta_start is None) != (self.beta_end is None):
            raise ValueError("give both beta endpoints or neither")
        if self.beta_start is not None and not 0 < self.beta_start < self.beta_end:
            raise ValueError("need 0 < beta_start < beta_end")


def sample_exhaustive(q: qubo.QuboMatrix) -> SampleSet:
    """Exact minimum by (qubo.energy, bits) over all 2^nq states; the full
    ordered list of every state is built only when ``entries`` is read."""
    if q.n_qubits > _EXHAUSTIVE_LIMIT:
        raise TooManyQubits(f"{q.n_qubits} qubits exceeds exhaustive limit {_EXHAUSTIVE_LIMIT}")
    band = _exact_entries(q, _near_minimum_states(q))
    e0 = band[0].energy
    ground = [e for e in band if e.energy == e0]
    return SampleSet(head=ground, build=lambda: _exact_entries(q, range(1 << q.n_qubits)))


def _near_minimum_states(q: qubo.QuboMatrix) -> Iterable[int]:
    """States whose float energy lies within 2*delta of the float minimum,
    ascending; they include every state of minimum exact energy.

    Proof. Let E(x) be the exact sum of the coefficients state x selects,
    S(x) the sum of their magnitudes, S the sum of all |coef|, u = 2^-53,
    gamma_k = k*u / (1 - k*u), s(x) = qubo.energy(q, x) and f(x) the float
    energy computed here as ((x @ coef) * x) @ ones, with linear on the
    diagonal of coef (x_u^2 = x_u) and quadratic above it.

    - With x in {0, 1} every product is exact, and a BLAS fused multiply-add
      with a 0/1 factor is an exact product and one rounded addition. A
      column zeroed by "* x" is an exact zero, never NaN: 4 S is finite and
      bounds every partial sum. So in any BLAS order f(x) is a summation
      tree over the N <= nq + #quadratic nonzero selected coefficients. An
      addition with an exact-zero operand does not round, and one whose
      result is subnormal is exact, so each leaf meets at most N - 1
      additions with relative error <= u: |f(x) - E(x)| <= gamma_{N-1} S(x)
      (Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed.,
      lemma 3.1 and eq. 4.4).
    - fsum is correctly rounded: |s(x) - E(x)| <= u S(x) + 2^-1075.
    - With m = nq + #quadratic + 2, gamma_{N-1} + u <= gamma_m, so
      |f(x) - s(x)| <= gamma_m S + 2^-1075 <= delta := gamma_m S + m 2^-1074.
    - Let x* be any state of minimum s and y the state of minimum f. Then
      f(x*) <= s(x*) + delta <= s(y) + delta <= f(y) + 2 delta.

    delta is evaluated as 2 m u S + m 2^-1074 with S from fsum. Under the
    24-qubit cap m u <= 302 u, so gamma_m <= m u (1 + 1e-13) and the factor
    2 covers the roundings of S and of the product; an underflowing product
    is covered by the absolute term. The cut f(y) + 2 delta is rounded up
    by one ulp. If 4 S overflows, the float pass could overflow too, and
    every state is returned instead.
    """
    nq = q.n_qubits
    m = nq + len(q.quadratic) + 2
    try:
        total = math.fsum(abs(c) for c in (*q.linear, *q.quadratic.values()))
    except OverflowError:
        total = math.inf
    if not math.isfinite(4.0 * total):
        return range(1 << nq)
    width = 2.0 * (2.0 * m * _U * total + m * _TINY)

    coef = np.zeros((nq, nq))
    for u, c in enumerate(q.linear):
        coef[u, u] = c
    for (u, v), c in q.quadratic.items():
        coef[u, v] = c
    ones = _ONES[:nq]
    lo = math.inf
    states = np.empty(0, dtype=np.int64)
    scores = np.empty(0)
    for start, x in _state_blocks(nq):
        f = ((x @ coef) * x) @ ones
        lo = min(lo, float(f.min()))
        cut = math.nextafter(lo + width, math.inf)
        old = scores <= cut
        mine = np.flatnonzero(f <= cut)
        states = np.concatenate((states[old], start + mine))
        scores = np.concatenate((scores[old], f[mine]))
    return states.tolist()


def _state_blocks(nq: int) -> Iterator[tuple[int, np.ndarray]]:
    """(first state, rows bits[u] = (state >> u) & 1) over all 2^nq states,
    in blocks of at most _BLOCK rows. The rows yielded for later blocks
    reuse one buffer, so use each block before asking for the next."""
    rows = min(1 << nq, _BLOCK)
    low = _low_states(nq, rows)
    if rows == 1 << nq:
        yield 0, low
        return
    low_bits = rows.bit_length() - 1
    high = np.arange(low_bits, nq)
    x = low.copy()
    for start in range(0, 1 << nq, rows):
        x[:, low_bits:] = (start >> high) & 1
        yield start, x


@functools.lru_cache(maxsize=8)
def _low_states(nq: int, rows: int) -> np.ndarray:
    """Read-only state matrix of the first `rows` states of nq qubits."""
    x = ((np.arange(rows)[:, None] >> np.arange(nq)) & 1).astype(np.float64)
    x.flags.writeable = False
    return x


def _exact_entries(q: qubo.QuboMatrix, states: Iterable[int]) -> tuple[SampleEntry, ...]:
    """The given states scored by qubo.energy, ordered by (energy, bits)."""
    nq = q.n_qubits
    scored = []
    for state in states:
        bits = tuple((state >> u) & 1 for u in range(nq))
        scored.append((qubo.energy(q, bits), bits))
    scored.sort()
    return tuple(SampleEntry(bits, e, 1) for e, bits in scored)


def sample_anneal(q: qubo.QuboMatrix, config: AnnealConfig) -> SampleSet:
    """Single-bit-flip Metropolis sweeps over all reads at once; each read
    reports the best state it visited.

    The state is qubit-major, x[u] holding qubit u's bit in every read,
    so each flip works on contiguous rows and preallocated buffers. A
    sweep's uniforms come from one (nq, reads) draw, which PCG64 fills in
    C order: the same stream as nq draws of `reads` each.
    """
    nq = q.n_qubits
    if nq < 1:
        raise DimensionMismatch("annealer needs at least one qubit")
    lin = np.array(q.linear, dtype=float)
    coupling = np.zeros((nq, nq))
    for (u, v), c in q.quadratic.items():
        coupling[u, v] = c
        coupling[v, u] = c

    scale = max(float(np.max(np.abs(lin))), max((abs(c) for c in q.quadratic.values()), default=0.0))
    if scale == 0.0:
        scale = 1.0
    beta_lo = config.beta_start if config.beta_start is not None else 0.05 / scale
    beta_hi = config.beta_end if config.beta_end is not None else 10.0 / scale
    betas = np.geomspace(beta_lo, beta_hi, config.sweeps)

    rng = np.random.Generator(np.random.PCG64(config.seed))
    reads = config.reads
    state = rng.integers(0, 2, size=(reads, nq)).astype(float)
    e_now = state @ lin + 0.5 * np.einsum("ri,ij,rj->r", state, coupling, state)
    best_e = e_now.copy()
    x = np.ascontiguousarray(state.T)
    best = x.copy()
    field, sign, delta, p = (np.empty(reads) for _ in range(4))
    accept = np.empty(reads, dtype=bool)
    improved = np.empty(reads, dtype=bool)

    for beta in betas:
        uniforms = rng.random((nq, reads))
        for u in range(nq):
            xu = x[u]
            np.dot(coupling[u], x, out=field)
            field += lin[u]
            np.multiply(xu, -2.0, out=sign)
            sign += 1.0  # 1 - 2 x_u, the direction of the flip
            np.multiply(sign, field, out=delta)
            # accept with probability exp(-beta max(delta, 0)); the clamp
            # keeps exp from overflowing, and exp(0) = 1 accepts every
            # downhill move since uniforms are below 1
            np.maximum(delta, 0.0, out=p)
            p *= -beta
            np.exp(p, out=p)
            np.less(uniforms[u], p, out=accept)
            sign *= accept
            xu += sign
            delta *= accept
            e_now += delta
            np.less(e_now, best_e, out=improved)
            if np.count_nonzero(improved):
                np.minimum(best_e, e_now, out=best_e)
                np.copyto(best, x, where=improved)

    # exact energies are recomputed per distinct state so SampleSet stays
    # sampler-agnostic
    counts = Counter(map(tuple, best.T.astype(np.int64).tolist()))
    entries = [
        SampleEntry(bits, qubo.energy(q, bits), occ) for bits, occ in counts.items()
    ]
    entries.sort(key=lambda e: (e.energy, e.bits))
    return SampleSet(entries=tuple(entries))
