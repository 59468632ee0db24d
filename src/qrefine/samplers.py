"""Classical QUBO minimization backends.

Both samplers return a SampleSet of the states they found, ordered by
(energy, bits), where energy is the exact-sum score ``qubo.energy`` (one
correctly rounded ``fsum``). The exhaustive backend is the exact oracle
and returns the states tied at the minimum; the annealer is the scalable
stand-in and returns every read's best state, whose occurrence counts
play the role of hardware read statistics. Each solve scores its
candidate states with one batched ``qubo.energy`` call: the annealer
its distinct best states, the exhaustive sampler its near-minimum band.

The exhaustive sampler scores every state in float, as the score of the
quadratic terms plus that of the linear terms. The quadratic scores
depend on the QUBO's QuadraticPart alone, so they are formed once per
part: once per level for the windows of a level, which differ only in
their linear terms. A state is split into its low min(nq, 10) bits and
the rest, as in Horowitz and Sahni's meet-in-the-middle (JACM 21(2),
1974): the low part's quadratic energies and cross terms and the high
part's quadratic energies are formed once per part, and each chunk of
high states adds its own energies to one product with them. A state then
costs O(nq - 10) instead of O(nq^2), memory stays O(2^(nq - 10) nq +
chunk) up to the 24-qubit cap, and a window of at most 10 qubits, with no
high bits, is scored by one chain of matrix products. It keeps, as bit
rows, the band of states whose float score lies within a proven rounding
bound of the float minimum, which holds every state of minimum exact
energy, and scores only that band exactly. If 4 S, S the sum of all |coef|,
is past the float range, both samplers do their float work on the QUBO scaled
by a power of two that brings it in, and score their candidates on the original.

The annealer forms its symmetric coupling matrix from the part's upper
matrix once per call. When every state fits in the reads (2^nq <= reads),
it looks up each flip's energy change, acceptance probability and next
state by the read's state code, in tables over all 2^nq states, as
optimised annealers do (Isakov, Zintchenko, Ronnow and Troyer, Comput.
Phys. Commun. 192, 2015). Else each flip forms its energy changes from a
float state matrix of the reads. Tables formed each sweep grow faster than
the reads: timed on 4-12 qubits, they win by 14-41% up to 2^nq = reads at
200, 1000 and 4096 reads, but at 2^nq = 2 reads they lose at 4096 reads.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import qubo
from .encoding import BitVector
from .errors import TooManyQubits

_EXHAUSTIVE_LIMIT = 24
_BLOCK = 1 << 14  # float scores per block or chunk; a power of two
# most low bits of a split state, all scored in one block; timed, a split
# with high bits is no faster up to 10 qubits and faster from 11
_LOW_BITS = 10
_U = 2.0**-53  # unit roundoff of binary64
_TINY = 2.0**-1074  # smallest subnormal
_ONES = np.ones(_EXHAUSTIVE_LIMIT)  # sliced to sum a block's columns
_ONES.flags.writeable = False


class SampleEntry(NamedTuple):
    bits: BitVector
    energy: float
    occurrences: int


@dataclass(frozen=True)
class SampleSet:
    """A sampler's result: its entries ordered by (energy, bits), each
    with its occurrence count. Any sequence is accepted and stored as a
    sorted tuple; it must not be empty."""

    entries: tuple[SampleEntry, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("a SampleSet needs at least one entry")
        ordered = sorted(self.entries, key=operator.itemgetter(1, 0))  # (energy, bits)
        object.__setattr__(self, "entries", tuple(ordered))

    def best(self) -> SampleEntry:
        return self.entries[0]

    def ground_occurrences(self) -> int:
        """Total occurrences across entries tied with the minimum energy."""
        e0 = self.entries[0].energy
        return sum(e.occurrences for e in self.entries if e.energy == e0)


@dataclass(frozen=True)
class AnnealConfig:
    """Seeded single-bit-flip Metropolis annealer settings.

    The inverse temperature runs geometrically from 0.05/E to 10/E over
    the sweeps, with E the largest coefficient magnitude of the QUBO, so
    the same settings work at scale 2^40 and 2^-80.
    """

    reads: int = 1000
    sweeps: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.reads < 1 or self.sweeps < 1:
            raise ValueError("reads and sweeps must be >= 1")


def sample_exhaustive(q: qubo.QuboMatrix) -> SampleSet:
    """The states of minimum qubo.energy over all 2^nq states, one
    occurrence each, ordered by bits.

    The band of near-minimum states comes from the float pass as bit
    rows and is scored by one ``qubo.energy`` call; only the states tied
    at its minimum are kept.
    """
    if q.n_qubits > _EXHAUSTIVE_LIMIT:
        raise TooManyQubits(f"{q.n_qubits} qubits exceeds exhaustive limit {_EXHAUSTIVE_LIMIT}")
    band = _near_minimum_rows(q)
    scores = qubo.energy(q, band)
    e0 = min(scores)
    rows = map(tuple, band.astype(np.int64).tolist())
    return SampleSet([SampleEntry(bits, e0, 1) for e, bits in zip(scores, rows) if e == e0])


def _float_range(q: qubo.QuboMatrix) -> tuple[qubo.QuboMatrix, float]:
    """q and S, the fsum of all |coef|, when 4 S is finite; else q scaled by
    2^-k, each coefficient by math.ldexp, and its S. With max |coef| < 2^e
    and n coefficients, k = e + bit_length(n) + 3 - 1023 gives 4 S < 2^1022."""
    coefs = (*q.linear, *q.quadratic.values())
    try:
        total = math.fsum(map(abs, coefs))
    except OverflowError:
        total = math.inf
    if math.isfinite(4.0 * total):
        return q, total
    k = math.frexp(max(map(abs, coefs)))[1] + len(coefs).bit_length() + 3 - 1023
    return _float_range(qubo.QuboMatrix(q.n_qubits, tuple(math.ldexp(c, -k) for c in q.linear),
                                        {key: math.ldexp(c, -k) for key, c in q.quadratic.items()}))


def _near_minimum_rows(q: qubo.QuboMatrix) -> np.ndarray:
    """Bit rows of the states whose float energy lies within 2*delta of the
    float minimum, in ascending state order; they include every state of
    minimum exact energy.

    Every float score is the quadratic part's score plus the linear part's,
    and the quadratic scores are formed once per QuadraticPart, so once per
    level for the windows of a level (_quadratic_scores). With U the
    strictly upper quadratic matrix and c the linear terms, a state splits
    into its low b = min(nq, _LOW_BITS) bits and its high h = nq - b bits,
    x = (lo, hi) with state index lo + (hi << b), and U into the blocks
    U_ll, U_lh and U_hh; c into c_lo and c_hi. Cached are F_lo = ((X_lo @
    U_ll) * X_lo) @ ones over the 2^b low states and, when h > 0, M = U_lh^T
    @ X_lo^T and F_hi = ((X_high @ U_hh) * X_high) @ ones over all 2^h high
    states. Once per solve E_lo = X_lo @ c_lo + F_lo, which for h = 0 (U_ll
    = U) is f over all states; else each chunk X_hi of max(1, _BLOCK >> b)
    high states, a slice of the cached rows X_high and at most _BLOCK scores
    under the default, gets

        f = (X_hi @ M + E_lo) + E_hi[:, None],  E_hi = F_hi[chunk] + X_hi @ c_hi,

    so f(x) costs O(h) instead of O(nq^2).

    Proof. Let E(x) be the exact sum of the coefficients state x selects,
    S(x) the sum of their magnitudes, S the sum of all |coef|, u = 2^-53,
    gamma_k = k*u / (1 - k*u) and s(x) = qubo.energy(q, x).

    - With x in {0, 1} every product is exact, and a BLAS fused multiply-add
      with a 0/1 factor is an exact product and one rounded addition. A
      column zeroed by "* x", and an entry M[v, lo] met by hi_v = 0, becomes
      an exact zero, never NaN: 4 S is finite and bounds every partial sum.
      Every other partial sum is a sum of coefficients x selects: F_lo[lo]
      and E_lo[lo] of those in U_ll and c_lo, M[v, lo] with hi_v = 1 of
      those in U_lh, and F_hi[hi] and E_hi[hi] of those in U_hh and c_hi.
      So in any BLAS order, with high bits or not, f(x) is a summation
      tree over the N <= nq + #quadratic nonzero selected coefficients:
      adding the linear score to the quadratic one is one more node of the
      tree. An addition with an exact-zero operand does not round, and one
      whose result is subnormal is exact, so each leaf meets at most N - 1
      additions with relative error <= u:
      |f(x) - E(x)| <= gamma_{N-1} S(x) (Higham, Accuracy and Stability of
      Numerical Algorithms, 2nd ed., lemma 3.1 and eq. 4.4). The split and
      the cached quadratic scores only regroup the tree, so delta below
      does not change.
    - fsum is correctly rounded: |s(x) - E(x)| <= u S(x) + 2^-1075.
    - With m = nq + #quadratic + 2, gamma_{N-1} + u <= gamma_m, so
      |f(x) - s(x)| <= gamma_m S + 2^-1075.
    - If 4 S overflows, the pass runs on q scaled by 2^-k (_float_range), so f,
      E, S(x) and S are the scaled q's, against s(x) 2^-k. Scaling by a power of
      two is exact but for a subnormal result, off by at most 2^-1075 (Higham,
      ch. 2), so over at most m terms E(x) and S(x) move by at most m 2^-1075 and
      the bound by under m 2^-1074: |f(x) - s(x) 2^-k| <= delta := gamma_m S +
      2 m 2^-1074, with k = 0 when 4 S is finite.
    - Let x* be any state of minimum s and y the state of minimum f. Then
      f(x*) <= s(x*) 2^-k + delta <= s(y) 2^-k + delta <= f(y) + 2 delta.

    delta is evaluated as 2 m u S + 2 m 2^-1074 with S from fsum. Under the
    24-qubit cap m u <= 302 u, so gamma_m <= m u (1 + 1e-13) and the factor
    2 covers the roundings of S and of the product; an underflowing product
    is covered by the absolute term. The cut f(y) + 2 delta is rounded up by one
    ulp. Each chunk keeps its states under the running cut, which only falls, so
    one cut of the joined list by the final cut gives the band in ascending state
    order.
    """
    q, total = _float_range(q)
    nq = q.n_qubits
    m = nq + len(q.quadratic) + 2
    width = 2.0 * (2.0 * m * _U * total + 2 * m * _TINY)

    b = min(nq, _LOW_BITS)
    quad = _quadratic_scores(q._part)
    x_lo = _low_states(b)
    e_lo = x_lo @ np.array(q.linear[:b])
    e_lo += quad[0]
    if b == nq:  # no high bits: the low states are all the states
        return x_lo[e_lo <= math.nextafter(float(e_lo.min()) + width, math.inf)]
    _, cross, f_hi = quad
    c_hi = np.array(q.linear[b:])
    x_high = _low_states(nq - b)
    rows = max(1, _BLOCK >> b)
    f_min, states, scores = math.inf, [], []
    for start in range(0, len(x_high), rows):
        x_hi = x_high[start:start + rows]
        f = x_hi @ cross
        f += e_lo
        f += (f_hi[start:start + rows] + x_hi @ c_hi)[:, None]
        f = f.ravel()  # entry (j << b) + lo is state lo + ((start + j) << b)
        f_min = min(f_min, float(f.min()))
        mine = np.flatnonzero(f <= math.nextafter(f_min + width, math.inf))
        states.append(mine + (start << b))
        scores.append(f[mine])
    band = np.concatenate(scores) <= math.nextafter(f_min + width, math.inf)
    return _state_rows(nq, np.concatenate(states)[band])


@functools.lru_cache(maxsize=8)
def _quadratic_scores(part: qubo.QuadraticPart) -> tuple[np.ndarray, ...]:
    """The float pass's scores of a QuadraticPart's terms alone, read-only:
    (F_lo,) with no high bits, else (F_lo, M, F_hi) of the split pass
    (_near_minimum_rows). They are formed on the first solve of a part and
    cached for the last 8 parts solved, so the windows of a level share them."""
    nq = part.n_qubits
    b = min(nq, _LOW_BITS)
    upper = part.upper
    x_lo = _low_states(b)
    scores = (((x_lo @ upper[:b, :b]) * x_lo) @ _ONES[:b],)
    if b < nq:
        x_high = _low_states(nq - b)
        scores += (upper[:b, b:].T @ x_lo.T, ((x_high @ upper[b:, b:]) * x_high) @ _ONES[:nq - b])
    for a in scores:
        a.flags.writeable = False
    return scores


def _state_rows(nq: int, states: np.ndarray) -> np.ndarray:
    """Rows bits[u] = (state >> u) & 1 of the given states, as floats."""
    return ((states[:, None] >> np.arange(nq)) & 1).astype(np.float64)


@functools.lru_cache(maxsize=8)
def _low_states(nq: int) -> np.ndarray:
    """Read-only state matrix of all 2^nq states of nq qubits, in state order."""
    x = _state_rows(nq, np.arange(1 << nq))
    x.flags.writeable = False
    return x


def sample_anneal(q: qubo.QuboMatrix, config: AnnealConfig) -> SampleSet:
    """Single-bit-flip Metropolis sweeps over all reads at once; each read
    reports the best state it visited.

    When every state fits in the reads (2^nq <= reads), each flip looks
    up its change by state code in tables (_table_sweeps); past that, the
    tables, formed again each sweep, soon cost more than they save, and
    each flip forms its changes from the reads' bits (_flip_sweeps). Both
    loops draw the same uniforms; they make the same decisions when the
    reads are a multiple of 4, and else could in principle differ (_flip_deltas).
    """
    if 1 << q.n_qubits <= config.reads:
        return _table_sweeps(q, config)
    return _flip_sweeps(q, config)


def _start(q: qubo.QuboMatrix, config: AnnealConfig):
    """Both loops' coefficients (of q brought into the float range), schedule
    (its beta scale the largest |coef|, 1.0 for an empty QUBO) and start: the
    generator after drawing the reads' (reads, nq) bits, the bits, and their energies."""
    nq = q.n_qubits
    q, _ = _float_range(q)  # 4 S finite keeps every field, energy and update finite
    lin = np.array(q.linear, dtype=float)
    coupling = q._part.upper + q._part.upper.T  # each term on both sides of a zero diagonal

    scale = max(np.abs(lin).max(initial=0.0), np.abs(coupling).max(initial=0.0)) or 1.0
    betas = np.geomspace(0.05 / scale, 10.0 / scale, config.sweeps)

    rng = np.random.Generator(np.random.PCG64(config.seed))
    state = rng.integers(0, 2, size=(config.reads, nq)).astype(float)
    e_now = state @ lin + 0.5 * np.einsum("ri,ij,rj->r", state, coupling, state)
    return lin, coupling, betas, rng, state, e_now


def _flip_deltas(c_u, lin_u, x, x_u, field, sign, delta) -> None:
    """Each column's energy change from flipping qubit u, into delta:
    (1 - 2 x_u) (c_u @ x + lin_u), with sign left at 1 - 2 x_u, the
    direction of the flip. Both loops form their changes here, so a table
    entry has the bits of the change a read in that state gets, unless
    BLAS sums that read's column in another order: it may for the last
    reads mod 4, past its last full block of rows (OpenBLAS, Haswell)."""
    np.dot(c_u, x, out=field)
    field += lin_u
    np.multiply(x_u, -2.0, out=sign)
    sign += 1.0
    np.multiply(sign, field, out=delta)


def _flip_sweeps(q: qubo.QuboMatrix, config: AnnealConfig) -> SampleSet:
    """The annealer for any number of qubits. The state is qubit-major,
    x[u] holding qubit u's bit in every read, so each flip works on
    contiguous rows and preallocated buffers. A sweep's uniforms come from
    one (nq, reads) draw, which PCG64 fills in C order: the same stream as
    nq draws of `reads` each."""
    lin, coupling, betas, rng, state, e_now = _start(q, config)
    nq, reads = q.n_qubits, config.reads
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
            _flip_deltas(coupling[u], lin[u], x, xu, field, sign, delta)
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

    counts = Counter(map(tuple, best.T.astype(np.int64).tolist()))
    return _read_best(q, np.array(list(counts), dtype=np.float64), counts.values())


def _read_best(q: qubo.QuboMatrix, rows: np.ndarray, counts) -> SampleSet:
    """Both loops' result: the reads' distinct best states, bit rows with their
    counts, scored exactly in one qubo.energy batch so SampleSet stays sampler-agnostic."""
    bits = map(tuple, rows.astype(np.int64).tolist())
    return SampleSet(list(map(SampleEntry, bits, qubo.energy(q, rows), counts)))


def _delta_table(lin: np.ndarray, coupling: np.ndarray) -> np.ndarray:
    """delta[u, s], the energy change from flipping qubit u in state s,
    formed by _flip_deltas over all 2^nq states."""
    nq = len(lin)
    x = np.ascontiguousarray(_state_rows(nq, np.arange(1 << nq)).T)
    delta = np.empty_like(x)
    field, sign = np.empty(1 << nq), np.empty(1 << nq)
    for u in range(nq):
        _flip_deltas(coupling[u], lin[u], x, x[u], field, sign, delta[u])
    return delta


def _table_sweeps(q: qubo.QuboMatrix, config: AnnealConfig) -> SampleSet:
    """The sweeps of _flip_sweeps with each read's state held as j = 2 s,
    s = sum x_u 2^u its code. Tables by j + accept give each flip's added
    change (delta * accept, as _flip_sweeps adds it) and next j, and each
    sweep gives every state's acceptance probability at its j, so a flip
    is three gathers and a comparison. Best states are decoded at the end."""
    lin, coupling, betas, rng, state, e_now = _start(q, config)
    nq, reads = q.n_qubits, config.reads
    delta = _delta_table(lin, coupling)
    added = np.empty((nq, 2 << nq))
    added[:, 0::2] = delta * 0.0
    added[:, 1::2] = delta
    index = 2 * np.arange(1 << nq)
    moves = np.empty((nq, 2 << nq), dtype=np.intp)
    moves[:, 0::2] = index
    moves[:, 1::2] = index ^ (2 << np.arange(nq))[:, None]
    j = (state.astype(np.intp) << np.arange(1, nq + 1)).sum(axis=1)
    best_e = e_now.copy()
    best = j.copy()
    probs = np.empty_like(delta)
    probs_at = np.zeros((nq, 2 << nq))  # each probability at its state's index j = 2 s
    tables = list(zip(probs_at, added, moves))
    p, step = np.empty(reads), np.empty(reads)
    at = np.empty(reads, dtype=np.intp)
    accept = np.empty(reads, dtype=bool)
    improved = np.empty(reads, dtype=bool)

    for beta in betas:
        uniforms = rng.random((nq, reads))
        np.maximum(delta, 0.0, out=probs)  # the clamp of _flip_sweeps
        probs *= -beta
        np.exp(probs, out=probs)
        probs_at[:, 0::2] = probs
        # the gathers' indices are in range, so mode="clip" never acts; it
        # spares take the buffered copy of mode="raise"
        for uniform, (prob, add, move) in zip(uniforms, tables):
            prob.take(j, out=p, mode="clip")
            np.less(uniform, p, out=accept)
            np.add(j, accept, out=at)
            add.take(at, out=step, mode="clip")
            e_now += step
            move.take(at, out=j, mode="clip")
            np.less(e_now, best_e, out=improved)
            if np.count_nonzero(improved):
                np.minimum(best_e, e_now, out=best_e)
                np.copyto(best, j, where=improved)

    counts = Counter((best >> 1).tolist())  # np.unique costs more peak memory
    return _read_best(q, _state_rows(nq, np.array(list(counts))), counts.values())
