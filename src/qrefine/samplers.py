"""Classical QUBO minimization backends.

Both samplers return a SampleSet of the states they found, ordered by
(energy, bits), where energy is the exact-sum score ``qubo.energy`` (one
correctly rounded ``fsum``). The exhaustive backend is deterministic and
returns the states tied at the minimum of the states it enumerates; the
annealer is the scalable stand-in and returns every read's best state,
whose occurrence counts play the role of hardware read statistics. Each
solve scores its candidate states with one batched ``qubo.energy`` call:
the annealer its distinct best states, the exhaustive sampler its
near-minimum band.

The exhaustive sampler enumerates all 2^nq states of a plain QUBO, where
it is the exact oracle, and of a window (a QUBO with a window_spec) one
encoding per increment, its canonical_bits: all encodings of an increment
have equal energies in exact arithmetic, so (2^(k+1) - 1)^n states, 225 of
4,096 for two unknowns at k = 3, stand for all. Each linear term is
rounded, though, so another encoding can lie below the canonical one by
rounding dust; a window is minimized over its canonical encodings only.
It scores each state in float, as the score of the quadratic terms plus
that of the linear terms. The quadratic scores depend on the QUBO's
QuadraticPart and pattern table alone, so they are formed once per part,
and a run's windows share one: refine solves one unit window per run. A
state is a product of groups, a qubit (patterns 0 and 1) or an unknown
(its canonical blocks), split into its low groups, whose states fit 2^10
rows, and the rest, as in Horowitz and Sahni's meet-in-the-middle (JACM
21(2), 1974): each chunk of high states adds its own energies to one
product with the low part's cached scores, so a state costs O(high
qubits) instead of O(nq^2). It keeps, as bit rows, the band of states
whose float score lies within a proven rounding bound of the float
minimum, which holds every enumerated state of minimum exact energy, and
scores only that band exactly. If 4 S, S the sum of all |coef|, is past
the float range, both samplers do their float work on the QUBO scaled by
a power of two that brings it in, and score their candidates on the
original; so does the annealer when its beta schedule would pass the
float range at the low end.

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
from .encoding import BitVector, EncodingSpec, canonical_bits
from .errors import TooManyQubits

_EXHAUSTIVE_BITS = 24  # an exhaustive solve enumerates at most 2^24 states
_BLOCK = 1 << 14  # float scores per block or chunk; a power of two
# the low states of a split state, all scored in one block, fit 2^_LOW_BITS
# rows; timed on plain QUBOs, a split is no faster up to 10 qubits and faster from 11
_LOW_BITS = 10
_U = 2.0**-53  # unit roundoff of binary64
_TINY = 2.0**-1074  # smallest subnormal


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
    the same settings work at scale 2^40 and 2^-80, and below 2^-1020,
    where 10/E is past the float range, on the QUBO scaled up by a power
    of two.
    """

    reads: int = 1000
    sweeps: int = 100
    seed: int = 0

    def __post_init__(self) -> None:
        if self.reads < 1 or self.sweeps < 1:
            raise ValueError("reads and sweeps must be >= 1")


def sample_exhaustive(q: qubo.QuboMatrix) -> SampleSet:
    """The states of minimum qubo.energy among the states the float pass
    enumerates, one occurrence each, ordered by bits: all 2^nq states of a
    plain QUBO; of a window (a QUBO with a window_spec) whose unknown has at
    most 2^_LOW_BITS increments, one encoding per increment, its
    canonical_bits. All encodings of an increment have equal energies in
    exact arithmetic, but each linear term is rounded, so a non-canonical
    encoding can lie below the canonical one by rounding dust: a window's
    entries are its optimal increments, not always the minimum of
    qubo.energy over all its states. Raises TooManyQubits past 2^24
    enumerated states, counted before any state is formed.

    The band of near-minimum states comes from the float pass as bit
    rows and is scored by one ``qubo.energy`` call; only the states tied
    at its minimum are kept.
    """
    spec = _enumerated_spec(q)
    p, groups = (2, q.n_qubits) if spec is None else ((2 << spec.bits_per_sign) - 1, spec.n_vars)
    if groups > _EXHAUSTIVE_BITS or p**groups > 1 << _EXHAUSTIVE_BITS:  # p >= 2
        raise TooManyQubits(f"{q.n_qubits} qubits give {p}^{groups} states, "
                            f"past the exhaustive limit 2^{_EXHAUSTIVE_BITS}")
    band = _near_minimum_rows(q)
    scores = qubo.energy(q, band)
    e0 = min(scores)
    rows = map(tuple, band.astype(np.int64).tolist())
    return SampleSet([SampleEntry(bits, e0, 1) for e, bits in zip(scores, rows) if e == e0])


def _enumerated_spec(q: qubo.QuboMatrix) -> EncodingSpec | None:
    """q's window_spec when the float pass enumerates q by unknowns: a window
    whose unknown's 2^(k+1) - 1 increments fit the 2^_LOW_BITS low rows, so
    k <= 9. Else None, and every state is enumerated, as for a plain QUBO."""
    spec = q.window_spec
    if spec is None or (2 << spec.bits_per_sign) - 1 > 1 << _LOW_BITS:
        return None
    return spec


def _float_range(q: qubo.QuboMatrix, own: bool = False) -> tuple[tuple[float, ...], qubo.QuadraticPart, float]:
    """(linear, part, S) of the QUBO q 2^-k that the float work runs on, S the
    sum of its |coef|: k = 0, on q's own part and linear terms, when 4 S is
    finite; else each coefficient scaled by math.ldexp, with max |coef| < 2^e,
    n coefficients and k = e + bit_length(n) + 3 - 1023, which gives
    4 S < 2^1022. S is fsum of the linear magnitudes and the part's cached
    magnitude, or with own, the annealer's, the fsum of every |coef|."""
    part = q._part
    try:
        quad = map(abs, part.quadratic.values()) if own else (part.magnitude,)
        total = math.fsum([*map(abs, q.linear), *quad])
    except OverflowError:
        total = math.inf
    if math.isfinite(4.0 * total):
        return q.linear, part, total
    coefs = (*q.linear, *q.quadratic.values())
    k = math.frexp(max(map(abs, coefs)))[1] + len(coefs).bit_length() + 3 - 1023
    return _float_range(qubo.QuboMatrix(q.n_qubits, tuple(math.ldexp(c, -k) for c in q.linear),
                                        {key: math.ldexp(c, -k) for key, c in q.quadratic.items()}), own)


def _near_minimum_rows(q: qubo.QuboMatrix) -> np.ndarray:
    """Bit rows of the enumerated states whose float energy lies within
    2*delta of their float minimum, in ascending state order; they include
    every enumerated state of minimum exact energy.

    The enumerated states are products over groups of qubits, each group
    taking one row of its pattern table (_quadratic_scores): a plain QUBO's qubits are
    groups of one, with patterns 0 and 1, so every state is enumerated; a
    window's unknowns (_enumerated_spec) are groups of 2k qubits, with
    patterns the canonical_bits of the unknown's 2^(k+1) - 1 increments.
    Every float score is the quadratic part's score plus the linear part's,
    and the quadratic scores are formed once per QuadraticPart and pattern
    table (_quadratic_scores), so once per run of unit windows.
    With U the strictly upper quadratic matrix and c the linear terms, a
    state splits into its low groups, whose n_lo states fit 2^_LOW_BITS rows,
    and the rest: its low b qubits and its high h = nq - b
    qubits, x = (lo, hi) with state index lo + hi n_lo, and U into the blocks
    U_ll, U_lh and U_hh; c into c_lo and c_hi. Cached are F_lo = ((X_lo @
    U_ll) * X_lo) @ ones over the n_lo low states and, when h > 0, M =
    U_lh^T @ X_lo^T and F_hi = ((X_hi @ U_hh) * X_hi) @ ones over all high
    states. Once per solve E_lo = X_lo @ c_lo + F_lo, which with no high
    groups (U_ll = U) is f over all states; else each chunk X_hi of max(1,
    _BLOCK // n_lo) high states, sliced from the rows of at most _BLOCK high
    states formed at once, gets at most _BLOCK scores under the default,

        f = (X_hi @ M + E_lo) + E_hi[:, None],  E_hi = F_hi[chunk] + X_hi @ c_hi,

    so f(x) costs O(h) instead of O(nq^2), and the pass holds at most _BLOCK
    high rows, F_hi and the n_lo low rows, however many states it enumerates.

    Proof. It holds on any set of enumerated states. Let E(x) be the exact sum
    of the coefficients state x selects, S(x) the sum of their magnitudes, S
    the sum of all |coef|, u = 2^-53, gamma_k = k*u / (1 - k*u) and s(x) =
    qubo.energy(q, x).

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
    - The pass runs on q scaled by 2^-k (_float_range): k = 0 when 4 S is
      finite, else k > 0, so that 4 S is finite. So f, E, S(x) and S are the
      scaled q's, against s(x) 2^-k. Scaling by a power of two is exact but
      for a subnormal result, off by at most 2^-1075 (Higham, ch. 2), so over
      at most m terms E(x) and S(x) move by at most m 2^-1075 and the bound by
      under m 2^-1074: |f(x) - s(x) 2^-k| <= delta := gamma_m S + 2 m 2^-1074.
    - Let x* be any enumerated state of minimum s and y the enumerated state of
      minimum f. Then f(x*) <= s(x*) 2^-k + delta <= s(y) 2^-k + delta <=
      f(y) + 2 delta. Only x* and y enter, so the set of states enumerated
      does not matter.

    delta is evaluated as 2 m u S + 2 m 2^-1074 with S the fsum of the linear
    magnitudes and the part's cached fsum of its quadratic ones. Under the
    2^24-state cap nq <= 46, so m <= 1,083 and gamma_m <= m u (1 + 2e-13), and
    the factor 2 covers the two roundings of S and that of the product; an
    underflowing product is covered by the absolute term. The rounded S is
    at least S (1 - u)^2, so a finite 4 S rounded keeps S, and every partial
    sum, finite. The cut f(y) + 2 delta is rounded up by one ulp. Each chunk
    keeps its states under the running cut, which only falls, so one cut of
    the joined list by the final cut gives the band in ascending state order.
    """
    spec = _enumerated_spec(q)
    linear, part, total = _float_range(q)
    m = q.n_qubits + len(part.quadratic) + 2
    width = 2.0 * (2.0 * m * _U * total + 2 * m * _TINY)

    pattern, hi, x_lo, quad = _quadratic_scores(part, spec and spec.bits_per_sign)
    b = x_lo.shape[1]
    e_lo = x_lo @ np.array(linear[:b])
    e_lo += quad[0]
    if not hi:  # no high groups: the low states are all the states
        return x_lo[e_lo <= math.nextafter(float(e_lo.min()) + width, math.inf)]
    _, cross, f_hi = quad
    c_hi = np.array(linear[b:])
    n_lo = len(x_lo)
    rows = max(1, _BLOCK // n_lo)
    formed = rows * max(1, _BLOCK // rows)  # high states whose rows are formed at once
    f_min, states, scores = math.inf, [], []
    for first in range(0, len(f_hi), formed):
        x_high = _pattern_rows(pattern, hi, np.arange(first, min(first + formed, len(f_hi))))
        for start in range(first, first + len(x_high), rows):
            x_hi = x_high[start - first:start - first + rows]
            f = x_hi @ cross
            f += e_lo
            f += (f_hi[start:start + rows] + x_hi @ c_hi)[:, None]
            f = f.ravel()  # entry j n_lo + lo is state lo + (start + j) n_lo
            f_min = min(f_min, float(f.min()))
            mine = np.flatnonzero(f <= math.nextafter(f_min + width, math.inf))
            states.append(mine + start * n_lo)
            scores.append(f[mine])
    band = np.concatenate(scores) <= math.nextafter(f_min + width, math.inf)
    index = np.concatenate(states)[band]
    return np.hstack((x_lo[index % n_lo], _pattern_rows(pattern, hi, index // n_lo)))


@functools.lru_cache(maxsize=8)
def _canonical_patterns(k: int) -> tuple[BitVector, ...]:
    """The canonical_bits of one unknown's 2^(k+1) - 1 increments at k bits
    per sign, in state order."""
    cap = (1 << k) - 1
    one = EncodingSpec(1, 0, k - 1)
    return tuple(sorted((canonical_bits((d,), one) for d in range(-cap, cap + 1)), key=lambda bits: bits[::-1]))


@functools.lru_cache(maxsize=8)
def _quadratic_scores(part: qubo.QuadraticPart, k: int | None) -> tuple:
    """(pattern, hi, X_lo, scores) of the float pass over the states a part's
    QUBOs enumerate at k bits per sign: the pattern table of its groups, one per
    qubit with patterns 0 and 1 when k is None, else one per unknown with the
    canonical_bits of its increments in state order; the number hi of high
    groups, the rest being the low groups, the most whose states fit
    2^_LOW_BITS rows (min(nq, _LOW_BITS) for a plain part); the read-only rows
    X_lo of the low states; and the read-only scores of the part's terms alone,
    (F_lo,) with no high groups, else (F_lo, M, F_hi) (_near_minimum_rows),
    F_hi formed _BLOCK high rows at a time. They are formed on the first solve
    of a part and cached for the last 8 solved, so the windows of a run, which
    share one part, share them."""
    if k is None:
        pattern, groups = ((0,), (1,)), part.n_qubits
    else:
        pattern, groups = _canonical_patterns(k), part.n_qubits // (2 * k)
    lo = 0
    while lo < groups and len(pattern) ** (lo + 1) <= 1 << _LOW_BITS:
        lo += 1
    hi = groups - lo
    upper = part.upper
    x_lo = _pattern_rows(pattern, lo, np.arange(len(pattern) ** lo))
    b = x_lo.shape[1]
    scores = (((x_lo @ upper[:b, :b]) * x_lo) @ np.ones(b),)
    if hi:
        u_hh, ones, n_hi = upper[b:, b:], np.ones(part.n_qubits - b), len(pattern) ** hi
        f_hi = np.empty(n_hi)
        for start in range(0, n_hi, _BLOCK):
            x_hi = _pattern_rows(pattern, hi, np.arange(start, min(start + _BLOCK, n_hi)))
            f_hi[start:start + len(x_hi)] = ((x_hi @ u_hh) * x_hi) @ ones
        scores += (upper[:b, b:].T @ x_lo.T, f_hi)
    for a in (x_lo, *scores):
        a.flags.writeable = False
    return pattern, hi, x_lo, scores


def _pattern_rows(pattern: tuple[BitVector, ...], groups: int, states: np.ndarray) -> np.ndarray:
    """Bit rows, as floats, of the given states of groups that each take one of
    the P rows of pattern: state i gives group g the pattern (i // P^g) % P.
    With pattern ((0,), (1,)) the row of state i is its bits (i >> g) & 1."""
    p = len(pattern)
    digits = states[:, None] // p ** np.arange(groups) % p
    return np.array(pattern, dtype=np.float64)[digits].reshape(len(states), groups * len(pattern[0]))


def _state_rows(nq: int, states: np.ndarray) -> np.ndarray:
    """Rows bits[u] = (state >> u) & 1 of the given states, as floats."""
    return ((states[:, None] >> np.arange(nq)) & 1).astype(np.float64)


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
    generator after drawing the reads' (reads, nq) bits, the bits, and their
    energies. When 10 / scale is past the float range, the coefficients and
    scale are first scaled by the exact power of two that brings scale into
    [0.5, 1), which leaves every beta * delta as it is in exact arithmetic."""
    nq = q.n_qubits
    linear, part, _ = _float_range(q, own=True)  # 4 S finite keeps every field, energy and update finite
    lin = np.array(linear, dtype=float)
    coupling = part.upper + part.upper.T  # each term on both sides of a zero diagonal

    scale = float(max(np.abs(lin).max(initial=0.0), np.abs(coupling).max(initial=0.0))) or 1.0
    if not math.isfinite(10.0 / scale):
        k = -math.frexp(scale)[1]
        lin, coupling, scale = np.ldexp(lin, k), np.ldexp(coupling, k), math.ldexp(scale, k)
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
