"""The exhaustive sampler's float pass plus exact band, against exact oracles.

Every expectation is recomputed with integer/Fraction arithmetic
(helpers.frac_energies, itself checked against helpers.frac_energy) and
ordered by (float(exact energy), bits), which is the order the sampler
promises since fsum is correctly rounded.
"""

import copy as copy_module
import itertools
import math
import pickle
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    build_illcond,
    dyadic_fractions,
    frac_energies,
    frac_energy,
    frac_residual_sq,
    irrational_system,
    qubit_index,
    random_qubo_coeffs,
    state_bits,
    window_qubo,
)
from qrefine import (
    DyadicVector,
    LinearSystem,
    QuboMatrix,
    RefinementConfig,
    refine,
    sample_exhaustive,
)
from qrefine.encoding import EncodingSpec, canonical_bits, decode_increments
from qrefine import qubo, samplers
from qrefine.errors import TooLarge
from qrefine.samplers import SampleEntry, _near_minimum_rows


def rounded(e: Fraction) -> float:
    """e rounded once to a float, with +-inf past the float range."""
    try:
        return float(e)
    except OverflowError:
        return math.inf if e > 0 else -math.inf


def four_s_overflows(q) -> bool:
    """Whether 4 S, S the sum of all |coef| rounded once, is past the float range."""
    return math.isinf(4.0 * rounded(sum(abs(Fraction(c)) for c in (*q.linear, *q.quadratic.values()))))


def canonical_states(spec, nq) -> list[int]:
    """The states, in the documented qubit layout, that set at most one
    sign block of each variable: one encoding per increment."""
    blocks = [[sum(1 << qubit_index(spec, var, sign, bit) for bit in range(spec.bits_per_sign))
               for sign in ("plus", "minus")] for var in range(spec.n_vars)]
    return [s for s in range(1 << nq) if all(not (s & plus and s & minus) for plus, minus in blocks)]


def expected(q, spec=None) -> tuple[list[float], set[int]]:
    """The exact energy of every state, rounded once, and the states tied
    with the exact minimum: of all states, or of a window's canonical ones
    when its spec is given."""
    exact = [rounded(e) for e in frac_energies(q)]
    states = range(len(exact)) if spec is None else canonical_states(spec, q.n_qubits)
    e0 = min(exact[s] for s in states)
    return exact, {s for s in states if exact[s] == e0}


def band_states(q) -> list[int]:
    """The states of the float pass's band rows, in row order."""
    rows = _near_minimum_rows(q).astype(np.int64)
    assert rows.shape[1:] == (q.n_qubits,) and set(rows.flat) <= {0, 1}
    return (rows << np.arange(q.n_qubits)).sum(axis=1).tolist()


def check_exact(q, spec=None):
    """The entries are exactly the oracle's states tied with the exact
    minimum, over all states or a window's canonical ones (spec given), in
    (energy, bits) order, one occurrence each, and the band holds every one
    of them."""
    nq = q.n_qubits
    exact, grounds = expected(q, spec)
    got = sample_exhaustive(q)
    order = sorted((exact[s], state_bits(s, nq)) for s in grounds)
    assert got.entries == tuple(SampleEntry(bits, e, 1) for e, bits in order)
    assert got.ground_occurrences() == len(grounds)
    assert grounds <= set(band_states(q))
    return got


def window_qubos(system, config):
    """Every window of a plain exhaustive run, rebuilt from the recorded
    centers, with its spec, the center it was built around and the record
    of its solve."""
    trace = refine(system, config)
    center = DyadicVector.zero(system.n)
    k = config.bits_per_sign
    for rec in trace.records:
        spec = EncodingSpec(n_vars=system.n, l_lo=rec.level, l_hi=rec.level + k - 1)
        yield window_qubo(system, center, spec), spec, center, rec
        center = rec.center_after


def test_oracle_matches_frac_energy():
    rng = random.Random(4)
    for nq in range(0, 8):
        linear, quadratic = random_qubo_coeffs(rng, nq)
        q = QuboMatrix(n_qubits=nq, linear=linear, quadratic=quadratic)
        exact = frac_energies(q)
        assert exact == [frac_energy(q, state_bits(s, nq)) for s in range(1 << nq)]


def test_random_qubos_by_qubit_count():
    rng = random.Random(2411)
    for nq in range(1, 13):
        linear, quadratic = random_qubo_coeffs(rng, nq)
        check_exact(QuboMatrix(n_qubits=nq, linear=linear, quadratic=quadratic))


def test_empty_qubo():
    check_exact(QuboMatrix(n_qubits=0, linear=()))


def unmarked(q):
    """A plain copy of q: the same terms in a part of its own, with no spec."""
    return QuboMatrix(q.n_qubits, q.linear, dict(q.quadratic))


def test_table1_k3_windows():
    system, _ = irrational_system()
    config = RefinementConfig(m_max=20, l_min=-40, bits_per_sign=3, level_step=3)
    count = 0
    for qm, spec, _, rec in window_qubos(system, config):
        assert qm.n_qubits == 12
        best = check_exact(qm, spec).best()
        check_exact(unmarked(qm))  # a plain copy is enumerated in full
        if any(rec.bits):
            assert best == SampleEntry(rec.bits, rec.qubo_energy, 1)
        count += 1
    assert count == 37


@pytest.mark.parametrize("flags", [{}, dict(bits_per_sign=3, level_step=3)], ids=["table1-k1", "table1-k3-step3"])
def test_each_move_is_the_exact_best_increment(flags):
    # on every window of the run, the recorded move (zero when refused)
    # attains the exact minimum of the change in ||b - Ax||^2 over all of the
    # window's increments, its bits are canonical_bits of it, and a move's
    # qubo_energy is its bits' window energy, the exact sum rounded once
    system, _ = irrational_system()
    a, b = system.a.tolist(), system.b.tolist()
    cap = (1 << flags.get("bits_per_sign", 1)) - 1
    for qm, spec, center, rec in window_qubos(system, RefinementConfig(m_max=20, l_min=-40, **flags)):
        base = frac_residual_sq(a, b, dyadic_fractions(center))
        step = Fraction(2) ** spec.l_lo
        change = {y: frac_residual_sq(a, b, [c + d * step for c, d in zip(dyadic_fractions(center), y)]) - base
                  for y in itertools.product(range(-cap, cap + 1), repeat=system.n)}
        move = decode_increments(rec.bits, spec)
        assert change[move] == min(change.values())
        assert rec.bits == canonical_bits(move, spec)
        assert rec.qubo_energy == (rounded(frac_energy(qm, rec.bits)) if any(move) else 0.0)


def test_illcond_plain_windows():
    system, _ = build_illcond(44.0)
    config = RefinementConfig(m_max=2, l_min=-40)
    count = 0
    for qm, spec, _, rec in window_qubos(system, config):
        best = check_exact(qm, spec).best()
        if any(rec.bits):
            assert best == SampleEntry(rec.bits, rec.qubo_energy, 1)
        count += 1
    assert count > 1000


def test_near_tie_by_one_ulp():
    # single-bit states 0 and 1 differ by 2^-52; the coupling forbids both
    for c in (1.0, 3.0 * 2.0**-600, 2.0**500, 2.0**-1000):
        q = QuboMatrix(
            n_qubits=3,
            linear=(-c, -c * (1 + 2.0**-52), c / 2),
            quadratic={(0, 1): 4 * c, (1, 2): -c / 2},
        )
        assert check_exact(q).best().bits in ((0, 1, 0), (0, 1, 1))


def test_near_ties_lost_to_float_rounding():
    # one coefficient of 2^53 (float spacing 2 there) among small integers:
    # many states' exact energies differ by less than their float rounding
    rng = random.Random(53)
    for _ in range(200):
        check_exact(near_tie_qubo(rng, rng.randint(3, 8)))


def near_tie_qubo(rng, nq):
    scale = 2.0 ** rng.choice((0, -600, 600))
    linear = [rng.choice((-1, 1)) * 2.0**53 * scale]
    linear += [rng.randint(-3, 1) * scale for _ in range(nq - 1)]
    rng.shuffle(linear)
    quadratic = {(u, v): rng.randint(-2, 2) * scale
                 for u in range(nq) for v in range(u + 1, nq) if rng.random() < 0.5}
    return QuboMatrix(n_qubits=nq, linear=tuple(linear), quadratic=quadratic)


def test_large_cancellations():
    # +-2^60 terms cancel in some states and leave only the O(1) terms,
    # which the float pass may have rounded away on the way
    rng = random.Random(60)
    for _ in range(200):
        check_exact(large_cancellation_qubo(rng, rng.randint(2, 8)))


def large_cancellation_qubo(rng, nq):
    pool = (2.0**60, -(2.0**60), 1.5, -1.25, 0.75, -3.0, 2.5)
    linear = tuple(rng.choice(pool) for _ in range(nq))
    quadratic = {(u, v): rng.choice(pool)
                 for u in range(nq) for v in range(u + 1, nq) if rng.random() < 0.6}
    return QuboMatrix(n_qubits=nq, linear=linear, quadratic=quadratic)


@pytest.mark.parametrize("nq", [15, 16])
def test_real_blocks(nq):
    # 2 and 4 blocks of the unpatched block size
    assert (1 << nq) // samplers._BLOCK == 1 << (nq - 14)
    linear, quadratic = random_qubo_coeffs(random.Random(nq), nq)
    check_exact(QuboMatrix(n_qubits=nq, linear=linear, quadratic=quadratic))
    check_exact(large_cancellation_qubo(random.Random(60 + nq), nq))


def test_all_subnormal_coefficients():
    tiny = 2.0**-1074
    rng = random.Random(1074)
    for _ in range(30):
        nq = rng.randint(1, 9)
        linear = tuple(rng.randint(-2**20, 2**20) * tiny for _ in range(nq))
        quadratic = {(u, v): rng.randint(-2**20, 2**20) * tiny
                     for u in range(nq) for v in range(u + 1, nq) if rng.random() < 0.6}
        q = QuboMatrix(n_qubits=nq, linear=linear, quadratic=quadratic)
        assert all(abs(c) < 2.0**-1022 for c in (*q.linear, *q.quadratic.values()))
        check_exact(q)


def test_overflowing_scale_scores_every_state_exactly():
    # sum |coef| overflows, no single state's sum does: the float pass on
    # the prescaled QUBO gives what scoring every state exactly gives, and
    # the band is exactly the minimum state
    q = QuboMatrix(n_qubits=2, linear=(1e308, -1e308), quadratic={(0, 1): 5e307})
    assert band_states(q) == [2]
    assert check_exact(q).best() == SampleEntry((0, 1), -1e308, 1)


coefficient = st.one_of(
    st.just(0.0),
    st.builds(
        lambda sign, mant, exp: sign * math.ldexp(mant, exp),
        st.sampled_from((-1.0, 1.0)),
        st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
        st.integers(min_value=-1070, max_value=1000),
    ),
)


def exponent_range_qubos(min_nq, max_nq):
    return st.integers(min_value=min_nq, max_value=max_nq).flatmap(
        lambda nq: st.tuples(
            st.just(nq),
            st.lists(coefficient, min_size=nq, max_size=nq),
            st.lists(coefficient, min_size=nq * (nq - 1) // 2, max_size=nq * (nq - 1) // 2),
        )
    )


def check_exponent_range_case(case):
    nq, linear, upper = case
    pairs = [(u, v) for u in range(nq) for v in range(u + 1, nq)]
    q = QuboMatrix(n_qubits=nq, linear=tuple(linear), quadratic=dict(zip(pairs, upper)))
    check_exact(q)


@given(exponent_range_qubos(1, 6))
def test_band_holds_minimum_over_exponent_range(case):
    check_exponent_range_case(case)


# the split float pass: a high part of 1 to 3 bits
SPLIT_NQ = range(samplers._LOW_BITS + 1, samplers._LOW_BITS + 4)


@settings(max_examples=15)
@given(exponent_range_qubos(SPLIT_NQ[0], SPLIT_NQ[-1]))
def test_split_band_holds_minimum_over_exponent_range(case):
    check_exponent_range_case(case)


@pytest.mark.parametrize("nq", SPLIT_NQ)
def test_split_near_ties_and_cancellations(nq):
    rng = random.Random(nq)
    for _ in range(8):
        check_exact(near_tie_qubo(rng, nq))
        check_exact(large_cancellation_qubo(rng, nq))


def chain_qubo(nq, c=1.0):
    """-c per bit, +c per adjacent pair: the energy is -c per run of ones,
    so for even nq the ties spread over the whole state range."""
    return QuboMatrix(n_qubits=nq, linear=(-c,) * nq,
                      quadratic={(u, u + 1): c for u in range(nq - 1)})


def test_split_chunk_edges_keep_band_states(monkeypatch):
    # the high part spans several chunks when _BLOCK holds only a few
    # rows of 2^_LOW_BITS scores
    nq = samplers._LOW_BITS + 4
    linear, quadratic = random_qubo_coeffs(random.Random(1310), nq)
    cases = [
        QuboMatrix(n_qubits=nq, linear=linear, quadratic=quadratic),
        large_cancellation_qubo(random.Random(1311), nq),
        chain_qubo(nq),
        # only the high bits count, and each chunk's minimum is below the
        # last, so every chunk's 2^_LOW_BITS tied states but the last leave
        QuboMatrix(n_qubits=nq, linear=(0.0,) * samplers._LOW_BITS
                   + tuple(-2.0**v for v in range(nq - samplers._LOW_BITS))),
    ]
    plain = [sample_exhaustive(q) for q in cases]
    # integer coefficients score exactly, so the band is the same set
    # whether the high states come in one chunk or in many
    plain_bands = [band_states(q) for q in cases[2:]]
    assert len(plain_bands[1]) == 1 << samplers._LOW_BITS
    chunks = []
    rows_of = samplers._pattern_rows

    class Sliced(np.ndarray):
        # the high states' rows, recording each chunk sliced from them
        def __getitem__(self, key):
            rows = np.asarray(super().__getitem__(key))
            if isinstance(key, slice):
                chunks.append((key.start, len(rows)))
            return rows

    def counted(pattern, groups, states):
        x = rows_of(pattern, groups, states)
        return x.view(Sliced) if groups == nq - samplers._LOW_BITS else x

    monkeypatch.setattr(samplers, "_pattern_rows", counted)
    monkeypatch.setattr(samplers, "_BLOCK", 1 << (samplers._LOW_BITS + 1))
    for q, before in zip(cases, plain):
        chunks.clear()
        after = sample_exhaustive(q)
        assert chunks == [(start, 2) for start in range(0, 16, 2)]
        assert after.best() == before.best()
        assert after.ground_occurrences() == before.ground_occurrences()
        assert expected(q)[1] <= set(band_states(q))
    for q, before in zip(cases[2:], plain_bands):
        assert band_states(q) == before
    assert plain[2].ground_occurrences() > 1


def test_split_band_upper_edge_across_chunks():
    # 16 qubits score in 4 chunks of 16 high states, and the minimum lies
    # in the last one: every state an earlier chunk kept under its own,
    # higher cut must leave the band by the final cut
    nq = 16
    assert (1 << (nq - samplers._LOW_BITS)) // (samplers._BLOCK >> samplers._LOW_BITS) == 4
    linear, quadratic = random_qubo_coeffs(random.Random(1612), nq)
    q = QuboMatrix(n_qubits=nq, linear=linear[:14] + (-1000.0, -1000.0), quadratic=quadratic)
    exact = frac_energies(q)
    e0 = min(exact)
    assert all(s >> 14 == 3 for s, e in enumerate(exact) if e == e0)
    # delta as _near_minimum_rows defines it: gamma_m S + m 2^-1074
    m = nq + len(q.quadratic) + 2
    mu = Fraction(m, 2**53)
    delta = mu / (1 - mu) * sum(abs(Fraction(c)) for c in (*q.linear, *q.quadratic.values()))
    delta += Fraction(m, 2**1074)
    band = band_states(q)
    assert band and all(exact[s] - e0 <= 5 * delta for s in band)


def test_overflowing_scale_keeps_running_minimum_per_block(monkeypatch):
    # 4 * sum |coef| overflows: the split float pass runs on the prescaled
    # QUBO, two high states per chunk against a running minimum, and the
    # band, exactly the tied states, is scored in one batch
    nq = samplers._LOW_BITS + 2
    q = chain_qubo(nq, 1e307)
    assert four_s_overflows(q)
    exact, grounds = expected(q)
    monkeypatch.setattr(samplers, "_BLOCK", 1 << (samplers._LOW_BITS + 1))
    batches = []
    energy = samplers.qubo.energy

    def counted(q, rows):
        batches.append(len(rows))
        return energy(q, rows)

    monkeypatch.setattr(samplers.qubo, "energy", counted)
    got = sample_exhaustive(q)
    assert got.best() == SampleEntry(min(state_bits(s, nq) for s in grounds), min(exact), 1)
    assert got.ground_occurrences() == len(grounds) > 1
    assert batches == [len(grounds)]
    assert band_states(q) == sorted(grounds)


def test_block_edges_keep_band_states(monkeypatch):
    # 2^4 scores per block are fewer than the 2^_LOW_BITS low states, so each
    # chunk of the split pass holds one high state, the floor of its chunk size
    nq = samplers._LOW_BITS + 2
    linear, quadratic = random_qubo_coeffs(random.Random(1010), nq)
    cases = [
        QuboMatrix(n_qubits=nq, linear=linear, quadratic=quadratic),
        chain_qubo(nq),  # many ties spread over the whole state range
    ]
    plain = [sample_exhaustive(q) for q in cases]
    monkeypatch.setattr(samplers, "_BLOCK", 2**4)
    for q, before in zip(cases, plain):
        after = sample_exhaustive(q)
        assert after.best() == before.best()
        assert after.ground_occurrences() == before.ground_occurrences()
        assert after.entries == before.entries
        assert expected(q)[1] <= set(band_states(q))
    assert plain[1].ground_occurrences() > 1


@pytest.mark.parametrize("nq", [0, 3])
def test_solve_scores_band_in_one_batch(nq, monkeypatch):
    # each solve scores its band rows in one batch and no other state, also
    # when 4 * sum |coef| overflows and the float pass runs prescaled
    rng = random.Random(nq)
    linear, quadratic = random_qubo_coeffs(rng, nq)
    q = QuboMatrix(n_qubits=nq, linear=linear, quadratic=quadratic)
    cases = [q]
    if nq:
        big = scaled(q, 1020)
        assert four_s_overflows(big)
        cases.append(big)
    scored = []
    energy = samplers.qubo.energy

    def counted(q, rows):
        assert np.ndim(rows) == 2
        scored.append(len(rows))
        return energy(q, rows)

    monkeypatch.setattr(samplers.qubo, "energy", counted)
    for q in cases:
        scored.clear()
        sample_exhaustive(q)
        band = len(_near_minimum_rows(q))
        assert scored == [band] and band <= 1 << nq


def scaled(q, s):
    """q with every coefficient times 2^s, exactly while no product
    overflows or goes subnormal."""
    return QuboMatrix(n_qubits=q.n_qubits, linear=tuple(math.ldexp(c, s) for c in q.linear),
                      quadratic={key: math.ldexp(c, s) for key, c in q.quadratic.items()})


def check_exact_or_too_large(q):
    """check_exact when the exact minimum is in the float range, else
    TooLarge; returns whether it solved."""
    e0 = min(frac_energies(q))
    if math.isinf(rounded(e0)):
        with pytest.raises(TooLarge):
            sample_exhaustive(q)
        return False
    check_exact(q)
    return True


def test_prescaled_band_holds_exact_minimum():
    # random QUBOs scaled by 2^s, s drawn so that 4 S overflows while every
    # coefficient stays finite: the exact minimum set, or TooLarge when the
    # minimum itself is past the float range; some of the sizes split
    rng = random.Random(1023)
    solved = 0
    for trial in range(40):
        nq = rng.randint(1, samplers._LOW_BITS + 2) if trial % 4 else rng.randint(1, 6)
        base = (QuboMatrix(n_qubits=nq, **dict(zip(("linear", "quadratic"), random_qubo_coeffs(rng, nq))))
                if trial % 2 else large_cancellation_qubo(rng, nq))
        coefs = [abs(Fraction(c)) for c in (*base.linear, *base.quadratic.values())]
        if not any(coefs):
            continue
        total, top = sum(coefs), max(coefs)
        # S 2^s >= 2^1022, and every |coef| 2^s < 2^1023
        lo = 1022 - math.floor(math.log2(total))
        hi = 1023 - math.frexp(float(top))[1]
        q = scaled(base, rng.randint(lo, max(lo, hi)))
        assert four_s_overflows(q)
        solved += check_exact_or_too_large(q)
    assert solved >= 20


def test_prescaled_subnormal_terms_keep_exact_minimum():
    # the prescale brings the +-2^1020 terms to about 2^1015 and makes the
    # terms near 2^-1070 subnormal or 0; the samples are still the states
    # tied at the exact minimum of the original terms
    rng = random.Random(1070)
    pool = (2.0**1020, -(2.0**1020), 5 * 2.0**-1068, -3 * 2.0**-1068, 2.0**-1070, -(2.0**-1072))
    solved = 0
    for _ in range(40):
        nq = rng.randint(2, 8)
        q = QuboMatrix(n_qubits=nq, linear=tuple(rng.choice(pool) for _ in range(nq)),
                       quadratic={(u, v): rng.choice(pool)
                                  for u in range(nq) for v in range(u + 1, nq) if rng.random() < 0.6})
        if not four_s_overflows(q):
            continue
        solved += check_exact_or_too_large(q)
    assert solved >= 10


@pytest.mark.parametrize("nq", [4, 8, samplers._LOW_BITS + 1, samplers._LOW_BITS + 2])
def test_qubos_sharing_a_quadratic_part(nq):
    # QUBOs that differ only in their linear terms share one quadratic part
    # and its float scores; each must sample as its own parsed copy, which
    # holds a part of its own, and as the exact oracle
    rng = random.Random(9100 + nq)
    linear, quadratic = random_qubo_coeffs(rng, nq)
    first = QuboMatrix(n_qubits=nq, linear=linear, quadratic=quadratic)
    for _ in range(4):
        q = replace(first, linear=tuple(rng.uniform(-8.0, 8.0) for _ in range(nq)))
        assert q._part is first._part
        copy = qubo.parse(qubo.dump(q))
        assert copy == q and copy._part is not q._part
        assert check_exact(q) == sample_exhaustive(copy)
    check_exact(first)


def canonical_rows(spec):
    """One encoding per increment y of a window, by the documented layout:
    |y_i|'s bits in y_i's sign block, the other block zero."""
    cap = (1 << spec.bits_per_sign) - 1
    rows = []
    for y in itertools.product(range(-cap, cap + 1), repeat=spec.n_vars):
        bits = [0] * spec.total_qubits
        for var, d in enumerate(y):
            for bit in range(spec.bits_per_sign):
                if abs(d) >> bit & 1:
                    bits[qubit_index(spec, var, "plus" if d > 0 else "minus", bit)] = 1
        rows.append(tuple(bits))
    return rows


@st.composite
def random_windows(draw):
    """(gram, spec, g): a random SPD Gram B B^T + I, a window of n <= 3
    unknowns at k <= 3 bits per sign, and a random normal residual."""
    n, k = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.floats(-2.0, 2.0, allow_nan=False)
    b = [[draw(entry) for _ in range(n)] for _ in range(n)]
    gram = tuple(tuple(math.fsum(b[i][t] * b[j][t] for t in range(n)) + (i == j) for j in range(n))
                 for i in range(n))
    l_lo = draw(st.integers(-4, 2))
    g = DyadicVector.from_floats([draw(st.floats(-20.0, 20.0, allow_nan=False)) for _ in range(n)])
    return gram, EncodingSpec(n_vars=n, l_lo=l_lo, l_hi=l_lo + k - 1), g


@settings(max_examples=60, deadline=None)
@given(random_windows())
def test_window_enumerates_one_encoding_per_increment(window):
    gram, spec, g = window
    q = qubo.build_window(qubo.WindowLevel(gram, spec), g)
    got = sample_exhaustive(q)
    # brute force over the canonical encodings: exactly those of minimum energy
    rows = canonical_rows(spec)
    scores = qubo.energy(q, np.array(rows))
    e0 = min(scores)
    assert got.entries == tuple(sorted(SampleEntry(bits, e, 1) for bits, e in zip(rows, scores) if e == e0))
    for entry in got.entries:
        assert entry.bits == canonical_bits(decode_increments(entry.bits, spec), spec)
    if q.n_qubits <= 12:  # the exact full oracle scores 2^nq states in Python
        check_exact(unmarked(q))
    k = spec.bits_per_sign
    with pytest.MonkeyPatch.context() as patch:
        # a fresh part each time, so no cached layout: low states of one
        # unknown and the rest high, in chunks of one or more high states
        patch.setattr(samplers, "_LOW_BITS", k + 1)
        patch.setattr(samplers, "_BLOCK", 2**4)
        assert sample_exhaustive(qubo.build_window(qubo.WindowLevel(gram, spec), g)) == got
        # an unknown whose 2^(k+1) - 1 increments pass 2^_LOW_BITS rows: every
        # state is enumerated, as for the unmarked copy
        patch.setattr(samplers, "_LOW_BITS", k)
        full = sample_exhaustive(qubo.build_window(qubo.WindowLevel(gram, spec), g))
        assert full == sample_exhaustive(unmarked(q))


def test_only_build_window_marks_a_window():
    # the window_spec is part of a QUBO's value: replace and parse give a
    # plain QUBO, unequal to the window and enumerated in full, while a
    # pickled or copied window keeps it; on some table1 windows a
    # non-canonical encoding lies below the canonical one by rounding dust,
    # so the two samples differ there
    system, _ = irrational_system()
    differ = 0
    for qm, spec, _, _ in window_qubos(system, RefinementConfig(m_max=20, l_min=-40)):
        assert qm.window_spec == spec
        full = sample_exhaustive(unmarked(qm))
        for plain in (replace(qm, linear=qm.linear), replace(qm, linear=tuple(-c for c in qm.linear)),
                      qubo.parse(qubo.dump(qm))):
            assert plain.window_spec is None and plain != qm
        for plain in (replace(qm), qubo.parse(qubo.dump(qm))):
            assert sample_exhaustive(plain) == full
        for copy in (pickle.loads(pickle.dumps(qm)), copy_module.deepcopy(qm)):
            assert copy == qm and copy.window_spec == spec
            assert sample_exhaustive(copy) == sample_exhaustive(qm)
        differ += sample_exhaustive(qm) != full
    assert differ > 0


def test_window_past_low_rows_is_enumerated_in_full():
    # at k = 10 one unknown has 2,047 increments, more than the 2^_LOW_BITS
    # low rows: its 2^20 states are all enumerated, as the plain copy's; at
    # k = 9 (1,023 increments) it is enumerated by its canonical encodings
    system = LinearSystem(a=[[1.5]], b=[700.3])
    for k in (9, 10):
        q = window_qubo(system, DyadicVector.zero(1), EncodingSpec(n_vars=1, l_lo=0, l_hi=k - 1))
        got = sample_exhaustive(q)
        if k == 9:
            assert got.best().bits == canonical_bits((467,), q.window_spec)
        else:
            assert got == sample_exhaustive(unmarked(q))
        assert decode_increments(got.best().bits, q.window_spec) == (467,)
