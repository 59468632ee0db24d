"""The exhaustive sampler's float pass plus exact band, against exact oracles.

Every expectation is recomputed with integer/Fraction arithmetic
(helpers.frac_energies, itself checked against helpers.frac_energy) and
ordered by (float(exact energy), bits), which is the order the sampler
promises since fsum is correctly rounded.
"""

import math
import random
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    build_illcond,
    frac_energies,
    frac_energy,
    irrational_system,
    random_qubo_coeffs,
    state_bits,
    window_qubo,
)
from qrefine import (
    DyadicVector,
    QuboMatrix,
    RefinementConfig,
    refine,
    sample_exhaustive,
)
from qrefine.encoding import EncodingSpec
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


def expected(q) -> tuple[list[float], set[int]]:
    """The exact energy of every state, rounded once, and the states tied
    with the exact minimum."""
    exact = [rounded(e) for e in frac_energies(q)]
    e0 = min(exact)
    return exact, {s for s, e in enumerate(exact) if e == e0}


def band_states(q) -> list[int]:
    """The states of the float pass's band rows, in row order."""
    rows = _near_minimum_rows(q).astype(np.int64)
    assert rows.shape[1:] == (q.n_qubits,) and set(rows.flat) <= {0, 1}
    return (rows << np.arange(q.n_qubits)).sum(axis=1).tolist()


def check_exact(q):
    """The entries are exactly the oracle's states tied with the exact
    minimum, in (energy, bits) order, one occurrence each, and the band
    holds every one of them."""
    nq = q.n_qubits
    exact, grounds = expected(q)
    got = sample_exhaustive(q)
    order = sorted((exact[s], state_bits(s, nq)) for s in grounds)
    assert got.entries == tuple(SampleEntry(bits, e, 1) for e, bits in order)
    assert got.ground_occurrences() == len(grounds)
    assert grounds <= set(band_states(q))
    return got


def window_qubos(system, config):
    """Every window of a plain exhaustive run, rebuilt from the recorded
    centers, with the energy the run recorded for each accepted move."""
    trace = refine(system, config)
    center = DyadicVector.zero(system.n)
    k = config.bits_per_sign
    for rec in trace.records:
        spec = EncodingSpec(n_vars=system.n, l_lo=rec.level, l_hi=rec.level + k - 1)
        yield window_qubo(system, center, spec), rec
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


def test_table1_k3_windows():
    system, _ = irrational_system()
    config = RefinementConfig(m_max=20, l_min=-40, bits_per_sign=3, level_step=3)
    count = 0
    for qm, rec in window_qubos(system, config):
        assert qm.n_qubits == 12
        best = check_exact(qm).best()
        if any(rec.bits):
            assert best == SampleEntry(rec.bits, rec.qubo_energy, 1)
        count += 1
    assert count == 37


def test_illcond_plain_windows():
    system, _ = build_illcond(44.0)
    config = RefinementConfig(m_max=2, l_min=-40)
    count = 0
    for qm, rec in window_qubos(system, config):
        best = check_exact(qm).best()
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
    low_states = samplers._low_states

    class Sliced(np.ndarray):
        # the high states' rows, recording each chunk sliced from them
        def __getitem__(self, key):
            rows = np.asarray(super().__getitem__(key))
            if isinstance(key, slice):
                chunks.append((key.start, len(rows)))
            return rows

    def counted(bits):
        x = low_states(bits)
        return x.view(Sliced) if bits == nq - samplers._LOW_BITS else x

    monkeypatch.setattr(samplers, "_low_states", counted)
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
