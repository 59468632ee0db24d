"""Exhaustive oracle behavior and annealer adequacy/determinism."""

import random
import warnings

import numpy as np
import pytest

from helpers import anneal_reference, irrational_system, random_qubo_coeffs
from qrefine import (
    AnnealConfig,
    DyadicVector,
    LinearSystem,
    QuboMatrix,
    RefinementConfig,
    TooLarge,
    TooManyQubits,
    qubo,
    refine,
    sample_anneal,
    sample_exhaustive,
)
from qrefine import samplers
from qrefine.encoding import EncodingSpec
from qrefine.linalg import normal_residual, residual
from qrefine.samplers import SampleEntry, SampleSet


def test_exhaustive_unit_b0():
    # two degenerate ground states, both decoding to increment 0
    q = QuboMatrix(n_qubits=2, linear=(1.0, 1.0), quadratic={(0, 1): -2.0})
    result = sample_exhaustive(q)
    assert result.entries == (
        SampleEntry(bits=(0, 0), energy=0.0, occurrences=1),
        SampleEntry(bits=(1, 1), energy=0.0, occurrences=1),
    )
    assert result.ground_occurrences() == 2


def test_exhaustive_unit_b1():
    q = QuboMatrix(n_qubits=2, linear=(-1.0, 3.0), quadratic={(0, 1): -2.0})
    result = sample_exhaustive(q)
    assert result.best() == SampleEntry(bits=(1, 0), energy=-1.0, occurrences=1)


def test_exhaustive_empty_qubo():
    result = sample_exhaustive(QuboMatrix(n_qubits=0, linear=(), quadratic={}))
    assert result.entries == (SampleEntry(bits=(), energy=0.0, occurrences=1),)


def test_exhaustive_tie_order_lexicographic():
    q = QuboMatrix(n_qubits=2, linear=(0.0, 0.0), quadratic={})
    entries = sample_exhaustive(q).entries
    assert [e.bits for e in entries] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_exhaustive_qubit_cap():
    with pytest.raises(TooManyQubits):
        sample_exhaustive(QuboMatrix(n_qubits=25, linear=(0.0,) * 25, quadratic={}))


def test_exhaustive_relabeling_invariance():
    rng = random.Random(8080)
    for _ in range(10):
        nq = rng.randint(2, 8)
        linear, quadratic = random_qubo_coeffs(rng, nq)
        q = QuboMatrix(n_qubits=nq, linear=linear, quadratic=quadratic)
        perm = list(range(nq))
        rng.shuffle(perm)
        relabeled_quadratic = {}
        for (u, v), c in quadratic.items():
            a, b = perm[u], perm[v]
            relabeled_quadratic[(min(a, b), max(a, b))] = c
        relabeled_linear = [0.0] * nq
        for u in range(nq):
            relabeled_linear[perm[u]] = linear[u]
        qp = QuboMatrix(n_qubits=nq, linear=tuple(relabeled_linear), quadratic=relabeled_quadratic)

        plain = {(e.bits, e.energy) for e in sample_exhaustive(q).entries}
        unrelabeled = set()
        for e in sample_exhaustive(qp).entries:
            bits = tuple(e.bits[perm[u]] for u in range(nq))
            unrelabeled.add((bits, e.energy))
        assert plain == unrelabeled


def test_anneal_config_validation():
    with pytest.raises(ValueError):
        AnnealConfig(reads=0)
    with pytest.raises(ValueError):
        AnnealConfig(sweeps=0)


def test_zero_qubit_qubo_solves_with_both_samplers():
    # the one state of no qubits, empty, with energy 0: once from the
    # exhaustive sampler, in every read from the annealer and its reference
    config = AnnealConfig(reads=7, sweeps=3, seed=1)
    for q in (QuboMatrix(0, ()), qubo.parse('{"num_qubits":0,"linear":{},"quadratic":{}}')):
        assert sample_exhaustive(q).entries == (SampleEntry((), 0.0, 1),)
        assert sample_anneal(q, config).entries == (SampleEntry((), 0.0, 7),)
        assert anneal_reference(q, config) == sample_anneal(q, config)


def test_anneal_deterministic():
    rng = random.Random(101)
    linear, quadratic = random_qubo_coeffs(rng, 8)
    q = QuboMatrix(n_qubits=8, linear=linear, quadratic=quadratic)
    config = AnnealConfig(reads=50, sweeps=40, seed=12345)
    first = sample_anneal(q, config)
    second = sample_anneal(q, config)
    assert first.entries == second.entries


def test_anneal_occurrences_sum_to_reads():
    rng = random.Random(202)
    linear, quadratic = random_qubo_coeffs(rng, 6)
    q = QuboMatrix(n_qubits=6, linear=linear, quadratic=quadratic)
    result = sample_anneal(q, AnnealConfig(reads=173, sweeps=30, seed=7))
    assert sum(e.occurrences for e in result.entries) == 173
    assert all(e.occurrences >= 1 for e in result.entries)
    energies = [e.energy for e in result.entries]
    assert energies == sorted(energies)


def test_anneal_finds_exhaustive_minimum():
    rng = random.Random(300)
    for trial in range(20):
        nq = rng.randint(2, 10)
        linear, quadratic = random_qubo_coeffs(rng, nq)
        q = QuboMatrix(n_qubits=nq, linear=linear, quadratic=quadratic)
        exact = sample_exhaustive(q).best().energy
        got = sample_anneal(q, AnnealConfig(reads=200, sweeps=60, seed=trial)).best().energy
        assert got >= exact - 1e-12 * max(1.0, abs(exact))
        assert got == exact


def test_anneal_deep_minimum_occupancy():
    # all-ones ground state separated by a wide gap: virtually every
    # read must land there
    q = QuboMatrix(n_qubits=4, linear=(-8.0, -8.0, -8.0, -8.0), quadratic={})
    result = sample_anneal(q, AnnealConfig(reads=1000, sweeps=100, seed=99))
    assert result.best().bits == (1, 1, 1, 1)
    assert result.ground_occurrences() >= 900


@pytest.mark.parametrize("nq", range(1, 11))
def test_anneal_matches_reference_on_integer_qubos(nq):
    # small integer coefficients make every float sum exact, so fields and
    # energies do not depend on summation order and the two loops must
    # make the same decisions from the same uniforms; short anneals leave
    # reads spread over many states, so a changed stream shows
    rng = random.Random(700 + nq)
    for seed, sweeps in ((0, 4), (1, 12), (2, 30)):
        linear = tuple(float(rng.randint(-8, 8)) for _ in range(nq))
        quadratic = {
            (u, v): float(rng.randint(-8, 8))
            for u in range(nq) for v in range(u + 1, nq) if rng.random() < 0.6
        }
        q = QuboMatrix(n_qubits=nq, linear=linear, quadratic=quadratic)
        config = AnnealConfig(reads=100, sweeps=sweeps, seed=seed)
        assert sample_anneal(q, config).entries == anneal_reference(q, config).entries


def test_anneal_windows_of_one_level_match_reference():
    # integer A, b and centers at level 0 give integer coefficients, so the
    # two loops must make the same decisions on every window of the level
    system = LinearSystem(a=[[2.0, 1.0], [1.0, 3.0]], b=[5.0, -7.0])
    level = qubo.WindowLevel(system.gram, EncodingSpec(n_vars=2, l_lo=0, l_hi=1))
    config = AnnealConfig(reads=100, sweeps=8, seed=3)
    for center in ((0, 0), (3, -4), (-2, 1)):
        q = qubo.build_window(level, normal_residual(*system.exact[:2], residual(system, DyadicVector(center, 0))))
        assert q._part is level.part
        assert sample_anneal(q, config).entries == anneal_reference(q, config).entries


@pytest.mark.parametrize("reads", [100, 32])  # 2^6 states: the table loop, then the per-flip loop
def test_anneal_extreme_scales_raise_no_warning(reads):
    # coefficients from 2^-500 to 2^500: the schedule scaled by the largest
    # one keeps every Metropolis exponent finite, and no step warns
    rng = random.Random(2500)
    nq = 6
    linear = (-(2.0**500), 2.0**-500, -(2.0**-500), 2.0**500, -1.0, 2.0**250)
    quadratic = {
        (u, v): rng.choice((-1.0, 1.0)) * 2.0 ** rng.randint(-500, 500)
        for u in range(nq) for v in range(u + 1, nq)
    }
    q = QuboMatrix(n_qubits=nq, linear=linear, quadratic=quadratic)
    config = AnnealConfig(reads=reads, sweeps=30, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sample_anneal(q, config)
    assert sum(e.occurrences for e in result.entries) == reads
    assert result.entries == anneal_reference(q, config).entries


def _gaussian_qubo(nq, seed):
    rng = random.Random(seed)
    return QuboMatrix(
        n_qubits=nq,
        linear=tuple(rng.gauss(0.0, 1.0) for _ in range(nq)),
        quadratic={(u, v): rng.gauss(0.0, 1.0) for u in range(nq) for v in range(u + 1, nq)},
    )


def _table1_windows():
    """The 100 window QUBOs of the table1 run at one bit per sign."""
    windows = []

    def capture(q):
        windows.append(q)
        return sample_exhaustive(q)

    refine(irrational_system()[0], RefinementConfig(m_max=20, l_min=-40), sampler=capture)
    return windows


def test_delta_table_has_the_per_flip_bits():
    # every entry delta[u, s] is bitwise the change the per-flip loop forms
    # for a read in state s: all 2^nq states sit at shuffled places among
    # 1000 reads, as the annealer runs on the table1 windows. (A BLAS
    # matrix-vector product may sum the last reads mod 4 columns in another
    # order, so a read there can differ from the table in its last bits.)
    rng = np.random.default_rng(5)
    qubos = [_gaussian_qubo(nq, 300 + nq) for nq in range(1, 10)] + _table1_windows()
    assert len(qubos) == 109
    for q in qubos:
        nq, reads = q.n_qubits, 1000
        lin, coupling = samplers._start(q, AnnealConfig(reads=1, sweeps=1))[:2]
        table = samplers._delta_table(lin, coupling)
        codes = np.concatenate([rng.permutation(1 << nq), rng.integers(0, 1 << nq, reads - (1 << nq))])
        x = np.ascontiguousarray(samplers._state_rows(nq, codes).T)
        field, sign, delta = (np.empty(reads) for _ in range(3))
        for u in range(nq):
            samplers._flip_deltas(coupling[u], lin[u], x, x[u], field, sign, delta)
            assert np.array_equal(delta.view(np.int64), table[u][codes].view(np.int64))


@pytest.mark.parametrize("nq", range(1, 10))
def test_table_and_per_flip_loops_agree(nq):
    # non-integer coefficients, whose sums depend on their order, at reads
    # on both sides of the rule 2^nq <= reads
    q = _gaussian_qubo(nq, 400 + nq)
    for reads in (1 << nq, (1 << nq) - 1):
        for seed in (0, 7):
            config = AnnealConfig(reads=reads, sweeps=20, seed=seed)
            table = samplers._table_sweeps(q, config)
            assert table == samplers._flip_sweeps(q, config)
            assert sum(e.occurrences for e in table.entries) == reads


def test_anneal_clamp_keeps_downhill_exponents_finite():
    # 80 qubits, every pair coupled at -1: late in the anneal (beta = 10)
    # a bit joining more than ~71 set bits lowers the energy by more than
    # 71, and exp(-beta * delta) would overflow without the max(delta, 0)
    # clamp; downhill flips are accepted either way
    nq = 80
    quadratic = {(u, v): -1.0 for u in range(nq) for v in range(u + 1, nq)}
    q = QuboMatrix(n_qubits=nq, linear=(0.0,) * nq, quadratic=quadratic)
    config = AnnealConfig(reads=20, sweeps=2, seed=0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sample_anneal(q, config)
    assert result.entries == anneal_reference(q, config).entries


@pytest.mark.parametrize("reads", [20, 3])
def test_anneal_coefficient_sum_past_float_range_solves(reads):
    # each coefficient is finite, but fields and energies could reach
    # 2e308: the annealer works on the QUBO scaled by a power of two that
    # keeps them finite, so no read overflows to inf or NaN, and the
    # states it reports are scored on the original QUBO; 20 reads run the
    # table loop, 3 the per-flip loop
    q = QuboMatrix(n_qubits=2, linear=(1e308, -1e308), quadratic={(0, 1): 1e308})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = sample_anneal(q, AnnealConfig(reads=reads, sweeps=10, seed=0))
    assert result.best() == SampleEntry((0, 1), -1e308, result.best().occurrences)
    assert all(e.energy == qubo.energy(q, e.bits) for e in result.entries)


def test_exhaustive_running_sum_past_float_range():
    # 4 S overflows, so the float pass runs on the QUBO scaled by a power
    # of two; a running sum of the terms of (1, 1) can pass the float
    # range, but their exact sum is 1e308
    q = QuboMatrix(n_qubits=2, linear=(1e308, -1e308), quadratic={(0, 1): 1e308})
    result = sample_exhaustive(q)
    assert result.entries == (SampleEntry(bits=(0, 1), energy=-1e308, occurrences=1),)
    states = np.array([(0, 1), (0, 0), (1, 0), (1, 1)], dtype=float)
    assert qubo.energy(q, states) == [-1e308, 0.0, 1e308, 1e308]
    # states past the float range do not stop a solve whose minimum is in it
    result = sample_exhaustive(QuboMatrix(n_qubits=3, linear=(1e308, 1e308, -1e308)))
    assert result.entries == (SampleEntry(bits=(0, 0, 1), energy=-1e308, occurrences=1),)
    # a minimum past the float range is a typed error
    with pytest.raises(TooLarge):
        sample_exhaustive(QuboMatrix(n_qubits=2, linear=(-1e308, -1e308)))


@pytest.mark.parametrize("power", range(506, 510))
def test_systems_near_float_range_solve_exactly(power):
    # a x = a with a = 2^power: four times the sum of the windows' coefficient
    # magnitudes is past the float range from 2^508, and both samplers still
    # reach x = 1 exactly
    v = 2.0**power
    system = LinearSystem(a=[[v]], b=[v])
    for config in (RefinementConfig(l_min=-30),
                   RefinementConfig(l_min=-30, sampler="sa", anneal=AnnealConfig(reads=200, seed=7))):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trace = refine(system, config)
        assert trace.final_center == DyadicVector((1,), 0)


def test_exhaustive_cap_before_dense_coefficients():
    with pytest.raises(TooManyQubits):
        sample_exhaustive(QuboMatrix(n_qubits=100_000, linear=(0.0,) * 100_000))


def test_sample_set_ground_occurrences():
    entries = (
        SampleEntry(bits=(0, 1), energy=-2.0, occurrences=3),
        SampleEntry(bits=(1, 0), energy=-2.0, occurrences=2),
        SampleEntry(bits=(0, 0), energy=0.0, occurrences=5),
    )
    assert SampleSet(entries=entries).ground_occurrences() == 5
    assert SampleSet(entries=entries).best().bits == (0, 1)
    # any sequence is stored as a tuple ordered by (energy, bits)
    assert SampleSet(entries=list(reversed(entries))).entries == entries
    with pytest.raises(ValueError):
        SampleSet(entries=())
