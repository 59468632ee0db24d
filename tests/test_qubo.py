"""Window QUBO construction against the exact residual-difference oracle."""

import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import (
    dyadic_fractions,
    exact_residual_sq,
    irrational_system,
    frac_energy,
    frac_normal_rhs,
    frac_residual_sq,
    ising_energy,
    qubit_index,
    random_bits,
    random_instance,
    random_qubo_coeffs,
    window_qubo,
)
from qrefine import (
    AnnealConfig,
    DimensionMismatch,
    DyadicVector,
    LinearSystem,
    ParseError,
    QuboMatrix,
    TooLarge,
    TooManyQubits,
    sample_anneal,
    sample_exhaustive,
)
from qrefine.encoding import EncodingSpec, decode_increments
from qrefine.linalg import normal_residual, residual
from qrefine.qubo import _PICK, WindowLevel, build_window, dump, energy, parse, qubo_to_ising
from qrefine.refine import energy_change

ONE_D = LinearSystem(a=[[1.0]], b=[0.0])


def window(n, l, k):
    return EncodingSpec(n_vars=n, l_lo=l, l_hi=l + k - 1)


def test_build_unit_system_b0():
    q = window_qubo(ONE_D, DyadicVector.zero(1), window(1, 0, 1))
    assert q.linear == (1.0, 1.0)
    assert q.quadratic == {(0, 1): -2.0}


def test_build_unit_system_b1():
    system = LinearSystem(a=[[1.0]], b=[1.0])
    q = window_qubo(system, DyadicVector.zero(1), window(1, 0, 1))
    assert q.linear == (-1.0, 3.0)
    assert q.quadratic == {(0, 1): -2.0}
    energies = {bits: energy(q, bits) for bits in [(0, 0), (1, 0), (0, 1), (1, 1)]}
    assert min(energies.values()) == -1.0
    assert energies[(1, 0)] == -1.0


def test_build_unit_system_b2_level1():
    system = LinearSystem(a=[[1.0]], b=[2.0])
    q = window_qubo(system, DyadicVector.zero(1), window(1, 1, 1))
    assert q.linear == (-4.0, 12.0)
    assert q.quadratic == {(0, 1): -8.0}
    assert energy(q, (1, 0)) == -4.0
    assert min(energy(q, b) for b in [(0, 0), (1, 0), (0, 1), (1, 1)]) == -4.0


def test_build_dimension_checks():
    with pytest.raises(DimensionMismatch, match="sizes disagree"):
        build_window(WindowLevel(ONE_D.gram, window(1, 0, 1)), DyadicVector.zero(2))
    with pytest.raises(DimensionMismatch, match="sizes disagree"):
        WindowLevel(ONE_D.gram, window(2, 0, 1))
    # 1,002,050 qubits; l_hi is past 1023 too, so without the qubit bound
    # the next check raises at once instead of laying out the window
    with pytest.raises(TooManyQubits, match="1e6"):
        WindowLevel(ONE_D.gram, EncodingSpec(1, -500000, 1024))


def test_energy_trivials():
    q = QuboMatrix(n_qubits=2, linear=(1.0, 1.0), quadratic={(0, 1): -2.0})
    assert energy(q, (0, 0)) == 0.0
    assert energy(q, (1, 1)) == 0.0
    single = QuboMatrix(n_qubits=1, linear=(2.0,), quadratic={})
    assert energy(single, (1,)) == 2.0
    with pytest.raises(DimensionMismatch):
        energy(q, (0,))


@st.composite
def qubo_and_rows(draw):
    # exponents scale + offset within [-1000, 1000]: a narrow spread makes
    # terms of one magnitude whose plain float sum would round differently
    nq = draw(st.integers(min_value=0, max_value=12))
    scale = draw(st.integers(min_value=-1000, max_value=1000))
    spread = draw(st.sampled_from((2, 60, 2000)))
    coefficient = st.one_of(
        st.just(0.0),
        st.builds(
            lambda sign, mant, off: sign * math.ldexp(mant, max(-1000, min(1000, scale + off))),
            st.sampled_from((-1.0, 1.0)),
            st.floats(min_value=1.0, max_value=2.0, exclude_max=True),
            st.integers(min_value=-spread, max_value=spread),
        ),
    )
    pairs = [(u, v) for u in range(nq) for v in range(u + 1, nq)]
    linear = draw(st.lists(coefficient, min_size=nq, max_size=nq))
    upper = draw(st.lists(coefficient, min_size=len(pairs), max_size=len(pairs)))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    quadratic = {p: c for p, c, k in zip(pairs, upper, keep) if k}
    rows = draw(st.lists(st.lists(st.integers(0, 1), min_size=nq, max_size=nq), max_size=8))
    return QuboMatrix(n_qubits=nq, linear=tuple(linear), quadratic=quadratic), rows


@given(qubo_and_rows())
def test_batched_energy_is_exact_per_row(case):
    q, rows = case
    batch = np.array(rows, dtype=np.int64).reshape(len(rows), q.n_qubits)
    got = energy(q, batch)
    assert isinstance(got, list)
    assert got == [float(frac_energy(q, bits)) for bits in rows]
    assert got == [energy(q, tuple(bits)) for bits in rows]
    assert all(isinstance(energy(q, tuple(bits)), float) for bits in rows)
    with pytest.raises(DimensionMismatch):
        energy(q, np.zeros((len(rows), q.n_qubits + 1)))


def test_batched_energy_shapes():
    q = QuboMatrix(n_qubits=3, linear=(1.0, -2.0, 0.5), quadratic={(0, 2): -4.0})
    assert energy(q, np.zeros((0, 3))) == []
    assert energy(q, np.array([[1, 0, 1], [0, 1, 0]])) == [-2.5, -2.0]
    assert energy(QuboMatrix(n_qubits=0, linear=()), ()) == 0.0
    assert energy(QuboMatrix(n_qubits=0, linear=()), np.zeros((2, 0))) == [0.0, 0.0]
    # a nonzero entry selects its qubit, one state or a batch alike
    assert energy(q, (2, 0, -1)) == energy(q, (1, 0, 1)) == -2.5
    assert energy(q, np.array([[2, 0, -1], [0, 0.5, 0]])) == [-2.5, -2.0]
    assert energy(q, np.array([[2, 0, -1], [0, 0.5, 0]] * 30)) == [-2.5, -2.0] * 30
    for bad in ((0, 1), np.zeros((2, 4)), np.zeros((0, 2)), np.zeros((1, 1, 3))):
        with pytest.raises(DimensionMismatch):
            energy(q, bad)


def test_energy_running_sum_past_float_range_is_exact():
    # a running sum of these terms can pass the float range in one order
    # and stay inside it in another; the energy is their exact sum either way
    q = QuboMatrix(n_qubits=2, linear=(1e308, -1e308), quadratic={(0, 1): 1e308})
    rows = [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert energy(q, np.array(rows)) == [0.0, 1e308, -1e308, 1e308]
    # a batch too large to pick in Python goes through numpy
    assert energy(q, np.array(rows * 100)) == [0.0, 1e308, -1e308, 1e308] * 100
    assert [energy(q, bits) for bits in rows] == [float(frac_energy(q, bits)) for bits in rows]
    q = QuboMatrix(n_qubits=3, linear=(1e308, 1e308, -1e308))
    assert energy(q, (1, 1, 1)) == 1e308
    assert energy(q, np.array([[1, 0, 1], [0, 0, 1]])) == [0.0, -1e308]
    # a row whose exact energy is past the float range fails its batch
    for batch in ([[1, 0, 1], [1, 1, 0]], [[1, 0, 1], [1, 1, 0]] * 100):
        with pytest.raises(TooLarge):
            energy(q, np.array(batch))


def test_sparse_qubo_is_not_densified():
    # a large num_qubits with no entries parses and dumps without
    # allocating nq^2 coefficients
    q = parse('{"num_qubits":100000,"linear":{},"quadratic":{}}')
    assert parse(dump(q)) == q
    assert qubo_to_ising(q).offset == 0.0


def test_quadratic_validation():
    with pytest.raises(DimensionMismatch, match="linear term count"):
        QuboMatrix(n_qubits=2, linear=(1.0,))
    with pytest.raises(DimensionMismatch):
        QuboMatrix(n_qubits=2, linear=(0.0, 0.0), quadratic={(1, 0): 1.0})
    with pytest.raises(DimensionMismatch):
        QuboMatrix(n_qubits=2, linear=(0.0, 0.0), quadratic={(0, 0): 1.0})
    with pytest.raises(DimensionMismatch):
        QuboMatrix(n_qubits=2, linear=(0.0, math.inf), quadratic={})
    with pytest.raises(DimensionMismatch, match="non-finite coefficient"):
        QuboMatrix(n_qubits=2, linear=(0.0, 0.0), quadratic={(0, 1): math.inf})
    # a copy of a built window keeps the window's QuadraticPart and is
    # still checked
    built = window_qubo(ONE_D, DyadicVector.zero(1), window(1, 0, 1))
    with pytest.raises(DimensionMismatch, match="non-finite linear"):
        dataclasses.replace(built, linear=(math.inf, 0.0))
    # outside quadratic terms are checked, and sorted, where they come in
    with pytest.raises(DimensionMismatch, match="not upper-triangular"):
        dataclasses.replace(built, quadratic={(1, 0): 1.0})
    unordered = QuboMatrix(n_qubits=3, linear=(0.0,) * 3, quadratic={(1, 2): 1.0, (0, 1): 2.0})
    assert list(unordered.quadratic) == [(0, 1), (1, 2)]
    assert dump(unordered).endswith('"quadratic":{"0,1":2.0,"1,2":1.0}}')


def _one_d_window():
    return window_qubo(ONE_D, DyadicVector.zero(1), window(1, 0, 1))


def test_copy_with_more_qubits_gets_its_own_part():
    # a copy that widens a built window may not keep the window's 2x2 part:
    # its terms are checked and put into a new part of 3 qubits, so the copy
    # solves as the same QUBO built anew does
    built = _one_d_window()
    wide = dataclasses.replace(built, n_qubits=3, linear=(0.0, 0.0, -1.0))
    fresh = QuboMatrix(n_qubits=3, linear=(0.0, 0.0, -1.0), quadratic=dict(built.quadratic))
    assert wide._part is not built._part and wide._part.upper.shape == (3, 3)
    rows = np.array([[(s >> u) & 1 for u in range(3)] for s in range(8)], dtype=float)
    assert energy(wide, rows) == energy(fresh, rows)
    assert energy(wide, (1, 1, 1)) == -3.0
    assert sample_exhaustive(wide) == sample_exhaustive(fresh)
    for reads in (8, 7):  # the annealer's table loop, then its per-flip loop
        config = AnnealConfig(reads=reads, sweeps=20, seed=0)
        assert sample_anneal(wide, config) == sample_anneal(fresh, config)


def test_copy_with_fewer_qubits_is_checked():
    # a copy that narrows a built window to 1 qubit keeps a pair it cannot hold
    with pytest.raises(DimensionMismatch, match=r"pair \(0, 1\)"):
        dataclasses.replace(_one_d_window(), n_qubits=1, linear=(0.0,))


def test_energy_identity_random_windows():
    rng = random.Random(98431)
    worst = Fraction(0)
    for _ in range(30):
        a, b, center, k, l = random_instance(rng)
        system = LinearSystem(a=a, b=b)
        spec = window(len(b), l, k)
        q = window_qubo(system, center, spec)
        cf = dyadic_fractions(center)
        r0 = frac_residual_sq(a, b, cf)
        bound = Fraction(1, 10**9) * max(Fraction(1), abs(r0))
        scale = Fraction(2) ** l
        for _ in range(40):
            bits = random_bits(rng, spec.total_qubits)
            incs = decode_increments(bits, spec)
            point = [c + d * scale for c, d in zip(cf, incs)]
            true_drop = frac_residual_sq(a, b, point) - r0
            dev = abs(Fraction(energy(q, bits)) - true_drop)
            worst = max(worst, dev / max(Fraction(1), abs(r0)))
            assert dev <= bound
    assert worst <= Fraction(1, 10**12)  # typical deviation is far below the bound


def test_window_of_any_symmetric_form_matches_energy_change():
    # the window layer reads only a symmetric form and a vector: for an exact
    # symmetric Q 2^e that is no Gram matrix (most of these are indefinite)
    # and an exact g, each state's window energy is the exact change
    # 4^l y^T Q y 2^e - 2^(l+1) y^T g to 1e-9 relative to the terms it
    # sums, as criterion 3 asks of the Gram windows; energy_change gives
    # that change exactly
    rng = random.Random(2626)
    indefinite = 0
    for _ in range(100):
        n, k, l, e = rng.randint(1, 4), rng.randint(1, 3), rng.randint(-10, 10), rng.randint(-20, 20)
        q = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                q[i][j] = q[j][i] = rng.randint(-2**60, 2**60)
        indefinite += bool(np.linalg.eigvalsh(np.array(q, dtype=float)).min() < 0)
        g = DyadicVector(tuple(rng.randint(-2**60, 2**60) for _ in range(n)), rng.randint(-40, 20))
        spec = window(n, l, k)
        level = WindowLevel(tuple(tuple(float(Fraction(m) * Fraction(2) ** e) for m in row) for row in q), spec)
        qm = build_window(level, g)
        magnitudes = QuboMatrix(qm.n_qubits, tuple(map(abs, qm.linear)), {uv: abs(c) for uv, c in qm.quadratic.items()})
        gf = dyadic_fractions(g)
        for _ in range(64):
            bits = random_bits(rng, spec.total_qubits)
            y = decode_increments(bits, spec)
            quad = sum(q[i][j] * y[i] * y[j] for i in range(n) for j in range(n))
            lin = sum(y[i] * gf[i] for i in range(n))
            expect = Fraction(4) ** l * Fraction(2) ** e * quad - Fraction(2) ** (l + 1) * lin
            d_m, d_e, _ = energy_change((tuple(map(tuple, q)), e), g, y, l)
            assert Fraction(d_m) * Fraction(2) ** d_e == expect
            size = max(Fraction(1), frac_energy(magnitudes, bits))
            assert abs(Fraction(energy(qm, bits)) - expect) <= Fraction(1, 10**9) * size
    assert indefinite > 50


def test_energy_zero_bits_exact_zero():
    rng = random.Random(555)
    for _ in range(10):
        a, b, center, k, l = random_instance(rng)
        spec = window(len(b), l, k)
        q = window_qubo(LinearSystem(a=a, b=b), center, spec)
        assert energy(q, (0,) * spec.total_qubits) == 0.0


def test_energy_floor_is_target():
    rng = random.Random(777)
    for _ in range(10):
        while True:
            a, b, center, k, l = random_instance(rng)
            if 2 * k * len(b) <= 12:
                break
        system = LinearSystem(a=a, b=b)
        spec = window(len(b), l, k)
        q = window_qubo(system, center, spec)
        target = -float(exact_residual_sq(system, center))
        assert target <= 0.0
        floor = target - 1e-9 * max(1.0, abs(target))
        for state in range(1 << spec.total_qubits):
            bits = tuple((state >> u) & 1 for u in range(spec.total_qubits))
            assert energy(q, bits) >= floor


def test_negation_symmetry_of_energy():
    rng = random.Random(31337)
    for _ in range(10):
        a, b, center, k, l = random_instance(rng)
        system = LinearSystem(a=a, b=b)
        n = len(b)
        spec = window(n, l, k)
        q = window_qubo(system, center, spec)
        bits = random_bits(rng, spec.total_qubits)
        swapped = []
        for i in range(n):
            base = i * 2 * k
            swapped.extend(bits[base + k : base + 2 * k])
            swapped.extend(bits[base : base + k])
        cf = dyadic_fractions(center)
        r0 = frac_residual_sq(a, b, cf)
        incs = decode_increments(bits, spec)
        scale = Fraction(2) ** l
        mirrored = [c - d * scale for c, d in zip(cf, incs)]
        true_drop = frac_residual_sq(a, b, mirrored) - r0
        bound = Fraction(1, 10**9) * max(Fraction(1), abs(r0))
        assert abs(Fraction(energy(q, tuple(swapped))) - true_drop) <= bound


def test_target_min_energy_values():
    system = LinearSystem(a=[[1.0, 0.0], [0.0, 1.0]], b=[3.0, -2.0])
    assert exact_residual_sq(system, DyadicVector((3, -2), 0)) == 0
    assert -exact_residual_sq(system, DyadicVector.zero(2)) == -13


def test_target_min_energy_irrational_system():
    system, _ = irrational_system()
    got = -float(exact_residual_sq(system, DyadicVector.zero(2)))
    true = -frac_residual_sq(system.a, system.b, [Fraction(0), Fraction(0)])
    assert abs(Fraction(got) - true) <= abs(true) * Fraction(1, 10**12)
    # magnitude ~7.06e7: b = (4700.17..., 6963.26...)
    assert -7.1e7 < got < -7.0e7


def test_ising_single_qubit():
    model = qubo_to_ising(QuboMatrix(n_qubits=1, linear=(1.0,), quadratic={}))
    assert model.h == (0.5,)
    assert model.offset == 0.5
    assert model.j == {}


def test_ising_coupler_example():
    model = qubo_to_ising(QuboMatrix(n_qubits=2, linear=(0.0, 0.0), quadratic={(0, 1): 4.0}))
    assert model.j == {(0, 1): 1.0}
    assert model.h == (1.0, 1.0)
    assert model.offset == 1.0


def test_ising_empty():
    model = qubo_to_ising(QuboMatrix(n_qubits=0, linear=(), quadratic={}))
    assert model.h == ()
    assert model.offset == 0.0


def test_ising_equivalence_random():
    rng = random.Random(246810)
    for _ in range(50):
        nq = rng.randint(1, 12)
        linear, quadratic = random_qubo_coeffs(rng, nq)
        q = QuboMatrix(n_qubits=nq, linear=linear, quadratic=quadratic)
        model = qubo_to_ising(q)
        for _ in range(min(1 << nq, 64)):
            bits = random_bits(rng, nq)
            spins = tuple(2 * b - 1 for b in bits)
            eq = energy(q, bits)
            ei = ising_energy(model, spins) + model.offset
            assert abs(eq - ei) <= 1e-12 * max(1.0, abs(eq))


def test_dump_examples():
    q = QuboMatrix(n_qubits=2, linear=(1.0, 1.0), quadratic={(0, 1): -2.0})
    assert dump(q) == '{"num_qubits":2,"linear":{"0":1.0,"1":1.0},"quadratic":{"0,1":-2.0}}'
    empty = QuboMatrix(n_qubits=0, linear=(), quadratic={})
    assert dump(empty) == '{"num_qubits":0,"linear":{},"quadratic":{}}'


def test_dump_17_digit_coefficients():
    q = QuboMatrix(n_qubits=1, linear=(0.1,), quadratic={})
    text = dump(q)
    assert '"0":0.1' in text
    assert parse(text).linear == (0.1,)


def test_dump_parse_roundtrip_random():
    rng = random.Random(1213)
    for _ in range(25):
        nq = rng.randint(0, 10)
        linear, quadratic = random_qubo_coeffs(rng, nq)
        q = QuboMatrix(n_qubits=nq, linear=linear, quadratic=quadratic)
        back = parse(dump(q))
        assert back == q
        assert dump(back) == dump(q)


def test_parse_rejects_malformed():
    bad = [
        "not json",
        '{"num_qubits":1,"linear":{}}',
        '{"num_qubits":1,"linear":{},"quadratic":{},"extra":1}',
        '{"num_qubits":-1,"linear":{},"quadratic":{}}',
        '{"num_qubits":true,"linear":{},"quadratic":{}}',
        '{"num_qubits":2,"linear":[0.0],"quadratic":{}}',
        '{"num_qubits":2,"linear":{},"quadratic":[]}',
        '{"num_qubits":2,"linear":{"9":1.0},"quadratic":{}}',
        '{"num_qubits":2,"linear":{"x":1.0},"quadratic":{}}',
        '{"num_qubits":2,"linear":{},"quadratic":{"1,0":1.0}}',
        '{"num_qubits":2,"linear":{},"quadratic":{"0,0":1.0}}',
        '{"num_qubits":2,"linear":{},"quadratic":{"0":1.0}}',
        '{"num_qubits":2,"linear":{"0":"big"},"quadratic":{}}',
        '{"num_qubits":1,"linear":{"0":Infinity},"quadratic":{}}',
        '{"num_qubits":1,"linear":{"0":1.0,"0":2.0},"quadratic":{}}',
        '{"num_qubits":1,"linear":{"0":true},"quadratic":{}}',
        '{"num_qubits":1,"linear":{"0":1e400},"quadratic":{}}',
        '{"num_qubits":1,"linear":{"0":1' + "0" * 400 + '},"quadratic":{}}',
        '{"num_qubits":2,"linear":{"1":1.0,"01":2.0},"quadratic":{}}',
        '{"num_qubits":2,"linear":{},"quadratic":{"0,1":1.0,"0,01":2.0}}',
        '{"num_qubits":2,"linear":{},"quadratic":{" 0 , 1 ":1.0}}',
        '{"num_qubits":2,"linear":{"0_1":1.0},"quadratic":{}}',
        # past WindowLevel's 10^6 bound, refused before a list of that length is made
        '{"num_qubits":1000001,"linear":{},"quadratic":{}}',
    ]
    for text in bad:
        with pytest.raises(ParseError) as excinfo:
            parse(text)
        assert excinfo.type is ParseError
    assert parse('{"num_qubits":1000000,"linear":{},"quadratic":{}}').n_qubits == 10**6


def test_build_matches_fraction_coefficients():
    # independent coefficient oracle for one concrete window: the exact
    # shifted expansion with g rounded once and gram entries as floats
    a = [[1.5, -0.75], [2.0, 0.5]]
    b = [3.25, -1.125]
    center = DyadicVector((5, -3), -2)
    spec = window(2, -1, 1)
    q = window_qubo(LinearSystem(a=a, b=b), center, spec)

    af = [[Fraction(v) for v in row] for row in a]
    bf = [Fraction(v) for v in b]
    cf = dyadic_fractions(center)
    bprime = [bf[r] - sum(af[r][i] * cf[i] for i in range(2)) for r in range(2)]
    g = [float(sum(af[r][i] * bprime[r] for r in range(2))) for i in range(2)]
    gram = [[math.fsum(a[r][i] * a[r][j] for r in range(2)) for j in range(2)] for i in range(2)]
    weights = [0.5, -0.5, 0.5, -0.5]
    owner = [0, 0, 1, 1]
    for u in range(4):
        expect = weights[u] * weights[u] * gram[owner[u]][owner[u]] - 2.0 * weights[u] * g[owner[u]]
        assert q.linear[u] == expect
    assert len(q.quadratic) == 6
    for (u, v), coeff in q.quadratic.items():
        assert coeff == 2.0 * weights[u] * weights[v] * gram[owner[u]][owner[v]]


@pytest.mark.parametrize("l", [-510, -530])
def test_tiny_couplings_are_kept(l):
    # near 1.8e-307 at level -510 and subnormal at -530: every coupling is
    # 2 w_u w_v G rounded once, and only an exact zero would stay out
    system = LinearSystem(a=[[1.0, 1.0], [0.0, 1.0]], b=[1.0, 1.0])
    gram = [[1, 1], [1, 2]]  # A^T A, exactly
    spec = window(2, l, 1)
    weight = [s * Fraction(2) ** (l + t) for _, s, t in spec.qubits]
    var = [i for i, _, _ in spec.qubits]
    expect = {(u, v): float(2 * weight[u] * weight[v] * gram[var[u]][var[v]])
              for u in range(4) for v in range(u + 1, 4)}
    assert len(expect) == 6 and all(expect.values())
    assert WindowLevel(system.gram, spec).part.quadratic == expect


def test_diagonal_system_couples_only_the_signs_of_one_variable():
    system = LinearSystem(a=[[1.0, 0.0], [0.0, 2.0]], b=[1.0, 1.0])
    assert list(WindowLevel(system.gram, window(2, 0, 1)).part.quadratic) == [(0, 1), (2, 3)]


@pytest.mark.parametrize("k", [1, 2, 3])
def test_windows_of_one_level_match_fraction_oracle(k):
    # one level serves windows at many centers: each window's linear terms
    # come from its own exact g = A^T (b - Ac), rounded once, and its
    # quadratic terms are those of a window built afresh at the zero
    # center, so nothing of one solve leaks into the next through the level
    rng = random.Random(4200 + k)
    for _ in range(6):
        n = rng.randint(1, 4)
        l = rng.randint(-12, 6)
        a = [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(n)]
        b = [rng.uniform(-4.0, 4.0) for _ in range(n)]
        system = LinearSystem(a=a, b=b)
        spec = window(n, l, k)
        level = WindowLevel(system.gram, spec)
        at_zero = window_qubo(system, DyadicVector.zero(n), spec)
        # gram entries are exact sums of the float products, rounded once
        gram = [float(sum(Fraction(a[r][i] * a[r][i]) for r in range(n))) for i in range(n)]
        centers = [DyadicVector(tuple(rng.randint(-4096, 4096) for _ in range(n)), l - rng.randint(0, 8))
                   for _ in range(4)]
        for center in centers + [DyadicVector.zero(n)]:
            q = build_window(level, normal_residual(*system.exact[:2], residual(system, center)))
            g = frac_normal_rhs(a, b, dyadic_fractions(center))
            for i in range(n):
                for sign, s in (("plus", 1), ("minus", -1)):
                    for t in range(k):
                        w = s * Fraction(2) ** (l + t)
                        expect = float(w * w * Fraction(gram[i]) - 2 * w * Fraction(float(g[i])))
                        assert q.linear[qubit_index(spec, i, sign, t)] == expect
            assert q.quadratic == at_zero.quadratic
            assert q == window_qubo(system, center, spec)


def test_energy_of_windows_sharing_a_level_matches_fraction_oracle():
    # the windows of one level share its QuadraticPart but not their linear
    # terms: each energy, picked in Python (one row) or formed with numpy
    # (more than _PICK outer-product entries), is the exact sum of this
    # window's own coefficients, as it is for the window parsed back with
    # a part of its own; alternating windows shows a leak through the part
    rng = random.Random(1414)
    n, k, l = 2, 2, -3
    a = [[rng.uniform(-2.0, 2.0) for _ in range(n)] for _ in range(n)]
    system = LinearSystem(a=a, b=[rng.uniform(-4.0, 4.0) for _ in range(n)])
    spec = window(n, l, k)
    nq = spec.total_qubits
    level = WindowLevel(system.gram, spec)
    centers = [DyadicVector(tuple(rng.randint(-64, 64) for _ in range(n)), l) for _ in range(3)]
    windows = [build_window(level, normal_residual(*system.exact[:2], residual(system, c))) for c in centers]
    assert all(q._part is level.part for q in windows)
    assert len({q.linear for q in windows}) == len(windows)
    for size in (1, _PICK // nq + 1):
        for q in windows + windows[::-1]:
            rows = np.array([random_bits(rng, nq) for _ in range(size)])
            got = energy(q, rows)
            assert got == [float(frac_energy(q, bits)) for bits in rows.tolist()]
            assert got == energy(parse(dump(q)), rows)
            assert energy(q, rows[0]) == got[0]


def test_frac_energy_helper_agrees():
    # sanity-check the test oracle itself on a tiny case
    q = QuboMatrix(n_qubits=2, linear=(1.0, 1.0), quadratic={(0, 1): -2.0})
    assert frac_energy(q, (1, 1)) == 0
    assert frac_energy(q, (1, 0)) == 1
