"""Solve, residual, eigen and condition oracles.

The residual path is the package's precision backbone, so it is checked
against exact Fraction arithmetic, not against itself.
"""

import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    build_illcond,
    dyadic_fractions,
    exact_residual_sq,
    frac_normal_rhs,
    frac_residual_sq,
    irrational_system,
    solve_direct,
)
from qrefine import (
    DimensionMismatch,
    DyadicVector,
    LinearSystem,
    RefinementConfig,
    SingularMatrix,
    TooLarge,
    condition_number,
    refine,
)
from qrefine.linalg import (
    exact_form,
    exact_gram,
    exact_matvec,
    normal_residual,
    residual,
    residual_norm_sq,
    symmetric_eigen,
)


def test_system_validation():
    with pytest.raises(Exception):
        LinearSystem(a=[[1.0, 2.0]], b=[1.0])
    with pytest.raises(Exception):
        LinearSystem(a=[[1.0]], b=[1.0, 2.0])
    with pytest.raises(Exception):
        LinearSystem(a=[[math.nan]], b=[1.0])


def test_system_is_read_only_with_exact_gram():
    a = np.array([[math.sqrt(2), -math.sqrt(3)], [math.sqrt(5), 1e-20]])
    system = LinearSystem(a=a, b=[1.0, 2.0])
    a[0, 0] = 7.0  # the caller's array is copied, not kept
    assert system.a[0, 0] == math.sqrt(2)
    with pytest.raises(ValueError):
        system.a[0, 0] = 7.0
    with pytest.raises(ValueError):
        system.b[0] = 7.0
    assert system.gram is system.gram
    # each entry is the exact sum of the float products, rounded once;
    # where every product is exact that is the exact Gram rounded once
    exact_products = LinearSystem(a=[[1.5, -3.25], [2.0**-30, 7.0 + 2.0**-20]], b=[0.0, 0.0])
    for sys_, product in ((system, lambda x, y: Fraction(x * y)),
                          (exact_products, lambda x, y: Fraction(x) * Fraction(y))):
        cols = sys_.a.T.tolist()
        for i in range(2):
            for j in range(2):
                entry = sum(product(x, y) for x, y in zip(cols[i], cols[j]))
                assert type(sys_.gram[i][j]) is float
                assert sys_.gram[i][j] == float(entry)


def test_solve_identity():
    x = solve_direct(LinearSystem(a=[[1.0, 0.0], [0.0, 1.0]], b=[3.0, 4.0]))
    assert tuple(x) == (3.0, 4.0)


def test_solve_diagonal():
    x = solve_direct(LinearSystem(a=[[2.0, 0.0], [0.0, 4.0]], b=[2.0, 8.0]))
    assert tuple(x) == (1.0, 2.0)


def test_solve_small_dense_exact():
    # elimination stays in dyadic arithmetic here, so the result is exact
    x = solve_direct(LinearSystem(a=[[2.0, 1.0], [1.0, 3.0]], b=[3.0, 4.0]))
    assert tuple(x) == (1.0, 1.0)


def test_solve_irrational_2x2():
    system, truth = irrational_system()
    x = solve_direct(system)
    assert abs(x[0] - truth[0]) <= 1e-9 * abs(truth[0])
    assert abs(x[1] - truth[1]) <= 1e-9 * abs(truth[1])


def test_solve_singular():
    with pytest.raises(SingularMatrix):
        solve_direct(LinearSystem(a=[[1.0, 1.0], [1.0, 1.0]], b=[1.0, 2.0]))
    with pytest.raises(SingularMatrix):
        solve_direct(LinearSystem(a=[[0.0]], b=[1.0]))


def test_residual_trivial():
    one = LinearSystem(a=[[1.0]], b=[0.0])
    assert exact_residual_sq(one, DyadicVector((0,), 0)) == 0
    two = LinearSystem(a=[[1.0]], b=[1.0])
    assert exact_residual_sq(two, DyadicVector((0,), 0)) == 1


def test_residual_exact_zero_at_solution():
    system = LinearSystem(a=[[1.0, 0.0], [0.0, 1.0]], b=[3.0, -2.0])
    assert exact_residual_sq(system, DyadicVector((3, -2), 0)) == 0


def test_residual_direct_solve_small():
    system, _ = irrational_system()
    x = solve_direct(system)
    assert 0 <= exact_residual_sq(system, DyadicVector.from_floats(tuple(x))) <= 1e-20


def test_residual_sees_past_float_rounding():
    # x = 2^27 + 2^-27 needs 55 mantissa bits; as a float it collapses
    # to 2^27 and the naive residual is exactly 0. The exact path must
    # report the true 2^-54.
    system = LinearSystem(a=[[1.0]], b=[float(2**27)])
    x = DyadicVector(((2**54) + 1,), -27)
    naive = (system.b[0] - system.a[0, 0] * x.to_floats()[0]) ** 2
    assert naive == 0.0
    assert exact_residual_sq(system, x) == Fraction(2) ** -54


def test_residual_norm_sq_is_the_exact_pair():
    # r = -2^-27, so ||r||^2 = 1 * 2^-54 as (m, e), with no rounding
    system = LinearSystem(a=[[1.0]], b=[float(2**27)])
    r = residual(system, DyadicVector(((2**54) + 1,), -27))
    assert residual_norm_sq(r) == (1, -54)
    assert residual_norm_sq(residual(system, DyadicVector((2**27,), 0))) == (0, 0)


def test_residual_sees_drop_far_below_float_precision():
    # the squared residuals are 1 + 2^-60 + 2^-200 and 1 + 2^-60 + 2^-202:
    # they differ 140 bits below even their 2^-60 term, and the move must
    # still count as a drop
    system = LinearSystem(a=np.eye(3), b=[1.0, 2.0**-30, 2.0**-100])
    x, moved = DyadicVector.zero(3), DyadicVector((0, 0, 1), -101)
    exact = [frac_residual_sq(system.a, system.b, dyadic_fractions(v)) for v in (x, moved)]
    assert exact[1] < exact[0]
    assert [exact_residual_sq(system, v) for v in (x, moved)] == exact
    assert exact_residual_sq(system, moved) < exact_residual_sq(system, x)


def test_residual_matches_fraction_oracle():
    rng = random.Random(4021)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)]
        b = [rng.uniform(-3, 3) for _ in range(n)]
        x = DyadicVector(tuple(rng.randint(-2**40, 2**40) for _ in range(n)), -45)
        system = LinearSystem(a=a, b=b)
        xf = dyadic_fractions(x)
        assert dyadic_fractions(residual(system, x)) == [
            Fraction(b[r]) - sum(Fraction(a[r][i]) * xf[i] for i in range(n)) for r in range(n)
        ]
        assert exact_residual_sq(system, x) == frac_residual_sq(a, b, xf)


def test_normal_residual_matches_fraction_oracle():
    rng = random.Random(6053)
    for _ in range(20):
        n = rng.randint(1, 4)
        a = [[rng.uniform(-3, 3) for _ in range(n)] for _ in range(n)]
        b = [rng.uniform(-3, 3) for _ in range(n)]
        x = DyadicVector(tuple(rng.randint(-2**40, 2**40) for _ in range(n)), -45)
        system = LinearSystem(a=a, b=b)
        got = normal_residual(*system.exact[:2], residual(system, x))
        assert dyadic_fractions(got) == frac_normal_rhs(a, b, dyadic_fractions(x))


def frac_gram(a: list[list[Fraction]]) -> list[list[Fraction]]:
    cols = list(zip(*a))
    return [[sum(x * y for x, y in zip(ci, cj)) for cj in cols] for ci in cols]


def check_exact_gram(rows, e: int, a: list[list[Fraction]]) -> None:
    g_rows, g_e = exact_gram(rows, e)
    assert [[Fraction(m) * Fraction(2) ** g_e for m in row] for row in g_rows] == frac_gram(a)


def test_exact_gram_matches_fraction_oracle():
    rng = random.Random(5150)
    for _ in range(12):
        n = rng.randint(1, 4)
        a = [[rng.uniform(-3, 3) * 2.0 ** rng.randint(-60, 60) for _ in range(n)] for _ in range(n)]
        rows, e, _ = LinearSystem(a=a, b=[0.0] * n).exact
        check_exact_gram(rows, e, [[Fraction(v) for v in row] for row in a])


def test_exact_gram_of_eigenbasis_work_system_is_the_exact_one():
    # an eigenbasis run works on A V formed exactly; its exact Gram is that
    # product's, not that of the floats the product rounds to
    system, _ = irrational_system()
    v = symmetric_eigen(np.array(system.gram)).vectors
    a_rows, a_exp, _ = system.exact
    v_rows, v_exp = exact_form(v)
    av_rows = tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in zip(*v_rows)) for row in a_rows)
    av = [[sum(Fraction(x) * Fraction(y) for x, y in zip(row, col)) for col in zip(*v.tolist())]
          for row in system.a.tolist()]
    check_exact_gram(av_rows, a_exp + v_exp, av)


@given(st.integers(min_value=1, max_value=4).flatmap(lambda n: st.tuples(
    st.lists(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n, max_size=n),
             min_size=1, max_size=4),
    st.lists(st.integers(min_value=-(2**70), max_value=2**70), min_size=n, max_size=n),
    st.integers(min_value=-1100, max_value=1100),
)))
def test_exact_matvec_matches_fraction_oracle(case):
    # any float entries, subnormal to huge, rectangular A included
    a, mantissas, e = case
    x = DyadicVector(tuple(mantissas), e)
    rows, a_exp = exact_form(np.array(a))
    got = DyadicVector(*exact_matvec(rows, a_exp, x))
    xf = dyadic_fractions(x)
    assert dyadic_fractions(got) == [sum(Fraction(v) * xi for v, xi in zip(row, xf)) for row in a]


def test_residual_agrees_with_naive_when_well_scaled():
    rng = random.Random(77)
    for _ in range(20):
        n = rng.randint(1, 3)
        a = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]
        b = [rng.uniform(-2, 2) for _ in range(n)]
        xs = [rng.uniform(-2, 2) for _ in range(n)]
        x = DyadicVector.from_floats(xs)
        naive = sum((sum(a[r][i] * xs[i] for i in range(n)) - b[r]) ** 2 for r in range(n))
        got = float(exact_residual_sq(LinearSystem(a=a, b=b), x))
        assert abs(got - naive) <= 1e-12 * max(1.0, abs(naive))


def test_residual_dimension_check():
    system = LinearSystem(a=[[1.0]], b=[1.0])
    with pytest.raises(Exception):
        exact_residual_sq(system, DyadicVector((1, 2), 0))


def test_eigen_diagonal():
    basis = symmetric_eigen(np.diag([5.0, 2.0]))
    assert tuple(basis.values) == (5.0, 2.0)
    assert np.array_equal(basis.vectors, np.eye(2))


def test_eigen_textbook_2x2():
    basis = symmetric_eigen(np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(basis.values, [3.0, 1.0], rtol=0, atol=1e-12)
    r = 1.0 / math.sqrt(2.0)
    assert np.allclose(np.abs(basis.vectors), [[r, r], [r, r]], atol=1e-12)
    s = np.array([[2.0, 1.0], [1.0, 2.0]])
    for j in range(2):
        assert np.max(np.abs(s @ basis.vectors[:, j] - basis.values[j] * basis.vectors[:, j])) <= 1e-10


def test_eigen_normal_matrix_of_irrational_system():
    system, _ = irrational_system()
    g = system.a.T @ system.a
    g = (g + g.T) / 2.0
    basis = symmetric_eigen(g)
    # independent route: characteristic polynomial of the 2x2
    tr = g[0, 0] + g[1, 1]
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    disc = math.sqrt(tr * tr - 4.0 * det)
    lam = ((tr + disc) / 2.0, (tr - disc) / 2.0)
    assert abs(basis.values[0] - lam[0]) <= 1e-9 * lam[0]
    assert abs(basis.values[1] - lam[1]) <= 1e-9 * lam[0]
    assert 12.2 < basis.values[0] < 12.4
    assert 4.6 < basis.values[1] < 4.8


@pytest.mark.parametrize(
    "a",
    [
        [[1e154, 1e154], [1e154, 0.0]],  # fsum overflows on 1e308 + 1e308
        [[1e200, 1e200], [1e200, -1e200]],  # fsum meets inf - inf
        [[1e200]],  # the product itself overflows
        [[1e-170, 0.0], [0.0, 2e-170]],  # every product underflows to 0.0
        [[1.0, 0.0], [1.0, 1e-170]],  # one nonzero column's only square underflows
    ],
    ids=["fsum-overflow", "inf-minus-inf", "product-overflow", "underflow", "column-underflow"],
)
def test_gram_past_float_range_is_too_large(a):
    with pytest.raises(TooLarge, match="float range"):
        LinearSystem(a=a, b=[1.0] * len(a)).gram


def test_eigen_huge_entries_scale_exactly():
    # entries of 2^600 would overflow a sum of squares; a power-of-two
    # scale must scale the values exactly and leave the vectors alone
    s = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.25], [0.5, 0.25, 2.0]])
    cases = [(s, 600)]
    # LAPACK rescales an out-of-range matrix by factors that are not
    # powers of two, so these catch an eigh called without the prescale
    for seed in range(50):
        rng = random.Random(seed)
        n = rng.randint(2, 6)
        m = np.array([[rng.uniform(-5, 5) for _ in range(n)] for _ in range(n)])
        cases += [(m + m.T, k) for k in (600, -600, 300)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for mat, k in cases:
            small = symmetric_eigen(mat)
            scaled = symmetric_eigen(mat * 2.0**k)
            assert np.array_equal(scaled.values, small.values * 2.0**k)
            assert np.array_equal(scaled.vectors, small.vectors)


def test_eigen_rejects_asymmetric():
    with pytest.raises(ValueError, match="not symmetric"):
        symmetric_eigen(np.array([[0.0, 1.0], [2.0, 0.0]]))
    with pytest.raises(DimensionMismatch, match="square"):
        symmetric_eigen(np.ones((2, 3)))


@settings(max_examples=40)
@given(st.integers(min_value=0, max_value=10**9), st.integers(min_value=1, max_value=5))
def test_eigen_reconstruction_random(seed, n):
    rng = random.Random(seed)
    m = np.array([[rng.uniform(-5, 5) for _ in range(n)] for _ in range(n)])
    s = m + m.T
    basis = symmetric_eigen(s)
    v = basis.vectors
    assert np.max(np.abs(v.T @ v - np.eye(n))) <= 1e-10
    scale = max(1.0, float(np.max(np.abs(s))))
    assert np.max(np.abs(v @ np.diag(basis.values) @ v.T - s)) <= 1e-9 * scale
    assert all(basis.values[i] >= basis.values[i + 1] for i in range(n - 1))


def test_condition_identity():
    assert condition_number(LinearSystem(a=np.eye(3), b=np.zeros(3))) == 1.0


def test_condition_irrational_2x2():
    system, _ = irrational_system()
    got = condition_number(system)
    g = system.a.T @ system.a
    tr = g[0, 0] + g[1, 1]
    det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
    disc = math.sqrt(tr * tr - 4.0 * det)
    expect = math.sqrt((tr + disc) / (tr - disc))
    assert abs(got - expect) <= 1e-9 * expect
    assert 1.6 < got < 1.63


def test_condition_rotated_diagonal():
    for theta in (10.0, 30.0, 44.0, 71.5):
        system, _ = build_illcond(theta)
        got = condition_number(system)
        assert abs(got - 129.44) <= 0.01 * 129.44


def test_condition_singular():
    with pytest.raises(SingularMatrix):
        condition_number(LinearSystem(a=[[1.0, 1.0], [1.0, 1.0]], b=[0.0, 0.0]))


def test_condition_near_float_range():
    # lmax = 2^1022 here, so lmax n^2 would overflow: the singularity test
    # scales lmax by n^2 2.5e-16 as one factor
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        system = LinearSystem(a=[[2.0**510, 0.0], [0.0, 2.0**511]], b=[1.0, 1.0])
        assert condition_number(system) == 2.0
        # well conditioned, so its windows, not singularity, stop a refine
        with pytest.raises(TooLarge, match="window"):
            refine(system, RefinementConfig())
        with pytest.raises(SingularMatrix):
            condition_number(LinearSystem(a=[[2.0**510] * 2] * 2, b=[1.0, 1.0]))


def test_solve_then_residual_well_conditioned():
    rng = random.Random(90125)
    checked = 0
    while checked < 100:
        n = rng.randint(1, 8)
        a = np.array([[rng.uniform(-1, 1) for _ in range(n)] for _ in range(n)]) + 2.0 * np.eye(n)
        try:
            if condition_number(LinearSystem(a=a, b=np.zeros(n))) > 100.0:
                continue
        except SingularMatrix:
            continue
        b = [rng.uniform(-4, 4) for _ in range(n)]
        system = LinearSystem(a=a, b=b)
        x = solve_direct(system)
        bound = 1e-10 * (float(np.linalg.norm(a)) * float(np.linalg.norm(x)) + float(np.linalg.norm(b)))
        res = math.sqrt(exact_residual_sq(system, DyadicVector.from_floats(tuple(x))))
        assert res <= bound
        checked += 1
