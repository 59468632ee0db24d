"""Error-free transforms against exact Fraction arithmetic."""

import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from qrefine.precision import (
    DoubleDouble,
    dd_sum,
    dyadic_of_float,
    dyadic_sum,
    dyadic_to_float,
    float_parts,
    two_prod,
    two_sum,
)

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300)
# two_prod's error term must stay representable: keep |a*b| above 2^-969
_mag = st.floats(min_value=2.0**-450, max_value=2.0**450)
moderate = st.one_of(st.just(0.0), _mag, _mag.map(lambda v: -v))


def as_frac(dd: DoubleDouble) -> Fraction:
    return Fraction(dd.hi) + Fraction(dd.lo)


@given(finite, finite)
def test_two_sum_exact(a, b):
    s, e = two_sum(a, b)
    assert s == a + b
    assert Fraction(s) + Fraction(e) == Fraction(a) + Fraction(b)


@given(moderate, moderate)
def test_two_prod_exact(a, b):
    p, e = two_prod(a, b)
    assert p == a * b
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(b)


def test_two_prod_recovers_sub_ulp_product():
    a = 1.0 + 2.0**-52
    p, e = two_prod(a, a)
    assert Fraction(p) + Fraction(e) == Fraction(a) * Fraction(a)
    assert e != 0.0  # the square needs 105 bits, so the tail is real


def test_dd_sum_cancellation():
    dd = dd_sum([1.0, 2.0**-60, -1.0])
    assert as_frac(dd) == Fraction(2) ** -60


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12), max_size=30))
def test_dd_sum_near_exact(values):
    dd = dd_sum(values)
    true = sum((Fraction(v) for v in values), Fraction(0))
    scale = max([Fraction(1)] + [abs(Fraction(v)) for v in values])
    assert abs(as_frac(dd) - true) <= Fraction(2) ** -90 * scale


def test_double_double_sub_and_order():
    a = DoubleDouble(1.0, 2.0**-60)
    b = DoubleDouble(1.0, 0.0)
    assert as_frac(dd_sum([a.hi, a.lo, -b.hi, -b.lo])) == Fraction(2) ** -60
    assert b.less_than(a)
    assert not a.less_than(b)
    assert DoubleDouble(1.0, -(2.0**-60)).less_than(b)
    assert as_frac(-a) == -as_frac(a)


@given(finite)
def test_dyadic_of_float_exact(x):
    m, e = dyadic_of_float(x)
    assert Fraction(m) * Fraction(2) ** e == Fraction(x)


def test_dyadic_of_float_rejects_nonfinite():
    import pytest

    with pytest.raises(ValueError):
        dyadic_of_float(math.inf)


@given(st.integers(min_value=-(2**120), max_value=2**120), st.integers(min_value=-1100, max_value=200))
def test_dyadic_to_float_correctly_rounded(m, e):
    value = Fraction(m) * Fraction(2) ** e
    try:
        expect = float(value)  # Fraction.__float__ rounds correctly
    except OverflowError:
        return
    if not math.isfinite(expect):
        return
    assert dyadic_to_float(m, e) == expect


@given(st.lists(st.tuples(st.integers(min_value=-(2**70), max_value=2**70),
                          st.integers(min_value=-90, max_value=90)), max_size=12))
def test_dyadic_sum_exact(terms):
    m, e = dyadic_sum(terms)
    true = sum((Fraction(tm) * Fraction(2) ** te for tm, te in terms), Fraction(0))
    assert Fraction(m) * Fraction(2) ** e == true


@given(st.integers(min_value=-(2**140), max_value=2**140), st.integers(min_value=-180, max_value=40))
def test_float_parts_reconstruct(m, e):
    parts = float_parts(m, e)
    true = Fraction(m) * Fraction(2) ** e
    assert sum((Fraction(p) for p in parts), Fraction(0)) == true
    assert parts[0] == dyadic_to_float(m, e)
    # 140-bit mantissas need at most ceil(140/52)+1 pieces
    assert len(parts) <= 4


def test_float_parts_zero():
    assert float_parts(0, 5) == [0.0]
