"""Exact dyadic scalars against exact Fraction arithmetic."""

import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from qrefine.encoding import dyadic_of_float, dyadic_to_float

finite = st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=1e300)


@given(finite)
def test_dyadic_of_float_exact(x):
    m, e = dyadic_of_float(x)
    assert Fraction(m) * Fraction(2) ** e == Fraction(x)


def test_dyadic_of_float_rejects_nonfinite():
    import pytest

    with pytest.raises(ValueError):
        dyadic_of_float(math.inf)


@given(st.integers(min_value=-(2**120), max_value=2**120), st.integers(min_value=-1100, max_value=1000))
def test_dyadic_to_float_correctly_rounded(m, e):
    value = Fraction(m) * Fraction(2) ** e
    try:
        expect = float(value)  # Fraction.__float__ rounds correctly
    except OverflowError:
        expect = math.copysign(math.inf, m)  # round-to-nearest overflows to inf
    assert dyadic_to_float(m, e) == expect


def test_dyadic_to_float_mantissa_past_float_range():
    # the mantissa alone does not fit a float; the value may or may not
    assert dyadic_to_float(2**1100, 0) == math.inf
    assert dyadic_to_float(-(2**1100), -10) == -math.inf
    assert dyadic_to_float(3 * 2**1100, -1100) == 3.0

