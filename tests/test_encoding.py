"""Window layout, exact decode, canonical bits, grid enumeration, and exact
dyadic scalars against exact Fraction arithmetic."""

import math
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import canonical_bits, decode, dyadic_fractions, enumerate_grid, qubit_index
from qrefine import (
    DimensionMismatch,
    DyadicVector,
    IndexOutOfRange,
    TooLarge,
)
from qrefine.encoding import (
    EncodingSpec,
    decode_increments,
    dyadic_of_float,
    dyadic_to_float,
)


def test_qubit_index_examples():
    k1 = EncodingSpec(n_vars=2, l_lo=0, l_hi=0)
    assert qubit_index(k1, 0, "plus", 0) == 0
    assert qubit_index(k1, 0, "minus", 0) == 1
    k3 = EncodingSpec(n_vars=2, l_lo=0, l_hi=2)
    assert qubit_index(k3, 1, "minus", 2) == 1 * 6 + 3 + 2


def test_qubit_index_bijective():
    spec = EncodingSpec(n_vars=3, l_lo=-2, l_hi=0)
    seen = {
        qubit_index(spec, var, sign, bit)
        for var in range(3)
        for sign in ("plus", "minus")
        for bit in range(3)
    }
    assert seen == set(range(spec.total_qubits))
    # the package's decoder reads the same layout
    for var in range(3):
        for sign, s in (("plus", 1), ("minus", -1)):
            for bit in range(3):
                bits = [0] * spec.total_qubits
                bits[qubit_index(spec, var, sign, bit)] = 1
                want = tuple(s << bit if i == var else 0 for i in range(3))
                assert decode_increments(tuple(bits), spec) == want


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_qubits_table_matches_documented_layout(n, k):
    spec = EncodingSpec(n_vars=n, l_lo=-k, l_hi=-1)
    assert len(spec.qubits) == spec.total_qubits
    expect = {
        qubit_index(spec, var, sign, bit): (var, s, bit)
        for var in range(n)
        for sign, s in (("plus", 1), ("minus", -1))
        for bit in range(k)
    }
    assert spec.qubits == tuple(expect[u] for u in range(spec.total_qubits))


def test_qubit_index_errors():
    spec = EncodingSpec(n_vars=1, l_lo=0, l_hi=0)
    with pytest.raises(IndexOutOfRange):
        qubit_index(spec, 1, "plus", 0)
    with pytest.raises(IndexOutOfRange):
        qubit_index(spec, 0, "plus", 1)
    with pytest.raises(IndexOutOfRange):
        qubit_index(spec, 0, "up", 0)


def test_spec_validation():
    with pytest.raises(IndexOutOfRange):
        EncodingSpec(n_vars=0, l_lo=0, l_hi=0)
    with pytest.raises(IndexOutOfRange):
        EncodingSpec(n_vars=1, l_lo=1, l_hi=0)
    assert EncodingSpec(n_vars=2, l_lo=-3, l_hi=-1).total_qubits == 12


def test_decode_examples():
    single = EncodingSpec(n_vars=1, l_lo=3, l_hi=3)
    got = decode((1, 0), single, DyadicVector.zero(1))
    assert dyadic_fractions(got) == [Fraction(8)]

    wide = EncodingSpec(n_vars=1, l_lo=0, l_hi=2)
    got = decode((1, 0, 1, 0, 1, 0), wide, DyadicVector.zero(1))
    assert dyadic_fractions(got) == [Fraction(5 - 2)]

    assert decode_increments((1, 0, 1, 0, 1, 0), wide) == (3,)


def test_decode_all_zero_is_center():
    spec = EncodingSpec(n_vars=2, l_lo=-4, l_hi=-2)
    center = DyadicVector((13, -7), -5)
    assert decode((0,) * spec.total_qubits, spec, center) == center


def test_decode_redundant_pair():
    spec = EncodingSpec(n_vars=1, l_lo=0, l_hi=0)
    center = DyadicVector((3,), 0)
    assert decode((0, 0), spec, center) == decode((1, 1), spec, center)


def test_decode_length_check():
    spec = EncodingSpec(n_vars=1, l_lo=0, l_hi=0)
    with pytest.raises(DimensionMismatch):
        decode((0,), spec, DyadicVector.zero(1))
    with pytest.raises(DimensionMismatch):
        decode((0, 0), spec, DyadicVector.zero(2))


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=3),
       st.integers(min_value=-8, max_value=8), st.data())
def test_negation_symmetry(n, k, l, data):
    spec = EncodingSpec(n_vars=n, l_lo=l, l_hi=l + k - 1)
    bits = data.draw(st.tuples(*([st.integers(0, 1)] * spec.total_qubits)))
    swapped = []
    for i in range(n):
        base = i * 2 * k
        swapped.extend(bits[base + k : base + 2 * k])
        swapped.extend(bits[base : base + k])
    plain = decode_increments(bits, spec)
    assert decode_increments(tuple(swapped), spec) == tuple(-d for d in plain)


def test_increment_accumulation_exact():
    # 10^4 random window moves tracked exactly vs a Fraction oracle
    rng = random.Random(314159)
    vec = DyadicVector.zero(3)
    true = [Fraction(0)] * 3
    for _ in range(10**4):
        scale = rng.randint(-40, 20)
        incs = [rng.randint(-7, 7) for _ in range(3)]
        vec = vec.add_increments(incs, scale)
        for i in range(3):
            true[i] += Fraction(incs[i]) * Fraction(2) ** scale
    assert dyadic_fractions(vec) == true
    # one final float conversion is the correctly rounded true value
    assert vec.to_floats() == tuple(float(t) for t in true)


def test_canonical_bits_examples():
    spec = EncodingSpec(n_vars=2, l_lo=0, l_hi=2)
    bits = canonical_bits((3, -2), spec)
    assert bits == (1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0)
    assert decode_increments(bits, spec) == (3, -2)


def test_canonical_bits_no_double_ones():
    spec = EncodingSpec(n_vars=1, l_lo=-1, l_hi=1)
    k = spec.bits_per_sign
    for d in range(-7, 8):
        bits = canonical_bits((d,), spec)
        for t in range(k):
            assert not (bits[t] and bits[k + t])


def test_canonical_bits_capacity():
    spec = EncodingSpec(n_vars=1, l_lo=0, l_hi=2)
    with pytest.raises(IndexOutOfRange):
        canonical_bits((8,), spec)
    with pytest.raises(DimensionMismatch):
        canonical_bits((1, 1), spec)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=1, max_value=4), st.data())
def test_canonical_roundtrip(n, k, data):
    spec = EncodingSpec(n_vars=n, l_lo=0, l_hi=k - 1)
    cap = (1 << k) - 1
    incs = data.draw(st.tuples(*([st.integers(-cap, cap)] * n)))
    assert decode_increments(canonical_bits(incs, spec), spec) == incs


def test_enumerate_grid_k1():
    spec = EncodingSpec(n_vars=1, l_lo=0, l_hi=0)
    pts = sorted(dyadic_fractions(p)[0] for p in enumerate_grid(spec, DyadicVector.zero(1)))
    assert pts == [Fraction(-1), Fraction(0), Fraction(1)]


def test_enumerate_grid_2d_count():
    spec = EncodingSpec(n_vars=2, l_lo=-3, l_hi=-3)
    pts = list(enumerate_grid(spec, DyadicVector((1, 1), -1)))
    assert len(pts) == 9
    assert len(set(pts)) == 9


def test_enumerate_grid_k2():
    spec = EncodingSpec(n_vars=1, l_lo=0, l_hi=1)
    pts = sorted(dyadic_fractions(p)[0] for p in enumerate_grid(spec, DyadicVector.zero(1)))
    assert pts == [Fraction(v) for v in range(-3, 4)]


def test_enumerate_grid_too_large():
    spec = EncodingSpec(n_vars=8, l_lo=0, l_hi=2)
    with pytest.raises(TooLarge):
        list(enumerate_grid(spec, DyadicVector.zero(8)))


def test_dyadic_normalization_and_equality():
    assert DyadicVector((2,), -1) == DyadicVector((1,), 0)
    assert hash(DyadicVector((4, 2), -2)) == hash(DyadicVector((2, 1), -1))
    assert DyadicVector((0, 0), -9) == DyadicVector.zero(2)


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=6))
@example([5e-324, -5e-324, sys.float_info.max, -sys.float_info.max, sys.float_info.min, -0.0])
def test_dyadic_from_floats_roundtrip(values):
    # any finite floats, subnormals and +-max included, exactly
    got = DyadicVector.from_floats(values)
    assert dyadic_fractions(got) == [Fraction(v) for v in values]
    assert got.to_floats() == tuple(values)
    vec = DyadicVector.from_floats((0.5, -0.25, 3.0))
    assert dyadic_fractions(vec) == [Fraction(1, 2), Fraction(-1, 4), Fraction(3)]
    assert vec.to_floats() == (0.5, -0.25, 3.0)
    two = Fraction(2)
    for pairs in ([], [(0, 5), (0, -7)], [(-3, 0), (5, -2), (-1, 4)], [(6, -1), (-2**70, 9), (1, -80)]):
        got = DyadicVector.from_pairs(pairs)
        assert dyadic_fractions(got) == [m * two**e for m, e in pairs]
    assert DyadicVector.from_pairs([]) == DyadicVector((), 0)


def test_decimal_strings_exact():
    vec = DyadicVector((1, -5, 4), -2)
    strings = vec.to_decimal_strings()
    assert strings == ("0.25", "-1.25", "1")
    assert [Fraction(s) for s in strings] == list(dyadic_fractions(vec))


@given(st.lists(st.integers(min_value=-(2**64), max_value=2**64), min_size=1, max_size=4),
       st.integers(min_value=-1100, max_value=50))
def test_decimal_strings_roundtrip(mants, e):
    # exponents past 256 distinct ones cycle the bounded cache of powers of five
    vec = DyadicVector(tuple(mants), e)
    assert [Fraction(s) for s in vec.to_decimal_strings()] == list(dyadic_fractions(vec))


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

