from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffordspec.errors import KindMismatchError
from cliffordspec.matrices import max_abs, to_float
from cliffordspec.scalars import GaussianRational, as_gaussian


def test_arithmetic_is_exact():
    a = GaussianRational(Fraction(1, 3), Fraction(1, 7))
    b = GaussianRational(Fraction(2, 5), Fraction(-3, 11))
    s = a + b
    assert s.re == Fraction(1, 3) + Fraction(2, 5)
    assert s.im == Fraction(1, 7) - Fraction(3, 11)
    p = a * b
    assert p.re == Fraction(1, 3) * Fraction(2, 5) - Fraction(1, 7) * Fraction(-3, 11)
    q = a / b
    assert q * b == a


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(1) / GaussianRational(0)


def test_parse_fraction_strings():
    v = GaussianRational.parse("3/4", "-1/2")
    assert v.re == Fraction(3, 4) and v.im == Fraction(-1, 2)


def test_conjugate_and_power():
    i = GaussianRational(0, 1)
    assert i.conjugate() == GaussianRational(0, -1)
    assert i**2 == GaussianRational(-1)
    assert i**0 == GaussianRational(1)
    assert (GaussianRational(Fraction(1, 2)) ** 3).re == Fraction(1, 8)


def test_float_mixing_is_an_error():
    with pytest.raises(KindMismatchError):
        GaussianRational(1) + 0.5
    with pytest.raises(KindMismatchError):
        GaussianRational(1) * 1.5j
    with pytest.raises(KindMismatchError):
        as_gaussian(0.3)


def test_int_and_fraction_promote():
    v = GaussianRational(Fraction(1, 2)) + 1
    assert v.re == Fraction(3, 2)
    v = Fraction(1, 4) * GaussianRational(0, 2)
    assert v.im == Fraction(1, 2)


def _former_to_float(m):
    """The former exact -> complex128 conversion: one to_complex per entry."""
    return np.array([e.to_complex() for e in m.reshape(-1)], dtype=complex).reshape(m.shape)


_PART = st.fractions(-(10**6), 10**6, max_denominator=10**9)


@settings(max_examples=60)
@given(st.lists(st.tuples(_PART, _PART), min_size=1, max_size=12))
def test_complex_abs_and_to_float_match_to_complex(parts):
    xs = [GaussianRational(re, im) for re, im in parts]
    for x in xs:
        want = x.to_complex()
        assert np.complex128(complex(x)).tobytes() == np.complex128(want).tobytes()
        assert abs(x).hex() == abs(want).hex()
    m = np.array(xs, dtype=object).reshape(len(xs), 1)
    assert to_float(m).tobytes() == _former_to_float(m).tobytes()
    assert max_abs(m) == max(abs(e.to_complex()) for e in xs)
