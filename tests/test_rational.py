"""Gaussian-rational scalar arithmetic."""

from fractions import Fraction

import pytest

from luorbit.rational import RC_ONE, RC_ZERO, RationalComplex, as_fraction, fraction_str


def test_as_fraction_parses_strings_and_ints():
    assert as_fraction("3/4") == Fraction(3, 4)
    assert as_fraction("-2") == Fraction(-2)
    assert as_fraction(5) == Fraction(5)
    assert as_fraction(Fraction(1, 3)) == Fraction(1, 3)


def test_as_fraction_rejects_floats():
    # floats are deliberately rejected: silently converting 0.1 would smuggle
    # binary rounding error into the exact backend
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_fraction_str_always_writes_denominator():
    assert fraction_str(Fraction(1, 2)) == "1/2"
    assert fraction_str(Fraction(-3)) == "-3/1"
    assert fraction_str(Fraction(0)) == "0/1"


def test_arithmetic_matches_complex():
    a = RationalComplex(Fraction(1, 2), Fraction(-3, 4))
    b = RationalComplex(Fraction(2, 3), Fraction(1, 5))
    for got, want in [
        (a + b, a.to_complex() + b.to_complex()),
        (a - b, a.to_complex() - b.to_complex()),
        (a * b, a.to_complex() * b.to_complex()),
        (a / b, a.to_complex() / b.to_complex()),
        (-a, -a.to_complex()),
        (a.conjugate(), a.to_complex().conjugate()),
    ]:
        assert abs(got.to_complex() - want) < 1e-15


def test_division_is_exact():
    a = RationalComplex(1, 1)
    b = RationalComplex(Fraction(1, 3), Fraction(-2, 7))
    assert (a / b) * b == a


def test_abs2():
    a = RationalComplex(Fraction(3, 5), Fraction(4, 5))
    assert a.abs2() == Fraction(1)
    assert RC_ZERO.abs2() == 0
    assert RC_ONE.abs2() == 1


def test_from_value_forms():
    assert RationalComplex.from_value("1/2") == RationalComplex(Fraction(1, 2), 0)
    assert RationalComplex.from_value(3) == RationalComplex(3, 0)
    assert RationalComplex.from_value(("1/2", "-1/3")) == RationalComplex(
        Fraction(1, 2), Fraction(-1, 3)
    )
    a = RationalComplex(Fraction(2), Fraction(5))
    assert RationalComplex.from_value(a) is a


def test_zero_flag():
    assert RC_ZERO.is_zero
    assert not RationalComplex(0, Fraction(1, 9)).is_zero
