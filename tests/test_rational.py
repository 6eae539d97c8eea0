"""Parsing and printing the rational parts of exact amplitudes."""

from fractions import Fraction

import pytest

from luorbit.rational import as_fraction, fraction_str


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
