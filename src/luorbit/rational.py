"""Parsing and printing the rational parts of exact amplitudes.

Every operation this package performs on amplitudes — multiplying by i,
negating, swapping, adding, multiplying two amplitudes — keeps rational
real/imaginary parts rational.  That closure is what makes the
tolerance-free rank backend possible.  Exact states hold those parts as
Python ints over one common denominator (``states``); these helpers read
them in and write them out.
"""

from __future__ import annotations

from fractions import Fraction


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to a Fraction.

    Floats are rejected on purpose: silently converting binary floats to
    rationals would defeat the point of the exact backend.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


def fraction_str(f: Fraction) -> str:
    """Render a Fraction as 'p/q' (denominator always explicit)."""
    return f"{f.numerator}/{f.denominator}"
