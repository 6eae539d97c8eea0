"""Exact complex scalars with rational real and imaginary parts.

Every operation this package performs on amplitudes — multiplying by i,
negating, swapping, adding, multiplying two amplitudes — keeps rational
real/imaginary parts rational.  That closure is what makes the
tolerance-free rank backend possible.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True)
class RationalComplex:
    """A complex number whose real and imaginary parts are Fractions."""

    re: Fraction
    im: Fraction

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", as_fraction(re))
        object.__setattr__(self, "im", as_fraction(im))

    @classmethod
    def from_value(cls, value) -> "RationalComplex":
        """Build from a RationalComplex, int, Fraction, 'p/q' string, or (re, im) pair."""
        if isinstance(value, RationalComplex):
            return value
        if isinstance(value, (int, Fraction, str)):
            return cls(as_fraction(value))
        if isinstance(value, (tuple, list)) and len(value) == 2:
            return cls(as_fraction(value[0]), as_fraction(value[1]))
        raise TypeError(f"cannot interpret {value!r} as an exact complex amplitude")

    def __add__(self, other: "RationalComplex") -> "RationalComplex":
        return RationalComplex(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "RationalComplex") -> "RationalComplex":
        return RationalComplex(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "RationalComplex":
        return RationalComplex(-self.re, -self.im)

    def __mul__(self, other):
        if isinstance(other, RationalComplex):
            return RationalComplex(
                self.re * other.re - self.im * other.im,
                self.re * other.im + self.im * other.re,
            )
        if isinstance(other, (int, Fraction)):
            return RationalComplex(self.re * other, self.im * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return RationalComplex(self.re / other, self.im / other)
        if isinstance(other, RationalComplex):
            d = other.abs2()
            if d == 0:
                raise ZeroDivisionError("division by exact complex zero")
            return RationalComplex(
                (self.re * other.re + self.im * other.im) / d,
                (self.im * other.re - self.re * other.im) / d,
            )
        return NotImplemented

    def conjugate(self) -> "RationalComplex":
        return RationalComplex(self.re, -self.im)

    def abs2(self) -> Fraction:
        """Squared modulus, itself a Fraction."""
        return self.re * self.re + self.im * self.im

    @property
    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def to_complex(self) -> complex:
        return complex(float(self.re), float(self.im))

    __complex__ = to_complex

    def __repr__(self) -> str:
        return f"({self.re}{'+' if self.im >= 0 else ''}{self.im}i)"


RC_ZERO = RationalComplex(0, 0)
RC_ONE = RationalComplex(1, 0)


def fraction_str(f: Fraction) -> str:
    """Render a Fraction as 'p/q' (denominator always explicit)."""
    return f"{f.numerator}/{f.denominator}"
