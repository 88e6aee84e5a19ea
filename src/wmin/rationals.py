"""Exact scalars: rationals, Gaussian rationals, and small helpers.

Everything downstream works over Fraction; this module adds the bits the
stdlib is missing: exact square roots, p/q parsing that rejects floats, and
a tiny Gaussian-rational field for the purely imaginary deformation
parameters of the boson lab.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

Q = Fraction

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(s: str) -> Fraction:
    """Parse 'p' or 'p/q' exactly; floats and decimals are rejected."""
    s = s.strip()
    if not _RAT_RE.match(s):
        raise ValueError(f"not an exact rational: {s!r} (use p or p/q)")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """Exact square root of x, or None when x is not a rational square."""
    if x < 0:
        return None
    if x == 0:
        return Fraction(0)
    n, d = x.numerator, x.denominator
    rn, rd = math.isqrt(n), math.isqrt(d)
    if rn * rn == n and rd * rd == d:
        return Fraction(rn, rd)
    return None


Scalar = Union[int, Fraction, "GaussianRational"]


@dataclass(frozen=True)
class GaussianRational:
    """Element re + im*sqrt(-1) of Q(i); exact field arithmetic."""

    re: Fraction
    im: Fraction = Fraction(0)

    @staticmethod
    def of(x: Scalar) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(Fraction(x))

    @staticmethod
    def imag(im: Union[int, Fraction]) -> "GaussianRational":
        return GaussianRational(Fraction(0), Fraction(im))

    def __add__(self, other: Scalar) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: Scalar) -> "GaussianRational":
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other: Scalar) -> "GaussianRational":
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other: Scalar) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "GaussianRational":
        o = GaussianRational.of(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return self * GaussianRational(o.re / n, -o.im / n)

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_imaginary(self) -> bool:
        return self.re == 0

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = GaussianRational(Fraction(other))
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def __repr__(self) -> str:
        if self.im == 0:
            return format_rational(self.re)
        if self.re == 0:
            return f"{format_rational(self.im)}*i"
        return f"({format_rational(self.re)}+{format_rational(self.im)}*i)"


def solve_quadratic_rational(a: Fraction, b: Fraction, c: Fraction):
    """Rational roots of a*x^2+b*x+c = 0 (a != 0), or None if irrational."""
    disc = b * b - 4 * a * c
    r = rational_sqrt(disc)
    if r is None:
        return None
    return ((-b + r) / (2 * a), (-b - r) / (2 * a))
