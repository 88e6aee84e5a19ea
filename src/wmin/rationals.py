"""Exact scalars: rationals, Gaussian rationals, and small helpers.

Everything downstream works over Fraction; this module adds the bits the
stdlib is missing: exact square roots, p/q parsing and an input coercion
that both reject floats, a tiny Gaussian-rational field for the purely
imaginary deformation parameters of the boson lab, and the value
semantics the package's record classes share (`_Record`, `_Frozen`).
"""
from __future__ import annotations

import math
import re
from fractions import Fraction
from operator import attrgetter
from typing import Optional, Union

from .errors import InexactScalar

Q = Fraction
_set = object.__setattr__
_new = object.__new__

_RAT_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


def parse_rational(s: str) -> Fraction:
    """Parse 'p' or 'p/q' exactly; anything else ('', '1/0', '0x10', '0.5')
    raises a bare `ValueError`, not a `WminError`: the CLI's exit code 2."""
    s = s.strip()
    if not _RAT_RE.match(s):
        raise ValueError(f"not an exact rational: {s!r} (use p or p/q)")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {s!r}") from None


def as_rational(x) -> Fraction:
    """x as a `Fraction`, for an int or a `Fraction`: the one coercion of the
    rationals a caller passes in.  Anything else raises `InexactScalar`: a
    float converts exactly, but to its binary value, so -2.9999999999999996
    would be answered at -6755399441055743/2251799813685248, not at -3."""
    if x.__class__ is Fraction:
        return x
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    raise InexactScalar(f"not an exact rational: {x!r} (use an int or a Fraction)")


def format_rational(x: Fraction) -> str:
    x = as_rational(x)
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


class _Record:
    """Field-wise value semantics for the package's record classes, written
    out instead of generated by `dataclasses`, whose class decorator costs
    about a millisecond per class at import.  Instances of one class with
    equal `_fields` compare equal, and never equal another type (a bare
    tuple included); the repr is Name(field=value, ...), as a dataclass
    prints it.  A `_Record` is mutable and so unhashable; `_Frozen` hashes
    and refuses assignment.  Each subclass names at least two `_fields`,
    and `_values(x)` reads them as a tuple (an `attrgetter`, which binds no
    instance, so it is called as `self._values(self)`)."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls, **kw):
        super().__init_subclass__(**kw)
        if "_fields" in vars(cls):  # not `_Frozen`, which names none
            cls._values = attrgetter(*cls._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"


class _Frozen(_Record):
    """A `_Record` that hashes by its fields and, as a frozen dataclass,
    raises AttributeError on assignment; `__init__` sets the fields through
    `object.__setattr__`, and copies and pickles are rebuilt through it."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values(self)


Scalar = Union[int, Fraction, "GaussianRational"]
_ZERO = Fraction(0)


class GaussianRational(_Frozen):
    """Element re + im*sqrt(-1) of Q(i); exact field arithmetic.  A number:
    it compares and hashes by value, equals an int or `Fraction` with
    im = 0, and neither iterates nor orders like a tuple.  The constructor
    coerces its inputs (`as_rational`); results of the arithmetic are built
    from parts that are `Fraction`s already (`_gr`), and a part that is
    zero on both sides costs no `Fraction` operation."""

    __slots__ = _fields = ("re", "im")

    def __init__(self, re: Union[int, Fraction], im: Union[int, Fraction] = _ZERO):
        _set(self, "re", as_rational(re))
        _set(self, "im", as_rational(im))

    @staticmethod
    def of(x: Scalar) -> "GaussianRational":
        if isinstance(x, GaussianRational):
            return x
        return GaussianRational(x)

    @staticmethod
    def imag(im: Union[int, Fraction]) -> "GaussianRational":
        return GaussianRational(_ZERO, im)

    def __add__(self, other: Scalar) -> "GaussianRational":
        o = GaussianRational.of(other)
        return _gr(self.re + o.re, self.im + o.im if self.im or o.im else _ZERO)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return _gr(-self.re, -self.im if self.im else _ZERO)

    def __sub__(self, other: Scalar) -> "GaussianRational":
        return self + (-GaussianRational.of(other))

    def __rsub__(self, other: Scalar) -> "GaussianRational":
        return GaussianRational.of(other) + (-self)

    def __mul__(self, other: Scalar) -> "GaussianRational":
        o = GaussianRational.of(other)
        a, b, c, d = self.re, self.im, o.re, o.im
        if not (b or d):  # two reals: one product
            return _gr(a * c, _ZERO)
        return _gr(a * c - b * d, a * d + b * c)

    __rmul__ = __mul__

    def __truediv__(self, other: Scalar) -> "GaussianRational":
        o = GaussianRational.of(other)
        n = o.re * o.re + o.im * o.im
        if n == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return self * _gr(o.re / n, -o.im / n)

    def is_zero(self) -> bool:
        return not (self.re or self.im)

    def is_imaginary(self) -> bool:
        return not self.re

    def __bool__(self) -> bool:
        return bool(self.re or self.im)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return not self.im and self.re == other
        return NotImplemented

    def __hash__(self) -> int:
        # a real value equals its `Fraction`, so it hashes as one
        return hash((self.re, self.im)) if self.im else hash(self.re)

    def __repr__(self) -> str:
        if self.im == 0:
            return format_rational(self.re)
        if self.re == 0:
            return f"{format_rational(self.im)}*i"
        return f"({format_rational(self.re)}+{format_rational(self.im)}*i)"


def _gr(re: Fraction, im: Fraction) -> GaussianRational:
    """A `GaussianRational` from two `Fraction`s, without coercing them."""
    z = _new(GaussianRational)
    _set(z, "re", re)
    _set(z, "im", im)
    return z


def solve_quadratic_rational(a: Fraction, b: Fraction, c: Fraction):
    """Rational roots of a*x^2+b*x+c = 0 (a != 0), or None if irrational."""
    disc = b * b - 4 * a * c
    r = rational_sqrt(disc)
    if r is None:
        return None
    return ((-b + r) / (2 * a), (-b - r) / (2 * a))
