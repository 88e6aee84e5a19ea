from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wmin.rationals import (GaussianRational as GR, format_rational,
                            parse_rational, rational_sqrt,
                            solve_quadratic_rational)

def _conj(z):
    return GR(z.re, -z.im)


def _is_real(z):
    return z.im == 0


rationals = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4)


@given(rationals)
def test_parse_format_round_trip(x):
    assert parse_rational(format_rational(x)) == x


@pytest.mark.parametrize("bad", ["1.5", "1e3", "", "3/", "/4", "0x10", "nan", "1/0"])
def test_parse_rejects_non_rationals(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_rational_sqrt():
    assert rational_sqrt(Q(9, 4)) == Q(3, 2)
    assert rational_sqrt(Q(0)) == 0
    assert rational_sqrt(Q(2)) is None
    assert rational_sqrt(Q(-1)) is None


@given(rationals, rationals, rationals, rationals)
@settings(max_examples=50)
def test_gaussian_field_ops(a, b, c, d):
    z = GR(a, b)
    w = GR(c, d)
    assert (z + w) - w == z
    assert z * w == w * z
    assert _conj(z * w) == _conj(z) * _conj(w)
    if not w.is_zero():
        assert (z / w) * w == z


def test_quadratic_solver():
    assert solve_quadratic_rational(Q(1), Q(-3), Q(2)) == (Q(2), Q(1))
    assert solve_quadratic_rational(Q(1), Q(0), Q(-2)) is None


def test_gaussian_predicates():
    assert _is_real(GR(Q(2))) and not GR(Q(2)).is_imaginary()
    assert GR.imag(Q(3, 7)).is_imaginary() and not _is_real(GR.imag(Q(3, 7)))
    assert _is_real(GR(Q(0))) and GR(Q(0)).is_imaginary()


parts = st.one_of(st.just(Q(0)), rationals)  # a zero part half the time


@given(parts, parts, parts, parts)
@settings(max_examples=80)
def test_gaussian_arithmetic_is_the_componentwise_formula(a, b, c, d):
    """Results are built without converting their parts again, and a part
    that is zero on both sides is not computed: the parts still equal the
    field formulas, are `Fraction`s, and compare with ints and `Fraction`s
    by value (im = 0 required)."""
    z, w = GR(a, b), GR(c, d)
    want = {"+": (a + c, b + d), "-": (a - c, b - d), "*": (a * c - b * d, a * d + b * c),
            "neg": (-a, -b)}
    got = {"+": z + w, "-": z - w, "*": z * w, "neg": -z}
    for op, x in got.items():
        assert (x.re, x.im) == want[op], op
        assert type(x.re) is Q and type(x.im) is Q, op
    for x in (c, 2, -3):  # a real operand of either side
        assert z * x == x * z == GR(a * x, b * x)
        assert z + x == x + z == GR(a + x, b)
        assert x - z == GR(x - a, -b)
    assert (z == a) is (b == 0) and (z != a) is (b != 0)
    assert (z == w) is (a == c and b == d)
    assert GR(a, b) == z and hash(GR(a, b)) == hash(z)


small = st.one_of(st.integers(min_value=-5, max_value=5),
                  st.fractions(min_value=-5, max_value=5, max_denominator=6))
scalars = st.one_of(small, st.builds(GR, small, st.one_of(st.just(0), small)))


@given(scalars, scalars)
@example(GR(2), 2)
@example(GR(Q(1, 2)), Q(1, 2))
@example(GR(2, 1), 2)
@settings(max_examples=200)
def test_gaussian_hash_agrees_with_eq_against_ints_and_fractions(x, y):
    """x == y implies hash(x) == hash(y) across ints, `Fraction`s and
    `GaussianRational`s (a real one hashes as its real part), so a set or
    dict key holds a value once whichever of the three types it arrives as."""
    if x == y:
        assert hash(x) == hash(y)
        assert len({x, y}) == 1 and {x: 1}.get(y) == 1
    for z in (x, y):
        if isinstance(z, GR) and not z.im:
            assert z == z.re and hash(z) == hash(z.re)
