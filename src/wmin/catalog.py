"""Root-system and form data for the Lie superalgebras carrying a minimal
parity-compatible grading.

Every family is realized in a fixed epsilon/delta coordinate basis; the
invariant form is a rational Gram matrix in that basis, stored as its
nonzero entries and normalized so the highest root theta has square norm 2.
All further data (simple roots of the centralizer g^nat, its highest roots
theta_i, the weights Delta' of the odd half-space, rho^nat, xi,
super-dimension, dual Coxeter numbers) is stored per family and
cross-validated by `validate`; its classification data is written only in
its branch of `lookup`.

Weights are plain tuples of Fraction wrapped in `Vec` for componentwise
arithmetic.  The scalars a request reads of a weight (its coroot pairings,
(xi|nu), the Casimir term, (nu + rho^nat|gamma)) are int dot products
against covectors the entry builds once (`CatalogEntry._scalars`), and
the level scalars evaluate the entry's constants (`CatalogEntry._levels`);
`form` stays the plain evaluation that `validate` reads.  Entries are
immutable, and their lazily built constants depend on the entry alone, so
concurrent reads are safe.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache
from operator import attrgetter, mul
from typing import Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .errors import CriticalLevel, IsotropicCoroot, ParameterOutOfRange, PreconditionViolated
from .rationals import _Frozen, _Record, _set, as_rational, format_rational

Q = Fraction
_numerator, _denominator = attrgetter("numerator"), attrgetter("denominator")

FAMILIES = ("psl22", "sl2m", "spo2m", "osp4m", "D21a", "F4", "G3")


class Vec(tuple):
    """Weight in the fixed coordinate basis; componentwise exact arithmetic.

    The constructor converts every coordinate, an int or a `Fraction`, to
    a `Fraction` (`as_rational`, which refuses a float); the operators do
    not convert their results again (`_vec`).  That is exact: `Fraction` op
    `Fraction` and `Fraction` op `int` (for +, -, * and unary -) return a
    `Fraction` already in lowest terms with a positive denominator, which
    is what `Fraction(x)` would return for it, so the result is equal to,
    and hashes as, the converted one.  The scalar of `*` is converted once,
    by the same coercion.  A coordinate that the operation leaves as it is
    is not computed: a + 0 and a - 0 are a, and 0 * c and -0 are 0, where
    a is this `Vec`'s coordinate, a `Fraction`, so the result is still one
    (the right operand of + and -, which may hold ints, is never passed
    through).  The catalog's weights are mostly zero coordinates, so most
    of a family's `Fraction` arithmetic is skipped (`lookup`).

    The hash is cached in the instance on first use, and its value is the
    tuple's: hash(v) == hash(tuple(v)), so a `Vec` and an equal `Vec` built
    afresh find each other in a dict.  A weight published as a character
    key is hashed once, not once per coordinate each time it enters a dict:
    `characters._publish` holds one `Vec` per published weight, so its
    hash is computed the first time it enters a dict and read after that."""

    def __new__(cls, coords: Iterable) -> "Vec":
        return super().__new__(cls, [as_rational(c) for c in coords])

    def __hash__(self):
        try:
            return self._hash
        except AttributeError:
            h = self._hash = tuple.__hash__(self)
            return h

    def __add__(self, other):
        return _vec([a + b if b else a for a, b in zip(self, other)])

    def __radd__(self, other):
        if other == 0:  # allow sum()
            return self
        return self.__add__(other)

    def __sub__(self, other):
        return _vec([a - b if b else a for a, b in zip(self, other)])

    def __neg__(self):
        return _vec([-a if a else a for a in self])

    def __mul__(self, c):
        c = as_rational(c)
        return _vec([a * c if a else a for a in self])

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self)


def _vec(fracs) -> Vec:
    """A `Vec` of coordinates that are `Fraction`s already, not converted
    again; its hash is computed on first use, as any `Vec`'s."""
    return tuple.__new__(Vec, fracs)


_ZERO, _ONE = Q(0), Q(1)  # shared by every zero and unit coordinate a catalog entry is built from


def zero_vec(n: int) -> Vec:
    return _vec([_ZERO] * n)


def basis_vec(n: int, i: int) -> Vec:
    v = [_ZERO] * n
    v[i] = _ONE
    return _vec(v)


class AlgebraId(_Frozen):
    """Family tag plus parameters.

    m is used by sl2m (m >= 3), spo2m (m >= 3, m != 4: spo(2|4) is
    D(2,1;1)), and osp4m (even m > 2).  D21a stores a = a_num/a_den as a
    reduced positive rational.  An immutable value and the key of the
    caches every request reads (`lookup`, `levels._level`): it holds its
    field tuple and that tuple's hash, so hashing and comparing it reads
    two slots, yet it never equals the tuple (`_Frozen`).
    """

    __slots__ = ("family", "m", "a_num", "a_den", "_key", "_hash")
    _fields = ("family", "m", "a_num", "a_den")

    def __init__(self, family: str, m: int = 0, a_num: int = 0, a_den: int = 0):
        if family not in FAMILIES:
            raise ParameterOutOfRange(f"unknown family {family!r}")
        for name, v in (("m", m), ("a_num", a_num), ("a_den", a_den)):
            if v.__class__ is not int:  # 3.0 would equal and hash as 3
                raise ParameterOutOfRange(f"{name} must be an int, got {v!r}")
        if family == "sl2m" and m < 3:
            raise ParameterOutOfRange("sl(2|m) needs m >= 3")
        if family == "spo2m":
            if m < 3:
                raise ParameterOutOfRange("spo(2|m) needs m >= 3")
            if m == 4:
                raise ParameterOutOfRange(
                    "spo(2|4) is isomorphic to D(2,1;1); use D21a with a = 1")
        if family == "osp4m" and (m <= 2 or m % 2):
            raise ParameterOutOfRange("osp(4|m) needs even m > 2")
        if family == "D21a":
            if a_num <= 0 or a_den <= 0:
                raise ParameterOutOfRange("D(2,1;a) needs a positive rational a")
            if math.gcd(a_num, a_den) != 1:
                raise ParameterOutOfRange("a_num/a_den must be reduced")
        key = (family, m, a_num, a_den)
        for name, v in zip(self.__slots__, key + (key, hash(key))):
            _set(self, name, v)

    def __eq__(self, other):
        if other.__class__ is AlgebraId:
            return self._key == other._key
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @property
    def a(self) -> Fraction:
        return Q(self.a_num, self.a_den)

    def label(self) -> str:
        if self.family in ("sl2m", "spo2m", "osp4m"):
            return f"{self.family}(m={self.m})"
        if self.family == "D21a":
            return f"D21a(a={self.a_num}/{self.a_den})"
        return self.family


def psl22() -> AlgebraId:
    return AlgebraId("psl22")


def sl2m(m: int) -> AlgebraId:
    return AlgebraId("sl2m", m=m)


def spo2m(m: int) -> AlgebraId:
    return AlgebraId("spo2m", m=m)


def osp4m(m: int) -> AlgebraId:
    return AlgebraId("osp4m", m=m)


def d21a(num: int, den: int = 1) -> AlgebraId:
    if num.__class__ is not int or den.__class__ is not int:
        return AlgebraId("D21a", a_num=num, a_den=den)  # refused there
    g = math.gcd(num, den) if num > 0 and den > 0 else 1
    return AlgebraId("D21a", a_num=num // g, a_den=den // g)


def f4() -> AlgebraId:
    return AlgebraId("F4")


def g3() -> AlgebraId:
    return AlgebraId("G3")


class NaturalComponent(NamedTuple):
    """One ideal of g^nat: a simple component, or the 1-dim center of sl(2|m)."""

    index: int
    theta: Optional[Vec]           # highest root; None for the center
    u: Fraction                    # (theta_i|theta_i), or 2 for the center
    hbar_vee: Fraction             # half Casimir eigenvalue w.r.t. the ambient form
    chi: Fraction                  # (h_vee - hbar_vee)/u


class _LevelConstants(NamedTuple):
    """What `levels` reads of an entry, as ints over one denominator e > 0,
    so that every level scalar at k is an int expression in k's numerator
    and denominator (`CatalogEntry._levels`, `levels._level`)."""

    e: int
    h: int                   # h_vee = h / e
    lines: tuple             # (u, w, c) per component, center first: u_i = u / e (nonzero),
                             # h_vee - hbar_i_vee = w / e and chi_i = c / e, so that
                             # M_i(k) = (2/u_i)(k + (h_vee - hbar_i_vee)/2) = (2 e k + w) / u
    zeros: tuple             # (z1, z2): the collapsing polynomial is (k - z1/(2e))(k - z2/(2e))
    range: tuple             # (first, step, count): `unitary_range` with first and step over e


def _sparse(ints: Sequence[int]) -> tuple:
    """The (index, value) pairs of the nonzero entries."""
    return tuple((a, c) for a, c in enumerate(ints) if c)


def _dot(cov: tuple, x: Sequence[int]) -> int:
    """A sparse int covector (`_sparse`) dotted with the ints x."""
    return sum([c * x[a] for a, c in cov])


def _neg(key: tuple) -> tuple:
    """The key of -w from the key of w (`_Lattice.key`): keys are linear."""
    return tuple([-x for x in key])


class _NuScalars(NamedTuple):
    """What the per-request pass (`CatalogEntry._scalars`) reads of nu, in
    ints: nu = x / d with d > 0, its level-0 pairings ps over d, and two
    scalars as (numerator, denominator > 0) pairs."""

    d: int
    x: list
    ps: list                 # nu(alpha^vee) * d per simple root, then -nu(theta_i^vee) * d
    xn: tuple                # (xi|nu)
    cas: tuple               # (nu|nu+2rho^nat)

    def pairings(self) -> List[Fraction]:
        """The level-0 pairings as `Fraction`s."""
        return [Q(p, self.d) for p in self.ps]


class CatalogEntry(_Frozen):
    """The data of one family (`lookup`): an immutable value with one
    attribute per name in `_fields`, compared and hashed by them; the
    tables built on first use (`cached_property`) live in the instance
    `__dict__` beside them."""

    _fields = (
        "id",                    # AlgebraId
        "n",                     # coordinate dimension
        "coord_names",
        "gram",                  # nonzero entries (i, j, g_ij), i != j both ways
        "simple_roots",          # ((Vec, parity 0|1), ...) for g itself
        "theta",                 # Vec
        "sdim",                  # Fraction
        "h_vee",                 # Fraction
        "center",                # Optional[NaturalComponent]
        "components",            # simple components, indices 1..s
        "rho_natural",           # Vec
        "xi",                    # Vec
        "delta_prime",           # ((Vec, multiplicity), ...)
        "epsilon",               # 2 iff 0 lies in delta_prime
        "pos_roots_natural",
        "simple_roots_natural",  # simple roots of g^nat (all components)
        "iso_simple_count",
        "dim_g_half",
        "unitary_range",         # (first, step, count): first + n*step, 0 <= n < count,
                                 # or every n >= 0 when count is None
        "label_map",             # (fewest, basis): nu = sum_i label_i * basis_i
        "collapse_targets",      # ((i, name), ...) in the order tried (`levels`)
        "extremal_proved",       # extremal boundary modules are proved unitary
    )

    def __init__(self, *values, **fields):
        fields.update(zip(self._fields, values))
        if len(values) > len(self._fields) or fields.keys() != set(self._fields):
            raise TypeError(f"CatalogEntry takes the fields {', '.join(self._fields)}")
        self.__dict__.update(fields)

    # -- bilinear form ----------------------------------------------------
    def form(self, lam: Sequence, mu: Sequence) -> Fraction:
        self._check_length(lam)
        self._check_length(mu)
        return sum(g * lam[i] * mu[j] for i, j, g in self.gram)

    def _check_length(self, w: Sequence) -> None:
        """Raises on a weight of the wrong length: a short one must not be
        read as a prefix, nor a long one truncated; and on a weight that is
        no sequence (`PreconditionViolated`)."""
        try:
            n = len(w)
        except TypeError:
            raise PreconditionViolated(f"a weight is a sequence of rationals, not {w!r}") from None
        if n != self.n:
            raise ParameterOutOfRange(f"{self.id.label()} weights have {self.n} coordinates")

    def coroot_pairing(self, lam: Sequence, alpha: Sequence) -> Fraction:
        aa = self.form(alpha, alpha)
        if aa == 0:
            raise IsotropicCoroot("coroot pairing against an isotropic root")
        return 2 * self.form(lam, alpha) / aa

    def restrict(self, v: Vec) -> Vec:
        """Canonical representative of the restriction of v to h^nat: the
        orthogonal projection onto the span of the roots of g^nat, as int dot
        products over the frame's `proj` (`_restricted`).  Raises on a weight
        of the wrong length."""
        d, x = self._restricted(v)
        return _vec([Q(c, d) for c in x])

    def _restricted(self, v: Sequence) -> tuple:
        """(d, x) with restrict(v) = x / d, the ints x over d > 0, not
        reduced."""
        return self.lattice.restricted(*self._scaled(v))

    @cached_property
    def coroots(self) -> tuple:
        """The coroot table: the covector (c, l) of beta^vee, over the affine simple
        roots beta of g^nat in the order of `_Lattice`; built from the form's int
        entries (`_gram_ints`) alone, with no `Fraction` but the level parts l.
        c is stored sparse, as the (coordinate, int) pairs of its nonzero entries.
        With beta's finite part x / e (`_affine_roots`) and (beta|.) = sum_a
        c'_a e_a^* / d (`_covector`), (beta|beta) = N / (d e) for the int N =
        c'.x, so each entry 2c'_a/(d (beta|beta)) = 2 e c'_a / N and the level
        part 2l/(beta|beta) = 2 l d e / N (N != 0: the roots of g^nat are
        even).  Each entry is an integer on every family, which the build
        checks; it raises, never rounds."""
        table = []
        for e, x, dc in self._affine_roots():
            d, cov = self._covector(e, x)
            norm = _dot(cov, x)
            ints = _Lattice._quotients(self, "coroot covector",
                                       [(2 * e * c, norm) for _, c in cov])
            table.append((tuple(zip([a for a, _ in cov], ints)), Q(2 * dc * d * e, norm)))
        return tuple(table)

    def _affine_roots(self) -> list:
        """(e, x, l) per affine simple root beta of g^nat, in the order of
        `coroots`: its finite part as the ints x over e > 0 (`_scaled`) and
        its delta coefficient l, (alpha, 0) for the simple roots and then
        (-theta_i, 1) for eta_i = delta - theta_i, whose finite part is
        theta_i's ints negated."""
        roots = [(*self._scaled(a), 0) for a in self.simple_roots_natural]
        for c in self.components:
            e, x = self._scaled(c.theta)
            roots.append((e, [-v for v in x], 1))
        return roots

    def pairings(self, level, finite: Sequence) -> List[Fraction]:
        """<lam, beta^vee> = c.finite + level * l over `coroots`, for lam =
        level * Lambda_0 + finite (+ any multiple of delta), read off the
        per-request pass (`_scalars`).  At level 0, nu's simple-coroot
        pairings, then -nu(theta_i^vee) for eta_i = delta - theta_i."""
        level, ps = as_rational(level), self._scalars(finite).pairings()
        return [p + level * lc for p, (_, lc) in zip(ps, self.coroots)] if level else ps

    # -- weight scalars: int dot products against per-entry covectors -------
    def _scalars(self, nu: Sequence) -> _NuScalars:
        """The per-request pass: nu's coordinates, its level-0 pairings,
        (xi|nu) and (nu|nu+2rho^nat), all as ints over their denominators
        (`_NuScalars`); no `Fraction` is built.

        nu is scaled once to ints, nu = x / d (`_scaled`), and each scalar is
        then an int dot product against a constant of the entry over a
        denominator the entry fixes: each is linear or quadratic in nu, so it
        is an int form in x over a power of d, exactly.  The level-0
        pairings are the coroot covectors (`coroots`) dotted with x, over d.
        (xi|nu) is the covector of (xi|.) dotted with x, over dx * d.  The
        Casimir term is (nu|nu+2rho^nat) = (nu|nu) + (2rho^nat|nu) by
        bilinearity: the form's quadratic in x, over d^2, plus the covector
        of (2rho^nat|.) dotted with x, over d, taken over one denominator
        dc * d^2.  Likewise (nu + rho^nat|gamma) is the covector of
        (gamma|.) dotted with x plus the constant (rho^nat|gamma)
        (`_odd_covs`).  Every denominator is positive.  The dot products are
        the entry's one program (`_program`): one loop adds every linear
        row's terms, a second the form's.  Raises on a weight of the wrong
        length."""
        d, x = self._scaled(nu)
        dx, dc, rows, linear, form = self._program
        acc = [0] * rows
        for r, a, c in linear:
            acc[r] += c * x[a]
        quad = 0
        for i, j, g in form:
            quad += g * x[i] * x[j]
        rho2, xn = acc.pop(), acc.pop()
        return _NuScalars(d, x, acc, (xn, dx * d), (quad + d * rho2, dc * d * d))

    @cached_property
    def _program(self) -> tuple:
        """(dx, dc, rows, linear, form): the per-request pass's dot products
        as one program over nu's ints x.  `linear` holds the (row, a, c)
        triples of the sparse covectors, row by row: the coroot covectors
        (`coroots`), then (xi|.) over dx (`_xi_cov`), then (2rho^nat|.)
        over dc (`_casimir_cov`); row r of the pass is sum c x[a] over its
        triples, the same int dot product as the covector's.  `form` is the
        form's int entries (i, j, g) over dc (`_casimir_cov`)."""
        dx, xi = self._xi_cov
        dc, form, rho2 = self._casimir_cov
        covs = [cov for cov, _ in self.coroots] + [xi, rho2]
        linear = tuple((r, a, c) for r, cov in enumerate(covs) for a, c in cov)
        return dx, dc, len(covs), linear, form

    def _scaled(self, finite: Sequence) -> tuple:
        """(d, x) with finite = x / d: the coordinates as ints x over their
        least common denominator d.  Raises on a weight of the wrong length
        or with a coordinate that is no int or `Fraction`."""
        self._check_length(finite)
        try:
            dens = list(map(_denominator, finite))
        except AttributeError:  # a coordinate that is no rational: `as_rational` raises
            return self._scaled([as_rational(c) for c in finite])
        d = math.lcm(*dens)
        if d == 1:
            return 1, list(map(_numerator, finite))
        return d, [n * (d // e) for n, e in zip(map(_numerator, finite), dens)]

    @cached_property
    def _gram_ints(self) -> tuple:
        """(D, ((i, j, g), ...)): the entries of `gram` as the ints g over
        their least common denominator D > 0."""
        d = math.lcm(*[g.denominator for _, _, g in self.gram])
        return d, tuple((i, j, g.numerator * (d // g.denominator)) for i, j, g in self.gram)

    def _covector(self, e: int, x: Sequence[int]) -> tuple:
        """(v|.) for v = x / e, e > 0, as (d, ((a, c), ...)): (v|lam) = sum_a
        c lam_a / d over the nonzero ints c, with d > 0 the least such
        denominator.  With the form's int entries g over D (`_gram_ints`),
        (v|e_a) = c'_a / (D e) for the ints c'_a = sum_i g_ia x_i; the least
        common denominator of those quotients is D e / f, f = gcd(D e, c'),
        and c = c' / f, both divided exactly.  No `Fraction` is built."""
        den, gram = self._gram_ints
        cov = [0] * self.n
        for i, j, g in gram:
            cov[j] += g * x[i]
        d = den * e
        f = math.gcd(d, *cov)
        return d // f, _sparse([c // f for c in cov])

    @cached_property
    def _xi_ints(self) -> tuple:
        """(d, ps): xi's level-0 pairings as the ints ps over the one d > 0,
        as the per-request pass (`_scalars`) reads them: the coroot
        covectors dotted with xi = x / d."""
        d, x = self._scaled(self.xi)
        return d, [_dot(cov, x) for cov, _ in self.coroots]

    @cached_property
    def _xi_cov(self) -> tuple:
        """The covector of (xi|.), as `_covector` gives it."""
        return self._covector(*self._scaled(self.xi))

    @cached_property
    def _casimir_cov(self) -> tuple:
        """(d, form, rho2): the entries (i, j, g) of `gram` and the covector
        of (2rho^nat|.), sparse, all as ints over the one denominator d, the
        least common multiple of the form's D (`_gram_ints`) and the
        covector's."""
        e, x = self._scaled(self.rho_natural)
        d_rho, rho2 = self._covector(e, [2 * v for v in x])
        den, gram = self._gram_ints
        d = math.lcm(d_rho, den)
        return (d, tuple((i, j, g * (d // den)) for i, j, g in gram),
                tuple((a, c * (d // d_rho)) for a, c in rho2))

    @cached_property
    def _odd_covs(self) -> tuple:
        """(gamma, e, cov, r) for each distinct gamma of Delta', in order:
        (nu + rho^nat|gamma) = (cov.x + r d) / (e d) at nu = x / d, with cov
        the covector of (gamma|.) and r = e (rho^nat|gamma) as ints over e.
        With (gamma|.) over d_g and rho^nat = y / f, (rho^nat|gamma) =
        t / (d_g f), t = cov.y, whose least denominator is d_g f / gcd(t,
        d_g f); e is its lcm with d_g, and r = t e / (d_g f) exactly."""
        f, y = self._scaled(self.rho_natural)
        rows = []
        for gamma in dict.fromkeys(gm for gm, _ in self.delta_prime):
            d, cov = self._covector(*self._scaled(gamma))
            t, m = _dot(cov, y), d * f
            e = math.lcm(d, m // math.gcd(t, m))
            rows.append((gamma, e, tuple((a, c * (e // d)) for a, c in cov), t * e // m))
        return tuple(rows)

    @cached_property
    def lattice(self) -> "_Lattice":
        """The frame of h^nat (`_Lattice`), built on first use into the
        instance `__dict__`; `lookup`'s bound is the frames' bound."""
        return _Lattice(self)

    # -- level scalars ------------------------------------------------------
    def shifted_level(self, k) -> Fraction:
        """k + h_vee, the denominator of every level formula; raises
        CriticalLevel at the critical level k = -h_vee (`_shifted`)."""
        k = as_rational(k)
        return Q(*self._shifted(k.numerator, k.denominator))

    def _shifted(self, kn: int, kd: int) -> tuple:
        """k + h_vee at k = kn / kd (kd > 0) as the ints (e kn + h kd, e kd),
        not reduced, with h_vee = h / e (`_levels`); raises CriticalLevel when
        the numerator is 0, at the critical level k = -h_vee: the one
        critical-level guard."""
        c = self._levels
        n = c.e * kn + c.h * kd
        if not n:
            raise CriticalLevel(f"k = -h_vee = {-self.h_vee} for {self.id.label()}")
        return n, c.e * kd

    def casimir(self, nu: Vec) -> Fraction:
        """(nu|nu+2rho^nat), the Casimir term of the thresholds and of the
        singular and lowest conformal weights (`_scalars`)."""
        return Q(*self._scalars(nu).cas)

    @cached_property
    def _chis(self) -> tuple:
        """chi_i per simple component, as every verdict reports them; a
        verdict copies the tuple into its own list."""
        return tuple(c.chi for c in self.components)

    @cached_property
    def _levels(self) -> "_LevelConstants":
        """The constants of the level scalars that `levels` evaluates at k,
        as ints over the least common denominator e of h_vee, of each
        component's u_i, hbar_i_vee and chi_i and of the range's first level
        and step; no `Fraction` is built."""
        comps = ([self.center] if self.center else []) + list(self.components)
        first, step, count = self.unitary_range
        xs = [self.h_vee, first, step] + [x for c in comps for x in (c.u, c.hbar_vee, c.chi)]
        e = math.lcm(*[x.denominator for x in xs])
        h, first, step, *rest = [x.numerator * (e // x.denominator) for x in xs]
        lines = tuple((u, h - b, c) for u, b, c in zip(rest[::3], rest[1::3], rest[2::3]))
        # zeros of the monic collapsing polynomial, over 2e: where M_1 and M_2
        # vanish, -(h_vee - hbar_i_vee)/2, or, with one component level, where
        # M_1 vanishes and -hbar_1/2 - 1 = -(h - w + 2e)/(2e)
        zs = [-w for _, w, _ in lines]
        zeros = tuple(zs) if len(zs) == 2 else (zs[0], -(h - lines[0][1] + 2 * e))
        return _LevelConstants(e, h, lines, zeros, (first, step, count))

    # -- weights ----------------------------------------------------------
    def weyl_reflect(self, v: Vec, alpha: Vec) -> Vec:
        return v - self.coroot_pairing(v, alpha) * alpha

    def nu_from_labels(self, labels: Sequence) -> Vec:
        """Highest-weight labels -> coordinate vector, the linear map nu =
        sum_i label_i * basis_i of the entry's `label_map` (fewest, basis).

        psl22/spo2m(m=3): [r] with nu = r*theta_1/2; D21a: [r1, r2] with
        nu = r1*theta_1/2 + r2*theta_2/2; F4/G3/spo2m(m>4): epsilon-basis
        coefficients (delta-coordinate fixed to 0); sl2m: delta coefficients;
        osp4m: [c, b_1..b_{m/2}] with nu = c*(eps1-eps2)/2 + sum b_j delta_j.
        Raises `ParameterOutOfRange` on a wrong number of labels: from the
        fewest to one per basis vector, the missing ones read as 0.
        """
        lab = [as_rational(x) for x in labels]
        lo, basis = self.label_map
        hi = len(basis)
        if not lo <= len(lab) <= hi:
            count = str(lo) if lo == hi else f"{lo} to {hi}"
            raise ParameterOutOfRange(f"{self.id.label()} takes {count} weight "
                                      f"label{'s' if hi > 1 else ''}, got {len(lab)}")
        return sum((b * x for x, b in zip(lab, basis)), zero_vec(self.n))


def _diag_gram(diag: Sequence) -> tuple:
    return tuple((i, i, as_rational(d)) for i, d in enumerate(diag))


def _so_roots(n_coords: int, offset: int, rank: int, odd_dim: bool):
    """Positive roots and simple roots of so(2*rank(+1)) in coords offset..offset+rank-1."""
    e = lambda i: basis_vec(n_coords, offset + i)
    pos, simple = [], []
    for i in range(rank):
        for j in range(i + 1, rank):
            pos.append(e(i) - e(j))
            pos.append(e(i) + e(j))
    if odd_dim:
        pos.extend(e(i) for i in range(rank))
    simple = [e(i) - e(i + 1) for i in range(rank - 1)]
    simple.append(e(rank - 1) if odd_dim else e(rank - 2) + e(rank - 1))
    return pos, simple


def _sp_roots(n_coords: int, offset: int, rank: int):
    e = lambda i: basis_vec(n_coords, offset + i)
    pos = []
    for i in range(rank):
        for j in range(i + 1, rank):
            pos.append(e(i) - e(j))
            pos.append(e(i) + e(j))
    for i in range(rank):
        pos.append(2 * e(i))
    simple = [e(i) - e(i + 1) for i in range(rank - 1)] + [2 * e(rank - 1)]
    return pos, simple


def _sl_roots(n_coords: int, offset: int, rank_plus_1: int):
    e = lambda i: basis_vec(n_coords, offset + i)
    pos = [e(i) - e(j) for i in range(rank_plus_1) for j in range(rank_plus_1) if i < j]
    simple = [e(i) - e(i + 1) for i in range(rank_plus_1 - 1)]
    return pos, simple


def _signs(k: int):
    if k == 0:
        yield ()
        return
    for rest in _signs(k - 1):
        yield (1,) + rest
        yield (-1,) + rest


@lru_cache(maxsize=64)
def lookup(aid: AlgebraId) -> CatalogEntry:
    """Fully populated catalog entry for the given algebra."""
    fam = aid.family
    if fam == "psl22":
        n = 4
        e1, e2, d1, d2 = (basis_vec(n, i) for i in range(4))
        gram = _diag_gram([1, 1, -1, -1])
        th1 = d1 - d2
        xi = Q(1, 2) * th1
        comp = NaturalComponent(1, th1, Q(-2), Q(-2), Q(-1))
        return CatalogEntry(
            id=aid, n=n, coord_names=("e1", "e2", "d1", "d2"), gram=gram,
            simple_roots=((e1 - d1, 1), (th1, 0), (d2 - e2, 1)),
            theta=e1 - e2, sdim=Q(-2), h_vee=Q(0), center=None,
            components=(comp,), rho_natural=Q(1, 2) * th1, xi=xi,
            delta_prime=((xi, 2), (-xi, 2)), epsilon=1,
            pos_roots_natural=(th1,), simple_roots_natural=(th1,),
            iso_simple_count=2, dim_g_half=4,
            unitary_range=(Q(-2), Q(-1), None), label_map=(1, (Q(1, 2) * th1,)),
            collapse_targets=((0, "V_{}(sl2)"),), extremal_proved=True)

    if fam == "sl2m":
        m = aid.m
        n = m + 2
        e1, e2 = basis_vec(n, 0), basis_vec(n, 1)
        d = [basis_vec(n, 2 + i) for i in range(m)]
        gram = _diag_gram([1, 1] + [-1] * m)
        pos, simple_nat = _sl_roots(n, 2, m)
        th1 = d[0] - d[m - 1]
        simple = [(e1 - d[0], 1)] + [(d[i] - d[i + 1], 0) for i in range(m - 1)] + [(d[m - 1] - e2, 1)]
        center = NaturalComponent(0, None, Q(2), Q(0), Q(2 - m, 2))
        comp = NaturalComponent(1, th1, Q(-2), Q(-m), Q(-1))
        rho = sum((Q(m - 2 * i - 1, 2) * d[i] for i in range(m)), zero_vec(n))
        half = Q(1, 2) * (e1 + e2)
        dprime = tuple((v, 1) for j in range(m) for v in (half - d[j], d[j] - half))
        return CatalogEntry(
            id=aid, n=n, coord_names=("e1", "e2") + tuple(f"d{i+1}" for i in range(m)),
            gram=gram, simple_roots=tuple(simple), theta=e1 - e2,
            sdim=Q(m * m - 4 * m + 3), h_vee=Q(2 - m), center=center,
            components=(comp,), rho_natural=rho, xi=d[0] - half,
            delta_prime=dprime, epsilon=1, pos_roots_natural=tuple(pos),
            simple_roots_natural=tuple(simple_nat), iso_simple_count=2,
            dim_g_half=2 * m,
            unitary_range=(Q(-1), Q(-1), 1), label_map=(0, tuple(d)),
            collapse_targets=((1, f"V_{{}}(sl_{m})"), (0, "free boson V_{}(center)")),
            extremal_proved=False)

    if fam == "osp4m":
        m = aid.m
        r = m // 2
        n = 2 + r
        e1, e2 = basis_vec(n, 0), basis_vec(n, 1)
        d = [basis_vec(n, 2 + i) for i in range(r)]
        gram = _diag_gram([1, 1] + [-1] * r)
        th1 = e1 - e2
        th2 = 2 * d[0]
        sp_pos, sp_simple = _sp_roots(n, 2, r)
        comp1 = NaturalComponent(1, th1, Q(2), Q(2), Q(-m, 2))
        comp2 = NaturalComponent(2, th2, Q(-4), Q(-m - 2), Q(-1))
        simple = ([(th1, 0), (e2 - d[0], 1)] + [(d[i] - d[i + 1], 0) for i in range(r - 1)]
                  + [(2 * d[r - 1], 0)])
        rho = Q(1, 2) * th1 + sum((Q(r - i) * d[i] for i in range(r)), zero_vec(n))
        half = Q(1, 2) * th1
        dprime = tuple((s1 * half + s2 * d[j], 1)
                       for j in range(r) for s1 in (1, -1) for s2 in (1, -1))
        return CatalogEntry(
            id=aid, n=n, coord_names=("e1", "e2") + tuple(f"d{i+1}" for i in range(r)),
            gram=gram, simple_roots=tuple(simple), theta=e1 + e2,
            sdim=Q(6 + m * (m + 1) // 2 - 4 * m), h_vee=Q(2 - m), center=None,
            components=(comp1, comp2), rho_natural=rho, xi=half + d[0],
            delta_prime=dprime, epsilon=1,
            pos_roots_natural=(th1,) + tuple(sp_pos),
            simple_roots_natural=(th1,) + tuple(sp_simple),
            iso_simple_count=1, dim_g_half=2 * m,
            unitary_range=(Q(-1), Q(-1), 0), label_map=(1, (half, *d)),
            collapse_targets=((0, "V_{}(sl2)"), (1, f"V_{{}}(sp_{m})")),
            extremal_proved=False)

    if fam == "spo2m":
        m = aid.m
        r = m // 2
        odd = bool(m % 2)
        n = 1 + r
        d1 = basis_vec(n, 0)
        e = [basis_vec(n, 1 + i) for i in range(r)]
        gram = _diag_gram([Q(1, 2)] + [Q(-1, 2)] * r)
        pos, simple_nat = _so_roots(n, 1, r, odd)
        if m == 3:
            th1, u1, hbar1, chi1 = e[0], Q(-1, 2), Q(-1, 2), Q(-2)
            rng, labels, target = (Q(-3, 4), Q(-1, 4), None), (1, (Q(1, 2) * th1,)), "V_{}(sl2)"
        else:
            th1, u1, hbar1, chi1 = e[0] + e[1], Q(-1), Q(1 - Q(m, 2)), Q(-1)
            rng, labels, target = (Q(-1), Q(-1, 2), None), (0, tuple(e)), f"V_{{}}(so_{m})"
        comp = NaturalComponent(1, th1, u1, hbar1, chi1)
        simple = [(d1 - e[0], 1)] + [(a, 0) for a in simple_nat]
        rho = sum(((Q(m, 2) - (i + 1)) * e[i] for i in range(r)), zero_vec(n))
        dprime = [(e[i], 1) for i in range(r)] + [(-e[i], 1) for i in range(r)]
        if odd:
            dprime.append((zero_vec(n), 1))
        return CatalogEntry(
            id=aid, n=n, coord_names=("d1",) + tuple(f"e{i+1}" for i in range(r)),
            gram=gram, simple_roots=tuple(simple), theta=2 * d1,
            sdim=Q(3 + m * (m - 1) // 2 - 2 * m), h_vee=Q(2) - Q(m, 2), center=None,
            components=(comp,), rho_natural=rho, xi=e[0],
            delta_prime=tuple(dprime), epsilon=2 if odd else 1,
            pos_roots_natural=tuple(pos), simple_roots_natural=tuple(simple_nat),
            iso_simple_count=1, dim_g_half=m,
            unitary_range=rng, label_map=labels, collapse_targets=((0, target),),
            extremal_proved=m == 3)

    if fam == "D21a":
        a = aid.a
        n = 3
        e1, e2, e3 = (basis_vec(n, i) for i in range(3))
        gram = _diag_gram([Q(1, 2), -1 / (2 * (1 + a)), -a / (2 * (1 + a))])
        th1, th2 = 2 * e2, 2 * e3
        u1, u2 = -2 / (1 + a), -2 * a / (1 + a)
        comp1 = NaturalComponent(1, th1, u1, u1, Q(-1))
        comp2 = NaturalComponent(2, th2, u2, u2, Q(-1))
        dprime = tuple((Vec([0, s1, s2]), 1) for s1 in (1, -1) for s2 in (1, -1))
        # the levels n*step, n >= 1, reach -1/2 only at a = 1, where step =
        # -1/2 and -1/2 is the trivial module: there the range starts at 2*step
        step = -Q(aid.a_num * aid.a_den, aid.a_num + aid.a_den)
        return CatalogEntry(
            id=aid, n=n, coord_names=("e1", "e2", "e3"), gram=gram,
            simple_roots=((e1 - e2 - e3, 1), (th1, 0), (th2, 0)),
            theta=2 * e1, sdim=Q(1), h_vee=Q(0), center=None,
            components=(comp1, comp2), rho_natural=e2 + e3, xi=e2 + e3,
            delta_prime=dprime, epsilon=1,
            pos_roots_natural=(th1, th2), simple_roots_natural=(th1, th2),
            iso_simple_count=1, dim_g_half=4,
            unitary_range=(2 * step if step == Q(-1, 2) else step, step, None),
            label_map=(2, (Q(1, 2) * th1, Q(1, 2) * th2)),
            collapse_targets=((0, "V_{}(sl2 (component 1))"),
                              (1, "V_{}(sl2 (component 2))")),
            # D(2,1;m), D(2,1;1/n): the first level's one weight is proved, but it collapses
            extremal_proved=False)

    if fam == "F4":
        n = 4
        e = [basis_vec(n, i) for i in range(3)]
        dlt = basis_vec(n, 3)
        gram = _diag_gram([Q(-2, 3)] * 3 + [Q(2)])
        pos, simple_nat = _so_roots(n, 0, 3, True)
        th1 = e[0] + e[1]
        comp = NaturalComponent(1, th1, Q(-4, 3), Q(-10, 3), Q(-1))
        odd_simple = Q(1, 2) * (dlt - e[0] - e[1] - e[2])
        simple = [(odd_simple, 1), (e[2], 0), (e[1] - e[2], 0), (e[0] - e[1], 0)]
        rho = Q(5, 2) * e[0] + Q(3, 2) * e[1] + Q(1, 2) * e[2]
        dprime = tuple((Vec([Q(s1, 2), Q(s2, 2), Q(s3, 2), 0]), 1)
                       for s1, s2, s3 in _signs(3))
        return CatalogEntry(
            id=aid, n=n, coord_names=("e1", "e2", "e3", "d1"), gram=gram,
            simple_roots=tuple(simple), theta=dlt, sdim=Q(8), h_vee=Q(-2),
            center=None, components=(comp,), rho_natural=rho,
            xi=Q(1, 2) * (e[0] + e[1] + e[2]), delta_prime=dprime, epsilon=1,
            pos_roots_natural=tuple(pos), simple_roots_natural=tuple(simple_nat),
            iso_simple_count=1, dim_g_half=8,
            unitary_range=(Q(-4, 3), Q(-2, 3), None), label_map=(3, tuple(e)),
            collapse_targets=((0, "V_{}(so7)"),), extremal_proved=False)

    if fam == "G3":
        # eps3 = -eps1-eps2 eliminated; coords (eps1, eps2, delta1)
        n = 3
        e1, e2, dlt = (basis_vec(n, i) for i in range(3))
        gram = ((0, 0, Q(-1, 2)), (0, 1, Q(1, 4)), (1, 0, Q(1, 4)),
                (1, 1, Q(-1, 2)), (2, 2, Q(1, 2)))
        alpha, beta = e1, e2 - e1
        pos = (alpha, beta, e2, e1 + e2, 2 * e1 + e2, e1 + 2 * e2)
        th1 = e1 + 2 * e2
        comp = NaturalComponent(1, th1, Q(-3, 2), Q(-3), Q(-1))
        dprime = ((zero_vec(n), 1), (e1, 1), (-e1, 1), (e2, 1), (-e2, 1),
                  (e1 + e2, 1), (-(e1 + e2), 1))
        return CatalogEntry(
            id=aid, n=n, coord_names=("e1", "e2", "d1"), gram=gram,
            simple_roots=((dlt - e1 - e2, 1), (alpha, 0), (beta, 0)),
            theta=2 * dlt, sdim=Q(3), h_vee=Q(-3, 2), center=None,
            components=(comp,), rho_natural=2 * e1 + 3 * e2, xi=e1 + e2,
            delta_prime=dprime, epsilon=2,
            pos_roots_natural=pos, simple_roots_natural=(alpha, beta),
            iso_simple_count=1, dim_g_half=7,
            unitary_range=(Q(-3, 2), Q(-3, 4), None), label_map=(2, (e1, e2)),
            collapse_targets=((0, "V_{}(G2)"),), extremal_proved=False)

    raise ParameterOutOfRange(fam)


# ---------------------------------------------------------------------------
# the frame of h^nat


def _solve(mat: Sequence[Sequence[int]], rhs: Sequence[Sequence[int]]) -> tuple:
    """(p, X) with mat^{-1} rhs = X / p: the int r x r matrix `mat` solved
    against the int rows `rhs` by one fraction-free Gauss-Jordan
    elimination (Bareiss, Math. Comp. 22, 1968), p > 0 and X ints.  Raises
    PreconditionViolated, naming the size, when `mat` is singular.

    Exactness.  Step k takes the first row at or below k that is nonzero in
    column k as its pivot row (a swap), then replaces every other row a by
    (p_k a - a_k row_k) / p_{k-1}, with p_k the pivot and p_{-1} = 1.  By
    Sylvester's identity every entry after step k is a (k+1)-minor of the
    row-permuted augmented matrix: below the pivots, the minor on rows
    0..k and i and columns 0..k and j; in a pivot row i <= k, the one on
    rows 0..k with column i replaced by column j (Cramer's rule).  Minors
    of an int matrix are ints, so each division is exact, and `//` makes
    it.  The pivot p_k is the leading (k+1)-minor of the permuted matrix, so
    the search fails exactly when mat is singular.  After the last step
    every diagonal entry is p_{r-1} = +-det(mat) and the right block is
    p_{r-1} mat^{-1} rhs; both are negated together when p_{r-1} < 0."""
    r = len(mat)
    aug = [list(mat[i]) + list(rhs[i]) for i in range(r)]
    prev = 1
    for k in range(r):
        piv = next((i for i in range(k, r) if aug[i][k]), None)
        if piv is None:
            raise PreconditionViolated(f"singular {r} x {r} matrix: no exact solve")
        aug[k], aug[piv] = aug[piv], aug[k]
        row = aug[k]
        p = row[k]
        for i, a in enumerate(aug):
            if i != k:
                f = a[k]
                aug[i] = [(p * x - f * y) // prev for x, y in zip(a, row)]
        prev = p
    sign = 1 if prev > 0 else -1
    return sign * prev, [[sign * x for x in a[r:]] for a in aug]


class _Lattice:
    """The coordinates of h^nat for one catalog entry (`CatalogEntry.lattice`):
    every character reads the restriction to h^nat, the depth and the int
    key of a weight through it.

    Everything is built in ints from the form's int entries, through the
    coroot table (`CatalogEntry.coroots`); the only `Fraction`s built are
    the published depth covector's.  One fraction-free solve (`_solve`) of
    G, the Gram matrix of the simple roots s_i of g^nat with row i scaled
    by 2/(s_i|s_i), which is the transposed finite block of the int affine
    Cartan matrix `cartan`, against the int coroot covectors of the s_i
    gives the coefficients c(v) = G^{-1} S G v of the orthogonal
    projection sum_i c_i(v) s_i of v onto the root span as ints X over the
    pivot p > 0; their column sums over p are the depth covector
    `depth_cov` (read by `depth_of`).  The solve needs no row swap and
    cannot fail: g^nat is reductive, so G's leading principal minors are
    the determinants of the Cartan matrices of subdiagrams of its Dynkin
    diagram, all of finite type and so positive (Kac, Infinite-dimensional
    Lie algebras, ch. 4), and those minors are the pivots.  The projection
    is held as ints: with the s_i = y_i / e over one e, coordinate a of the
    projection of v = x / d is sum_i y_i[a] (X x)_i / (e p d), so `proj[a]`
    (sparse, as `CatalogEntry.coroots`) holds the ints sum_i y_i[a] X_i
    divided by f = gcd(e p, all of them), dotted with x over d * `pden`,
    `pden` = e p / f (`CatalogEntry.restrict`).

    The kernel side.  Every weight that can enter a kernel key lies in
    (1/denom) Z^n, where `denom` is the common denominator of the
    coordinates of the positive roots of g^nat, of Delta', theta, xi,
    rho^nat, of the projection (`pden`) and of the restriction of theta/2 - xi,
    the last read off its ints x over their denominator D as D / gcd(D, x).
    The key of w is the int tuple (scale * depth_of(0, w), denom * w_1, ...,
    denom * w_n) with scale = denom times the common denominator of the depth
    covector, so a key carries its depth as its first entry and adding keys
    adds weights and depths alike; keys are linear, so the key of -w is the
    negated key of w.  `key` raises on a weight off the lattice and `q2` on
    an exponent off (1/2) Z; nothing is rounded.

    The dip density s is the largest depth change per unit of q over the
    denominator factors: |depth(alpha)| for the bosonic exponents
    exp(+-alpha) (which cost q^n, n >= 1) and 2|depth(gamma)| for the odd ones
    (which cost q^{1/2} and up), or 1 when there are none.  It is held as
    the int `dip` = s * scale, read off the keys' depth entries.  `window`
    snaps a request's (q_max, depth) to its kernel window, two flat ints.

    The kernel stores the coordinates of a key packed into one int,
    `pack`(x) = sum_i x_i R^i with R = `radix`.  Packing is linear, and it
    is one-to-one on the box |x_i| < R/2, where `unpack` inverts it digit by
    digit (balanced digits of the odd radix R); `characters._LatticeSeries`
    proves which windows keep their keys inside that box.  `ns` is one n's
    block of the factors of the NS denominator, as ints: (depth entry,
    packed key, 2c - 2n, odd) for (1 + q^c exp(-gamma)) at c = n - 1/2 (gamma
    in Delta', with multiplicity), rank times (1 - q^c)^(-1) at c = n, and
    (1 - q^c exp(-alpha))^(-1) at c = n - 1 and (1 - q^c exp(alpha))^(-1) at
    c = n for each positive root alpha of g^nat, in that order.  `rate` is
    the largest |coordinate| of those keys, at least 1.

    The orbit side, over the affine simple roots beta_i of g^nat, (alpha, 0)
    for its simple roots and then (-theta_i, 1) for eta_i = delta - theta_i
    as (finite part, delta coefficient): `coroots`, the entry's table, gives
    <lam, beta_i^vee> on (finite part, level) (`CatalogEntry.pairings`);
    `cartan[i][j]` = <beta_i, beta_j^vee> is the affine Cartan matrix and
    `xd[i]` the pairing of beta_i with x+d, (beta_i|theta)/2 plus beta_i's
    delta coefficient, read off an int dot product with theta's covector
    (`xd2` likewise); all ints: g^nat is reductive,
    each simple component with its untwisted affine root system, and
    rescaling a component's form (u_i < 0 included) leaves its Cartan
    matrix unchanged; x+d pairs to 0 with the finite roots and to 1 with
    eta_i.  The constructor checks both and raises, never rounds.
    `rkeys[i]` is the key of the finite part of beta_i, a root of g^nat and
    so on the lattice; it lies in the root span, so it is its own
    restriction, and a reflection moves a restriction by an int multiple of
    it (see `characters._orbit`).  `rows[i]` is the reflection in beta_i
    as one int row over an orbit point's block (pairings, drop of x+d,
    key): `cartan[i]`, then -`xd[i]`, then `rkeys[i]`, so that s_i takes
    a block b to b - b[i] * rows[i]; the walk reads these rows, built here
    once per frame.  The isotropic block of
    the orbit is held here too: its finite part theta/2 - xi pairs as
    `iso_ps` at level 0, restricts to h^nat with the key `iso_key` and
    pairs with x+d as `xd2`/2.  `iso_ps` and `xd2` are ints, which the
    constructor checks (`xd2` with `q2`, as an exponent of q): theta pairs
    to 0 with every affine simple coroot (see `characters._orbit`), so
    `iso_ps` are the pairings of -xi, ints by the catalog's xi_dominant and
    chi_i data, and `xd2` is 1 on every catalog family.  `_orbit` checks
    the pairings of lam0 itself, which it reads off nu's pairings and the
    level record.
    """

    __slots__ = ("proj", "pden", "depth_cov", "denom", "scale", "cov", "dip", "ns",
                 "rate", "cartan", "xd", "rkeys", "rows", "iso_ps", "iso_key", "xd2")

    #: the packing radix R: coordinates |x_i| <= 2^20 pack one-to-one
    radix = 2 ** 21 + 1

    def __init__(self, entry: CatalogEntry):
        s = entry.simple_roots_natural
        r, n = len(s), entry.n
        roots = entry._affine_roots()
        covs = [cov for cov, _ in entry.coroots]
        self.cartan = tuple(self._quotients(entry, "affine Cartan matrix row",
                                            [(_dot(cov, x), e) for cov in covs])
                            for e, x, _ in roots)
        # [G | S G], row i scaled by 2/(s_i|s_i): the pairings of s_j with s_i^vee
        # (`cartan` transposed) and the coroot covector of s_i^vee, made dense;
        # the solve gives the r x n coefficients c(v) = G^{-1} S G v as X / p
        dense = [[c.get(a, 0) for a in range(n)] for c in map(dict, covs[:r])]
        p, coeffs = _solve([[self.cartan[j][i] for j in range(r)] for i in range(r)], dense)
        # the projection sum_i c_i(v) s_i, with s_i = y_i / e over one e: ints over e p
        e = math.lcm(*[d for d, _, _ in roots[:r]])
        ys = [[v * (e // d) for v in x] for d, x, _ in roots[:r]]
        proj = [[sum([y[a] * row[j] for y, row in zip(ys, coeffs)]) for j in range(n)]
                for a in range(n)]
        g = math.gcd(e * p, *[c for row in proj for c in row])
        self.pden = e * p // g
        self.proj = tuple(_sparse([c // g for c in row]) for row in proj)
        sums = [sum(col) for col in zip(*coeffs)]
        self.depth_cov = _vec([Q(c, p) for c in sums])
        # theta/2 - xi as the ints ix over ie, and its restriction as iso over ide
        (et, xt), (ex, xx) = entry._scaled(entry.theta), entry._scaled(entry.xi)
        ie, ix = 2 * et * ex, [a * ex - 2 * b * et for a, b in zip(xt, xx)]
        ide, iso = self.restricted(ie, ix)

        vecs = [*entry.pos_roots_natural, *(g for g, _ in entry.delta_prime),
                entry.theta, entry.xi, entry.rho_natural]
        self.denom = math.lcm(self.pden, ide // math.gcd(ide, *iso),
                              *(c.denominator for v in vecs for c in v))
        g = math.gcd(p, *sums)
        self.scale = self.denom * (p // g)
        # ints: scale * depth_of(0, w) = -sum(cov_i * denom * w_i)
        self.cov = tuple([c // g for c in sums])

        pos = [self.key(a) for a in entry.pos_roots_natural]
        odd = [self.key(g) for g, _ in entry.delta_prime]
        dips = [abs(key[0]) for key in pos] + [2 * abs(key[0]) for key in odd]
        self.dip = max(dips) if dips else self.scale

        rank = len(s) + (1 if entry.center else 0)
        block = [(_neg(key), -1, True)
                 for key, (_, mult) in zip(odd, entry.delta_prime) for _ in range(mult)]
        block += [((0,) * (n + 1), 0, False)] * rank
        for key in pos:
            block += [(_neg(key), -2, False), (key, 0, False)]
        self.rate = max([1] + [abs(x) for key, _, _ in block for x in key[1:]])
        self.ns = tuple((key[0], self.pack(key[1:]), off, odd) for key, off, odd in block)

        # theta's covector: (beta|theta) = tcov.x / (dt e) at beta's finite part x / e
        dt, tcov = entry._covector(et, xt)
        self.xd = self._quotients(entry, "x+d pairings of the affine simple roots",
                                  [(_dot(tcov, x) + 2 * dc * dt * e, 2 * dt * e)
                                   for e, x, dc in roots])
        self.rkeys = tuple([*(self.key(a) for a in s),
                            *(_neg(self.key(c.theta)) for c in entry.components)])
        self.rows = tuple((*a, -x, *key) for a, x, key in zip(self.cartan, self.xd, self.rkeys))
        self.iso_ps = self._quotients(entry, "pairings of theta/2 - xi",
                                      [(_dot(cov, ix), ie) for cov in covs])
        xs = [c * self.denom // ide for c in iso]
        self.iso_key = (-sum(map(mul, self.cov, xs)), *xs)
        t, m = _dot(tcov, ix), dt * ie  # 2 (theta/2 - xi|theta)/2 = t / m
        if t % m:
            self.q2(Q(t, 2 * m))  # raises
        self.xd2 = t // m

    @staticmethod
    def _ints(entry: CatalogEntry, what: str, xs: list) -> tuple:
        for x in xs:
            if x.denominator != 1:
                raise PreconditionViolated(f"{what} of {entry.id.label()} is not integral: "
                                           f"({', '.join(map(format_rational, xs))})")
        return tuple([x.numerator for x in xs])

    @staticmethod
    def _quotients(entry: CatalogEntry, what: str, pairs: list) -> tuple:
        """The ints n / m of the int pairs (n, m), m != 0, divided exactly;
        when some m does not divide its n, `_ints` refuses on the values
        n / m as `Fraction`s."""
        if any([n % m for n, m in pairs]):
            _Lattice._ints(entry, what, [Q(n, m) for n, m in pairs])
        return tuple([n // m for n, m in pairs])

    def restricted(self, d: int, x: Sequence[int]) -> tuple:
        """(d', x') with restrict(x / d) = x' / d', the ints x' over
        d' = d * `pden` > 0, not reduced: `proj` dotted with x."""
        return d * self.pden, [_dot(row, x) for row in self.proj]

    def key(self, w: Vec) -> tuple:
        """(depth, coordinates) of w as ints: (scale * depth_of(0, w), D w_1,
        ..., D w_n), D = `denom`, each D w_i = D c / e read off the
        coordinate c / e as an int quotient, no `Fraction` built."""
        xs = []
        for c in w:
            x, rem = divmod(c.numerator * self.denom, c.denominator)
            if rem:
                raise PreconditionViolated(
                    f"weight ({', '.join(map(format_rational, w))}) is off the "
                    f"1/{self.denom} lattice of the denominator kernel")
            xs.append(x)
        return (-sum(map(mul, self.cov, xs)), *xs)

    def pack(self, xs: Sequence[int]) -> int:
        """sum_i xs_i R^i, R = `radix`."""
        p = 0
        for x in reversed(xs):
            p = p * self.radix + x
        return p

    def unpack(self, p: int) -> List[int]:
        """The coordinates xs with `pack`(xs) = p and every |xs_i| < R/2:
        the balanced digits of p in the odd radix R."""
        r, h = self.radix, self.radix // 2
        xs = []
        for _ in self.cov:
            x = (p + h) % r - h
            xs.append(x)
            p = (p - x) // r
        return xs

    @staticmethod
    def q2(c: Fraction) -> int:
        """2c as an int."""
        if (2 * c).denominator != 1:
            raise PreconditionViolated(f"q exponent {format_rational(c)} is off (1/2)Z")
        return (2 * c).numerator

    def window(self, q_max: Fraction, depth: Fraction, ell=0) -> Tuple[int, int]:
        """(T, C) = (floor(2 (q_max - ell)), floor(scale * depth)): the
        largest 2q of a level and int depth of a key that the window
        (q_max - ell, depth) keeps, from the ints of q_max = qn/qd, ell =
        ln/ld and depth = dn/dd, every denominator positive: 2(q_max - ell)
        = 2(qn ld - ln qd)/(qd ld), and `//` floors over a positive
        divisor, so no `Fraction` is built."""
        qn, qd, dn, dd = q_max.numerator, q_max.denominator, depth.numerator, depth.denominator
        ln, ld = ell.numerator, ell.denominator
        return 2 * (qn * ld - ln * qd) // (qd * ld), self.scale * dn // dd


# ---------------------------------------------------------------------------
# self-validation


class ValidationCheck(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class ValidationReport(_Record):
    """The checks of `validate`, in order; a mutable record."""

    __slots__ = _fields = ("entry", "checks")

    def __init__(self, entry: CatalogEntry, checks: Optional[list] = None):
        self.entry = entry
        self.checks = [] if checks is None else checks

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(ValidationCheck(name, bool(passed), detail))


#: families whose rho^nat/Delta' data enters the threshold identity
_TABLE4_FAMILIES = ("psl22", "spo2m", "D21a", "F4", "G3")


def validate(entry: CatalogEntry) -> ValidationReport:
    """Consistency report for a catalog entry; failures are listed, not raised."""
    rep = ValidationReport(entry)
    tt = entry.form(entry.theta, entry.theta)
    rep.add("theta_norm", tt == 2, f"(theta|theta) = {tt}")

    for c in entry.components:
        u = entry.form(c.theta, c.theta)
        rep.add(f"u_{c.index}", u == c.u, f"(theta_{c.index}|theta_{c.index}) = {u}")
        chi_from_xi = -entry.coroot_pairing(entry.xi, c.theta)
        if entry.id.family == "osp4m" and c.index == 1:
            rep.add("chi_1_vs_xi", True,
                    f"exception, skipped: stored {c.chi}, -xi(theta_1^vee) = {chi_from_xi}")
        else:
            rep.add(f"chi_{c.index}_vs_xi", chi_from_xi == c.chi,
                    f"-xi(theta_{c.index}^vee) = {chi_from_xi}, stored {c.chi}")
        rep.add(f"theta_{c.index}_perp_theta",
                entry.form(c.theta, entry.theta) == 0)
        # eta_i = delta - theta_i: affine pairing against nu_hat + rho_hat must
        # come out as M_i(k)+chi_i+1 at every k; both sides are affine in k, so
        # two sample points pin the identity.
        okk, rt = True, entry.form(entry.rho_natural, c.theta)
        for k in (Q(-1) - entry.h_vee, Q(-7, 3) - entry.h_vee):
            lhs = (2 / c.u) * ((k + entry.h_vee) - rt)
            m_i = (2 / c.u) * (k + (entry.h_vee - c.hbar_vee) / 2)
            okk = okk and lhs == m_i + c.chi + 1
        rep.add(f"eta_{c.index}_pairing", okk,
                "N_i(k,0) = M_i(k)+chi_i+1 at sample levels")

    mx = max(entry.form(entry.rho_natural, g) for g, _ in entry.delta_prime)
    if entry.id.family in _TABLE4_FAMILIES:
        rep.add("threshold_identity", 2 * mx + entry.h_vee == 1,
                f"max(rho^nat|gamma) = {mx}")
    else:
        rep.add("threshold_identity", True,
                f"not applicable; max(rho^nat|gamma) = {mx}")

    # The simple roots a of g^nat, each read once, and the weights they
    # act on, as ints over one denominator D: v = V / D.  The coroot pairing
    # 2(v|a)/(a|a) is then 2 c.V / c.A, with c the int covector of (a|.)
    # (`_covector`; its denominator and D cancel), and the reflection of v,
    # V - (2 c.V / c.A) A, is compared with Delta' at the scale c.A, where
    # it is the ints (c.A) V - 2 (c.V) A whether or not it lies on the
    # lattice.  This is `weyl_reflect` and `coroot_pairing` without a
    # `Fraction`.
    simple, dprime = entry.simple_roots_natural, entry.delta_prime
    D = math.lcm(*[c.denominator for v in (entry.xi, *simple, *(g for g, _ in dprime)) for c in v])

    def ints(v):
        return tuple([c.numerator * (D // c.denominator) for c in v])

    roots = []  # (c, A, c.A) per simple root; c.A != 0, as g^nat's roots are even
    for a in simple:
        A = ints(a)
        cov = entry._covector(D, A)[1]
        roots.append((cov, A, _dot(cov, A)))

    xi = ints(entry.xi)
    xi_ps = [Q(2 * _dot(cov, xi), aa) for cov, _, aa in roots]
    rep.add("xi_dominant", all(p >= 0 and p.denominator == 1 for p in xi_ps))
    rep.add("xi_in_delta_prime", any(g == entry.xi for g, _ in dprime))
    rep.add("epsilon_flag", (entry.epsilon == 2) == any(g.is_zero() for g, _ in dprime))
    rep.add("delta_prime_dim", sum(m for _, m in dprime) == entry.dim_g_half)

    mult = {}
    for g, m in dprime:
        V = ints(g)
        mult[V] = mult.get(V, 0) + m

    def closed_under(cov, A, aa):
        scaled = {tuple([aa * v for v in V]): m for V, m in mult.items()}
        for V, m in mult.items():
            p = 2 * _dot(cov, V)
            if scaled.get(tuple([aa * v - p * x for v, x in zip(V, A)]), 0) != m:
                return False
        return True

    rep.add("delta_prime_weyl_closed", all(closed_under(*root) for root in roots))

    rep.add("iso_simple_count",
            sum(1 for rt, p in entry.simple_roots
                if p == 1 and entry.form(rt, rt) == 0) == entry.iso_simple_count)
    return rep
