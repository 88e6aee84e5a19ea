"""Root-system and form data for the Lie superalgebras carrying a minimal
parity-compatible grading.

Every family is realized in a fixed epsilon/delta coordinate basis; the
invariant form is a rational Gram matrix in that basis, normalized so the
highest root theta has square norm 2.  All further data (simple roots of the
centralizer g^nat, its highest roots theta_i, the weights Delta' of the odd
half-space, rho^nat, xi, super-dimension, dual Coxeter numbers) is stored per
family and cross-validated by `validate`.

Weights are plain tuples of Fraction wrapped in `Vec` for componentwise
arithmetic.  Entries are immutable; concurrent reads are safe.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import CriticalLevel, IsotropicCoroot, ParameterOutOfRange

Q = Fraction

FAMILIES = ("psl22", "sl2m", "spo2m", "osp4m", "D21a", "F4", "G3")


class Vec(tuple):
    """Weight in the fixed coordinate basis; componentwise exact arithmetic."""

    def __new__(cls, coords: Iterable) -> "Vec":
        return super().__new__(cls, (Q(c) for c in coords))

    def __add__(self, other):
        return Vec(a + b for a, b in zip(self, other))

    def __radd__(self, other):
        if other == 0:  # allow sum()
            return self
        return self.__add__(other)

    def __sub__(self, other):
        return Vec(a - b for a, b in zip(self, other))

    def __neg__(self):
        return Vec(-a for a in self)

    def __mul__(self, c):
        return Vec(a * Q(c) for a in self)

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return all(a == 0 for a in self)


def zero_vec(n: int) -> Vec:
    return Vec([0] * n)


def basis_vec(n: int, i: int, c=1) -> Vec:
    v = [Q(0)] * n
    v[i] = Q(c)
    return Vec(v)


@dataclass(frozen=True)
class AlgebraId:
    """Family tag plus parameters.

    m is used by sl2m (m >= 3), spo2m (m >= 3, m != 4: spo(2|4) is
    D(2,1;1)), and osp4m (even m > 2).  D21a stores a = a_num/a_den as a
    reduced positive rational.
    """

    family: str
    m: int = 0
    a_num: int = 0
    a_den: int = 0

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ParameterOutOfRange(f"unknown family {self.family!r}")
        if self.family == "sl2m" and self.m < 3:
            raise ParameterOutOfRange("sl(2|m) needs m >= 3")
        if self.family == "spo2m":
            if self.m < 3:
                raise ParameterOutOfRange("spo(2|m) needs m >= 3")
            if self.m == 4:
                raise ParameterOutOfRange(
                    "spo(2|4) is isomorphic to D(2,1;1); use D21a with a = 1")
        if self.family == "osp4m" and (self.m <= 2 or self.m % 2):
            raise ParameterOutOfRange("osp(4|m) needs even m > 2")
        if self.family == "D21a":
            if self.a_num <= 0 or self.a_den <= 0:
                raise ParameterOutOfRange("D(2,1;a) needs a positive rational a")
            if gcd(self.a_num, self.a_den) != 1:
                raise ParameterOutOfRange("a_num/a_den must be reduced")

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
    g = gcd(num, den) if num > 0 and den > 0 else 1
    return AlgebraId("D21a", a_num=num // g, a_den=den // g)


def f4() -> AlgebraId:
    return AlgebraId("F4")


def g3() -> AlgebraId:
    return AlgebraId("G3")


@dataclass(frozen=True)
class NaturalComponent:
    """One ideal of g^nat: a simple component, or the 1-dim center of sl(2|m)."""

    index: int
    simple_roots: tuple            # simple roots of this component (empty for center)
    theta: Optional[Vec]           # highest root; None for the center
    u: Fraction                    # (theta_i|theta_i), or 2 for the center
    hbar_vee: Fraction             # half Casimir eigenvalue w.r.t. the ambient form
    chi: Fraction                  # (h_vee - hbar_vee)/u


@dataclass(frozen=True)
class CatalogEntry:
    id: AlgebraId
    n: int                               # coordinate dimension
    coord_names: tuple
    gram: tuple                          # symmetric rational matrix, tuple of Vec rows
    simple_roots: tuple                  # ((Vec, parity 0|1), ...) for g itself
    theta: Vec
    sdim: Fraction
    h_vee: Fraction
    center: Optional[NaturalComponent]
    components: tuple                    # simple components, indices 1..s
    rho_natural: Vec
    xi: Vec
    delta_prime: tuple                   # ((Vec, multiplicity), ...)
    epsilon: int                         # 2 iff 0 lies in delta_prime
    pos_roots_natural: tuple
    simple_roots_natural: tuple          # simple roots of g^nat (all components)
    iso_simple_count: int
    dim_g_half: int

    # -- bilinear form ----------------------------------------------------
    def form(self, lam: Sequence, mu: Sequence) -> Fraction:
        if len(lam) != self.n or len(mu) != self.n:
            raise ParameterOutOfRange(
                f"{self.id.label()} weights have {self.n} coordinates")
        g = self.gram
        return sum(Q(a) * sum(g[i][j] * Q(b) for j, b in enumerate(mu))
                   for i, a in enumerate(lam))

    def coroot_pairing(self, lam: Sequence, alpha: Sequence) -> Fraction:
        aa = self.form(alpha, alpha)
        if aa == 0:
            raise IsotropicCoroot("coroot pairing against an isotropic root")
        return 2 * self.form(lam, alpha) / aa

    def restrict(self, v: Vec) -> Vec:
        """Canonical representative of the restriction of v to h^nat: the
        orthogonal projection onto the span of the roots of g^nat."""
        rows = _root_span_projection(self.id)[0]
        return Vec(sum(r[j] * v[j] for j in range(len(v))) for r in rows)

    # -- level scalars ------------------------------------------------------
    def shifted_level(self, k) -> Fraction:
        """k + h_vee, the denominator of every level formula; raises
        CriticalLevel at the critical level k = -h_vee."""
        kh = Q(k) + self.h_vee
        if kh == 0:
            raise CriticalLevel(f"k = -h_vee = {-self.h_vee} for {self.id.label()}")
        return kh

    def casimir(self, nu: Vec) -> Fraction:
        """(nu|nu+2rho^nat), the Casimir term of the thresholds and of the
        singular and lowest conformal weights."""
        return self.form(nu, nu + 2 * self.rho_natural)

    # -- weights ----------------------------------------------------------
    def is_dominant_integral(self, nu: Vec) -> bool:
        for a in self.simple_roots_natural:
            p = self.coroot_pairing(nu, a)
            if p < 0 or p.denominator != 1:
                return False
        return True

    def theta_pairings(self, nu: Vec) -> list:
        """nu(theta_i^vee) for the simple components, in index order."""
        return [self.coroot_pairing(nu, c.theta) for c in self.components]

    def weyl_reflect(self, v: Vec, alpha: Vec) -> Vec:
        return v - self.coroot_pairing(v, alpha) * alpha

    def finite_weyl_orbit(self, v: Vec) -> set:
        """Orbit of v under the finite Weyl group of g^nat."""
        seen = {v}
        frontier = [v]
        while frontier:
            w = frontier.pop()
            for a in self.simple_roots_natural:
                w2 = self.weyl_reflect(w, a)
                if w2 not in seen:
                    seen.add(w2)
                    frontier.append(w2)
        return seen

    def nu_from_labels(self, labels: Sequence) -> Vec:
        """Family-specific highest-weight labels -> coordinate vector.

        psl22/spo2m(m=3): [r] with nu = r*theta_1/2; D21a: [r1, r2] with
        nu = r1*theta_1/2 + r2*theta_2/2; F4/G3/spo2m(m>4): epsilon-basis
        coefficients (delta-coordinate fixed to 0).
        """
        lab = [Q(x) for x in labels]
        fam = self.id.family
        if fam in ("psl22",) or (fam == "spo2m" and self.id.m == 3):
            (r,) = lab
            return Q(r, 2) * self.components[0].theta
        if fam == "D21a":
            r1, r2 = lab
            return Q(r1, 2) * self.components[0].theta + Q(r2, 2) * self.components[1].theta
        if fam == "spo2m":
            pad = self.n - 1 - len(lab)
            if pad < 0:
                raise ParameterOutOfRange("too many labels")
            return Vec([Q(0)] + lab + [Q(0)] * pad)
        if fam == "F4":
            return Vec(lab + [Q(0)])
        if fam == "G3":
            return Vec(lab + [Q(0)])
        if fam == "sl2m":
            # center charge followed by sl_m epsilon-free row of delta coords
            pad = self.n - 2 - len(lab)
            if pad < 0:
                raise ParameterOutOfRange("too many labels")
            return Vec([Q(0), Q(0)] + lab + [Q(0)] * pad)
        if fam == "osp4m":
            # [c, b_1..b_{m/2}]: c*(eps1-eps2)/2 + sum b_j delta_j
            c, rest = lab[0], lab[1:]
            pad = self.n - 2 - len(rest)
            if pad < 0:
                raise ParameterOutOfRange("too many labels")
            return Vec([Q(c, 2), -Q(c, 2)] + rest + [Q(0)] * pad)
        raise ParameterOutOfRange(fam)


def _diag_gram(diag: Sequence) -> tuple:
    n = len(diag)
    return tuple(Vec([diag[i] if i == j else 0 for j in range(n)]) for i in range(n))


def _so_roots(n_coords: int, offset: int, rank: int, odd_dim: bool):
    """Positive roots and simple roots of so(2*rank(+1)) in coords offset..offset+rank-1."""
    e = lambda i, c=1: basis_vec(n_coords, offset + i, c)
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
    e = lambda i, c=1: basis_vec(n_coords, offset + i, c)
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


@lru_cache(maxsize=None)
def lookup(aid: AlgebraId) -> CatalogEntry:
    """Fully populated catalog entry for the given algebra."""
    fam = aid.family
    if fam == "psl22":
        n = 4
        e1, e2, d1, d2 = (basis_vec(n, i) for i in range(4))
        gram = _diag_gram([1, 1, -1, -1])
        th1 = d1 - d2
        xi = Q(1, 2) * th1
        comp = NaturalComponent(1, (th1,), th1, Q(-2), Q(-2), Q(-1))
        return CatalogEntry(
            id=aid, n=n, coord_names=("e1", "e2", "d1", "d2"), gram=gram,
            simple_roots=((e1 - d1, 1), (th1, 0), (d2 - e2, 1)),
            theta=e1 - e2, sdim=Q(-2), h_vee=Q(0), center=None,
            components=(comp,), rho_natural=Q(1, 2) * th1, xi=xi,
            delta_prime=((xi, 2), (-xi, 2)), epsilon=1,
            pos_roots_natural=(th1,), simple_roots_natural=(th1,),
            iso_simple_count=2, dim_g_half=4)

    if fam == "sl2m":
        m = aid.m
        n = m + 2
        e1, e2 = basis_vec(n, 0), basis_vec(n, 1)
        d = [basis_vec(n, 2 + i) for i in range(m)]
        gram = _diag_gram([1, 1] + [-1] * m)
        pos, simple_nat = _sl_roots(n, 2, m)
        th1 = d[0] - d[m - 1]
        simple = [(e1 - d[0], 1)] + [(d[i] - d[i + 1], 0) for i in range(m - 1)] + [(d[m - 1] - e2, 1)]
        center = NaturalComponent(0, (), None, Q(2), Q(0), Q(2 - m, 2))
        comp = NaturalComponent(1, tuple(simple_nat), th1, Q(-2), Q(-m), Q(-1))
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
            dim_g_half=2 * m)

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
        comp1 = NaturalComponent(1, (th1,), th1, Q(2), Q(2), Q(-m, 2))
        comp2 = NaturalComponent(2, tuple(sp_simple), th2, Q(-4), Q(-m - 2), Q(-1))
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
            iso_simple_count=1, dim_g_half=2 * m)

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
        else:
            th1, u1, hbar1, chi1 = e[0] + e[1], Q(-1), Q(1 - Q(m, 2)), Q(-1)
        comp = NaturalComponent(1, tuple(simple_nat), th1, u1, hbar1, chi1)
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
            iso_simple_count=1, dim_g_half=m)

    if fam == "D21a":
        a = aid.a
        n = 3
        e1, e2, e3 = (basis_vec(n, i) for i in range(3))
        gram = _diag_gram([Q(1, 2), -1 / (2 * (1 + a)), -a / (2 * (1 + a))])
        th1, th2 = 2 * e2, 2 * e3
        u1, u2 = -2 / (1 + a), -2 * a / (1 + a)
        comp1 = NaturalComponent(1, (th1,), th1, u1, u1, Q(-1))
        comp2 = NaturalComponent(2, (th2,), th2, u2, u2, Q(-1))
        dprime = tuple((Vec([0, s1, s2]), 1) for s1 in (1, -1) for s2 in (1, -1))
        return CatalogEntry(
            id=aid, n=n, coord_names=("e1", "e2", "e3"), gram=gram,
            simple_roots=((e1 - e2 - e3, 1), (th1, 0), (th2, 0)),
            theta=2 * e1, sdim=Q(1), h_vee=Q(0), center=None,
            components=(comp1, comp2), rho_natural=e2 + e3, xi=e2 + e3,
            delta_prime=dprime, epsilon=1,
            pos_roots_natural=(th1, th2), simple_roots_natural=(th1, th2),
            iso_simple_count=1, dim_g_half=4)

    if fam == "F4":
        n = 4
        e = [basis_vec(n, i) for i in range(3)]
        dlt = basis_vec(n, 3)
        gram = _diag_gram([Q(-2, 3)] * 3 + [Q(2)])
        pos, simple_nat = _so_roots(n, 0, 3, True)
        th1 = e[0] + e[1]
        comp = NaturalComponent(1, tuple(simple_nat), th1, Q(-4, 3), Q(-10, 3), Q(-1))
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
            iso_simple_count=1, dim_g_half=8)

    if fam == "G3":
        # eps3 = -eps1-eps2 eliminated; coords (eps1, eps2, delta1)
        n = 3
        e1, e2, dlt = (basis_vec(n, i) for i in range(3))
        gram = (Vec([Q(-1, 2), Q(1, 4), 0]),
                Vec([Q(1, 4), Q(-1, 2), 0]),
                Vec([0, 0, Q(1, 2)]))
        alpha, beta = e1, e2 - e1
        pos = (alpha, beta, e2, e1 + e2, 2 * e1 + e2, e1 + 2 * e2)
        th1 = e1 + 2 * e2
        comp = NaturalComponent(1, (alpha, beta), th1, Q(-3, 2), Q(-3), Q(-1))
        dprime = ((zero_vec(n), 1), (e1, 1), (-e1, 1), (e2, 1), (-e2, 1),
                  (e1 + e2, 1), (-(e1 + e2), 1))
        return CatalogEntry(
            id=aid, n=n, coord_names=("e1", "e2", "d1"), gram=gram,
            simple_roots=((dlt - e1 - e2, 1), (alpha, 0), (beta, 0)),
            theta=2 * dlt, sdim=Q(3), h_vee=Q(-3, 2), center=None,
            components=(comp,), rho_natural=2 * e1 + 3 * e2, xi=e1 + e2,
            delta_prime=dprime, epsilon=2,
            pos_roots_natural=pos, simple_roots_natural=(alpha, beta),
            iso_simple_count=1, dim_g_half=7)

    raise ParameterOutOfRange(fam)


# ---------------------------------------------------------------------------
# restriction to h^nat


def _solve_exact(mat, rhs_cols):
    """Gaussian elimination: invert `mat` against several right-hand sides."""
    r = len(mat)
    aug = [list(mat[i]) + list(rhs_cols[i]) for i in range(r)]
    w = len(aug[0])
    for col in range(r):
        piv = next(i for i in range(col, r) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(r):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[r:w] for row in aug]


@lru_cache(maxsize=None)
def _root_span_projection(aid: AlgebraId) -> tuple:
    """(projection rows, depth covector) from one exact solve.

    The solve gives the coefficients c(v) of the projection of v on the
    simple roots of g^nat; the projection is sum_i c_i(v) s_i, and the depth
    covector is the coefficient sum, i.e. the column sums of c."""
    entry = lookup(aid)
    s = entry.simple_roots_natural
    r, n = len(s), entry.n
    gram_rel = [[entry.form(s[i], s[j]) for j in range(r)] for i in range(r)]
    # rows of S*G: pairings of the coordinate basis against the simple roots
    sg = [[sum(entry.gram[a][b] * s[i][b] for b in range(n)) for a in range(n)]
          for i in range(r)]
    coeffs = _solve_exact(gram_rel, sg)  # r x n: c(v) = Grel^{-1} S G v
    proj = [Vec(sum(s[i][a] * coeffs[i][j] for i in range(r)) for j in range(n))
            for a in range(n)]
    return proj, Vec(sum(col) for col in zip(*coeffs))


# ---------------------------------------------------------------------------
# self-validation


@dataclass
class ValidationCheck:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    entry: CatalogEntry
    checks: list = field(default_factory=list)

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
    rep.add("theta_norm", entry.form(entry.theta, entry.theta) == 2,
            f"(theta|theta) = {entry.form(entry.theta, entry.theta)}")

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
        okk = True
        for k in (Q(-1) - entry.h_vee, Q(-7, 3) - entry.h_vee):
            lhs = (2 / c.u) * ((k + entry.h_vee)
                               - entry.form(entry.rho_natural, c.theta))
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

    rep.add("xi_dominant", entry.is_dominant_integral(entry.xi))
    rep.add("xi_in_delta_prime", any(g == entry.xi for g, _ in entry.delta_prime))
    rep.add("epsilon_flag",
            (entry.epsilon == 2) == any(g.is_zero() for g, _ in entry.delta_prime))
    rep.add("delta_prime_dim",
            sum(mult for _, mult in entry.delta_prime) == entry.dim_g_half)

    mult = {}
    for g, mlt in entry.delta_prime:
        mult[g] = mult.get(g, 0) + mlt
    closed = all(mult.get(entry.weyl_reflect(g, a), 0) == m
                 for g, m in mult.items() for a in entry.simple_roots_natural)
    rep.add("delta_prime_weyl_closed", closed)

    rep.add("iso_simple_count",
            sum(1 for rt, p in entry.simple_roots
                if p == 1 and entry.form(rt, rt) == 0) == entry.iso_simple_count)
    return rep
