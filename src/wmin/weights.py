"""Dominance, level bounds, extremality, and the unitarity thresholds.

The thresholds and singular weights are one lowest-energy quadratic,
ell(h) = (nu|nu+2rho^nat)/(2(k+h)) + h(h-k-1)/(k+h), with one evaluator,
`_ell_ints`, which gives ell(h) as one int numerator over one int
denominator: A = ell((xi|nu)) (`_threshold`), B = ell((k+1)/2), the
singular weights h_even and h_odd at their int-pair arguments
(`unitarity._h_even`, `_h_odd`) and `ell_of_h` read it, and `h_pair`
inverts it.  Its scalars, (xi|nu) and the Casimir term, and nu's coroot
pairings come from one per-request pass over nu (`CatalogEntry._scalars`),
as ints over their denominators, and the level's scalars, k and k + h_vee
among them, from the level record (`levels._level`), as int pairs: the
P^+_k and extremality tests are int comparisons, and a value x - A, for
x = l0 or a singular weight, is one int numerator over a positive int
denominator (`_excess`, the one comparison with A), whose sign decides
the tests l0 <= A (the massive precondition), l0 = A and l0 >= A
(`decide`) and h <= A (`sign2_scan`); the callers that publish a value
divide its int pair once into a `Fraction`, as the closed forms
`_A_explicit` are."""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import List, Optional, Tuple

from .catalog import AlgebraId, CatalogEntry, Vec, _NuScalars, _dot, _solve, _vec, lookup
from .errors import CharacterizationMismatch, PreconditionViolated, TruncationIncomplete
from .levels import _Level, _ranged, _record
from .rationals import as_rational, format_rational

Q = Fraction


def _thetas(entry: CatalogEntry, ps: list) -> list:
    """nu(theta_i^vee) per component from nu's level-0 pairings `ps` (eta_i: minus it)."""
    return [-p for p in ps[len(entry.simple_roots_natural):]]


def _in_P_plus(entry: CatalogEntry, ms: tuple, d: int, ps: list) -> bool:
    """nu dominant integral with nu(theta_i^vee) <= M_i(k), read off nu's
    int pairings `ps` over d > 0 and the int pairs ms of the M_i(k) of the
    simple components (`levels._Level.m_ints`).  The level must lie in the
    unitarity range.

    Int comparisons, exact since d > 0 and M_i(k) = num/den with den > 0:
    p/d is a non-negative int exactly when p >= 0 and d divides p, and
    nu(theta_i^vee) = -p/d <= num/den exactly when -p * den <= num * d."""
    r = len(entry.simple_roots_natural)
    for p in ps[:r]:
        if p < 0 or p % d:
            return False
    for p, (mn, md) in zip(ps[r:], ms):
        if -p * md > mn * d:
            return False
    return True


def _plus_xi(entry: CatalogEntry, sc: _NuScalars) -> tuple:
    """(D, ps): the level-0 pairings of nu + xi as the ints ps over D > 0.
    Pairings are linear, so they are nu's, p/d, plus xi's, q/e
    (`CatalogEntry._xi_ints`), each (p e + q d) over D = d e."""
    e, xs = entry._xi_ints
    d = sc.d
    return d * e, [p * e + q * d for p, q in zip(sc.ps, xs)]


def _is_extremal(entry: CatalogEntry, rec: _Level, sc: _NuScalars) -> bool:
    """nu+xi falls outside P^+_k, for nu in P^+_k with level record `rec`
    (`levels._level`) and scalars `sc` (`CatalogEntry._scalars`): the P^+_k
    test of `_in_P_plus` on nu+xi's int pairings, each formed as the loop
    reaches it and the loop left at the first that fails.  Pairings are
    linear, so nu+xi's are nu's, p/d, plus xi's, q/e (`CatalogEntry._xi_ints`),
    each the int p e + q d over D = d e > 0.  Cross-checked against the chi_i
    test, nu(theta_i^vee) > M_i(k) + chi_i for some i, which with -p/d =
    nu(theta_i^vee) and M_i(k) + chi_i = num/den (d, den > 0; the record's
    `alpha_ints`) is -p * den > num * d."""
    e, xs = entry._xi_ints
    d, ps = sc.d, sc.ps
    D, r = d * e, len(entry.simple_roots_natural)
    by_def = False
    for p, q in zip(ps[:r], xs):
        p = p * e + q * d
        if p < 0 or p % D:
            by_def = True
            break
    else:
        for p, q, (mn, md) in zip(ps[r:], xs[r:], rec.m_ints):
            if -(p * e + q * d) * md > mn * D:
                by_def = True
                break
    s = len(entry.components)
    by_chi = False
    for p, (an, ad) in zip(ps[-s:], rec.alpha_ints):
        if -p * ad > an * d:
            by_chi = True
            break
    if by_def != by_chi:
        raise CharacterizationMismatch(
            f"extremality tests disagree for {entry.id.label()}, k={rec.data.k}: "
            f"nu+xi test {by_def}, chi test {by_chi}")
    return by_def


def _P_plus_data(entry: CatalogEntry, k, nu: Vec) -> Optional[Tuple[_Level, _NuScalars]]:
    """(level record, nu's scalars) when nu lies in P^+_k of the entry's
    family, else None; the record is `levels._level`, the scalars the
    per-request pass `CatalogEntry._scalars`.  Raises on a weight of the
    wrong length, at every level."""
    entry._check_length(nu)
    rec = _ranged(entry.id, as_rational(k))
    if rec is None:
        return None
    sc = entry._scalars(nu)
    return (rec, sc) if _in_P_plus(entry, rec.m_ints, sc.d, sc.ps) else None


def in_P_plus_k(g: AlgebraId, k, nu: Vec) -> bool:
    """nu dominant integral for g^nat with nu(theta_i^vee) <= M_i(k) for all i >= 1."""
    return _P_plus_data(lookup(g), k, nu) is not None


def is_extremal(g: AlgebraId, k, nu: Vec) -> bool:
    """nu+xi falls outside P^+_k; cross-checked against the chi_i test."""
    entry = lookup(g)
    data = _P_plus_data(entry, k, nu)
    if data is None:
        raise PreconditionViolated("is_extremal requires nu in P^+_k")
    return _is_extremal(entry, *data)


def _ell_ints(h: tuple, rec: _Level, cas: tuple) -> tuple:
    """The lowest-energy quadratic cas/(2(k+h)) + h(h-k-1)/(k+h) as one
    int numerator over one nonzero int denominator, not reduced, with h and
    cas = (nu|nu+2rho^nat) given as (numerator, denominator > 0) int pairs,
    and k and kh = k+h_vee (nonzero) as the int pairs of the level record
    `rec` (`levels._level`, `k_ints` and `kh_ints`, denominators > 0).

    Exactness.  ell = (cas/2 + h(h-k-1))/kh.  With h = hn/hd, cas = cn/cd,
    k = kn/kd and kh = khn/khd, h(h-k-1) = hn (hn kd - (kn+kd) hd)/(hd^2 kd),
    so over the one denominator 2 cd hd^2 kd,
        ell = (cn hd^2 kd + 2 cd hn (hn kd - (kn+kd) hd)) khd
              / (2 cd hd^2 kd khn).
    Numerator and denominator are int products and sums, exact, with
    den != 0 since every denominator is nonzero and khn != 0 off the
    critical level; den has the sign of khn, as cd, hd^2 and kd are
    positive.  No division is made here: a caller that publishes ell(h)
    divides once, `Fraction(*_ell_ints(...))`, which divides out the gcd and
    moves the sign to the numerator, so it is the one reduced `Fraction` of
    that value, the same one the term-by-term `Fraction` evaluation gives,
    whatever pairs (reduced or not) stand for h, k and kh."""
    (hn, hd), (kn, kd), (khn, khd), (cn, cd) = h, rec.k_ints, rec.kh_ints, cas
    return ((cn * hd * hd * kd + 2 * cd * hn * (hn * kd - (kn + kd) * hd)) * khd,
            2 * cd * hd * hd * kd * khn)


def _threshold(rec: _Level, sc: _NuScalars) -> tuple:
    """A(k,nu) = ell((xi|nu)) as an int numerator over a nonzero int
    denominator (`_ell_ints`), from the level record `rec` (`levels._level`)
    and nu's scalars `sc` (`CatalogEntry._scalars`): (xi|nu) and the
    Casimir term are the ints over their positive denominators that the
    pass gives, and k and k + h_vee the record's int pairs, k + h_vee
    nonzero.  `Fraction(*_threshold(rec, sc))` is A, one division (see
    `_ell_ints`); the denominator has the sign of k + h_vee."""
    return _ell_ints(sc.xn, rec, sc.cas)


def _excess(x: tuple, a: tuple) -> tuple:
    """x - A as an int numerator over a positive int denominator, not
    reduced, for x = xn/xd and A = an/ad given as int pairs with nonzero
    denominators of either sign (l0's reduced pair, a singular weight's
    `_ell_ints` pair, A's `_threshold` pair): the one comparison of a value
    with A.  x - A = (xn ad - an xd)/(xd ad), and both are multiplied by
    the sign of xd ad != 0.  So the numerator has the sign of x - A, and
    `Fraction(*_excess(x, a))` is x - A, one division.  ad has the sign of
    k + h_vee, which is negative at every level of a unitarity range
    (k <= -2/3 and h_vee <= 1/2, `levels._ranged`), but both signs are
    handled, so nothing rests on that."""
    (xn, xd), (an, ad) = x, a
    d = xd * ad
    if d > 0:
        return xn * ad - an * xd, d
    return an * xd - xn * ad, -d


def A_bound(g: AlgebraId, k, nu: Vec) -> Fraction:
    """Threshold A(k,nu) = ell((xi|nu)), with ell the quadratic `_ell_ints`."""
    return Q(*_threshold(_record(g, k), lookup(g)._scalars(nu)))


def B_bound(g: AlgebraId, k, nu: Vec) -> Fraction:
    """Free-field sufficiency threshold ell((k+1)/2) =
    (nu|nu+2rho^nat)/(2(k+h)) - (k+1)^2/(4(k+h)), at the level record
    (`levels._level`, which raises CriticalLevel at k = -h_vee): with k =
    kn/kd, kd > 0, the argument (k+1)/2 is the int pair (kn + kd, 2 kd),
    exact, and `_ell_ints` evaluates ell there, divided once."""
    entry, rec = lookup(g), _record(g, k)
    kn, kd = rec.k_ints
    return Q(*_ell_ints((kn + kd, 2 * kd), rec, entry._scalars(nu).cas))


def A_explicit(g: AlgebraId, k, nu: Vec) -> Fraction:
    """Per-family closed form of the threshold, written in the natural labels.

    Independent evaluation path: reads the label parametrization off the
    coordinates and plugs into the per-family rational expression.  For G3 the
    published expression fails against the norm formula of the G-mode
    computation (its numerator coefficients are not reproducible from the root
    data); the closed form below is the one consistent with that data.
    """
    entry = lookup(g)
    entry.shifted_level(k)  # CriticalLevel guard
    sc = entry._scalars(nu)
    return _A_explicit(entry, as_rational(k), sc.d, sc.x, sc.ps)


def _A_explicit(entry: CatalogEntry, k: Fraction, d: int, x: list, ps: list) -> Fraction:
    """`A_explicit` at a noncritical level, from nu = x / d (d > 0) and its
    level-0 pairings ps over d: one int numerator over one int denominator,
    divided once.  It reads nu's coordinates or its theta_i pairings
    R_i = -p (so nu(theta_i^vee) = R_i / d), k = kn/kd and, for D(2,1;a),
    a = an/ad; never the threshold's quadratic or its covectors, so
    A == A_explicit compares two routes.  Each form below is the per-family
    `Fraction` expression it replaced (kept in the tests as the oracle) with
    numerator and denominator multiplied by the one factor shown, which
    clears every denominator; where that denominator vanishes (spo2m at
    k = (m-4)/2, D(2,1;a) at k = 0, F4 at k = 2, G3 at k = 3/2) both raise
    ZeroDivisionError.  Exactness as in `_ell_ints`: int arithmetic, then one
    `Fraction`.

    psl22: theta_1/2 = R_1/(2d).  spo2m(3): theta_1/4 = R_1/(4d).

    spo2m(m > 4), with n_i = y_i/d the coordinates 1..m/2 and r = n_1:
        (r (2k + r + 2) - s) / (2 (2k - m + 4)),
        s = sum_i n_i (n_i + m - 2i);
    times d^2 kd: (y_1 (2 kn d + (y_1 + 2d) kd) - kd S)
                  / (2 d^2 (2 kn - (m - 4) kd)),  S = sum_i y_i (y_i + (m - 2i) d).

    D(2,1;a), with r_i = R_i/d:
        (2 (a+1) k (a r_2 + r_1) - a (r_1 - r_2)^2) / (4 (a+1)^2 k);
    times ad^2 kd d^2: (2 (an+ad) kn (an R_2 + ad R_1) d - an ad kd (R_1 - R_2)^2)
                       / (4 (an+ad)^2 kn d^2).

    F4, with r_i = y_i/d the first three coordinates and c = 3k/2:
        (6 r_1 + 3 r_2 - c (r_1 + r_2 + r_3) + r_1 (r_1 - r_2 - r_3)
         + r_2 (r_2 - r_3) + r_3^2) / (9 - 3c);
    times 2 kd d^2: (d (kd (12 y_1 + 6 y_2) - 3 kn (y_1 + y_2 + y_3)) + 2 kd T)
                    / (9 d^2 (2 kd - kn)),
    T = y_1 (y_1 - y_2 - y_3) + y_2 (y_2 - y_3) + y_3^2.

    G3, with r_i = y_i/d the first two coordinates:
        (3 (r_1 - r_2)^2 - 4k r_1 + (12 - 4k) r_2) / (8 (3 - 2k));
    times kd d^2: (3 kd (y_1 - y_2)^2 - 4 kn d y_1 + 4 (3 kd - kn) d y_2)
                  / (8 d^2 (3 kd - 2 kn))."""
    g, fam = entry.id, entry.id.family
    kn, kd = k.numerator, k.denominator
    if fam == "psl22":
        return Q(_thetas(entry, ps)[0], 2 * d)
    if fam == "spo2m" and g.m == 3:
        return Q(_thetas(entry, ps)[0], 4 * d)
    if fam == "spo2m":
        m = g.m
        yy = x[1:1 + m // 2]
        S = sum([y * (y + (m - 2 * i) * d) for i, y in enumerate(yy, 1)])
        y1 = yy[0]
        return Q(y1 * (2 * kn * d + (y1 + 2 * d) * kd) - kd * S,
                 2 * d * d * (2 * kn - (m - 4) * kd))
    if fam == "D21a":
        an, ad = g.a_num, g.a_den
        R1, R2 = _thetas(entry, ps)
        return Q(2 * (an + ad) * kn * (an * R2 + ad * R1) * d - an * ad * kd * (R1 - R2) ** 2,
                 4 * (an + ad) ** 2 * kn * d * d)
    if fam == "F4":
        y1, y2, y3 = x[0], x[1], x[2]
        T = y1 * (y1 - y2 - y3) + y2 * (y2 - y3) + y3 * y3
        return Q(d * (kd * (12 * y1 + 6 * y2) - 3 * kn * (y1 + y2 + y3)) + 2 * kd * T,
                 9 * d * d * (2 * kd - kn))
    if fam == "G3":
        y1, y2 = x[0], x[1]
        return Q(3 * kd * (y1 - y2) ** 2 - 4 * kn * d * y1 + 4 * (3 * kd - kn) * d * y2,
                 8 * d * d * (3 * kd - 2 * kn))
    raise PreconditionViolated(f"no closed-form threshold for {fam}")


# ---------------------------------------------------------------------------
# enumeration of P^+_k (used by the CLI scans and the acceptance suite)


P_PLUS_CAP = 10 ** 6  # label vectors walked before TruncationIncomplete is raised


def enumerate_P_plus_k(g: AlgebraId, k) -> List[Vec]:
    """All of P^+_k, exactly, in lexicographic order of the Dynkin labels
    (nu(alpha_1^vee), ..., nu(alpha_r^vee)) over the simple roots of g^nat.
    Empty off the unitarity range; raises `PreconditionViolated` when g^nat
    has a center, on which P^+_k puts no bound, so that it is infinite.

    The label basis (`label_map`) spans h^nat in r = rank vectors; one
    fraction-free solve (`catalog._solve`) of their simple-coroot pairings,
    as ints, gives the fundamental weights omega_j as ints over one
    denominator, and the marks m_ij = omega_j(theta_i^vee) are ints, >= 1 for
    alpha_j in component i and 0 off it.  Completeness: nu = sum_j a_j omega_j
    with a_j = nu(alpha_j^vee), so nu is dominant integral exactly when every
    a_j is an int >= 0, and then nu(theta_i^vee) = sum_j a_j m_ij <= M_i(k)
    is the level bound.  A mark m_ij >= 1 gives a_j <= M_i(k) / m_ij, so the
    box 0 <= a_j <= min_i floor(M_i(k) / m_ij) is finite and holds all of
    P^+_k; the walk keeps the label vectors of the box that meet every bound.
    Each nu is built from its int labels over the omegas' one denominator.
    Both invariants, int marks >= 0 and every listed nu passing the P^+_k
    test (`_in_P_plus`), are checked by raising CharacterizationMismatch,
    so that `python -O` keeps the checks.

    The box holds prod_j (top_j + 1) label vectors, which grows as |k|^r.
    When that is more than P_PLUS_CAP, read at call time as
    `characters.ORBIT_CAP` is, it raises TruncationIncomplete before the
    walk starts rather than run until memory is gone."""
    entry, rec = lookup(g), _ranged(g, as_rational(k))
    if rec is None:
        return []
    if entry.center is not None:
        raise PreconditionViolated(f"P^+_k of {g.label()} is infinite: "
                                   f"g^nat has a center, on which nu is unbounded")
    lv, basis = rec.data, entry.label_map[1]
    r = len(entry.simple_roots_natural)
    # basis_i = x_i / d_i (`_scalars`) and its simple-coroot pairings ps_i / d_i:
    # the solve of the int rows ps_i against diag(d_i) gives the inverse of the
    # pairing matrix, row j omega_j's coefficients over the label basis, as X / p
    scs = [entry._scalars(b) for b in basis]
    p, coeffs = _solve([sc.ps[:r] for sc in scs],
                       [[sc.d if i == j else 0 for j in range(r)] for i, sc in enumerate(scs)])
    # omega_j = sum_i X_ji x_i / (d_i p) = ints[j] / d over one d = e p
    e = math.lcm(*[sc.d for sc in scs])
    d = e * p
    ints = [[sum([c * sc.x[a] * (e // sc.d) for c, sc in zip(row, scs)]) for a in range(entry.n)]
            for row in coeffs]
    marks = [_thetas(entry, [_dot(cov, w) for cov, _ in entry.coroots]) for w in ints]  # times d
    if not all(m % d == 0 and m >= 0 for mk in marks for m in mk):
        raise CharacterizationMismatch(
            f"marks omega_j(theta_i^vee) of {g.label()} are not all non-negative ints: "
            f"{[[format_rational(Q(m, d)) for m in mk] for mk in marks]}")
    marks = [[m // d for m in mk] for mk in marks]
    tops = [min(M // m for M, m in zip(lv.M_simple, mk) if m > 0) for mk in marks]
    box = math.prod(t + 1 for t in tops)
    if box > P_PLUS_CAP:
        raise TruncationIncomplete(
            f"P^+_k walk cap {P_PLUS_CAP} exceeded for {g.label()} at k = {format_rational(lv.k)}: "
            f"a box of {box} label vectors")
    out: List[Vec] = []
    for a in product(*(range(t + 1) for t in tops)):
        if all(sum([x * mk[i] for x, mk in zip(a, marks)]) <= M
               for i, M in enumerate(lv.M_simple)):
            out.append(_vec([Q(sum([x * w[c] for x, w in zip(a, ints)]), d)
                             for c in range(entry.n)]))
    for nu in out:
        sc = entry._scalars(nu)
        if not _in_P_plus(entry, rec.m_ints, sc.d, sc.ps):
            raise CharacterizationMismatch(
                f"enumerated weight ({', '.join(map(format_rational, nu))}) of {g.label()} "
                f"fails the P^+_k test at k = {format_rational(lv.k)}")
    return out
