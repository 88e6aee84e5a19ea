"""Dominance, level bounds, extremality, and the unitarity thresholds.

The thresholds and singular weights are one lowest-energy quadratic, `_ell`:
ell(h) = (nu|nu+2rho^nat)/(2(k+h)) + h(h-k-1)/(k+h), so A = ell((xi|nu)),
B = ell((k+1)/2), and h_even, h_odd, ell_of_h and g_half_norm read it too.
Its scalars, (xi|nu) and the Casimir term, and nu's coroot pairings come
from one per-request pass over nu (`CatalogEntry._scalars`)."""
from __future__ import annotations

import math
from fractions import Fraction
from itertools import product
from typing import List, Optional, Tuple

from .catalog import AlgebraId, CatalogEntry, Vec, _solve_exact, _vec, lookup, zero_vec
from .errors import CharacterizationMismatch, PreconditionViolated
from .levels import LevelData, _Level, _level, _ranged

Q = Fraction


def _thetas(entry: CatalogEntry, ps: list) -> list:
    """nu(theta_i^vee) per component from nu's level-0 pairings `ps` (eta_i: minus it)."""
    return [-p for p in ps[len(entry.simple_roots_natural):]]


def _in_P_plus(entry: CatalogEntry, lv: LevelData, ps: list) -> bool:
    """nu dominant integral with nu(theta_i^vee) <= M_i(k), read off nu's
    pairings `ps`.  The level must lie in the unitarity range."""
    return (all(p >= 0 and p.denominator == 1
                for p in ps[:len(entry.simple_roots_natural)])
            and all(p <= m for p, m in zip(_thetas(entry, ps), lv.M_simple)))


def _is_extremal(entry: CatalogEntry, rec: _Level, sc: tuple) -> bool:
    """nu+xi falls outside P^+_k, for nu in P^+_k with level record `rec`
    (`levels._level`) and scalars `sc` (`CatalogEntry._scalars`): nu+xi
    pairs as nu's pairings plus xi's.  Cross-checked against the chi_i test,
    nu(theta_i^vee) > M_i(k) + chi_i for some i (`LevelData.alpha_levels`)."""
    ps, lv = sc[0], rec.data
    by_def = not _in_P_plus(entry, lv, [p + x for p, x in zip(ps, entry._xi_pairings)])
    by_chi = any(p > a for p, a in
                 zip(_thetas(entry, ps), lv.alpha_levels[-len(entry.components):]))
    if by_def != by_chi:
        raise CharacterizationMismatch(
            f"extremality tests disagree for {entry.id.label()}, k={lv.k}: "
            f"nu+xi test {by_def}, chi test {by_chi}")
    return by_def


def _P_plus_data(g: AlgebraId, k, nu: Vec) -> Optional[Tuple[_Level, tuple]]:
    """(level record, nu's scalars) when nu lies in P^+_k, else None; the
    record is `levels._level`, the scalars the per-request pass
    `CatalogEntry._scalars`, (pairings, (xi|nu), (nu|nu+2rho^nat)).  Raises
    on a weight of the wrong length, at every level."""
    entry = lookup(g)
    entry._check_length(nu)
    rec = _ranged(g, Q(k))
    if rec is None:
        return None
    sc = entry._scalars(nu)
    return (rec, sc) if _in_P_plus(entry, rec.data, sc[0]) else None


def in_P_plus_k(g: AlgebraId, k, nu: Vec) -> bool:
    """nu dominant integral for g^nat with nu(theta_i^vee) <= M_i(k) for all i >= 1."""
    return _P_plus_data(g, k, nu) is not None


def is_extremal(g: AlgebraId, k, nu: Vec) -> bool:
    """nu+xi falls outside P^+_k; cross-checked against the chi_i test."""
    data = _P_plus_data(g, k, nu)
    if data is None:
        raise PreconditionViolated("is_extremal requires nu in P^+_k")
    return _is_extremal(lookup(g), *data)


def _ell(h: Fraction, k: Fraction, kh: Fraction, cas: Fraction) -> Fraction:
    """The lowest-energy quadratic cas/(2(k+h)) + h(h-k-1)/(k+h), with
    kh = k+h_vee and cas = (nu|nu+2rho^nat)."""
    return cas / (2 * kh) + h * (h - k - 1) / kh


def _threshold(rec: _Level, sc: tuple) -> Fraction:
    """A(k,nu) = ell((xi|nu)) from the level record `rec` (`levels._level`)
    and nu's scalars `sc` (`CatalogEntry._scalars`)."""
    _, xn, cas = sc
    return _ell(xn, rec.data.k, rec.kh, cas)


def A_bound(g: AlgebraId, k, nu: Vec) -> Fraction:
    """Threshold A(k,nu) = ell((xi|nu)), with ell the quadratic `_ell`."""
    return _threshold(_level(g, Q(k)), lookup(g)._scalars(nu))


def B_bound(g: AlgebraId, k, nu: Vec) -> Fraction:
    """Free-field sufficiency threshold ell((k+1)/2) =
    (nu|nu+2rho^nat)/(2(k+h)) - (k+1)^2/(4(k+h))."""
    entry = lookup(g)
    kh = entry.shifted_level(k)
    k = Q(k)
    return _ell((k + 1) / 2, k, kh, entry.casimir(nu))


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
    return _A_explicit(entry, Q(k), nu, entry.pairings(0, nu))


def _A_explicit(entry: CatalogEntry, k: Fraction, nu: Vec, ps: list) -> Fraction:
    """`A_explicit` at a noncritical level, with nu's pairings `ps`."""
    g, fam = entry.id, entry.id.family
    if fam == "psl22":
        return Q(_thetas(entry, ps)[0], 2)
    if fam == "spo2m" and g.m == 3:
        return Q(_thetas(entry, ps)[0], 4)
    if fam == "spo2m":
        m = g.m
        nn = nu[1:1 + m // 2]
        # s = sum n_i^2 + 2 sum n_i (m/2 - i), over i = 1..m/2
        s = sum([a * (a + m - 2 * i) for i, a in enumerate(nn, 1)])
        r, k2 = nn[0], 2 * k
        return (r * (k2 + r + 2) - s) / (2 * (k2 - m + 4))
    if fam == "D21a":
        a = g.a
        r1, r2 = _thetas(entry, ps)
        return ((2 * (a + 1) * k * (a * r2 + r1) - a * (r1 - r2) ** 2)
                / (4 * (a + 1) ** 2 * k))
    if fam == "F4":
        r1, r2, r3 = nu[0], nu[1], nu[2]
        c = Q(3, 2) * k
        # r1 (6 - c) + r2 (3 - c) - r3 c + r1^2 + r2^2 + r3^2 - r1 r2 - r1 r3 - r2 r3
        num = (6 * r1 + 3 * r2 - c * (r1 + r2 + r3)
               + r1 * (r1 - r2 - r3) + r2 * (r2 - r3) + r3 * r3)
        return num / (9 - 3 * c)
    if fam == "G3":
        r1, r2 = nu[0], nu[1]
        return (3 * (r1 - r2) ** 2 - 4 * k * r1 + (12 - 4 * k) * r2) / (8 * (3 - 2 * k))
    raise PreconditionViolated(f"no closed-form threshold for {fam}")


# ---------------------------------------------------------------------------
# enumeration of P^+_k (used by the CLI scans and the acceptance suite)


def enumerate_P_plus_k(g: AlgebraId, k) -> List[Vec]:
    """All of P^+_k, exactly, in lexicographic order of the Dynkin labels
    (nu(alpha_1^vee), ..., nu(alpha_r^vee)) over the simple roots of g^nat.
    Empty off the unitarity range; raises `PreconditionViolated` when g^nat
    has a center, on which P^+_k puts no bound, so that it is infinite.

    The label basis (`label_map`) spans h^nat in r = rank vectors; one exact
    solve of their simple-coroot pairings gives the fundamental weights
    omega_j, and the marks m_ij = omega_j(theta_i^vee) are ints, >= 1 for
    alpha_j in component i and 0 off it.  Completeness: nu = sum_j a_j omega_j
    with a_j = nu(alpha_j^vee), so nu is dominant integral exactly when every
    a_j is an int >= 0, and then nu(theta_i^vee) = sum_j a_j m_ij <= M_i(k)
    is the level bound.  A mark m_ij >= 1 gives a_j <= M_i(k) / m_ij, so the
    box 0 <= a_j <= min_i floor(M_i(k) / m_ij) is finite and holds all of
    P^+_k; the walk keeps the label vectors of the box that meet every bound.
    Each nu is built from its int labels over the omegas' one denominator."""
    entry, rec = lookup(g), _ranged(g, Q(k))
    if rec is None:
        return []
    if entry.center is not None:
        raise PreconditionViolated(f"P^+_k of {g.label()} is infinite: "
                                   f"g^nat has a center, on which nu is unbounded")
    lv, basis = rec.data, entry.label_map[1]
    r = len(entry.simple_roots_natural)
    eye = [[int(i == j) for j in range(r)] for i in range(r)]
    # row j of the solve: omega_j's coefficients over the label basis
    coeffs = _solve_exact([entry.pairings(0, b)[:r] for b in basis], eye)
    omegas = [sum((c * b for c, b in zip(row, basis)), zero_vec(entry.n)) for row in coeffs]
    marks = [_thetas(entry, entry.pairings(0, w)) for w in omegas]
    assert all(m.denominator == 1 and m >= 0 for mk in marks for m in mk)
    marks = [[m.numerator for m in mk] for mk in marks]
    d = math.lcm(*(c.denominator for w in omegas for c in w))
    ints = [[(c * d).numerator for c in w] for w in omegas]
    tops = [min(M // m for M, m in zip(lv.M_simple, mk) if m > 0) for mk in marks]
    out: List[Vec] = []
    for a in product(*(range(t + 1) for t in tops)):
        if all(sum([x * mk[i] for x, mk in zip(a, marks)]) <= M
               for i, M in enumerate(lv.M_simple)):
            out.append(_vec([Q(sum([x * w[c] for x, w in zip(a, ints)]), d)
                             for c in range(entry.n)]))
    assert all(_in_P_plus(entry, lv, entry.pairings(0, nu)) for nu in out)
    return out
