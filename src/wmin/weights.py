"""Dominance, level bounds, extremality, and the unitarity thresholds.

The thresholds and singular weights are one lowest-energy quadratic, `_ell`:
ell(h) = (nu|nu+2rho^nat)/(2(k+h)) + h(h-k-1)/(k+h), so A = ell((xi|nu)),
B = ell((k+1)/2), and h_even, h_odd, ell_of_h and g_half_norm read it too.
Its scalars, (xi|nu) and the Casimir term, and nu's coroot pairings come
from one per-request pass over nu (`CatalogEntry._scalars`)."""
from __future__ import annotations

from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

from .catalog import AlgebraId, CatalogEntry, Vec, lookup, zero_vec
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


def _dominant_so(rank: int, bound: Fraction, odd_dim: bool) -> Iterator[tuple]:
    """so-dominant tuples n_1 >= ... >= n_rank >= 0 with n_1 + n_2 <= bound,
    entries all integer or all half-integer; for even orthogonal algebras the
    last entry may also occur with flipped sign."""
    assert rank >= 2
    if bound < 0:
        return
    b2 = int(2 * Q(bound))  # levels are integers, so 2*bound is an even int

    def rec(prefix: List[int], parity: int) -> Iterator[tuple]:
        i = len(prefix)
        if i == rank:
            yield tuple(Q(t, 2) for t in prefix)
            return
        if i == 0:
            top = b2
        elif i == 1:
            top = min(prefix[0], b2 - prefix[0])
        else:
            top = prefix[-1]
        for t in range(parity, top + 1, 2):
            yield from rec(prefix + [t], parity)

    for parity in (0, 1):
        for tup in rec([], parity):
            yield tup
            if not odd_dim and tup[-1] > 0:
                yield tup[:-1] + (-tup[-1],)


def enumerate_P_plus_k(g: AlgebraId, k) -> List[Vec]:
    """All of P^+_k, exactly (finite for k in the unitarity range)."""
    entry, rec = lookup(g), _ranged(g, Q(k))
    if rec is None:
        return []
    lv = rec.data
    fam = g.family
    out: List[Vec] = []
    if fam in ("psl22",) or (fam == "spo2m" and g.m == 3):
        m1 = lv.M_simple[0]
        for r in range(int(m1) + 1):
            out.append(entry.nu_from_labels([r]))
    elif fam == "D21a":
        m1, m2 = lv.M_simple
        for r1 in range(int(m1) + 1):
            for r2 in range(int(m2) + 1):
                out.append(entry.nu_from_labels([r1, r2]))
    elif fam == "spo2m":
        rank = g.m // 2
        for tup in _dominant_so(rank, lv.M_simple[0], bool(g.m % 2)):
            out.append(entry.nu_from_labels(list(tup)))
    elif fam == "F4":
        for tup in _dominant_so(3, lv.M_simple[0], True):
            out.append(entry.nu_from_labels(list(tup)))
    elif fam == "G3":
        m1 = int(lv.M_simple[0])
        for r2 in range(m1 + 1):
            for r1 in range((r2 + 1) // 2, r2 + 1):
                out.append(entry.nu_from_labels([r1, r2]))
    else:
        raise PreconditionViolated(f"no enumeration for {fam}")
    assert all(_in_P_plus(entry, lv, entry.pairings(0, nu)) for nu in out)
    return out
