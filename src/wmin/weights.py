"""Dominance, level bounds, extremality, and the unitarity thresholds."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, List, Optional, Tuple

from .catalog import AlgebraId, CatalogEntry, Vec, lookup, zero_vec
from .errors import CharacterizationMismatch, PreconditionViolated
from .levels import LevelData, level_data, unitarity_range_contains

Q = Fraction


@dataclass(frozen=True)
class HighestWeight:
    """The pair (nu, l0) labelling an irreducible highest weight module."""

    nu: Vec
    l0: Fraction

    def __post_init__(self):
        object.__setattr__(self, "l0", Q(self.l0))


def _in_P_plus(entry: CatalogEntry, lv: LevelData, nu: Vec, pairs: list) -> bool:
    """nu dominant integral with nu(theta_i^vee) <= M_i(k); `pairs` are nu's
    theta pairings.  The level must lie in the unitarity range."""
    return (entry.is_dominant_integral(nu)
            and all(p <= m for p, m in zip(pairs, lv.M_simple)))


def _is_extremal(entry: CatalogEntry, lv: LevelData, nu: Vec, pairs: list) -> bool:
    """nu+xi falls outside P^+_k, for nu in P^+_k with theta pairings `pairs`;
    cross-checked against the chi_i test."""
    shifted = nu + entry.xi
    by_def = not _in_P_plus(entry, lv, shifted, entry.theta_pairings(shifted))
    by_chi = any(p > m + c.chi for p, m, c in
                 zip(pairs, lv.M_simple, entry.components))
    if by_def != by_chi:
        raise CharacterizationMismatch(
            f"extremality tests disagree for {entry.id.label()}, k={lv.k}: "
            f"nu+xi test {by_def}, chi test {by_chi}")
    return by_def


def _P_plus_data(g: AlgebraId, k, nu: Vec) -> Optional[Tuple[LevelData, list]]:
    """(level data, nu's theta pairings) when nu lies in P^+_k, else None."""
    if not unitarity_range_contains(g, k):
        return None
    entry = lookup(g)
    lv = level_data(g, k)
    pairs = entry.theta_pairings(nu)
    return (lv, pairs) if _in_P_plus(entry, lv, nu, pairs) else None


def in_P_plus_k(g: AlgebraId, k, nu: Vec) -> bool:
    """nu dominant integral for g^nat with nu(theta_i^vee) <= M_i(k) for all i >= 1."""
    return _P_plus_data(g, k, nu) is not None


def is_extremal(g: AlgebraId, k, nu: Vec) -> bool:
    """nu+xi falls outside P^+_k; cross-checked against the chi_i test."""
    data = _P_plus_data(g, k, nu)
    if data is None:
        raise PreconditionViolated("is_extremal requires nu in P^+_k")
    return _is_extremal(lookup(g), data[0], nu, data[1])


def A_bound(g: AlgebraId, k, nu: Vec) -> Fraction:
    """Threshold (nu|nu+2rho^nat)/(2(k+h)) + (xi|nu)((xi|nu)-k-1)/(k+h)."""
    entry = lookup(g)
    kh = entry.shifted_level(k)
    xn = entry.form(entry.xi, nu)
    return entry.casimir(nu) / (2 * kh) + xn * (xn - Q(k) - 1) / kh


def B_bound(g: AlgebraId, k, nu: Vec) -> Fraction:
    """Free-field sufficiency threshold (nu|nu+2rho^nat)/(2(k+h)) - (k+1)^2/(4(k+h))."""
    entry = lookup(g)
    kh = entry.shifted_level(k)
    return entry.casimir(nu) / (2 * kh) - (Q(k) + 1) ** 2 / (4 * kh)


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
    k = Q(k)
    fam = g.family
    if fam == "psl22":
        r = entry.coroot_pairing(nu, entry.components[0].theta)
        return Q(r, 2)
    if fam == "spo2m" and g.m == 3:
        r = entry.coroot_pairing(nu, entry.components[0].theta)
        return Q(r, 4)
    if fam == "spo2m":
        m = g.m
        rr = m // 2
        nn = [nu[1 + i] for i in range(rr)]
        s = (sum(a * a for a in nn)
             + 2 * sum(a * (Q(m, 2) - (i + 1)) for i, a in enumerate(nn)))
        r = nn[0]
        return -(s - r * (2 * k + r + 2)) / (2 * (2 * k - m + 4))
    if fam == "D21a":
        a = g.a
        r1 = entry.coroot_pairing(nu, entry.components[0].theta)
        r2 = entry.coroot_pairing(nu, entry.components[1].theta)
        return ((2 * (a + 1) * k * (a * r2 + r1) - a * (r1 - r2) ** 2)
                / (4 * (a + 1) ** 2 * k))
    if fam == "F4":
        r1, r2, r3 = nu[0], nu[1], nu[2]
        num = (r1 * (6 - Q(3, 2) * k) + r2 * (3 - Q(3, 2) * k) + r3 * (-Q(3, 2) * k)
               + r1 * r1 + r2 * r2 + r3 * r3 - r1 * r2 - r1 * r3 - r2 * r3)
        return num / (3 * (3 - Q(3, 2) * k))
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
    entry = lookup(g)
    if not unitarity_range_contains(g, k):
        return []
    lv = level_data(g, k)
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
    assert all(_in_P_plus(entry, lv, nu, entry.theta_pairings(nu)) for nu in out)
    return out
