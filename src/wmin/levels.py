"""Scalar level arithmetic: component levels M_i(k), cocycle shifts, central
charge, collapsing detection, and the unitarity ranges.  Each is an affine,
quadratic or rational evaluation at k of constants the catalog entry holds
(`CatalogEntry._levels`, `unitary_range`, `collapse_targets`, `sdim`,
`h_vee`).  The ones a request reads are evaluated once per (algebra, k) into
one record, `_level`."""
from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import List, NamedTuple, Optional

from .catalog import AlgebraId, CatalogEntry, lookup
from .errors import CriticalLevel, PreconditionViolated, TruncationIncomplete
from .rationals import as_rational, rational_sqrt

Q = Fraction


def component_level(entry: CatalogEntry, k: Fraction, comp) -> Fraction:
    """M_i(k) = (2/u_i)(k + (h_vee - hbar_i_vee)/2); the entry holds it as
    the line (2/u_i) k + (h_vee - hbar_i_vee)/u_i (`CatalogEntry._levels`)."""
    return (2 / comp.u) * (as_rational(k) + (entry.h_vee - comp.hbar_vee) / 2)


def central_charge(g: AlgebraId, k: Fraction) -> Fraction:
    """c(k) = k*sdim/(k+h_vee) - 6k + h_vee - 4; `shifted_level` raises
    CriticalLevel at k = -h_vee."""
    entry, k = lookup(g), as_rational(k)
    return k * entry.sdim / entry.shifted_level(k) - 6 * k + entry.h_vee - 4


def central_charge_alt(g: AlgebraId, k: Fraction):
    """Second evaluation path through the square-root form.

    Returns (value, applicable, note).  The rewrite uses
    s = sqrt(sdim*h_vee/6); it is evaluated exactly when s is rational and
    reported as not applicable otherwise.
    """
    entry = lookup(g)
    kh = entry.shifted_level(k)
    s = rational_sqrt(entry.sdim * entry.h_vee / 6)
    if s is None:
        return None, False, "sqrt(sdim*h_vee/6) is not rational"
    d, hv = entry.sdim, entry.h_vee
    c = 7 * hv + d - 4 - 12 * s - 6 * (kh - s) ** 2 / kh
    return c, True, f"sqrt = {s}"


class LevelData(NamedTuple):
    k: Fraction
    M: tuple                 # component levels in catalog order (center first if present)
    M_simple: tuple          # levels of the simple components only, index order 1..s
    alpha_levels: tuple      # M_i(k) + chi_i, same order as M
    p_k: Fraction            # monic collapsing polynomial evaluated at k
    collapsing: bool
    collapse_target: Optional[str]


def _collapse_target(entry: CatalogEntry, M: tuple) -> str:
    """The first of the entry's `collapse_targets` whose level in M
    (`LevelData.M` order) is nonzero, at that level; "C" when there is none."""
    return next((name.format(M[i]) for i, name in entry.collapse_targets if M[i]), "C")


class _Level(NamedTuple):
    """What a request reads of its level (`_level`): `LevelData`, and the
    scalars the request's checks read (`weights._in_P_plus`,
    `weights._is_extremal`, `weights._ell_ints` for the thresholds and the
    singular weights, `characters._start`) as reduced (numerator,
    denominator > 0) int pairs, so that a request reads no `Fraction` of
    its level."""
    data: LevelData
    in_range: bool           # k lies in the unitarity range
    k_ints: tuple            # k
    kh_ints: tuple           # k + h_vee, nonzero
    m_ints: tuple            # M_i(k) of the simple components, index order 1..s
    alpha_ints: tuple        # M_i(k) + chi_i of the simple components, same order
    start_ints: tuple        # <lam0, beta^vee> - nu(beta^vee) over the affine simple roots
                             # beta of g^nat in `coroots` order (`characters._start`): 1 for
                             # each simple root, then M_i(k) + chi_i + 1 for eta_i


def _ints(x: Fraction) -> tuple:
    """x as its (numerator, denominator > 0) int pair."""
    return x.numerator, x.denominator


@lru_cache(maxsize=128)  # a sweep of 8 families x 12 levels stays cached
def _level(g: AlgebraId, kn: int, kd: int) -> _Level:
    """The level record of (g, k), k = kn/kd a `Fraction` given by its
    numerator and denominator, so that the cache key hashes two ints and
    not k (a `Fraction` hash takes a modular inverse): `LevelData` and
    unitarity-range membership, each evaluated once per (g, k) and then
    read by `level_data`, `unitarity_range_contains` and the decision and
    character preconditions, and the int pairs of k, k + h_vee, M_i(k) and
    M_i(k) + chi_i of the simple components and of the start's level part,
    which the preconditions, the thresholds, the singular weights and the
    start read in place of `Fraction`s.  At the critical level k = -h_vee
    `CatalogEntry._shifted` raises CriticalLevel, and `lru_cache` keeps no
    raised call, so it raises on every call.

    Exactness.  Every value is an int expression in kn and kd over the
    entry's constants, ints over one e > 0 (`CatalogEntry._levels`), and
    each `Fraction` is built once from its int numerator and nonzero
    denominator, which `Fraction` reduces and signs: the one `Fraction` of
    that value, equal to the term-by-term `Fraction` evaluation.  With
    u_i = u/e, h_vee - hbar_i_vee = w/e and chi_i = c/e,
        M_i(k) = (2 e k + w)/u = t/(u kd),  t = 2 e kn + w kd,
        M_i(k) + chi_i = (t e + c u kd)/(e u kd),
    with u != 0; k + h_vee = (e kn + h kd)/(e kd) (`_shifted`), e kd > 0,
    reduced by dividing both by their gcd > 0; and with
    the zeros z_j/(2e), p(k) = (2e kn - z1 kd)(2e kn - z2 kd)/(2e kd)^2, so
    the level collapses exactly when that int numerator is 0.  The range
    index n = (k - first)/step, first = f/e and step = s/e != 0, is
    N/D with N = e kn - f kd and D = s kd != 0, so n is an int exactly
    when D divides N (`divmod`'s remainder is 0, for either sign of D),
    and then n = N // D, exactly; k is in the range when moreover
    0 <= n < count (no upper bound when count is None).  With a/b = M_i(k)
    + chi_i reduced, b > 0, M_i(k) + chi_i + 1 = (a + b)/b, reduced too."""
    entry = lookup(g)
    khn, khd = entry._shifted(kn, kd)
    f = math.gcd(khn, khd)
    c = entry._levels
    e, ek = c.e, 2 * c.e * kn
    tops = [(ek + w * kd, u) for u, w, _ in c.lines]  # M_i(k) = t / (u kd)
    M = tuple([Q(t, u * kd) for t, u in tops])
    alpha = tuple([Q(t * e + x * u * kd, e * u * kd) for (t, u), (_, _, x) in zip(tops, c.lines)])
    z1, z2 = c.zeros
    pn = (ek - z1 * kd) * (ek - z2 * kd)
    first, step, count = c.range
    n, r = divmod(e * kn - first * kd, step * kd)
    s = len(entry.components)
    alpha_ints = tuple(map(_ints, alpha[-s:]))
    return _Level(LevelData(
        k=Q(kn, kd), M=M, M_simple=M[1:] if entry.center else M, alpha_levels=alpha,
        p_k=Q(pn, (2 * e * kd) ** 2), collapsing=not pn,
        collapse_target=_collapse_target(entry, M) if not pn else None),
        not r and 0 <= n and (count is None or n < count),
        (kn, kd), (khn // f, khd // f), tuple(map(_ints, M[-s:])), alpha_ints,
        ((1, 1),) * len(entry.simple_roots_natural) + tuple([(a + b, b) for a, b in alpha_ints]))


def _record(g: AlgebraId, k) -> _Level:
    """The level record `_level` of k, an int or a `Fraction` (`as_rational`
    refuses anything else)."""
    k = as_rational(k)
    return _level(g, k.numerator, k.denominator)


def level_data(g: AlgebraId, k: Fraction) -> LevelData:
    """All scalar data attached to a level, exactly: affine and quadratic
    evaluations at k of the entry's constants (`CatalogEntry._levels`), read
    off the level record `_level`, whose cache holds the last 128 (g, k).
    Raises CriticalLevel at k = -h_vee on every call: errors are not cached."""
    return _record(g, k).data


# ---------------------------------------------------------------------------
# unitarity ranges


def _ranged(g: AlgebraId, k: Fraction) -> Optional[_Level]:
    """The level record of k (a `Fraction`) when k lies in the unitarity
    range, else None.  The critical level lies in no range: every range
    holds only levels k <= -2/3, and -h_vee >= -1/2 on every family."""
    try:
        rec = _level(g, k.numerator, k.denominator)
    except CriticalLevel:
        return None
    return rec if rec.in_range else None


def unitarity_range_contains(g: AlgebraId, k: Fraction) -> bool:
    """Membership in the per-family list of candidate unitary levels
    (`CatalogEntry.unitary_range`): n = (k - first)/step is an int in
    [0, count), read off the level record (`_ranged`)."""
    return _ranged(g, as_rational(k)) is not None


RANGE_CAP = 10 ** 5  # levels listed before TruncationIncomplete is raised


def enumerate_unitary_k(g: AlgebraId, count: int) -> List[Fraction]:
    """First `count` levels of the unitarity range, from the largest down.
    A count that is no int raises `PreconditionViolated`, and one that
    would list more than RANGE_CAP levels, read at call time as
    `weights.P_PLUS_CAP` is, raises `TruncationIncomplete` before any is
    built: on a family with an unbounded range the list is as long as the
    count."""
    if not isinstance(count, int):
        raise PreconditionViolated(f"count must be an int, got {count!r}")
    first, step, size = lookup(g).unitary_range
    n = max(0, count if size is None else min(count, size))
    if n > RANGE_CAP:
        raise TruncationIncomplete(f"range cap {RANGE_CAP} exceeded: {n} levels of {g.label()}")
    return [first + i * step for i in range(n)]
