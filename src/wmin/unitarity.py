"""The unitarity decision procedure and the singular-weight bound scans."""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import List, Optional

from .catalog import AlgebraId, CatalogEntry, Vec, lookup
from .errors import IndexOutOfSet
from .levels import LevelData, level_data, unitarity_range_contains
from .weights import A_bound, A_explicit, _in_P_plus, _is_extremal, _P_plus_data

Q = Fraction

# verdict kinds
NOT_IN_UNITARY_RANGE = "NotInUnitaryRange"
COLLAPSING = "Collapsing"
EXCLUDED_FAMILY = "ExcludedFamily"
NOT_IN_P_PLUS_K = "NotInPplusK"
EXTREMAL_OFF_BOUNDARY = "ExtremalOffBoundary"
EXTREMAL_BOUNDARY = "ExtremalBoundary"
BELOW_BOUND = "BelowBound"
UNITARY_NON_EXTREMAL = "UnitaryNonExtremal"


@dataclass(frozen=True)
class CollapseCheck:
    """Weight-integrability gate for the module over the collapsed target.

    The matching constraint on l0 for collapsed modules is not settled, so l0
    is reported but not tested.
    """

    target: str
    weight_integrable: bool
    l0: Fraction
    detail: str


@dataclass(frozen=True)
class UnitarityVerdict:
    outcome: str
    quantities: dict
    reasons: tuple
    proved: Optional[bool] = None        # ExtremalBoundary only
    collapse: Optional[CollapseCheck] = None

    @property
    def is_unitary_positive(self) -> bool:
        return self.outcome in (UNITARY_NON_EXTREMAL,) or (
            self.outcome == EXTREMAL_BOUNDARY and bool(self.proved))


def _proved_extremal(g: AlgebraId, lv: LevelData, pairs: list) -> bool:
    """Extremal boundary modules with an actual unitarity proof: the N=4 and
    N=3 families throughout, plus the single integrable weight of
    D(2,1;m) / D(2,1;1/n) at its first level (the latter only ever arises at
    a collapsing level, so it is caught earlier)."""
    if g.family == "psl22":
        return True
    if g.family == "spo2m" and g.m == 3:
        return True
    if g.family == "D21a" and 1 in (g.a_num, g.a_den):
        if min(lv.M_simple) == 0:
            big = max(range(2), key=lambda i: lv.M_simple[i])
            return (pairs[big] == lv.M_simple[big]
                    and pairs[1 - big] == 0)
    return False


def _collapse_check(entry: CatalogEntry, lv: LevelData, nu: Vec, pairs: list,
                    l0: Fraction) -> CollapseCheck:
    target = lv.collapse_target or "?"
    if target == "C":
        ok = nu.is_zero()
        detail = "target is trivial; needs nu = 0"
    elif entry.center is not None:
        # sl(2|m): either the free boson (center survives) or V(sl_m)
        if "free boson" in target:
            ok = pairs[0] == 0
            detail = "sl_m part of nu must vanish; center charge unconstrained"
        else:
            ok = entry.is_dominant_integral(nu) and pairs[0] <= lv.M_simple[0]
            detail = "nu must be integrable of level M_1 for the target"
    elif len(entry.components) == 2:
        keep = [i for i, m in enumerate(lv.M_simple) if m != 0]
        ok = entry.is_dominant_integral(nu)
        for i in range(2):
            if i in keep:
                ok = ok and pairs[i] <= lv.M_simple[i]
            else:
                ok = ok and pairs[i] == 0
        detail = "integrable on the surviving component(s), trivial on the rest"
    else:
        ok = entry.is_dominant_integral(nu) and pairs[0] <= lv.M_simple[0]
        detail = "nu must be integrable of level M_1 for the target"
    return CollapseCheck(target=target, weight_integrable=bool(ok), l0=l0,
                         detail=detail + "; l0 reported, not tested")


def decide(g: AlgebraId, k, nu: Vec, l0) -> UnitarityVerdict:
    """Full decision for the irreducible highest weight module (nu, l0)."""
    entry = lookup(g)
    k, l0 = Q(k), Q(l0)
    lv = level_data(g, k)
    quantities = {
        "k": k,
        "M_i": list(lv.M_simple),
        "chi_i": [c.chi for c in entry.components],
        "l0": l0,
    }
    reasons: List[str] = []

    if g.family == "osp4m" or (g.family == "sl2m" and k != -1):
        reasons.append("family admits no unitary highest weight modules here")
        return UnitarityVerdict(EXCLUDED_FAMILY, quantities, tuple(reasons))

    if not unitarity_range_contains(g, k):
        reasons.append("k outside the unitarity range")
        return UnitarityVerdict(NOT_IN_UNITARY_RANGE, quantities, tuple(reasons))

    pairs = entry.theta_pairings(nu)
    if lv.collapsing:
        chk = _collapse_check(entry, lv, nu, pairs, l0)
        reasons.append(f"collapsing level, target {chk.target}")
        return UnitarityVerdict(COLLAPSING, quantities, tuple(reasons), collapse=chk)

    if not _in_P_plus(entry, lv, nu, pairs):
        reasons.append("nu not dominant integral of the component levels")
        return UnitarityVerdict(NOT_IN_P_PLUS_K, quantities, tuple(reasons))

    a = A_bound(g, k, nu)
    extremal = _is_extremal(entry, lv, nu, pairs)
    quantities.update({"A": a, "A_explicit": A_explicit(g, k, nu),
                       "extremal": extremal, "l0_minus_A": l0 - a})

    if extremal:
        if l0 == a:
            proved = _proved_extremal(g, lv, pairs)
            reasons.append("extremal weight at the threshold"
                           + ("" if proved else
                              ": conjecturally unitary (unproven extremal"
                              " boundary case)"))
            return UnitarityVerdict(EXTREMAL_BOUNDARY, quantities, tuple(reasons),
                                    proved=proved)
        reasons.append("extremal weight requires l0 = A(k,nu) exactly")
        return UnitarityVerdict(EXTREMAL_OFF_BOUNDARY, quantities, tuple(reasons))

    if l0 >= a:
        reasons.append("non-extremal weight with l0 >= A(k,nu)")
        return UnitarityVerdict(UNITARY_NON_EXTREMAL, quantities, tuple(reasons))
    reasons.append("l0 below the threshold A(k,nu)")
    return UnitarityVerdict(BELOW_BOUND, quantities, tuple(reasons))


# ---------------------------------------------------------------------------
# singular-weight functions


def _singular_weight(x: Fraction, k: Fraction, kh: Fraction, cas: Fraction) -> Fraction:
    """(x^2 - (k+1)^2 + 2(nu|nu+2rho^nat)) / (4(k+h)), the shape shared by
    h_{n, eps*m} (x = eps*m*(k+h) - n) and h_{m, gamma}
    (x = 2(nu+rho^nat|gamma) + 2m(k+h)); `cas` is (nu|nu+2rho^nat)."""
    return (x ** 2 - (k + 1) ** 2 + 2 * cas) / (4 * kh)


def h_even(g: AlgebraId, k, nu: Vec, n, m) -> Fraction:
    """h_{n, eps*m}: even-root singular conformal weight."""
    entry = lookup(g)
    kh = entry.shifted_level(k)
    k, n, m = Q(k), Q(n), Q(m)
    eps = entry.epsilon
    if n <= 0 or m <= 0 or (eps * n).denominator != 1 or (eps * m).denominator != 1 \
            or (m - n).denominator != 1:
        raise IndexOutOfSet("need m, n in (1/eps)N with m - n integral")
    return _singular_weight(eps * m * kh - n, k, kh, entry.casimir(nu))


def h_odd(g: AlgebraId, k, nu: Vec, m, gamma: Vec) -> Fraction:
    """h_{m, gamma}: odd-root singular conformal weight, gamma in Delta'."""
    entry = lookup(g)
    kh = entry.shifted_level(k)
    k, m = Q(k), Q(m)
    if (m - Q(1, 2)).denominator != 1 or m < Q(1, 2):
        raise IndexOutOfSet("need m in 1/2 + Z_+")
    if not any(gm == gamma for gm, _ in entry.delta_prime):
        raise IndexOutOfSet("gamma must be a weight of the odd half-space")
    pair = entry.form(nu + entry.rho_natural, gamma)
    return _singular_weight(2 * pair + 2 * m * kh, k, kh, entry.casimir(nu))


@dataclass
class Sign2Report:
    g: AlgebraId
    k: Fraction
    nu: Vec
    hypothesis_met: bool
    label: str
    checked: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def sign2_scan(g: AlgebraId, k, nu: Vec, n_max, m_max) -> Sign2Report:
    """Scan h_even <= A and h_odd <= A over the index window.

    The bound is only asserted by the theory for k in the unitarity range and
    non-extremal nu; outside that the scan still runs but is labeled
    accordingly and violations are informational.
    """
    entry = lookup(g)
    k = Q(k)
    data = _P_plus_data(g, k, nu)
    hyp = data is not None and not _is_extremal(entry, data[0], nu, data[1])
    rep = Sign2Report(g, k, nu, hyp,
                      "scan" if hyp else "lemma hypothesis not met")
    a = A_bound(g, k, nu)
    kh, cas = entry.shifted_level(k), entry.casimir(nu)
    eps = entry.epsilon
    n_max, m_max = Q(n_max), Q(m_max)
    # even indices: n, m in (1/eps)N with m - n integral
    nn = 1
    while Q(nn, eps) <= n_max:
        mm = nn % eps if nn % eps else eps
        while Q(mm, eps) <= m_max:
            n, m = Q(nn, eps), Q(mm, eps)
            if (m - n).denominator == 1:
                v = _singular_weight(eps * m * kh - n, k, kh, cas)
                rep.checked += 1
                if v > a:
                    rep.violations.append(("h_even", (n, m), v, a))
            mm += eps
        nn += 1
    # odd indices: m in 1/2 + Z_+, gamma over the support of Delta'
    gammas = list(dict.fromkeys(gamma for gamma, _ in entry.delta_prime))
    pairs = [entry.form(nu + entry.rho_natural, gamma) for gamma in gammas]
    m = Q(1, 2)
    while m <= m_max:
        for gamma, pair in zip(gammas, pairs):
            v = _singular_weight(2 * pair + 2 * m * kh, k, kh, cas)
            rep.checked += 1
            if v > a:
                rep.violations.append(("h_odd", (m, gamma), v, a))
        m += 1
    return rep
