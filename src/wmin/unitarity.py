"""The unitarity decision procedure and the singular-weight bound scans."""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional

from .catalog import AlgebraId, CatalogEntry, Vec, _NuScalars, _dot, lookup
from .errors import IndexOutOfSet, TruncationIncomplete
from .levels import LevelData, _Level, _level, _record
from .rationals import _Record, _set, as_rational, format_rational
from .weights import (_A_explicit, _ell_ints, _excess, _in_P_plus, _is_extremal,
                      _P_plus_data, _threshold)

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


class CollapseCheck(NamedTuple):
    """Weight-integrability gate for the module over the collapsed target.

    The matching constraint on l0 for collapsed modules is not settled, so l0
    is reported but not tested.
    """

    target: str
    weight_integrable: bool
    l0: Fraction
    detail: str


# The package's one dataclass: `bench/test_bench.py:130` builds a corrupted
# verdict with `dataclasses.replace`.
@dataclass(frozen=True, init=False)
class UnitarityVerdict:
    outcome: str
    quantities: dict
    reasons: tuple
    proved: Optional[bool] = None        # ExtremalBoundary only
    collapse: Optional[CollapseCheck] = None

    def __init__(self, outcome: str, quantities: dict, reasons: tuple,
                 proved: Optional[bool] = None, collapse: Optional[CollapseCheck] = None):
        """The generated `__init__` sets each field through the frozen
        `object.__setattr__`, one call per field; this fills the instance
        `__dict__` in one assignment.  Equality, the repr, the hash, the
        refusal of assignment and `dataclasses.replace` (which calls this
        with every field by name) are the dataclass's, as before."""
        _set(self, "__dict__", {"outcome": outcome, "quantities": quantities,
                                "reasons": reasons, "proved": proved, "collapse": collapse})

    @property
    def is_unitary_positive(self) -> bool:
        return self.outcome in (UNITARY_NON_EXTREMAL,) or (
            self.outcome == EXTREMAL_BOUNDARY and bool(self.proved))


def _collapse_check(entry: CatalogEntry, rec: _Level, sc: _NuScalars,
                    l0: Fraction) -> CollapseCheck:
    """The gate, chosen by the component levels, not by the target's name;
    `rec` is the level record (`levels._level`) and `sc` nu's per-request
    pass (`CatalogEntry._scalars`), whose ints x over d are all 0 exactly
    when nu = 0."""
    lv = rec.data
    if not any(lv.M):
        ok = not any(sc.x)
        detail = "target is trivial; needs nu = 0"
    elif entry.center and not any(lv.M_simple):
        # collapse to the free boson of the center: the center survives, and
        # the simple part vanishes when nu pairs to 0 with every simple coroot
        ok = all(p == 0 for p in sc.ps[:len(entry.simple_roots_natural)])
        detail = "sl_m part of nu must vanish; center charge unconstrained"
    else:
        # P^+_k membership is exactly the target's integrability: dominance
        # gives nu(theta_i^vee) >= 0, so on a component with M_i = 0 the
        # bound nu(theta_i^vee) <= M_i says it is 0 (trivial there).
        ok = _in_P_plus(entry, rec.m_ints, sc.d, sc.ps)
        detail = ("integrable on the surviving component(s), trivial on the rest"
                  if len(entry.components) == 2 else
                  "nu must be integrable of level M_1 for the target")
    return CollapseCheck(target=lv.collapse_target, weight_integrable=bool(ok), l0=l0,
                         detail=detail + "; l0 reported, not tested")


def _quantities(entry: CatalogEntry, lv: LevelData, l0: Fraction) -> dict:
    """What every verdict reports at the level data `lv`: k, the simple
    components' levels M_i(k), their chi_i, and l0."""
    return {"k": lv.k, "M_i": list(lv.M_simple), "chi_i": list(entry._chis), "l0": l0}


def decide(g: AlgebraId, k, nu: Vec, l0) -> UnitarityVerdict:
    """Full decision for the irreducible highest weight module (nu, l0):
    the range, collapsing and P^+_k gates, then the threshold (`_tail`)."""
    entry = lookup(g)
    k, l0 = as_rational(k), as_rational(l0)
    rec = _level(g, k.numerator, k.denominator)
    lv = rec.data
    entry._check_length(nu)

    if not rec.in_range:
        if entry.unitary_range[2] is not None:  # k outside a finite range
            return UnitarityVerdict(EXCLUDED_FAMILY, _quantities(entry, lv, l0),
                                    ("family admits no unitary highest weight modules here",))
        return UnitarityVerdict(NOT_IN_UNITARY_RANGE, _quantities(entry, lv, l0),
                                ("k outside the unitarity range",))

    sc = entry._scalars(nu)
    if lv.collapsing:
        chk = _collapse_check(entry, rec, sc, l0)
        return UnitarityVerdict(COLLAPSING, _quantities(entry, lv, l0),
                                (f"collapsing level, target {chk.target}",), collapse=chk)

    if not _in_P_plus(entry, rec.m_ints, sc.d, sc.ps):
        return UnitarityVerdict(NOT_IN_P_PLUS_K, _quantities(entry, lv, l0),
                                ("nu not dominant integral of the component levels",))

    return _tail(entry, lv, l0, _threshold(rec, sc), _is_extremal(entry, rec, sc),
                 _A_explicit(entry, k, sc.d, sc.x, sc.ps))


def _tail(entry: CatalogEntry, lv: LevelData, l0: Fraction, a: tuple, extremal: bool,
          closed: Fraction) -> UnitarityVerdict:
    """The verdict of `decide` past its gates, at the level data `lv`, from
    A as `weights._threshold`'s int pair `a`, the extremality of nu and the
    closed form `closed` of A.  The outcome is read off the sign of the
    int numerator of l0 - A, whose denominator is positive
    (`weights._excess`): l0 = A exactly when it is 0, l0 >= A exactly when
    it is >= 0.  A and l0 - A are each published as the one `Fraction` of
    their int pair."""
    excess = _excess((l0.numerator, l0.denominator), a)
    # `_quantities`, spelled out: this dict is built on every verdict past the gates
    quantities = {"k": lv.k, "M_i": list(lv.M_simple), "chi_i": list(entry._chis),
                  "l0": l0, "A": Q(*a), "A_explicit": closed, "extremal": extremal,
                  "l0_minus_A": Q(*excess)}
    if extremal:
        if not excess[0]:
            proved = entry.extremal_proved
            return UnitarityVerdict(EXTREMAL_BOUNDARY, quantities, (
                "extremal weight at the threshold" + ("" if proved else
                                                      ": conjecturally unitary (unproven extremal"
                                                      " boundary case)"),), proved=proved)
        return UnitarityVerdict(EXTREMAL_OFF_BOUNDARY, quantities,
                                ("extremal weight requires l0 = A(k,nu) exactly",))
    if excess[0] >= 0:
        return UnitarityVerdict(UNITARY_NON_EXTREMAL, quantities,
                                ("non-extremal weight with l0 >= A(k,nu)",))
    return UnitarityVerdict(BELOW_BOUND, quantities, ("l0 below the threshold A(k,nu)",))


# ---------------------------------------------------------------------------
# singular-weight functions


def h_even(g: AlgebraId, k, nu: Vec, n, m) -> Fraction:
    """h_{n, eps*m} = ell((eps*m*(k+h) - n + k + 1)/2): even-root singular weight."""
    entry, rec = lookup(g), _record(g, k)
    n, m = as_rational(n), as_rational(m)
    eps = entry.epsilon
    if n <= 0 or m <= 0 or (eps * n).denominator != 1 or (eps * m).denominator != 1 \
            or (m - n).denominator != 1:
        raise IndexOutOfSet("need m, n in (1/eps)N with m - n integral")
    h = _h_even(rec, eps, (n.numerator, n.denominator), (m.numerator, m.denominator))
    return Q(*_ell_ints(h, rec, entry._scalars(nu).cas))


def h_odd(g: AlgebraId, k, nu: Vec, m, gamma: Vec) -> Fraction:
    """h_{m, gamma} = ell((nu+rho^nat|gamma) + m(k+h) + (k+1)/2): odd-root
    singular weight, gamma in Delta', given as any sequence of rationals (a
    float coordinate raises InexactScalar, as nu's do)."""
    entry, rec = lookup(g), _record(g, k)
    m = as_rational(m)
    if (m - Q(1, 2)).denominator != 1 or m < Q(1, 2):
        raise IndexOutOfSet("need m in 1/2 + Z_+")
    gamma = Vec(gamma) if hasattr(gamma, "__iter__") else None  # no sequence is no weight
    odd = next((row for row in entry._odd_covs if row[0] == gamma), None)
    if odd is None:
        raise IndexOutOfSet("gamma must be a weight of the odd half-space")
    sc = entry._scalars(nu)
    h = _h_odd(rec, _odd_pair(odd, sc.d, sc.x), (m.numerator, m.denominator))
    return Q(*_ell_ints(h, rec, sc.cas))


def _h_even(rec: _Level, eps: int, n: tuple, m: tuple) -> tuple:
    """The argument h = (eps m (k+h_vee) - n + k + 1)/2 of h_{n, eps*m} as
    an int pair (numerator, denominator > 0), not reduced, for n = nn/nd
    and m = mn/md (nd, md > 0) and the record's k = kn/kd and k + h_vee =
    khn/khd (`levels._level`, kd, khd > 0).  Exact: over the one
    denominator 2 md khd nd kd > 0,
        h = (eps mn khn nd kd - nn md khd kd + (kn + kd) md khd nd)
            / (2 md khd nd kd),
    int products and sums."""
    (kn, kd), (khn, khd), (nn, nd), (mn, md) = rec.k_ints, rec.kh_ints, n, m
    return (eps * mn * khn * nd * kd - nn * md * khd * kd + (kn + kd) * md * khd * nd,
            2 * md * khd * nd * kd)


def _h_odd(rec: _Level, pair: tuple, m: tuple) -> tuple:
    """The argument h = (nu+rho^nat|gamma) + m (k+h_vee) + (k+1)/2 of
    h_{m, gamma} as an int pair (numerator, denominator > 0), not reduced,
    for the pairing pn/pd = `_odd_pair`'s (pd > 0), m = mn/md (md > 0) and
    k, k + h_vee as in `_h_even`.  Exact: over the one denominator
    2 pd md khd kd > 0,
        h = (2 pn md khd kd + 2 mn khn pd kd + (kn + kd) pd md khd)
            / (2 pd md khd kd),
    int products and sums."""
    (kn, kd), (khn, khd), (pn, pd), (mn, md) = rec.k_ints, rec.kh_ints, pair, m
    return (2 * pn * md * khd * kd + 2 * mn * khn * pd * kd + (kn + kd) * pd * md * khd,
            2 * pd * md * khd * kd)


def _odd_pair(odd: tuple, d: int, x: list) -> tuple:
    """(nu + rho^nat|gamma) at nu = x / d (d > 0), for a row (gamma, e,
    cov, r) of `CatalogEntry._odd_covs` (e > 0): one int dot product, the
    int pair (cov.x + r d, e d), exact and not reduced."""
    _, e, cov, r = odd
    return _dot(cov, x) + r * d, e * d


class Sign2Report(_Record):
    """What `sign2_scan` found; a mutable record."""

    __slots__ = _fields = ("g", "k", "nu", "hypothesis_met", "label", "checked", "violations")

    def __init__(self, g: AlgebraId, k: Fraction, nu: Vec, hypothesis_met: bool, label: str,
                 checked: int = 0, violations: Optional[list] = None):
        self.g, self.k, self.nu = g, k, nu
        self.hypothesis_met, self.label, self.checked = hypothesis_met, label, checked
        self.violations = [] if violations is None else violations

    @property
    def ok(self) -> bool:
        return not self.violations


SCAN_CAP = 10 ** 5  # indices checked before TruncationIncomplete is raised


def _scan_size(eps: int, n_max: Fraction, m_max: Fraction, odd: int) -> int:
    """The number of indices `sign2_scan` checks, counted without walking
    them.  Even indices: n = nn/eps and m = mm/eps with 1 <= nn <= eps
    n_max, 1 <= mm <= eps m_max and mm = nn mod eps, so that m - n is an
    int; for each residue r in 1..eps the ints i in [1, top] with i = r
    mod eps number max(0, (top - r) // eps + 1).  Odd indices: m in
    1/2 + Z_+ with m <= m_max, max(0, floor(m_max + 1/2)) of them, each
    with the `odd` weights gamma."""
    nt, mt = math.floor(eps * n_max), math.floor(eps * m_max)

    def count(top, r):
        return max(0, (top - r) // eps + 1)

    return (sum([count(nt, r) * count(mt, r) for r in range(1, eps + 1)])
            + odd * max(0, math.floor(m_max + Q(1, 2))))


def sign2_scan(g: AlgebraId, k, nu: Vec, n_max, m_max) -> Sign2Report:
    """Scan h_even <= A and h_odd <= A over the index window.

    The bound is only asserted by the theory for k in the unitarity range and
    non-extremal nu; outside that the scan still runs but is labeled
    accordingly and violations are informational.  A window of more than
    SCAN_CAP indices, counted before any is checked (`_scan_size`) and read
    at call time as `levels.RANGE_CAP` is, raises TruncationIncomplete.

    The walk is over ints: n = nn/eps and m = mm/eps for the even indices,
    m = j/2 for odd j <= floor(2 m_max) for the odd ones (as many as
    `_scan_size` counts).  Each singular weight is the int pair of
    `weights._ell_ints` at its argument (`_h_even`, `_h_odd`), and it
    exceeds A exactly when the numerator of `weights._excess`, over a
    positive denominator, is > 0; `Fraction`s are built once for A and
    else only for the indices and value of a violation.
    """
    entry = lookup(g)
    k = as_rational(k)
    data = _P_plus_data(entry, k, nu)
    hyp = data is not None and not _is_extremal(entry, *data)
    rep = Sign2Report(g, k, nu, hyp,
                      "scan" if hyp else "lemma hypothesis not met")
    rec, sc = data or (_record(g, k), entry._scalars(nu))
    a, cas = _threshold(rec, sc), sc.cas
    A = Q(*a)
    eps = entry.epsilon
    n_max, m_max = as_rational(n_max), as_rational(m_max)
    size = _scan_size(eps, n_max, m_max, len(entry._odd_covs))
    if size > SCAN_CAP:
        raise TruncationIncomplete(f"scan cap {SCAN_CAP} exceeded: {size} indices of "
                                   f"{g.label()} at n_max = {format_rational(n_max)}, "
                                   f"m_max = {format_rational(m_max)}")
    # even indices: n = nn/eps, m = mm/eps with m - n integral (`_scan_size`);
    # with no m the walk over n would check nothing
    nt, mt = math.floor(eps * n_max), math.floor(eps * m_max)
    for nn in range(1, nt + 1) if mt > 0 else ():
        for mm in range(nn % eps or eps, mt + 1, eps):
            v = _ell_ints(_h_even(rec, eps, (nn, eps), (mm, eps)), rec, cas)
            rep.checked += 1
            if _excess(v, a)[0] > 0:
                rep.violations.append(("h_even", (Q(nn, eps), Q(mm, eps)), Q(*v), A))
    # odd indices: m = j/2 for odd j <= 2 m_max, gamma over the support of Delta'
    pairs = [(odd[0], _odd_pair(odd, sc.d, sc.x)) for odd in entry._odd_covs]
    for j in range(1, math.floor(2 * m_max) + 1, 2):
        for gamma, pair in pairs:
            v = _ell_ints(_h_odd(rec, pair, (j, 2)), rec, cas)
            rep.checked += 1
            if _excess(v, a)[0] > 0:
                rep.violations.append(("h_odd", (Q(j, 2), gamma), Q(*v), A))
    return rep
