"""Truncated q-series characters.

A QWSeries is a finite sum of integer multiples of q^e * exp(w) with exact
rational exponents e and weight vectors w in the coordinate basis of the
algebra.  Truncation keeps e <= q_max and keeps weights within a depth window
measured from a reference weight: the depth of w is the coefficient sum of
(ref - w) expanded on the simple roots of g^nat (projection thereon; any
component orthogonal to the root span does not count).  Both cuts are ideals
for the ring operations, so truncated arithmetic is exact within the window.

The character sums run over the affine Weyl group generated by the
reflections in the simple roots of g^nat and in eta_i = delta - theta_i,
acting on nu_hat_h + rho_hat.  Orbit enumeration is breadth-first with
deduplication, pruned at q_shift > limit + ORBIT_MARGIN, with a hard cap of
ORBIT_CAP elements that raises TruncationIncomplete when hit.  Neither is a
parameter: both are module constants read at call time.

Summation over orbit elements is sequential and deterministic; the merge is
commutative exact addition, so a parallel evaluation would have to reproduce
these exact coefficients bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Dict, List, Optional, Sequence, Tuple

from .catalog import (AlgebraId, CatalogEntry, Vec, _root_span_projection, lookup,
                      zero_vec)
from .errors import (IndexOutOfRange, NonDominant, PreconditionViolated,
                     TruncationIncomplete, UnsupportedD21a)
from .rationals import format_rational, solve_quadratic_rational
from .weights import A_bound, _is_extremal, _P_plus_data, in_P_plus_k

Q = Fraction


# ---------------------------------------------------------------------------
# affine weights


@dataclass(frozen=True)
class AffineWeight:
    """level * Lambda_0 + finite + delta_coeff * delta."""

    level: Fraction
    finite: Vec
    delta_coeff: Fraction

    def x_plus_d(self, entry: CatalogEntry) -> Fraction:
        return entry.form(self.finite, entry.theta) / 2 + self.delta_coeff


def nu_hat(entry: CatalogEntry, k, nu: Vec, h) -> AffineWeight:
    """k*Lambda_0 + nu + h*theta."""
    return AffineWeight(Q(k), nu + Q(h) * entry.theta, Q(0))


def nu_hat_plus_rho(entry: CatalogEntry, k, nu: Vec, h) -> AffineWeight:
    """nu_hat_h + rho_hat.  Only pairings against the affine system of g^nat
    are ever taken, so rho_hat enters through rho^nat and its theta-component
    (rho|theta) = h_vee - 1."""
    fin = nu + entry.rho_natural + (Q(h) + Q(entry.h_vee - 1, 2)) * entry.theta
    return AffineWeight(Q(k) + entry.h_vee, fin, Q(0))


def iso_simple_affine(entry: CatalogEntry) -> List[AffineWeight]:
    """The isotropic simple roots as affine weights: each restricts to -xi on
    h^nat and pairs to 1/2 with x+d."""
    a = AffineWeight(Q(0), Q(1, 2) * entry.theta - entry.xi, Q(0))
    return [a] * entry.iso_simple_count


def _eta_pairing(entry: CatalogEntry, lam: AffineWeight, comp) -> Fraction:
    return (2 / comp.u) * (lam.level - entry.form(lam.finite, comp.theta))


def _reflect_finite(entry: CatalogEntry, lam: AffineWeight, alpha: Vec) -> AffineWeight:
    c = entry.coroot_pairing(lam.finite, alpha)
    return AffineWeight(lam.level, lam.finite - c * alpha, lam.delta_coeff)


def _reflect_eta(entry: CatalogEntry, lam: AffineWeight, comp) -> AffineWeight:
    c = _eta_pairing(entry, lam, comp)
    return AffineWeight(lam.level, lam.finite + c * comp.theta, lam.delta_coeff - c)


# ---------------------------------------------------------------------------
# depth functional


@lru_cache(maxsize=2 ** 18)
def _depth_value(aid: AlgebraId, w: Vec) -> Fraction:
    cov = _root_span_projection(aid)[1]
    return sum((c * x for c, x in zip(cov, w)), Q(0))


def depth_of(entry: CatalogEntry, ref: Vec, w: Vec) -> Fraction:
    """Depth of w relative to ref (linear, so computed as a difference of
    cached per-weight values)."""
    return _depth_value(entry.id, ref) - _depth_value(entry.id, w)


@lru_cache(maxsize=None)
def _max_theta_depth(aid: AlgebraId) -> Fraction:
    """Largest depth of a component highest root; bounds how far an orbit
    restriction can sit above nu per unit of q_shift."""
    entry = lookup(aid)
    zero = zero_vec(entry.n)
    return max([depth_of(entry, zero, -1 * c.theta) for c in entry.components]
               + [Q(1)])


@lru_cache(maxsize=None)
def _dip_density(aid: AlgebraId) -> Fraction:
    """Largest depth drop per unit of q across all expansion factors: bosonic
    exponents exp(alpha) cost q^n (n >= 1), odd-space ones cost q^{1/2}."""
    entry = lookup(aid)
    zero = zero_vec(entry.n)
    cands = [abs(depth_of(entry, zero, a)) for a in entry.pos_roots_natural]
    cands += [2 * abs(depth_of(entry, zero, g)) for g, _ in entry.delta_prime]
    return max(cands) if cands else Q(1)


# ---------------------------------------------------------------------------
# the truncated series ring


class QWSeries:
    """Finite q-series with weight-vector coefficients, truncated at q_max and
    at a depth window around `ref`.

    `slope` is an internal headroom device for intermediate products: terms at
    q-level q are kept up to depth + slope*(q_max - q).  Published series
    always carry slope 0.
    """

    __slots__ = ("entry", "q_max", "depth", "ref", "slope", "terms")

    def __init__(self, entry: CatalogEntry, q_max, depth, ref: Optional[Vec] = None,
                 terms: Optional[Dict[Fraction, Dict[Vec, int]]] = None,
                 slope: Fraction = Q(0)):
        self.entry = entry
        self.q_max = Q(q_max)
        self.depth = Q(depth)
        self.ref = ref if ref is not None else zero_vec(entry.n)
        self.slope = Q(slope)
        self.terms: Dict[Fraction, Dict[Vec, int]] = terms if terms is not None else {}

    # -- basic structure ----------------------------------------------------
    def add_term(self, q, w: Vec, c: int) -> None:
        q = Q(q)
        if c == 0 or q > self.q_max:
            return
        lim = self.depth + self.slope * (self.q_max - q)
        if depth_of(self.entry, self.ref, w) > lim:
            return
        lvl = self.terms.setdefault(q, {})
        nc = lvl.get(w, 0) + c
        if nc:
            lvl[w] = nc
        else:
            del lvl[w]
            if not lvl:
                del self.terms[q]

    def coeff(self, q, w: Vec) -> int:
        return self.terms.get(Q(q), {}).get(w, 0)

    def is_zero(self) -> bool:
        return not self.terms

    def n_terms(self) -> int:
        return sum(len(l) for l in self.terms.values())

    def copy(self) -> "QWSeries":
        return QWSeries(self.entry, self.q_max, self.depth, self.ref,
                        {q: dict(l) for q, l in self.terms.items()}, self.slope)

    @staticmethod
    def unit(entry: CatalogEntry, q_max, depth, ref: Optional[Vec] = None,
             slope: 'Fraction' = Q(0)) -> "QWSeries":
        s = QWSeries(entry, q_max, depth, ref, slope=slope)
        s.add_term(0, zero_vec(entry.n), 1)
        return s

    # -- ring operations ----------------------------------------------------
    def __add__(self, other: "QWSeries") -> "QWSeries":
        out = self.copy()
        for q, lvl in other.terms.items():
            for w, c in lvl.items():
                out.add_term(q, w, c)
        return out

    def __sub__(self, other: "QWSeries") -> "QWSeries":
        out = self.copy()
        for q, lvl in other.terms.items():
            for w, c in lvl.items():
                out.add_term(q, w, -c)
        return out

    def scaled(self, c: int) -> "QWSeries":
        out = QWSeries(self.entry, self.q_max, self.depth, self.ref,
                       slope=self.slope)
        for q, lvl in self.terms.items():
            for w, cc in lvl.items():
                out.add_term(q, w, c * cc)
        return out

    def __mul__(self, other: "QWSeries") -> "QWSeries":
        out = QWSeries(self.entry, min(self.q_max, other.q_max),
                       min(self.depth, other.depth), self.ref + other.ref,
                       slope=min(self.slope, other.slope))
        for q1, l1 in self.terms.items():
            for q2, l2 in other.terms.items():
                q = q1 + q2
                if q > out.q_max:
                    continue
                for w1, c1 in l1.items():
                    for w2, c2 in l2.items():
                        out.add_term(q, w1 + w2, c1 * c2)
        return out

    def shifted(self, wt: Vec, ell) -> "QWSeries":
        """Multiply by q^ell * exp(wt); the reference weight moves with the
        shift and the q ceiling rises accordingly (absolute cuts are applied
        afterwards with `truncated`)."""
        out = QWSeries(self.entry, self.q_max + Q(ell), self.depth, self.ref + wt,
                       slope=self.slope)
        for q, lvl in self.terms.items():
            for w, c in lvl.items():
                out.add_term(q + Q(ell), w + wt, c)
        return out

    def truncated(self, q_max, depth, ref: Optional[Vec] = None) -> "QWSeries":
        out = QWSeries(self.entry, Q(q_max), Q(depth),
                       self.ref if ref is None else ref)
        for q, lvl in self.terms.items():
            for w, c in lvl.items():
                out.add_term(q, w, c)
        return out

    # -- inspection -----------------------------------------------------------
    def leading(self) -> Optional[Tuple[Fraction, Vec, int]]:
        """(smallest q, smallest weight at that q, coefficient)."""
        if not self.terms:
            return None
        q = min(self.terms)
        w = min(self.terms[q], key=tuple)
        return q, w, self.terms[q][w]

    def q_levels(self) -> List[Fraction]:
        return sorted(self.terms)

    def records(self) -> List[dict]:
        out = []
        for q in sorted(self.terms):
            for w in sorted(self.terms[q], key=tuple):
                out.append({"q": format_rational(q),
                            "weight": [format_rational(c) for c in w],
                            "coeff": self.terms[q][w]})
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, QWSeries):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        return f"QWSeries({self.n_terms()} terms, q_max={self.q_max}, depth={self.depth})"


def series_from_records(entry: CatalogEntry, recs: Sequence[dict], q_max, depth,
                        ref: Optional[Vec] = None) -> QWSeries:
    s = QWSeries(entry, q_max, depth, ref)
    for r in recs:
        s.add_term(Q(r["q"]), Vec(Q(c) for c in r["weight"]), int(r["coeff"]))
    return s


# ---------------------------------------------------------------------------
# factor expansions (all built with reference weight 0)


def _geom(entry: CatalogEntry, q_max, depth, w: Vec, c: Fraction, sign: int,
          slope: Fraction = Q(0)) -> QWSeries:
    """Expansion of 1/(1 - sign * q^c * exp(w)) with c >= 0; for c = 0 the
    weight must point in the positive-depth direction."""
    out = QWSeries(entry, q_max, depth, slope=slope)
    zero = zero_vec(entry.n)
    lim = depth + slope * Q(q_max)
    j = 0
    while j * c <= out.q_max:
        if c == 0 and j > 0 and depth_of(entry, zero, j * w) > lim:
            break
        out.add_term(j * c, j * w, sign ** j)
        j += 1
    return out


def _fermion_inverse(entry: CatalogEntry, q_max, depth, w: Vec, c: Fraction,
                     slope: Fraction = Q(0)) -> QWSeries:
    """Expansion of 1/(1 + q^c exp(w)) for c != 0.  Negative c is rewritten
    exactly as q^{-c} exp(-w) / (1 + q^{-c} exp(-w)) first, so the result is
    always a series in non-negative q powers."""
    out = QWSeries(entry, q_max, depth, slope=slope)
    if c > 0:
        j = 0
        while j * c <= out.q_max:
            out.add_term(j * c, j * w, (-1) ** j)
            j += 1
    else:
        j = 0
        while (j + 1) * (-c) <= out.q_max:
            out.add_term((j + 1) * (-c), (-j - 1) * w, (-1) ** j)
            j += 1
    return out


def _fermion_inverse_sq(entry: CatalogEntry, q_max, depth, w: Vec, c: Fraction) -> QWSeries:
    """Expansion of (1 + q^c exp(w))^(-2) for c != 0, flip included."""
    out = QWSeries(entry, q_max, depth)
    if c > 0:
        j = 0
        while j * c <= out.q_max:
            out.add_term(j * c, j * w, (-1) ** j * (j + 1))
            j += 1
    else:
        j = 0
        while (j + 2) * (-c) <= out.q_max:
            out.add_term((j + 2) * (-c), (-j - 2) * w, (-1) ** j * (j + 1))
            j += 1
    return out


@lru_cache(maxsize=32)
def _fns_cached(aid: AlgebraId, q_max: Fraction, depth: Fraction,
                slope: Fraction = Q(0)) -> QWSeries:
    entry = lookup(aid)
    rank = len(entry.simple_roots_natural) + (1 if entry.center else 0)
    out = QWSeries.unit(entry, q_max, depth, slope=slope)
    zero = zero_vec(entry.n)
    n = 1
    while n - 1 <= q_max:
        if Q(2 * n - 1, 2) <= q_max:
            for gma, mult in entry.delta_prime:
                fac = QWSeries(entry, q_max, depth, slope=slope)
                fac.add_term(0, zero, 1)
                fac.add_term(Q(2 * n - 1, 2), -1 * gma, 1)
                for _ in range(mult):
                    out = out * fac
        if n <= q_max:
            fac = _geom(entry, q_max, depth, zero, Q(n), 1, slope)
            for _ in range(rank):
                out = out * fac
        for alpha in entry.pos_roots_natural:
            out = out * _geom(entry, q_max, depth, -1 * alpha, Q(n - 1), 1, slope)
            if n <= q_max:
                out = out * _geom(entry, q_max, depth, alpha, Q(n), 1, slope)
        n += 1
    return out


def fns_series(g: AlgebraId, q_max, depth) -> QWSeries:
    """Truncated expansion of the NS-sector denominator factor.

    The result is the exact window truncation of the infinite product: the
    construction runs with sloped depth headroom (weights can re-ascend by at
    most the dip density per unit of q) and is cut flat at the end.
    """
    if Q(q_max) < 0:
        raise PreconditionViolated("q_max must be non-negative")
    scheduled = _fns_cached(g, Q(q_max), Q(depth), _dip_density(g))
    return scheduled.truncated(Q(q_max), Q(depth))


def verma_character(g: AlgebraId, nu: Vec, ell, q_max, depth) -> QWSeries:
    """exp(nu) q^ell times the NS denominator series, truncated at q_max."""
    ell = Q(ell)
    entry = lookup(g)
    window = Q(q_max) - ell
    if window < 0:
        return QWSeries(entry, Q(q_max), Q(depth), nu)
    return fns_series(g, window, depth).shifted(nu, ell).truncated(q_max, depth)


# ---------------------------------------------------------------------------
# conformal-weight bookkeeping


def ell_of_h(g: AlgebraId, k, nu: Vec, h) -> Fraction:
    """Lowest energy of the reduced module with highest weight nu_hat_h."""
    entry = lookup(g)
    kh = entry.shifted_level(k)
    k, h = Q(k), Q(h)
    return entry.casimir(nu) / (2 * kh) + h * (h - k - 1) / kh


def h_pair(g: AlgebraId, k, nu: Vec, l0) -> Optional[Tuple[Fraction, Fraction]]:
    """Rational solutions (h, h') of ell(h) = l0, with h' = k+1-h, or None
    when the discriminant is not a rational square."""
    entry = lookup(g)
    kh = entry.shifted_level(k)
    k, l0 = Q(k), Q(l0)
    c0 = entry.casimir(nu) / (2 * kh)
    roots = solve_quadratic_rational(Q(1), -(k + 1), -(l0 - c0) * kh)
    if roots is None:
        return None
    h = roots[0]
    return h, k + 1 - h


# ---------------------------------------------------------------------------
# orbit enumeration


@dataclass(frozen=True)
class OrbitElement:
    restriction: Vec            # (w.nu_hat_h) restricted to h^nat
    det: int
    q_shift: Fraction
    iso_images: tuple           # images of the isotropic simple roots (massless)


ORBIT_MARGIN = Q(2)  # pad on the q_shift pruning bound, until pruning at 0 is proved sound
ORBIT_CAP = 10 ** 6  # orbit elements seen before TruncationIncomplete is raised


def _orbit(entry: CatalogEntry, k: Fraction, nu: Vec, h: Fraction,
           q_shift_limit: Fraction, track_iso: bool = False) -> List[OrbitElement]:
    """Breadth-first shifted-orbit enumeration.  Deduplication is on the image
    of nu_hat+rho_hat (plus the isotropic-root images when tracked, which
    separates group elements even when the orbit point sits on a wall)."""
    lam0 = nu_hat_plus_rho(entry, k, nu, h)
    base_xd = lam0.x_plus_d(entry)
    iso0 = tuple(iso_simple_affine(entry)) if track_iso else ()
    seen = {(lam0, iso0)}
    frontier = [(lam0, 1, iso0)]
    out: List[OrbitElement] = []
    while frontier:
        nxt = []
        for lam, det, iso in frontier:
            shift = base_xd - lam.x_plus_d(entry)
            if shift <= q_shift_limit:
                restr = entry.restrict(lam.finite) - entry.rho_natural
                out.append(OrbitElement(restr, det, shift, iso))
            if shift > q_shift_limit + ORBIT_MARGIN:
                continue
            for alpha in entry.simple_roots_natural:
                lam2 = _reflect_finite(entry, lam, alpha)
                iso2 = tuple(_reflect_finite(entry, b, alpha) for b in iso)
                key = (lam2, iso2)
                if key not in seen:
                    seen.add(key)
                    nxt.append((lam2, -det, iso2))
            for comp in entry.components:
                lam2 = _reflect_eta(entry, lam, comp)
                iso2 = tuple(_reflect_eta(entry, b, comp) for b in iso)
                key = (lam2, iso2)
                if key not in seen:
                    seen.add(key)
                    nxt.append((lam2, -det, iso2))
            if len(seen) > ORBIT_CAP:
                raise TruncationIncomplete(
                    f"orbit cap {ORBIT_CAP} hit at q_shift limit {q_shift_limit}")
        frontier = nxt
    out.sort(key=lambda e: (e.q_shift, tuple(e.restriction), e.det))
    return out


def weyl_orbit(g: AlgebraId, k, nu: Vec, h, q_max) -> List[Tuple[Vec, int, Fraction]]:
    """Distinct shifted-orbit elements with q_shift <= q_max.

    Returns (restriction of w.nu_hat_h to h^nat, det w, q_shift); the
    restrictions and shifts do not depend on h.
    """
    entry = lookup(g)
    if not in_P_plus_k(g, k, nu):
        raise NonDominant("weyl_orbit requires nu in P^+_k")
    els = _orbit(entry, Q(k), nu, Q(h), Q(q_max))
    return [(e.restriction, e.det, e.q_shift) for e in els]


# ---------------------------------------------------------------------------
# character formulas


def character_massive(g: AlgebraId, k, nu: Vec, l0, q_max, depth) -> QWSeries:
    """Alternating orbit sum of Verma characters; valid strictly above the
    threshold."""
    entry = lookup(g)
    k, l0, q_max, depth = Q(k), Q(l0), Q(q_max), Q(depth)
    data = _P_plus_data(g, k, nu)
    if data is None or _is_extremal(entry, data[0], nu, data[1]):
        raise PreconditionViolated("massive character needs non-extremal nu in P^+_k")
    if l0 <= A_bound(g, k, nu):
        raise PreconditionViolated("massive character needs l0 > A(k,nu)")
    pair = h_pair(g, k, nu, l0)
    h = pair[0] if pair is not None else Q(0)  # orbit data is h-independent
    out = QWSeries(entry, q_max, depth, nu)
    window = q_max - l0
    if window < 0:
        return out
    # orbit restrictions may sit above nu by up to q_shift * max theta-depth,
    # and in-window exponents can dip by the per-q density; the scheduled
    # headroom keeps every cell of the final flat cut complete.
    base = depth + window * _max_theta_depth(entry.id)
    fns = _fns_cached(entry.id, window, base, _dip_density(entry.id))
    for el in _orbit(entry, k, nu, h, window):
        piece = fns.shifted(el.restriction, l0 + el.q_shift).truncated(q_max, depth, nu)
        out = out + piece.scaled(el.det)
    return out


def character_massless(g: AlgebraId, k, nu: Vec, q_max, depth) -> QWSeries:
    """Character at the threshold l0 = A(k,nu): orbit sum with the isotropic
    simple-root corrections resummed per orbit element.

    Factors whose q-exponent goes negative along the orbit are rewritten by
    the exact flip before expanding, so every summand is a genuine series in
    non-negative powers above l0.
    """
    entry = lookup(g)
    k, q_max, depth = Q(k), Q(q_max), Q(depth)
    if g.family == "D21a" and not nu.is_zero():
        raise UnsupportedD21a("massless D(2,1;a) characters are only available at nu = 0")
    if not in_P_plus_k(g, k, nu):
        raise PreconditionViolated("massless character needs nu in P^+_k")
    l0 = A_bound(g, k, nu)
    h = entry.form(entry.xi, nu)
    out = QWSeries(entry, q_max, depth, nu)
    window = q_max - l0
    if window < 0:
        return out
    base = depth + window * _max_theta_depth(entry.id)
    density = _dip_density(entry.id)
    fns = _fns_cached(entry.id, window, base, density)
    for el in _orbit(entry, k, nu, h, window, track_iso=True):
        piece = fns
        for beta in el.iso_images:
            c = beta.x_plus_d(entry)
            wrest = entry.restrict(beta.finite)
            piece = piece * _fermion_inverse(entry, window, base, -1 * wrest, c, density)
        piece = piece.shifted(el.restriction, l0 + el.q_shift).truncated(q_max, depth, nu)
        out = out + piece.scaled(el.det)
    return out


def n4_closed_form(M1: int, r: int, q_max, depth) -> QWSeries:
    """Bilateral closed form for the threshold characters of the N=4 family;
    an independent cross-check for character_massless.

    The exponent symbol written eta_1 in the source is read as the finite
    root theta_1, the weight being (r/2)*theta_1 for integer 0 <= r <= M1
    (extremal boundary included)."""
    if not (isinstance(M1, int) and M1 >= 1):
        raise IndexOutOfRange("M1 must be a positive integer")
    if not (isinstance(r, int) and 0 <= r <= M1):
        raise IndexOutOfRange("need 0 <= r <= M1")
    g = AlgebraId("psl22")
    entry = lookup(g)
    q_max, depth = Q(q_max), Q(depth)
    th = entry.components[0].theta
    half = Q(1, 2) * th
    l0 = Q(r, 2)
    nu = Q(r, 2) * th
    out = QWSeries(entry, q_max, depth, nu)
    window = q_max - l0
    if window < 0:
        return out
    head = depth + 2 * window + 6
    total = QWSeries(entry, window, head)
    # min exponent of the m-th summand: m^2(M1+1)+(r+1)m, plus -(2m+1) when
    # the fermionic factors flip (m < 0); bound |m| generously from that.
    bound = 2 + int(math.isqrt(int(4 * (window + 2 + r + 2) / (M1 + 1))) + (r + 2))
    for m in range(-bound, bound + 1):
        base = Q(m * m * (M1 + 1) + (r + 1) * m)
        lead = base if m >= 0 else base - (2 * m + 1)
        if lead > window:
            continue
        c = Q(2 * m + 1, 2)
        wplus = (Q(r, 2) + m * (M1 + 1)) * th
        wminus = -1 * (Q(r, 2) + m * (M1 + 1) + 1) * th
        f1 = _fermion_inverse_sq(entry, window - base, head, half, c)
        f2 = _fermion_inverse_sq(entry, window - base, head, -1 * half, c)
        total = total + f1.shifted(wplus, base).truncated(window, head, total.ref)
        total = total - f2.shifted(wminus, base).truncated(window, head, total.ref)
    # the summand weights already carry nu; the prefactor only shifts q
    fns = fns_series(g, window, head)
    return (fns * total).shifted(zero_vec(entry.n), l0).truncated(q_max, depth, nu)
