"""Exact finite realizations of the free-boson module structures and the
G-mode Gram scalars.

States of the boson module with highest weight mu are monomials in the
creation modes a_{-j}; the invariant form is diagonal on them with the
classical norm prod_s i_s! j_s^{i_s}.  Mode operators are realized as exact
sparse maps between energy slices up to a cutoff; deformation parameters are
purely imaginary Gaussian rationals so every check stays in Q(i).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial
from typing import Dict, List, Optional, Tuple

from .catalog import AlgebraId, Vec, lookup
from .errors import PreconditionViolated, WindowTooSmall
from .levels import component_level
from .rationals import GaussianRational as GR

Q = Fraction

State = Tuple[Tuple[int, int], ...]  # sorted ((j, multiplicity), ...)


@dataclass(frozen=True)
class BosonBasisState:
    """Monomial prod_j a_{-j}^{i_j} applied to the highest weight vector."""

    parts: State

    @staticmethod
    def of(parts: Dict[int, int]) -> "BosonBasisState":
        items = tuple(sorted((j, i) for j, i in parts.items() if i))
        if any(j <= 0 or i < 0 for j, i in items):
            raise PreconditionViolated("modes are positive, multiplicities non-negative")
        return BosonBasisState(items)

    @property
    def energy(self) -> int:
        return sum(j * i for j, i in self.parts)

    def as_dict(self) -> Dict[int, int]:
        return dict(self.parts)


VACUUM = BosonBasisState(())


def boson_norm(state: BosonBasisState) -> Fraction:
    """Squared norm prod_s i_s! * j_s^{i_s}; mu-independent and positive."""
    out = Q(1)
    for j, i in state.parts:
        out *= factorial(i) * Q(j) ** i
    return out


@lru_cache(maxsize=None)
def states_at_energy(e: int) -> Tuple[BosonBasisState, ...]:
    """All basis states of energy e (partitions of e)."""
    def parts(rest: int, maxpart: int):
        if rest == 0:
            yield []
            return
        for p in range(min(rest, maxpart), 0, -1):
            for tail in parts(rest - p, p):
                yield [p] + tail

    out = []
    for pl in parts(e, e if e else 1):
        d: Dict[int, int] = {}
        for p in pl:
            d[p] = d.get(p, 0) + 1
        out.append(BosonBasisState.of(d))
    return tuple(out)


def states_up_to(e_max: int) -> List[BosonBasisState]:
    out: List[BosonBasisState] = []
    for e in range(e_max + 1):
        out.extend(states_at_energy(e))
    return out


def _a_apply(state: BosonBasisState, n: int, mu: Fraction):
    """Action of the mode a_n; at most one resulting basis state."""
    if n == 0:
        return [(GR.of(mu), state)] if mu != 0 else []
    d = state.as_dict()
    if n > 0:
        i = d.get(n, 0)
        if not i:
            return []
        d[n] = i - 1
        return [(GR.of(n * i), BosonBasisState.of(d))]
    d[-n] = d.get(-n, 0) + 1
    return [(GR.of(1), BosonBasisState.of(d))]


Column = Dict[BosonBasisState, GR]


@dataclass
class GradedSliceOperator:
    """Exact operator between energy slices of the mu-module, up to e_max.

    `columns` maps each admissible input state (energy E with E - n <= e_max)
    to its image; an operator with mode index n lowers energy by n.
    """

    name: str
    n: int
    mu: Fraction
    s: GR
    e_max: int
    columns: Dict[BosonBasisState, Column]

    def apply(self, state: BosonBasisState) -> Optional[Column]:
        return self.columns.get(state)

    def apply_column(self, col: Column) -> Optional[Column]:
        out: Column = {}
        for st, c in col.items():
            img = self.columns.get(st)
            if img is None:
                return None
            for st2, c2 in img.items():
                v = out.get(st2, GR.of(0)) + c * c2
                if v:
                    out[st2] = v
                elif st2 in out:
                    del out[st2]
        return out


def _admissible_inputs(n: int, e_max: int):
    # output slice must be representable (negative energy means the zero map)
    for st in states_up_to(e_max):
        if st.energy - n <= e_max:
            yield st


@lru_cache(maxsize=512)
def heisenberg_matrix(n: int, mu: Fraction, e_max: int) -> GradedSliceOperator:
    """The mode a_n as a graded operator (a_0 acts by mu)."""
    cols: Dict[BosonBasisState, Column] = {}
    for st in _admissible_inputs(n, e_max):
        col: Column = {}
        for c, st2 in _a_apply(st, n, Q(mu)):
            col[st2] = col.get(st2, GR.of(0)) + c
        cols[st] = {k: v for k, v in col.items() if v}
    return GradedSliceOperator("a", n, Q(mu), GR.of(0), e_max, cols)


def fairlie_matrix(s: GR, mu: Fraction, n: int, e_max: int) -> GradedSliceOperator:
    """Deformed Virasoro mode: (1/2) sum_j a_{-j} a_{j+n} - s*n*a_n for
    n != 0, and sum_{j>=1} a_{-j} a_j + (mu^2 - s^2)/2 for n = 0."""
    return _fairlie_cached(GR.of(s), Q(mu), n, e_max)


@lru_cache(maxsize=512)
def _fairlie_cached(s: GR, mu: Fraction, n: int, e_max: int) -> GradedSliceOperator:
    s = GR.of(s)
    if not s.is_imaginary():
        raise PreconditionViolated("the deformation parameter must be purely imaginary")
    mu = Q(mu)
    cols: Dict[BosonBasisState, Column] = {}
    if n == 0:
        const = (GR.of(mu * mu) - s * s) / 2
        for st in states_up_to(e_max):
            cols[st] = {st: GR.of(st.energy) + const}
        return GradedSliceOperator("L", 0, mu, s, e_max, cols)
    for st in _admissible_inputs(n, e_max):
        acc: Column = {}
        e = st.energy
        for j in range(-(e_max + abs(n) + 1), e_max + abs(n) + 2):
            for c1, mid in _a_apply(st, j + n, mu):
                for c2, st2 in _a_apply(mid, -j, mu):
                    v = acc.get(st2, GR.of(0)) + Q(1, 2) * c1 * c2
                    acc[st2] = v
        for c1, st2 in _a_apply(st, n, mu):
            v = acc.get(st2, GR.of(0)) - s * n * c1
            acc[st2] = v
        cols[st] = {k: v for k, v in acc.items() if v}
    return GradedSliceOperator("L", n, mu, s, e_max, cols)


def virasoro_check(s: GR, mu: Fraction, n: int, m: int, e_max: int) -> bool:
    """Exact commutator check [L_n, L_m] = (n-m) L_{n+m} + central term on all
    slices that both sides reach without truncation."""
    if abs(n) + abs(m) > e_max - 1:
        raise WindowTooSmall(f"need |n|+|m| <= e_max-1, got {n}, {m}, {e_max}")
    s = GR.of(s)
    Ln = fairlie_matrix(s, mu, n, e_max)
    Lm = fairlie_matrix(s, mu, m, e_max)
    Lnm = fairlie_matrix(s, mu, n + m, e_max)
    central = GR.of(Q((n ** 3 - n), 12)) * (GR.of(1) - GR.of(12) * s * s) \
        if m == -n else GR.of(0)
    for st in states_up_to(e_max):
        e = st.energy
        if not all(x <= e_max for x in (e - m, e - n, e - n - m)):
            continue
        c1 = Ln.apply_column(Lm.apply(st))
        c2 = Lm.apply_column(Ln.apply(st))
        base = Lnm.apply(st)
        if c1 is None or c2 is None or base is None:
            continue
        want: Column = {k: GR.of(n - m) * v for k, v in base.items()}
        if central:
            want[st] = want.get(st, GR.of(0)) + central
        keys = set(c1) | set(c2) | set(want)
        for kk in keys:
            lhs = c1.get(kk, GR.of(0)) - c2.get(kk, GR.of(0))
            if lhs != want.get(kk, GR.of(0)):
                return False
    return True


def adjointness_check(s: GR, mu: Fraction, n: int, e_max: int,
                      operator: str = "L") -> bool:
    """H(u, X_n v) = H(X_{-n} u, v) against the diagonal Gram form, where X
    is the deformed Virasoro mode ('L') or the boson mode ('a', real mu)."""
    s = GR.of(s)
    mu = Q(mu)
    if operator == "L":
        op_p = fairlie_matrix(s, mu, n, e_max)
        op_m = fairlie_matrix(s, mu, -n, e_max)
    elif operator == "a":
        op_p = heisenberg_matrix(n, mu, e_max)
        op_m = heisenberg_matrix(-n, mu, e_max)
    else:
        raise PreconditionViolated("operator must be 'L' or 'a'")
    for v in states_up_to(e_max):
        if not (0 <= v.energy - n <= e_max):
            continue
        col = op_p.apply(v)
        for u in states_at_energy(v.energy - n):
            lhs = GR.of(boson_norm(u)) * col.get(u, GR.of(0))
            back = op_m.apply(u)
            rhs = (back.get(v, GR.of(0)).conj() if back is not None else GR.of(0))
            rhs = rhs * GR.of(boson_norm(v))
            if lhs != rhs:
                return False
    return True


# ---------------------------------------------------------------------------
# the derivation identity behind the exponential factorization


Poly = Dict[BosonBasisState, GR]


def _derivation_L1(t: GR, x: Poly) -> Poly:
    """L(t)_1 acting as a derivation of the polynomial algebra on the a_{-p};
    on generators: a_{-p} -> p*a_{-p+1} for p >= 2, a_{-1} -> -2t."""
    out: Poly = {}

    def add(st: BosonBasisState, c: GR):
        v = out.get(st, GR.of(0)) + c
        if v:
            out[st] = v
        elif st in out:
            del out[st]

    for st, coef in x.items():
        d = st.as_dict()
        for p, mult in list(d.items()):
            rest = dict(d)
            rest[p] = mult - 1
            if p == 1:
                add(BosonBasisState.of(rest), coef * GR.of(mult) * (GR.of(-2) * t))
            else:
                rest[p - 1] = rest.get(p - 1, 0) + 1
                add(BosonBasisState.of(rest), coef * GR.of(mult * p))
    return out


def exp_factorization_check(t: GR, n_max: int, m_max: int) -> bool:
    """Generator-level identity L(t)_1^n(a_{-m}) = L(0)_1^n(a_{-m})
    - 2 n! delta_{n,m} t, for all n <= n_max, m <= m_max."""
    t = GR.of(t)
    zero = GR.of(0)
    for m in range(1, m_max + 1):
        gen = BosonBasisState.of({m: 1})
        xt: Poly = {gen: GR.of(1)}
        x0: Poly = {gen: GR.of(1)}
        for n in range(1, n_max + 1):
            xt = _derivation_L1(t, xt)
            x0 = _derivation_L1(zero, x0)
            want = dict(x0)
            if n == m:
                corr = GR.of(-2 * factorial(n)) * t
                v = want.get(VACUUM, zero) + corr
                if v:
                    want[VACUUM] = v
                elif VACUUM in want:
                    del want[VACUUM]
            if xt != want:
                return False
    return True


# ---------------------------------------------------------------------------
# Gram scalars of the G modes


def g_half_norm(g: AlgebraId, k, nu: Vec, l0) -> Fraction:
    """Squared norm of the lowered highest weight vector, with the positive
    Hermitian pairing on the odd half-space normalized to 1:
    -2(k+h)l0 + (nu|nu+2rho^nat) - 2(k+1)(xi|nu) + 2(xi|nu)^2."""
    entry = lookup(g)
    kh = entry.shifted_level(k)
    k, l0 = Q(k), Q(l0)
    xn = entry.form(entry.xi, nu)
    return -2 * kh * l0 + entry.casimir(nu) - 2 * (k + 1) * xn + 2 * xn * xn


def j_g_ratio(g: AlgebraId, k, nu: Vec, i: int) -> Fraction:
    """Level-one norm factor along the i-th component, up to a positive
    constant: (nu+xi)(theta_i^vee) - M_i(k).  Vanishes exactly on the
    extremality boundary and equals 1 - N_i(k,nu) on the families where
    chi_i = -xi(theta_i^vee)."""
    entry = lookup(g)
    entry.shifted_level(k)  # CriticalLevel guard
    k = Q(k)
    comp = entry.components[i - 1]
    m_i = component_level(entry, k, comp)
    return entry.coroot_pairing(nu + entry.xi, comp.theta) - m_i
