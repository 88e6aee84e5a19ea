"""Exact finite realizations of the free-boson module structures and the
G-mode Gram scalars.

States of the boson module with highest weight mu are monomials in the
creation modes a_{-j}; the invariant form is diagonal on them with the
classical norm prod_s i_s! j_s^{i_s}.  Mode operators are realized as exact
sparse maps between energy slices up to a cutoff; deformation parameters are
purely imaginary Gaussian rationals so every check stays in Q(i).

The checks run on an integer kernel.  A state is its position in
`states_up_to(e_max)` (`_basis`), and an operator is a tuple of columns, one
per input position: None outside the operator's window, else a dict
{output position: (re, im)} of Gaussian integers over one scale, with no
(0, 0) stored.  Three facts make the kernel exact:

1. Decomposition.  For n != 0 the j = 0 and j = -n terms of
   (1/2) sum_j a_{-j} a_{j+n} are a_0 a_n and a_n a_0, each mu*a_n, so
   L_n = (1/2) P_n + (mu - s*n) a_n with P_n = sum_{j != 0, -n} a_{-j} a_{j+n}.
   P_n and a_n have int entries and do not depend on (s, mu); they are
   built once per (n, e_max) (`_p_map`, `_a_map`), and one (s, mu) family
   of operators is one int scaling of them (`_scaled_L`).
   L_0 = E + (mu^2 + sigma^2)/2 on the diagonal, where s = sigma*i.
2. Scale.  With l = lcm(den mu, den sigma) and D = 2 l^2, the numbers D/2,
   D*mu, D*sigma*n and D (mu^2 + sigma^2)/2 = (l mu)^2 + (l sigma)^2 are
   integers, so D*L_n has entries in Z[i].  A commutator is compared at
   scale D^2, where the central term
   D^2 (n^3 - n)/12 (1 + 12 sigma^2) = l^4 (n^3 - n)/3 + 4 (n^3 - n)(l^2 sigma)^2
   is an integer because 6 divides n^3 - n.  `_exact_int` raises, never
   rounds, if a scaled value is not integral.
3. Supports.  The norms are positive, so H(u, X_n v) = H(X_{-n} u, v)
   fails at (u, v) exactly when X_n[u, v] != 0 and the two sides differ, or
   X_n[u, v] = 0 != X_{-n}[v, u].  `adjointness_check` compares every
   nonzero X_n[u, v] of the window with X_{-n}[v, u], then checks that the
   nonzero entries of X_{-n} whose input u lies in the window were all met
   that way.  Together the two walks reject exactly when the dense loop
   over all (u, v) pairs of the window does.

`fairlie_matrix` and `heisenberg_matrix` are the boundary: the same
operators as `GradedSliceOperator`s with `GaussianRational` entries, each an
int pair over its scale.  tests/test_gram_lab.py keeps the `Fraction` builds
as the oracle and checks each fact against it.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from typing import Dict, List, NamedTuple, Optional, Tuple

from .catalog import AlgebraId, Vec, lookup
from .errors import IndexOutOfSet, PreconditionViolated, WindowTooSmall
from .levels import level_data
from .rationals import GaussianRational as GR
from .rationals import as_rational
from .weights import A_bound, _plus_xi, _thetas

Q = Fraction

State = Tuple[Tuple[int, int], ...]  # sorted ((j, multiplicity), ...)


class BosonBasisState(NamedTuple):
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


VACUUM = BosonBasisState(())


def boson_norm(state: BosonBasisState) -> Fraction:
    """Squared norm prod_s i_s! * j_s^{i_s}; mu-independent and positive."""
    out = Q(1)
    for j, i in state.parts:
        out *= factorial(i) * Q(j) ** i
    return out


@lru_cache(maxsize=16)  # one entry per energy: every e_max below 16 stays cached
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


Column = Dict[BosonBasisState, GR]
Pair = Tuple[int, int]  # (re, im) of a Gaussian integer
IntColumn = Dict[int, Pair]  # output position -> entry; (0, 0) is never stored
IntOperator = Tuple[Optional[IntColumn], ...]  # None: input outside the window
_ZERO = (0, 0)


def _add_into(out: Column, col: Column, c: GR) -> None:
    """out += c * col in place; entries that cancel are dropped, so a column
    never stores a zero coefficient."""
    for st, v in col.items():
        v = out[st] + c * v if st in out else c * v
        if v:
            out[st] = v
        else:
            out.pop(st, None)


class GradedSliceOperator(NamedTuple):
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
            _add_into(out, img, c)
        return out


# ---------------------------------------------------------------------------
# the integer kernel


class _Basis(NamedTuple):
    """`states_up_to(e_max)` by position, with energies and int norms."""

    states: Tuple[BosonBasisState, ...]
    index: Dict[State, int]  # parts -> position
    energy: Tuple[int, ...]
    norm: Tuple[int, ...]


@lru_cache(maxsize=16)
def _basis(e_max: int) -> _Basis:
    states = tuple(states_up_to(e_max))
    return _Basis(states, {st.parts: i for i, st in enumerate(states)},
                  tuple(st.energy for st in states),
                  tuple(boson_norm(st).numerator for st in states))


@lru_cache(maxsize=64)
def _a_map(n: int, e_max: int) -> Tuple[Optional[Dict[int, int]], ...]:
    """The mode a_n, n != 0, on `_basis(e_max)`: column i is None when state
    i is not an admissible input (energy - n > e_max), else {position: int} with
    at most one entry, n*i_n for n > 0 and 1 for n < 0."""
    b = _basis(e_max)
    cols: List[Optional[Dict[int, int]]] = []
    for st, e in zip(b.states, b.energy):
        if e - n > e_max:
            cols.append(None)
            continue
        d = dict(st.parts)
        if n > 0:
            mult = d.pop(n, 0)
            if not mult:
                cols.append({})
                continue
            if mult > 1:
                d[n] = mult - 1
            coef = n * mult
        else:
            d[-n] = d.get(-n, 0) + 1
            coef = 1
        cols.append({b.index[tuple(sorted(d.items()))]: coef})
    return tuple(cols)


@lru_cache(maxsize=64)
def _p_map(n: int, e_max: int) -> Tuple[Optional[Dict[int, int]], ...]:
    """P_n = sum_{j != 0, -n} a_{-j} a_{j+n}, n != 0, shaped like
    `_a_map(n, e_max)`.  It is the sum over ordered pairs (l, k) with
    l + k = n and l, k != 0 of a_l a_k; on a state of energy E only
    n - E <= k <= E survive.  The two modes commute (l + k != 0), so each
    product applies its annihilator first when it has one; every
    intermediate state then has energy at most max(E, E - n) <= e_max and
    lies in the basis."""
    b = _basis(e_max)
    a = {j: _a_map(j, e_max) for j in range(-e_max, e_max + 1) if j}
    cols: List[Optional[Dict[int, int]]] = []
    for i, e in enumerate(b.energy):
        if e - n > e_max:
            cols.append(None)
            continue
        acc: Dict[int, int] = {}
        for k in range(n - e, e + 1):
            l = n - k
            if k == 0 or l == 0:
                continue
            first, then = (k, l) if k > 0 or l < 0 else (l, k)
            for x, c1 in a[first][i].items():
                for y, c2 in a[then][x].items():
                    acc[y] = acc.get(y, 0) + c1 * c2
        cols.append(acc)
    return tuple(cols)


def _exact_int(x: Fraction) -> int:
    """x as an int; raises (never rounds) when the scale argument fails."""
    if x.denominator != 1:
        raise ArithmeticError(f"scaled value {x} is not an integer")
    return x.numerator


def _imaginary_part(s: GR) -> Fraction:
    if not s.is_imaginary():
        raise PreconditionViolated("the deformation parameter must be purely imaginary")
    return s.im


@lru_cache(maxsize=256)
def _scaled_L(sigma: Fraction, mu: Fraction, n: int, e_max: int) -> Tuple[int, IntOperator]:
    """(D, D*L_n) for s = sigma*i, with D = 2 lcm(den mu, den sigma)^2: for
    n != 0, D*L_n = (D/2) P_n + (D mu - D sigma n i) a_n, and D*L_0 is the
    diagonal D*E + D (mu^2 + sigma^2)/2 (facts 1 and 2 of the module
    docstring)."""
    l = lcm(sigma.denominator, mu.denominator)
    D = 2 * l * l
    if n == 0:
        c0 = _exact_int(D * (mu * mu + sigma * sigma) / 2)
        return D, tuple({i: (D * e + c0, 0)} if D * e + c0 else {}
                        for i, e in enumerate(_basis(e_max).energy))
    half, re, im = D // 2, _exact_int(D * mu), _exact_int(-D * sigma * n)
    cols: List[Optional[IntColumn]] = []
    for pcol, acol in zip(_p_map(n, e_max), _a_map(n, e_max)):
        if pcol is None:
            cols.append(None)
            continue
        col = {y: (half * c, 0) for y, c in pcol.items()}
        for y, c in acol.items():
            r, j = col.get(y, _ZERO)
            col[y] = (r + re * c, j + im * c)
        cols.append({y: v for y, v in col.items() if v != _ZERO})
    return D, tuple(cols)


def _scaled_a(mu: Fraction, n: int, e_max: int) -> IntOperator:
    """den(mu) * a_n as pairs; a_0 acts by mu."""
    if n == 0:
        return tuple({i: (mu.numerator, 0)} if mu else {}
                     for i in range(len(_basis(e_max).states)))
    d = mu.denominator
    return tuple(None if col is None else {y: (d * c, 0) for y, c in col.items()}
                 for col in _a_map(n, e_max))


def _view(name: str, n: int, mu: Fraction, s: GR, e_max: int, scale: int,
          cols: IntOperator) -> GradedSliceOperator:
    """The boundary: int pairs over `scale` as `GaussianRational` columns."""
    states, value = _basis(e_max).states, {}
    for col in cols:
        for pair in (col or {}).values():
            if pair not in value:
                value[pair] = GR(Q(pair[0], scale), Q(pair[1], scale))
    return GradedSliceOperator(name, n, mu, s, e_max, {
        states[i]: {states[y]: value[pair] for y, pair in col.items()}
        for i, col in enumerate(cols) if col is not None})


@lru_cache(maxsize=512, typed=True)  # typed: a float mu equal to a cached one still raises
def heisenberg_matrix(n: int, mu: Fraction, e_max: int) -> GradedSliceOperator:
    """The mode a_n as a graded operator (a_0 acts by mu): the view of the
    int map `_a_map`."""
    mu = as_rational(mu)
    return _view("a", n, mu, GR.of(0), e_max, mu.denominator, _scaled_a(mu, n, e_max))


def fairlie_matrix(s: GR, mu: Fraction, n: int, e_max: int) -> GradedSliceOperator:
    """Deformed Virasoro mode: (1/2) sum_j a_{-j} a_{j+n} - s*n*a_n for
    n != 0, and sum_{j>=1} a_{-j} a_j + (mu^2 - s^2)/2 for n = 0: the view
    of `_scaled_L`, each entry its int pair over D."""
    s, mu = GR.of(s), as_rational(mu)
    scale, cols = _scaled_L(_imaginary_part(s), mu, n, e_max)
    return _view("L", n, mu, s, e_max, scale, cols)


def _add_product(acc: IntColumn, first: IntOperator, then: IntOperator, i: int,
                 sign: int) -> None:
    """acc += sign * (then . first) applied to state i, over int pairs."""
    for x, (ar, ai) in first[i].items():
        for y, (br, bi) in then[x].items():
            r, j = acc.get(y, _ZERO)
            acc[y] = (r + sign * (ar * br - ai * bi), j + sign * (ar * bi + ai * br))


def virasoro_check(s: GR, mu: Fraction, n: int, m: int, e_max: int) -> bool:
    """Exact commutator check [L_n, L_m] = (n-m) L_{n+m} + central term on all
    slices that both sides reach without truncation: every state of energy E
    with E - m, E - n and E - n - m at most e_max.  Compared at scale D^2
    on the int operators D*L (`_scaled_L`)."""
    if abs(n) + abs(m) > e_max - 1:
        raise WindowTooSmall(f"need |n|+|m| <= e_max-1, got {n}, {m}, {e_max}")
    s, mu = GR.of(s), as_rational(mu)
    sigma = _imaginary_part(s)
    D, Ln = _scaled_L(sigma, mu, n, e_max)
    _, Lm = _scaled_L(sigma, mu, m, e_max)
    _, Lnm = _scaled_L(sigma, mu, n + m, e_max)
    central = _exact_int(D * D * Q(n ** 3 - n, 12) * (1 + 12 * sigma * sigma)) \
        if m == -n else 0
    step = (n - m) * D
    for i, e in enumerate(_basis(e_max).energy):
        if max(e - m, e - n, e - n - m) > e_max:
            continue
        acc = {i: (-central, 0)} if central else {}
        _add_product(acc, Lm, Ln, i, 1)
        _add_product(acc, Ln, Lm, i, -1)
        for y, (br, bi) in Lnm[i].items():
            r, j = acc.get(y, _ZERO)
            acc[y] = (r - step * br, j - step * bi)
        if any(v != _ZERO for v in acc.values()):
            return False
    return True


def adjointness_check(s: GR, mu: Fraction, n: int, e_max: int,
                      operator: str = "L") -> bool:
    """H(u, X_n v) = H(X_{-n} u, v) against the diagonal Gram form, where X
    is the deformed Virasoro mode ('L') or the boson mode ('a', real mu),
    over every v with 0 <= E_v - n <= e_max and u of energy E_v - n.  Walks
    the two supports (fact 3 of the module docstring) on the int operators
    D*X: norm(u) D X_n[u, v] = norm(v) conj(D X_{-n}[v, u]).
    Raises WindowTooSmall when |n| > e_max: no state pair would be compared."""
    if abs(n) > e_max:
        raise WindowTooSmall(f"need |n| <= e_max, got {n}, {e_max}")
    s, mu = GR.of(s), as_rational(mu)
    if operator == "L":
        sigma = _imaginary_part(s)
        op_p = _scaled_L(sigma, mu, n, e_max)[1]
        op_m = _scaled_L(sigma, mu, -n, e_max)[1]
    elif operator == "a":
        op_p, op_m = _scaled_a(mu, n, e_max), _scaled_a(mu, -n, e_max)
    else:
        raise PreconditionViolated("operator must be 'L' or 'a'")
    b = _basis(e_max)
    norm, met = b.norm, 0
    for v, e in enumerate(b.energy):
        if not 0 <= e - n <= e_max:
            continue
        for u, (re, im) in op_p[v].items():
            back = op_m[u].get(v)
            if back is None or norm[u] * re != norm[v] * back[0] \
                    or norm[u] * im != -norm[v] * back[1]:
                return False
            met += 1
    # every nonzero X_{-n}[v, u] with u in the window was met above
    return met == sum(len(op_m[u]) for u, e in enumerate(b.energy)
                      if 0 <= e + n <= e_max)


# ---------------------------------------------------------------------------
# the derivation identity behind the exponential factorization


def _derive(x: Dict[State, Pair], d: int, t: Pair) -> Dict[State, Pair]:
    """d * L(t)_1 acting as a derivation of the polynomial algebra on the
    a_{-p}, for t = (t_re + t_im i)/d; a polynomial maps its monomials' parts
    to Gaussian-integer pairs.  On generators: a_{-p} -> p*a_{-p+1} for
    p >= 2, a_{-1} -> -2t."""
    tr, ti = t
    out: Dict[State, Pair] = {}
    for parts, (re, im) in x.items():
        for p, mult in parts:
            rest = dict(parts)
            rest[p] = mult - 1
            if p == 1:
                cr, ci = -2 * mult * tr, -2 * mult * ti
            else:
                rest[p - 1] = rest.get(p - 1, 0) + 1
                cr, ci = d * mult * p, 0
            key = tuple(sorted((q, i) for q, i in rest.items() if i))
            r, j = out.get(key, _ZERO)
            out[key] = (r + cr * re - ci * im, j + cr * im + ci * re)
    return {k: v for k, v in out.items() if v != _ZERO}


def exp_factorization_check(t: GR, n_max: int, m_max: int) -> bool:
    """Generator-level identity L(t)_1^n(a_{-m}) = L(0)_1^n(a_{-m})
    - 2 n! delta_{n,m} t, for all n <= n_max, m <= m_max.  With d the common
    denominator of t, the n-th derivative is compared at scale d^n: d*t is
    a Gaussian integer, so every step stays in Z[i]."""
    t = GR.of(t)
    d = lcm(t.re.denominator, t.im.denominator)
    dt = (_exact_int(d * t.re), _exact_int(d * t.im))
    for m in range(1, m_max + 1):
        xt = x0 = {((m, 1),): (1, 0)}
        scale = 1
        for n in range(1, n_max + 1):
            xt, x0, scale = _derive(xt, d, dt), _derive(x0, 1, _ZERO), scale * d
            want = {k: (scale * re, scale * im) for k, (re, im) in x0.items()}
            if n == m:
                c = -2 * factorial(n) * (scale // d)
                r, j = want.get((), _ZERO)
                want[()] = (r + c * dt[0], j + c * dt[1])
                want = {k: v for k, v in want.items() if v != _ZERO}
            if xt != want:
                return False
    return True


# ---------------------------------------------------------------------------
# Gram scalars of the G modes


def g_half_norm(g: AlgebraId, k, nu: Vec, l0) -> Fraction:
    """Squared norm of the lowered highest weight vector, with the positive
    Hermitian pairing on the odd half-space normalized to 1:
    2(k+h)(A(k,nu) - l0)."""
    kh = lookup(g).shifted_level(k)
    return 2 * kh * (A_bound(g, k, nu) - as_rational(l0))


def j_g_ratio(g: AlgebraId, k, nu: Vec, i: int) -> Fraction:
    """Level-one norm factor along the i-th component, up to a positive
    constant: (nu+xi)(theta_i^vee) - M_i(k).  Vanishes exactly on the
    extremality boundary and equals 1 - N_i(k,nu) on the families where
    chi_i = -xi(theta_i^vee)."""
    entry, lv = lookup(g), level_data(g, k)  # CriticalLevel guard
    if not 1 <= i <= len(lv.M_simple):
        raise IndexOutOfSet(f"component index {i} outside 1..{len(lv.M_simple)}")
    D, shifted = _plus_xi(entry, entry._scalars(nu))  # nu + xi, ints over D
    return Q(_thetas(entry, shifted)[i - 1], D) - lv.M_simple[i - 1]
