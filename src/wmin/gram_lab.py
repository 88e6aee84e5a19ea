"""Exact finite realizations of the free-boson module structures and the
G-mode Gram scalars.

States of the boson module with highest weight mu are monomials in the
creation modes a_{-j}; the invariant form is diagonal on them with the
classical norm prod_s i_s! j_s^{i_s}.  Mode operators are realized as exact
sparse maps between energy slices up to a cutoff; deformation parameters are
purely imaginary Gaussian rationals so every check stays in Q(i).

The checks run on an integer kernel.  A state is its position in
`states_up_to(e_max)` (`_basis`), and a map is a tuple of columns, one per
input position: None outside the map's window, else a dict
{output position: int} with no 0 stored.  Three facts make the kernel exact:

1. Decomposition.  For n != 0 the j = 0 and j = -n terms of
   (1/2) sum_j a_{-j} a_{j+n} are a_0 a_n and a_n a_0, each mu*a_n, so
   L_n = (1/2) P_n + (mu - s*n) a_n with P_n = sum_{j != 0, -n} a_{-j} a_{j+n},
   and L_0 = E + (mu^2 + sigma^2)/2 I, where s = sigma*i and E is the energy
   diagonal.  So, with the scale D of fact 2,
   D*L_n = c_0(n) B_0(n) + c_1(n) B_1(n), where the parts B = (P_n, a_n)
   for n != 0 and (E, I) for n = 0 are int maps built once per (n, e_max)
   and free of (s, mu) (`_parts`), and the coefficients
   c = (D/2, D mu - D sigma n i), or (D, D (mu^2 + sigma^2)/2) for n = 0,
   are Gaussian integers (`_coefficients`).  The same holds for
   den(mu) a_n (`_a_parts`, `_a_coefficients`).
2. Scale, forms and the rows that can fail.  With l = lcm(den mu, den sigma)
   and D = 2 l^2, the numbers D/2, D*mu = 2 l (l mu), D*sigma*n and
   D (mu^2 + sigma^2)/2 = (l mu)^2 + (l sigma)^2 are integers.  A
   commutator is compared at scale D^2, where the central term
   D^2 (n^3 - n)/12 (1 + 12 sigma^2) = l^4 (n^3 - n)/3 + 4 (n^3 - n)(l^2 sigma)^2
   is an integer because 6 divides n^3 - n.  The residual
   [D L_n, D L_m] - (n - m) D D L_{n+m} - central * I is bilinear in the
   parts: at each window entry (y, i) it is a fixed int row r, the four
   entries [B_k(n), B_l(m)][y, i], the two entries B_k(n+m)[y, i] and
   delta_{y,i}, dotted with seven Gaussian-int scalars of (s, mu)
   (`_virasoro_scalars`: the products c_k(n) c_l(m), -(n - m) D c_k(n+m)
   and -central), and the check asks that the dots with their real parts
   `re` and with their imaginary parts `im` vanish on every row.  Each of
   those parts is a form of degree 4 in the scale ints (l, l mu, l sigma)
   with int coefficients, so each dot is such a form P(l, l mu, l sigma).
   A row whose two forms are the zero polynomial is zero at every (s, mu);
   any other row is kept in the table (`_virasoro_rows`, through `_live`)
   and dotted with the scalars at each check, as the entry-by-entry check
   does, so the check is exact on any maps, perturbed ones included.  The
   decision is exact and made once per (n, m, e_max), never from a value
   at one numeric (s, mu), where a row can vanish and not elsewhere:
   - Bound.  Every coefficient of c_0(k) and c_1(k) is at most
     2 max(1, |k|) in absolute value, and so is the l1 norm of each.  A
     product's l1 norm is at most the product of the factors' ones, so no
     coefficient of a scalar exceeds K = 4 (1 + |n|)^2 (1 + |m|)^2
     (`_form_bound`; the central term's l1 norm is 13 |n^3 - n| / 3, and
     the step terms' at most 4 |m - n| max(1, |m + n|)), and none of P
     exceeds K |r|_1.
   - Kronecker substitution.  P(l, l mu, l sigma) = l^4 P(1, mu, sigma),
     where P(1, mu, sigma) has degree at most 4 and its monomial
     mu^b sigma^c the coefficient of l^(4-b-c) (l mu)^b (l sigma)^c.  At
     (1, B, B^5) that monomial is B^(b + 5c), and these powers are
     distinct because b <= 4.  With B = 2^w > 2 K max |r|_1 over the
     table's rows (`_kronecker_point`), every coefficient d_k of
     P(1, B, B^5) = sum d_k B^k has |d_k| < B/2; were some d_k nonzero, at
     the least such k, B^(k+1) would divide d_k B^k, so B would divide d_k.
     So P(1, B, B^5) = 0 exactly when P is the zero polynomial.
   On the free-field maps no row is kept: every table up to e_max 10 is
   empty, and `virasoro_check` reads an empty table and returns True with
   no scalar computed.  For any maps the residual of (m, n) is minus that
   of (n, m) on the same window, so only n <= m is tabled.  The
   composition reads each mode's parts as one map of flat triples
   (y, B_0[y, i], B_1[y, i]), built once per (n, e_max) (`_paired`).
3. Supports and rows.  The norms are positive, so
   H(u, X_n v) = H(X_{-n} u, v) fails at (u, v) exactly when
   norm(u) X_n[u, v] and norm(v) conj(X_{-n}[v, u]) differ.  At the scale
   of fact 1 (D, or den(mu) for X = a) that residual is a fixed int row,
   (norm_u B_0(n)[u, v], norm_u B_1(n)[u, v], norm_v B_0(-n)[v, u],
   norm_v B_1(-n)[v, u]), dotted with the coefficients c of n and d of -n:
   the two functionals (c_0, Re c_1, -d_0, -Re d_1) and
   (0, Im c_1, 0, Im d_1) (`_adjoint_scalars`; c_0, d_0 are real).  A row is
   nonzero only where some part of X_n is nonzero at [u, v] or some part
   of X_{-n} at [v, u]: `_adjoint_rows` walks that union once per
   (n, e_max, operator) and keeps the rows that can fail.  For 'L' the
   functionals are forms of degree 2 in (l, l mu, l sigma) with no
   coefficient above 2 max(1, |n|) <= 2 (1 + |n|)^2 (`_form_bound`), and
   fact 2's substitution decides them.  For 'a' the residual is
   den(mu) (r_1 - r_3), or num(mu) (r_1 - r_3) for n = 0, so a row can
   fail exactly when r_1 != r_3.  On the free-field maps both tables are
   empty for every n up to e_max 10.

`fairlie_matrix` and `heisenberg_matrix` are the boundary: the same
operators as `GradedSliceOperator`s with `GaussianRational` entries.  The
first is c_0 B_0 + c_1 B_1 (`_combine`), each entry a Gaussian-int pair
over D; the second reads `_a_map`'s ints as its entries, and mu for a_0.
tests/test_gram_lab.py keeps the `Fraction` builds and the pair-product int
checks as oracles and checks each fact against them.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm
from operator import mul
from typing import Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .catalog import AlgebraId, Vec, lookup
from .errors import IndexOutOfRange, IndexOutOfSet, PreconditionViolated, WindowTooSmall
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
    out = 1
    for j, i in state.parts:
        out *= factorial(i) * j ** i
    return Q(out)


# one entry per energy: every e_max below 16 stays cached; typed, so a float
# or bool equal to a cached energy still raises
@lru_cache(maxsize=16, typed=True)
def states_at_energy(e: int) -> Tuple[BosonBasisState, ...]:
    """All basis states of energy e (partitions of e)."""
    if e.__class__ is not int:
        _require_ints(e=e)

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
    if e_max.__class__ is not int:
        _require_ints(e_max=e_max)
    out: List[BosonBasisState] = []
    for e in range(e_max + 1):
        out.extend(states_at_energy(e))
    return out


Column = Dict[BosonBasisState, GR]
Pair = Tuple[int, int]  # (re, im) of a Gaussian integer
IntColumn = Dict[int, Pair]  # output position -> entry; (0, 0) is never stored
IntOperator = Tuple[Optional[IntColumn], ...]  # None: input outside the window
IntMap = Tuple[Optional[Dict[int, int]], ...]  # an int-valued operator, shaped alike
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
    """`states_up_to(e_max)` by position, with energies, int norms, the
    parts (E, I) of D*L_0 and the zero map."""

    states: Tuple[BosonBasisState, ...]
    index: Dict[State, int]  # parts -> position
    energy: Tuple[int, ...]
    norm: Tuple[int, ...]
    zero_parts: Tuple[IntMap, IntMap]  # the energy diagonal and the identity
    empty: IntMap


@lru_cache(maxsize=16)
def _basis(e_max: int) -> _Basis:
    states = tuple(states_up_to(e_max))
    energy = tuple(st.energy for st in states)
    return _Basis(states, {st.parts: i for i, st in enumerate(states)}, energy,
                  tuple(boson_norm(st).numerator for st in states),
                  (tuple({i: e} if e else {} for i, e in enumerate(energy)),
                   tuple({i: 1} for i in range(len(states)))),
                  tuple({} for _ in states))


@lru_cache(maxsize=64)
def _a_map(n: int, e_max: int) -> IntMap:
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
def _p_map(n: int, e_max: int) -> IntMap:
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


def _parts(n: int, e_max: int) -> Tuple[IntMap, IntMap]:
    """(B_0, B_1) of fact 1: (P_n, a_n) for n != 0, (E, I) for n = 0."""
    if n:
        return _p_map(n, e_max), _a_map(n, e_max)
    return _basis(e_max).zero_parts


def _exact_int(x: Fraction) -> int:
    """x as an int; raises (never rounds) when the scale argument fails."""
    if x.denominator != 1:
        raise ArithmeticError(f"scaled value {x} is not an integer")
    return x.numerator


def _imaginary_part(s: GR) -> Fraction:
    if not s.is_imaginary():
        raise PreconditionViolated("the deformation parameter must be purely imaginary")
    return s.im


def _scale(sigma: Fraction, mu: Fraction) -> Tuple[int, int, int]:
    """(l, l*mu, l*sigma) with l = lcm(den mu, den sigma), all ints; the
    scale of fact 2 is D = 2 l^2."""
    l = lcm(sigma.denominator, mu.denominator)
    return l, mu.numerator * (l // mu.denominator), sigma.numerator * (l // sigma.denominator)


def _coefficients(scale: Tuple[int, int, int], n: int) -> Tuple[int, Pair]:
    """(c_0, c_1) with D*L_n = c_0 B_0 + c_1 B_1 (fact 1): (D/2, D mu - D sigma n i)
    for n != 0 and (D, D (mu^2 + sigma^2)/2) for n = 0; c_0 is real and c_1
    a Gaussian-int pair."""
    l, lmu, lsig = scale
    if n:
        return l * l, (2 * l * lmu, -2 * l * lsig * n)
    return 2 * l * l, (lmu * lmu + lsig * lsig, 0)


def _a_parts(n: int, e_max: int) -> Tuple[IntMap, IntMap]:
    """(B_0, B_1) of the mode a_n: (0, a_n) for n != 0, (0, I) for n = 0."""
    b = _basis(e_max)
    return b.empty, _a_map(n, e_max) if n else b.zero_parts[1]


def _a_coefficients(mu: Fraction, n: int) -> Tuple[int, Pair]:
    """(c_0, c_1) with den(mu)*a_n = c_0 B_0 + c_1 B_1 on `_a_parts`:
    den(mu) for n != 0, and num(mu) for n = 0 (a_0 acts by mu)."""
    return 0, (mu.denominator if n else mu.numerator, 0)


@lru_cache(maxsize=64)
def _paired(n: int, e_max: int) -> Tuple[Optional[Tuple[Tuple[int, int, int], ...]], ...]:
    """The parts (B_0, B_1) of mode n as one map of flat triples: column i is
    None where the parts' is, else (y, B_0[y, i], B_1[y, i]) for every y
    that either part reaches."""
    out: List[Optional[Tuple[Tuple[int, int, int], ...]]] = []
    for b0, b1 in zip(*_parts(n, e_max)):
        if b1 is None:
            out.append(None)
            continue
        col = {y: [c, 0] for y, c in b0.items()}
        for y, c in b1.items():
            col.setdefault(y, [0, 0])[1] = c
        out.append(tuple((y, z0, z1) for y, (z0, z1) in col.items()))
    return tuple(out)


def _combine(parts: Tuple[IntMap, IntMap], c0: int, c1: Pair) -> IntOperator:
    """c_0 B_0 + c_1 B_1 as Gaussian-int pairs, no (0, 0) stored."""
    cr, ci = c1
    cols: List[Optional[IntColumn]] = []
    for b0, b1 in zip(*parts):
        if b1 is None:
            cols.append(None)
            continue
        col = {y: (c0 * x, 0) for y, x in b0.items()}
        for y, z in b1.items():
            col[y] = (col.get(y, _ZERO)[0] + cr * z, ci * z)
        cols.append({y: v for y, v in col.items() if v != _ZERO})
    return tuple(cols)


def _scaled_L(sigma: Fraction, mu: Fraction, n: int, e_max: int) -> Tuple[int, IntOperator]:
    """(D, D*L_n) for s = sigma*i: the parts combined with their coefficients."""
    scale = _scale(sigma, mu)
    return 2 * scale[0] ** 2, _combine(_parts(n, e_max), *_coefficients(scale, n))


def _view(name: str, n: int, mu: Fraction, s: GR, e_max: int,
          cols: Sequence[Optional[dict]], make: Callable) -> GradedSliceOperator:
    """The boundary: the columns of a map on `_basis(e_max)` as
    `GaussianRational` columns, each distinct entry x read once as make(x)."""
    states = _basis(e_max).states
    value = {x: make(x) for x in {x for col in cols if col for x in col.values()}}
    return GradedSliceOperator(name, n, mu, s, e_max, {
        states[i]: {states[y]: value[x] for y, x in col.items()}
        for i, col in enumerate(cols) if col is not None})


def _require_ints(**values) -> None:
    """Mode indices and cutoffs must be ints: a float equal to one would
    read the int tables built for it.  This is the entry points' refusal:
    each tests its ints inline (`x.__class__ is int`) and calls it only when
    a test fails, so a valid call builds no keyword dict.  It names the
    first argument that is no int."""
    for name, x in values.items():
        if x.__class__ is not int:
            raise IndexOutOfRange(f"{name} must be an int, got {x!r}")


def _require_window(n: int, e_max: int) -> None:
    """A view of mode n needs an admissible input: the vacuum is one."""
    if e_max < max(0, -n):
        raise WindowTooSmall(f"need 0 <= e_max and -n <= e_max, got {n}, {e_max}")


@lru_cache(maxsize=512, typed=True)  # typed: a float argument equal to a cached one still raises
def heisenberg_matrix(n: int, mu: Fraction, e_max: int) -> GradedSliceOperator:
    """The mode a_n as a graded operator (a_0 acts by mu): the view of the
    int map `_a_map`, whose ints are its entries.  Raises WindowTooSmall
    when no state is an admissible input (e_max < max(0, -n))."""
    if n.__class__ is not int or e_max.__class__ is not int:
        _require_ints(n=n, e_max=e_max)
    _require_window(n, e_max)
    mu = as_rational(mu)
    cols = _a_map(n, e_max) if n else [{i: mu} if mu else {}
                                       for i in range(len(_basis(e_max).states))]
    return _view("a", n, mu, GR.of(0), e_max, cols, GR)


def fairlie_matrix(s: GR, mu: Fraction, n: int, e_max: int) -> GradedSliceOperator:
    """Deformed Virasoro mode: (1/2) sum_j a_{-j} a_{j+n} - s*n*a_n for
    n != 0, and sum_{j>=1} a_{-j} a_j + (mu^2 - s^2)/2 for n = 0: the view
    of D*L_n (`_scaled_L`), each entry its int pair over D.  Raises
    WindowTooSmall as `heisenberg_matrix` does."""
    if n.__class__ is not int or e_max.__class__ is not int:
        _require_ints(n=n, e_max=e_max)
    _require_window(n, e_max)
    s, mu = GR.of(s), as_rational(mu)
    scale, cols = _scaled_L(_imaginary_part(s), mu, n, e_max)
    return _view("L", n, mu, s, e_max, cols, lambda p: GR(Q(p[0], scale), Q(p[1], scale)))


def _form_bound(*modes: int) -> int:
    """The product over the modes k of 2 (1 + |k|)^2: no coefficient of a
    form of `_virasoro_scalars(., n, m)` (modes n, m) or
    `_adjoint_scalars(., n)` (mode n) exceeds it in absolute value (facts 2
    and 3)."""
    out = 1
    for k in modes:
        out *= 2 * (1 + abs(k)) ** 2
    return out


def _kronecker_point(bound: int) -> Tuple[int, int, int]:
    """The scale point (1, B, B^5), B = 2^w the least power of two above
    2 * bound (fact 2)."""
    base = 1 << (2 * bound).bit_length()
    return 1, base, base ** 5


def _failing(rows: Iterable[Sequence[int]], re: Sequence[int], im: Sequence[int]
             ) -> List[Sequence[int]]:
    """The rows on which the functional `re` or `im` is not 0."""
    return [row for row in rows if sum(map(mul, row, re)) or sum(map(mul, row, im))]


def _live(rows: Iterable[Tuple[int, ...]],
          scalars: Callable[..., Sequence[Sequence[int]]], *modes: int
          ) -> Tuple[Tuple[int, ...], ...]:
    """The distinct rows on which a functional of `scalars(scale, *modes)`,
    a pair (re, im), is not identically zero in (s, mu), sorted.  The
    functionals' entries are forms of degree at most 4 in the scale ints
    (l, l mu, l sigma), no coefficient above `_form_bound(*modes)` in
    absolute value; they are read once, at the `_kronecker_point` of that
    bound times the largest l1 norm of a row, where a row's residual is 0
    exactly when it is the zero polynomial (fact 2)."""
    rows = set(rows)
    if not rows:
        return ()
    bound = _form_bound(*modes) * max(sum(map(abs, row)) for row in rows)
    return tuple(sorted(_failing(rows, *scalars(_kronecker_point(bound), *modes))))


def _virasoro_scalars(scale: Tuple[int, int, int], n: int, m: int
                      ) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """(re, im): the real and imaginary parts of the seven Gaussian-int
    scalars that a row of the (n, m) table is dotted with (fact 2), each a
    form of degree 4 in `scale` = (l, l mu, l sigma)."""
    (a0, (ar, ai)), (b0, (br, bi)), (d0, (dr, di)) = (
        _coefficients(scale, n), _coefficients(scale, m), _coefficients(scale, n + m))
    l, lsig = scale[0], scale[2]
    step = (m - n) * 2 * l * l  # -(n - m) D
    t = n ** 3 - n
    central = t // 3 * l ** 4 + 4 * t * (l * lsig) ** 2 if m == -n else 0
    return ((a0 * b0, a0 * br, ar * b0, ar * br - ai * bi, step * d0, step * dr, -central),
            (0, a0 * bi, ai * b0, ar * bi + ai * br, 0, step * di, 0))


@lru_cache(maxsize=256)
def _virasoro_rows(n: int, m: int, e_max: int) -> Tuple[Tuple[int, ...], ...]:
    """The rows of the (s, mu)-free table of fact 2 that can fail (`_live`):
    for each window entry (y, i) of `virasoro_check`, the ints
    ([B_0(n), B_0(m)], [B_0(n), B_1(m)], [B_1(n), B_0(m)], [B_1(n), B_1(m)],
    B_0(n+m), B_1(n+m), delta) at (y, i), kept when their residual is not
    identically zero.  On the free-field maps no row is kept.

    At n = m the table is () on any maps, and it is returned before any row
    is built: the residual of (m, n) is minus that of (n, m) (fact 2), so
    at n = m it is its own negative, zero at every (s, mu), and every row's
    dot with the scalars is the zero polynomial, which `_live` drops."""
    if n == m:
        return ()
    bn, bm, bnm = _paired(n, e_max), _paired(m, e_max), _paired(n + m, e_max)
    rows = set()
    for i, e in enumerate(_basis(e_max).energy):
        if max(e - m, e - n, e - n - m) > e_max:
            continue
        acc = {i: [0, 0, 0, 0, 0, 0, 1]}
        for w, x0, x1 in bm[i]:  # B_k(n) B_l(m) on state i
            for y, z0, z1 in bn[w]:
                r = acc.get(y)
                if r is None:
                    r = acc[y] = [0] * 7
                r[0] += z0 * x0
                r[1] += z0 * x1
                r[2] += z1 * x0
                r[3] += z1 * x1
        for w, z0, z1 in bn[i]:  # minus B_l(m) B_k(n) on state i
            for y, x0, x1 in bm[w]:
                r = acc.get(y)
                if r is None:
                    r = acc[y] = [0] * 7
                r[0] -= z0 * x0
                r[1] -= z0 * x1
                r[2] -= z1 * x0
                r[3] -= z1 * x1
        for y, z0, z1 in bnm[i]:
            r = acc.get(y)
            if r is None:
                r = acc[y] = [0] * 7
            r[4] += z0
            r[5] += z1
        rows.update(map(tuple, acc.values()))
    return _live(rows, _virasoro_scalars, n, m)


def virasoro_check(s: GR, mu: Fraction, n: int, m: int, e_max: int) -> bool:
    """Exact commutator check [L_n, L_m] = (n-m) L_{n+m} + central term on all
    slices that both sides reach without truncation: every state of energy E
    with E - m, E - n and E - n - m at most e_max.  Compared at scale D^2,
    as the rows of `_virasoro_rows` dotted with the scalars of (s, mu)
    (fact 2); an empty table, the free-field one, needs no scalar."""
    if n.__class__ is not int or m.__class__ is not int or e_max.__class__ is not int:
        _require_ints(n=n, m=m, e_max=e_max)
    if abs(n) + abs(m) > e_max - 1:
        raise WindowTooSmall(f"need |n|+|m| <= e_max-1, got {n}, {m}, {e_max}")
    s, mu = GR.of(s), as_rational(mu)
    sigma = _imaginary_part(s)
    if n > m:  # the residual of (m, n) is minus that of (n, m)
        n, m = m, n
    rows = _virasoro_rows(n, m, e_max)
    return not rows or not _failing(rows, *_virasoro_scalars(_scale(sigma, mu), n, m))


def _adjoint_scalars(scale: Tuple[int, int, int], n: int) -> Tuple[Tuple[int, ...], ...]:
    """Fact 3's two functionals for 'L', (c_0, Re c_1, -d_0, -Re d_1) and
    (0, Im c_1, 0, Im d_1), from the coefficients c of n and d of -n, each
    entry a form of degree 2 in `scale` = (l, l mu, l sigma)."""
    (c0, (cr, ci)), (d0, (dr, di)) = _coefficients(scale, n), _coefficients(scale, -n)
    return (c0, cr, -d0, -dr), (0, ci, 0, di)


@lru_cache(maxsize=64)
def _adjoint_rows(n: int, e_max: int, operator: str) -> Tuple[Tuple[int, int, int, int], ...]:
    """The rows of fact 3's (s, mu)-free table over the union of the
    supports, on the parts `_parts` ('L') or `_a_parts` ('a'), that can
    fail: for 'L' those `_live` keeps, for 'a' those with r_1 != r_3.  On
    the free-field maps no row is kept."""
    parts = _parts if operator == "L" else _a_parts
    (p0, p1), (q0, q1) = parts(n, e_max), parts(-n, e_max)
    b = _basis(e_max)
    norm, energy = b.norm, b.energy
    pairs = {(u, v) for v, e in enumerate(energy) if 0 <= e - n <= e_max
             for u in p0[v].keys() | p1[v].keys()}
    pairs.update((u, v) for u, e in enumerate(energy) if 0 <= e + n <= e_max
                 for v in q0[u].keys() | q1[u].keys())
    rows = {(norm[u] * p0[v].get(u, 0), norm[u] * p1[v].get(u, 0),
             norm[v] * q0[u].get(v, 0), norm[v] * q1[u].get(v, 0)) for u, v in pairs}
    if operator == "a":  # den(mu) (r_1 - r_3), or num(mu) (r_1 - r_3) for n = 0
        return tuple(sorted(r for r in rows if r[1] != r[3]))
    return _live(rows, _adjoint_scalars, n)


def adjointness_check(s: GR, mu: Fraction, n: int, e_max: int,
                      operator: str = "L") -> bool:
    """H(u, X_n v) = H(X_{-n} u, v) against the diagonal Gram form, where X
    is the deformed Virasoro mode ('L') or the boson mode ('a', real mu),
    over every v with 0 <= E_v - n <= e_max and u of energy E_v - n:
    norm(u) (c B(n))[u, v] = norm(v) conj((c' B(-n))[v, u]) on the parts and
    coefficients of D*X, as two int functionals on each row of
    `_adjoint_rows` (fact 3); an empty table, the free-field one, needs no
    coefficient.
    Raises WindowTooSmall when |n| > e_max: no state pair would be compared."""
    if n.__class__ is not int or e_max.__class__ is not int:
        _require_ints(n=n, e_max=e_max)
    if abs(n) > e_max:
        raise WindowTooSmall(f"need |n| <= e_max, got {n}, {e_max}")
    s, mu = GR.of(s), as_rational(mu)
    if operator == "L":
        sigma = _imaginary_part(s)
    elif operator != "a":
        raise PreconditionViolated("operator must be 'L' or 'a'")
    rows = _adjoint_rows(n, e_max, operator)
    if not rows:
        return True
    if operator == "L":
        return not _failing(rows, *_adjoint_scalars(_scale(sigma, mu), n))
    x = _a_coefficients(mu, n)[1][0]  # that of -n too: den(mu), or num(mu) for n = 0
    return not _failing(rows, (0, x, 0, -x), (0, 0, 0, 0))


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
    a Gaussian integer, so every step stays in Z[i].  Raises WindowTooSmall
    when n_max or m_max is below 1: nothing would be compared."""
    if n_max.__class__ is not int or m_max.__class__ is not int:
        _require_ints(n_max=n_max, m_max=m_max)
    if n_max < 1 or m_max < 1:
        raise WindowTooSmall(f"need n_max, m_max >= 1, got {n_max}, {m_max}")
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
