from contextlib import contextmanager
from fractions import Fraction as Q
from math import factorial, gcd, lcm
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmin import _stores, catalog, gram_lab
from wmin.catalog import lookup, zero_vec
from wmin.errors import IndexOutOfRange, IndexOutOfSet, PreconditionViolated, WindowTooSmall
from wmin.gram_lab import (VACUUM, BosonBasisState, GradedSliceOperator, _add_into,
                           adjointness_check, boson_norm, exp_factorization_check,
                           fairlie_matrix, g_half_norm, heisenberg_matrix, j_g_ratio,
                           states_at_energy, states_up_to, virasoro_check)
from wmin.levels import enumerate_unitary_k, level_data
from wmin.rationals import GaussianRational as GR
from wmin.unitarity import decide
from wmin.weights import A_bound, enumerate_P_plus_k

# the s (as s = value * sqrt(-1)) and mu grids of criterion 9 and of the
# benchmark's gram workload; the first is inside the second
CRIT9_S, CRIT9_MU = ("0", "1/2", "3/7"), ("0", "2", "5/3")
BENCH_S = ("0", "1/2", "3/7", "1", "2/5", "5/3")
BENCH_MU = ("0", "2", "5/3", "1/2", "-1", "3/4")
GRID = [(GR.imag(Q(s)), Q(mu)) for s in BENCH_S for mu in BENCH_MU]


# ---------------------------------------------------------------------------
# the Fraction oracle: the GaussianRational operator builds and checks that
# the integer kernel replaced, kept as they were


def _conj(z):
    return GR(z.re, -z.im)


def _a_apply(state, n, mu):
    """Action of the mode a_n: a column with at most one (nonzero) entry."""
    if n == 0:
        return {state: GR.of(mu)} if mu != 0 else {}
    d = dict(state.parts)
    if n > 0:
        i = d.get(n, 0)
        if not i:
            return {}
        d[n] = i - 1
        return {BosonBasisState.of(d): GR.of(n * i)}
    d[-n] = d.get(-n, 0) + 1
    return {BosonBasisState.of(d): GR.of(1)}


def _admissible_inputs(n, e_max):
    # output slice must be representable (negative energy means the zero map)
    for st_ in states_up_to(e_max):
        if st_.energy - n <= e_max:
            yield st_


def oracle_heisenberg(n, mu, e_max):
    cols = {st_: _a_apply(st_, n, Q(mu)) for st_ in _admissible_inputs(n, e_max)}
    return GradedSliceOperator("a", n, Q(mu), GR.of(0), e_max, cols)


def oracle_fairlie(s, mu, n, e_max, j_skip=()):
    """(1/2) sum_j a_{-j} a_{j+n} - s*n*a_n for n != 0, and
    sum_{j>=1} a_{-j} a_j + (mu^2 - s^2)/2 for n = 0; the terms j in
    `j_skip` are left out of the sum."""
    s, mu = GR.of(s), Q(mu)
    if not s.is_imaginary():
        raise PreconditionViolated("the deformation parameter must be purely imaginary")
    cols = {}
    if n == 0:
        const = (GR.of(mu * mu) - s * s) / 2
        for st_ in states_up_to(e_max):  # the vacuum entry is 0 at s = mu = 0
            cols[st_] = {}
            _add_into(cols[st_], {st_: GR.of(1)}, GR.of(st_.energy) + const)
        return GradedSliceOperator("L", 0, mu, s, e_max, cols)
    sn = s * -n
    for st_ in _admissible_inputs(n, e_max):
        acc = {}
        for j in range(-(e_max + abs(n) + 1), e_max + abs(n) + 2):
            if j in j_skip:
                continue
            for mid, c1 in _a_apply(st_, j + n, mu).items():
                inner = _a_apply(mid, -j, mu)
                if inner:  # skip the scalar product when a_{-j} kills mid
                    _add_into(acc, inner, Q(1, 2) * c1)
        _add_into(acc, _a_apply(st_, n, mu), sn)
        cols[st_] = acc
    return GradedSliceOperator("L", n, mu, s, e_max, cols)


def oracle_virasoro(s, mu, n, m, e_max):
    if abs(n) + abs(m) > e_max - 1:
        raise WindowTooSmall(f"need |n|+|m| <= e_max-1, got {n}, {m}, {e_max}")
    s = GR.of(s)
    Ln = oracle_fairlie(s, mu, n, e_max)
    Lm = oracle_fairlie(s, mu, m, e_max)
    Lnm = oracle_fairlie(s, mu, n + m, e_max)
    central = GR.of(Q((n ** 3 - n), 12)) * (GR.of(1) - GR.of(12) * s * s) \
        if m == -n else GR.of(0)
    for st_ in states_up_to(e_max):
        e = st_.energy
        if not all(x <= e_max for x in (e - m, e - n, e - n - m)):
            continue
        c1 = Ln.apply_column(Lm.apply(st_))
        c2 = Lm.apply_column(Ln.apply(st_))
        base = Lnm.apply(st_)
        if c1 is None or c2 is None or base is None:
            continue
        want = {k: GR.of(n - m) * v for k, v in base.items()}
        if central:
            want[st_] = want.get(st_, GR.of(0)) + central
        for kk in set(c1) | set(c2) | set(want):
            lhs = c1.get(kk, GR.of(0)) - c2.get(kk, GR.of(0))
            if lhs != want.get(kk, GR.of(0)):
                return False
    return True


def oracle_adjointness(s, mu, n, e_max, operator="L"):
    """The dense loop over every (u, v) pair of the window."""
    if abs(n) > e_max:
        raise WindowTooSmall(f"need |n| <= e_max, got {n}, {e_max}")
    s, mu = GR.of(s), Q(mu)
    if operator == "L":
        op_p = oracle_fairlie(s, mu, n, e_max)
        op_m = oracle_fairlie(s, mu, -n, e_max)
    elif operator == "a":
        op_p = oracle_heisenberg(n, mu, e_max)
        op_m = oracle_heisenberg(-n, mu, e_max)
    else:
        raise PreconditionViolated("operator must be 'L' or 'a'")
    for v in states_up_to(e_max):
        if not (0 <= v.energy - n <= e_max):
            continue
        col = op_p.apply(v)
        for u in states_at_energy(v.energy - n):
            lhs = GR.of(boson_norm(u)) * col.get(u, GR.of(0))
            back = op_m.apply(u)
            rhs = (_conj(back.get(v, GR.of(0))) if back is not None else GR.of(0))
            if lhs != rhs * GR.of(boson_norm(v)):
                return False
    return True


def _derivation_L1(t, x):
    """L(t)_1 acting as a derivation of the polynomial algebra on the a_{-p}
    (a polynomial is the column of its monomials); on generators:
    a_{-p} -> p*a_{-p+1} for p >= 2, a_{-1} -> -2t."""
    out = {}
    for st_, coef in x.items():
        d = dict(st_.parts)
        for p, mult in list(d.items()):
            rest = dict(d)
            rest[p] = mult - 1
            if p == 1:
                c = GR.of(mult) * (GR.of(-2) * t)
            else:
                rest[p - 1] = rest.get(p - 1, 0) + 1
                c = GR.of(mult * p)
            _add_into(out, {BosonBasisState.of(rest): coef}, c)
    return out


def oracle_exp_factorization(t, n_max, m_max):
    t = GR.of(t)
    for m in range(1, m_max + 1):
        xt = x0 = {BosonBasisState.of({m: 1}): GR.of(1)}
        for n in range(1, n_max + 1):
            xt = _derivation_L1(t, xt)
            x0 = _derivation_L1(GR.of(0), x0)
            want = dict(x0)
            if n == m:
                _add_into(want, {VACUUM: t}, GR.of(-2 * factorial(n)))
            if xt != want:
                return False
    return True


# ---------------------------------------------------------------------------
# the int oracle: the pair-product checks that the (s, mu)-free tables
# replaced, kept as they were; they read the int maps `_p_map` and `_a_map`
# at call time, so a test that perturbs a map perturbs them too


def int_scaled_L(sigma, mu, n, e_max):
    """(D, D*L_n) as Gaussian-int pairs, built per (s, mu)."""
    l = lcm(sigma.denominator, mu.denominator)
    D = 2 * l * l
    if n == 0:
        c0 = gram_lab._exact_int(D * (mu * mu + sigma * sigma) / 2)
        return D, tuple({i: (D * e + c0, 0)} if D * e + c0 else {}
                        for i, e in enumerate(gram_lab._basis(e_max).energy))
    half = D // 2
    re, im = gram_lab._exact_int(D * mu), gram_lab._exact_int(-D * sigma * n)
    cols = []
    for pcol, acol in zip(gram_lab._p_map(n, e_max), gram_lab._a_map(n, e_max)):
        if pcol is None:
            cols.append(None)
            continue
        col = {y: (half * c, 0) for y, c in pcol.items()}
        for y, c in acol.items():
            r, j = col.get(y, (0, 0))
            col[y] = (r + re * c, j + im * c)
        cols.append({y: v for y, v in col.items() if v != (0, 0)})
    return D, tuple(cols)


def int_scaled_a(mu, n, e_max):
    if n == 0:
        return tuple({i: (mu.numerator, 0)} if mu else {}
                     for i in range(len(gram_lab._basis(e_max).states)))
    d = mu.denominator
    return tuple(None if col is None else {y: (d * c, 0) for y, c in col.items()}
                 for col in gram_lab._a_map(n, e_max))


def _add_product(acc, first, then, i, sign):
    """acc += sign * (then . first) applied to state i, over int pairs."""
    for x, (ar, ai) in first[i].items():
        for y, (br, bi) in then[x].items():
            r, j = acc.get(y, (0, 0))
            acc[y] = (r + sign * (ar * br - ai * bi), j + sign * (ar * bi + ai * br))


def int_oracle_virasoro(s, mu, n, m, e_max):
    if abs(n) + abs(m) > e_max - 1:
        raise WindowTooSmall(f"need |n|+|m| <= e_max-1, got {n}, {m}, {e_max}")
    s, mu = GR.of(s), Q(mu)
    if not s.is_imaginary():
        raise PreconditionViolated("the deformation parameter must be purely imaginary")
    sigma = s.im
    D, Ln = int_scaled_L(sigma, mu, n, e_max)
    _, Lm = int_scaled_L(sigma, mu, m, e_max)
    _, Lnm = int_scaled_L(sigma, mu, n + m, e_max)
    central = gram_lab._exact_int(D * D * Q(n ** 3 - n, 12) * (1 + 12 * sigma * sigma)) \
        if m == -n else 0
    step = (n - m) * D
    for i, e in enumerate(gram_lab._basis(e_max).energy):
        if max(e - m, e - n, e - n - m) > e_max:
            continue
        acc = {i: (-central, 0)} if central else {}
        _add_product(acc, Lm, Ln, i, 1)
        _add_product(acc, Ln, Lm, i, -1)
        for y, (br, bi) in Lnm[i].items():
            r, j = acc.get(y, (0, 0))
            acc[y] = (r - step * br, j - step * bi)
        if any(v != (0, 0) for v in acc.values()):
            return False
    return True


def int_oracle_adjointness(s, mu, n, e_max, operator="L"):
    """Every nonzero X_n[u, v] of the window against X_{-n}[v, u], then a
    count of the nonzero entries of X_{-n} met that way."""
    if abs(n) > e_max:
        raise WindowTooSmall(f"need |n| <= e_max, got {n}, {e_max}")
    s, mu = GR.of(s), Q(mu)
    if operator == "L":
        if not s.is_imaginary():
            raise PreconditionViolated("the deformation parameter must be purely imaginary")
        op_p = int_scaled_L(s.im, mu, n, e_max)[1]
        op_m = int_scaled_L(s.im, mu, -n, e_max)[1]
    elif operator == "a":
        op_p, op_m = int_scaled_a(mu, n, e_max), int_scaled_a(mu, -n, e_max)
    else:
        raise PreconditionViolated("operator must be 'L' or 'a'")
    b = gram_lab._basis(e_max)
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
    return met == sum(len(op_m[u]) for u, e in enumerate(b.energy)
                      if 0 <= e + n <= e_max)


def _outcome(fn, *args):
    """What a call gives: its result, or the type of what it raises."""
    try:
        return fn(*args)
    except Exception as exc:  # the raised type is the outcome compared
        return type(exc)


# ---------------------------------------------------------------------------
# the table oracles: the distinct rows that `_virasoro_rows` and
# `_adjoint_rows` were built from, the scalars that a check dots them with
# as int polynomials, and a `Fraction` elimination that gives null spaces


def dense_virasoro_rows(n, m, e_max):
    """The distinct nonzero rows of fact 2's table, one per window entry."""
    bn, bm, bnm = gram_lab._paired(n, e_max), gram_lab._paired(m, e_max), \
        gram_lab._paired(n + m, e_max)
    rows = set()
    for i, e in enumerate(gram_lab._basis(e_max).energy):
        if max(e - m, e - n, e - n - m) > e_max:
            continue
        acc = {i: [0, 0, 0, 0, 0, 0, 1]}
        for w, x0, x1 in bm[i]:
            for y, z0, z1 in bn[w]:
                r = acc.setdefault(y, [0] * 7)
                r[0] += z0 * x0
                r[1] += z0 * x1
                r[2] += z1 * x0
                r[3] += z1 * x1
        for w, z0, z1 in bn[i]:
            for y, x0, x1 in bm[w]:
                r = acc.setdefault(y, [0] * 7)
                r[0] -= z0 * x0
                r[1] -= z0 * x1
                r[2] -= z1 * x0
                r[3] -= z1 * x1
        for y, z0, z1 in bnm[i]:
            r = acc.setdefault(y, [0] * 7)
            r[4] += z0
            r[5] += z1
        rows.update(map(tuple, acc.values()))
    rows.discard((0,) * 7)
    return rows


def dense_adjoint_rows(n, e_max, operator):
    """The distinct nonzero rows (norm_u B_0(n)[u, v], norm_u B_1(n)[u, v],
    norm_v B_0(-n)[v, u], norm_v B_1(-n)[v, u]) of the dense loop over every
    pair (u, v) of the window."""
    b = gram_lab._basis(e_max)
    norm, energy = b.norm, b.energy
    parts = gram_lab._parts if operator == "L" else gram_lab._a_parts
    (p0, p1), (q0, q1) = parts(n, e_max), parts(-n, e_max)
    dense = {(norm[u] * p0[v].get(u, 0), norm[u] * p1[v].get(u, 0),
              norm[v] * q0[u].get(v, 0), norm[v] * q1[u].get(v, 0))
             for v, ev in enumerate(energy) if 0 <= ev - n <= e_max
             for u, eu in enumerate(energy) if eu == ev - n}
    dense.discard((0, 0, 0, 0))
    return dense


# an int polynomial in the scale ints (l, l mu, l sigma) is a dict
# {(i, j, k): coefficient of l^i (l mu)^j (l sigma)^k}, no 0 stored


def poly_sum(*terms):
    """sum of x * p over the (x, p) in `terms`."""
    out = {}
    for x, p in terms:
        for k, c in p.items():
            out[k] = out.get(k, 0) + x * c
    return {k: c for k, c in out.items() if c}


def poly_mul(p, q):
    out = {}
    for (a, b, c), x in p.items():
        for (d, e, f), y in q.items():
            k = (a + d, b + e, c + f)
            out[k] = out.get(k, 0) + x * y
    return {k: c for k, c in out.items() if c}


def poly_at(p, point):
    l, lmu, lsig = point
    return sum(c * l ** i * lmu ** j * lsig ** k for (i, j, k), c in p.items())


L2, L_LMU, L_LSIG = {(2, 0, 0): 1}, {(1, 1, 0): 1}, {(1, 0, 1): 1}
SQUARES = {(0, 2, 0): 1, (0, 0, 2): 1}  # (l mu)^2 + (l sigma)^2


def poly_coefficients(n):
    """(c_0, Re c_1, Im c_1) of D*L_n, D = 2 l^2, from fact 1's formulas:
    (D/2, D mu, -D sigma n) = (l^2, 2 l (l mu), -2 n l (l sigma)) for
    n != 0, and (D, D (mu^2 + sigma^2)/2, 0) for n = 0."""
    if n:
        return L2, poly_sum((2, L_LMU)), poly_sum((-2 * n, L_LSIG))
    return poly_sum((2, L2)), SQUARES, {}


def poly_virasoro_scalars(n, m):
    """(re, im) of the seven scalars of fact 2, as polynomials: the complex
    products c_k(n) c_l(m), -(n - m) D c_k(n+m) and minus the central term
    D^2 (n^3 - n)/12 (1 + 12 sigma^2) = (n^3 - n)/3 l^4 + 4 (n^3 - n) l^2 (l sigma)^2."""
    a0, ar, ai = poly_coefficients(n)
    b0, br, bi = poly_coefficients(m)
    d0, dr, di = poly_coefficients(n + m)
    step = poly_sum((2 * (m - n), L2))
    t = n ** 3 - n
    assert t % 3 == 0
    central = poly_sum((t // 3, {(4, 0, 0): 1}), (4 * t, {(2, 0, 2): 1})) if m == -n else {}
    return ((poly_mul(a0, b0), poly_mul(a0, br), poly_mul(ar, b0),
             poly_sum((1, poly_mul(ar, br)), (-1, poly_mul(ai, bi))),
             poly_mul(step, d0), poly_mul(step, dr), poly_sum((-1, central))),
            ({}, poly_mul(a0, bi), poly_mul(ai, b0),
             poly_sum((1, poly_mul(ar, bi)), (1, poly_mul(ai, br))), {}, poly_mul(step, di), {}))


def poly_adjoint_forms(n):
    """Fact 3's two functionals for 'L', (c_0, Re c_1, -d_0, -Re d_1) and
    (0, Im c_1, 0, Im d_1), as polynomials (c of n, d of -n)."""
    c0, cr, ci = poly_coefficients(n)
    d0, dr, di = poly_coefficients(-n)
    return (c0, cr, poly_sum((-1, d0)), poly_sum((-1, dr))), ({}, ci, {}, di)


def residuals(forms, row):
    """The polynomial each functional of `forms` takes on `row`."""
    return [poly_sum(*zip(row, f)) for f in forms]


def can_fail(forms, row):
    """Whether some residual of `row` is not the zero polynomial."""
    return any(residuals(forms, row))


def rref(rows, width):
    """The reduced row echelon form of `rows` over Q: (pivot columns, rows)."""
    rows = [[Q(x) for x in r] for r in rows]
    pivots, top = [], 0
    for c in range(width):
        p = next((i for i in range(top, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[top], rows[p] = rows[p], rows[top]
        rows[top] = [x / rows[top][c] for x in rows[top]]
        for i in range(len(rows)):
            if i != top and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[top])]
        pivots.append(c)
        top += 1
    return pivots, rows[:top]


def null_space(rows, width):
    """Int vectors spanning {v : R v = 0}, one per free column."""
    pivots, reduced = rref(rows, width)
    out = []
    for f in range(width):
        if f in pivots:
            continue
        v = [Q(0)] * width
        v[f] = Q(1)
        for c, r in zip(pivots, reduced):
            v[c] = -r[f]
        d = lcm(*(x.denominator for x in v))
        out.append([int(x * d) for x in v])
    return out


def coefficient_matrix(forms):
    """One row per (functional, monomial): the monomial's coefficient in each
    entry of the functional, so that R v = 0 exactly when every residual of
    v is the zero polynomial."""
    return [[f[j].get(k, 0) for j in range(len(f))]
            for f in forms for k in sorted(set().union(*f))]


def test_boson_norm_examples():
    assert boson_norm(BosonBasisState.of({1: 1})) == 1
    assert boson_norm(BosonBasisState.of({2: 1})) == 2
    assert boson_norm(BosonBasisState.of({1: 2})) == 2
    assert boson_norm(BosonBasisState.of({3: 2, 1: 1})) == 2 * 9 * 1


def _pairing_oracle(u, v, mu, e_max):
    """<u, v> computed by moving the annihilators of u through the creators
    of v; independent of the closed norm formula."""
    col = {v: GR.of(1)}
    for j, mult in sorted(u.parts, reverse=True):
        op = heisenberg_matrix(j, mu, e_max)
        for _ in range(mult):
            col = op.apply_column(col)
    return col.get(VACUUM, GR.of(0))


def test_gram_matrix_diagonal_and_norms():
    for e in range(0, 6):
        for u in states_at_energy(e):
            for v in states_at_energy(e):
                got = _pairing_oracle(u, v, Q(0), 6)
                want = GR.of(boson_norm(u)) if u == v else GR.of(0)
                assert got == want, (u, v)
    # mu-independence of the diagonal
    st = BosonBasisState.of({2: 1, 1: 1})
    assert _pairing_oracle(st, st, Q(7, 3), 5) == GR.of(boson_norm(st))


def test_a_mode_commutator():
    # [a_n, a_{-n}] = n on interior slices
    e_max = 5
    for n in (1, 2):
        up = heisenberg_matrix(-n, Q(0), e_max)
        dn = heisenberg_matrix(n, Q(0), e_max)
        for st in states_up_to(e_max - n):
            c1 = dn.apply_column(up.apply(st))
            c2 = up.apply_column(dn.apply(st)) if st.energy - n >= 0 else {}
            lhs = {k: v for k, v in c1.items()}
            for k, v in (c2 or {}).items():
                lhs[k] = lhs.get(k, GR.of(0)) - v
            assert lhs.get(st, GR.of(0)) == GR.of(n)


def test_fairlie_l0_action():
    mu, s = Q(2), GR.imag(Q(1, 2))
    l0 = fairlie_matrix(s, mu, 0, 4)
    const = (GR.of(mu * mu) - s * s) / 2
    assert l0.apply(VACUUM) == {VACUUM: const}
    st = BosonBasisState.of({3: 1})
    assert l0.apply(st) == {st: GR.of(3) + const}


def test_a0_acts_as_mu():
    op = heisenberg_matrix(0, Q(5, 3), 3)
    st = BosonBasisState.of({2: 1})
    assert op.apply(st) == {st: GR.of(Q(5, 3))}


def test_virasoro_examples():
    assert virasoro_check(GR.of(0), Q(0), 1, -1, 4)
    # [L_2, L_-2] - 4 L_0 = (1/2)(1 - 12 s^2) id on the vacuum line
    s = GR.imag(Q(3, 7))
    assert virasoro_check(s, Q(5, 3), 2, -2, 6)
    with pytest.raises(WindowTooSmall):
        virasoro_check(s, Q(0), 3, -3, 5)


def test_virasoro_central_term_visible():
    # corrupt the central term and the check must fail: compare directly
    s = GR.imag(Q(1, 2))
    Ln = fairlie_matrix(s, Q(2), 2, 6)
    Lm = fairlie_matrix(s, Q(2), -2, 6)
    L0 = fairlie_matrix(s, Q(2), 0, 6)
    comm = Ln.apply_column(Lm.apply(VACUUM))
    back = Lm.apply_column(Ln.apply(VACUUM)) or {}
    for k, v in back.items():
        comm[k] = comm.get(k, GR.of(0)) - v
    want = {VACUUM: GR.of(4) * L0.apply(VACUUM)[VACUUM]
            + GR.of(Q(1, 2)) * (GR.of(1) - GR.of(12) * s * s)}
    assert comm == {k: v for k, v in want.items() if v}


def test_adjointness_examples():
    assert adjointness_check(GR.of(0), Q(0), 0, 4)
    assert adjointness_check(GR.imag(Q(1, 2)), Q(2), 1, 6)
    assert adjointness_check(GR.imag(Q(1, 2)), Q(2), -1, 6)
    assert adjointness_check(GR.of(0), Q(2), 2, 6, operator="a")
    assert adjointness_check(GR.of(0), Q(5, 3), -1, 5, operator="a")


def test_adjointness_needs_the_window():
    # for |n| > e_max no state pair lies in the window: refused, not passed
    for op in ("L", "a"):
        for n in (2, -2):
            with pytest.raises(WindowTooSmall):
                adjointness_check(GR.of(0), Q(2), n, 1, operator=op)
            assert adjointness_check(GR.of(0), Q(2), n, 2, operator=op)


def test_calls_that_would_compare_or_hold_nothing_are_refused():
    """A bound below 1 leaves `exp_factorization_check` nothing to compare,
    and a view with no admissible input (e_max < max(0, -n)) would have no
    column: each raises `WindowTooSmall` instead of answering True or an
    empty operator.  The smallest windows that hold something still pass."""
    t, s, mu = GR.imag(Q(1, 2)), GR.imag(Q(1, 2)), Q(2)
    for n_max, m_max in ((0, 4), (4, 0), (0, 0), (-1, 3), (3, -2)):
        with pytest.raises(WindowTooSmall):
            exp_factorization_check(t, n_max, m_max)
    assert exp_factorization_check(t, 1, 1)
    for n, e_max in ((1, -2), (0, -1), (-3, 2), (-1, 0)):
        with pytest.raises(WindowTooSmall):
            heisenberg_matrix(n, mu, e_max)
        with pytest.raises(WindowTooSmall):
            fairlie_matrix(s, mu, n, e_max)
    for n, e_max in ((0, 0), (5, 0), (-2, 2)):
        for op in (heisenberg_matrix(n, mu, e_max), fairlie_matrix(s, mu, n, e_max)):
            assert op.columns and VACUUM in op.columns


def test_exp_factorization():
    assert exp_factorization_check(GR.imag(Q(1, 1)), 3, 3)
    assert exp_factorization_check(GR.imag(Q(3, 7)), 5, 5)
    # n = m = 3 difference is -2*3!*t: recheck through the public API with the
    # zero deformation, which must agree trivially
    assert exp_factorization_check(GR.of(0), 4, 4)


def test_g_half_norm_examples():
    g = catalog.psl22()
    th1 = lookup(g).components[0].theta
    nu = Q(1, 2) * th1
    assert g_half_norm(g, -3, nu, 1) == 3
    # vanishing exactly at the threshold
    assert g_half_norm(g, -3, nu, A_bound(g, -3, nu)) == 0
    # sign analysis
    for l0 in (Q(0), Q(1, 4), Q(2)):
        lhs = g_half_norm(g, -3, nu, l0) >= 0
        assert lhs == (l0 >= A_bound(g, -3, nu))


def test_j_g_ratio_matches_n_i(unitary_families):
    from wmin.levels import component_level
    for g in unitary_families:
        e = lookup(g)
        for k in enumerate_unitary_k(g, 3):
            for nu in enumerate_P_plus_k(g, k):
                for i, comp in enumerate(e.components, start=1):
                    n_i = (component_level(e, k, comp) + comp.chi + 1
                           - e.coroot_pairing(nu, comp.theta))
                    assert j_g_ratio(g, k, nu, i) == 1 - n_i


def test_j_g_ratio_rejects_a_component_index_outside_1_to_s():
    """i = 0 must not wrap round to component s, nor s + 1 raise a bare
    IndexError; psl22 has one component, D(2,1;2) two."""
    g = catalog.psl22()
    nu = Q(1, 2) * lookup(g).components[0].theta
    assert j_g_ratio(g, -2, nu, 1) == 1
    for g, k, nu in ((g, -2, nu), (catalog.d21a(2), Q(-2, 3), zero_vec(3))):
        s = len(lookup(g).components)
        for i in (0, s + 1, -1):
            with pytest.raises(IndexOutOfSet, match=rf"^component index {i} outside 1\.\.{s}$"):
                j_g_ratio(g, k, nu, i)


def test_stored_columns_hold_no_zero_and_cancellation_empties():
    """Every sparse update goes through one add that drops cancelled entries:
    no operator column stores a zero coefficient (e_max 8, the benchmark's
    s and mu grid, |n| <= 3), neither in the views nor in the int maps of
    the kernel (all |n| <= 8 for a_n and P_n), and c*col - c*col comes out
    as {}."""
    for s, mu in GRID:
        for n in range(-3, 4):
            for op in (fairlie_matrix(s, mu, n, 8), heisenberg_matrix(n, mu, 8)):
                for col in op.columns.values():
                    assert all(col.values()), (op.name, s, mu, n)
            # the int pairs the Virasoro views are read from store no (0, 0) either
            cols = gram_lab._scaled_L(s.im, mu, n, 8)[1]
            assert all(v != (0, 0) for col in cols if col for v in col.values())
    for n in (n for n in range(-8, 9) if n):
        for cols in (gram_lab._a_map(n, 8), gram_lab._p_map(n, 8)):
            assert all(c for col in cols if col for c in col.values())
    u, v = BosonBasisState.of({1: 1}), BosonBasisState.of({2: 1})
    col = fairlie_matrix(GR.imag(Q(1, 2)), Q(2), -1, 6).apply(u)
    assert len(col) > 1
    op = GradedSliceOperator("L", -1, Q(2), GR.imag(Q(1, 2)), 6, {u: col, v: col})
    c = GR(Q(3), Q(-2))
    assert op.apply_column({u: c, v: -c}) == {}
    assert op.apply_column({u: c, v: c}) == {k: GR.of(2) * c * x for k, x in col.items()}


# ---------------------------------------------------------------------------
# the integer kernel against the Fraction oracle


def test_views_equal_the_fraction_oracle():
    """`fairlie_matrix` and `heisenberg_matrix`, views of the int kernel,
    equal the `Fraction` builds column by column: the criterion-9 and the
    benchmark grids of (s, mu), e_max 8, |n| <= 6.  The parts and
    coefficients of a_n that `adjointness_check` reads combine to
    den(mu) a_n, as the int oracle builds it."""
    assert {(GR.imag(Q(s)), Q(mu)) for s in CRIT9_S for mu in CRIT9_MU} <= set(GRID)
    for s, mu in GRID:
        for n in range(-6, 7):
            assert fairlie_matrix(s, mu, n, 8) == oracle_fairlie(s, mu, n, 8), (s, mu, n)
    for mu in BENCH_MU:
        for n in range(-6, 7):
            assert heisenberg_matrix(n, Q(mu), 8) == oracle_heisenberg(n, Q(mu), 8), (mu, n)
            assert gram_lab._combine(gram_lab._a_parts(n, 8),
                                     *gram_lab._a_coefficients(Q(mu), n)) \
                == int_scaled_a(Q(mu), n, 8), (mu, n)


def test_fairlie_decomposition():
    """Fact 1 of the module docstring, on the oracle: leaving the j = 0 and
    j = -n terms out of (1/2) sum_j a_{-j} a_{j+n} at s = 0 gives
    (1/2) P_n for every mu, and the full L_n minus (1/2) P_n is
    (mu - s*n) a_n."""
    b = gram_lab._basis(8)
    s = GR.imag(Q(3, 7))
    for n in (-6, -3, -1, 1, 2, 5):
        half_p = {b.states[i]: {b.states[y]: GR.of(Q(c, 2)) for y, c in col.items()}
                  for i, col in enumerate(gram_lab._p_map(n, 8)) if col is not None}
        for mu in (Q(0), Q(5, 3), Q(-1)):
            assert oracle_fairlie(GR.of(0), mu, n, 8, j_skip=(0, -n)).columns == half_p
        mu = Q(5, 3)
        full, a_n = oracle_fairlie(s, mu, n, 8), oracle_heisenberg(n, mu, 8)
        assert set(full.columns) == set(half_p) == set(a_n.columns)
        for st_, col in full.columns.items():
            rest = dict(col)
            _add_into(rest, half_p[st_], GR.of(-1))
            want = {}
            _add_into(want, a_n.apply(st_), mu - s * n)
            assert rest == want, (n, st_)


def test_scale_makes_every_entry_integral():
    """Fact 2: with D = 2 lcm(den mu, den sigma)^2, D/2, D*mu, D*sigma*n,
    D(mu^2 + sigma^2)/2 and D^2 (n^3 - n)/12 (1 + 12 sigma^2) are integers;
    the factor 2 is needed; and the kernel raises on a value that is not
    integral instead of rounding it."""
    for s, mu in GRID + [(GR.imag(Q(5, 6)), Q(7, 4)), (GR.imag(Q(-2, 9)), Q(1, 15))]:
        sigma = s.im
        D = gram_lab._scaled_L(sigma, mu, 0, 1)[0]
        assert D == 2 * lcm(sigma.denominator, mu.denominator) ** 2
        for x in [D * mu, D * (mu * mu + sigma * sigma) / 2] + [
                D * sigma * n for n in range(-9, 10)] + [
                D * D * Q(n ** 3 - n, 12) * (1 + 12 * sigma * sigma) for n in range(-20, 21)]:
            assert x.denominator == 1, (s, mu, x)
    # P_{-2}|0> = a_{-1}^2|0>: (1/2) P_n needs the 2 even where lcm = 1
    assert gram_lab._p_map(-2, 4)[0] == {gram_lab._basis(4).index[((1, 2),)]: 1}
    with pytest.raises(ArithmeticError):
        gram_lab._exact_int(Q(1, 2))
    assert gram_lab._exact_int(Q(-6, 3)) == -2


def test_paired_maps_hold_the_parts():
    """`_paired(n, e_max)` holds the parts of mode n, entry for entry: its
    triples give back B_0 and B_1 with no 0 stored, every stored position
    is reached by a part, and its None columns are the parts' own."""
    for e_max in (4, 8):
        for n in range(-e_max, e_max + 1):
            b0, b1 = gram_lab._parts(n, e_max)
            for i, col in enumerate(gram_lab._paired(n, e_max)):
                assert (col is None) == (b1[i] is None), (n, i)
                if col is None:
                    continue
                assert len({y for y, _, _ in col}) == len(col)
                assert {y: z0 for y, z0, _ in col if z0} == b0[i], (n, i)
                assert {y: z1 for y, _, z1 in col if z1} == b1[i], (n, i)
                assert all(z0 or z1 for _, z0, z1 in col)


def a_rows_that_can_fail(rows):
    """For 'a' the residual is den(mu) (r_1 - r_3), or num(mu) (r_1 - r_3)
    for n = 0: the zero polynomial in (num, den) exactly when r_1 = r_3."""
    return {r for r in rows if r[1] != r[3]}


def test_adjoint_rows_are_the_dense_rows():
    """Fact 3's table: `_adjoint_rows` is the sorted set of the distinct
    nonzero rows of the dense loop over every pair of the window whose
    residual is not the zero polynomial, for both operators, e_max <= 6 and
    |n| <= e_max; on the free-field maps that set is empty."""
    for e_max in range(0, 7):
        for n in range(-e_max, e_max + 1):
            dense = dense_adjoint_rows(n, e_max, "L")
            want = {r for r in dense if can_fail(poly_adjoint_forms(n), r)}
            assert gram_lab._adjoint_rows(n, e_max, "L") == tuple(sorted(want)) == ()
            want = a_rows_that_can_fail(dense_adjoint_rows(n, e_max, "a"))
            assert gram_lab._adjoint_rows(n, e_max, "a") == tuple(sorted(want)) == ()


def test_virasoro_rows_are_an_echelon_basis_of_the_dense_rows():
    """Fact 2's table: `_virasoro_rows` is the sorted set of the distinct
    nonzero rows of every window entry whose residual is not the zero
    polynomial (the polynomial oracle), for every pair n <= m inside the
    window at e_max <= 6; on the free-field maps that set is empty, the
    identities holding for every (s, mu)."""
    for e_max in range(1, 7):
        for n in range(-e_max, e_max):
            for m in range(n, e_max):
                if abs(n) + abs(m) <= e_max - 1:
                    forms = poly_virasoro_scalars(n, m)
                    want = {r for r in dense_virasoro_rows(n, m, e_max) if can_fail(forms, r)}
                    assert gram_lab._virasoro_rows(n, m, e_max) == tuple(sorted(want)) == ()


def test_the_scalars_are_forms_within_the_bound():
    """For |n|, |m| <= 12: the scalars of fact 2 are forms of degree 4 and
    the 'L' functionals of fact 3 of degree 2 in (l, l mu, l sigma), with no
    coefficient above `_form_bound` (attained at n = m = 0), and the code's
    scalars are those polynomials; `_kronecker_point(x)` is (1, B, B^5)
    with B the least power of two above 2 x."""
    points = [(1, 0, 0), (3, -5, 7), (7, 2 ** 40 + 1, -(3 ** 30)), (2 ** 20, 1, 2 ** 21 - 1)]
    top = {}
    for n in range(-12, 13):
        for m in range(-12, 13):
            forms = poly_virasoro_scalars(n, m)
            coefficients = [c for f in forms for p in f for c in p.values()]
            assert all(sum(k) == 4 for f in forms for p in f for k in p)
            top[n, m] = max(map(abs, coefficients))
            assert top[n, m] <= gram_lab._form_bound(n, m), (n, m)
            for point in points:
                assert gram_lab._virasoro_scalars(point, n, m) == tuple(
                    tuple(poly_at(p, point) for p in f) for f in forms), (n, m, point)
        forms = poly_adjoint_forms(n)
        assert all(sum(k) == 2 for f in forms for p in f for k in p)
        assert max(abs(c) for f in forms for p in f for c in p.values()) <= gram_lab._form_bound(n)
        for point in points:
            assert gram_lab._adjoint_scalars(point, n) == tuple(
                tuple(poly_at(p, point) for p in f) for f in forms), (n, point)
    assert top[0, 0] == gram_lab._form_bound(0, 0) == 4
    assert max(abs(c) for f in poly_adjoint_forms(0) for p in f for c in p.values()) == \
        gram_lab._form_bound(0) == 2
    for x in list(range(1, 300)) + [2 ** k + d for k in range(8, 70, 7) for d in (-1, 0, 1)]:
        one, base, top5 = gram_lab._kronecker_point(x)
        assert one == 1 and top5 == base ** 5 and base & (base - 1) == 0
        assert 2 * x < base <= 4 * x, x


KERNELS = {}


def kernels(key):
    """For ("V", n, m) or ("L", n, 0): (forms, width, the int rows whose
    residuals are all the zero polynomial, those whose first residual is)."""
    if key not in KERNELS:
        kind, n, m = key
        forms = poly_virasoro_scalars(n, m) if kind == "V" else poly_adjoint_forms(n)
        width = len(forms[0])
        KERNELS[key] = (forms, width, null_space(coefficient_matrix(forms), width),
                        null_space(coefficient_matrix(forms[:1]), width))
    return KERNELS[key]


@st.composite
def table_rows(draw):
    """A key ("V", n, m) or ("L", n, 0) with |n|, |m| <= 12 and up to four
    int rows, each a combination of rows whose residuals vanish (all of
    them, or the first only) plus, or not, a small random row; the
    coefficients reach 3, 2^12 or 2^40."""
    kind = draw(st.sampled_from("VL"))
    n = draw(st.integers(-12, 12))
    key = (kind, n, draw(st.integers(-12, 12)) if kind == "V" else 0)
    _, width, zero, first = kernels(key)
    edge = draw(st.sampled_from([3, 2 ** 12, 2 ** 40]))
    coefficient = st.integers(-edge, edge)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        row = [0] * width
        for basis in (zero, first):
            for k in basis:
                c = draw(coefficient)
                row = [x + c * y for x, y in zip(row, k)]
        if draw(st.booleans()):
            noise = draw(st.lists(st.integers(-2, 2), min_size=width, max_size=width))
            row = [x + y for x, y in zip(row, noise)]
        rows.append(tuple(row))
    return key, rows


@given(table=table_rows())
@settings(max_examples=300, deadline=None)
def test_the_filter_keeps_a_row_exactly_when_its_residual_can_fail(table):
    """`_live`, called as a table build calls it, keeps a row exactly when
    the polynomial oracle's residual of it is not zero."""
    (kind, n, m), rows = table
    forms = kernels((kind, n, m))[0]
    if kind == "V":
        got = gram_lab._live(rows, gram_lab._virasoro_scalars, n, m)
    else:
        got = gram_lab._live(rows, gram_lab._adjoint_scalars, n)
    assert got == tuple(sorted({r for r in rows if can_fail(forms, r)}))


def test_the_tables_filter_through_the_scalar_helpers():
    """A table build hands its rows to `_live` with the helper the check
    dots them with, `_virasoro_scalars` with (n, m) or `_adjoint_scalars`
    with n for 'L', so the property above holds for the tables' filters;
    the 'a' table does not call it."""
    calls, live = [], gram_lab._live

    def spy(rows, scalars, *modes):
        calls.append((scalars, modes))
        return live(rows, scalars, *modes)

    with _routed("_live", spy):
        gram_lab._virasoro_rows(-1, 2, 5)
        gram_lab._adjoint_rows(-2, 5, "L")
        gram_lab._adjoint_rows(-2, 5, "a")
    assert calls == [(gram_lab._virasoro_scalars, (-1, 2)), (gram_lab._adjoint_scalars, (-2,))]


# a row of the (1, 2) table whose residual, -2 l^3 (l sigma) i, is zero on the
# whole line s = 0 and nowhere else
ON_S_ZERO = (0, 1, -1, 0, 0, 0, 0)


def test_a_row_vanishing_at_sampled_points_is_kept():
    """For each of the nine (s, mu) of criterion 9 (s = 0 among them), a
    hand-built row of the (1, 2) table whose residual vanishes there and is
    not the zero polynomial, and `ON_S_ZERO`, which vanishes at s = 0 for
    every mu: the table keeps each, and `virasoro_check` on a table holding
    it returns True where it vanishes and False at s = 5i/3, mu = 3/4.  No
    row of a table |n|, |m| <= 3 vanishes at all nine points without being
    the zero polynomial: the nine values have the rank of the polynomials."""
    points = [(1, Q(mu), Q(s)) for s in CRIT9_S for mu in CRIT9_MU]
    for n in range(-3, 4):
        for m in range(-3, 4):
            forms = poly_virasoro_scalars(n, m)
            at = [[poly_at(p, point) for p in f] for point in points for f in forms]
            assert len(rref(at, 7)[0]) == len(rref(coefficient_matrix(forms), 7)[0])
    n, m, e_max = 1, 2, 4
    forms = poly_virasoro_scalars(n, m)
    elsewhere = (GR.imag(Q(5, 3)), Q(3, 4))
    cases = [(ON_S_ZERO, [(GR.of(0), Q(mu)) for mu in BENCH_MU])]
    for s, mu in [(GR.imag(Q(s_)), Q(mu_)) for s_ in CRIT9_S for mu_ in CRIT9_MU]:
        at = [[poly_at(p, (1, mu, s.im)) for p in f] for f in forms]
        row = next(tuple(v) for v in null_space(at, 7) if can_fail(forms, v))
        cases.append((row, [(s, mu)]))
    for row, zeros in cases:
        assert can_fail(forms, row)
        assert gram_lab._live([row], gram_lab._virasoro_scalars, n, m) == (row,)
        with _routed("_virasoro_rows", lambda *key: (row,)):
            for s, mu in zeros:
                assert virasoro_check(s, mu, n, m, e_max), (row, s, mu)
            assert not virasoro_check(*elsewhere, n, m, e_max), row


def test_the_a_rule_keeps_an_unequal_pair_at_n_zero():
    """An entry of a_0 = mu I off the diagonal, between a_{-2}|0> and
    a_{-1}^2|0>, gives rows with r_1 != r_3 at n = 0: the 'a' table keeps
    exactly those, and the check fails at mu != 0 and passes at mu = 0,
    where num(mu) (r_1 - r_3) is 0."""
    e_max = 4
    kernel = gram_lab._a_parts

    def perturbed(n, e):
        b0, b1 = kernel(n, e)
        if n:
            return b0, b1
        b = gram_lab._basis(e)
        b1 = [dict(col) for col in b1]
        b1[b.index[((2, 1),)]][b.index[((1, 2),)]] = 1
        return b0, tuple(b1)

    zero = GR.of(0)
    with _routed("_a_parts", perturbed):
        rows = gram_lab._adjoint_rows(0, e_max, "a")
        assert rows and rows == tuple(sorted(a_rows_that_can_fail(
            dense_adjoint_rows(0, e_max, "a"))))
        assert not adjointness_check(zero, Q(1), 0, e_max, "a")
        assert not adjointness_check(zero, Q(-2, 3), 0, e_max, "a")
        assert adjointness_check(zero, Q(0), 0, e_max, "a")
        assert gram_lab._adjoint_rows(1, e_max, "a") == ()


FRACTIONS = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@given(sigma=FRACTIONS, re=st.sampled_from([Q(0), Q(0), Q(0), Q(1, 2)]), mu=FRACTIONS,
       e_max=st.integers(min_value=1, max_value=6), n=st.integers(min_value=-4, max_value=4),
       m=st.integers(min_value=-4, max_value=4), operator=st.sampled_from(["L", "a"]))
@settings(max_examples=40, deadline=None)
def test_checks_agree_with_the_oracle(sigma, re, mu, e_max, n, m, operator):
    """`virasoro_check` and `adjointness_check`, and the int oracle, return
    what the `Fraction` checks return and raise what they raise
    (`WindowTooSmall` outside the window, `PreconditionViolated` for an s
    that is not imaginary)."""
    s = GR(re, sigma)
    want = _outcome(oracle_virasoro, s, mu, n, m, e_max)
    assert _outcome(virasoro_check, s, mu, n, m, e_max) == want
    assert _outcome(int_oracle_virasoro, s, mu, n, m, e_max) == want
    want = _outcome(oracle_adjointness, s, mu, n, e_max, operator)
    assert _outcome(adjointness_check, s, mu, n, e_max, operator) == want
    assert _outcome(int_oracle_adjointness, s, mu, n, e_max, operator) == want


@given(re=FRACTIONS, im=FRACTIONS, n_max=st.integers(min_value=0, max_value=5),
       m_max=st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_exp_factorization_agrees_with_the_oracle(re, im, n_max, m_max):
    """Equal to the oracle wherever a derivative is compared; a zero bound,
    where the oracle compares nothing and returns True, is refused."""
    t = GR(re, im)
    if n_max == 0 or m_max == 0:
        with pytest.raises(WindowTooSmall):
            exp_factorization_check(t, n_max, m_max)
        return
    assert exp_factorization_check(t, n_max, m_max) == \
        oracle_exp_factorization(t, n_max, m_max)


# the caches built from the parts: `_routed` empties them.  Every other
# cache of `gram_lab` is a base map, which the perturbed-maps test prebuilds.
TABLES = (gram_lab._paired, gram_lab._virasoro_rows, gram_lab._adjoint_rows)
BASE_MAPS = (gram_lab.states_at_energy, gram_lab._basis, gram_lab._a_map,
             gram_lab._p_map, gram_lab.heisenberg_matrix)


def _clear_tables():
    for f in TABLES:
        f.cache_clear()


@contextmanager
def _routed(name, replacement):
    """`gram_lab.<name>` replaced for the duration, with the caches of the
    tables built from the parts (`TABLES`) emptied on the way in and out, so
    no table built from a replaced map outlives it."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(gram_lab, name, replacement)
        _clear_tables()
        try:
            yield
        finally:
            _clear_tables()


def test_every_gram_cache_is_a_base_map_or_a_routed_table():
    """A new cache built from the parts must join `TABLES`, or a test that
    routes a part would read a table built before the route."""
    caches = {name for name in _stores.info() if name.startswith("gram_lab.")}
    assert caches == {f"gram_lab.{f.__name__}" for f in TABLES + BASE_MAPS}
    assert not set(TABLES) & set(BASE_MAPS)


def _edited_parts(edit):
    """The parts (B_0, B_1) of D*L_n as copies that `edit(n, parts, basis)`
    changes in place (two lists of columns)."""
    kernel = gram_lab._parts

    def edited(n, e_max):
        parts = [[None if col is None else dict(col) for col in b] for b in kernel(n, e_max)]
        edit(n, parts, gram_lab._basis(e_max))
        return tuple(tuple(b) for b in parts)
    return edited


def test_a_corrupted_entry_or_a_real_s_term_fails_both_checks():
    s, mu = GR.imag(Q(1, 2)), Q(2)
    zero = GR.of(0)
    assert virasoro_check(s, mu, 1, -1, 6) and adjointness_check(s, mu, 1, 6)
    assert adjointness_check(zero, Q(0), 2, 4) and adjointness_check(zero, Q(0), -2, 4)
    assert adjointness_check(zero, Q(0), 1, 4) and adjointness_check(zero, Q(0), -1, 4)

    def corrupt(n, parts, b):  # a unit of P_1 at L_1 a_{-1}|0>, on the vacuum
        if n == 1:
            parts[0][b.index[((1, 1),)]][0] = 1

    coefficients = gram_lab._coefficients

    def real_s_term(scale, n):  # (mu - sigma*n) a_n in place of (mu - s*n) a_n
        c0, (re, im) = coefficients(scale, n)
        return c0, (re + im, 0)

    def spurious(n, parts, b):  # an entry of P_{-2} where P_2 and a_2 have none
        if n == -2:
            parts[0][0][b.index[((2, 1),)]] = 1

    # P_{-1} a_{-2}|0> -> a_{-1}^3|0>, where no part of L_1 has [a_{-2}, a_{-1}^3]
    def unreached(n, parts, b):
        if n == -1:
            parts[0][b.index[((2, 1),)]][b.index[((1, 3),)]] = 1

    for name, fn in (("_parts", _edited_parts(corrupt)), ("_coefficients", real_s_term)):
        with _routed(name, fn):
            assert not virasoro_check(s, mu, 1, -1, 6), name
            assert not adjointness_check(s, mu, 1, 6), name
    # at s = mu = 0, L_2[|0>, a_{-2}|0>] = 0, yet a_2 reaches that pair, so the
    # walk over the parts of L_2 meets the spurious entry of L_{-2} (fact 3)
    with _routed("_parts", _edited_parts(spurious)):
        assert not adjointness_check(zero, Q(0), 2, 4)
        assert not adjointness_check(zero, Q(0), -2, 4)
    # for n = 1 only the second walk, over the parts of L_{-1}, meets it
    with _routed("_parts", _edited_parts(unreached)):
        assert not adjointness_check(zero, Q(0), 1, 4)
        assert not adjointness_check(zero, Q(0), -1, 4)
    assert virasoro_check(s, mu, 1, -1, 6) and adjointness_check(zero, Q(0), 2, 4)
    assert adjointness_check(zero, Q(0), 1, 4)


# one in-window entry of an int map: (map, n, input state, output state);
# the entry gains 1; the third one is new (P_{-1} a_{-2}|0> has no
# a_{-1}^3|0> part), and the last puts rows in one table alone, that of
# (2, 3) (P_5 is read by no other pair |n|, |m| <= 3)
PERTURBATIONS = [("_p_map", 1, ((1, 1), (2, 1)), ((1, 2),)),
                 ("_a_map", -2, ((1, 1),), ((1, 1), (2, 1))),
                 ("_p_map", -1, ((2, 1),), ((1, 3),)),
                 ("_p_map", 5, ((2, 1), (3, 1)), ())]


def perturbed_map(name, n0, source, target, e_max):
    """`gram_lab.<name>` with the entry (source -> target) of its map at
    (n0, e_max) raised by 1 (a `PERTURBATIONS` entry), for `_routed`.  Every
    `_p_map` at e_max is built first, so that no P_n is built from a
    perturbed a_n."""
    kernel = getattr(gram_lab, name)
    for n in range(-e_max, e_max + 1):
        if n:
            gram_lab._p_map(n, e_max)

    def perturbed(n, e):
        cols = kernel(n, e)
        if (n, e) != (n0, e_max):
            return cols
        b = gram_lab._basis(e)
        cols = [None if col is None else dict(col) for col in cols]
        i, y = b.index[source], b.index[target]
        assert cols[i] is not None and b.energy[i] - n0 == b.energy[y]
        cols[i][y] = cols[i].get(y, 0) + 1
        return tuple(cols)

    return perturbed


@pytest.mark.parametrize("name, n0, source, target", PERTURBATIONS)
def test_checks_equal_the_int_oracle_on_perturbed_maps(name, n0, source, target):
    """With one entry of `_p_map` or `_a_map` off by one, `virasoro_check`
    and `adjointness_check` return what the pair-product int oracle returns
    on the same maps, for |n|, |m| <= 3 at e_max 6, and some of them return
    False."""
    e_max = 6
    got = []
    with _routed(name, perturbed_map(name, n0, source, target, e_max)):
        for s, mu in [(GR.imag(Q(1, 2)), Q(2)), (GR.imag(Q(3, 7)), Q(5, 3)), (GR.of(0), Q(-1))]:
            for n in range(-3, 4):
                for m in range(-3, 4):
                    want = _outcome(int_oracle_virasoro, s, mu, n, m, e_max)
                    got.append((_outcome(virasoro_check, s, mu, n, m, e_max), want))
                for op in ("L", "a"):
                    want = _outcome(int_oracle_adjointness, s, mu, n, e_max, op)
                    got.append((_outcome(adjointness_check, s, mu, n, e_max, op), want))
    gram_lab._p_map.cache_clear()
    assert all(a == b for a, b in got), [x for x in got if x[0] != x[1]]
    assert sum(b is False for _, b in got) > 0


def test_the_last_perturbation_raises_one_table_rank():
    """Under the last entry of `PERTURBATIONS` exactly the (2, 3) table
    holds rows, the dense rows whose residual can fail (the polynomial
    oracle); every other table of |n|, |m| <= 3 at e_max 6, and every
    adjointness table, stays empty, as all of them are on the free-field
    maps."""
    name, n0, source, target = PERTURBATIONS[-1]
    e_max = 6
    keys = [(n, m) for n in range(-3, 4) for m in range(n, 4) if abs(n) + abs(m) < e_max]

    def tables():
        return ({k: gram_lab._virasoro_rows(*k, e_max) for k in keys},
                {(n, op): gram_lab._adjoint_rows(n, e_max, op)
                 for n in range(-3, 4) for op in ("L", "a")})

    _clear_tables()
    before = tables()
    with _routed(name, perturbed_map(name, n0, source, target, e_max)):
        after = tables()
        forms = poly_virasoro_scalars(2, 3)
        want = {r for r in dense_virasoro_rows(2, 3, e_max) if can_fail(forms, r)}
    assert not any(before[0].values()) and not any(before[1].values())
    assert not any(after[1].values())
    assert {k for k in keys if after[0][k]} == {(2, 3)}
    assert after[0][2, 3] == tuple(sorted(want))


def test_the_diagonal_tables_are_empty_on_any_maps():
    """At n = m every row of the dense oracle has identically zero forms,
    on the free-field maps and under each `PERTURBATIONS` map, for every
    (n, n) inside the window at e_max 6, though some of those rows are
    nonzero: the residual of (n, n) is its own negative (fact 2), so
    `_virasoro_rows(n, n, e_max)` is () before any row is built."""
    e_max = 6
    diagonal = [n for n in range(-e_max, e_max) if 2 * abs(n) <= e_max - 1]

    def diagonal_rows():
        rows = {n: dense_virasoro_rows(n, n, e_max) for n in diagonal}
        assert all(gram_lab._virasoro_rows(n, n, e_max) == () for n in diagonal)
        assert not [r for n in diagonal for r in rows[n]
                    if can_fail(poly_virasoro_scalars(n, n), r)]
        return sum(len(rs) for rs in rows.values())

    _clear_tables()
    nonzero = [diagonal_rows()]
    for name, n0, source, target in PERTURBATIONS:
        with _routed(name, perturbed_map(name, n0, source, target, e_max)):
            nonzero.append(diagonal_rows())
    gram_lab._p_map.cache_clear()
    assert all(nonzero), nonzero


@pytest.mark.parametrize("e_max", [8, 10])
def test_checks_equal_the_int_oracle_on_the_empty_tables(e_max):
    """At e_max 8 and 10 every table of |n|, |m| <= 3 is empty on the
    free-field maps, Virasoro and adjointness alike, and both checks return
    what the int oracles return for three (s, mu), on all 49 pairs and both
    operators."""
    keys = [(n, m) for n in range(-3, 4) for m in range(n, 4)]
    virasoro = [len(gram_lab._virasoro_rows(n, m, e_max)) for n, m in keys]
    adjoint = [len(gram_lab._adjoint_rows(n, e_max, op)) for n in range(-3, 4) for op in "La"]
    assert (sum(virasoro), max(virasoro), sum(adjoint), max(adjoint)) == (0, 0, 0, 0)
    for s, mu in [(GR.imag(Q(1, 2)), Q(2)), (GR.imag(Q(3, 7)), Q(5, 3)), (GR.of(0), Q(-1))]:
        for n in range(-3, 4):
            for m in range(-3, 4):
                assert virasoro_check(s, mu, n, m, e_max) == \
                    int_oracle_virasoro(s, mu, n, m, e_max), (s, mu, n, m)
            for op in ("L", "a"):
                assert adjointness_check(s, mu, n, e_max, op) == \
                    int_oracle_adjointness(s, mu, n, e_max, op), (s, mu, n, op)


def test_gram_caches_stay_bounded_over_an_s_mu_sweep():
    """An (s, mu) sweep adds no table, since the Virasoro tables are keyed by
    (n, m, e_max) and the adjointness tables by (n, e_max, operator) alone;
    (n, m, e_max) keys past the bound of `_virasoro_rows`, (n, e_max) keys
    past the bounds of `_adjoint_rows` and `_paired`, modes past the bounds
    of `_a_map` and `_p_map`, cutoffs past the bound of `_basis` and mu
    values past that of `heisenberg_matrix` leave every store of the
    package (`_stores.info()`) at or under its bound."""
    rows, adj = gram_lab._virasoro_rows, gram_lab._adjoint_rows
    new = set(TABLES) | set(BASE_MAPS)
    bound = {f: f.cache_info().maxsize for f in new}
    rows.cache_clear()
    adj.cache_clear()
    assert virasoro_check(GR.of(0), Q(0), 1, 0, 2)
    assert adjointness_check(GR.of(0), Q(0), 1, 2)
    for k in range(1, max(bound[rows], bound[adj]) + 5):
        assert virasoro_check(GR.imag(Q(1, k)), Q(k, 3), 1, 0, 2)
        assert virasoro_check(GR.imag(Q(1, k)), Q(k, 3), 0, 1, 2)
        assert adjointness_check(GR.imag(Q(1, k)), Q(k, 3), 1, 2)
    for f in (rows, adj):
        assert f.cache_info().currsize == 1 and f.cache_info().misses == 1, f
    keys = [(n, m, e_max) for e_max in range(1, 11) for n in range(-e_max, e_max)
            for m in range(n, e_max) if abs(n) + abs(m) <= e_max - 1]
    assert len(keys) > bound[rows]
    for n, m, e_max in keys:
        assert virasoro_check(GR.imag(Q(1, 2)), Q(2), n, m, e_max)
    for e_max in range(1, 10):
        for n in range(-e_max, e_max + 1):
            assert adjointness_check(GR.of(0), Q(1), n, e_max)
    assert sum(2 * e + 1 for e in range(1, 10)) > bound[adj]
    assert sum(2 * e for e in range(1, 10)) > max(bound[gram_lab._a_map], bound[gram_lab._p_map])
    for e_max in range(bound[gram_lab._basis] + 4):
        gram_lab._basis(e_max)
    for k in range(bound[gram_lab.heisenberg_matrix] + 4):
        heisenberg_matrix(1, Q(k), 1)
    stores = _stores.info()
    assert {f"gram_lab.{f.__name__}" for f in new} <= stores.keys()
    for name, (_, _, maxsize, currsize) in stores.items():
        assert maxsize is not None and currsize <= maxsize, name
    assert all(f.cache_info().currsize == bound[f] for f in new - {gram_lab.states_at_energy})


# each entry point with int arguments, and the positions of its mode
# indices and cutoffs
INT_ARGUMENTS = [
    (virasoro_check, (GR.imag(Q(1, 2)), Q(2), 1, -1, 4), (2, 3, 4)),
    (adjointness_check, (GR.imag(Q(1, 2)), Q(2), 1, 4, "L"), (2, 3)),
    (adjointness_check, (GR.of(0), Q(2), 1, 4, "a"), (2, 3)),
    (states_at_energy, (2,), (0,)),
    (states_up_to, (2,), (0,)),
    (fairlie_matrix, (GR.imag(Q(1, 2)), Q(2), 1, 4), (2, 3)),
    (heisenberg_matrix, (1, Q(2), 4), (0, 2)),
    (exp_factorization_check, (GR.imag(Q(1, 2)), 2, 2), (1, 2)),
]


@pytest.mark.parametrize("fn, args, positions", INT_ARGUMENTS,
                         ids=lambda x: getattr(x, "__name__", None))
@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
def test_gram_entry_points_refuse_a_non_int_index_or_cutoff(fn, args, positions, warm):
    """A float (or bool) mode index, cutoff or energy raises `IndexOutOfRange`
    before any cache is read: the same whether the int call it equals has
    filled the caches or not."""
    _stores.clear()
    if warm:
        assert fn(*args)
    for pos in positions:
        for bad in (float(args[pos]), True):
            changed = args[:pos] + (bad,) + args[pos + 1:]
            with pytest.raises(IndexOutOfRange, match=" must be an int, got "):
                fn(*changed)
