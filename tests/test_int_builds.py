"""The per-family builds in ints against their `Fraction` oracles.

The coroot table, the covectors of the per-request pass and the frame of
h^nat (`CatalogEntry.coroots`, `_covector`, `_xi_cov`, `_casimir_cov`,
`_odd_covs`, `_xi_ints`, `CatalogEntry.lattice`) are built from the form's
int entries by one fraction-free solve (`catalog._solve`).  The oracles
below are the term-by-term `Fraction` builds: Gauss-Jordan elimination
over `Fraction`s, and each covector and frame field evaluated from the
`Fraction` Gram entries, with each integrality check refused through
`_Lattice._ints`, `_Lattice.key` and `_Lattice.q2`, whose texts the int
builds keep."""
import math
from fractions import Fraction as Q
from operator import mul

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from wmin import catalog
from wmin.catalog import CatalogEntry, Vec, _Lattice, _solve, lookup
from wmin.errors import PreconditionViolated


def solve_fraction(mat, rhs):
    """Gauss-Jordan elimination over `Fraction`s: mat^{-1} rhs."""
    r = len(mat)
    aug = [[Q(x) for x in mat[i]] + [Q(x) for x in rhs[i]] for i in range(r)]
    for col in range(r):
        piv = next(i for i in range(col, r) if aug[i][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [x / pv for x in aug[col]]
        for i in range(r):
            if i != col and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [a - f * b for a, b in zip(aug[i], aug[col])]
    return [row[r:] for row in aug]


def sparse(ints):
    return tuple((a, c) for a, c in enumerate(ints) if c)


def covector(entry, v):
    """(v|.) as (d, ((a, c), ...)) over the `Fraction` Gram entries."""
    cov = [Q(0)] * entry.n
    for i, j, g in entry.gram:
        cov[j] += g * v[i]
    d = math.lcm(*(c.denominator for c in cov))
    return d, sparse([(c * d).numerator for c in cov])


def affine_roots(entry):
    """(finite part, delta coefficient) per affine simple root of g^nat."""
    return ([(a, 0) for a in entry.simple_roots_natural]
            + [(-1 * c.theta, 1) for c in entry.components])


def coroots(entry):
    table = []
    for fin, dc in affine_roots(entry):
        norm = entry.form(fin, fin)
        d, cov = covector(entry, fin)
        ints = _Lattice._ints(entry, "coroot covector", [2 * c / (d * norm) for _, c in cov])
        table.append((tuple(zip([a for a, _ in cov], ints)), Q(2 * dc) / norm))
    return tuple(table)


def pairings(entry, table, v):
    """The level-0 pairings of v with the coroots of `table`, as `Fraction`s."""
    return [sum((c * v[a] for a, c in cov), Q(0)) for cov, _ in table]


def covectors(entry):
    """`_xi_cov`, `_casimir_cov`, `_odd_covs` and `_xi_ints`, evaluated over
    `Fraction`s."""
    d_rho, rho2 = covector(entry, 2 * entry.rho_natural)
    d = math.lcm(d_rho, *(g.denominator for _, _, g in entry.gram))
    rows = []
    for gamma in dict.fromkeys(gm for gm, _ in entry.delta_prime):
        dg, cov = covector(entry, gamma)
        rg = entry.form(entry.rho_natural, gamma)
        e = math.lcm(dg, rg.denominator)
        rows.append((gamma, e, tuple((a, c * (e // dg)) for a, c in cov), (rg * e).numerator))
    dx = math.lcm(*(c.denominator for c in entry.xi))
    xi_ps = pairings(entry, coroots(entry), entry.xi)
    return {"_xi_cov": covector(entry, entry.xi),
            "_casimir_cov": (d, tuple((i, j, (g * d).numerator) for i, j, g in entry.gram),
                             tuple((a, c * (d // d_rho)) for a, c in rho2)),
            "_odd_covs": tuple(rows),
            "_xi_ints": (dx, [(p * dx).numerator for p in xi_ps])}


def frame(entry):
    """Every field of `_Lattice`, as the `Fraction` build evaluates it."""
    table = coroots(entry)
    s = entry.simple_roots_natural
    r, n = len(s), entry.n
    roots = affine_roots(entry)
    f = {"cartan": tuple(_Lattice._ints(entry, "affine Cartan matrix row",
                                        pairings(entry, table, fin)) for fin, _ in roots)}
    covs = [dict(cov) for cov, _ in table[:r]]
    coeffs = solve_fraction([[f["cartan"][j][i] for j in range(r)] for i in range(r)],
                            [[c.get(a, 0) for a in range(n)] for c in covs])
    proj = [[sum(s[i][a] * coeffs[i][j] for i in range(r)) for j in range(n)] for a in range(n)]
    f["pden"] = math.lcm(*(c.denominator for row in proj for c in row))
    f["proj"] = tuple(sparse([(c * f["pden"]).numerator for c in row]) for row in proj)
    f["depth_cov"] = Vec(sum(col) for col in zip(*coeffs))
    iso = Q(1, 2) * entry.theta - entry.xi
    iso_restricted = [sum(map(mul, row, iso)) for row in proj]
    vecs = [*entry.pos_roots_natural, *(g for g, _ in entry.delta_prime),
            entry.theta, entry.xi, entry.rho_natural, iso_restricted]
    f["denom"] = math.lcm(f["pden"], *(c.denominator for v in vecs for c in v))
    cden = math.lcm(*(c.denominator for c in f["depth_cov"]))
    f["scale"] = f["denom"] * cden
    f["cov"] = tuple((c * cden).numerator for c in f["depth_cov"])

    def key(w):
        xs = []
        for c in w:
            x = c * f["denom"]
            if x.denominator != 1:
                raise PreconditionViolated(
                    f"weight ({', '.join(map(catalog.format_rational, w))}) is off the "
                    f"1/{f['denom']} lattice of the denominator kernel")
            xs.append(x.numerator)
        return (-sum(map(mul, f["cov"], xs)), *xs)

    dips = [abs(key(a)[0]) for a in entry.pos_roots_natural]
    dips += [2 * abs(key(g)[0]) for g, _ in entry.delta_prime]
    f["dip"] = max(dips) if dips else f["scale"]
    rank = len(s) + (1 if entry.center else 0)
    block = [(-1 * g, -1, True) for g, mult in entry.delta_prime for _ in range(mult)]
    block += [(catalog.zero_vec(n), 0, False)] * rank
    for alpha in entry.pos_roots_natural:
        block += [(-1 * alpha, -2, False), (alpha, 0, False)]
    keys = [key(w) for w, _, _ in block]
    f["rate"] = max([1] + [abs(x) for k in keys for x in k[1:]])
    f["ns"] = tuple((k[0], sum(x * _Lattice.radix ** i for i, x in enumerate(k[1:])), off, odd)
                    for k, (_, off, odd) in zip(keys, block))
    f["xd"] = _Lattice._ints(entry, "x+d pairings of the affine simple roots",
                             [entry.form(fin, entry.theta) / 2 + dc for fin, dc in roots])
    f["rkeys"] = tuple(key(fin) for fin, _ in roots)
    f["rows"] = tuple((*a, -x, *k) for a, x, k in zip(f["cartan"], f["xd"], f["rkeys"]))
    f["iso_ps"] = _Lattice._ints(entry, "pairings of theta/2 - xi", pairings(entry, table, iso))
    f["iso_key"] = key(iso_restricted)
    f["xd2"] = _Lattice.q2(entry.form(iso, entry.theta) / 2)
    return f


COVECTORS = ("_xi_cov", "_casimir_cov", "_odd_covs", "_xi_ints")


def built(entry):
    """What the catalog builds of a fresh entry, in the oracles' layout."""
    lat = entry.lattice
    return (entry.coroots, {name: getattr(entry, name) for name in COVECTORS},
            {name: getattr(lat, name) for name in _Lattice.__slots__})


def oracle(entry):
    f = frame(entry)
    return coroots(entry), covectors(entry), {name: f[name] for name in _Lattice.__slots__}


def outcome(fn, entry):
    """fn(entry), or the type and text of what it raises."""
    try:
        return fn(entry)
    except PreconditionViolated as exc:
        return type(exc), str(exc)


def test_builds_equal_the_fraction_oracles(all_algebras):
    """On every catalog family the coroot table, the covectors and every
    frame field equal the `Fraction` builds, value and type alike (a
    `Fraction` where one is published, an int or int tuple elsewhere), and
    `_covector` equals the oracle's on every simple root of g^nat."""
    for g in all_algebras:
        entry = lookup.__wrapped__(g)
        got, want = built(entry), oracle(entry)
        assert repr(got) == repr(want), g.label()
        for a in entry.simple_roots_natural:
            assert entry._covector(*entry._scaled(a)) == covector(entry, a), g.label()


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60))
@example(1, 1)
@example(59, 60)
def test_d21a_builds_equal_the_oracles_at_any_a(p, q):
    """D(2,1;a) at a drawn a = p/q: the int builds equal the `Fraction` ones."""
    entry = lookup.__wrapped__(catalog.d21a(p, q))
    assert repr(built(entry)) == repr(oracle(entry))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(["sl2m", "spo2m", "osp4m"]), st.integers(3, 14))
def test_rank_families_build_equal_the_oracles_at_any_m(family, m):
    """sl(2|m), spo(2|m) and osp(4|m) at a drawn m: the int builds equal the
    `Fraction` ones."""
    assume(not (family == "spo2m" and m == 4) and not (family == "osp4m" and m % 2))
    entry = lookup.__wrapped__(catalog.AlgebraId(family, m=m))
    assert repr(built(entry)) == repr(oracle(entry))


def doctored(g, **fields):
    """A fresh entry of g with some fields replaced."""
    entry = lookup(g)
    return CatalogEntry(**{**{f: getattr(entry, f) for f in CatalogEntry._fields}, **fields})


def test_refusals_keep_their_texts():
    """Entries with a doctored form, root, theta or xi make the int builds
    refuse as the `Fraction` builds do, with the same exception and text:
    the coroot covector, the affine Cartan matrix and the pairings of
    theta/2 - xi (`_Lattice._ints`), and the x+d value of theta/2 - xi
    (`_Lattice.q2`).  `_Lattice._quotients` refuses int quotients with the
    text `_ints` gives on their values."""
    psl, g3 = lookup(catalog.psl22()), lookup(catalog.g3())
    cases = {
        "coroot covector": doctored(catalog.psl22(), gram=((0, 0, Q(1)), (1, 1, Q(1)),
                                                          (2, 2, Q(-1)), (3, 3, Q(-2)))),
        "affine Cartan matrix row": doctored(
            catalog.g3(), simple_roots_natural=(g3.simple_roots_natural[0],
                                                Q(1, 2) * g3.simple_roots_natural[1])),
        "pairings of theta/2 - xi": doctored(catalog.g3(), xi=Q(1, 2) * g3.xi),
        "q exponent 1/8": doctored(catalog.psl22(), theta=Q(1, 2) * psl.theta),
    }
    for what, entry in cases.items():
        got, want = outcome(built, entry), outcome(oracle, entry)
        assert got == want, what
        assert got[0] is PreconditionViolated and what in got[1], (what, got)
    with pytest.raises(PreconditionViolated) as want:
        _Lattice._ints(psl, "x+d pairings of the affine simple roots", [Q(2), Q(-1, 2)])
    with pytest.raises(PreconditionViolated) as got:
        _Lattice._quotients(psl, "x+d pairings of the affine simple roots", [(-4, -2), (3, -6)])
    assert str(got.value) == str(want.value)
    assert _Lattice._quotients(psl, "x+d", [(-4, -2), (3, -3)]) == (2, -1)


def test_a_key_off_the_lattice_keeps_its_text():
    """`_Lattice.key` refuses a weight off the 1/denom lattice with the text
    the `Fraction` key gives."""
    lat = lookup(catalog.psl22()).lattice
    w = Vec([Q(1, 7 * lat.denom), 0, 0, 0])
    with pytest.raises(PreconditionViolated) as err:
        lat.key(w)
    assert str(err.value) == (f"weight (1/{7 * lat.denom}, 0, 0, 0) is off the "
                              f"1/{lat.denom} lattice of the denominator kernel")


matrices = st.integers(1, 5).flatmap(lambda r: st.tuples(
    st.lists(st.lists(st.integers(-9, 9), min_size=r, max_size=r), min_size=r, max_size=r),
    st.lists(st.lists(st.integers(-9, 9), min_size=2, max_size=2), min_size=r, max_size=r)))


def det(mat):
    """The determinant by `Fraction` elimination."""
    rows, out = [[Q(x) for x in row] for row in mat], Q(1)
    for c in range(len(rows)):
        p = next((i for i in range(c, len(rows)) if rows[i][c]), None)
        if p is None:
            return Q(0)
        if p != c:
            rows[c], rows[p], out = rows[p], rows[c], -out
        out *= rows[c][c]
        for i in range(c + 1, len(rows)):
            f = rows[i][c] / rows[c][c]
            rows[i] = [a - f * b for a, b in zip(rows[i], rows[c])]
    return out


@settings(max_examples=150, deadline=None)
@given(matrices)
@example(([[0, 1], [1, 0]], [[1, 2], [3, 4]]))
@example(([[0, 0, 1], [0, 2, 0], [3, 0, 0]], [[1, 0], [0, 1], [1, 1]]))
def test_solve_equals_gauss_jordan(system):
    """On a nonsingular int matrix (a zero leading pivot included) the
    fraction-free solve gives mat^{-1} rhs as X / p with p = |det(mat)|,
    every quotient equal to Gauss-Jordan's over `Fraction`s."""
    mat, rhs = system
    d = det(mat)
    assume(d != 0)
    p, xs = _solve(mat, rhs)
    assert p == abs(d) and all(isinstance(x, int) for row in xs for x in row)
    assert [[Q(x, p) for x in row] for row in xs] == solve_fraction(mat, rhs)


def test_solve_refuses_a_singular_matrix():
    """A singular matrix raises PreconditionViolated naming its size, not the
    StopIteration of an exhausted pivot search."""
    with pytest.raises(PreconditionViolated, match="singular 2 x 2 matrix"):
        _solve([[1, 2], [2, 4]], [[1], [0]])
    with pytest.raises(PreconditionViolated, match="singular 3 x 3 matrix"):
        _solve([[1, 0, 0], [0, 0, 0], [0, 0, 1]], [[1], [0], [0]])
