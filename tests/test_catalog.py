import ast
from fractions import Fraction as Q
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmin import catalog, levels, unitarity, weights
from wmin.catalog import AlgebraId, Vec, lookup, validate
from wmin.errors import IsotropicCoroot, ParameterOutOfRange


def test_parameter_ranges():
    with pytest.raises(ParameterOutOfRange):
        AlgebraId("sl2m", m=2)
    with pytest.raises(ParameterOutOfRange):
        AlgebraId("osp4m", m=5)
    with pytest.raises(ParameterOutOfRange):
        AlgebraId("osp4m", m=2)
    with pytest.raises(ParameterOutOfRange):
        AlgebraId("D21a", a_num=2, a_den=4)
    with pytest.raises(ParameterOutOfRange):
        AlgebraId("D21a", a_num=0, a_den=1)
    # spo(2|4) is D(2,1;1) in disguise
    with pytest.raises(ParameterOutOfRange):
        AlgebraId("spo2m", m=4)


def test_theta_norm_and_examples():
    e = lookup(catalog.psl22())
    assert e.form(e.theta, e.theta) == 2
    assert e.form(e.xi, e.xi) == Q(-1, 2)
    assert e.coroot_pairing(catalog.zero_vec(e.n), e.components[0].theta) == 0
    with pytest.raises(IsotropicCoroot):
        e.coroot_pairing(e.xi, e.simple_roots[0][0])  # odd isotropic root


def test_table_fixtures():
    assert lookup(catalog.psl22()).h_vee == 0
    assert lookup(catalog.spo2m(3)).components[0].chi == -2
    assert lookup(catalog.g3()).epsilon == 2
    assert lookup(catalog.f4()).h_vee == -2
    assert lookup(catalog.sl2m(5)).h_vee == -3
    assert lookup(catalog.osp4m(6)).components[1].hbar_vee == -8
    assert lookup(catalog.d21a(2, 3)).components[0].u == Q(-2 * 3, 5)


def test_validation_all(all_algebras):
    for g in all_algebras:
        rep = validate(lookup(g))
        assert rep.ok, (g.label(), [c for c in rep.checks if not c.passed])


def test_osp4m_chi_exception_flagged():
    rep = validate(lookup(catalog.osp4m(4)))
    [chk] = [c for c in rep.checks if c.name == "chi_1_vs_xi"]
    assert chk.passed and "exception, skipped" in chk.detail


def test_validate_f4_max_pairing():
    rep = validate(lookup(catalog.f4()))
    [chk] = [c for c in rep.checks if c.name == "threshold_identity"]
    assert chk.passed and "3/2" in chk.detail


def test_delta_prime_weyl_closure(all_algebras):
    for g in all_algebras:
        e = lookup(g)
        mult = {}
        for w, m in e.delta_prime:
            mult[w] = mult.get(w, 0) + m
        for w, m in mult.items():
            for a in e.simple_roots_natural:
                assert mult.get(e.weyl_reflect(w, a), 0) == m


def test_restriction_projects_onto_root_span(all_algebras):
    for g in all_algebras:
        e = lookup(g)
        assert e.restrict(e.theta).is_zero()
        # xi restricts to itself up to the (inert) center direction of sl(2|m)
        r = e.restrict(e.xi)
        for a in e.simple_roots_natural:
            assert e.form(r, a) == e.form(e.xi, a)
        if e.center is None:
            assert r == e.xi


def test_iso_simple_roots_restrict_to_minus_xi(all_algebras):
    """Odd isotropic simple roots restrict to -xi on h^nat (for sl(2|m) the
    second one lands on the other irreducible summand of the odd half-space,
    so only membership in -Delta' is asserted there)."""
    for g in all_algebras:
        e = lookup(g)
        iso = [rt for rt, p in e.simple_roots if p == 1 and e.form(rt, rt) == 0]
        assert len(iso) == e.iso_simple_count
        lows = {e.restrict(-1 * w) for w, _ in e.delta_prime}
        for rt in iso:
            assert e.form(rt, e.theta) == 1
            if g.family == "sl2m":
                assert e.restrict(rt) in lows
            else:
                assert e.restrict(rt) == e.restrict(-1 * e.xi)


def test_nu_from_labels_round_trip():
    e = lookup(catalog.g3())
    nu = e.nu_from_labels([1, 2])
    assert nu == Vec([1, 2, 0])
    e5 = lookup(catalog.spo2m(5))
    nu = e5.nu_from_labels([Q(3, 2), Q(1, 2)])
    assert nu == Vec([0, Q(3, 2), Q(1, 2)])


# every family, with sl(2|m) and osp(4|m) at two ranks each
CLASSIFIED = [catalog.psl22(), catalog.sl2m(3), catalog.sl2m(5), catalog.spo2m(3),
              catalog.spo2m(5), catalog.spo2m(6), catalog.spo2m(7), catalog.osp4m(4),
              catalog.osp4m(6), catalog.d21a(1), catalog.d21a(2), catalog.d21a(2, 3),
              catalog.f4(), catalog.g3()]


def _old_nu_from_labels(e, labels):
    """The seven-branch label map that `CatalogEntry.label_map` replaced."""
    lab = [Q(x) for x in labels]
    fam = e.id.family
    lo, hi = {"psl22": (1, 1), "D21a": (2, 2), "G3": (2, 2), "F4": (3, 3),
              "spo2m": (1, 1) if e.id.m == 3 else (0, e.n - 1),
              "sl2m": (0, e.n - 2), "osp4m": (1, e.n - 1)}[fam]
    if not lo <= len(lab) <= hi:
        count = str(lo) if lo == hi else f"{lo} to {hi}"
        raise ParameterOutOfRange(f"{e.id.label()} takes {count} weight "
                                  f"label{'s' if hi > 1 else ''}, got {len(lab)}")
    if fam == "psl22" or (fam == "spo2m" and e.id.m == 3):
        (r,) = lab
        return Q(r, 2) * e.components[0].theta
    if fam == "D21a":
        r1, r2 = lab
        return Q(r1, 2) * e.components[0].theta + Q(r2, 2) * e.components[1].theta
    if fam == "spo2m":
        return Vec([Q(0)] + lab + [Q(0)] * (e.n - 1 - len(lab)))
    if fam in ("F4", "G3"):
        return Vec(lab + [Q(0)])
    if fam == "sl2m":
        return Vec([Q(0), Q(0)] + lab + [Q(0)] * (e.n - 2 - len(lab)))
    c, rest = lab[0], lab[1:]  # osp4m
    return Vec([Q(c, 2), -Q(c, 2)] + rest + [Q(0)] * (e.n - 2 - len(rest)))


@given(st.sampled_from(CLASSIFIED), st.data())
@settings(max_examples=300, deadline=None)
def test_label_map_equals_the_per_family_code(g, data):
    """Any number of rational labels, from none to one past the coordinates,
    on every family: the linear map gives the weight of the per-family code,
    and a wrong count raises `ParameterOutOfRange` with its message."""
    e = lookup(g)
    size = data.draw(st.integers(min_value=0, max_value=e.n + 1))
    rat = st.fractions(min_value=-5, max_value=5, max_denominator=6)
    labels = data.draw(st.lists(rat, min_size=size, max_size=size))
    try:
        want = _old_nu_from_labels(e, labels)
    except ParameterOutOfRange as exc:
        with pytest.raises(ParameterOutOfRange) as got:
            e.nu_from_labels(labels)
        assert str(got.value) == str(exc)
        return
    got = e.nu_from_labels(labels)
    assert type(got) is Vec and all(type(x) is Q for x in got)
    assert got == want


def _walk_outside(tree, exempt):
    """The nodes of `tree`, skipping the bodies of the functions named in `exempt`."""
    todo = [tree]
    while todo:
        node = todo.pop()
        yield node
        if not (isinstance(node, ast.FunctionDef) and node.name in exempt):
            todo.extend(ast.iter_child_nodes(node))


def test_levels_and_unitarity_name_no_family():
    """The family's classification is entry data, written in its `lookup`
    branch: `levels`, `unitarity` and `weights` hold no family name as a
    string literal and read no `.family`, so no per-family branch creeps
    back into them.  Exempt is `weights._A_explicit`, the per-family closed
    forms kept as an independent oracle for the threshold; it in turn names
    neither `_ell_ints` nor the pass over nu and its covectors, so A == A_explicit
    keeps comparing two routes."""
    for mod, exempt in ((levels, ()), (unitarity, ()), (weights, ("_A_explicit",))):
        nodes = list(_walk_outside(ast.parse(Path(mod.__file__).read_text()), exempt))
        literals = {n.value for n in nodes
                    if isinstance(n, ast.Constant) and isinstance(n.value, str)}
        assert not literals & set(catalog.FAMILIES), mod.__name__
        assert not any(isinstance(n, ast.Attribute) and n.attr == "family"
                       for n in nodes), mod.__name__
    # the closed forms are the second route to A: they name none of the
    # first route's quadratic, covectors or pass over nu
    (fn,) = [n for n in ast.walk(ast.parse(Path(weights.__file__).read_text()))
             if isinstance(n, ast.FunctionDef) and n.name == "_A_explicit"]
    names = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name)}
    names |= {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)}
    assert not names & {"_ell_ints", "_xi_cov", "_casimir_cov", "_scalars"}


def test_form_rejects_wrong_length():
    e = lookup(catalog.psl22())
    with pytest.raises(ParameterOutOfRange):
        e.form(Vec([1, 0]), e.theta)


def _diag(*d):
    return [[d[i] if i == j else 0 for j in range(len(d))] for i in range(len(d))]


# the invariant forms written out as matrices in the coordinate basis
GRAM_MATRICES = [
    (catalog.psl22(), _diag(1, 1, -1, -1)),
    (catalog.sl2m(3), _diag(1, 1, -1, -1, -1)),
    (catalog.osp4m(4), _diag(1, 1, -1, -1)),
    (catalog.spo2m(3), _diag(Q(1, 2), Q(-1, 2))),
    (catalog.spo2m(5), _diag(Q(1, 2), Q(-1, 2), Q(-1, 2))),
    (catalog.d21a(2, 3), _diag(Q(1, 2), Q(-3, 10), Q(-1, 5))),
    (catalog.f4(), _diag(Q(-2, 3), Q(-2, 3), Q(-2, 3), 2)),
    (catalog.g3(), [[Q(-1, 2), Q(1, 4), 0], [Q(1, 4), Q(-1, 2), 0], [0, 0, Q(1, 2)]]),
]


def test_form_matches_gram_matrix():
    for g, mat in GRAM_MATRICES:
        e = lookup(g)
        basis = [catalog.basis_vec(e.n, i) for i in range(e.n)]
        assert [[e.form(a, b) for b in basis] for a in basis] == mat, g.label()
        assert all(x != 0 for _, _, x in e.gram), g.label()
        v = Vec(range(1, e.n + 1))
        w = Vec(Q(1, i + 2) - i for i in range(e.n))
        want = sum(v[i] * mat[i][j] * w[j] for i in range(e.n) for j in range(e.n))
        assert e.form(v, w) == e.form(w, v) == want, g.label()


RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=12)
INTS = st.integers(min_value=-9, max_value=9)


@given(st.integers(min_value=1, max_value=5).flatmap(
           lambda n: st.tuples(*[st.lists(st.one_of(INTS, RATIONALS), min_size=n, max_size=n)
                                 for _ in range(3)])),
       st.one_of(INTS, RATIONALS))
@settings(max_examples=200, deadline=None)
def test_vec_ops_equal_the_converting_constructor(coords, c):
    """The operators build their result from the `Fraction`s they computed,
    without converting them again; the result equals, and hashes as, the
    `Vec` the public constructor makes of the same entries, and every entry
    is a `Fraction`.  The right operand is a `Vec`, or a plain tuple of ints
    and `Fraction`s; the scalar an int or a `Fraction`."""
    u, v = Vec(coords[0]), Vec(coords[1])
    raw = tuple(coords[2])
    cases = [(u + v, [a + b for a, b in zip(u, v)]),
             (u + raw, [a + Q(b) for a, b in zip(u, raw)]),
             (u - v, [a - b for a, b in zip(u, v)]),
             (u - raw, [a - Q(b) for a, b in zip(u, raw)]),
             (-u, [-a for a in u]),
             (u * c, [a * Q(c) for a in u]),
             (c * u, [a * Q(c) for a in u]),
             (sum([u, v, Vec(raw)]), [a + b + Q(x) for a, b, x in zip(u, v, raw)])]
    for got, entries in cases:
        want = Vec(Q(x) for x in entries)
        assert type(got) is Vec
        assert got == want and hash(got) == hash(want)
        assert all(type(x) is Q for x in got), got


# ---------------------------------------------------------------------------
# validate against the `Fraction` evaluation it replaced


def _old_validate(entry):
    """`validate` as it was before each simple root's data was read once:
    every pairing through `form`, `coroot_pairing` and `weyl_reflect`."""
    rep = catalog.ValidationReport(entry)
    rep.add("theta_norm", entry.form(entry.theta, entry.theta) == 2,
            f"(theta|theta) = {entry.form(entry.theta, entry.theta)}")
    for c in entry.components:
        u = entry.form(c.theta, c.theta)
        rep.add(f"u_{c.index}", u == c.u, f"(theta_{c.index}|theta_{c.index}) = {u}")
        chi_from_xi = -entry.coroot_pairing(entry.xi, c.theta)
        if entry.id.family == "osp4m" and c.index == 1:
            rep.add("chi_1_vs_xi", True,
                    f"exception, skipped: stored {c.chi}, -xi(theta_1^vee) = {chi_from_xi}")
        else:
            rep.add(f"chi_{c.index}_vs_xi", chi_from_xi == c.chi,
                    f"-xi(theta_{c.index}^vee) = {chi_from_xi}, stored {c.chi}")
        rep.add(f"theta_{c.index}_perp_theta", entry.form(c.theta, entry.theta) == 0)
        okk = True
        for k in (Q(-1) - entry.h_vee, Q(-7, 3) - entry.h_vee):
            lhs = (2 / c.u) * ((k + entry.h_vee) - entry.form(entry.rho_natural, c.theta))
            m_i = (2 / c.u) * (k + (entry.h_vee - c.hbar_vee) / 2)
            okk = okk and lhs == m_i + c.chi + 1
        rep.add(f"eta_{c.index}_pairing", okk, "N_i(k,0) = M_i(k)+chi_i+1 at sample levels")
    mx = max(entry.form(entry.rho_natural, g) for g, _ in entry.delta_prime)
    if entry.id.family in ("psl22", "spo2m", "D21a", "F4", "G3"):
        rep.add("threshold_identity", 2 * mx + entry.h_vee == 1, f"max(rho^nat|gamma) = {mx}")
    else:
        rep.add("threshold_identity", True, f"not applicable; max(rho^nat|gamma) = {mx}")
    xi_ps = [entry.coroot_pairing(entry.xi, a) for a in entry.simple_roots_natural]
    rep.add("xi_dominant", all(p >= 0 and p.denominator == 1 for p in xi_ps))
    rep.add("xi_in_delta_prime", any(g == entry.xi for g, _ in entry.delta_prime))
    rep.add("epsilon_flag",
            (entry.epsilon == 2) == any(g.is_zero() for g, _ in entry.delta_prime))
    rep.add("delta_prime_dim", sum(mult for _, mult in entry.delta_prime) == entry.dim_g_half)
    mult = {}
    for g, mlt in entry.delta_prime:
        mult[g] = mult.get(g, 0) + mlt
    rep.add("delta_prime_weyl_closed",
            all(mult.get(entry.weyl_reflect(g, a), 0) == m
                for g, m in mult.items() for a in entry.simple_roots_natural))
    rep.add("iso_simple_count",
            sum(1 for rt, p in entry.simple_roots
                if p == 1 and entry.form(rt, rt) == 0) == entry.iso_simple_count)
    return rep


VALIDATED = [catalog.sl2m(6), catalog.spo2m(8), catalog.spo2m(9), catalog.osp4m(8),
             catalog.d21a(5, 2), catalog.d21a(1, 7)]


def test_validate_equals_the_form_evaluation(all_algebras):
    """Every check's name, verdict and detail string, in order, on every
    family, the parameterized ones at several parameters."""
    for g in all_algebras + VALIDATED:
        e = lookup(g)
        assert validate(e) == _old_validate(e), g.label()


def _with(e, **changes):
    """The entry e with some fields replaced."""
    return catalog.CatalogEntry(**{**{f: getattr(e, f) for f in e._fields}, **changes})


@pytest.mark.parametrize("g", [catalog.psl22(), catalog.spo2m(5), catalog.d21a(2, 3),
                               catalog.f4(), catalog.g3()], ids=lambda g: g.label())
def test_validate_flags_broken_data_as_the_form_evaluation_does(g):
    """Corrupted odd weights: the last nonzero one dropped, moved by 1/3
    off the lattice of the others, or its multiplicity doubled; each breaks
    the Weyl closure.  A xi moved by 1/3 or by 1/2 of a simple root of
    g^nat (half a root is never in Delta').  Each report is the old
    evaluation's."""
    e = lookup(g)
    dp = list(e.delta_prime)
    third = Vec([Q(1, 3)] + [0] * (e.n - 1))
    i = max(i for i, (w, _) in enumerate(dp) if not w.is_zero())
    (w, m), rest = dp[i], dp[:i] + dp[i + 1:]
    for broken in (rest, rest + [(w + third, m)], rest + [(w, 2 * m)]):
        bad = _with(e, delta_prime=tuple(broken))
        rep = validate(bad)
        assert rep == _old_validate(bad)
        assert not dict((c.name, c.passed) for c in rep.checks)["delta_prime_weyl_closed"]
    for xi in (e.xi + third, e.xi + Q(1, 2) * e.simple_roots_natural[0]):
        bad = _with(e, xi=xi)
        assert validate(bad) == _old_validate(bad)
