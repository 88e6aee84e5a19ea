import math
import re
from fractions import Fraction as Q

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wmin import catalog, levels, weights
from wmin.catalog import Vec, lookup, zero_vec
from wmin.characters import (character_massive, character_massless, verma_character,
                             weyl_orbit)
from wmin.errors import (CharacterizationMismatch, CriticalLevel, ParameterOutOfRange,
                         PreconditionViolated, TruncationIncomplete)
from wmin.gram_lab import j_g_ratio
from wmin.levels import (central_charge, component_level, enumerate_unitary_k, level_data,
                         unitarity_range_contains)
from wmin.unitarity import _odd_pair, decide, sign2_scan
from wmin.weights import (A_bound, A_explicit, B_bound, enumerate_P_plus_k,
                          in_P_plus_k, is_extremal)

# every catalog family: sl2m(3) carries a center, osp4m(6) two components
PASS_FAMILIES = [catalog.psl22(), catalog.sl2m(3), catalog.spo2m(3), catalog.spo2m(5),
                 catalog.spo2m(6), catalog.osp4m(6), catalog.d21a(2), catalog.d21a(2, 3),
                 catalog.f4(), catalog.g3()]
# and for the range: D(2,1;1), whose range skips a level of its progression
RANGE_FAMILIES = PASS_FAMILIES + [catalog.d21a(1, 1), catalog.osp4m(4)]


def test_p_plus_k_examples():
    g = catalog.psl22()
    e = lookup(g)
    th1 = e.components[0].theta
    assert in_P_plus_k(g, -2, Q(1, 2) * th1)
    assert not in_P_plus_k(g, -2, th1)
    assert in_P_plus_k(catalog.g3(), Q(-3, 2), zero_vec(3))
    # outside the unitarity range: false, whatever nu
    assert not in_P_plus_k(g, Q(-5, 2), zero_vec(4))


def test_extremal_examples():
    g = catalog.psl22()
    th1 = lookup(g).components[0].theta
    assert is_extremal(g, -2, Q(1, 2) * th1)
    assert not is_extremal(g, -3, Q(1, 2) * th1)
    with pytest.raises(PreconditionViolated):
        is_extremal(g, -2, th1)


def test_nu_zero_extremal_iff_collapsing(unitary_families):
    for g in unitary_families:
        e = lookup(g)
        for k in enumerate_unitary_k(g, 5):
            zero = zero_vec(e.n)
            assert is_extremal(g, k, zero) == level_data(g, k).collapsing


def test_a_bound_examples():
    g = catalog.psl22()
    th1 = lookup(g).components[0].theta
    assert A_bound(g, -2, Q(1, 2) * th1) == Q(1, 2)
    assert A_bound(catalog.f4(), -2, zero_vec(4)) == 0
    g3 = catalog.spo2m(3)
    th = lookup(g3).components[0].theta
    assert A_bound(g3, Q(-5, 4), Q(1, 2) * th) == Q(1, 4)


def test_b_bound_value():
    # B(k,0) = -(k+1)^2/(4(k+h)); no order relation with A is asserted
    g = catalog.psl22()
    assert B_bound(g, -3, zero_vec(4)) == -Q(4, 4 * -3)


def test_xi_pairing_nonpositive_on_dominant(unitary_families):
    for g in unitary_families:
        e = lookup(g)
        for k in enumerate_unitary_k(g, 3):
            for nu in enumerate_P_plus_k(g, k):
                assert e.form(e.xi, nu) <= 0


def test_explicit_equals_bound_spot(unitary_families):
    for g in unitary_families:
        for k in enumerate_unitary_k(g, 3):
            for nu in enumerate_P_plus_k(g, k):
                assert A_explicit(g, k, nu) == A_bound(g, k, nu)


def test_enumerate_p_plus_complete_vs_brute_force():
    """Membership filter over a coordinate box must reproduce the enumeration."""
    from itertools import product

    g = catalog.spo2m(5)
    k = Q(-3, 2)  # M1 = 2
    got = set(enumerate_P_plus_k(g, k))
    box = [Q(t, 2) for t in range(0, 7)]
    brute = {catalog.Vec([0, a, b]) for a, b in product(box, box)
             if in_P_plus_k(g, k, catalog.Vec([0, a, b]))}
    assert got == brute

    g = catalog.g3()
    k = Q(-3)  # M1 = 3
    got = set(enumerate_P_plus_k(g, k))
    brute = {catalog.Vec([a, b, 0]) for a in range(0, 8) for b in range(0, 8)
             if in_P_plus_k(g, k, catalog.Vec([a, b, 0]))}
    assert got == brute

    g = catalog.f4()
    k = Q(-8, 3)  # M1 = 3
    got = set(enumerate_P_plus_k(g, k))
    box = [Q(t, 2) for t in range(-1, 9)]
    brute = {catalog.Vec([a, b, c, 0]) for a, b, c in product(box, box, box)
             if in_P_plus_k(g, k, catalog.Vec([a, b, c, 0]))}
    assert got == brute


def test_enumerate_p_plus_counts():
    # sl2-type families have M1+1 weights
    assert len(enumerate_P_plus_k(catalog.psl22(), -3)) == 3
    assert len(enumerate_P_plus_k(catalog.spo2m(3), -1)) == 3
    # D21a: (M1+1)(M2+1)
    assert len(enumerate_P_plus_k(catalog.d21a(1, 1), -2)) == 16
    # spin weights are included for orthogonal components
    weights = enumerate_P_plus_k(catalog.spo2m(5), Q(-3, 2))
    assert any(w[1].denominator == 2 for w in weights)


def _old_dominant_so(rank, bound, odd_dim):
    """so-dominant tuples n_1 >= ... >= n_rank >= 0 with n_1 + n_2 <= bound,
    entries all integer or all half-integer; for even orthogonal algebras the
    last entry may also occur with flipped sign."""
    if bound < 0:
        return
    b2 = int(2 * Q(bound))

    def rec(prefix, parity):
        i = len(prefix)
        if i == rank:
            yield tuple(Q(t, 2) for t in prefix)
            return
        top = b2 if i == 0 else min(prefix[0], b2 - prefix[0]) if i == 1 else prefix[-1]
        for t in range(parity, top + 1, 2):
            yield from rec(prefix + [t], parity)

    for parity in (0, 1):
        for tup in rec([], parity):
            yield tup
            if not odd_dim and tup[-1] > 0:
                yield tup[:-1] + (-tup[-1],)


def _old_enumerate_P_plus_k(g, k):
    """P^+_k as `weights` spelled it per family, with so(m)'s spin parity and
    G2's chamber written out by hand: the oracle for the one walk over
    Dynkin labels."""
    e = lookup(g)
    if not unitarity_range_contains(g, k):
        return []
    fam, M = g.family, level_data(g, k).M_simple
    if fam == "psl22" or (fam == "spo2m" and g.m == 3):
        labels = [[r] for r in range(int(M[0]) + 1)]
    elif fam == "D21a":
        labels = [[r1, r2] for r1 in range(int(M[0]) + 1) for r2 in range(int(M[1]) + 1)]
    elif fam == "spo2m":
        labels = _old_dominant_so(g.m // 2, M[0], bool(g.m % 2))
    elif fam == "F4":
        labels = _old_dominant_so(3, M[0], True)
    elif fam == "G3":
        labels = [[r1, r2] for r2 in range(int(M[0]) + 1) for r1 in range((r2 + 1) // 2, r2 + 1)]
    else:
        raise PreconditionViolated(f"no enumeration for {fam}")
    return [e.nu_from_labels(list(lab)) for lab in labels]


ENUM_FAMILIES = ([catalog.psl22()] + [catalog.spo2m(m) for m in (3, 5, 6, 7, 8, 9)]
                 + [catalog.d21a(p, q) for p, q in ((1, 1), (2, 1), (2, 3), (1, 3), (7, 5))]
                 + [catalog.f4(), catalog.g3(), catalog.osp4m(4)])


@pytest.mark.parametrize("g", ENUM_FAMILIES, ids=lambda g: g.label())
def test_enumeration_equals_the_per_family_oracle(g):
    """The walk over Dynkin labels against the per-family code: the same
    set, with no weight twice, at the first eight unitary levels and half a
    step above the first (off the range, where both are empty); and in the
    documented order, each weight's simple-coroot pairings strictly greater,
    lexicographically, than the previous weight's."""
    e = lookup(g)
    first, step, _ = e.unitary_range
    r = len(e.simple_roots_natural)
    for k in enumerate_unitary_k(g, 8) + [first - step / 2]:
        got = enumerate_P_plus_k(g, k)
        assert len(set(got)) == len(got), (g.label(), k)
        assert set(got) == set(_old_enumerate_P_plus_k(g, k)), (g.label(), k)
        labels = [e.pairings(0, nu)[:r] for nu in got]
        assert all(a < b for a, b in zip(labels, labels[1:])), (g.label(), k)


def test_enumeration_raises_on_a_center():
    """sl(2|m): g^nat has a center, on which nu is unbounded, so P^+_k is
    infinite at its unitary level k = -1; off the range it is empty."""
    with pytest.raises(PreconditionViolated, match="infinite"):
        enumerate_P_plus_k(catalog.sl2m(3), -1)
    assert enumerate_P_plus_k(catalog.sl2m(3), -2) == []


def test_enumeration_raises_past_its_box_cap(monkeypatch):
    """The walk's box of label vectors is sized before the walk: past
    `P_PLUS_CAP`, read at call time, it raises TruncationIncomplete naming
    the family, k and the box size, rather than run until memory is gone
    (F4 at k = -10^6 has a box of about 1.7e18); at a cap equal to the box
    it walks it."""
    with pytest.raises(TruncationIncomplete, match=r"F4 at k = -1000000: a box of \d+"):
        enumerate_P_plus_k(catalog.f4(), -10 ** 6)
    g, k = catalog.g3(), Q(-9, 4)
    want = enumerate_P_plus_k(g, k)
    monkeypatch.setattr(weights, "P_PLUS_CAP", 0)
    with pytest.raises(TruncationIncomplete, match="G3 at k = -9/4") as err:
        enumerate_P_plus_k(g, k)
    box = int(re.search(r"a box of (\d+)", str(err.value)).group(1))
    assert box >= len(want) > 0
    monkeypatch.setattr(weights, "P_PLUS_CAP", box)
    assert enumerate_P_plus_k(g, k) == want
    monkeypatch.setattr(weights, "P_PLUS_CAP", box - 1)
    with pytest.raises(TruncationIncomplete):
        enumerate_P_plus_k(g, k)


def test_extremality_cross_check_raises_on_wrong_xi_pairings():
    """`_is_extremal` decides by the nu+xi test, which reads the entry's
    `_xi_ints`, and raises CharacterizationMismatch, naming the family, k
    and both outcomes, when the chi_i test disagrees: on a fresh G3 entry
    (k = -9/4) whose xi pairings are wrong, in either direction."""
    g, k = catalog.g3(), Q(-9, 4)
    for nu, xi_ints, want in [((0, 0, 0), (1, [1, 0, -3]), "nu+xi test True, chi test False"),
                              ((1, 2, 0), (1, [0, 0, 0]), "nu+xi test False, chi test True")]:
        entry = lookup.__wrapped__(g)
        data = weights._P_plus_data(entry, k, Vec(nu))
        assert weights._is_extremal(entry, *data) == (nu != (0, 0, 0))
        entry.__dict__["_xi_ints"] = xi_ints
        with pytest.raises(CharacterizationMismatch) as err:
            weights._is_extremal(entry, *data)
        assert str(err.value) == f"extremality tests disagree for G3, k=-9/4: {want}"


def test_enumeration_raises_on_marks_off_the_ints(monkeypatch):
    """A mark omega_j(theta_i^vee) that is not an int >= 0 breaks the
    walk's box: the enumeration raises CharacterizationMismatch, a raise
    that `python -O` keeps."""
    monkeypatch.setattr(weights, "_thetas", lambda entry, ps: [Q(-1, 2)] * len(entry.components))
    with pytest.raises(CharacterizationMismatch, match="marks .* of G3 are not all"):
        enumerate_P_plus_k(catalog.g3(), Q(-9, 4))


def test_enumeration_raises_on_a_weight_outside_p_plus(monkeypatch):
    """Every weight the walk lists is checked against the P^+_k test; one
    that fails it raises CharacterizationMismatch naming the weight."""
    monkeypatch.setattr(weights, "_in_P_plus", lambda entry, ms, d, ps: False)
    with pytest.raises(CharacterizationMismatch, match=r"enumerated weight \(0, 0, 0\) of G3"):
        enumerate_P_plus_k(catalog.g3(), Q(-9, 4))


def _pairings_oracle(e, nu):
    """nu's simple-coroot pairings, then -nu(theta_i^vee), one root at a time."""
    return ([e.coroot_pairing(nu, a) for a in e.simple_roots_natural]
            + [-e.coroot_pairing(nu, c.theta) for c in e.components])


def test_one_pass_equals_the_coroot_pairings():
    """`CatalogEntry.pairings` at level 0 over P^+_k of the first four
    levels, xi and rho^nat of every family."""
    seen = 0
    for g in PASS_FAMILIES:
        e = lookup(g)
        ws = [e.xi, e.rho_natural]
        if g.family != "sl2m":  # P^+_k is enumerated for the other families
            ws += [nu for k in enumerate_unitary_k(g, 4) for nu in enumerate_P_plus_k(g, k)]
        for nu in ws:
            assert e.pairings(0, nu) == _pairings_oracle(e, nu), (g.label(), nu)
        seen += len(ws)
    assert seen == 457


@given(st.sampled_from(PASS_FAMILIES), st.data())
@settings(max_examples=100, deadline=None)
def test_one_pass_on_random_weights(g, data):
    """Any rational weight and level: the pass equals the oracle at level 0,
    and the level enters through Lambda_0 alone, as 2/u_i on eta_i."""
    e = lookup(g)
    rat = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    nu = Vec(data.draw(st.lists(rat, min_size=e.n, max_size=e.n)))
    level = data.draw(rat)
    ps = e.pairings(0, nu)
    assert ps == _pairings_oracle(e, nu)
    shift = [a - b for a, b in zip(e.pairings(level, nu), ps)]
    assert shift == ([0] * len(e.simple_roots_natural)
                     + [2 * level / c.u for c in e.components])


@pytest.mark.parametrize("call", [
    lambda g, k, nu: decide(g, k, nu, 1),
    in_P_plus_k,
    is_extremal,
    lambda g, k, nu: character_massive(g, k, nu, 2, 2, 2),
    lambda g, k, nu: character_massless(g, k, nu, 2, 2),
    lambda g, k, nu: sign2_scan(g, k, nu, 2, 2),
    lambda g, k, nu: j_g_ratio(g, k, nu, 1),
    lambda g, k, nu: verma_character(g, nu, 0, 1, 2),
], ids=["decide", "in_P_plus_k", "is_extremal", "character_massive",
        "character_massless", "sign2_scan", "j_g_ratio", "verma_character"])
def test_a_weight_of_the_wrong_length_raises(call):
    """A short weight must not be read as a prefix, nor a long one truncated."""
    for nu in (zero_vec(3), zero_vec(5)):
        with pytest.raises(ParameterOutOfRange, match=r"^psl22 weights have 4 coordinates$"):
            call(catalog.psl22(), -3, nu)


@pytest.mark.parametrize("call", [
    lambda g, k, nu: decide(g, k, nu, 0),
    in_P_plus_k,
    is_extremal,
    lambda g, k, nu: weyl_orbit(g, k, nu, 0, 2),
    lambda g, k, nu: character_massive(g, k, nu, 2, 2, 2),
    lambda g, k, nu: character_massless(g, k, nu, 2, 2),
    lambda g, k, nu: sign2_scan(g, k, nu, 2, 2),
], ids=["decide", "in_P_plus_k", "is_extremal", "weyl_orbit", "character_massive",
        "character_massless", "sign2_scan"])
def test_a_weight_of_the_wrong_length_raises_at_every_level(call):
    """The length is checked before the family and range branches: off the
    unitarity range (psl22 at 7/3 and -5/2), at a level in it, and on
    osp(4|4), which admits no unitary module at any level."""
    cases = [(catalog.psl22(), k, Vec([1])) for k in (Q(7, 3), Q(-5, 2), Q(-3))]
    for g, k, nu in cases + [(catalog.osp4m(4), Q(-2), Vec([1, 2]))]:
        with pytest.raises(ParameterOutOfRange, match=r"weights have 4 coordinates$"):
            call(g, k, nu)


def _old_progression(g):
    """(first level, step) of the progression as `levels` spelled it per
    family, for every family but osp(4|m) and sl(2|m)."""
    if g.family == "spo2m":
        return (Q(-3, 4), Q(-1, 4)) if g.m == 3 else (Q(-1), Q(-1, 2))
    if g.family == "D21a":
        step = -Q(g.a_num * g.a_den, g.a_num + g.a_den)
        return step, step
    return {"psl22": (Q(-2), Q(-1)), "F4": (Q(-4, 3), Q(-2, 3)),
            "G3": (Q(-3, 2), Q(-3, 4))}[g.family]


def _old_range_contains(g, k):
    """Unitarity-range membership as `levels` spelled it per family: the
    oracle for the range shape the catalog entry holds."""
    fam = g.family
    if fam == "osp4m":
        return False
    if fam == "sl2m":
        return k == -1
    if fam == "D21a" and k == Q(-1, 2):
        return False
    first, step = _old_progression(g)
    n = (k - first) / step
    return n.denominator == 1 and n >= 0


def _old_range_members(g, count):
    """The first `count` levels of the oracle range, from the largest down."""
    if g.family in ("osp4m", "sl2m"):
        cands = [Q(-1)]
    else:
        first, step = _old_progression(g)
        cands = [first + j * step for j in range(count + 1)]  # D(2,1;1) skips -1/2
    return [k for k in cands if _old_range_contains(g, k)][:count]


@pytest.mark.parametrize("g", RANGE_FAMILIES, ids=lambda g: g.label())
def test_range_table_equals_the_per_family_oracle(g):
    """The catalog's (first, step, count) against the per-family oracle:
    membership at every half step first + j*step/2, -4 <= j <= 24 (on
    D(2,1;1), j = -2 is the excluded -1/2), and the first n levels of
    `enumerate_unitary_k`."""
    first, step, _ = lookup(g).unitary_range
    for k in [first + j * step / 2 for j in range(-4, 25)]:
        assert unitarity_range_contains(g, k) == _old_range_contains(g, k)
    for n in range(-1, 13):
        assert enumerate_unitary_k(g, n) == _old_range_members(g, n)


@given(st.sampled_from(RANGE_FAMILIES), st.data())
@settings(max_examples=150, deadline=None)
def test_weight_and_level_scalars_equal_the_form(g, data):
    """Any rational weight on any family: the per-request pass (nu's ints
    over d, and its pairings, (xi|nu) and the Casimir term as ints over
    their positive denominators) and the one dot product per gamma for
    (nu + rho^nat|gamma) equal the `form` evaluations.  Any noncritical
    level: the entry's level constants and `level_data` equal
    `component_level`, the central-charge formula, the collapsing polynomial
    and the per-family range membership, and the critical level raises."""
    e = lookup(g)
    rat = st.fractions(min_value=-5, max_value=5, max_denominator=7)
    nu = Vec(data.draw(st.lists(rat, min_size=e.n, max_size=e.n)))
    sc = e._scalars(nu)
    d, x = e._scaled(nu)
    assert (sc.d, sc.x) == (d, x) and d > 0 and Vec(Q(c, d) for c in x) == nu
    assert all(type(v) is int for v in [*sc.ps, *sc.xn, *sc.cas])
    assert sc.xn[1] > 0 and sc.cas[1] > 0
    ps, xn, cas = [Q(p, d) for p in sc.ps], Q(*sc.xn), Q(*sc.cas)
    assert ps == _pairings_oracle(e, nu) == e.pairings(0, nu) == sc.pairings()
    assert xn == e.form(e.xi, nu)
    assert cas == e.form(nu, nu + 2 * e.rho_natural) == e.casimir(nu)
    assert all(type(v) is Q for v in [*e.pairings(0, nu), e.casimir(nu)])
    gammas = list(dict.fromkeys(gm for gm, _ in e.delta_prime))
    assert [row[0] for row in e._odd_covs] == gammas
    for row in e._odd_covs:
        assert Q(*_odd_pair(row, d, x)) == e.form(nu + e.rho_natural, row[0])

    ks = enumerate_unitary_k(g, 6)
    k = data.draw(st.one_of(st.fractions(min_value=-12, max_value=12, max_denominator=12),
                            *([st.sampled_from(ks)] if ks else [])))
    assert unitarity_range_contains(g, k) == _old_range_contains(g, k)
    for fn in (level_data, central_charge):
        with pytest.raises(CriticalLevel):
            fn(g, -e.h_vee)
    if k == -e.h_vee:
        return
    comps = ([e.center] if e.center else []) + list(e.components)
    M = tuple(component_level(e, k, c) for c in comps)
    consts = e._levels
    assert tuple((2 * consts.e * k + w) / u for u, w, _ in consts.lines) == M
    assert [Q(x, consts.e) for _, _, x in consts.lines] == [c.chi for c in comps]
    lv = level_data(g, k)
    assert lv.M == M and lv.alpha_levels == tuple(m + c.chi for m, c in zip(M, comps))
    assert central_charge(g, k) == k * e.sdim / (k + e.h_vee) - 6 * k + e.h_vee - 4
    zs = [-(e.h_vee - c.hbar_vee) / 2 for c in comps]
    z1, z2 = zs if len(zs) == 2 else (zs[0], -comps[0].hbar_vee / 2 - 1)
    assert lv.p_k == (k - z1) * (k - z2) and lv.collapsing == (lv.p_k == 0)


@st.composite
def level_cases(draw):
    """(family, noncritical level, weight): a family of the catalog at one
    of its first unitary levels or at a level off its range, and a small
    rational weight, in P^+_k or not."""
    g = draw(st.sampled_from(RANGE_FAMILIES))
    e = lookup(g)
    ks = enumerate_unitary_k(g, 4)
    k = draw(st.one_of(st.fractions(min_value=-6, max_value=4, max_denominator=6),
                       *([st.sampled_from(ks)] * 3 if ks else []))
             .filter(lambda k: k != -e.h_vee))
    plus = enumerate_P_plus_k(g, k)[:8] if ks and e.center is None else []
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    nu = draw(st.sampled_from(plus) if plus and draw(st.booleans())
              else st.lists(rat, min_size=e.n, max_size=e.n).map(Vec))
    return g, k, nu


@given(level_cases(), st.data())
@example((catalog.psl22(), Q(1), zero_vec(4)), None)  # k + h_vee = 1 > 0
@example((catalog.psl22(), Q(1), Vec([Q(1, 2), 0, Q(3, 2), Q(-1, 2)])), None)
@example((catalog.g3(), Q(-9, 4), Vec([1, 1, 0])), None)  # k + h_vee < 0
@settings(max_examples=120, deadline=None)
def test_request_ints_equal_their_fractions(case, data):
    """The ints a request reads in place of `Fraction`s: the level record's
    int pairs are the reduced `LevelData` values, k and k + h_vee included;
    the threshold's int pair is A, with a denominator of the sign of k +
    h_vee, and l0 - A as an int pair over a positive denominator
    (`weights._excess`) is the `Fraction` l0 - A, its sign the `Fraction`
    comparison at A and A +- 1/1000, for either sign; and the kernel window
    snapped from the ints of q_max, l0 and depth (`_Lattice.window`) is the
    window of the `Fraction` q_max - l0, at negative windows and q_max off
    the half-integers too."""
    g, k, nu = case
    e = lookup(g)
    rec = levels._level(g, k.numerator, k.denominator)
    lv, s = rec.data, len(e.components)

    def ints(xs):
        return tuple((x.numerator, x.denominator) for x in xs)

    assert (rec.k_ints, rec.kh_ints) == ints([k, k + e.h_vee]) and lv.k == k
    assert rec.m_ints == ints(lv.M_simple) == ints(lv.M[-s:])
    assert rec.alpha_ints == ints(lv.alpha_levels[-s:])
    assert all(v.__class__ is int for pair in rec.m_ints + rec.alpha_ints for v in pair)

    sc = e._scalars(nu)
    an, ad = weights._threshold(rec, sc)
    a = Q(an, ad)
    assert a == A_bound(g, k, nu) and (ad > 0) == (k + e.h_vee > 0)
    for l0 in (a, a + Q(1, 1000), a - Q(1, 1000)):
        ln, ld = l0.numerator, l0.denominator
        for pair in ((an, ad), (-an, -ad)):  # the other sign of each den too
            for x in ((ln, ld), (-ln, -ld)):
                n, d = weights._excess(x, pair)
                assert d > 0 and Q(n, d) == l0 - a and (n <= 0) == (l0 <= a)
    lat = e.lattice
    l0 = a + data.draw(st.sampled_from([0, Q(1, 1000), -Q(1, 1000), Q(1, 2)])) if data else a
    q_max = l0 + (data.draw(st.fractions(min_value=-3, max_value=3, max_denominator=7))
                  if data else Q(-5, 3))
    depth = data.draw(st.fractions(min_value=-1, max_value=4, max_denominator=5)) \
        if data else Q(7, 3)
    assert lat.window(q_max, depth, l0) == lat.window(q_max - l0, depth) \
        == (math.floor(2 * (q_max - l0)), math.floor(lat.scale * depth))
