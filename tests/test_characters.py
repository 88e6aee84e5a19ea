from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmin import catalog, characters
from wmin.catalog import Vec, lookup, zero_vec
from wmin.characters import (QWSeries, character_massive, character_massless,
                             ell_of_h, fns_series, h_pair, n4_closed_form,
                             series_from_records,
                             verma_character, weyl_orbit)
from wmin.errors import (NonDominant, PreconditionViolated, TruncationIncomplete,
                         UnsupportedD21a)

G = catalog.psl22()
E = lookup(G)
TH1 = E.components[0].theta
XI = E.xi
ZERO = zero_vec(4)


def test_fns_leading_terms():
    f = fns_series(G, 2, 4)
    assert f.coeff(0, ZERO) == 1
    assert f.coeff(0, -1 * TH1) == 1
    # two fermionic factors plus the level-zero boson factor cross term
    assert f.coeff(Q(1, 2), -1 * XI) == 4
    partial = QWSeries.unit(E, 2, 4)
    fac = QWSeries(E, 2, 4)
    fac.add_term(0, ZERO, 1)
    fac.add_term(Q(1, 2), -1 * XI, 1)
    partial = partial * fac * fac
    assert partial.coeff(Q(1, 2), -1 * XI) == 2


def test_fns_depth_zero():
    f = fns_series(G, 1, 0)
    assert f.coeff(0, ZERO) == 1
    assert all(all(w == ZERO or None for w in lvl) or True for lvl in f.terms.values())


def test_verma_character_basics():
    v = verma_character(G, Q(1, 2) * TH1, Q(1, 2), 3, 4)
    assert v.coeff(Q(1, 2), Q(1, 2) * TH1) == 1
    assert min(v.terms) == Q(1, 2)
    # nu = 0, ell = 0 equals the plain series
    assert verma_character(G, ZERO, 0, 2, 4) == fns_series(G, 2, 4)
    # exponent shift
    a = verma_character(G, ZERO, 1, 3, 4)
    b = verma_character(G, ZERO, 0, 3, 4)
    shifted = b.shifted(ZERO, 1).truncated(3, 4)
    assert a == shifted


def test_ell_and_h_pair():
    assert ell_of_h(G, -2, ZERO, 0) == 0
    assert h_pair(G, -2, ZERO, 0) == (0, -1)
    nu = Q(1, 2) * TH1
    assert ell_of_h(G, -3, nu, E.form(XI, nu)) == Q(1, 2)
    assert h_pair(G, -3, nu, Q(10**6)) is None  # irrational discriminant


@given(st.fractions(min_value=-8, max_value=8, max_denominator=6))
@settings(max_examples=40, deadline=None)
def test_ell_symmetry(h):
    k = Q(-3)
    nu = Q(1, 2) * TH1
    assert ell_of_h(G, k, nu, h) == ell_of_h(G, k, nu, k + 1 - h)


def test_weyl_orbit_contract():
    nu = Q(1, 2) * TH1
    orb = weyl_orbit(G, -3, nu, 0, 4)
    assert (nu, 1, Q(0)) in orb
    shifts = sorted(s for _, _, s in orb)
    assert shifts == [0, 0, 1, 1]
    dets = {tuple(r): d for r, d, s in orb}
    assert dets[tuple(Q(3, 2) * TH1)] == -1  # the eta-reflection, shift N_1 = 1
    # independence of h
    orb2 = weyl_orbit(G, -3, nu, Q(7, 3), 4)
    assert orb == orb2
    # all shifts are integers here
    assert all(s.denominator == 1 for _, _, s in orb)
    with pytest.raises(NonDominant):
        weyl_orbit(G, -3, 2 * TH1, 0, 4)


def test_orbit_cap_raises(monkeypatch):
    monkeypatch.setattr(characters, "ORBIT_CAP", 2)
    with pytest.raises(TruncationIncomplete):
        weyl_orbit(G, -3, Q(1, 2) * TH1, 0, 4)
    with pytest.raises(TruncationIncomplete):
        character_massive(G, -3, Q(1, 2) * TH1, 2, 3, 4)


def test_fns_cache_is_bounded():
    fns = characters._fns_cached
    bound = fns.cache_info().maxsize
    assert bound is not None
    for depth in range(bound + 8):
        fns(G, Q(0), Q(depth))
    assert fns.cache_info().currsize <= bound


def test_massive_preconditions():
    nu = Q(1, 2) * TH1
    with pytest.raises(PreconditionViolated):
        character_massive(G, -3, nu, Q(1, 2), 3, 4)  # l0 = A exactly
    with pytest.raises(PreconditionViolated):
        character_massive(G, -2, nu, 1, 3, 4)  # extremal nu


def test_massive_small_window_is_verma():
    # q_max below the smallest positive q_shift: single Verma character
    nu = Q(1, 2) * TH1
    s = character_massive(G, -3, nu, 2, Q(5, 2), 4)
    # the shift-0 finite reflection still contributes: subtract it explicitly
    v_id = verma_character(G, nu, 2, Q(5, 2), 4).truncated(Q(5, 2), 4, nu)
    v_s = verma_character(G, Q(-3, 2) * TH1, 2, Q(5, 2), 4).truncated(Q(5, 2), 4, nu)
    assert s == v_id - v_s


def test_massive_leading_and_positivity():
    s = character_massive(G, -3, ZERO, 1, 4, 6)
    assert s.coeff(1, ZERO) == 1
    assert min(s.terms) == 1
    assert all(c >= 0 for lvl in s.terms.values() for c in lvl.values())


def test_massless_equals_closed_form_sample():
    nu = Q(1, 2) * TH1
    a = character_massless(G, -3, nu, Q(9, 2), 8)
    b = n4_closed_form(2, 1, Q(9, 2), 8)
    assert a == b and a.coeff(Q(1, 2), nu) == 1


def test_massless_rejects_nonzero_d21a():
    g = catalog.d21a(1, 1)
    e = lookup(g)
    nu = Q(1, 2) * e.components[0].theta
    with pytest.raises(UnsupportedD21a):
        character_massless(g, -2, nu, 3, 4)
    # nu = 0 is fine
    s = character_massless(g, -2, zero_vec(3), Q(3, 2), 3)
    assert s.coeff(0, zero_vec(3)) == 1


def test_massive_bottom_multiplet_dimensions():
    """The lowest q-level of a massive character is the irreducible
    centralizer module with highest weight nu; its dimension is an
    independent structural check."""
    # psl22, r=1: the 2-dim module
    s = character_massive(G, -3, Q(1, 2) * TH1, 1, 3, 6)
    assert sum(s.terms[Q(1)].values()) == 2
    # spo(2|3), r=1: the 2-dim module of the rank-one centralizer
    g = catalog.spo2m(3)
    nu = lookup(g).nu_from_labels([1])
    s = character_massive(g, Q(-5, 4), nu, 1, Q(5, 2), 6)
    assert sum(s.terms[Q(1)].values()) == 2
    # G3, nu = omega_1: the 7-dim fundamental module
    g = catalog.g3()
    nu = lookup(g).nu_from_labels([1, 1])
    s = character_massive(g, Q(-9, 4), nu, 1, Q(3, 2), 7)
    assert sum(s.terms[Q(1)].values()) == 7


def test_truncation_coherence():
    big = character_massive(G, -3, ZERO, 1, 6, 8)
    small = character_massive(G, -3, ZERO, 1, 4, 6)
    assert big.truncated(4, 6) == small
    f_big = fns_series(G, 4, 8).truncated(3, 5)
    assert f_big == fns_series(G, 3, 5)


def test_fns_other_families_smoke():
    for g in (catalog.sl2m(3), catalog.osp4m(4), catalog.f4(), catalog.spo2m(6)):
        e = lookup(g)
        f = fns_series(g, 1, 2)
        assert f.coeff(0, zero_vec(e.n)) == 1
        assert all(q >= 0 for q in f.terms)


def test_weyl_orbit_d21a_two_components():
    g = catalog.d21a(2, 3)
    e = lookup(g)
    k = Q(-12, 5)  # N = 2: M = (3, 5)
    nu = e.nu_from_labels([1, 2])
    orb = weyl_orbit(g, k, nu, 0, 5)
    assert (nu, 1, Q(0)) in orb
    assert all(s.denominator == 1 for _, _, s in orb)
    assert orb == weyl_orbit(g, k, nu, Q(5, 7), 5)
    # finite group of order 4: four shift-0 elements
    assert sum(1 for _, _, s in orb if s == 0) == 4


def test_massive_matches_bilateral_form():
    """Independent oracle for the massive branch: for the rank-one N=4 family
    the orbit is the affine A1 Weyl group, so the character is a bilateral
    sum with weights (r/2 + m(M1+1))theta_1 and -(r/2 + m(M1+1) + 1)theta_1
    at exponent shift m^2(M1+1) + (r+1)m."""
    for m1, r, l0 in [(1, 0, Q(1)), (2, 1, Q(3, 2)), (3, 2, Q(2))]:
        k = -(m1 + 1)
        nu = Q(r, 2) * TH1
        qm, dep = l0 + 3, Q(6)
        got = character_massive(G, k, nu, l0, qm, dep)
        window = qm - l0
        total = QWSeries(E, window, dep + 2 * window + 4)
        for m in range(-6, 7):
            base = Q(m * m * (m1 + 1) + (r + 1) * m)
            if base > window:
                continue
            total.add_term(base, (Q(r, 2) + m * (m1 + 1)) * TH1, 1)
            total.add_term(base, -1 * (Q(r, 2) + m * (m1 + 1) + 1) * TH1, -1)
        want = (fns_series(G, window, dep + 2 * window + 4) * total)
        want = want.shifted(zero_vec(4), l0).truncated(qm, dep, nu)
        assert got == want, (m1, r, l0)


def test_massless_extremal_wall_has_no_subthreshold_terms():
    """At extremal weights of the N=3 family one eta-pairing is negative, so
    orbit elements with negative shift appear; their flipped fermionic
    corrections must land every term back at or above the threshold."""
    from wmin.weights import A_bound
    g = catalog.spo2m(3)
    e = lookup(g)
    for k, r in [(Q(-1), 2), (Q(-5, 4), 3)]:
        nu = e.nu_from_labels([r])
        a = A_bound(g, k, nu)
        s = character_massless(g, k, nu, a + 2, 5)
        assert min(s.terms) == a and s.coeff(a, nu) == 1
        assert all(c >= 0 for lvl in s.terms.values() for c in lvl.values())


def test_massless_nu_zero_positive_across_families():
    for g, k, qm, dep in [(catalog.spo2m(3), Q(-1), Q(2), Q(5)),
                          (catalog.g3(), Q(-3, 2), Q(3, 2), Q(4))]:
        e = lookup(g)
        s = character_massless(g, k, zero_vec(e.n), qm, dep)
        assert s.coeff(0, zero_vec(e.n)) == 1
        assert all(c >= 0 for lvl in s.terms.values() for c in lvl.values())


def test_massless_truncation_coherence():
    nu = Q(1, 2) * TH1
    big = character_massless(G, -3, nu, Q(9, 2), 8)
    small = character_massless(G, -3, nu, Q(5, 2), 5)
    assert big.truncated(Q(5, 2), 5) == small


def test_series_serialization_round_trip():
    s = character_massive(G, -3, Q(1, 2) * TH1, 2, 4, 6)
    recs = s.records()
    assert recs == sorted(recs, key=lambda r: (Q(r["q"]), [Q(c) for c in r["weight"]]))
    t = series_from_records(E, recs, s.q_max, s.depth, s.ref)
    assert t == s


small_series = st.lists(
    st.tuples(st.integers(min_value=0, max_value=4),
              st.integers(min_value=-2, max_value=2),
              st.integers(min_value=-3, max_value=3)),
    max_size=6)


def _mk(terms, q_max=4, depth=6):
    s = QWSeries(E, q_max, depth)
    for qq, j, c in terms:
        s.add_term(Q(qq, 2), Q(j, 2) * TH1, c)
    return s


@given(small_series, small_series)
@settings(max_examples=30, deadline=None)
def test_series_ring_commutes(t1, t2):
    a, b = _mk(t1), _mk(t2)
    assert a * b == b * a
    assert a + b == b + a


@given(small_series, small_series)
@settings(max_examples=30, deadline=None)
def test_series_truncation_is_ideal(t1, t2):
    big_a, big_b = _mk(t1, 6, 8), _mk(t2, 6, 8)
    cut_a, cut_b = big_a.truncated(4, 6), big_b.truncated(4, 6)
    assert (big_a * big_b).truncated(4, 6) == (cut_a * cut_b).truncated(4, 6)


def test_q_levels_accessor():
    s = verma_character(G, ZERO, Q(1, 2), 2, 3)
    assert s.q_levels() == sorted(s.terms)
    assert s.q_levels()[0] == Q(1, 2)


def test_nu_hat_pairs_h_with_x_plus_d():
    from wmin.characters import nu_hat
    nu = Q(1, 2) * TH1
    for h in (Q(0), Q(3, 7), Q(-2)):
        assert nu_hat(E, -3, nu, h).x_plus_d(E) == h
