import gc
import importlib
import math
import pkgutil
import sys
from dataclasses import dataclass
from fractions import Fraction as Q
from operator import add, mul
from types import SimpleNamespace

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import wmin
from wmin import catalog, characters, gram_lab, levels
from wmin.catalog import Vec, _Lattice, lookup, zero_vec
from wmin.characters import (QWSeries, _bucketed, _fns_cached, _held_windows, _LatticeSeries,
                             _n4_range, _orbit, _orbit_sum, _placed, _start,
                             _sum_pieces, _window, character_massive, character_massless,
                             depth_of, ell_of_h, fns_series, h_pair, n4_closed_form,
                             series_from_records, verma_character, weyl_orbit)
from wmin.errors import (NonDominant, ParameterOutOfRange, PreconditionViolated,
                         TruncationIncomplete, UnsupportedD21a, WminError)
from wmin.levels import enumerate_unitary_k, level_data
from wmin.weights import A_bound, enumerate_P_plus_k, is_extremal

G = catalog.psl22()
E = lookup(G)
TH1 = E.components[0].theta
XI = E.xi
ZERO = zero_vec(4)


def _record(e, k):
    """The level record of (e, k), keyed by k's numerator and denominator."""
    k = Q(k)
    return levels._level(e.id, k.numerator, k.denominator)


def _orbit_at(e, k, nu, limit, track_iso=False):
    """`_orbit` of nu at level k, from the start `_start` reads off the
    level record and nu's scalars, as a character request does, to the int
    floor(limit)."""
    return _orbit(e, _start(e, _record(e, k), e._scalars(nu)), math.floor(limit), track_iso)


def _orbit_sum_at(e, k, nu, l0, q_max, depth, track_iso):
    """`_orbit_sum` of nu at level k, from the start as `_orbit_at` reads
    it, at the window q_max - l0 and placed at l0: the character, uncached."""
    q_max, depth, lat, sc = Q(q_max), Q(depth), e.lattice, e._scalars(nu)
    return _placed(QWSeries(e, q_max, depth, nu), Q(l0),
                   _orbit_sum.__wrapped__(e.id, sc.d, tuple(sc.x), _start(e, _record(e, k), sc),
                                          *lat.window(q_max - l0, depth), track_iso,
                                          characters.ORBIT_CAP))


def _start_by_the_affine_form(e, k, nu):
    """The pairings of nu_hat + rho_hat with the affine simple coroots as
    `_orbit` read them before it took the level record: lam0 = (k + h_vee)
    Lambda_0 + nu + rho^nat paired level by level, pairings being linear."""
    return list(map(add, e.pairings(k + e.h_vee, nu), e.pairings(0, e.rho_natural)))


def _accumulate(out, src, wt=None, ell=0, sign=1):
    """Add sign * q^ell exp(wt) * src into `out` term by term through its
    cuts: the `Fraction` series sum, kept as the oracle for `_sum_pieces`."""
    for q, lvl in src.terms.items():
        for w, c in lvl.items():
            out.add_term(q + ell, w if wt is None else w + wt, sign * c)


def _times(a, b):
    """a * b cut at (min q_max, min depth) around a.ref + b.ref: the ring
    product, written as one `_accumulate` of a per term of b."""
    out = QWSeries(a.entry, min(a.q_max, b.q_max), min(a.depth, b.depth), a.ref + b.ref)
    for q, lvl in b.terms.items():
        for w, c in lvl.items():
            _accumulate(out, a, w, q, c)
    return out


def test_fns_leading_terms():
    f = fns_series(G, 2, 4)
    assert f.coeff(0, ZERO) == 1
    assert f.coeff(0, -1 * TH1) == 1
    # two fermionic factors plus the level-zero boson factor cross term
    assert f.coeff(Q(1, 2), -1 * XI) == 4
    partial = QWSeries(E, 2, 4)
    partial.add_term(0, ZERO, 1)
    fac = QWSeries(E, 2, 4)
    fac.add_term(0, ZERO, 1)
    fac.add_term(Q(1, 2), -1 * XI, 1)
    partial = _times(_times(partial, fac), fac)
    assert partial.coeff(Q(1, 2), -1 * XI) == 2


def test_fns_depth_zero():
    f = fns_series(G, 1, 0)
    assert f.coeff(0, ZERO) == 1
    assert all(depth_of(E, ZERO, w) <= 0 for lvl in f.terms.values() for w in lvl)
    assert f.coeff(1, TH1) != 0  # depth -1: kept
    assert f.coeff(0, -1 * TH1) == 0  # depth 1: cut (it is 1 at depth 4)


def test_verma_character_basics():
    v = verma_character(G, Q(1, 2) * TH1, Q(1, 2), 3, 4)
    assert v.coeff(Q(1, 2), Q(1, 2) * TH1) == 1
    assert min(v.terms) == Q(1, 2)
    # nu = 0, ell = 0 equals the plain series, over the entry's 4 coordinates
    fns = fns_series(G, 2, 4)
    assert verma_character(G, ZERO, 0, 2, 4) == fns
    assert fns.n_terms() > 0 and all(len(r["weight"]) == E.n for r in fns.records())
    # exponent shift
    a = verma_character(G, ZERO, 1, 3, 4)
    b = verma_character(G, ZERO, 0, 3, 4)
    shifted = QWSeries(E, 3, 4)
    _accumulate(shifted, b, ell=1)
    assert a == shifted and a.n_terms() > 0


def test_verma_character_off_lattice_weight_and_exponent():
    """A weight off the kernel's 1/D lattice and an exponent off (1/2)Z: the
    merge keys are taken relative to the weight, which enters only at the
    publish step, and the result is the denominator series shifted term by
    term, however large the weight's denominator."""
    for nu, ell in [(Vec([Q(1, 3), 0, Q(1, 5), 0]), Q(1, 3)),
                    (Vec([Q(1, 100003), 0, 0, 0]), Q(0))]:
        for q_max, depth in [(Q(3), Q(4)), (Q(17, 6), Q(5, 2)), (Q(2), Q(3))]:
            want = QWSeries(E, q_max, depth, nu)
            _accumulate(want, fns_series(G, q_max - ell, depth), nu, ell)
            got = verma_character(G, nu, ell, q_max, depth)
            assert got == want and got.coeff(ell, nu) == 1
    assert verma_character(G, Vec([Q(1, 100003), 0, 0, 0]), 0, 2, 3).n_terms() == 24


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


# ---------------------------------------------------------------------------
# the orbit oracles: affine weights as `Fraction` data


def _decoded(entry, nu, el):
    """An `_orbit` element as `Fraction` data: (restriction, det, q_shift,
    isotropic images as (restriction, x+d)), each restriction read off its
    int key (restrict(nu) + key/D for the element, key/D for an image) and
    an image's x+d off its int 2(x+d).
    `_orbit` tracks one isotropic image for the `iso_simple_count`
    identical ones, so the image is repeated that often."""
    base, denom = entry.restrict(nu), entry.lattice.denom

    def weight(key):
        return Vec(Q(x, denom) for x in key[1:])

    return (base + weight(el.key), el.det, Q(el.q_shift),
            () if el.image is None
            else ((weight(el.image[1:]), Q(el.image[0], 2)),) * entry.iso_simple_count)


@dataclass(frozen=True)
class AffineWeight:
    """level * Lambda_0 + finite + delta_coeff * delta."""

    level: Q
    finite: Vec
    delta_coeff: Q

    def x_plus_d(self, entry):
        return entry.form(self.finite, entry.theta) / 2 + self.delta_coeff


def nu_hat_plus_rho(entry, k, nu, h):
    """nu_hat_h + rho_hat.  Only pairings against the affine system of g^nat
    are ever taken, so rho_hat enters through rho^nat and its theta-component
    (rho|theta) = h_vee - 1."""
    fin = nu + entry.rho_natural + (Q(h) + Q(entry.h_vee - 1, 2)) * entry.theta
    return AffineWeight(Q(k) + entry.h_vee, fin, Q(0))


def iso_simple_affine(entry):
    """The `iso_simple_count` isotropic simple roots as affine weights: each
    restricts to -xi on h^nat and pairs to 1/2 with x+d."""
    return [AffineWeight(Q(0), Q(1, 2) * entry.theta - entry.xi, Q(0))] * entry.iso_simple_count


def _words_orbit(entry, k, nu, h, length, track_iso):
    """Every state reached from nu_hat+rho_hat (and, when tracked, the
    isotropic simple roots) by words of at most `length` simple reflections,
    with no pruning, mapped to det.  The reflections are written out here, so
    this is an oracle for `_orbit`, not a second call of it."""
    def s_alpha(alpha):
        return lambda a: AffineWeight(a.level, entry.weyl_reflect(a.finite, alpha),
                                      a.delta_coeff)

    def s_eta(comp):  # eta = delta - theta_i pairs to (2/u_i)(K - (f|theta_i))
        def act(a):
            c = 2 * (a.level - entry.form(a.finite, comp.theta)) / comp.u
            return AffineWeight(a.level, a.finite + c * comp.theta, a.delta_coeff - c)
        return act

    gens = ([s_alpha(al) for al in entry.simple_roots_natural]
            + [s_eta(c) for c in entry.components])
    start = (nu_hat_plus_rho(entry, k, nu, h),)
    if track_iso:
        start += tuple(iso_simple_affine(entry))
    found, frontier = {start: 1}, [start]
    for _ in range(length):
        nxt = []
        for state in frontier:
            for gen in gens:
                new = tuple(gen(a) for a in state)
                if new not in found:
                    found[new] = -found[state]
                    nxt.append(new)
        frontier = nxt
    return found


# (algebra, k, labels, word length): extremal and non-extremal spo2m(3)
ORBIT_CASES = [(catalog.psl22(), Q(-3), [1], 7),
               (catalog.spo2m(3), Q(-1), [2], 7),
               (catalog.spo2m(3), Q(-5, 4), [3], 7),
               (catalog.spo2m(3), Q(-5, 4), [1], 7),
               (catalog.d21a(2, 3), Q(-12, 5), [1, 2], 7),
               (catalog.g3(), Q(-9, 4), [1, 1], 7),
               (catalog.f4(), Q(-2), [1, 0, 0], 5)]


@pytest.mark.parametrize("track_iso", [False, True])
def test_orbit_pruning_misses_nothing(track_iso):
    """Every element with q_shift <= limit that a word of bounded length
    reaches is in `_orbit`'s output, with the same restriction, det and
    shift.  Integer limits put elements exactly at the limit, whose finite
    reflections keep the shift, so those must still be expanded; limit -1
    holds the shift -1 elements of the extremal spo2m(3) weights.  `_orbit`
    tracks one isotropic image for the `iso_simple_count` identical ones of
    the words, so its image is repeated that often."""
    for g, k, labels, length in ORBIT_CASES:
        e = lookup(g)
        nu = e.nu_from_labels(labels)
        h = e.form(e.xi, nu)
        base = nu_hat_plus_rho(e, k, nu, h).x_plus_d(e)
        words = _words_orbit(e, k, nu, h, length, track_iso)
        for limit in (Q(-1), Q(0), Q(1), Q(2)):
            got = {_decoded(e, nu, el) for el in _orbit_at(e, k, nu, limit, track_iso)}
            for (lam, *iso), det in words.items():
                shift = base - lam.x_plus_d(e)
                if shift <= limit:
                    want = (e.restrict(lam.finite) - e.rho_natural, det, shift,
                            tuple((e.restrict(b.finite), b.x_plus_d(e)) for b in iso))
                    assert want in got, (g.label(), k, labels, limit, want)


def _reference_orbit(entry, k, nu, h, limit, track_iso):
    """The `AffineWeight` walk that the int `_orbit` replaced, kept as its
    oracle: the same BFS over `Fraction` affine weights, deduplicated on the
    weights themselves, expanding points with shift <= max(limit, 0).  The
    isotropic images are given as (restriction to h^nat, x+d), and the
    output is sorted as `_orbit` sorts it."""
    roots = ([(a, Q(0)) for a in entry.simple_roots_natural]
             + [(-1 * c.theta, Q(1)) for c in entry.components])

    def reflect(lam, root):
        fin, dc = root
        c = 2 * (entry.form(lam.finite, fin) + lam.level * dc) / entry.form(fin, fin)
        return AffineWeight(lam.level, lam.finite - c * fin, lam.delta_coeff - c * dc)

    lam0 = nu_hat_plus_rho(entry, k, nu, h)
    base = lam0.x_plus_d(entry)
    reach = max(limit, Q(0))
    iso0 = tuple(iso_simple_affine(entry)) if track_iso else ()
    seen, frontier, out = {(lam0, iso0)}, [(lam0, 1, iso0)], []
    while frontier:
        nxt = []
        for lam, det, iso in frontier:
            shift = base - lam.x_plus_d(entry)
            if shift <= limit:
                out.append((entry.restrict(lam.finite) - entry.rho_natural, det, shift,
                            tuple((entry.restrict(b.finite), b.x_plus_d(entry)) for b in iso)))
            if shift > reach:
                continue
            for root in roots:
                state = (reflect(lam, root), tuple(reflect(b, root) for b in iso))
                if state not in seen:
                    seen.add(state)
                    nxt.append((state[0], -det, state[1]))
        frontier = nxt
    out.sort(key=lambda el: (el[2], tuple(el[0]), el[1]))
    return out


@pytest.mark.parametrize("track_iso", [False, True])
def test_int_orbit_equals_affine_weight_walk(track_iso):
    """The walk on int pairing coordinates gives the `AffineWeight` walk's
    list: the same elements in the same order, with the same restriction,
    det, shift and isotropic images.  The reference walks from
    h = (xi|nu) != 0 and `_orbit` from h = 0, so this also pins that the
    orbit does not depend on h; the reference walks every isotropic simple
    root and `_orbit` one, so this pins that their images stay identical."""
    for g, k, labels, _ in ORBIT_CASES:
        e = lookup(g)
        nu = e.nu_from_labels(labels)
        h = e.form(e.xi, nu)
        for limit in (Q(-1), Q(0), Q(1), Q(5, 2)):
            got = [_decoded(e, nu, el) for el in _orbit_at(e, k, nu, limit, track_iso)]
            assert got == _reference_orbit(e, k, nu, h, limit, track_iso), \
                (g.label(), k, labels, limit)


WALL_FAMILIES = [catalog.psl22(), catalog.spo2m(3), catalog.spo2m(5), catalog.d21a(2, 3),
                 catalog.g3()]


@st.composite
def wall_cases(draw):
    """(algebra, k, nu, limit): the first three unitary levels of each
    family and all of P^+_k, whose extremal weights put lam0 on a wall."""
    g = draw(st.sampled_from(WALL_FAMILIES))
    k = draw(st.sampled_from(enumerate_unitary_k(g, 3)))
    nu = draw(st.sampled_from(enumerate_P_plus_k(g, k)))
    return g, k, nu, draw(st.sampled_from([Q(-1), Q(0), Q(1), Q(2)]))


def _labelled(g, labels):
    return lookup(g).nu_from_labels(labels)


@given(wall_cases())
@example((catalog.psl22(), Q(-2), _labelled(catalog.psl22(), [1]), Q(0)))
@example((catalog.psl22(), Q(-3), _labelled(catalog.psl22(), [2]), Q(1)))
@example((catalog.spo2m(3), Q(-3, 4), _labelled(catalog.spo2m(3), [0]), Q(0)))  # zero label
@example((catalog.spo2m(3), Q(-1), _labelled(catalog.spo2m(3), [1]), Q(1)))
@example((catalog.spo2m(3), Q(-5, 4), _labelled(catalog.spo2m(3), [2]), Q(2)))
@example((catalog.d21a(2, 3), Q(-6, 5), Vec([0, 1, 0]), Q(0)))
@example((catalog.g3(), Q(-3, 2), Vec([1, 1, 0]), Q(1)))
@settings(max_examples=40, deadline=None)
def test_massless_orbit_on_a_wall_equals_both_oracles(case):
    """With the isotropic images tracked, `_orbit` skips a reflection only
    when it fixes both blocks.  At the examples lam0 pairs to 0 with an
    affine simple coroot (a wall), where that reflection fixes lam0 and
    moves the isotropic image: the walk gives the `AffineWeight` walk's
    list, and every element a word of bounded length reaches."""
    g, k, nu, limit = case
    e = lookup(g)
    h = e.form(e.xi, nu)
    got = [_decoded(e, nu, el) for el in _orbit_at(e, k, nu, limit, True)]
    assert got == _reference_orbit(e, k, nu, h, limit, True), case
    base = nu_hat_plus_rho(e, k, nu, h).x_plus_d(e)
    for (lam, *iso), det in _words_orbit(e, k, nu, h, 5, True).items():
        shift = base - lam.x_plus_d(e)
        if shift <= limit:
            assert (e.restrict(lam.finite) - e.rho_natural, det, shift,
                    tuple((e.restrict(b.finite), b.x_plus_d(e)) for b in iso)) in got, case


def test_wall_examples_put_lam0_on_a_wall():
    """The examples above are wall cases: a pairing of lam0 is 0."""
    for g, k, nu in [(catalog.psl22(), Q(-2), _labelled(catalog.psl22(), [1])),
                     (catalog.spo2m(3), Q(-3, 4), _labelled(catalog.spo2m(3), [0])),
                     (catalog.d21a(2, 3), Q(-6, 5), Vec([0, 1, 0])),
                     (catalog.g3(), Q(-3, 2), Vec([1, 1, 0]))]:
        assert 0 in _start_by_the_affine_form(lookup(g), k, nu), g.label()


def test_extremal_orbit_dips_below_zero_shift():
    """At the extremal spo2m(3) weights <lam0, eta_1^vee> = -1: the eta-step
    from lam0 lowers the shift from 0 to -1, so lam0 is not dominant."""
    g = catalog.spo2m(3)
    e = lookup(g)
    comp = e.components[0]
    for k, r in [(Q(-1), 2), (Q(-5, 4), 3)]:
        nu = e.nu_from_labels([r])
        lam0 = nu_hat_plus_rho(e, k, nu, Q(0))
        pairing = 2 * (lam0.level - e.form(lam0.finite, comp.theta)) / comp.u
        assert pairing == -1
        step = e.restrict(lam0.finite + pairing * comp.theta) - e.rho_natural
        assert (step, -1, Q(-1)) in weyl_orbit(g, k, nu, 0, 1)
        assert (step, -1, Q(-1)) in weyl_orbit(g, k, nu, 0, -1)


def test_orbit_refuses_a_non_integral_pairing():
    """Off P^+_k a pairing of nu_hat + rho_hat is not an int: nu(theta_1^vee)
    = 1/2 at nu = theta_1/4, and <lam0, eta_1^vee> = 3/2 at k = -5/2; the
    walk raises rather than round it."""
    for k, nu in [(Q(-3), Q(1, 4) * TH1), (Q(-5, 2), ZERO)]:
        assert any(p.denominator != 1 for p in _start_by_the_affine_form(E, k, nu))
        with pytest.raises(PreconditionViolated, match="not integral"):
            _orbit_at(E, k, nu, Q(2))


def test_orbit_cap_raises(monkeypatch):
    monkeypatch.setattr(characters, "ORBIT_CAP", 2)
    with pytest.raises(TruncationIncomplete) as err:
        weyl_orbit(G, -3, Q(1, 2) * TH1, 0, 4)
    # the identity is kept, its two reflections push the seen set past 2
    msg = str(err.value)
    assert "3 elements seen" in msg and "1 kept within the limit" in msg
    assert "BFS level 0" in msg
    with pytest.raises(TruncationIncomplete):
        character_massive(G, -3, Q(1, 2) * TH1, 2, 3, 4)
    monkeypatch.setattr(characters, "ORBIT_CAP", 3)
    with pytest.raises(TruncationIncomplete, match="BFS level 1"):
        weyl_orbit(G, -3, Q(1, 2) * TH1, 0, 4)


def test_cached_orbit_sum_honours_a_lowered_cap(monkeypatch):
    """A request answered once, and so cached, raises TruncationIncomplete
    when repeated under a cap its orbit passes: the cap is read at call
    time, and a sum found under one cap is not served under a lower one."""
    nu = Q(1, 2) * TH1
    assert character_massive(G, -3, nu, 2, 3, 4).n_terms() > 0
    assert character_massless(G, -3, nu, 3, 4).n_terms() > 0
    monkeypatch.setattr(characters, "ORBIT_CAP", 2)
    with pytest.raises(TruncationIncomplete):
        character_massive(G, -3, nu, 2, 3, 4)
    with pytest.raises(TruncationIncomplete):
        character_massless(G, -3, nu, 3, 4)


def test_changing_a_series_changes_no_cached_sum():
    """A caller who changes the terms of a returned character, a level or
    the map of levels, leaves the cached orbit sum as it was: the next
    request of the key, a hit, equals a cold call."""
    _orbit_sum.cache_clear()
    cold = character_massive(G, -3, ZERO, 1, 4, 6).records()
    for massless in (False, True):
        s = character_massless(G, -3, ZERO, 4, 6) if massless else \
            character_massive(G, -3, ZERO, 1, 4, 6)
        low, high = min(s.terms), max(s.terms)
        s.terms[low][ZERO] += 7
        s.terms[low][Vec([1, 2, 3, 4])] = 1
        s.terms[high].clear()
        del s.terms[high]
    assert _orbit_sum.cache_info().currsize == 2
    assert character_massive(G, -3, ZERO, 1, 4, 6).records() == cold
    warm = character_massless(G, -3, ZERO, 4, 6).records()
    _orbit_sum.cache_clear()
    assert warm == character_massless(G, -3, ZERO, 4, 6).records()


def test_a_cached_sum_still_checks_the_preconditions():
    """A request whose key is cached still runs every precondition: a
    massive character at or below the threshold, or at an extremal weight,
    raises PreconditionViolated at the window of a cached sum."""
    nu = Q(1, 2) * TH1
    a = A_bound(G, -3, nu)
    assert character_massive(G, -3, nu, a + 1, a + 3, 4).n_terms() > 0
    for l0 in (a, a - Q(1, 2)):  # the same window, so the same key
        with pytest.raises(PreconditionViolated, match="l0 > A"):
            character_massive(G, -3, nu, l0, l0 + 2, 4)
    extremal = Q(1, 2) * TH1  # at k = -2
    a = A_bound(G, -2, extremal)
    assert is_extremal(G, -2, extremal)
    assert character_massless(G, -2, extremal, a + 2, 4).n_terms() > 0
    with pytest.raises(PreconditionViolated, match="non-extremal"):
        character_massive(G, -2, extremal, a + 1, a + 3, 4)


def test_fns_cache_is_bounded():
    fns = characters._fns_cached
    bound = fns.cache_info().maxsize
    assert bound is not None
    for depth in range(bound + 8):
        fns(G, *E.lattice.window(Q(0), Q(depth)))
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
    want = QWSeries(E, Q(5, 2), 4, nu)
    _accumulate(want, verma_character(G, nu, 2, Q(5, 2), 4))
    _accumulate(want, verma_character(G, Q(-3, 2) * TH1, 2, Q(5, 2), 4), sign=-1)
    assert s == want


def test_massive_leading_and_positivity():
    s = character_massive(G, -3, ZERO, 1, 4, 6)
    assert s.coeff(1, ZERO) == 1
    assert min(s.terms) == 1
    assert all(c >= 0 for lvl in s.terms.values() for c in lvl.values())


def test_n4_range_holds_every_summand_in_the_window():
    """The argument of `n4_closed_form`'s range of m: the first m outside
    `_n4_range` on either side, and so every later one (the leading
    exponents grow with |m|), has a leading exponent above the window, b_m
    for m >= 0 and b_m - (2m + 1) for m < 0, where the fermionic factors
    flip; and the range is not empty of summands that reach the window."""
    def lead(m1, r, m):
        b = m * m * (m1 + 1) + (r + 1) * m
        return b if m >= 0 else b - (2 * m + 1)

    for m1 in range(1, 7):
        for r in range(m1 + 1):
            for window in [Q(0), Q(1, 3), Q(1, 2), Q(1), Q(2), Q(5, 2), Q(6), Q(17, 2),
                           Q(20), Q(57), Q(100), Q(1001, 2)]:
                ms = _n4_range(m1, window)
                for m in (ms.start - 1, ms.stop):
                    assert lead(m1, r, m) > window, (m1, r, window, m)
                    assert lead(m1, r, m + (1 if m > 0 else -1)) > lead(m1, r, m)
                assert lead(m1, r, 0) == 0 and 0 in ms


def test_massless_equals_closed_form_sample():
    nu = Q(1, 2) * TH1
    a = character_massless(G, -3, nu, Q(9, 2), 8)
    b = n4_closed_form(2, 1, Q(9, 2), 8)
    assert a == b and a.coeff(Q(1, 2), nu) == 1


def test_n4_closed_form_refines():
    """The window argument of `n4_closed_form`: its pieces need no depth
    headroom beyond the output's, so the series computed in a larger window
    and cut back is the same series."""
    for m1 in (1, 2, 3):
        for r in range(m1 + 1):
            for window, dep in [(Q(0), Q(2)), (Q(5, 2), Q(0)), (Q(4), Q(3))]:
                small = n4_closed_form(m1, r, Q(r, 2) + window, dep)
                big = n4_closed_form(m1, r, Q(r, 2) + window + 1, dep + 3)
                assert small.n_terms() > 0
                assert small == big.truncated(small.q_max, dep, small.ref), (m1, r, window, dep)


def _theta_height(e):
    """The largest height of a component highest root theta_i, at least 1:
    how far an orbit restriction can sit above nu per unit of q_shift."""
    return max([depth_of(e, zero_vec(e.n), -1 * c.theta) for c in e.components] + [Q(1)])


def _wide_orbit_sum(e, k, nu, l0, q_max, depth, track_iso):
    """`_orbit_sum` over a wide window of its own: the denominator built to
    depth + window * `_theta_height`, and each massless piece a copy of the
    whole denominator, divided at every level.  The test oracle for the
    window and the cached isotropic quotients of `_orbit_sum`."""
    out = QWSeries(e, q_max, depth, nu)
    window = q_max - l0
    orbit = _orbit_at(e, k, nu, window, track_iso)
    reach = window - min([Q(0)] + [el.q_shift for el in orbit])
    wide = depth + window * _theta_height(e)
    lat = e.lattice
    within = lat.window(reach, wide)
    fns, (caps, span) = _fns_cached(e.id, *within), _window(lat, *within)

    pieces = [_copied_quotient(e, fns, el, caps, span) if el.image is not None else fns
              for el in orbit]
    levels, _ = _sum_pieces(lat, e._restricted(nu), *lat.window(window, out.depth),
                            [(el.key, el.q_shift, el.det) for el in orbit], pieces, span)
    return _placed(out, l0, levels)


def _copied_quotient(e, fns, el, caps, span):
    """The massless piece of orbit element `el` over levels 0..len(caps) - 1:
    a copy of those levels of the denominator `fns` cut to the caps and span
    of its window (`_window`), divided in place by the element's isotropic
    factor once per isotropic simple root, held.  The test oracle for the
    cached quotients of `_fns_cached`."""
    div = fns.copy(caps, span)
    for _ in range(e.iso_simple_count):
        div.divide(tuple(-x for x in el.image[1:]), el.image[0], -1)
    return div.hold()


@pytest.mark.parametrize("g", [catalog.psl22(), catalog.spo2m(3), catalog.d21a(1)],
                         ids=lambda g: g.label())
def test_massless_quotient_pieces_equal_whole_copies(g):
    """The cached isotropic quotients (`_fns_cached` with an image key) give
    the character of the whole-denominator pieces, copied and divided per
    element, at nu = 0 over the first three non-collapsing levels and two
    windows (q_max - l0, depth)."""
    ks = [k for k in enumerate_unitary_k(g, 8) if not level_data(g, k).collapsing][:3]
    assert len(ks) == 3
    nu = zero_vec(lookup(g).n)
    for k in ks:
        for window, depth in [(Q(1), Q(2)), (Q(3, 2), Q(4))]:
            q_max = A_bound(g, k, nu) + window
            got = character_massless(g, k, nu, q_max, depth)
            assert got.n_terms() > 0
            want = _wide_orbit_sum(lookup(g), k, nu, A_bound(g, k, nu), q_max, depth, True)
            assert got.records() == want.records()


REUSE_FAMILIES = [catalog.psl22(), catalog.spo2m(3), catalog.d21a(2, 3)]


@st.composite
def reuse_cases(draw):
    """(algebra, two distinct non-collapsing unitary levels among its first
    three, window q_max - A, depth): massless requests at nu = 0 that share
    the denominator window (window, depth), the start at nu = 0 being
    dominant."""
    g = draw(st.sampled_from(REUSE_FAMILIES))
    ks = [k for k in enumerate_unitary_k(g, 8) if not level_data(g, k).collapsing][:3]
    pair = draw(st.lists(st.sampled_from(ks), min_size=2, max_size=2, unique=True))
    window = draw(st.sampled_from([Q(1, 2), Q(1), Q(3, 2), Q(2), Q(5, 2)]))
    depth = draw(st.sampled_from([Q(1), Q(5, 2), Q(4)]))
    return g, tuple(pair), window, depth


@given(reuse_cases())
@example((catalog.psl22(), (Q(-2), Q(-3)), Q(2), Q(4)))  # shared images at higher
@example((catalog.spo2m(3), (Q(-1), Q(-5, 4)), Q(5, 2), Q(5, 2)))  # shifts under k2
@example((catalog.d21a(2, 3), (Q(-6, 5), Q(-12, 5)), Q(2), Q(1)))
@settings(max_examples=30, deadline=None)
def test_cached_quotients_are_exact_across_requests(case):
    """An isotropic quotient of `_fns_cached` serves every request of its
    key: a massless character computed with the denominators and the orbit
    sums emptied equals the same character computed after a request at
    another level with the same (window, depth) has cached the quotients it
    shares, and every quotient that either request reads equals, at the
    levels `_sum_pieces` reads of it and in its packing bound, the prefix
    copy of the denominator divided by the element's factor
    (`_copied_quotient`)."""
    g, (k, k2), window, depth = case
    e = lookup(g)
    nu = zero_vec(e.n)

    def char(k):
        _orbit_sum.cache_clear()
        return character_massless(g, k, nu, A_bound(g, k, nu) + window, depth).records()

    _fns_cached.cache_clear()
    cold = char(k)
    _fns_cached.cache_clear()
    char(k2)
    assert char(k) == cold, case
    misses = _fns_cached.cache_info().misses
    asked = e.lattice.window(window, depth)  # the window from the dominant start
    fns, (caps, span) = _fns_cached(g, *asked), _window(e.lattice, *asked)
    for level in (k, k2):
        for el in _orbit_at(e, level, nu, window, True):
            got = _fns_cached(g, *asked, el.image)
            want = _copied_quotient(e, fns, el, caps[:math.floor(2 * (window - el.q_shift)) + 1],
                                    span)
            assert _buckets(got)[:len(want.rows)] == _buckets(want), (case, level, el)
            assert (got.rate, got.span) == (want.rate, want.span), (case, level, el)
    assert _fns_cached.cache_info().misses == misses  # each one the requests cached


# sl(2|3) by hand: its P^+_k is infinite (the center of g^nat takes any weight),
# so `enumerate_P_plus_k` raises; at its one unitary level k = -1 every weight
# of P^+_k is extremal
SL2M3_CASE = (catalog.sl2m(3), Q(-1), [zero_vec(5), Vec([0, 0, 1, 1, 1]),
                                       Vec([1, 1, 0, 0, 0]), Vec([1, 0, 0, 0, 0])])
WINDOW_FAMILIES = [catalog.psl22(), catalog.sl2m(3), catalog.spo2m(3), catalog.spo2m(5),
                   catalog.spo2m(6), catalog.d21a(2, 3), catalog.g3(), catalog.f4()]


@st.composite
def window_cases(draw):
    """(algebra, k, nu, l0 - A or None for massless, window q_max - l0, depth)
    over the first three unitary levels of each family and all of P^+_k,
    extremal weights included, massless D(2,1;a) at nu = 0."""
    g = draw(st.sampled_from(WINDOW_FAMILIES))
    above = draw(st.sampled_from([None, Q(1, 3), Q(1)]))
    if g.family == "sl2m":
        _, k, nus = SL2M3_CASE
    else:
        k = draw(st.sampled_from(enumerate_unitary_k(g, 3)))
        nus = enumerate_P_plus_k(g, k)
    if above is None and g.family == "D21a":
        nus = [zero_vec(lookup(g).n)]
    nu = draw(st.sampled_from(nus))
    window = draw(st.sampled_from([Q(0), Q(1, 2), Q(1), Q(3, 2), Q(2), Q(5, 2)]))
    depth = draw(st.sampled_from([Q(0), Q(1), Q(5, 2), Q(4)]))
    return g, k, nu, above, window, depth


@given(window_cases())
@example((catalog.psl22(), Q(-3), Q(1, 2) * TH1, None, Q(5, 2), Q(1)))
@example((catalog.sl2m(3), Q(-1), Vec([0, 0, 1, 1, 1]), None, Q(2), Q(1)))
@example((catalog.spo2m(3), Q(-1), lookup(catalog.spo2m(3)).nu_from_labels([2]), None,
          Q(2), Q(1)))   # extremal: an element at q_shift -1
@example((catalog.spo2m(5), Q(-3, 2), lookup(catalog.spo2m(5)).nu_from_labels([1, 0]),
          Q(1, 3), Q(2), Q(5, 2)))
@example((catalog.d21a(2, 3), Q(-12, 5), lookup(catalog.d21a(2, 3)).nu_from_labels([1, 1]),
          Q(1), Q(3, 2), Q(1)))
@example((catalog.g3(), Q(-9, 4), Vec([1, 1, 0]), Q(1), Q(2), Q(6)))
@example((catalog.f4(), Q(-2), zero_vec(4), None, Q(3, 2), Q(1)))
@settings(max_examples=60, deadline=None)
def test_orbit_sum_builds_the_window_its_orbit_reads(case):
    """`_orbit_sum` builds the denominator in the window its orbit reads (see
    its docstring), and gives the same sum as over the wide window
    depth + window * `_theta_height`, massive and massless; every
    `_fns_cached` call, the isotropic quotients of a massless sum included,
    is in that one kernel window (T, C), whose T is that of the reach, the
    plain denominator asked with three arguments; it needs no depth
    headroom, from an extremal start too: C is that of (window, depth)."""
    g, k, nu, above, window, depth = case
    e = lookup(g)
    l0, track_iso = A_bound(g, k, nu) + (above or 0), above is None
    built, build = [], characters._fns_cached
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characters, "_fns_cached", lambda *a: built.append(a) or build(*a))
        got = _orbit_sum_at(e, k, nu, l0, l0 + window, depth, track_iso)
    assert got.n_terms() > 0
    assert got == _wide_orbit_sum(e, k, nu, l0, l0 + window, depth, track_iso), case
    assert all(len(a) == 3 or a[3] for a in built), built
    ((_, top, cap),) = {a[:3] for a in built}
    orbit = _orbit_at(e, k, nu, window, track_iso)
    assert top == math.floor(2 * (window - min([0] + [el.q_shift for el in orbit])))
    assert cap == e.lattice.window(window, depth)[1], case


# (family, unitary levels, weights of P^+_k per level) of the headroom check
HEADROOM_FAMILIES = [(G, 4, 6), (catalog.spo2m(3), 4, 6), (catalog.spo2m(5), 3, 6),
                     (catalog.spo2m(6), 3, 4), (catalog.d21a(2, 3), 3, 6), (catalog.d21a(2), 3, 6),
                     (catalog.g3(), 3, 6), (catalog.f4(), 2, 3)]


def test_orbits_need_no_depth_headroom():
    """The Window argument of `_orbit_sum`: on every element of every orbit
    walked, -key[0] <= dip (q_shift - s_min), s_min = min(0, the least
    q_shift), so the reach window (T - 2 s_min, C) holds every term an
    element reads.  Over the first levels and weights of eight algebras,
    the weights of sl(2|3), whose center takes any weight, and spo2m(3)'s
    extremal starts (k = -1, r = 2; k = -5/4, r = 3), walked to limits 0..3,
    massive and massless.  Where the start is not dominant, s_min < 0, and
    an element at the least shift, the fold of lam0, has key[0] >= 0."""
    cases = [(g, k, nu) for g, levels, count in HEADROOM_FAMILIES
             for k in enumerate_unitary_k(g, levels) for nu in enumerate_P_plus_k(g, k)[:count]]
    cases += [(SL2M3_CASE[0], SL2M3_CASE[1], nu) for nu in SL2M3_CASE[2]]
    spo3 = catalog.spo2m(3)
    cases += [(spo3, k, lookup(spo3).nu_from_labels([r])) for k, r in [(Q(-1), 2), (Q(-5, 4), 3)]]
    extremal = set()
    for g, k, nu in cases:
        e = lookup(g)
        start, dip = _start(e, _record(e, k), e._scalars(nu)), e.lattice.dip
        for limit in range(4):
            for track_iso in (False, True):
                orbit = _orbit(e, start, limit, track_iso)
                s_min = min(0, orbit[0].q_shift)
                assert all(-el.key[0] <= dip * (el.q_shift - s_min) for el in orbit), \
                    (g, k, nu, limit, track_iso)
                assert (s_min < 0) == (min(start) < 0), (g, k, nu)
                if s_min < 0:
                    extremal.add((g, k))
                    assert any(el.key[0] >= 0 for el in orbit if el.q_shift == s_min), (g, k, nu)
    assert {(spo3, Q(-1)), (spo3, Q(-5, 4))} <= extremal


@given(window_cases())
@example((catalog.spo2m(3), Q(-1), lookup(catalog.spo2m(3)).nu_from_labels([2]), None,
          Q(1), Q(1)))   # extremal: <lam0, eta_1^vee> = -1
@example((catalog.spo2m(3), Q(-5, 4), lookup(catalog.spo2m(3)).nu_from_labels([3]), None,
          Q(1), Q(1)))   # extremal
@example((catalog.sl2m(3), Q(-1), Vec([0, 0, 1, 1, 1]), None, Q(1), Q(1)))
@settings(max_examples=60, deadline=None)
def test_orbit_start_equals_the_affine_form(case):
    """The int start `_orbit` reads off nu's pairings and the level record,
    nu(alpha^vee) + 1 and M_i(k) + chi_i + 1 - nu(theta_i^vee), equals the
    pairings of (k + h_vee) Lambda_0 + nu + rho^nat computed level by level
    through the coroot table, extremal weights and the center of sl(2|3)
    included."""
    g, k, nu, _, window, _ = case
    e = lookup(g)
    start = _start(e, _record(e, k), e._scalars(nu))
    assert all(p.__class__ is int for p in start), case
    assert list(start) == _start_by_the_affine_form(e, k, nu), case


def test_published_weights_hold_only_fractions():
    """Every published exponent is a `Fraction` and every weight a `Vec` of
    `Fraction`s, whatever int keys `_sum_pieces` summed them on: massive
    (psl22 and the G3 case), massless, Verma and n4 closed-form outputs."""
    k, nu = Q(-3), Q(1, 2) * TH1
    a = A_bound(G, k, nu)
    for s in [character_massive(G, k, nu, a + 1, a + 3, 6),
              character_massive(catalog.g3(), Q(-9, 4), Vec([1, 1, 0]), 1, 3, 6),
              character_massless(G, k, nu, a + 2, 6),
              verma_character(G, nu, Q(1, 2), 3, 4),
              n4_closed_form(2, 1, Q(7, 2), 5)]:
        assert s.n_terms() > 0
        for q, lvl in s.terms.items():
            assert type(q) is Q
            for w in lvl:
                assert type(w) is Vec and all(type(x) is Q for x in w), (q, w)


HASH_P = sys.hash_info.modulus  # 2**61 - 1 on 64-bit builds


def _published_samples():
    """Massive (l0 off the half-integer grid), massless, Verma and
    `n4_closed_form` series over psl22, spo2m(3), D(2,1;1) and G3."""
    out = [n4_closed_form(2, 1, Q(7, 2), 5), n4_closed_form(3, 3, Q(13, 3), 4)]
    for g in (catalog.psl22(), catalog.spo2m(3), catalog.d21a(1), catalog.g3()):
        e = lookup(g)
        k = enumerate_unitary_k(g, 1)[0]
        for nu in enumerate_P_plus_k(g, k)[:3]:
            a = A_bound(g, k, nu)
            if not is_extremal(g, k, nu):
                out.append(character_massive(g, k, nu, a + Q(1, 3), a + Q(7, 3), 3))
            if g.family != "D21a" or nu.is_zero():
                out.append(character_massless(g, k, nu, a + 2, 3))
            out.append(verma_character(g, nu, Q(2, 3), 2, 2))
        out.append(verma_character(g, zero_vec(e.n), 0, 2, 2))
    return out


def test_published_weights_hash_as_their_tuples():
    """Every published weight hashes as the tuple of its coordinates, the
    hash its `Vec` caches, and a freshly built equal `Vec` finds its
    coefficient."""
    samples = _published_samples()
    assert len(samples) > 20
    for s in samples:
        assert s.n_terms() > 0
        for q, lvl in s.terms.items():
            for w, c in lvl.items():
                assert hash(w) == hash(tuple(w)), (q, w)
                assert s.coeff(q, Vec(list(w))) == c, (q, w)


def test_weight_denominator_at_the_hash_modulus():
    """A weight whose denominator is the hash modulus P, which has no
    inverse mod P: its coordinates hash as `Fraction`s, and the Verma
    character is the denominator series shifted term by term."""
    nu = Vec([Q(1, HASH_P), 0, 0, 0])
    got = verma_character(G, nu, 0, 1, 2)
    want = QWSeries(E, 1, 2, nu)
    _accumulate(want, fns_series(G, 1, 2), nu)
    assert got == want and got.n_terms() == 10
    assert got.coeff(0, nu) == 1
    assert all(hash(w) == hash(tuple(w)) for lvl in got.terms.values() for w in lvl)


def test_weight_table_at_cap_one_changes_no_record(monkeypatch):
    """Emptying the table of published weights only means that weights are
    built again: with `WEIGHT_CAP` lowered to 1, read at call time, a sweep
    of massive, massless, Verma and `n4_closed_form` characters gives the
    records it gives under the default cap, and the table never holds more
    than one weight."""
    def sweep():
        _fns_cached.cache_clear()
        _orbit_sum.cache_clear()
        characters._weights.clear()
        return [s.records() for s in _published_samples()]

    want = sweep()
    assert len(characters._weights) > 1
    sizes, publish = [], characters._publish

    def counted(*args):
        out = publish(*args)
        sizes.append(len(characters._weights))
        return out

    monkeypatch.setattr(characters, "_publish", counted)
    monkeypatch.setattr(characters, "WEIGHT_CAP", 1)
    assert sweep() == want
    assert len(sizes) > 20 and max(sizes) == 1


def test_n4_closed_form_odd_r_equals_the_fraction_sum():
    """`n4_closed_form` at odd r, where l0 = r/2 is off the integers and the
    heads sit at b_m over it, equals its formula summed in `Fraction`s: the
    fermionic factor (1 + q^c exp(x))^(-2) expanded as
    sum_n (-1)^n (n + 1) q^(nc) exp(nx), flipped to
    q^(-2c) exp(-2x) (1 + q^(-c) exp(-x))^(-2) when c < 0, times the
    denominator, in a wide window."""
    half = Q(1, 2) * TH1
    for m1, r, window, depth in [(1, 1, Q(5, 2), Q(3)), (3, 1, Q(7, 3), Q(4)),
                                 (3, 3, Q(3), Q(2))]:
        l0, wide = Q(r, 2), depth + 2 * window + 4
        total = QWSeries(E, window, wide)
        for m in range(-3, 4):
            b, a = m * m * (m1 + 1) + (r + 1) * m, l0 + m * (m1 + 1)
            for w, x, sign in [(a * TH1, half, 1), (-(a + 1) * TH1, -1 * half, -1)]:
                c, lead_q, lead_w = Q(2 * m + 1, 2), Q(0), ZERO
                if c < 0:
                    c, x, lead_q, lead_w = -c, -1 * x, -2 * c, -2 * x
                n = 0
                while b + lead_q + n * c <= window:
                    total.add_term(b + lead_q + n * c, w + lead_w + n * x,
                                   sign * (-1) ** n * (n + 1))
                    n += 1
        want = QWSeries(E, l0 + window, depth, l0 * TH1)
        _accumulate(want, _times(fns_series(G, window, wide), total), ell=l0)
        got = n4_closed_form(m1, r, l0 + window, depth)
        assert got == want and got.n_terms() > 0, (m1, r, window, depth)


def test_massless_rejects_nonzero_d21a():
    """The test nu = 0 reads any sequence of rationals: a nonzero weight,
    as a `Vec`, a list or a tuple, raises UnsupportedD21a before it reaches
    the level data, and nu = 0 is answered alike in each form."""
    g = catalog.d21a(1, 1)
    e = lookup(g)
    nu = Q(1, 2) * e.components[0].theta
    for kind in (Vec, list, tuple):
        with pytest.raises(UnsupportedD21a):
            character_massless(g, -2, kind(nu), 3, 4)
        with pytest.raises(UnsupportedD21a):
            character_massless(catalog.d21a(2), Q(-4, 3), kind([Q(1, 2), 0, 0]), 2, 2)
        # nu = 0 is fine
        s = character_massless(g, -2, kind([0, 0, 0]), Q(3, 2), 3)
        assert s.coeff(0, zero_vec(3)) == 1
        s = character_massless(catalog.d21a(2), Q(-4, 3), kind([0, 0, 0]), 2, 2)
        assert s == character_massless(catalog.d21a(2), Q(-4, 3), zero_vec(3), 2, 2)


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


def test_truncated_refuses_a_window_it_cannot_fill():
    """A window reaching past the series' own, in q or in depth, would hold
    terms the series never kept: `truncated` raises rather than return them
    missing under the wider labels."""
    f = fns_series(G, 2, 4)
    for q_max, dep, ref in [(3, 5, None), (3, 4, None), (2, 5, None),
                            (Q(5, 2), 0, None), (2, Q(7, 2), -1 * TH1)]:
        with pytest.raises(PreconditionViolated, match="not inside"):
            f.truncated(q_max, dep, ref)


@pytest.mark.parametrize("call", [
    lambda: depth_of(E, Vec([0, 0]), Vec([1, 1, 1, 1])),
    lambda: fns_series(G, 2, 4).truncated(1, 2, Vec([0, 0])),
    lambda: series_from_records(E, [{"q": "0", "weight": ["0", "0"], "coeff": 1}], 2, 2),
], ids=["depth_of", "truncated", "series_from_records"])
def test_wrong_length_weight_is_refused(call):
    """A weight of the wrong length raises rather than being cut to a prefix."""
    with pytest.raises(ParameterOutOfRange, match="4 coordinates"):
        call()


def test_truncated_accepts_a_shifted_ref():
    """Depth is linear: around ref = theta_1 (depth -1 from 0) depth 5 is
    the window depth 4 around 0, and around -theta_1 depth 3 is; both lie
    inside the (2, 4) series and cut nothing from it."""
    f = fns_series(G, 2, 4)
    assert f.truncated(2, 5, TH1) == f
    assert f.truncated(2, 3, -1 * TH1) == f
    assert f.truncated(2, 2, TH1) == fns_series(G, 2, 1)


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
    for m1, r, l0 in [(1, 0, Q(1)), (2, 1, Q(3, 2)), (3, 2, Q(2)),
                      (1, 0, Q(4, 3)), (2, 1, Q(5, 3))]:  # l0 off the half-integer grid
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
        want = QWSeries(E, qm, dep, nu)
        _accumulate(want, _times(fns_series(G, window, dep + 2 * window + 4), total), ell=l0)
        assert got == want and got.n_terms() > 0, (m1, r, l0)


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


def test_massless_extremal_wall_refines():
    """The shift -1 orbit elements of the extremal N=3 weights read the
    denominator one unit of q beyond the window, so a character equals the
    truncation of one computed with a larger q_max."""
    from wmin.weights import A_bound
    g = catalog.spo2m(3)
    e = lookup(g)
    for k, r in [(Q(-1), 2), (Q(-5, 4), 3), (Q(-3, 4), 1)]:
        nu = e.nu_from_labels([r])
        a = A_bound(g, k, nu)
        for top in (Q(3, 2), Q(2)):
            big = character_massless(g, k, nu, a + top + 2, 5)
            assert character_massless(g, k, nu, a + top, 5) == big.truncated(a + top, 5)


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


@pytest.mark.parametrize("coeff", ["3", True, Q(2)], ids=["str", "bool", "Fraction"])
def test_a_coefficient_that_is_no_int_is_refused(coeff):
    """A series holds integer multiples: `add_term` and
    `series_from_records` refuse a coefficient of any class but int, a
    bool or an integral `Fraction` included, rather than convert it (a
    float raises `InexactScalar`, see tests/test_public_api.py)."""
    s = QWSeries(E, 2, 2)
    with pytest.raises(PreconditionViolated, match="is not an int"):
        s.add_term(0, ZERO, coeff)
    with pytest.raises(PreconditionViolated, match="is not an int"):
        series_from_records(E, [{"q": "0", "weight": ["0"] * 4, "coeff": coeff}], 2, 2)
    assert s.terms == {}


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
    assert _times(a, b) == _times(b, a)
    ab, ba = QWSeries(E, 4, 6), QWSeries(E, 4, 6)
    _accumulate(ab, a)
    _accumulate(ab, b)
    _accumulate(ba, b)
    _accumulate(ba, a)
    assert ab == ba
    _accumulate(ab, b, sign=-1)
    assert ab == a


@given(small_series, st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=5), st.integers(min_value=-2, max_value=2))
@example([(0, 2, 1), (2, 0, 1)], 8, 0, -2)    # the level q = 0 is emptied by the depth cut
@example([(0, 0, 1), (8, 0, -1)], 6, 5, 0)    # the level q = 4 lies above the new q_max
@settings(max_examples=30, deadline=None)
def test_truncated_keeps_the_stored_terms_inside_the_window(t, q2, dep, j):
    """`truncated` keeps the stored terms with q <= q_max and depth <= depth
    around the new ref, unchanged, and no empty level."""
    src, q_max, ref = _mk(t), Q(q2, 2), Q(j, 2) * TH1
    got = src.truncated(q_max, dep, ref)
    want = {}
    for q, lvl in src.terms.items():
        for w, c in lvl.items():
            if q <= q_max and depth_of(E, ref, w) <= dep:
                want.setdefault(q, {})[w] = c
    assert got.terms == want
    assert (got.q_max, got.depth, got.ref) == (q_max, dep, ref)


@given(st.sampled_from([Q(1, 2) * TH1, -1 * TH1, XI, -1 * XI + TH1, 2 * TH1, -2 * TH1]),
       st.fractions(min_value=-3, max_value=3, max_denominator=2).filter(bool),
       st.sampled_from([1, -1]), st.sampled_from([1, 2]),
       st.integers(min_value=0, max_value=4))
@example(2 * TH1, Q(1, 2), 1, 2, 3)      # refused: the step raises the margin
@example(-2 * TH1, Q(-1, 2), -1, 1, 3)   # refused after the flip
@example(2 * TH1, Q(3), -1, 2, 4)
@example(Q(1, 2) * TH1, Q(-3, 2), 1, 2, 4)
@settings(max_examples=60, deadline=None)
def test_inverse_power_inverts_its_factor(w, c, sign, power, qm):
    """`divide` applied `power` times to the unit kernel series, times
    (1 - sign q^c exp(w))^power, is 1 in the window, for both signs of c
    (the c < 0 branch is the exact flip) and of sign; a factor whose step
    would raise the window margin is refused."""
    _check_inverse_power(w, c, sign, power, Q(qm))


def test_inverse_power_depth_bounded_geometric():
    # c = 0 needs a positive-depth weight: the negative root -theta_1
    for power in (1, 2):
        for dep in (0, 3, Q(7, 2)):
            _check_inverse_power(-1 * TH1, Q(0), 1, power, Q(2), dep)


def _check_inverse_power(w, c, sign, power, qm, dep=Q(3)):
    lat = E.lattice
    step_w, step_c = (-1 * w, -c) if c < 0 else (w, c)
    d = depth_of(E, ZERO, step_w)
    # product terms at depth <= dep read kernel terms down to dep + power*|d|;
    # for c < 0 the factor lowers q, so only q <= qm - power*|c| is complete
    inv = _LatticeSeries(lat, *lat.window(qm, dep + power * abs(d)))
    if (d <= 0) if step_c == 0 else (Q(lat.dip, lat.scale) * step_c + d < 0):
        with pytest.raises(PreconditionViolated, match="raises the window margin"):
            inv.divide(lat.key(w), lat.q2(c), sign)
        return
    for _ in range(power):
        inv.divide(lat.key(w), lat.q2(c), sign)
    top = qm - power * max(-c, 0)
    got = {}
    for q, lvl in _kernel_terms(inv).items():
        for v, coef in lvl.items():
            for m in range(power + 1):
                key = (q + m * c, v + m * w)
                got[key] = got.get(key, 0) + coef * math.comb(power, m) * (-sign) ** m
    got = {key: x for key, x in got.items()
           if x and key[0] <= top and depth_of(E, ZERO, key[1]) <= dep}
    assert got == ({(Q(0), ZERO): 1} if top >= 0 else {}), (w, c, sign, power)


@given(small_series, small_series)
@settings(max_examples=30, deadline=None)
def test_series_truncation_is_ideal(t1, t2):
    big_a, big_b = _mk(t1, 6, 8), _mk(t2, 6, 8)
    cut_a, cut_b = big_a.truncated(4, 6), big_b.truncated(4, 6)
    assert _times(big_a, big_b).truncated(4, 6) == _times(cut_a, cut_b).truncated(4, 6)


# ---------------------------------------------------------------------------
# the int denominator kernel against the Fraction product build it replaced


def _reference_fns(g, q_max, depth, extra=()):
    """The `Fraction` product build of the NS denominator, kept as the oracle
    for the int kernel: each factor is expanded on its own and multiplied in
    with a full product, every term cut at q <= q_max and
    depth <= depth + s (q_max - q).  `extra` lists (w, c, sign) for further
    factors (1 - sign q^c exp(w))^(-1), c < 0 rewritten as
    (-sign x)^(-1) (1 - sign x^(-1))^(-1).  Returns {q: {w: coeff}}."""
    e = lookup(g)
    zero = zero_vec(e.n)
    dips = [abs(depth_of(e, zero, a)) for a in e.pos_roots_natural]
    dips += [2 * abs(depth_of(e, zero, gma)) for gma, _ in e.delta_prime]
    s = max(dips) if dips else Q(1)
    assert Q(e.lattice.dip, e.lattice.scale) == s

    def series(triples):
        acc = {}
        for q, w, c in triples:
            if q <= q_max and depth_of(e, zero, w) <= depth + s * (q_max - q):
                acc[q, w] = acc.get((q, w), 0) + c
        out = {}
        for (q, w), c in acc.items():
            if c:
                out.setdefault(q, {})[w] = c
        return out

    def product(a, b):
        return series((q1 + q2, w1 + w2, c1 * c2) for q1, l1 in a.items()
                      for q2, l2 in b.items() for w1, c1 in l1.items()
                      for w2, c2 in l2.items())

    def inverse(w, c, sign=1):
        lead, pref = 0, 1
        if c < 0:
            c, w, lead, pref = -c, -1 * w, 1, -sign
        out, j = [], 0
        while (j + lead) * c <= q_max:
            if c == 0 and j > 0 and depth_of(e, zero, j * w) > depth + s * q_max:
                break
            out.append(((j + lead) * c, (j + lead) * w, pref * sign ** j))
            j += 1
        return series(out)

    rank = len(e.simple_roots_natural) + (1 if e.center else 0)
    out = series([(Q(0), zero, 1)])
    n = 1
    while n - 1 <= q_max:
        if Q(2 * n - 1, 2) <= q_max:
            for gma, mult in e.delta_prime:
                fac = series([(Q(0), zero, 1), (Q(2 * n - 1, 2), -1 * gma, 1)])
                for _ in range(mult):
                    out = product(out, fac)
        if n <= q_max:
            fac = inverse(zero, Q(n))
            for _ in range(rank):
                out = product(out, fac)
        for alpha in e.pos_roots_natural:
            out = product(out, inverse(-1 * alpha, Q(n - 1)))
            if n <= q_max:
                out = product(out, inverse(alpha, Q(n)))
        n += 1
    for w, c, sign in extra:
        out = product(out, inverse(w, c, sign))
    return out


def _buckets(series):
    """The depth buckets of each level of a kernel series: its own while it
    is built, read off its rows (`_bucketed`) once it is held."""
    if series.levels is not None:
        return series.levels
    return [_bucketed(rows, cap) for rows, cap in zip(series.rows, series.caps)]


def _kernel_terms(series):
    """{q: {w: coeff}} of an int-keyed kernel series, every term kept: each
    packed key unpacked, and checked to lie in the depth bucket of its
    weight, with no empty bucket and no zero coefficient."""
    lat = series.lat
    out = {}
    for t, lvl in enumerate(_buckets(series)):
        for d, bucket in lvl.items():
            assert bucket and all(bucket.values())
            for p, c in bucket.items():
                xs = lat.unpack(p)
                assert lat.pack(xs) == p and -sum(map(mul, lat.cov, xs)) == d
                out.setdefault(Q(t, 2), {})[Vec(Q(x, lat.denom) for x in xs)] = c
    return out


def _asked(g, q_max, depth):
    """`_fns_cached`'s answer cut to the asked window (`_window`): the answer
    may be a held series of a window that contains it."""
    asked = lookup(g).lattice.window(Q(q_max), Q(depth))
    return _fns_cached(g, *asked).copy(*_window(lookup(g).lattice, *asked))


# (algebra, window, depth): small windows, one of them not a half-integer
PARITY_CASES = [(catalog.psl22(), Q(7, 6), Q(4)), (catalog.psl22(), Q(3), Q(5)),
                (catalog.spo2m(3), Q(5, 2), Q(4)), (catalog.sl2m(3), Q(3, 2), Q(3)),
                (catalog.osp4m(4), Q(1), Q(3)), (catalog.d21a(2, 3), Q(2), Q(4)),
                (catalog.g3(), Q(3, 2), Q(3)), (catalog.f4(), Q(1), Q(2))]


@pytest.mark.parametrize("g,window,depth", PARITY_CASES,
                         ids=[f"{g.label()}-{w}-{d}" for g, w, d in PARITY_CASES])
def test_int_kernel_equals_fraction_products(g, window, depth):
    assert _kernel_terms(_asked(g, window, depth)) == _reference_fns(g, window, depth)


def test_int_kernel_isotropic_divisions_equal_fraction_products():
    """The in-place isotropic corrections, and the squared fermionic factors
    (1 + q^c exp(+-theta_1/2))^(-2) of `n4_closed_form`, c of both signs
    (c < 0 is the flip), against a full product with the reference
    expansion."""
    g = catalog.spo2m(3)
    xi = lookup(g).xi
    n4 = [[(sw * Q(1, 2) * TH1, c, -1)] * 2 for sw in (1, -1) for c in (Q(1, 2), Q(-1, 2))]
    for window, depth in [(Q(5, 2), Q(3)), (Q(13, 6), Q(2))]:
        for extra in [[(XI, Q(1, 2), -1)], [(XI, Q(-1, 2), -1), (-1 * XI, Q(3, 2), -1)], *n4]:
            piece = _asked(G, window, depth)
            for w, c, sign in extra:
                piece.divide(E.lattice.key(w), E.lattice.q2(c), sign)
            assert _kernel_terms(piece) == _reference_fns(G, window, depth, extra)
        extra = [(xi, Q(-1, 2), -1), (-1 * xi, Q(1, 2), -1)]
        piece = _asked(g, window, depth)
        for w, c, sign in extra:
            piece.divide(lookup(g).lattice.key(w), lookup(g).lattice.q2(c), sign)
        assert _kernel_terms(piece) == _reference_fns(g, window, depth, extra)


FAMILY_IDS = st.one_of(
    st.sampled_from([catalog.psl22(), catalog.f4(), catalog.g3()]),
    st.integers(min_value=3, max_value=6).map(catalog.sl2m),
    st.sampled_from([3, 5, 6, 7]).map(catalog.spo2m),
    st.sampled_from([4, 6, 8]).map(catalog.osp4m),
    st.tuples(st.integers(min_value=1, max_value=40),
              st.integers(min_value=1, max_value=40)).map(lambda t: catalog.d21a(*t)))


@given(FAMILY_IDS)
@settings(max_examples=40, deadline=None)
def test_affine_cartan_matrix_is_integral(g):
    """<beta_i, beta_j^vee> over the affine simple roots of g^nat (the simple
    roots, then eta_i = delta - theta_i) is an int generalized Cartan matrix:
    2 on the diagonal, non-positive off it, equal to the `Fraction` pairing;
    x+d pairs to 0 with the finite roots and to 1 with each eta_i."""
    e = lookup(g)
    lat = e.lattice
    roots = ([(a, Q(0)) for a in e.simple_roots_natural]
             + [(-1 * c.theta, Q(1)) for c in e.components])
    assert len(lat.cartan) == len(roots)
    for (fi, _), row in zip(roots, lat.cartan):
        assert len(row) == len(roots)
        for (fj, _), a in zip(roots, row):
            assert type(a) is int and a == 2 * e.form(fi, fj) / e.form(fj, fj)
    assert all(row[i] == 2 for i, row in enumerate(lat.cartan))
    assert all(a <= 0 for i, row in enumerate(lat.cartan) for j, a in enumerate(row) if i != j)
    assert lat.xd == (0,) * len(e.simple_roots_natural) + (1,) * len(e.components)


@given(FAMILY_IDS, st.data())
@settings(max_examples=50, deadline=None)
def test_frame_solve_restricts_and_measures_depth(g, data):
    """The frame's solve, read back: the projection restricts v orthogonally
    onto the root span of g^nat, and the depth covector, the projection
    coefficients summed, gives every simple root of g^nat depth -1.  The
    orbit's keys are the keys of `Fraction` weights: `rkeys` those of the
    finite parts of the affine simple roots, which are their own
    restrictions, and `iso_key` that of the restriction of theta/2 - xi."""
    e = lookup(g)
    lat = e.lattice
    v = Vec(data.draw(st.lists(st.fractions(min_value=-4, max_value=4, max_denominator=6),
                               min_size=e.n, max_size=e.n)))
    got = e.restrict(v)
    for a in e.simple_roots_natural:
        assert e.form(v - got, a) == 0
        assert depth_of(e, zero_vec(e.n), a) == -1
    fins = [*e.simple_roots_natural, *(-1 * c.theta for c in e.components)]
    assert lat.rkeys == tuple(lat.key(fin) for fin in fins)
    assert all(e.restrict(fin) == fin for fin in fins)
    iso = e.restrict(Q(1, 2) * e.theta - e.xi)
    assert lat.iso_key == lat.key(iso)
    assert Vec(Q(x, lat.denom) for x in lat.iso_key[1:]) == iso
    assert lat.iso_key[0] == lat.scale * depth_of(e, zero_vec(e.n), iso)


def test_lattice_raises_on_a_non_integral_pairing():
    with pytest.raises(PreconditionViolated, match="not integral"):
        _Lattice._ints(E, "affine Cartan matrix row", [Q(2), Q(-1, 2)])


def _ns_factors(entry, q_max):
    """The factors of the NS denominator with exponent c <= q_max, as
    (w, c, odd): (1 + q^c exp(w)) when odd, else (1 - q^c exp(w))^(-1).
    Per n >= 1: (1 + q^{n-1/2} exp(-gamma)) for gamma in Delta' (with
    multiplicity), (1 - q^n)^(-1) rank times, and (1 - q^{n-1} exp(-alpha))
    and (1 - q^n exp(alpha)) for the positive roots alpha of g^nat: the
    `Fraction` oracle for the frame's int table `_Lattice.ns`."""
    rank = len(entry.simple_roots_natural) + (1 if entry.center else 0)
    zero = zero_vec(entry.n)
    out = []
    for n in range(1, math.floor(q_max) + 2):
        out += [(-1 * gma, Q(2 * n - 1, 2), True)
                for gma, mult in entry.delta_prime for _ in range(mult)]
        out += [(zero, Q(n), False)] * rank
        for alpha in entry.pos_roots_natural:
            out += [(-1 * alpha, Q(n - 1), False), (alpha, Q(n), False)]
    return [f for f in out if f[1] <= q_max]


@given(FAMILY_IDS, st.integers(min_value=0, max_value=6))
@settings(max_examples=60, deadline=None)
def test_denominator_steps_never_raise_the_margin(g, q2_max):
    """Window monotonicity: s*c >= |depth(w)| for every factor with c > 0 and
    depth(w) > 0 for c = 0, so a step by q^c exp(w) changes the sloped margin
    depth + s(q_max - q) - depth(w_term) by -(s c + depth(w)) <= 0 and a term
    that is cut once stays cut."""
    e = lookup(g)
    s = Q(e.lattice.dip, e.lattice.scale)
    factors = _ns_factors(e, Q(q2_max, 2))
    assert factors or q2_max == 0 and not e.pos_roots_natural
    for w, c, _ in factors:
        d = depth_of(e, zero_vec(e.n), w)
        assert s * c >= abs(d) if c > 0 else d > 0, (g.label(), w, c)
        assert s * c + d >= 0


def test_q0_factor_needs_positive_depth():
    """(1 - exp(w))^(-1) never ends when depth(w) <= 0: the expansion
    raises instead of looping (w = 0 and w = +theta_1 on psl22)."""
    lat = E.lattice
    for w in (ZERO, TH1):
        with pytest.raises(PreconditionViolated):
            _LatticeSeries(lat, *lat.window(Q(2), Q(3))).divide(lat.key(w), 0, 1)
    # a step whose depth drop outruns the headroom slope is refused as well
    with pytest.raises(PreconditionViolated):
        _LatticeSeries(lat, *lat.window(Q(2), Q(3))).divide(lat.key(4 * TH1), 1, 1)


def test_lattice_keys_never_round():
    lat = E.lattice
    assert Vec(Q(x, lat.denom) for x in lat.key(XI - TH1)[1:]) == XI - TH1
    assert lat.key(XI)[0] == -2  # depth(xi) = -1/2, times scale 4
    # keys are linear, depth entry included
    assert lat.key(XI - TH1) == tuple(map(lambda a, b: a - b, lat.key(XI), lat.key(TH1)))
    for w in (Q(1, 2) * XI, Vec([Q(1, 3), 0, 0, 0])):
        with pytest.raises(PreconditionViolated, match="off the 1/2 lattice"):
            lat.key(w)
    with pytest.raises(PreconditionViolated):
        lat.q2(Q(1, 3))


@given(FAMILY_IDS, st.integers(min_value=0, max_value=9))
@example(catalog.psl22(), 0)
@example(catalog.sl2m(3), 5)
@example(catalog.spo2m(3), 5)
@example(catalog.osp4m(8), 4)
@example(catalog.d21a(2, 3), 3)
@example(catalog.g3(), 7)
@example(catalog.f4(), 6)
@settings(max_examples=40, deadline=None)
def test_ns_table_equals_the_fraction_factors(g, q2_max):
    """The frame's int table of NS factors, expanded for a window, is
    `_ns_factors` in its order, each factor as `lat.key`/`lat.q2` of its
    `Fraction` weight and exponent, on every catalog family."""
    e = lookup(g)
    lat = e.lattice
    q_max = Q(q2_max, 2)
    want = []
    for w, c, odd in _ns_factors(e, q_max):
        key = lat.key(w)
        want.append((key[0], lat.pack(key[1:]), lat.q2(c), odd))
    assert characters._ns_steps(lat, q2_max) == want
    assert lat.rate == max([1] + [abs(x) for w, _, _ in _ns_factors(e, Q(2))
                                  for x in lat.key(w)[1:]])


@given(FAMILY_IDS, st.sampled_from([Q(0), Q(1, 2), Q(7, 6), Q(2), Q(5, 2)]),
       st.sampled_from([Q(0), Q(1), Q(5, 2), Q(4)]))
@example(catalog.psl22(), Q(5, 2), Q(4))
@example(catalog.sl2m(3), Q(2), Q(1))
@example(catalog.spo2m(3), Q(5, 2), Q(4))
@example(catalog.osp4m(8), Q(2), Q(1))
@example(catalog.d21a(2, 3), Q(2), Q(5, 2))
@example(catalog.g3(), Q(2), Q(6))
@example(catalog.f4(), Q(7, 6), Q(1))
@settings(max_examples=40, deadline=None)
def test_denominator_in_any_factor_order_is_the_same(g, q_max, depth):
    """`_fns_cached` applies the NS factors in decreasing c; applied in the
    table order of `_ns_steps` they give the same series, level for level,
    and the int caps are the `Fraction` floors
    floor(scale * (depth + s (q_max - t/2))) of the snapped window
    (`_snapped`)."""
    lat = lookup(g).lattice
    want = _LatticeSeries(lat, *lat.window(q_max, depth))
    for dk, fp, c2, odd in characters._ns_steps(lat, math.floor(2 * q_max)):
        want._margin(dk, c2)
        if odd:
            want._push_up(dk, fp, c2, 1, True)
        else:
            want._divide(dk, fp, c2, 1)
    got = _fns_cached.__wrapped__(g, *lat.window(q_max, depth))
    assert _buckets(got) == want.levels
    assert got.caps == _fraction_window(lat, *_snapped(lat, q_max, depth))[0]


def test_ns_table_steps_are_margin_checked(monkeypatch):
    """A table factor that would raise the window margin is refused by the
    table build as by `divide`: a c = 0 step of depth 0, and a c > 0 step
    that dips one unit faster than the slope allows."""
    lat = E.lattice
    for bad in [(0, lat.pack([1, 0, 0, 0]), -2, False),
                (-(lat.dip // 2) - 1, 0, -1, True)]:
        monkeypatch.setattr(lat, "ns", lat.ns + (bad,))
        with pytest.raises(PreconditionViolated, match="raises the window margin"):
            _fns_cached.__wrapped__(G, *lat.window(Q(1), Q(3)))
        monkeypatch.undo()
    assert _kernel_terms(_fns_cached.__wrapped__(G, *lat.window(Q(1), Q(3)))) \
        == _reference_fns(G, Q(1), Q(3))


PACK_FRAMES = [lookup(g).lattice for g in (catalog.psl22(), catalog.spo2m(3), catalog.g3(),
                                           catalog.sl2m(6), catalog.osp4m(8))]


@given(st.sampled_from(PACK_FRAMES), st.data())
@settings(max_examples=80, deadline=None)
def test_packing_round_trips_and_is_linear_inside_the_bound(lat, data):
    """On coordinates with every |x_i| < R/2, `unpack` inverts `pack`, and
    `pack` is linear: the packed sum of two keys is the sum of their packed
    keys, and f times a key packs to f times its packed key, whenever the
    result stays inside the box."""
    half, n = lat.radix // 2, len(lat.cov)
    coord = st.integers(min_value=-half, max_value=half)
    x = data.draw(st.lists(coord, min_size=n, max_size=n))
    y = data.draw(st.lists(coord, min_size=n, max_size=n))
    f = data.draw(st.integers(min_value=-3, max_value=3))
    assert lat.unpack(lat.pack(x)) == x
    s = [a + b for a, b in zip(x, y)]
    assert lat.pack(s) == lat.pack(x) + lat.pack(y)
    if all(abs(a) <= half for a in s):
        assert lat.unpack(lat.pack(x) + lat.pack(y)) == s
    fx = [f * a for a in x]
    if all(abs(a) <= half for a in fx):
        assert lat.unpack(f * lat.pack(x)) == fx


def test_packing_aliases_just_outside_the_box():
    """Why the bound is needed: one step past R/2 a key packs like another."""
    lat = E.lattice
    half = lat.radix // 2
    assert lat.pack([half + 1, 0, 0, 0]) == lat.pack([-half, 1, 0, 0])


def test_window_past_the_packing_bound_is_refused():
    """A window whose keys could leave the packing box raises rather than
    return terms: a deep window, a factor far off the root span (the series
    is left unchanged) and a head key far out at the merge.  A far weight
    is no head key: the merge keys are relative to it, so a Verma character
    there is answered, the denominator shifted term by term."""
    lat = E.lattice
    big = Q(lat.radix, lat.scale)
    with pytest.raises(PreconditionViolated, match="packing bound"):
        _LatticeSeries(lat, *lat.window(Q(1), big))
    with pytest.raises(PreconditionViolated, match="packing bound"):
        fns_series(G, 1, big)
    series = _LatticeSeries(lat, *lat.window(Q(2), Q(3)))
    series.divide(lat.key(-1 * TH1), 0, 1)
    before = _kernel_terms(series)
    far = Vec([Q(lat.radix, lat.denom), 0, 0, 0])  # depth 0: the margin holds
    with pytest.raises(PreconditionViolated, match="packing bound"):
        series.divide(lat.key(far), 2, 1)
    assert _kernel_terms(series) == before
    want = QWSeries(E, 2, 3, far)
    _accumulate(want, fns_series(G, 2, 3), far)
    assert verma_character(G, far, 0, 2, 3) == want and want.n_terms() > 0
    asked = lat.window(Q(2), Q(3))
    fns, (_, span) = _fns_cached(G, *asked), _window(lat, *asked)
    bound = fns.rate * span  # the bound of a build in the asked window
    for x in (lat.radix // 2 - bound + 1, lat.radix // 2 - bound):
        heads = [((0, x, 0, 0, 0), 0, 1)]
        out = QWSeries(E, 2, 3)
        if 2 * (x + bound) >= lat.radix:
            with pytest.raises(PreconditionViolated, match="packing bound"):
                _sum_pieces(lat, E._scaled(ZERO), *asked, heads, [fns], span)
        else:  # just inside the bound the merge answers
            levels, _ = _sum_pieces(lat, E._scaled(ZERO), *asked, heads, [fns], span)
            assert _placed(out, Q(0), levels).coeff(0, Vec([Q(x, lat.denom), 0, 0, 0])) == 1
    # just inside the bound the same calls are answered
    assert fns_series(G, 1, 3).n_terms() > 0


def test_a_short_piece_raises():
    """`_sum_pieces` refuses a piece without every level its head reaches,
    T - 2h, rather than cut the character short; a head one q higher reads
    two levels fewer, and the same piece serves it."""
    lat = E.lattice
    asked = lat.window(Q(2), Q(3))
    fns, span = _asked(G, Q(2), Q(3)).hold(), _window(lat, *asked)[1]
    short = fns.copy(fns.caps[:-1], span).hold()
    for piece, shift in [(fns, 0), (short, 1)]:
        levels, _ = _sum_pieces(lat, E._scaled(ZERO), *asked, [((0,) * 5, shift, 1)],
                                [piece], span)
        assert max(levels) == 4
    with pytest.raises(PreconditionViolated, match="cannot fill"):
        _sum_pieces(lat, E._scaled(ZERO), *asked, [((0,) * 5, 0, 1)], [short], span)


def test_n4_closed_form_divides_its_own_window():
    """`n4_closed_form` copies its own window of the denominator, the
    levels each summand reads, under that window's caps and span, whatever
    held series answers it: after a wider window is held its pieces are
    those of a cold call, bucket for bucket."""
    merge = characters._sum_pieces

    def pieces():
        got = []

        def spy(lat, base, top, dcap, heads, ps, within):
            ps = list(ps)
            got.extend((_buckets(p), p.caps, p.span, p.rate) for p in ps)
            return merge(lat, base, top, dcap, heads, ps, within)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(characters, "_sum_pieces", spy)
            n4_closed_form(2, 1, Q(7, 2), 3)
        return got

    _fns_cached.cache_clear()
    cold = pieces()
    _fns_cached.cache_clear()
    fns_series(G, 4, 5)  # (4, 5) contains the closed form's (3, 3)
    assert pieces() == cold and len(cold) == 4
    assert _fns_cached.cache_info().hits == 1


NESTED_FAMILIES = [catalog.psl22(), catalog.spo2m(3), catalog.g3(), catalog.d21a(2, 3)]


@st.composite
def nested_requests(draw):
    """(algebra, k, requests): two to five character requests at one of the
    first two non-collapsing unitary levels, each (nu, l0 - A or None for
    massless, window q_max - l0, depth), massive at non-extremal weights,
    massless D(2,1;a) at nu = 0, in the order drawn or in descending
    (window, depth), so that a later window often lies inside an earlier
    one."""
    g = draw(st.sampled_from(NESTED_FAMILIES))
    e = lookup(g)
    ks = [k for k in enumerate_unitary_k(g, 8) if not level_data(g, k).collapsing][:2]
    k = draw(st.sampled_from(ks))
    nus = enumerate_P_plus_k(g, k)
    massive = [nu for nu in nus if not is_extremal(g, k, nu)]
    requests = []
    for _ in range(draw(st.integers(min_value=2, max_value=5))):
        above = draw(st.sampled_from([None, Q(1, 3), Q(1)])) if massive else None
        pool = massive if above is not None else \
            [zero_vec(e.n)] if g.family == "D21a" else nus
        nu = draw(st.sampled_from(pool))
        window = draw(st.sampled_from([Q(0), Q(1, 2), Q(1), Q(3, 2), Q(2)]))
        depth = draw(st.sampled_from([Q(0), Q(1), Q(2), Q(4)]))
        requests.append((nu, above, window, depth))
    if draw(st.booleans()):
        requests.sort(key=lambda r: (r[2], r[3]), reverse=True)
    return g, k, requests


def _request(g, k, nu, above, window, depth):
    """The records of a character request (massless when `above` is None,
    else massive at l0 = A + above), or the refusal it raises."""
    a = A_bound(g, k, nu)
    try:
        if above is None:
            return character_massless(g, k, nu, a + window, depth).records()
        return character_massive(g, k, nu, a + above, a + above + window, depth).records()
    except PreconditionViolated as exc:
        return type(exc), str(exc)


SPO3 = catalog.spo2m(3)


@given(nested_requests())
@example((G, Q(-3), [(ZERO, Q(1, 3), Q(1, 2), Q(4)),    # Q' > Q, D' + sQ' <= D + sQ
                     (ZERO, Q(1, 3), Q(1), Q(1))]))
@example((G, Q(-3), [(ZERO, Q(1, 3), Q(2), Q(0)),      # D' <= D + sQ < D' + sQ'
                     (ZERO, Q(1, 3), Q(1), Q(2))]))
@example((G, Q(-3), [(ZERO, Q(1, 3), Q(2), Q(4)),      # a quotient inside a plain window
                     (ZERO, None, Q(1), Q(2)), (Q(1, 2) * TH1, None, Q(1), Q(1))]))
@example((SPO3, Q(-1), [(lookup(SPO3).nu_from_labels([2]), None, Q(2), Q(2)),  # q_shift -1
                        (lookup(SPO3).nu_from_labels([2]), None, Q(1), Q(1)),
                        (zero_vec(lookup(SPO3).n), Q(1), Q(1), Q(1))]))
@example((catalog.g3(), Q(-9, 4), [(Vec([1, 1, 0]), Q(1), Q(2), Q(4)),
                                   (Vec([1, 1, 0]), Q(1, 3), Q(3, 2), Q(2))]))
@settings(max_examples=40, deadline=None)
def test_held_windows_answer_as_their_own_builds(case):
    """`_fns_cached` answers a window from a held series whose window
    contains it: over a sequence of requests of one family, each equals the
    request computed with `_fns_cached` and `_orbit_sum` emptied before
    it, its refusals included."""
    g, k, requests = case
    cold = []
    for r in requests:
        _fns_cached.cache_clear()
        _orbit_sum.cache_clear()
        cold.append(_request(g, k, *r))
    _fns_cached.cache_clear()
    _orbit_sum.cache_clear()
    assert [_request(g, k, *r) for r in requests] == cold, case


FRAMES = {g: lookup(g).lattice for g in (G, SPO3, catalog.g3())}
IMAGES = (None, (1, 1, 0, 0, 0, 0), (-1, 1, 0, 0, 0, 0))  # (2(x+d), *key) or None
WINDOWS = st.tuples(st.fractions(min_value=0, max_value=3, max_denominator=6),
                    st.fractions(min_value=0, max_value=6, max_denominator=6))
STORE_REQUESTS = st.lists(st.tuples(st.sampled_from(list(FRAMES)), WINDOWS,
                                    st.sampled_from(IMAGES)), min_size=1, max_size=8)
S_PSL = Q(E.lattice.dip, E.lattice.scale)


def _fraction_window(lat, q_max, depth):
    """The caps and the span of the sloped window (q_max, depth) as
    `Fraction` floors, kept as the oracle of the kernel's int window:
    caps[t] = floor(x - dip t/2) for t <= floor(2 q_max),
    x = scale (depth + s q_max), s = dip / scale, and span =
    floor(2 q_max) + max(floor(x), 0)."""
    x = lat.scale * (depth + Q(lat.dip, lat.scale) * q_max)
    top = math.floor(2 * q_max)
    return [math.floor(x - Q(lat.dip * t, 2)) for t in range(top + 1)], top + max(math.floor(x), 0)


def _snapped(lat, q_max, depth):
    """The window (T/2, C/scale) a request (q_max, depth) is snapped to,
    as `Fraction`s: T = floor(2 q_max) and C = floor(scale * depth), the
    largest index and depth entry it keeps."""
    return Q(math.floor(2 * q_max), 2), Q(math.floor(lat.scale * depth), lat.scale)


ALL_ALGEBRAS = [catalog.psl22(), catalog.f4(), catalog.g3(), *map(catalog.sl2m, range(3, 7)),
                *map(catalog.spo2m, (3, 5, 6, 7)), *map(catalog.osp4m, (4, 6, 8)),
                catalog.d21a(2), catalog.d21a(2, 3)]
ALL_FRAMES = [lookup(g).lattice for g in ALL_ALGEBRAS]
# a frame of odd dip, which no catalog frame has: `_window` and the snap read
# only the scale and the dip
ODD_DIP = SimpleNamespace(scale=2, dip=3)
SLOPED = st.fractions(min_value=0, max_value=4, max_denominator=12)


@given(st.sampled_from(ALL_FRAMES + [ODD_DIP]), SLOPED, SLOPED)
@example(E.lattice, Q(13, 6), Q(7, 3))
@example(lookup(catalog.g3()).lattice, Q(2), Q(61, 10))
@example(ODD_DIP, Q(5, 6), Q(7, 3))
@settings(max_examples=120, deadline=None)
def test_int_window_is_the_fraction_window(lat, q_max, depth):
    """`_window` of the kernel window `_Lattice.window` of (Q, D) gives the
    caps and span that the `Fraction` floors give at the snapped window
    (`_snapped`), on every catalog frame and one of odd dip, for windows
    that are not half-integers and fractional depths; and the snapped
    window lies inside the asked one, caps and span."""
    top, cap = _Lattice.window(lat, q_max, depth)
    assert (top, cap) == (math.floor(2 * q_max), math.floor(lat.scale * depth))
    caps, span = _window(lat, top, cap)
    assert (caps, span) == _fraction_window(lat, *_snapped(lat, q_max, depth))
    asked_caps, asked_span = _fraction_window(lat, q_max, depth)
    assert len(caps) == len(asked_caps) and span <= asked_span
    assert all(a <= b for a, b in zip(caps, asked_caps))


@given(st.sampled_from(ALL_FRAMES + [ODD_DIP]), SLOPED, SLOPED, SLOPED, SLOPED)
@example(E.lattice, Q(2), Q(3), Q(13, 6), Q(17, 6))   # not nested, asked contained
@example(E.lattice, Q(1), Q(4), Q(21, 20), Q(4))      # not nested, equal (T, C)
@example(E.lattice, Q(2), Q(3), Q(2), Q(3) + Q(1, 8))  # nested the other way, equal (T, C)
@example(ODD_DIP, Q(2), Q(1), Q(3, 2), Q(2))          # caps'[T'] = caps[T'] at odd dip
@example(ODD_DIP, Q(2), Q(1), Q(1), Q(2))             # caps'[T'] > caps[T'] at odd dip
@settings(max_examples=200, deadline=None)
def test_int_containment_is_the_cap_containment(lat, q, d, q2, d2):
    """The store's test at one level, T' < len(caps) and C' <= caps[T'],
    for an asked (Q', D') and a held (Q, D) snapped to (T', C') and (T, C),
    holds exactly when the asked caps lie under the held ones on every
    level t <= T', by the `Fraction` oracle at the snapped windows, dip even
    or odd; then the asked span lies under the held one too, and the held
    series holds every term of the asked build."""
    (ta, ca), (th, ch) = _Lattice.window(lat, q2, d2), _Lattice.window(lat, q, d)
    held_caps = _window(lat, th, ch)[0]
    asked = _fraction_window(lat, *_snapped(lat, q2, d2))
    held = _fraction_window(lat, *_snapped(lat, q, d))
    contained = ta <= th and all(a <= h for a, h in zip(asked[0], held[0]))
    assert (ta < len(held_caps) and ca <= held_caps[ta]) == contained
    if contained:
        assert asked[1] <= held[1]


@st.composite
def snap_cases(draw):
    """(algebra, k, nu, massless, window q_max - l0, depth) over every
    catalog frame of `ALL_FRAMES` with a unitary level (osp4m has none, so
    no character request passes its preconditions there): one of its first
    two unitary levels, one of the first three weights of P^+_k (0 where
    P^+_k is infinite, and for a massless D(2,1;a) request), massive at
    l0 = A + 1/3 or massless at A, with windows that are not half-integers
    and fractional depths, up to 1 on sl2m, whose massless characters grow
    fastest (sl2m(6) at window 5/2, depth 3: 10 s)."""
    g = draw(st.sampled_from([g for g in ALL_ALGEBRAS if enumerate_unitary_k(g, 1)]))
    k = draw(st.sampled_from(enumerate_unitary_k(g, 2)))
    massless = draw(st.booleans())
    try:
        nus = enumerate_P_plus_k(g, k)[:3]
    except WminError:
        nus = []
    if not nus or massless and g.family == "D21a":
        nus = [zero_vec(lookup(g).n)]
    nu = draw(st.sampled_from(nus))
    window = draw(st.fractions(min_value=0, max_value=1 if g.family == "sl2m" else Q(5, 2),
                               max_denominator=12))
    depth = draw(st.fractions(min_value=0, max_value=3, max_denominator=12))
    return g, k, nu, massless, window, depth


@given(snap_cases())
@example((G, Q(-3), Q(1, 2) * TH1, False, Q(5, 6), Q(7, 3)))
@example((G, Q(-3), ZERO, True, Q(7, 6), Q(4, 3)))
@example((catalog.g3(), Q(-9, 4), Vec([1, 1, 0]), False, Q(7, 3), Q(5, 2)))
@settings(max_examples=60, deadline=None)
def test_a_character_is_that_of_its_snapped_window(case):
    """A massive or massless character at (q_max, depth) has the terms of
    the one at (l0 + T/2, C/scale), its kernel window (T, C) read back as
    `Fraction`s (`_snapped`), each computed with the character caches
    emptied before it, refusals included: a request is read only through
    its two flat ints."""
    g, k, nu, massless, window, depth = case
    l0 = A_bound(g, k, nu) + (0 if massless else Q(1, 3))

    def answer(window, depth):
        _fns_cached.cache_clear()
        _orbit_sum.cache_clear()
        try:
            got = character_massless(g, k, nu, l0 + window, depth) if massless \
                else character_massive(g, k, nu, l0, l0 + window, depth)
        except WminError as err:
            return type(err), str(err)
        return got.terms

    assert answer(window, depth) == answer(*_snapped(lookup(g).lattice, window, depth)), case


def _fraction_store(requests, maxsize):
    """The answers of the store as its rule decides them, with the caps
    worked out as `Fraction` floors: each request (Q, D) is snapped
    (`_snapped`) and answered by the first held window of its family and
    image, in the order they were built, whose caps contain its caps at
    every level (an equal window included), else built (as its index) and
    held, the least recently used dropped past `maxsize`; with the counts
    (hits, misses)."""
    built, used, out, counts = [], [], [], [0, 0]  # [g, caps, image, answer], by build, by use
    for i, (g, (q, d), img) in enumerate(requests):
        caps = _fraction_window(FRAMES[g], *_snapped(FRAMES[g], q, d))[0]
        inside = [h for h in built if h[0] == g and h[2] == img and len(caps) <= len(h[1])
                  and all(a <= b for a, b in zip(caps, h[1]))]
        if inside:
            got = inside[0]
            used.remove(got)
            counts[0] += 1
        else:
            got = [g, caps, img, i]
            built.append(got)
            counts[1] += 1
        used.append(got)
        if len(used) > maxsize:
            built.remove(used.pop(0))
        out.append(got[3])
    return out, counts


@given(STORE_REQUESTS)
@example([(G, (Q(2), Q(3)), None), (G, (Q(2), Q(3)), None)])              # equal windows
@example([(G, (Q(2), Q(3)), None), (G, (Q(2), Q(8, 3)), None)])           # Q' = Q
@example([(G, (Q(2), Q(3)), None), (G, (Q(3, 2), Q(3) + S_PSL / 2), None)])  # C' = caps[T']
@example([(G, (Q(2), Q(3)), None), (G, (Q(3, 2), Q(3) + S_PSL / 2 + Q(1, 6)), None)])  # same C'
@example([(G, (Q(2), Q(3)), None), (G, (Q(13, 6), Q(1)), None)])          # Q' > Q, T' = T
@example([(G, (Q(2), Q(3)), None), (G, (Q(13, 6), Q(17, 6)), None)])      # Q' > Q, C' < C
@example([(G, (Q(2), Q(3)), None), (G, (Q(2), Q(3) + Q(1, 8)), None)])    # D' > D, equal (T, C)
@example([(G, (Q(2), Q(3)), None), (G, (Q(5, 2), Q(1)), None)])           # T' > T
# the third request lies inside the window of another family, then image
@example([(SPO3, (Q(3), Q(6)), None), (G, (Q(1), Q(1)), None), (G, (Q(3, 2), Q(1)), None)])
@example([(G, (Q(2), Q(3)), IMAGES[1]), (G, (Q(1), Q(1)), None), (G, (Q(3, 2), Q(1)), None)])
@example([(G, (Q(1), Q(1)), None), (G, (Q(2), Q(2)), None), (G, (Q(3), Q(3)), None),
          (G, (Q(1, 2), Q(1)), None), (G, (Q(3), Q(3)), None)])           # past maxsize
@settings(max_examples=150, deadline=None)
def test_held_window_int_match_is_the_fraction_test(requests):
    """`_held_windows` answers every call by one rule, the int test
    T' < len(caps) and C' <= caps[T'] of the asked kernel window against a
    held series' caps, equality included: from the first held window of
    the same family and image, in build order, that contains the asked
    one; it builds only when none does, and drops the least recently used
    past its size: over a sequence of requests to a store of two entries,
    every answer and count is that of the model store over the `Fraction`
    floors of the snapped windows, and every group of the store holds a
    series, the groups `currsize` of them in all, each entry [last use,
    series] with no window beside them."""
    store = _held_windows(2)(lambda aid, top, cap, image: SimpleNamespace(
        caps=_window(FRAMES[aid], top, cap)[0]))
    built = {}
    got = []
    for i, (g, (q, d), img) in enumerate(requests):
        before = store.cache_info().misses
        series = store(g, *FRAMES[g].window(q, d), img)
        if store.cache_info().misses > before:
            built[id(series)] = (i, series)
        got.append(built[id(series)][0])
    want, counts = _fraction_store(requests, 2)
    info = store.cache_info()
    assert got == want
    assert [info.hits, info.misses] == counts and len(info) == 4
    assert info.currsize == min(2, counts[1])
    cells = dict(zip(store.__code__.co_freevars, (c.cell_contents for c in store.__closure__)))
    groups = cells["groups"]
    assert all(groups.values())
    assert sum(len(group) for group in groups.values()) == info.currsize
    assert all(len(entry) == 2 and entry[1].__class__ is SimpleNamespace
               for group in groups.values() for entry in group)


def _plain(x):
    """x is made of ints, bools, None and `AlgebraId`s, in tuples or lists:
    no `Fraction` on the way."""
    if isinstance(x, (tuple, list)):
        return all(map(_plain, x))
    return x is None or x.__class__ in (int, bool, catalog.AlgebraId)


def test_store_keys_hold_no_fraction(monkeypatch):
    """Massive, massless, Verma and closed-form requests pass only ints
    below the character functions: every argument of `_fns_cached`,
    `_orbit_sum`, `_orbit` and `_sum_pieces` is an int, a bool, None, an
    `AlgebraId` or a tuple or list of those, apart from the frames, records
    and kernel series they are handed; and afterwards every key of
    `_fns_cached`'s store and every window it holds is made of ints, None
    and the `AlgebraId`: no lookup hashes a `Fraction`."""
    _fns_cached.cache_clear()
    _orbit_sum.cache_clear()
    frames = (catalog.CatalogEntry, _Lattice, levels._Level, catalog._NuScalars)
    seen = {}

    def spy(name, fn, series_at=None):
        def wrapper(*args):
            checked = [a for i, a in enumerate(args)
                       if i != series_at and not isinstance(a, frames)]
            assert _plain(checked), (name, args)
            seen[name] = seen.get(name, 0) + 1
            return fn(*args)
        monkeypatch.setattr(characters, name, wrapper)

    spy("_fns_cached", _fns_cached)
    spy("_orbit_sum", _orbit_sum)
    spy("_orbit", _orbit)
    spy("_sum_pieces", _sum_pieces, series_at=5)
    character_massive(G, -3, ZERO, 1, Q(17, 5), Q(7, 3))
    character_massless(G, -3, Q(1, 2) * TH1, A_bound(G, -3, Q(1, 2) * TH1) + Q(13, 6), 3)
    character_massless(SPO3, -1, zero_vec(lookup(SPO3).n), 2, 2)
    verma_character(G, TH1, Q(1, 3), Q(7, 3), Q(5, 2))
    fns_series(catalog.g3(), 2, 3)
    n4_closed_form(2, 1, Q(7, 2), Q(10, 3))
    monkeypatch.undo()
    assert set(seen) == {"_fns_cached", "_orbit_sum", "_orbit", "_sum_pieces"}, seen

    cells = dict(zip(_fns_cached.__code__.co_freevars,
                     (c.cell_contents for c in _fns_cached.__closure__)))
    groups = cells["groups"]
    assert any(image is not None for _, image in groups)
    assert all(_plain(key) for key in groups), list(groups)
    assert all(len(entry) == 2 and _plain(entry[:1]) and isinstance(entry[1], _LatticeSeries)
               for group in groups.values() for entry in group)


def test_equal_kernel_windows_are_built_and_summed_once():
    """Two requests whose rational windows are not nested, the second not
    inside the first, but whose kernel windows (T, C) agree read one
    denominator build and one orbit sum, and give the same terms, the
    second placed at its own l0: the G3 case at depth 6 and 61/10, and
    massive psl22 requests at nu = theta_1/2 (labels [1]) at windows 1 and
    21/20, at two l0, at (window, depth) (2, 3) and (2, 3 + 1/8), and at
    (2, 3) and (9/4, 3): the last two pairs differ only in the sloped int
    floor(2 scale (depth + s window)), which no cut reads."""
    g3, nu3 = catalog.g3(), Vec([1, 1, 0])
    nu = E.nu_from_labels([1])
    a = A_bound(G, -3, nu)
    cases = [(lambda: character_massive(g3, Q(-9, 4), nu3, 1, 3, 6),
              lambda: character_massive(g3, Q(-9, 4), nu3, 1, 3, Q(61, 10)),
              (g3, (Q(2), Q(6)), (Q(2), Q(61, 10))), Q(0)),
             (lambda: character_massive(G, -3, nu, a + 1, a + 2, 4),
              lambda: character_massive(G, -3, nu, a + Q(1, 2), a + Q(1, 2) + Q(21, 20), 4),
              (G, (Q(1), Q(4)), (Q(21, 20), Q(4))), Q(1, 2)),
             (lambda: character_massive(G, -3, nu, a + 1, a + 3, 3),
              lambda: character_massive(G, -3, nu, a + 1, a + 3, Q(25, 8)),
              (G, (Q(2), Q(3)), (Q(2), Q(25, 8))), Q(0)),
             (lambda: character_massive(G, -3, nu, a + 1, a + 3, 3),
              lambda: character_massive(G, -3, nu, a + 1, a + Q(13, 4), 3),
              (G, (Q(2), Q(3)), (Q(9, 4), Q(3))), Q(0))]
    for first, second, (g, one, two), shift in cases:
        lat = lookup(g).lattice
        assert lat.window(*one) == lat.window(*two)
        assert not (two[0] <= one[0] and two[1] + Q(lat.dip, lat.scale) * two[0]
                    <= one[1] + Q(lat.dip, lat.scale) * one[0])
        _fns_cached.cache_clear()
        _orbit_sum.cache_clear()
        want, got = first(), second()
        assert got.n_terms() > 0
        assert got.terms == {q - shift: lvl for q, lvl in want.terms.items()}
        assert (_fns_cached.cache_info().misses, _orbit_sum.cache_info().misses) == (1, 1)


# (family, unitary levels, weights of P^+_k per level, window, depth): a sweep
# of one weight over the levels it lies at, at one window and depth
LEVEL_SWEEPS = [(G, 6, 3, Q(2), Q(3)), (SPO3, 6, 4, Q(3, 2), Q(3)),
                (catalog.spo2m(5), 4, 3, Q(1), Q(2)), (catalog.g3(), 4, 3, Q(1), Q(2)),
                (catalog.d21a(2), 5, 4, Q(1), Q(2)), (catalog.d21a(2, 3), 5, 4, Q(1), Q(2)),
                (catalog.f4(), 3, 2, Q(1, 2), Q(1))]


def _level_sweep(g, levels, count, window, depth):
    """(kind, k, nu, l0, q_max) of every request of the sweep, one weight's
    levels in a row: each of the first `count` weights of P^+_k at the first
    `levels` unitary levels, massive at l0 = A + 1/2 where nu is not
    extremal and massless at A (D21a: nu = 0 only), both at q_max = l0 +
    window."""
    by_weight = {}
    for k in enumerate_unitary_k(g, levels):
        for nu in enumerate_P_plus_k(g, k)[:count]:
            by_weight.setdefault(nu, []).append(k)
    out = []
    for nu, ks in by_weight.items():
        for k in ks:
            a = A_bound(g, k, nu)
            if not is_extremal(g, k, nu):
                out.append(("massive", k, nu, a + Q(1, 2), a + Q(1, 2) + window))
            if g.family != "D21a" or not any(nu):
                out.append(("massless", k, nu, a, a + window))
    return out


def test_levels_that_share_an_orbit_cell_answer_as_fresh_sums():
    """An orbit sum is keyed by the start's eta pairings, capped at
    floor(T/2) + 1 when none is negative, in place of k (`_orbit_sum`):
    over a sweep of each weight over its levels, at one window and depth,
    on seven algebras, every answered request equals the orbit sum walked
    uncached from the uncapped start (`_orbit_sum_at`), every refusal that
    of the same request with the character caches emptied before it, and
    each algebra answers some requests from a sum cached at another level.
    The sweeps meet D(2,1;a) starts with one eta pairing capped and the
    other not, and spo2m(3)'s extremal starts, whose pairing -1 is never
    capped.  (Each eta pairing M_i(k) + chi_i + 1 - nu(theta_i^vee) moves
    with k, so two levels share a sum only where every pairing is capped.)
    A cap at floor(T/2) would let an eta step into the window: the capped
    walk would then differ from the uncapped one."""
    capped_one = negative = 0
    for g, levels, count, window, depth in LEVEL_SWEEPS:
        e = lookup(g)
        reqs = _level_sweep(g, levels, count, window, depth)

        def answer(kind, k, nu, l0, q_max):
            try:
                got = character_massive(g, k, nu, l0, q_max, depth) if kind == "massive" \
                    else character_massless(g, k, nu, q_max, depth)
            except WminError as err:
                return type(err), str(err)
            return got.records()

        _fns_cached.cache_clear()
        _orbit_sum.cache_clear()
        shared = []
        for r in reqs:
            hits = _orbit_sum.cache_info().hits
            shared.append((r, answer(*r), _orbit_sum.cache_info().hits > hits))
        assert any(hit for _, _, hit in shared), g
        limit = e.lattice.window(window, depth)[0] // 2
        for r, got, hit in shared:
            kind, k, nu, l0, q_max = r
            if isinstance(got, tuple):
                _fns_cached.cache_clear()
                _orbit_sum.cache_clear()
                assert answer(*r) == got, (g, r, hit)
            else:
                assert got == _orbit_sum_at(e, k, nu, l0, q_max, depth,
                                            kind == "massless").records(), (g, r, hit)
            start = _start(e, _record(e, k), e._scalars(nu))
            eta = start[len(start) - len(e.components):]
            negative += min(eta) < 0
            capped_one += min(eta) <= limit and max(eta) > limit + 1
    assert capped_one and negative


def test_massive_requests_at_the_threshold_refuse_and_just_above_answer():
    """The massive test l0 > A, the sign of an int cross-multiplication
    (`weights._excess`), at its boundary: over the weights of each level
    sweep (`LEVEL_SWEEPS`), a massive request at l0 = A or A - 1/1000
    refuses, and one at A + 1/1000 answers where nu is not extremal (an
    extremal nu refuses as such).  Each request, asked in the sweep's
    order, asked with the character caches emptied, and asked again, now
    answered from the cached orbit sum, gives one answer, refusals by
    exception class and message."""
    answered = 0
    for g, count_k, count_nu, window, depth in LEVEL_SWEEPS:
        def answer(k, nu, l0):
            try:
                return character_massive(g, k, nu, l0, l0 + window, depth).records()
            except WminError as err:
                return type(err), str(err)

        reqs = []
        for k in enumerate_unitary_k(g, count_k):
            for nu in enumerate_P_plus_k(g, k)[:count_nu]:
                a, extremal = A_bound(g, k, nu), is_extremal(g, k, nu)
                reqs += [(k, nu, a + off, extremal) for off in (-Q(1, 1000), 0, Q(1, 1000))]
        _fns_cached.cache_clear()
        _orbit_sum.cache_clear()
        swept = [answer(*r[:3]) for r in reqs]
        for (k, nu, l0, extremal), got in zip(reqs, swept):
            if extremal:
                assert got == (PreconditionViolated,
                               "massive character needs non-extremal nu in P^+_k"), (g, k, nu)
            elif l0 <= A_bound(g, k, nu):
                assert got == (PreconditionViolated, "massive character needs l0 > A(k,nu)")
            else:
                assert isinstance(got, list) and got, (g, k, nu, l0)
                answered += 1
            _fns_cached.cache_clear()
            _orbit_sum.cache_clear()
            assert answer(k, nu, l0) == got, (g, k, nu, l0)
            hits = _orbit_sum.cache_info().hits
            assert answer(k, nu, l0) == got, (g, k, nu, l0)
            assert _orbit_sum.cache_info().hits == hits + isinstance(got, list)
    assert answered


class _SmallRadixLattice(_Lattice):
    """psl22's frame with the packing radix 2^9 + 1, so that windows reach
    the packing bound at depth 32 rather than 2^17."""
    radix = 2 ** 9 + 1


def test_held_window_past_the_packing_bound_answers_its_own():
    """A held window refuses nothing that its own build would answer.  On a
    frame of radix R = 513, at window 0 the psl22 kernel keeps level 0
    only, so its span is scale * depth: at depth 32 it is 128, the
    denominator is built (2 * rate * 128 < R) but the orbit sum of
    nu = theta_1/2, whose heads reach |x_i| = 4, and the N=4 closed form,
    whose heads reach 2, are past the packing bound.  The requests at depth
    63/2, read from that held series, answer as their own builds do,
    massive, massless and closed form, and the deep ones refuse as theirs
    do.  A massive request at window 1/4 and depth 63/2 has the kernel
    window (0, 126) of the one at window 0, so it is snapped to that window
    and answers as that request does, span 126 and all."""
    nu, e = Q(1, 2) * TH1, lookup(G)
    with pytest.MonkeyPatch.context() as mp:
        mp.setitem(e.__dict__, "lattice", _SmallRadixLattice(e))
        lat = e.lattice
        assert (lat.radix, lat.rate, _window(lat, *lat.window(Q(0), Q(32)))[1]) == (513, 2, 128)
        requests = [call for depth in (Q(32), Q(63, 2)) for call in (
            lambda depth=depth: character_massive(G, -3, nu, 1, 1, depth),
            lambda depth=depth: character_massless(G, -3, nu, Q(1, 2), depth),
            lambda depth=depth: n4_closed_form(1, 0, 0, depth),
            lambda depth=depth: character_massive(G, -3, nu, 1, Q(5, 4), depth))]

        def answer(call):
            try:
                return call().records()
            except PreconditionViolated as exc:
                return str(exc)

        try:
            cold = []
            for call in requests:
                _fns_cached.cache_clear()
                _orbit_sum.cache_clear()
                cold.append(answer(call))
            assert all("packing bound" in r for r in cold[:4])
            assert all(isinstance(r, list) and r for r in cold[4:])
            assert cold[7] == cold[4]
            _fns_cached.cache_clear()
            _orbit_sum.cache_clear()
            assert [answer(call) for call in requests] == cold
            assert _fns_cached.cache_info().hits > 0
        finally:  # nothing built on the small frame outlives it
            _fns_cached.cache_clear()
            _orbit_sum.cache_clear()


def test_character_caches_stay_bounded_over_d21a_sweep():
    """Sweeping D(2,1;a) over 200 distinct values of a, with massless
    characters at nu = 0 for the last 40 of them (their isotropic quotients
    drive `_fns_cached` past its bound), nested psl22 windows in descending
    and ascending order, plain and massless, the boson energies
    past the bound of their cache and the orbit-sum keys past the bound of
    `_orbit_sum`, leaves every cache of every
    `wmin` module at or under its bound.  `lookup` is the only per-algebra
    cache: the frames (`_Lattice`) still alive afterwards are at most those
    held by its entries and by the cached denominator series and
    quotients, so no hidden cache keeps the 200 frames of the sweep."""
    values = [(num, den) for num in range(1, 22) for den in range(1, 16)
              if math.gcd(num, den) == 1][:200]
    assert len(values) == 200
    for num, den in values:
        g = catalog.d21a(num, den)
        assert lookup(g).lattice is lookup(g).lattice
        fns_series(g, 0, 1)
    before = _fns_cached.cache_info().misses
    for num, den in values[-40:]:
        g = catalog.d21a(num, den)
        nu = zero_vec(lookup(g).n)
        k = next(k for k in enumerate_unitary_k(g, 4) if not level_data(g, k).collapsing)
        character_massless(g, k, nu, A_bound(g, k, nu) + 1, 1)
    quotients = _fns_cached.cache_info().misses - before - 40  # one denominator per request
    assert quotients > _fns_cached.cache_info().maxsize
    assert _fns_cached.cache_info().currsize == _fns_cached.cache_info().maxsize
    # nested windows: a descending sweep is answered by its first builds, read
    # in place, so it takes their slots only; an ascending one builds every
    # window and stays at the bound
    sweep = range(_fns_cached.cache_info().maxsize + 8)
    _fns_cached.cache_clear()
    for depth in reversed(sweep):
        fns_series(G, 2, depth)
    info = _fns_cached.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, len(sweep) - 1, 1)
    images = {el.image for el in _orbit_at(E, -3, ZERO, Q(2), True)}
    for depth in reversed(range(6)):  # each denominator window lies in the sweep's first
        character_massless(G, -3, ZERO, A_bound(G, -3, ZERO) + 2, depth)
    info = _fns_cached.cache_info()
    assert (info.misses, info.currsize) == (1 + len(images), 1 + len(images))
    for depth in sweep:
        fns_series(G, Q(5, 2), depth)
    info = _fns_cached.cache_info()
    assert info.misses == 1 + len(images) + len(sweep) and info.currsize == info.maxsize
    for e in range(gram_lab.states_at_energy.cache_info().maxsize + 4):
        gram_lab.states_at_energy(e)
    mods = [importlib.import_module(f"wmin.{m.name}")
            for m in pkgutil.iter_modules(wmin.__path__)]
    caches = [f for mod in mods for f in vars(mod).values()
              if hasattr(f, "cache_info") and f.__module__ == mod.__name__]
    bound = _orbit_sum.cache_info().maxsize
    for depth in range(bound + 4):  # more orbit-sum keys than the cache holds
        character_massive(G, -3, ZERO, 1, 1, depth)
    assert _orbit_sum.cache_info().currsize == bound
    assert len(caches) >= 6
    assert {catalog.lookup, gram_lab.states_at_energy, _fns_cached, _orbit_sum} <= set(caches)
    for f in caches:
        info = f.cache_info()
        assert info.maxsize is not None and info.currsize <= info.maxsize, f
    gc.collect()
    frames = sum(1 for o in gc.get_objects() if isinstance(o, _Lattice))
    assert frames <= catalog.lookup.cache_info().maxsize + _fns_cached.cache_info().maxsize


# ---------------------------------------------------------------------------
# the Weyl-Kac denominator identity: an oracle for the orbit sum at nu = 0


# (algebra, k_rho): the level at which lam0 = (k + h_vee) Lambda_0 + rho^nat
# pairs to 1 with every affine simple coroot of g^nat, so lam0 = rho_hat
K_RHO = [(catalog.psl22(), Q(-2)), (catalog.spo2m(3), Q(-1)), (catalog.spo2m(5), Q(-1)),
         (catalog.d21a(1), Q(-1)), (catalog.g3(), Q(-3, 2)), (catalog.f4(), Q(-4, 3)),
         (catalog.sl2m(3), Q(-2))]


def _fermion_product(e, q_max, depth):
    """prod_{n >= 1} prod_{gamma in Delta'} (1 + q^{n-1/2} exp(-gamma)), times
    prod_{n >= 1} (1 - q^n)^(-1) when g^nat has a center, cut flat at
    (q_max, depth) around 0: plain dict products over `Fraction` keys, cut in
    q as they go (no factor lowers q) and in depth at the end."""
    zero = zero_vec(e.n)
    terms = {(Q(0), zero): 1}

    def times(factor):
        out = {}
        for (q, w), c in terms.items():
            for fq, fw, fc in factor:
                if q + fq <= q_max:
                    out[q + fq, w + fw] = out.get((q + fq, w + fw), 0) + c * fc
        return out

    n = 1
    while n - Q(1, 2) <= q_max:
        for gma, mult in e.delta_prime:
            for _ in range(mult):
                terms = times([(Q(0), zero, 1), (n - Q(1, 2), -1 * gma, 1)])
        if e.center:
            terms = times([(Q(j * n), zero, 1) for j in range(math.floor(q_max / n) + 1)])
        n += 1
    out = {}
    for (q, w), c in terms.items():
        if c and depth_of(e, zero, w) <= depth:
            out.setdefault(q, {})[w] = c
    return out


def _check_weyl_kac(g, k_rho, q_max, depth):
    e = lookup(g)
    got = _orbit_sum_at(e, k_rho, zero_vec(e.n), Q(0), q_max, depth, False)
    assert got.n_terms() > 0
    assert got.terms == _fermion_product(e, q_max, depth), (g.label(), q_max, depth)


@pytest.mark.parametrize("g,k_rho", K_RHO, ids=[g.label() for g, _ in K_RHO])
def test_orbit_sum_at_rho_is_the_fermion_product(g, k_rho):
    """At k_rho the orbit sum is sum_w det(w) q^shift exp(w rho_hat - rho_hat)
    times the NS denominator: by the Weyl-Kac denominator identity its
    bosonic factors cancel, leaving the fermion product.  The oracle shares
    no code with the orbit walk, its pruning, the sloped windows or the
    merge."""
    for q_max, depth in [(Q(3), Q(4)), (Q(5, 2), Q(6)), (Q(4), Q(3))]:
        _check_weyl_kac(g, k_rho, q_max, depth)


@given(st.sampled_from(K_RHO), st.fractions(min_value=0, max_value=Q(5, 2), max_denominator=3),
       st.fractions(min_value=0, max_value=5, max_denominator=2))
@settings(max_examples=25, deadline=None)
def test_orbit_sum_at_rho_is_the_fermion_product_in_any_window(case, q_max, depth):
    _check_weyl_kac(*case, q_max, depth)


# ---------------------------------------------------------------------------
# refinement: a larger window, cut back, gives the same character


REFINE_FAMILIES = [catalog.psl22(), catalog.spo2m(3), catalog.spo2m(5), catalog.d21a(2, 3),
                   catalog.g3()]


@st.composite
def refinement_cases(draw, massless=None):
    """(algebra, k, nu, l0 or None for massless, window q_max - l0, depth)
    over the first three unitary levels of each family and all of P^+_k;
    massive characters need non-extremal nu and massless D(2,1;a) ones
    nu = 0, the domains of the two formulas.  `massless` fixes the kind;
    by default it is drawn."""
    g = draw(st.sampled_from(REFINE_FAMILIES))
    e = lookup(g)
    k = draw(st.sampled_from(enumerate_unitary_k(g, 3)))
    if massless is None:
        massless = draw(st.booleans())
    nus = enumerate_P_plus_k(g, k)
    if massless and g.family == "D21a":
        nus = [zero_vec(e.n)]
    elif not massless:
        nus = [nu for nu in nus if not is_extremal(g, k, nu)]
    assume(nus)
    nu = draw(st.sampled_from(nus))
    l0 = None if massless else A_bound(g, k, nu) + draw(st.sampled_from([Q(1, 3), Q(1, 2), Q(1)]))
    window = draw(st.sampled_from([Q(0), Q(1, 2), Q(2, 3), Q(1), Q(3, 2), Q(2)]))
    depth = draw(st.sampled_from([Q(0), Q(1), Q(5, 2), Q(4)]))
    return g, k, nu, l0, window, depth


@given(refinement_cases(), st.sampled_from([Q(0), Q(1, 2), Q(1), Q(2)]))
@settings(max_examples=200, deadline=None)
def test_character_refines(case, extra_depth):
    """char(q_max, depth) == char(q_max + 1/2, depth + extra).truncated(q_max,
    depth): every coefficient inside a window is final, whatever larger
    window it is computed in."""
    g, k, nu, l0, window, depth = case

    def char(q_max, dep):
        if l0 is None:
            return character_massless(g, k, nu, q_max, dep)
        return character_massive(g, k, nu, l0, q_max, dep)

    q_max = (A_bound(g, k, nu) if l0 is None else l0) + window
    small = char(q_max, depth)
    assert small.n_terms() > 0
    assert small == char(q_max + Q(1, 2), depth + extra_depth).truncated(q_max, depth, nu)


@given(refinement_cases(massless=False))
@settings(max_examples=100, deadline=None)
def test_massive_character_is_positive_and_weyl_symmetric(case):
    """Each q-level of a massive module is a finite-dimensional g^nat-module,
    so its coefficients are non-negative ints, exp(nu) at q^l0 has
    multiplicity 1, and the finite Weyl group of g^nat fixes the level:
    two weights related by a simple reflection that both lie in the depth
    window carry the same coefficient."""
    g, k, nu, l0, window, depth = case
    e = lookup(g)
    s = character_massive(g, k, nu, l0, l0 + window, depth)
    assert s.coeff(l0, nu) == 1
    for q, lvl in s.terms.items():
        for w, c in lvl.items():
            assert isinstance(c, int) and c > 0, (q, w, c)
            for alpha in e.simple_roots_natural:
                image = e.weyl_reflect(w, alpha)
                if depth_of(e, nu, image) <= depth:
                    assert s.coeff(q, image) == c, (q, w, alpha)


@given(st.integers(min_value=1, max_value=4), st.data(),
       st.sampled_from([Q(0), Q(1, 3), Q(1, 2), Q(1), Q(3, 2), Q(5, 2), Q(3)]),
       st.sampled_from([Q(0), Q(1), Q(5, 2), Q(4), Q(6)]))
@settings(max_examples=100, deadline=None)
def test_massless_psl22_equals_closed_form(m1, data, window, depth):
    """The psl22 threshold character at k = -(M1 + 1), nu = (r/2) theta_1
    equals the bilateral closed form in any window: two formulas that share
    only the denominator kernel and the merge."""
    r = data.draw(st.integers(min_value=0, max_value=m1))
    q_max = Q(r, 2) + window
    got = character_massless(G, -(m1 + 1), Q(r, 2) * TH1, q_max, depth)
    assert got == n4_closed_form(m1, r, q_max, depth), (m1, r, window, depth)


# ---------------------------------------------------------------------------
# l0 only in the exponents: one orbit sum per (family, k, nu, window, depth, kind)


SHIFT_FAMILIES = [catalog.psl22(), catalog.spo2m(3), catalog.g3(), catalog.d21a(2, 3)]
SHIFT_OFFSETS = [Q(1, 3), Q(1, 2), Q(1), Q(3, 2)]


@st.composite
def shift_cases(draw):
    """(algebra, k, nu, massless, window q_max - l0, depth, (d, d')): the
    first three unitary levels of each family and the weights of its domain
    (non-extremal for massive characters, nu = 0 for massless D(2,1;a)
    ones), and two distinct offsets above A."""
    g = draw(st.sampled_from(SHIFT_FAMILIES))
    e = lookup(g)
    k = draw(st.sampled_from(enumerate_unitary_k(g, 3)))
    massless = draw(st.booleans())
    nus = enumerate_P_plus_k(g, k)
    if massless and g.family == "D21a":
        nus = [zero_vec(e.n)]
    elif not massless:
        nus = [nu for nu in nus if not is_extremal(g, k, nu)]
    assume(nus)
    nu = draw(st.sampled_from(nus))
    window = draw(st.sampled_from([Q(0), Q(1, 2), Q(1), Q(3, 2), Q(2)]))
    depth = draw(st.sampled_from([Q(0), Q(1), Q(5, 2), Q(4)]))
    offsets = draw(st.lists(st.sampled_from(SHIFT_OFFSETS), min_size=2, max_size=2, unique=True))
    return g, k, nu, massless, window, depth, tuple(offsets)


@given(shift_cases())
@example((catalog.psl22(), Q(-3), Q(1, 2) * TH1, False, Q(1), Q(4), (Q(1), Q(1, 2))))
@example((catalog.psl22(), Q(-3), Q(1, 2) * TH1, True, Q(3, 2), Q(4), (Q(1), Q(1, 2))))
@example((catalog.g3(), Q(-9, 4), Vec([1, 1, 0]), False, Q(1), Q(4), (Q(1, 2), Q(1))))
@settings(max_examples=40, deadline=None)
def test_characters_are_one_orbit_sum_placed_at_l0(case):
    """The shift identity: at one window q_max - l0 a character is one
    series placed at l0.  A massive character at (l0, window) equals the
    one at (l0', window) term by term, its exponents shifted by l0 - l0';
    a massless one (l0 = A) equals the uncached orbit sum at (A + d,
    window) shifted by -d.  Each is computed with the cache of orbit sums
    emptied, and then every request, asked twice, once filling the cache
    and once hitting it, equals its cold call: a massive request at the q_max
    of another and a different window included."""
    g, k, nu, massless, window, depth, (d, d2) = case
    e, a = lookup(g), A_bound(g, k, nu)

    def char(l0, q_max):
        if massless:
            return character_massless(g, k, nu, q_max, depth)
        return character_massive(g, k, nu, l0, q_max, depth)

    def cold(l0, q_max):
        _orbit_sum.cache_clear()
        return char(l0, q_max)

    l0, l0b = (a, a + d2) if massless else (a + d, a + d2)
    got = cold(l0, l0 + window)
    other = _orbit_sum_at(e, k, nu, l0b, l0b + window, depth, True) if massless \
        else cold(l0b, l0b + window)
    assert got.n_terms() > 0
    assert got.terms == {q + l0 - l0b: lvl for q, lvl in other.terms.items()}, case
    if massless:
        requests = [(a, a + window), (a, a + window + Q(1, 2))]
    else:
        requests = [(l0, l0 + window), (l0b, l0b + window), (l0b, l0 + window),
                    (l0, l0b + window)]
    want = [cold(*r).records() for r in requests]
    _orbit_sum.cache_clear()
    for _ in range(2):
        assert [char(*r).records() for r in requests] == want, case
