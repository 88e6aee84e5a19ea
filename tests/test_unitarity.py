import collections
import functools
import io
import itertools
from contextlib import redirect_stderr
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmin import catalog, characters, levels, unitarity, weights
from wmin.catalog import Vec, lookup, zero_vec
from wmin.cli import run
from wmin.errors import CriticalLevel, IndexOutOfSet, PreconditionViolated, TruncationIncomplete
from wmin.levels import enumerate_unitary_k, level_data, unitarity_range_contains
from wmin.unitarity import decide, h_even, h_odd, sign2_scan
from wmin.weights import A_bound, A_explicit, enumerate_P_plus_k, in_P_plus_k, is_extremal

from test_weights import RANGE_FAMILIES, _old_range_contains


def test_decide_fixtures():
    g = catalog.psl22()
    th1 = lookup(g).components[0].theta
    nu = Q(1, 2) * th1
    assert decide(g, -3, nu, Q(1, 2)).outcome == "UnitaryNonExtremal"
    v = decide(g, -2, nu, Q(1, 2))
    assert v.outcome == "ExtremalBoundary" and v.proved is True
    assert decide(g, -2, nu, Q(3, 4)).outcome == "ExtremalOffBoundary"
    assert decide(g, -3, nu, Q(1, 4)).outcome == "BelowBound"
    assert decide(g, Q(-5, 2), nu, 1).outcome == "NotInUnitaryRange"
    assert decide(g, -3, th1 * 2, 1).outcome == "NotInPplusK"


@pytest.mark.parametrize("g, k, labels, l0, outcome", [
    (catalog.spo2m(3), Q(-3, 4), [1], Q(1), "Collapsing"),
    (catalog.psl22(), -3, [0], Q(1), "UnitaryNonExtremal"),
    (catalog.psl22(), -3, [2], Q(1), "ExtremalBoundary"),
    (catalog.psl22(), -3, [1], Q(2), "character_massive"),
    (catalog.spo2m(3), -1, [2], None, "character_massless"),
    (catalog.psl22(), -3, [1], None, "weyl_orbit"),
], ids=["collapsing", "non_extremal", "extremal", "character_massive",
        "character_massless", "weyl_orbit"])
def test_decide_builds_level_data_once(monkeypatch, g, k, labels, l0, outcome):
    """One read of the level record (`levels._level`, which `level_data`
    reads too) and one pass over nu (`CatalogEntry._scalars`) per request:
    `decide`, both characters (the massless one at an extremal weight) and
    `weyl_orbit`.  The request runs once first, so the entry's lazily built
    frame and xi's int pairings do not count."""
    nu = lookup(g).nu_from_labels(labels)
    request = {
        "character_massive": lambda: characters.character_massive(g, k, nu, l0, 3, 4),
        "character_massless": lambda: characters.character_massless(g, k, nu, 3, 4),
        "weyl_orbit": lambda: characters.weyl_orbit(g, k, nu, 0, 3),
    }.get(outcome, lambda: decide(g, k, nu, l0).outcome)
    want = request()
    calls = {"_level": 0, "_scalars": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    record = counted("_level", levels._level)
    for mod in (levels, weights, unitarity, characters):
        if hasattr(mod, "_level"):
            monkeypatch.setattr(mod, "_level", record)
    monkeypatch.setattr(catalog.CatalogEntry, "_scalars",
                        counted("_scalars", catalog.CatalogEntry._scalars))
    assert request() == want
    if outcome in ("Collapsing", "UnitaryNonExtremal", "ExtremalBoundary"):
        assert want == outcome
    assert calls == {"_level": 1, "_scalars": 1}


def test_decide_excluded_families():
    assert decide(catalog.osp4m(4), -2, zero_vec(4), 0).outcome == "ExcludedFamily"
    assert decide(catalog.osp4m(6), Q(7, 3), zero_vec(5), 0).outcome == "ExcludedFamily"
    assert decide(catalog.sl2m(3), -2, zero_vec(5), 0).outcome == "ExcludedFamily"
    v = decide(catalog.sl2m(3), -1, zero_vec(5), 0)
    assert v.outcome == "Collapsing" and "free boson" in v.collapse.target


def test_decide_spo5_example():
    # nu = omega_1 at k=-1 is extremal with A = 1/2, so l0 = 0 misses the
    # boundary; exact evaluation decides
    g = catalog.spo2m(5)
    nu = lookup(g).nu_from_labels([1])
    assert A_bound(g, -1, nu) == Q(1, 2)
    assert decide(g, -1, nu, 0).outcome == "ExtremalOffBoundary"


def test_decide_collapsing_d21a_single_weight():
    # first level of D(2,1;m): collapses onto one sl2; the single integrable
    # weight passes the inner gate
    for m in (2, 3):
        g = catalog.d21a(m, 1)
        k = -Q(m, m + 1)
        e = lookup(g)
        nu = Q(m - 1, 2) * e.components[0].theta
        v = decide(g, k, nu, A_bound(g, k, nu))
        assert v.outcome == "Collapsing"
        assert v.collapse.weight_integrable
        bad = Q(m - 1, 2) * e.components[0].theta + Q(1, 2) * e.components[1].theta
        assert not decide(g, k, bad, 0).collapse.weight_integrable


def test_adjoint_weight_verdict(unitary_families):
    for g in unitary_families:
        e = lookup(g)
        for k in enumerate_unitary_k(g, 4):
            v = decide(g, k, zero_vec(e.n), 0)
            if level_data(g, k).collapsing:
                assert v.outcome == "Collapsing"
            else:
                assert v.outcome == "UnitaryNonExtremal"


@given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=8))
@settings(max_examples=40, deadline=None)
def test_decide_monotone_in_l0(num, den):
    g = catalog.psl22()
    nu = Q(1, 2) * lookup(g).components[0].theta
    l0 = Q(num, den)
    base = decide(g, -4, nu, l0)
    if base.outcome == "UnitaryNonExtremal":
        assert decide(g, -4, nu, l0 + 1).outcome == "UnitaryNonExtremal"
        assert decide(g, -4, nu, l0 + Q(1, 3)).outcome == "UnitaryNonExtremal"


def test_h_even_examples():
    g = catalog.psl22()
    zero = zero_vec(4)
    assert h_even(g, -2, zero, 1, 1) == -1
    # vanishing first square reproduces B(k,0)
    from wmin.weights import B_bound
    e = lookup(g)
    k = Q(-7, 2)
    n = 1 * (k + e.h_vee)  # epsilon = 1; hypothetical index m=1, n = eps*m*(k+h)
    # not in the admissible set (negative), so check the algebra directly
    val = ((0) ** 2 - (k + 1) ** 2 + 0) / (4 * (k + e.h_vee))
    assert val == B_bound(g, k, zero)


def test_h_odd_example():
    g = catalog.psl22()
    e = lookup(g)
    zero = zero_vec(4)
    gamma = -1 * e.xi
    want = ((2 * e.form(e.rho_natural, gamma) - 2) ** 2 - 1) / Q(-8)
    assert h_odd(g, -2, zero, Q(1, 2), gamma) == want


def test_h_index_sets():
    g = catalog.g3()  # epsilon = 2
    zero = zero_vec(3)
    h_even(g, Q(-3, 2), zero, Q(1, 2), Q(3, 2))
    with pytest.raises(IndexOutOfSet):
        h_even(g, Q(-3, 2), zero, Q(1, 2), 1)  # m - n not integral
    with pytest.raises(IndexOutOfSet):
        h_even(catalog.psl22(), -2, zero_vec(4), Q(1, 2), Q(1, 2))  # eps = 1
    with pytest.raises(IndexOutOfSet):
        h_odd(g, Q(-3, 2), zero, 1, zero)  # m must be half-integral
    with pytest.raises(IndexOutOfSet):
        h_odd(g, Q(-3, 2), zero, Q(1, 2), catalog.Vec([5, 5, 0]))


def test_sign2_scan_examples():
    g = catalog.psl22()
    nu = Q(1, 2) * lookup(g).components[0].theta
    rep = sign2_scan(g, -3, nu, 6, 6)
    assert rep.hypothesis_met and rep.ok and rep.checked > 0
    rep = sign2_scan(catalog.g3(), Q(-3, 2), zero_vec(3), 4, 4)
    assert rep.hypothesis_met and rep.ok
    # extremal weight: hypothesis gate
    rep = sign2_scan(g, -2, nu, 4, 4)
    assert not rep.hypothesis_met and rep.label == "lemma hypothesis not met"


def test_a_scan_past_the_scan_cap_is_refused(monkeypatch):
    """A window of more than `SCAN_CAP` indices, read at call time, raises
    `TruncationIncomplete` naming the count before any index is checked
    (so a window of about 10^10 indices is refused at once), and `wmin
    scan-sign2` exits 1 on it; under the cap the count is the number of
    indices the scan checks, and a window with no m checks none, however
    large its n."""
    g, nu = catalog.psl22(), zero_vec(4)
    with pytest.raises(TruncationIncomplete,
                       match="scan cap 100000 exceeded: 10000200000 indices"):  # 10^10 + 2 10^5
        sign2_scan(g, -3, nu, 10 ** 5, 10 ** 5)
    with redirect_stderr(io.StringIO()) as err:
        assert run(["scan-sign2", "--g", "psl22", "--k", "-3", "--nu-r", "0",
                    "--nmax", "100000", "--mmax", "100000"]) == 1
    assert "TruncationIncomplete" in err.getvalue()
    assert sign2_scan(g, -3, nu, 10 ** 9, 0).checked == 0
    for h, k, n_max, m_max in [(g, -3, 6, 6), (catalog.spo2m(3), Q(-3, 2), Q(7, 2), 3),
                               (catalog.g3(), Q(-3, 2), 4, Q(5, 2)), (g, -2, -1, 2),
                               (catalog.g3(), Q(-9, 4), 2, Q(1, 2))]:
        e = lookup(h)
        size = unitarity._scan_size(e.epsilon, Q(n_max), Q(m_max), len(e._odd_covs))
        assert sign2_scan(h, k, zero_vec(e.n), n_max, m_max).checked == size
    monkeypatch.setattr(unitarity, "SCAN_CAP", 48)
    assert sign2_scan(g, -3, nu, 6, 6).checked == 48  # 36 even indices, 6 m times 2 gamma
    with pytest.raises(TruncationIncomplete, match="scan cap 48 exceeded: 56 indices"):
        sign2_scan(g, -3, nu, 6, 7)


def test_boundary_matches_explicit_form(unitary_families):
    """decide's threshold equals the closed-form threshold on a grid of l0
    around it, for every weight with M1 <= 5."""
    from wmin.weights import A_explicit
    for g in unitary_families:
        for k in enumerate_unitary_k(g, 5):
            lv = level_data(g, k)
            if lv.M_simple[0] > 5 or lv.collapsing:
                continue
            for nu in enumerate_P_plus_k(g, k):
                a = A_explicit(g, k, nu)
                for off in (-1, Q(-1, 2), 0, Q(1, 2), 1):
                    v = decide(g, k, nu, a + off)
                    if is_extremal(g, k, nu):
                        want = "ExtremalBoundary" if off == 0 else "ExtremalOffBoundary"
                    else:
                        want = "UnitaryNonExtremal" if off >= 0 else "BelowBound"
                    assert v.outcome == want, (g.label(), k, tuple(nu), off)


def test_verdict_positive_flag():
    g = catalog.psl22()
    nu = Q(1, 2) * lookup(g).components[0].theta
    assert decide(g, -3, nu, 1).is_unitary_positive
    assert decide(g, -2, nu, Q(1, 2)).is_unitary_positive
    assert not decide(g, -3, nu, 0).is_unitary_positive
    v = decide(catalog.f4(), -2, lookup(catalog.f4()).nu_from_labels([1, 1, 0]),
               None or Q(0))
    assert not v.is_unitary_positive or v.outcome == "UnitaryNonExtremal"


def _old_singular_weight(x, k, kh, cas):
    """The singular weights' former shared formula, kept as a reference."""
    return (x ** 2 - (k + 1) ** 2 + 2 * cas) / (4 * kh)


def test_lowest_energy_quadratic_pins_the_merged_formulas(unitary_families):
    """A, B, h_even, h_odd, g_half_norm and h_pair are the one quadratic
    ell_of_h read at their own h; each is checked against the formula it
    used to spell out on its own."""
    from wmin.characters import ell_of_h, h_pair
    from wmin.gram_lab import g_half_norm
    from wmin.weights import B_bound
    for g in unitary_families:
        e = lookup(g)
        eps = int(e.epsilon)
        gammas = list(dict.fromkeys(gm for gm, _ in e.delta_prime))
        evens = [(Q(a, eps), Q(b, eps)) for a in range(1, 2 * eps + 1)
                 for b in range(1, 2 * eps + 1) if (a - b) % eps == 0]
        for k in enumerate_unitary_k(g, 3):
            kh = k + e.h_vee
            for nu in enumerate_P_plus_k(g, k):
                cas = e.form(nu, nu + 2 * e.rho_natural)
                xn = e.form(e.xi, nu)
                a = A_bound(g, k, nu)
                assert a == ell_of_h(g, k, nu, xn)
                assert B_bound(g, k, nu) == ell_of_h(g, k, nu, (k + 1) / 2)
                for n, m in evens:
                    want = _old_singular_weight(eps * m * kh - n, k, kh, cas)
                    assert h_even(g, k, nu, n, m) == want
                for m in (Q(1, 2), Q(3, 2)):
                    for gamma in gammas:
                        x = 2 * e.form(nu + e.rho_natural, gamma) + 2 * m * kh
                        want = _old_singular_weight(x, k, kh, cas)
                        assert h_odd(g, k, nu, m, gamma) == want
                for l0 in (Q(0), a, a + Q(1, 2), Q(2)):
                    want = -2 * kh * l0 + cas - 2 * (k + 1) * xn + 2 * xn * xn
                    assert g_half_norm(g, k, nu, l0) == want
                    pair = h_pair(g, k, nu, l0)
                    assert pair is not None or l0 != a  # h = (xi|nu) solves l0 = A
                    for h in pair or ():
                        assert ell_of_h(g, k, nu, h) == l0


def _collapse_rule(entry, lv, nu):
    """The collapse gate written out per branch: (weight_integrable, detail)."""
    ps = entry.pairings(0, nu)  # simple coroots of g^nat, then eta_i
    r = len(entry.simple_roots_natural)
    pairs = [-p for p in ps[r:]]
    dom = all(p >= 0 and p.denominator == 1 for p in ps[:r])
    target = lv.collapse_target
    if target == "C":
        return nu.is_zero(), "target is trivial; needs nu = 0"
    if "free boson" in target:
        return (all(p == 0 for p in ps[:r]),
                "sl_m part of nu must vanish; center charge unconstrained")
    if len(entry.components) == 2:
        ok = dom and all(p <= m if m != 0 else p == 0
                         for p, m in zip(pairs, lv.M_simple))
        return ok, "integrable on the surviving component(s), trivial on the rest"
    return (dom and pairs[0] <= lv.M_simple[0],
            "nu must be integrable of level M_1 for the target")


def test_collapse_check_is_P_plus_membership():
    """Every collapsing level among the first six unitary levels, plus
    sl(2|3) at k = -1, over a box of weights: the gate matches the rule."""
    cases = [(catalog.sl2m(3), Q(-1))]
    for g in (catalog.psl22(), catalog.spo2m(3), catalog.d21a(1), catalog.d21a(2),
              catalog.d21a(1, 2), catalog.f4(), catalog.g3()):
        cases += [(g, k) for k in enumerate_unitary_k(g, 6)
                  if level_data(g, k).collapsing]
    assert len(cases) == 4
    seen = set()
    for g, k in cases:
        e, lv = lookup(g), level_data(g, k)
        box = itertools.product((Q(-1, 2), Q(0), Q(1, 2), Q(1)), repeat=min(e.n, 3))
        for coords in box:
            nu = catalog.Vec(list(coords) + [Q(0)] * (e.n - len(coords)))
            v = decide(g, k, nu, 1)
            assert v.outcome == "Collapsing"
            ok, detail = _collapse_rule(e, lv, nu)
            assert v.collapse.weight_integrable == ok, (g.label(), k, nu)
            assert v.collapse.detail == detail + "; l0 reported, not tested"
            seen.add((lv.collapse_target, ok))
    # both verdicts on every target
    assert len(seen) == 2 * len(cases)


def test_free_boson_collapse_needs_the_whole_sl_m_part_to_vanish():
    """sl(2|3) at k = -1 collapses to the free boson, which keeps only the
    center: nu = (d1 - 2 d2 + d3)/3 pairs to 0 with theta_1^vee but to (1, -1)
    with the simple coroots of sl_3, so it is not integrable there; a
    weight orthogonal to every root of sl_3 is."""
    g, k = catalog.sl2m(3), Q(-1)
    e = lookup(g)
    nu = catalog.Vec([0, 0, Q(1, 3), Q(-2, 3), Q(1, 3)])
    assert e.pairings(0, nu) == [1, -1, 0]
    v = decide(g, k, nu, 1)
    assert v.outcome == "Collapsing" and not v.collapse.weight_integrable
    center = catalog.Vec([0, 0, 1, 1, 1])
    assert e.pairings(0, center) == [0, 0, 0]
    assert decide(g, k, center, 1).collapse.weight_integrable


# ---------------------------------------------------------------------------
# the Fraction/form reference of the verdict pass


VERDICT_FAMILIES = [catalog.psl22(), catalog.spo2m(3), catalog.spo2m(5), catalog.spo2m(6),
                    catalog.d21a(2), catalog.d21a(2, 3), catalog.f4(), catalog.g3()]


def _old_proved_extremal(g):
    """The per-family code `CatalogEntry.extremal_proved` replaced: the N=4
    and N=3 families throughout."""
    return g.family == "psl22" or (g.family == "spo2m" and g.m == 3)


def _old_collapse_target(e, M):
    """The per-family name table `CatalogEntry.collapse_targets` replaced:
    "C" when every level in M is zero, else the affine algebra at the first
    nonzero one; sl(2|m) looks at sl_m first."""
    m = e.id.m
    names = {"psl22": ["V_{}(sl2)"], "F4": ["V_{}(so7)"], "G3": ["V_{}(G2)"],
             "spo2m": ["V_{}(so_{m})" if m > 3 else "V_{}(sl2)"],
             "D21a": ["V_{}(sl2 (component 1))", "V_{}(sl2 (component 2))"],
             "osp4m": ["V_{}(sl2)", "V_{}(sp_{m})"],
             "sl2m": ["V_{}(sl_{m})", "free boson V_{}(center)"]}[e.id.family]
    order = M[::-1] if e.center else M
    return next((name.format(x, m=m) for x, name in zip(order, names) if x != 0), "C")


@pytest.mark.parametrize("g", RANGE_FAMILIES + [catalog.sl2m(5), catalog.d21a(1, 2)],
                         ids=lambda g: g.label())
def test_collapse_targets_and_proof_flag_equal_the_per_family_code(g):
    """The entry's collapse targets, read at each noncritical zero of its
    collapsing polynomial, and its extremal proof flag, against the
    per-family code they replaced."""
    e = lookup(g)
    assert e.extremal_proved is _old_proved_extremal(g)
    c = e._levels
    zeros = [Q(z, 2 * c.e) for z in c.zeros if Q(z, 2 * c.e) != -e.h_vee]
    assert zeros
    for z in zeros:
        lv = level_data(g, z)
        assert lv.collapsing and lv.collapse_target == _old_collapse_target(e, lv.M), z


def _ref_level_data(g, k):
    """Level data from `component_level` and the formulas spelled out."""
    e = lookup(g)
    comps = ([e.center] if e.center else []) + list(e.components)
    M = tuple(levels.component_level(e, k, c) for c in comps)
    zs = [-(e.h_vee - c.hbar_vee) / 2 for c in comps]
    z1, z2 = zs if len(zs) == 2 else (zs[0], -comps[0].hbar_vee / 2 - 1)
    p_k = (k - z1) * (k - z2)
    return levels.LevelData(
        k=k, M=M, M_simple=M[1:] if e.center else M,
        alpha_levels=tuple(m + c.chi for m, c in zip(M, comps)),
        p_k=p_k, collapsing=p_k == 0,
        collapse_target=_old_collapse_target(e, M) if p_k == 0 else None)


def _ref_pairings(e, nu):
    """nu's simple-coroot pairings, then -nu(theta_i^vee), each through `form`."""
    return ([e.coroot_pairing(nu, a) for a in e.simple_roots_natural]
            + [-e.coroot_pairing(nu, c.theta) for c in e.components])


def _ref_in_P_plus(e, lv, ps):
    r = len(e.simple_roots_natural)
    return (all(p >= 0 and p.denominator == 1 for p in ps[:r])
            and all(-p <= m for p, m in zip(ps[r:], lv.M_simple)))


def _ref_A(e, k, nu):
    """ell((xi|nu)) with the Casimir term and (xi|nu) through `form`."""
    kh, xn = k + e.h_vee, e.form(e.xi, nu)
    return e.form(nu, nu + 2 * e.rho_natural) / (2 * kh) + xn * (xn - k - 1) / kh


def _ref_A_explicit(e, k, nu, ps):
    """The per-family closed forms of the threshold as first written."""
    g, fam = e.id, e.id.family
    r = len(e.simple_roots_natural)
    thetas = [-p for p in ps[r:]]
    if fam == "psl22":
        return Q(thetas[0], 2)
    if fam == "spo2m" and g.m == 3:
        return Q(thetas[0], 4)
    if fam == "spo2m":
        m = g.m
        nn = [nu[1 + i] for i in range(m // 2)]
        s = (sum(a * a for a in nn)
             + 2 * sum(a * (Q(m, 2) - (i + 1)) for i, a in enumerate(nn)))
        return -(s - nn[0] * (2 * k + nn[0] + 2)) / (2 * (2 * k - m + 4))
    if fam == "D21a":
        a = g.a
        r1, r2 = thetas
        return ((2 * (a + 1) * k * (a * r2 + r1) - a * (r1 - r2) ** 2)
                / (4 * (a + 1) ** 2 * k))
    if fam == "F4":
        r1, r2, r3 = nu[0], nu[1], nu[2]
        num = (r1 * (6 - Q(3, 2) * k) + r2 * (3 - Q(3, 2) * k) + r3 * (-Q(3, 2) * k)
               + r1 * r1 + r2 * r2 + r3 * r3 - r1 * r2 - r1 * r3 - r2 * r3)
        return num / (3 * (3 - Q(3, 2) * k))
    r1, r2 = nu[0], nu[1]  # G3
    return (3 * (r1 - r2) ** 2 - 4 * k * r1 + (12 - 4 * k) * r2) / (8 * (3 - 2 * k))


def _ref_extremal(e, lv, ps):
    shifted = [p + x for p, x in zip(ps, _ref_pairings(e, e.xi))]
    r = len(e.simple_roots_natural)
    by_def = not _ref_in_P_plus(e, lv, shifted)
    by_chi = any(-p > m + c.chi for p, m, c in zip(ps[r:], lv.M_simple, e.components))
    assert by_def == by_chi
    return by_def


def _ref_decide(g, k, nu, l0):
    """`decide` on a level of the unitarity range, every scalar in `Fraction`s
    through `form`."""
    e = lookup(g)
    lv = _ref_level_data(g, k)
    q = {"k": k, "M_i": list(lv.M_simple), "chi_i": [c.chi for c in e.components], "l0": l0}
    ps = _ref_pairings(e, nu)
    if lv.collapsing:
        rec = levels._level(g, k.numerator, k.denominator)  # the gate reads the int record
        assert rec.data == lv
        chk = unitarity._collapse_check(e, rec, e._scalars(nu), l0)
        return unitarity.UnitarityVerdict(unitarity.COLLAPSING, q,
                                          (f"collapsing level, target {chk.target}",),
                                          collapse=chk)
    if not _ref_in_P_plus(e, lv, ps):
        return unitarity.UnitarityVerdict(unitarity.NOT_IN_P_PLUS_K, q, (
            "nu not dominant integral of the component levels",))
    a, extremal = _ref_A(e, k, nu), _ref_extremal(e, lv, ps)
    q.update({"A": a, "A_explicit": _ref_A_explicit(e, k, nu, ps), "extremal": extremal,
              "l0_minus_A": l0 - a})
    if extremal and l0 == a:
        proved = e.extremal_proved
        return unitarity.UnitarityVerdict(unitarity.EXTREMAL_BOUNDARY, q, (
            "extremal weight at the threshold" + ("" if proved else
                                                  ": conjecturally unitary (unproven extremal"
                                                  " boundary case)"),), proved=proved)
    if extremal:
        return unitarity.UnitarityVerdict(unitarity.EXTREMAL_OFF_BOUNDARY, q, (
            "extremal weight requires l0 = A(k,nu) exactly",))
    if l0 >= a:
        return unitarity.UnitarityVerdict(unitarity.UNITARY_NON_EXTREMAL, q, (
            "non-extremal weight with l0 >= A(k,nu)",))
    return unitarity.UnitarityVerdict(unitarity.BELOW_BOUND, q, (
        "l0 below the threshold A(k,nu)",))


def _ref_sign2_scan(g, k, nu, n_max, m_max):
    """`sign2_scan` with the singular weights through `form`, per index."""
    e = lookup(g)
    lv = _ref_level_data(g, k)
    ps = _ref_pairings(e, nu)
    hyp = (_old_range_contains(g, k) is True and _ref_in_P_plus(e, lv, ps)
           and not _ref_extremal(e, lv, ps))
    rep = unitarity.Sign2Report(g, k, nu, hyp, "scan" if hyp else "lemma hypothesis not met")
    a, kh, eps = _ref_A(e, k, nu), k + e.h_vee, e.epsilon
    cas = e.form(nu, nu + 2 * e.rho_natural)

    def ell(h):
        return cas / (2 * kh) + h * (h - k - 1) / kh

    evens = [(Q(a_, eps), Q(b_, eps)) for a_ in range(1, n_max * eps + 1)
             for b_ in range(1, m_max * eps + 1) if (a_ - b_) % eps == 0]
    for n, m in evens:
        v = ell((eps * m * kh - n + k + 1) / 2)
        rep.checked += 1
        if v > a:
            rep.violations.append(("h_even", (n, m), v, a))
    m = Q(1, 2)
    while m <= m_max:
        for gamma in dict.fromkeys(gm for gm, _ in e.delta_prime):
            v = ell(e.form(nu + e.rho_natural, gamma) + m * kh + (k + 1) / 2)
            rep.checked += 1
            if v > a:
                rep.violations.append(("h_odd", (m, gamma), v, a))
        m += 1
    return rep


def test_verdict_pass_equals_the_form_reference():
    """Every P^+_k weight of the first six unitary levels of the eight
    verdict families, at l0 = A + (-1/2, 0, 1/3): `decide`, built on the
    per-request pass and the entry's level constants, gives the verdict of
    the `Fraction`/`form` reference; `sign2_scan(., 8, 8)` gives its report
    on every 20th weight."""
    from wmin.cli import verdict_to_dict
    seen = scanned = 0
    for g in VERDICT_FAMILIES:
        for k in enumerate_unitary_k(g, 6):
            for nu in enumerate_P_plus_k(g, k):
                a = _ref_A(lookup(g), k, nu)
                for off in (Q(-1, 2), Q(0), Q(1, 3)):
                    got, want = decide(g, k, nu, a + off), _ref_decide(g, k, nu, a + off)
                    assert got == want and verdict_to_dict(got) == verdict_to_dict(want), \
                        (g.label(), k, tuple(nu), off)
                if seen % 20 == 0:
                    assert sign2_scan(g, k, nu, 8, 8) == _ref_sign2_scan(g, k, nu, 8, 8)
                    scanned += 1
                seen += 1
    assert seen == 1252 and scanned == 63


def test_scan_violations_equal_the_form_reference():
    """`sign2_scan(., 4, 4)`, which walks int indices and builds a
    `Fraction` only for a violation, gives the report of the
    `Fraction`/`form` reference, violations included, on nine families
    (eps = 2 on spo(2|3), spo(2|5) and G3) at their first two unitary
    levels and at three levels off the range, for nu = 0, a weight off
    P^+_k and the extremal weights of P^+_k: off the range and at the
    extremal weights both kinds of violation occur."""
    fams = VERDICT_FAMILIES[:3] + [catalog.g3(), catalog.f4(), catalog.d21a(2, 3),
                                   catalog.sl2m(3), catalog.osp4m(4), catalog.spo2m(6)]
    kinds, eps2, extremal = collections.Counter(), 0, 0
    for g in fams:
        e = lookup(g)
        for k in enumerate_unitary_k(g, 2) + [Q(1), Q(1, 3), Q(-5, 7)]:
            if k == -e.h_vee:
                continue
            try:
                plus = enumerate_P_plus_k(g, k)
            except PreconditionViolated:  # sl(2|m): P^+_k is infinite
                plus = []
            ext = [nu for nu in plus if is_extremal(g, k, nu)][:3]
            for nu in [zero_vec(e.n), Vec([Q(1, 3)] + [0] * (e.n - 1))] + ext:
                got = sign2_scan(g, k, nu, 4, 4)
                assert got == _ref_sign2_scan(g, k, nu, 4, 4), (g.label(), k, tuple(nu))
                kinds.update(v[0] for v in got.violations)
                eps2 += e.epsilon == 2 and bool(got.violations)
                extremal += nu in ext and bool(got.violations)
    assert kinds["h_even"] > 0 and kinds["h_odd"] > 0 and eps2 > 0 and extremal > 0, \
        (kinds, eps2, extremal)


# every family with a closed form but D(2,1;a), which is drawn at its a;
# spo2m(3) takes the theta_1/4 branch, spo2m(m >= 5) the general one
CLOSED_FORM_FAMILIES = [catalog.psl22(), catalog.spo2m(3), catalog.spo2m(5), catalog.spo2m(6),
                        catalog.spo2m(7), catalog.spo2m(8), catalog.f4(), catalog.g3()]


def _closed_form_pole(g):
    """The level where the family's closed form divides by 0, or None."""
    if g.family == "spo2m" and g.m > 3:
        return Q(g.m - 4, 2)
    return {"D21a": Q(0), "F4": Q(2), "G3": Q(3, 2)}.get(g.family)


@given(st.one_of(st.sampled_from(CLOSED_FORM_FAMILIES),
                 st.builds(catalog.d21a, st.integers(1, 9), st.integers(1, 9))),
       st.data())
@settings(max_examples=300, deadline=None)
def test_closed_forms_equal_the_fraction_oracle(g, data):
    """The int closed forms (`weights._A_explicit`, one int numerator over
    one int denominator) and the public `A_explicit` against the `Fraction`
    expressions they replaced (`_ref_A_explicit`, reading the `form`
    pairings): any rational nu, with coordinate denominators up to 7, at
    any level; at the level where a form's denominator vanishes both raise
    ZeroDivisionError, and at the critical level the public one raises
    CriticalLevel."""
    e = lookup(g)
    rat = st.fractions(min_value=-6, max_value=6, max_denominator=7)
    nu = Vec(data.draw(st.lists(rat, min_size=e.n, max_size=e.n)))
    pole = _closed_form_pole(g)
    k = data.draw(st.one_of(st.fractions(min_value=-9, max_value=9, max_denominator=9),
                            *([st.just(pole)] if pole is not None else [])))
    sc = e._scalars(nu)
    try:
        want = _ref_A_explicit(e, k, nu, _ref_pairings(e, nu))
    except ZeroDivisionError:
        assert k == pole
        with pytest.raises(ZeroDivisionError):
            weights._A_explicit(e, k, sc.d, sc.x, sc.ps)
        return
    got = weights._A_explicit(e, k, sc.d, sc.x, sc.ps)
    assert type(got) is Q and got == want, (g.label(), k, tuple(nu))
    if k == -e.h_vee:
        with pytest.raises(CriticalLevel):
            A_explicit(g, k, nu)
    else:
        assert A_explicit(g, k, nu) == want


@pytest.mark.parametrize("g", CLOSED_FORM_FAMILIES + [catalog.d21a(2, 3)],
                         ids=lambda g: g.label())
def test_closed_forms_raise_where_the_oracle_divides_by_zero(g):
    """At each form's pole, the oracle and the int form both raise
    ZeroDivisionError on a weight of P^+ at every coordinate denominator;
    the pole is the critical level, where the public one raises
    CriticalLevel first."""
    e, pole = lookup(g), _closed_form_pole(g)
    if pole is None:
        return
    assert pole == -e.h_vee
    pad = [0] * (e.label_map[0] - 1)
    for nu in (zero_vec(e.n), e.nu_from_labels([1] + pad), e.nu_from_labels([Q(1, 2)] + pad)):
        sc = e._scalars(nu)
        with pytest.raises(ZeroDivisionError):
            _ref_A_explicit(e, pole, nu, _ref_pairings(e, nu))
        with pytest.raises(ZeroDivisionError):
            weights._A_explicit(e, pole, sc.d, sc.x, sc.ps)
        with pytest.raises(CriticalLevel):
            A_explicit(g, pole, nu)


@functools.lru_cache(maxsize=None)
def _P_plus_pool(g, k):
    return tuple(enumerate_P_plus_k(g, k))


@given(st.sampled_from(VERDICT_FAMILIES), st.data())
@settings(max_examples=200, deadline=None)
def test_P_plus_and_extremality_off_the_enumeration(g, data):
    """`in_P_plus_k`, `is_extremal` and `decide` against the `Fraction`/`form`
    references on weights the enumeration never yields, at the range levels
    of the eight verdict families: a weight of P^+_k moved by rational labels
    (denominators up to 7, so pairings are non-integral, negative or past the
    level bound, and nu's coordinates have d > 1) and by a multiple of
    theta, which pairs to 0 with g^nat's coroots; l0 at A and around it."""
    from wmin.cli import verdict_to_dict
    e = lookup(g)
    k = data.draw(st.sampled_from(enumerate_unitary_k(g, 6)))
    small = st.one_of(st.just(Q(0)), st.integers(-1, 2).map(Q),
                      st.fractions(min_value=-2, max_value=2, max_denominator=7))
    labels = data.draw(st.lists(small, min_size=len(e.label_map[1]),
                                max_size=len(e.label_map[1])))
    nu = (data.draw(st.sampled_from(_P_plus_pool(g, k))) + e.nu_from_labels(labels)
          + data.draw(small) * e.theta)
    lv, ps = _ref_level_data(g, k), _ref_pairings(e, nu)
    inside = _ref_in_P_plus(e, lv, ps)
    assert in_P_plus_k(g, k, nu) is inside
    if inside:
        assert is_extremal(g, k, nu) is _ref_extremal(e, lv, ps)
    else:
        with pytest.raises(PreconditionViolated):
            is_extremal(g, k, nu)
    a = _ref_A(e, k, nu)
    l0 = data.draw(st.one_of(st.sampled_from([a - Q(1, 2), a, a + Q(1, 3)]),
                             st.fractions(min_value=-5, max_value=5, max_denominator=7)))
    got, want = decide(g, k, nu, l0), _ref_decide(g, k, nu, l0)
    assert got == want and verdict_to_dict(got) == verdict_to_dict(want), \
        (g.label(), k, tuple(nu), l0)


# ---------------------------------------------------------------------------
# the level record


def test_level_record_equals_a_fresh_evaluation():
    """`levels._level`, built and then read from its cache, against the
    spelled-out formulas (`_ref_level_data`) and the per-family range
    oracle: the first twelve unitary levels and five off-range levels of
    every family.  `level_data` and `unitarity_range_contains` answer from
    it, the latter a plain bool."""
    levels._level.cache_clear()
    for g in RANGE_FAMILIES:
        e = lookup(g)
        first, step, _ = e.unitary_range
        off = [first - step, first + step / 2, Q(1, 3), Q(-5, 7), Q(7)]
        for k in enumerate_unitary_k(g, 12) + [k for k in off if k != -e.h_vee]:
            for _ in range(2):
                rec = levels._level(g, k.numerator, k.denominator)
                assert rec.data == _ref_level_data(g, k), (g.label(), k)
                assert level_data(g, k) is rec.data and Q(*rec.kh_ints) == k + e.h_vee
                contains = unitarity_range_contains(g, k)
                assert type(contains) is bool
                assert rec.in_range == contains == _old_range_contains(g, k), (g.label(), k)
    assert levels._level.cache_info().hits > 0


@st.composite
def any_level(draw):
    """(family, level): any family of the catalog, the D(2,1;a) of a drawn
    a = p/q, sl(2|m), osp(4|m) and spo(2|m) of a drawn m included, at a
    drawn level: one of its first unitary levels, a zero of its collapsing
    polynomial (spelled in `Fraction`s, as `_ref_level_data` does), its
    critical level, or any small rational, most of them off the range."""
    g = draw(st.one_of(
        st.sampled_from(RANGE_FAMILIES),
        st.integers(3, 10).map(catalog.sl2m),
        st.integers(3, 12).filter(lambda m: m != 4).map(catalog.spo2m),
        st.integers(2, 6).map(lambda r: catalog.osp4m(2 * r)),
        st.tuples(st.integers(1, 30), st.integers(1, 30)).map(lambda pq: catalog.d21a(*pq))))
    e = lookup(g)
    comps = ([e.center] if e.center else []) + list(e.components)
    zs = [-(e.h_vee - c.hbar_vee) / 2 for c in comps]
    zeros = zs if len(zs) == 2 else [zs[0], -comps[0].hbar_vee / 2 - 1]
    ks = enumerate_unitary_k(g, 8)
    k = draw(st.one_of(st.fractions(min_value=-20, max_value=6, max_denominator=24),
                       st.sampled_from(zeros + [-e.h_vee]),
                       *([st.sampled_from(ks)] if ks else [])))
    return g, k


@given(any_level())
@settings(max_examples=300, deadline=None)
def test_int_level_record_equals_the_fraction_evaluation(case):
    """The level record built in ints (`levels._level`, called past its
    cache) equals the `Fraction` evaluation of the formulas, field for
    field and in type (`_ref_level_data`, the per-family range oracle), and
    its int pairs are the reduced pairs of its `Fraction`s and of k + h_vee,
    the start's level part (1 per simple root, M_i(k) + chi_i + 1 per eta_i)
    included; at the critical level it raises `CriticalLevel`."""
    g, k = case
    e = lookup(g)
    build = levels._level.__wrapped__
    if k == -e.h_vee:
        with pytest.raises(CriticalLevel, match="k = -h_vee"):
            build(g, k.numerator, k.denominator)
        return
    rec = build(g, k.numerator, k.denominator)
    want = _ref_level_data(g, k)
    assert repr(rec.data) == repr(want) and rec.data == want, (g.label(), k)
    assert rec.in_range is (_old_range_contains(g, k) is True)
    s = len(e.components)

    def ints(xs):
        return tuple((x.numerator, x.denominator) for x in xs)

    assert (rec.k_ints, rec.kh_ints) == ints([k, k + e.h_vee])
    assert (rec.m_ints, rec.alpha_ints) == (ints(want.M[-s:]), ints(want.alpha_levels[-s:]))
    assert rec.start_ints == ints([Q(1)] * len(e.simple_roots_natural)
                                  + [m + 1 for m in want.alpha_levels[-s:]])


def test_decide_at_and_next_to_the_threshold_equals_the_form_reference():
    """At l0 = A and at l0 a billionth above and below it, `decide`, which
    reads its outcome off the sign of the int numerator of l0 - A, gives
    the verdict of the `Fraction`/`form` reference (`_ref_decide`, which
    compares `Fraction`s), on every P^+_k weight of the first three unitary
    levels of the eight verdict families, extremal and non-extremal."""
    from wmin.cli import verdict_to_dict
    outcomes = set()
    for g in VERDICT_FAMILIES:
        for k in enumerate_unitary_k(g, 3):
            for nu in enumerate_P_plus_k(g, k):
                a = _ref_A(lookup(g), k, nu)
                for off in (Q(0), Q(1, 10 ** 9), Q(-1, 10 ** 9)):
                    got, want = decide(g, k, nu, a + off), _ref_decide(g, k, nu, a + off)
                    assert got == want and verdict_to_dict(got) == verdict_to_dict(want), \
                        (g.label(), k, tuple(nu), off)
                    outcomes.add(got.outcome)
    assert outcomes == {"ExtremalBoundary", "ExtremalOffBoundary", "UnitaryNonExtremal",
                        "BelowBound", "Collapsing"}


@pytest.mark.parametrize("g", RANGE_FAMILIES, ids=lambda g: g.label())
def test_the_critical_level_is_never_cached(g):
    """At k = -h_vee the record raises CriticalLevel on every call, as
    `level_data` and `decide` do, and adds nothing to the cache; range
    membership is still a bool, False (the critical level lies in no
    unitarity range), and P^+_k is empty there."""
    e = lookup(g)
    k, nu = -e.h_vee, zero_vec(e.n)
    size = levels._level.cache_info().currsize
    for _ in range(2):
        with pytest.raises(CriticalLevel):
            level_data(g, k)
        with pytest.raises(CriticalLevel):
            decide(g, k, nu, 0)
        assert unitarity_range_contains(g, k) is False
        assert _old_range_contains(g, k) is False
        assert in_P_plus_k(g, k, nu) is False
    assert levels._level.cache_info().currsize == size


def test_the_level_cache_is_bounded():
    """A sweep of more distinct levels than the record cache holds leaves
    it full at its documented bound, 128."""
    levels._level.cache_clear()
    maxsize = levels._level.cache_info().maxsize
    for j in range(maxsize + 10):
        decide(catalog.psl22(), -2 - j, zero_vec(4), 0)
    info = levels._level.cache_info()
    assert maxsize == 128 and info.currsize == maxsize and info.misses == maxsize + 10


def test_a_warm_verdict_hashes_no_fraction(monkeypatch):
    """The level record's cache key is k's numerator and denominator, so a
    warm `decide` (every P^+_k weight at the first two levels of the
    verdict families, at l0 = A and A - 1/2) hashes no `Fraction`: each
    hash of k took a modular inverse."""
    reqs = [(g, k, nu, A_bound(g, k, nu) + dl) for g in VERDICT_FAMILIES
            for k in enumerate_unitary_k(g, 2) for nu in enumerate_P_plus_k(g, k)
            for dl in (0, Q(-1, 2))]
    want = [decide(*r) for r in reqs]
    hashed = []
    fraction_hash = Q.__hash__
    monkeypatch.setattr(Q, "__hash__", lambda x: hashed.append(x) or fraction_hash(x))
    assert [decide(*r) for r in reqs] == want and len(reqs) > 100
    assert hashed == []
