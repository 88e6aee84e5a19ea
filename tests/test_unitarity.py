from fractions import Fraction as Q

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wmin import catalog, characters, levels, unitarity, weights
from wmin.catalog import lookup, zero_vec
from wmin.errors import IndexOutOfSet
from wmin.levels import enumerate_unitary_k, level_data
from wmin.unitarity import decide, h_even, h_odd, sign2_scan
from wmin.weights import A_bound, enumerate_P_plus_k, is_extremal


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
], ids=["collapsing", "non_extremal", "extremal"])
def test_decide_builds_level_data_once(monkeypatch, g, k, labels, l0, outcome):
    calls = []

    def counted(*args):
        calls.append(args)
        return level_data(*args)

    for mod in (levels, weights, unitarity, characters):
        if hasattr(mod, "level_data"):
            monkeypatch.setattr(mod, "level_data", counted)
    v = decide(g, k, lookup(g).nu_from_labels(labels), l0)
    assert v.outcome == outcome
    assert len(calls) == 1


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
