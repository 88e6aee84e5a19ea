import io
import random
from contextlib import redirect_stderr
from fractions import Fraction as Q

import pytest

from wmin import catalog, characters, gram_lab, levels, unitarity, weights
from wmin.catalog import lookup, zero_vec
from wmin.cli import run
from wmin.errors import CriticalLevel, TruncationIncomplete
from wmin.levels import (central_charge, central_charge_alt, component_level,
                         enumerate_unitary_k, level_data,
                         unitarity_range_contains)

RNG = random.Random(20240811)


def rand_k(avoid):
    while True:
        k = Q(RNG.randint(-400, 400), RNG.randint(1, 40))
        if k not in avoid:
            return k


#: closed forms of the component levels straight off the numeric table
TABLE2_M = {
    "psl22": lambda k, g: [-k - 1],
    "sl2m": lambda k, g: [k - Q(g.m - 2, 2), -k - 1],
    "osp4m": lambda k, g: [k - Q(g.m, 2), -k / 2 - 1],
    "spo23": lambda k, g: [-4 * k - 2],
    "spo2m": lambda k, g: [-2 * k - 1],
    "D21a": lambda k, g: [-(1 + g.a) * k - 1, -(1 + g.a) / g.a * k - 1],
    "F4": lambda k, g: [-Q(3, 2) * k - 1],
    "G3": lambda k, g: [-Q(4, 3) * k - 1],
}


def _table_key(g):
    if g.family == "spo2m" and g.m == 3:
        return "spo23"
    return g.family


def test_component_levels_match_table(all_algebras):
    for g in all_algebras:
        e = lookup(g)
        fn = TABLE2_M[_table_key(g)]
        for _ in range(25):
            k = rand_k({-e.h_vee})
            lv = level_data(g, k)
            assert list(lv.M) == fn(k, g), g.label()
            assert list(lv.alpha_levels) == [
                m + c.chi for m, c in zip(
                    lv.M, ([e.center] if e.center else []) + list(e.components))]


def test_m0_for_center():
    g = catalog.sl2m(4)
    e = lookup(g)
    lv = level_data(g, Q(5, 7))
    assert lv.M[0] == Q(5, 7) + e.h_vee / 2


def test_critical_level_raises():
    with pytest.raises(CriticalLevel):
        level_data(catalog.f4(), -(-2))
    with pytest.raises(CriticalLevel):
        central_charge(catalog.psl22(), 0)


F4_ZERO = zero_vec(4)


@pytest.mark.parametrize("fn, args", [pytest.param(fn, args, id=fn.__name__) for fn, args in [
    (level_data, ()),
    (central_charge, ()),
    (central_charge_alt, ()),
    (weights.A_bound, (F4_ZERO,)),
    (weights.B_bound, (F4_ZERO,)),
    (weights.A_explicit, (F4_ZERO,)),
    (unitarity.decide, (F4_ZERO, 1)),
    (unitarity.h_even, (F4_ZERO, 1, 1)),
    (unitarity.h_odd, (F4_ZERO, Q(1, 2), lookup(catalog.f4()).xi)),
    (characters.ell_of_h, (F4_ZERO, 0)),
    (characters.h_pair, (F4_ZERO, 1)),
    (gram_lab.g_half_norm, (F4_ZERO, 1)),
    (gram_lab.j_g_ratio, (F4_ZERO, 1)),
]])
def test_critical_level_single_message(fn, args):
    # h_vee = -2 for F4, so the critical level is k = 2
    with pytest.raises(CriticalLevel, match=r"^k = -h_vee = 2 for F4$"):
        fn(catalog.f4(), 2, *args)


def test_a_vanishing_component_level_is_collapsing(all_algebras):
    """M_i(k) = 0 makes k a zero of the collapsing polynomial, so `decide`
    reports such a level as collapsing before any extremality verdict; the
    D(2,1;m) / D(2,1;1/n) boundary weight at its first level is one."""
    seen = 0
    for g in all_algebras:
        e = lookup(g)
        for c in e.components:
            k = -(e.h_vee - c.hbar_vee) / 2
            if k + e.h_vee == 0:
                continue
            lv = level_data(g, k)
            assert lv.M_simple[c.index - 1] == 0 and lv.collapsing, (g.label(), k)
            seen += 1
    assert seen >= 16


def test_central_charge_fixtures():
    assert central_charge(catalog.psl22(), -2) == 6
    assert central_charge(catalog.spo2m(3), Q(-3, 4)) == 1
    # G3 closed form at a sample point
    k = Q(-3, 2)
    assert central_charge(catalog.g3(), k) == (-24 * k**2 + 26 * k + 33) / (4 * k - 6)


def test_central_charge_alt_exact_or_na(all_algebras):
    for g in all_algebras:
        e = lookup(g)
        k = rand_k({-e.h_vee})
        c, applicable, note = central_charge_alt(g, k)
        if applicable:
            assert c == central_charge(g, k)
        else:
            # smoke test: the square-root form collapses to the plain one
            # algebraically, so evaluate it with complex floats
            d, hv = float(e.sdim), float(e.h_vee)
            s = complex(d * hv / 6) ** 0.5
            kk = float(k)
            val = 7 * hv + d - 4 - 12 * s - 6 * (kk + hv - s) ** 2 / (kk + hv)
            assert abs(val.imag) < 1e-9
            assert abs(val.real - float(central_charge(g, k))) < 1e-9


def test_collapsing_levels():
    lv = level_data(catalog.psl22(), -1)
    assert lv.collapsing and lv.collapse_target == "C"
    lv = level_data(catalog.spo2m(3), Q(-3, 4))
    assert lv.collapsing and lv.collapse_target == "V_1(sl2)"
    lv = level_data(catalog.d21a(2, 1), Q(-2, 3))
    assert lv.collapsing and "V_1(sl2 (component 1)" in lv.collapse_target
    # the a=1, k=-1 point is inside the unitarity range, not collapsing
    lv = level_data(catalog.d21a(1, 1), -1)
    assert not lv.collapsing
    # trivial point of D(2,1;1)
    lv = level_data(catalog.d21a(1, 1), Q(-1, 2))
    assert lv.collapsing and lv.collapse_target == "C"
    # sl(2|m): free boson at k=-1, affine sl_m at k=m/2-1
    lv = level_data(catalog.sl2m(4), -1)
    assert lv.collapsing and "free boson" in lv.collapse_target
    lv = level_data(catalog.sl2m(4), 1)
    assert lv.collapsing and lv.collapse_target == "V_-2(sl_4)"


def test_p_k_zero_set(all_algebras):
    for g in all_algebras:
        e = lookup(g)
        comps = ([e.center] if e.center else []) + list(e.components)
        for _ in range(20):
            k = rand_k({-e.h_vee})
            lv = level_data(g, k)
            if len(comps) == 2:
                want = (lv.M[0] == 0 or lv.M[1] == 0)
            else:
                want = (lv.M[0] == 0 or k == -comps[0].hbar_vee / 2 - 1)
            assert lv.collapsing == want


def test_unitarity_ranges_first_levels():
    assert enumerate_unitary_k(catalog.psl22(), 3) == [-2, -3, -4]
    assert enumerate_unitary_k(catalog.spo2m(3), 3) == [Q(-3, 4), -1, Q(-5, 4)]
    assert enumerate_unitary_k(catalog.spo2m(6), 3) == [-1, Q(-3, 2), -2]
    assert enumerate_unitary_k(catalog.f4(), 3) == [Q(-4, 3), -2, Q(-8, 3)]
    assert enumerate_unitary_k(catalog.g3(), 3) == [Q(-3, 2), Q(-9, 4), -3]
    assert enumerate_unitary_k(catalog.sl2m(3), 5) == [-1]
    assert enumerate_unitary_k(catalog.osp4m(4), 5) == []
    # D(2,1;1): k = -N/2 without the trivial -1/2
    assert enumerate_unitary_k(catalog.d21a(1, 1), 3) == [-1, Q(-3, 2), -2]
    assert enumerate_unitary_k(catalog.d21a(3, 2), 2) == [Q(-6, 5), Q(-12, 5)]


def test_a_count_past_the_range_cap_is_refused(monkeypatch):
    """A count that would list more than `RANGE_CAP` levels, read at call
    time, raises `TruncationIncomplete` before any level is built, and
    `wmin range` exits 1 on it; a finite range is listed whole whatever the
    count, as its length is its own."""
    with pytest.raises(TruncationIncomplete, match="range cap 100000"):
        enumerate_unitary_k(catalog.psl22(), 10 ** 9)
    assert enumerate_unitary_k(catalog.sl2m(3), 10 ** 9) == [-1]
    with redirect_stderr(io.StringIO()) as err:
        assert run(["range", "--g", "psl22", "--count", "1000000000"]) == 1
    assert "TruncationIncomplete" in err.getvalue()
    monkeypatch.setattr(levels, "RANGE_CAP", 3)
    assert enumerate_unitary_k(catalog.psl22(), 3) == [-2, -3, -4]
    with pytest.raises(TruncationIncomplete):
        enumerate_unitary_k(catalog.psl22(), 4)


def test_range_membership(all_algebras):
    assert unitarity_range_contains(catalog.spo2m(3), Q(-3, 4))
    assert not unitarity_range_contains(catalog.osp4m(4), -2)
    assert not unitarity_range_contains(catalog.d21a(1, 1), Q(-1, 2))
    for g in all_algebras:
        for k in enumerate_unitary_k(g, 6):
            assert unitarity_range_contains(g, k)
            lv = level_data(g, k)
            e = lookup(g)
            assert k + e.h_vee < 0
            for m in lv.M_simple:
                assert m.denominator == 1 and m >= 0


@pytest.mark.parametrize("g, k, labels", [(catalog.psl22(), Q(-3), [1]),
                                          (catalog.spo2m(3), Q(-5, 4), [1]),
                                          (catalog.g3(), Q(-9, 4), [1, 1])],
                         ids=["psl22", "spo2m3", "G3"])
def test_no_request_evaluates_the_central_charge(monkeypatch, g, k, labels):
    """Only `wmin levels` and the survey read c: with `central_charge`
    raising, every request returns what it returns without the patch."""
    nu = lookup(g).nu_from_labels(labels)
    requests = {
        "decide": lambda: unitarity.decide(g, k, nu, 1),
        "character_massive": lambda: characters.character_massive(g, k, nu, 1, 2, 4),
        "character_massless": lambda: characters.character_massless(g, k, nu, 2, 4),
        "in_P_plus_k": lambda: weights.in_P_plus_k(g, k, nu),
        "sign2_scan": lambda: unitarity.sign2_scan(g, k, nu, 3, 3),
        "j_g_ratio": lambda: gram_lab.j_g_ratio(g, k, nu, 1),
    }

    def raising(*args):
        raise AssertionError("central charge evaluated")

    monkeypatch.setattr(levels, "central_charge", raising)
    got = {name: call() for name, call in requests.items()}
    monkeypatch.undo()
    assert got == {name: call() for name, call in requests.items()}
