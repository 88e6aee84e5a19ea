from fractions import Fraction as Q

import pytest

from wmin import catalog
from wmin.catalog import lookup, zero_vec
from wmin.errors import WindowTooSmall
from wmin.gram_lab import (VACUUM, BosonBasisState, GradedSliceOperator,
                           adjointness_check, boson_norm, exp_factorization_check,
                           fairlie_matrix, g_half_norm, heisenberg_matrix, j_g_ratio,
                           states_at_energy, states_up_to, virasoro_check)
from wmin.levels import enumerate_unitary_k, level_data
from wmin.rationals import GaussianRational as GR
from wmin.unitarity import decide
from wmin.weights import A_bound, enumerate_P_plus_k


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


def test_stored_columns_hold_no_zero_and_cancellation_empties():
    """Every sparse update goes through one add that drops cancelled entries:
    no operator column stores a zero coefficient (e_max 8, the benchmark's
    s and mu grid, |n| <= 3), and c*col - c*col comes out as {}."""
    for s in ("0", "1/2", "3/7", "1", "2/5", "5/3"):
        for mu in ("0", "2", "5/3", "1/2", "-1", "3/4"):
            for n in range(-3, 4):
                for op in (fairlie_matrix(GR.imag(Q(s)), Q(mu), n, 8),
                           heisenberg_matrix(n, Q(mu), 8)):
                    for col in op.columns.values():
                        assert all(col.values()), (op.name, s, mu, n)
    u, v = BosonBasisState.of({1: 1}), BosonBasisState.of({2: 1})
    col = fairlie_matrix(GR.imag(Q(1, 2)), Q(2), -1, 6).apply(u)
    assert len(col) > 1
    op = GradedSliceOperator("L", -1, Q(2), GR.imag(Q(1, 2)), 6, {u: col, v: col})
    c = GR(Q(3), Q(-2))
    assert op.apply_column({u: c, v: -c}) == {}
    assert op.apply_column({u: c, v: c}) == {k: GR.of(2) * c * x for k, x in col.items()}
