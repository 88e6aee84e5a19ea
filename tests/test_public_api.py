"""The public surface of `wmin`, pinned by name: removing a name or adding
one is a deliberate edit of these lists, never a side effect."""
import ast
from pathlib import Path

import pytest

import wmin
from wmin import CatalogEntry, NaturalComponent, QWSeries

PUBLIC = [
    "A_bound", "A_explicit", "AlgebraId", "B_bound", "BosonBasisState",
    "CatalogEntry", "GaussianRational", "LevelData", "NaturalComponent",
    "QWSeries", "UnitarityVerdict", "Vec", "adjointness_check", "boson_norm",
    "catalog", "central_charge", "central_charge_alt", "character_massive",
    "character_massless", "characters", "d21a", "decide", "ell_of_h",
    "enumerate_P_plus_k", "enumerate_unitary_k", "errors",
    "exp_factorization_check", "f4", "fairlie_matrix", "fns_series",
    "format_rational", "g3", "g_half_norm", "gram_lab", "h_even", "h_odd",
    "h_pair", "heisenberg_matrix", "in_P_plus_k", "is_extremal", "j_g_ratio",
    "level_data", "levels", "lookup", "n4_closed_form", "osp4m",
    "parse_rational", "psl22", "rationals", "series_from_records",
    "sign2_scan", "sl2m", "spo2m", "unitarity", "unitarity_range_contains",
    "validate", "verma_character", "virasoro_check", "weights", "weyl_orbit",
]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 60
    assert sorted(wmin.__all__) == PUBLIC


def test_qwseries_is_a_read_only_value():
    """A character is published as a QWSeries and read, not combined: the
    one series sum is `characters._sum_pieces`; `add_term` places a single
    term, for `series_from_records`."""
    assert [n for n in dir(QWSeries) if not n.startswith("_")] == [
        "add_term", "coeff", "depth", "entry", "n_terms", "q_max",
        "records", "ref", "terms", "truncated"]


def test_catalog_entry_methods_are_pinned():
    """The public methods of a catalog entry.  The benchmark calls
    `coroot_pairing` and `weyl_reflect` (bench/make_golden.py and
    bench/workloads.py), so deleting either is a deliberate edit."""
    assert [n for n in dir(CatalogEntry) if not n.startswith("_")] == [
        "casimir", "coroot_pairing", "coroots", "form", "lattice", "nu_from_labels",
        "pairings", "restrict", "shifted_level", "weyl_reflect"]


def test_natural_component_fields_are_pinned():
    """A component of g^nat holds its highest root and level constants; its
    simple roots are the entry's `simple_roots_natural`, not restated here."""
    assert list(NaturalComponent._fields) == [
        "index", "theta", "u", "hbar_vee", "chi"]


def _float_calls():
    """(name, call) for each public function and each public method that
    reads a rational or a coefficient, the call passing one float where a
    rational or a coefficient goes, a weight's coordinate in a plain list
    included."""
    from fractions import Fraction as Q

    from wmin import GaussianRational as GR
    g, nu = wmin.psl22(), wmin.Vec([0, 0, 0, 0])
    listed = [0.5, 0, 0, 0]  # a weight given as a plain list with a float coordinate
    e = wmin.lookup(g)
    gamma = e.delta_prime[0][0]
    series = wmin.fns_series(g, 2, 4)
    return [
        ("A_bound", lambda: wmin.A_bound(g, -3.0, nu)),
        ("A_bound", lambda: wmin.A_bound(g, -3, listed)),
        ("A_explicit", lambda: wmin.A_explicit(g, -3.0, nu)),
        ("B_bound", lambda: wmin.B_bound(g, -3.0, nu)),
        ("adjointness_check", lambda: wmin.adjointness_check(GR.imag(Q(1, 2)), 0.5, 1, 4)),
        ("central_charge", lambda: wmin.central_charge(g, -3.0)),
        ("central_charge_alt", lambda: wmin.central_charge_alt(g, -3.0)),
        ("character_massive", lambda: wmin.character_massive(g, -3, nu, 1.5, 3, 4)),
        ("character_massive", lambda: wmin.character_massive(g, -3, listed, 2, 3, 4)),
        ("character_massless", lambda: wmin.character_massless(g, -3, nu, 3.0, 4)),
        ("character_massless", lambda: wmin.character_massless(g, -3, listed, 3, 4)),
        ("decide", lambda: wmin.decide(g, -2.9999999999999996, nu, 1)),
        ("decide", lambda: wmin.decide(g, -3, listed, 1)),
        ("ell_of_h", lambda: wmin.ell_of_h(g, -3, nu, 0.5)),
        ("enumerate_P_plus_k", lambda: wmin.enumerate_P_plus_k(g, -3.0)),
        ("exp_factorization_check", lambda: wmin.exp_factorization_check(0.5, 2, 2)),
        ("fairlie_matrix", lambda: wmin.fairlie_matrix(GR.imag(1), 0.5, 1, 4)),
        ("fns_series", lambda: wmin.fns_series(g, 2.0, 4)),
        ("format_rational", lambda: wmin.format_rational(0.5)),
        ("g_half_norm", lambda: wmin.g_half_norm(g, -3, nu, 0.5)),
        ("h_even", lambda: wmin.h_even(g, -3, nu, 1.0, 1)),
        ("h_odd", lambda: wmin.h_odd(g, -3, nu, 0.5, gamma)),
        ("h_pair", lambda: wmin.h_pair(g, -3, nu, 0.5)),
        ("heisenberg_matrix", lambda: wmin.heisenberg_matrix(1, 0.5, 4)),
        ("in_P_plus_k", lambda: wmin.in_P_plus_k(g, -3.0, nu)),
        ("in_P_plus_k", lambda: wmin.in_P_plus_k(g, -3, listed)),
        ("is_extremal", lambda: wmin.is_extremal(g, -3.0, nu)),
        ("j_g_ratio", lambda: wmin.j_g_ratio(g, -3.0, nu, 1)),
        ("level_data", lambda: wmin.level_data(g, 0.1)),
        ("n4_closed_form", lambda: wmin.n4_closed_form(1, 0, 3.0, 4)),
        ("series_from_records", lambda: wmin.series_from_records(
            e, [{"q": 0.5, "weight": [0, 0, 0, 0], "coeff": 1}], 3, 4)),
        ("series_from_records", lambda: wmin.series_from_records(
            e, [{"q": 0, "weight": [0, 0, 0, 0], "coeff": 2.5}], 3, 4)),
        ("sign2_scan", lambda: wmin.sign2_scan(g, -3.0, nu, 2, 2)),
        ("unitarity_range_contains", lambda: wmin.unitarity_range_contains(g, -3.0)),
        ("verma_character", lambda: wmin.verma_character(g, nu, 0.5, 3, 4)),
        ("virasoro_check", lambda: wmin.virasoro_check(GR.imag(1), 0.5, 1, 1, 4)),
        ("weyl_orbit", lambda: wmin.weyl_orbit(g, -3, nu, 0, 3.0)),
        ("weyl_orbit", lambda: wmin.weyl_orbit(g, -3, nu, 0.5, 3)),
        ("Vec", lambda: wmin.Vec([0.1, 0, 0, 0])),
        ("Vec.__mul__", lambda: nu * 0.5),
        ("GaussianRational", lambda: GR(0.5)),
        ("GaussianRational.imag", lambda: GR.imag(0.5)),
        ("GaussianRational.__add__", lambda: GR(1) + 0.5),
        ("QWSeries", lambda: wmin.QWSeries(e, 3.0, 4)),
        ("QWSeries.add_term", lambda: series.add_term(0.5, nu, 1)),
        ("QWSeries.add_term", lambda: series.add_term(0, nu, 2.5)),
        ("QWSeries.coeff", lambda: series.coeff(0.5, nu)),
        ("QWSeries.truncated", lambda: series.truncated(1.0, 4)),
        ("CatalogEntry.shifted_level", lambda: e.shifted_level(-3.0)),
        ("CatalogEntry.pairings", lambda: e.pairings(0.5, nu)),
        ("CatalogEntry.nu_from_labels", lambda: e.nu_from_labels([0.5])),
    ]


# public functions whose arguments are ints, strings or package objects
NO_RATIONAL_ARGUMENT = {"boson_norm", "d21a", "enumerate_unitary_k", "f4", "g3", "lookup",
                        "osp4m", "parse_rational", "psl22", "sl2m", "spo2m", "validate"}


def test_every_public_entry_point_refuses_a_float():
    """A float converts exactly, but to its binary value, so a caller's
    decimal would be answered at another rational (decide at
    -2.9999999999999996 answered at k = -6755399441055743/2251799813685248).
    Every entry point raises `InexactScalar` instead, a `WminError`."""
    from wmin.errors import InexactScalar, WminError
    calls = _float_calls()
    def functions(names):
        return {n for n in names if callable(getattr(wmin, n, None))
                and not isinstance(getattr(wmin, n), type)}

    assert functions(wmin.__all__) == functions(n for n, _ in calls) | NO_RATIONAL_ARGUMENT
    assert issubclass(InexactScalar, WminError)
    for _, call in calls:
        with pytest.raises(InexactScalar, match="not an exact rational"):
            call()


def test_a_weight_coordinate_that_is_no_rational_is_refused():
    """A weight given as a plain list or tuple with a str coordinate raises
    `InexactScalar`, as a float coordinate does, in every call that reads
    the weight: no `AttributeError` escapes from the weight's scaling."""
    from wmin.errors import InexactScalar
    g = wmin.psl22()
    for nu in (["1/2", 0, 0, 0], (0, 0, "x", 0)):
        for call in (lambda: wmin.decide(g, -3, nu, 1), lambda: wmin.A_bound(g, -3, nu),
                     lambda: wmin.in_P_plus_k(g, -3, nu),
                     lambda: wmin.character_massive(g, -3, nu, 2, 3, 4),
                     lambda: wmin.character_massless(g, -3, nu, 3, 4),
                     lambda: wmin.character_massless(wmin.d21a(2), -1, nu[:3], 3, 4)):
            with pytest.raises(InexactScalar, match="not an exact rational"):
                call()


def test_no_assert_in_the_package():
    """No module of `wmin` checks anything with `assert`, which `python -O`
    strips: every check raises a `WminError`."""
    src = Path(wmin.__file__).resolve().parent
    found = [f"{path.name}:{node.lineno}" for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert len(list(src.glob("*.py"))) >= 9
    assert not found, found
