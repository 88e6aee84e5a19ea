"""The public surface of `wmin`, pinned by name: removing a name or adding
one is a deliberate edit of these lists, never a side effect."""
import dataclasses

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
    assert [f.name for f in dataclasses.fields(NaturalComponent)] == [
        "index", "theta", "u", "hbar_vee", "chi"]
