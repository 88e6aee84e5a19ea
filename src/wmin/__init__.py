"""Exact unitarity decisions and truncated characters for minimal W-algebras."""

from .catalog import (AlgebraId, CatalogEntry, NaturalComponent, Vec, d21a, f4,
                      g3, lookup, osp4m, psl22, sl2m, spo2m, validate)
from .characters import (AffineWeight, QWSeries, character_massive,
                         character_massless, ell_of_h, fns_series, h_pair,
                         n4_closed_form, series_from_records, verma_character,
                         weyl_orbit)
from .gram_lab import (BosonBasisState, adjointness_check, boson_norm,
                       exp_factorization_check, fairlie_matrix, g_half_norm,
                       heisenberg_matrix, j_g_ratio, virasoro_check)
from .levels import (LevelData, central_charge, central_charge_alt,
                     enumerate_unitary_k, level_data, unitarity_range_contains)
from .rationals import GaussianRational, format_rational, parse_rational
from .unitarity import (UnitarityVerdict, decide, h_even, h_odd, sign2_scan)
from .weights import (A_bound, A_explicit, B_bound, HighestWeight,
                      enumerate_P_plus_k, in_P_plus_k, is_extremal)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
