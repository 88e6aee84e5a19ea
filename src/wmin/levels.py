"""Scalar level arithmetic: component levels M_i(k), cocycle shifts, central
charge, collapsing detection, and the unitarity ranges."""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional

from .catalog import AlgebraId, CatalogEntry, lookup
from .rationals import rational_sqrt

Q = Fraction


def component_level(entry: CatalogEntry, k: Fraction, comp) -> Fraction:
    """M_i(k) = (2/u_i)(k + (h_vee - hbar_i_vee)/2)."""
    return (2 / comp.u) * (Q(k) + (entry.h_vee - comp.hbar_vee) / 2)


def central_charge(g: AlgebraId, k: Fraction) -> Fraction:
    """c(k) = k*sdim/(k+h_vee) - 6k + h_vee - 4."""
    entry = lookup(g)
    kh = entry.shifted_level(k)
    k = Q(k)
    return k * entry.sdim / kh - 6 * k + entry.h_vee - 4


def central_charge_alt(g: AlgebraId, k: Fraction):
    """Second evaluation path through the square-root form.

    Returns (value, applicable, note).  The rewrite uses
    s = sqrt(sdim*h_vee/6); it is evaluated exactly when s is rational and
    reported as not applicable otherwise.
    """
    entry = lookup(g)
    kh = entry.shifted_level(k)
    s = rational_sqrt(entry.sdim * entry.h_vee / 6)
    if s is None:
        return None, False, "sqrt(sdim*h_vee/6) is not rational"
    d, hv = entry.sdim, entry.h_vee
    c = 7 * hv + d - 4 - 12 * s - 6 * (kh - s) ** 2 / kh
    return c, True, f"sqrt = {s}"


@dataclass(frozen=True)
class LevelData:
    k: Fraction
    M: tuple                 # component levels in catalog order (center first if present)
    M_simple: tuple          # levels of the simple components only, index order 1..s
    alpha_levels: tuple      # M_i(k) + chi_i, same order as M
    c: Fraction
    p_k: Fraction            # monic collapsing polynomial evaluated at k
    collapsing: bool
    collapse_target: Optional[str]


def _collapse_zeros(entry: CatalogEntry):
    """Zeros of the monic collapsing polynomial: (z1, z2)."""
    comps = ([entry.center] if entry.center else []) + list(entry.components)
    if len(comps) == 2:
        zs = []
        for c in comps:
            # M_i vanishes at -(h_vee - hbar_i)/2
            zs.append(-(entry.h_vee - c.hbar_vee) / 2)
        return tuple(zs)
    c1 = entry.components[0]
    return (-(entry.h_vee - c1.hbar_vee) / 2, -c1.hbar_vee / 2 - 1)


def _collapse_target(entry: CatalogEntry, k: Fraction) -> str:
    fam = entry.id.family
    if entry.center is not None:  # sl(2|m)
        m0 = component_level(entry, k, entry.center)
        m1 = component_level(entry, k, entry.components[0])
        if m1 == 0 and m0 == 0:
            return "C"
        if m1 == 0:
            return f"free boson V_{m0}(center)"
        return f"V_{m1}(sl_{entry.id.m})"
    if len(entry.components) == 2:
        m1 = component_level(entry, k, entry.components[0])
        m2 = component_level(entry, k, entry.components[1])
        names = {"D21a": ("sl2 (component 1)", "sl2 (component 2)"),
                 "osp4m": ("sl2", f"sp_{entry.id.m}")}[fam]
        if m1 == 0 and m2 == 0:
            return "C"
        if m1 == 0:
            return f"V_{m2}({names[1]})"
        return f"V_{m1}({names[0]})"
    comp = entry.components[0]
    m1 = component_level(entry, k, comp)
    if m1 == 0:
        return "C"
    gname = {"psl22": "sl2", "spo2m": f"so_{entry.id.m}" if entry.id.m > 3 else "sl2",
             "F4": "so7", "G3": "G2"}[fam]
    return f"V_{m1}({gname})"


def level_data(g: AlgebraId, k: Fraction) -> LevelData:
    """All scalar data attached to a level, exactly."""
    entry = lookup(g)
    charge = central_charge(g, k)  # raises CriticalLevel at k = -h_vee
    k = Q(k)
    comps = ([entry.center] if entry.center else []) + list(entry.components)
    M = tuple(component_level(entry, k, c) for c in comps)
    M_simple = tuple(component_level(entry, k, c) for c in entry.components)
    alpha = tuple(component_level(entry, k, c) + c.chi for c in comps)
    z1, z2 = _collapse_zeros(entry)
    p_k = (k - z1) * (k - z2)
    collapsing = p_k == 0
    return LevelData(
        k=k, M=M, M_simple=M_simple, alpha_levels=alpha,
        c=charge, p_k=p_k, collapsing=collapsing,
        collapse_target=_collapse_target(entry, k) if collapsing else None)


# ---------------------------------------------------------------------------
# unitarity ranges


def _range_shape(g: AlgebraId):
    """(first level, step) of the arithmetic progression of candidate levels."""
    fam = g.family
    if fam == "psl22":
        return Q(-2), Q(-1)
    if fam == "spo2m":
        return (Q(-3, 4), Q(-1, 4)) if g.m == 3 else (Q(-1), Q(-1, 2))
    if fam == "F4":
        return Q(-4, 3), Q(-2, 3)
    if fam == "G3":
        return Q(-3, 2), Q(-3, 4)
    if fam == "D21a":
        step = -Q(g.a_num * g.a_den, g.a_num + g.a_den)
        return step, step
    raise AssertionError(fam)


def unitarity_range_contains(g: AlgebraId, k: Fraction) -> bool:
    """Membership in the per-family list of candidate unitary levels."""
    k = Q(k)
    fam = g.family
    if fam == "osp4m":
        return False
    if fam == "sl2m":
        return k == -1
    if fam == "D21a" and k == Q(-1, 2):
        return False  # the trivial module of D(2,1;1)
    first, step = _range_shape(g)
    n = (k - first) / step
    return n.denominator == 1 and n >= 0


def enumerate_unitary_k(g: AlgebraId, count: int) -> List[Fraction]:
    """First `count` levels of the unitarity range, from the largest down."""
    fam = g.family
    if fam == "osp4m":
        return []
    if fam == "sl2m":
        return [Q(-1)][:max(count, 0)]
    first, step = _range_shape(g)
    out: List[Fraction] = []
    k = first
    while len(out) < count:
        if not (fam == "D21a" and k == Q(-1, 2)):
            out.append(k)
        k = k + step
    return out
