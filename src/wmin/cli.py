"""Command-line front end.

Subcommands: info, levels, range, check, scan-sign2, char, gram.  All
rationals are read and written as exact p/q strings; floats are rejected.
Exit codes: 0 success, 1 domain error, 2 argument/parse error.
"""
from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import List

from . import catalog, characters, gram_lab, levels, unitarity, weights
from .catalog import AlgebraId, Vec, lookup
from .errors import WminError
from .rationals import GaussianRational as GR
from .rationals import format_rational, parse_rational

Q = Fraction


def _rat_list(s: str) -> List[Fraction]:
    return [parse_rational(tok) for tok in s.split(",") if tok.strip()]


def _jsonable(x):
    if isinstance(x, bool) or x is None or isinstance(x, (str, int)):
        return x
    if isinstance(x, Fraction):
        return format_rational(x)
    if isinstance(x, Vec):
        return [format_rational(c) for c in x]
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    return str(x)


def algebra_from_args(args) -> AlgebraId:
    fam = args.g
    if fam in ("sl2m", "spo2m", "osp4m"):
        if args.m is None:
            raise WminError(f"--m is required for {fam}")
        return AlgebraId(fam, m=args.m)
    if fam == "D21a":
        if args.a is None:
            raise WminError("--a P/Q is required for D21a")
        a = parse_rational(args.a)
        if a <= 0:
            raise WminError("a must be a positive rational")
        return catalog.d21a(a.numerator, a.denominator)
    return AlgebraId(fam)


_M1_TO_K = {
    "psl22": lambda m1: -(m1 + 1),
    "F4": lambda m1: Q(-2, 3) * (m1 + 1),
    "G3": lambda m1: Q(-3, 4) * (m1 + 1),
}


def level_from_args(g: AlgebraId, args) -> Fraction:
    if getattr(args, "k", None) is not None:
        return parse_rational(args.k)
    m1 = getattr(args, "M1", None)
    if m1 is None:
        raise WminError("give --k (or --M1 where supported)")
    m1 = parse_rational(m1)
    if g.family == "spo2m":
        return -(m1 + 2) / 4 if g.m == 3 else -(m1 + 1) / 2
    if g.family in _M1_TO_K:
        return _M1_TO_K[g.family](m1)
    raise WminError(f"--M1 is not supported for {g.family}; use --k")


def nu_from_args(g: AlgebraId, args) -> Vec:
    entry = lookup(g)
    if getattr(args, "nu_coords", None):
        coords = _rat_list(args.nu_coords)
        if len(coords) != entry.n:
            raise WminError(f"{entry.id.label()} needs {entry.n} coordinates")
        return Vec(coords)
    if getattr(args, "nu_labels", None):
        labels = _rat_list(args.nu_labels)
    else:
        flags = ("--nu-r", "--nu-r2", "--nu-r3")
        parts = [getattr(args, nm, None) for nm in ("nu_r", "nu_r2", "nu_r3")]
        while parts and parts[-1] is None:
            parts.pop()
        if None in parts:  # ValueError: a usage error, exit code 2
            raise ValueError(f"{flags[len(parts) - 1]} needs "
                             f"{flags[parts.index(None)]}: weight labels are positional")
        labels = [parse_rational(p) for p in parts]
    if not labels:
        return catalog.zero_vec(entry.n)
    return entry.nu_from_labels(labels)


# ---------------------------------------------------------------------------
# serialization helpers (stable JSON schemas)


def verdict_to_dict(v: unitarity.UnitarityVerdict) -> dict:
    out = {"outcome": v.outcome,
           "reasons": list(v.reasons),
           "quantities": _jsonable(v.quantities)}
    if v.proved is not None:
        out["proved"] = v.proved
    if v.collapse is not None:
        out["collapse"] = {"target": v.collapse.target,
                           "weight_integrable": v.collapse.weight_integrable,
                           "l0": format_rational(v.collapse.l0),
                           "detail": v.collapse.detail}
    return out


def verdict_from_dict(d: dict) -> unitarity.UnitarityVerdict:
    col = None
    if "collapse" in d:
        c = d["collapse"]
        col = unitarity.CollapseCheck(c["target"], c["weight_integrable"],
                                      parse_rational(c["l0"]), c["detail"])
    qs = {}
    for key, val in d["quantities"].items():
        if isinstance(val, list):
            qs[key] = [parse_rational(x) if isinstance(x, str) else x for x in val]
        elif isinstance(val, str):
            qs[key] = parse_rational(val)
        else:
            qs[key] = val
    return unitarity.UnitarityVerdict(d["outcome"], qs, tuple(d["reasons"]),
                                      d.get("proved"), col)


# ---------------------------------------------------------------------------
# subcommand implementations


def cmd_info(args) -> dict:
    g = algebra_from_args(args)
    entry = lookup(g)
    rep = catalog.validate(entry)
    return {
        "algebra": entry.id.label(),
        "coords": list(entry.coord_names),
        "theta": _jsonable(entry.theta),
        "h_vee": format_rational(entry.h_vee),
        "sdim": format_rational(entry.sdim),
        "epsilon": entry.epsilon,
        "xi": _jsonable(entry.xi),
        "rho_natural": _jsonable(entry.rho_natural),
        "components": [{
            "index": c.index, "theta": _jsonable(c.theta),
            "u": format_rational(c.u), "hbar_vee": format_rational(c.hbar_vee),
            "chi": format_rational(c.chi)} for c in entry.components],
        "center": entry.center is not None,
        "delta_prime": [{"weight": _jsonable(w), "mult": mlt}
                        for w, mlt in entry.delta_prime],
        "iso_simple_count": entry.iso_simple_count,
        "validation": {"ok": rep.ok,
                       "checks": [{"name": c.name, "passed": c.passed,
                                   "detail": c.detail} for c in rep.checks]},
    }


def cmd_levels(args) -> dict:
    g = algebra_from_args(args)
    k = level_from_args(g, args)
    lv = levels.level_data(g, k)
    alt, applicable, note = levels.central_charge_alt(g, k)
    return {
        "algebra": g.label(),
        "k": format_rational(k),
        "M": [format_rational(m) for m in lv.M],
        "M_simple": [format_rational(m) for m in lv.M_simple],
        "alpha_levels": [format_rational(m) for m in lv.alpha_levels],
        "c": format_rational(lv.c),
        "c_sqrt_form": None if not applicable else format_rational(alt),
        "c_sqrt_form_note": note,
        "p_k": format_rational(lv.p_k),
        "collapsing": lv.collapsing,
        "collapse_target": lv.collapse_target,
        "in_unitarity_range": levels.unitarity_range_contains(g, k),
    }


def cmd_range(args) -> dict:
    g = algebra_from_args(args)
    ks = levels.enumerate_unitary_k(g, args.count)
    return {"algebra": g.label(),
            "k": [format_rational(k) for k in ks]}


def cmd_check(args) -> dict:
    g = algebra_from_args(args)
    k = level_from_args(g, args)
    nu = nu_from_args(g, args)
    if args.l0 is None:
        raise WminError("--l0 P/Q is required")
    v = unitarity.decide(g, k, nu, parse_rational(args.l0))
    out = verdict_to_dict(v)
    out["algebra"] = g.label()
    out["nu"] = _jsonable(nu)
    return out


def cmd_scan_sign2(args) -> dict:
    g = algebra_from_args(args)
    k = level_from_args(g, args)
    nu = nu_from_args(g, args)
    rep = unitarity.sign2_scan(g, k, nu, parse_rational(args.nmax),
                               parse_rational(args.mmax))
    return {
        "algebra": g.label(), "k": format_rational(Q(k)), "nu": _jsonable(nu),
        "hypothesis_met": rep.hypothesis_met, "label": rep.label,
        "checked": rep.checked, "ok": rep.ok,
        "violations": [{"kind": kind, "indices": _jsonable(list(idx)),
                        "value": format_rational(val), "A": format_rational(a)}
                       for kind, idx, val, a in rep.violations],
    }


def cmd_char(args) -> dict:
    g = algebra_from_args(args)
    k = level_from_args(g, args)
    nu = nu_from_args(g, args)
    q_max = parse_rational(args.qmax)
    depth = parse_rational(args.depth)
    a = weights.A_bound(g, k, nu)
    if args.l0 is not None:
        l0 = parse_rational(args.l0)
    else:
        l0 = a
    massless = args.massless or (not args.massive and l0 == a)
    if massless and l0 != a:
        raise WminError("massless characters require l0 = A(k,nu) exactly")
    if massless:
        ser = characters.character_massless(g, k, nu, q_max, depth)
        kind = "massless"
    else:
        ser = characters.character_massive(g, k, nu, l0, q_max, depth)
        kind = "massive"
    return {"algebra": g.label(), "k": format_rational(Q(k)),
            "nu": _jsonable(nu), "l0": format_rational(l0),
            "A": format_rational(a), "kind": kind,
            "q_max": format_rational(q_max), "depth": format_rational(depth),
            "series": ser.records()}


def cmd_gram(args) -> dict:
    e_max = args.emax
    checks = []

    def rec(name, passed, witness):
        checks.append({"name": name, "passed": bool(passed), "witness": witness})

    bad = [st for st in gram_lab.states_up_to(min(e_max, 6))
           if gram_lab.boson_norm(st) <= 0]
    rec("boson_norm_positive", not bad,
        f"all states with energy <= {min(e_max, 6)}" if not bad else str(bad[0].parts))

    grid_s = [GR.of(0), GR.imag(Q(1, 2)), GR.imag(Q(3, 7))]
    grid_mu = [Q(0), Q(2), Q(5, 3)]
    ok = True
    for s in grid_s:
        for mu in grid_mu:
            for n in range(-2, 3):
                for m in range(-2, 3):
                    if abs(n) + abs(m) > e_max - 1:
                        continue
                    if not gram_lab.virasoro_check(s, mu, n, m, e_max):
                        ok = False
                        rec("virasoro", False, f"s={s}, mu={mu}, n={n}, m={m}")
    if ok:
        rec("virasoro", True, f"|n|,|m| <= 2, E <= {e_max}, 9 parameter pairs")

    for operator in ("L", "a"):
        ok = True
        for s in grid_s:
            for mu in grid_mu:
                for n in range(-2, 3):
                    if not gram_lab.adjointness_check(s, mu, n, e_max, operator):
                        ok = False
                        rec(f"adjointness_{operator}", False,
                            f"s={s}, mu={mu}, n={n}")
        if ok:
            rec(f"adjointness_{operator}", True, "same grid")

    ok = gram_lab.exp_factorization_check(GR.imag(Q(3, 5)), 4, 4)
    rec("exp_factorization", ok, "t=3i/5, n,m <= 4")
    return {"e_max": e_max, "ok": all(c["passed"] for c in checks),
            "checks": checks}


# ---------------------------------------------------------------------------
# table rendering


def _render_table(d: dict, indent: str = "") -> str:
    lines = []
    for key, val in d.items():
        if isinstance(val, dict):
            lines.append(f"{indent}{key}:")
            lines.append(_render_table(val, indent + "  "))
        elif isinstance(val, list) and val and isinstance(val[0], dict):
            lines.append(f"{indent}{key}:")
            for item in val:
                flat = "  ".join(f"{k}={v}" for k, v in item.items())
                lines.append(f"{indent}  {flat}")
        else:
            lines.append(f"{indent}{key}: {val}")
    return "\n".join(lines)


# let bare negative rationals like -3/4 pass as values, not flags
_NEG_RATIONAL = re.compile(r"^-\d+(/\d+)?$")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wmin",
                                description="exact unitarity and characters "
                                            "for minimal W-algebras")
    p._negative_number_matcher = _NEG_RATIONAL
    p.add_argument("--format", choices=("table", "json"), default="table")
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, with_level=True, with_nu=True):
        sp.add_argument("--g", required=True, choices=catalog.FAMILIES)
        sp.add_argument("--m", type=int)
        sp.add_argument("--a", help="D(2,1;a): a as p/q")
        if with_level:
            sp.add_argument("--k", help="level, exact p/q")
            sp.add_argument("--M1", help="component level, alternative to --k")
        if with_nu:
            sp.add_argument("--nu-r", "--r", dest="nu_r", help="first weight label")
            sp.add_argument("--nu-r2", "--r2", dest="nu_r2", help="second weight label")
            sp.add_argument("--nu-r3", "--r3", dest="nu_r3", help="third weight label")
            sp.add_argument("--nu-labels", dest="nu_labels",
                            help="comma list of weight labels")
            sp.add_argument("--nu-coords", dest="nu_coords",
                            help="comma list of coordinates (escape hatch)")

    def add_parser(name, **kw):
        sp = sub.add_parser(name, **kw)
        sp._negative_number_matcher = _NEG_RATIONAL
        return sp

    sp = add_parser("info", help="print the catalog entry and validation")
    common(sp, with_level=False, with_nu=False)
    sp.set_defaults(fn=cmd_info)

    sp = add_parser("levels", help="level data at k")
    common(sp, with_nu=False)
    sp.set_defaults(fn=cmd_levels)

    sp = add_parser("range", help="enumerate the unitarity range")
    common(sp, with_level=False, with_nu=False)
    sp.add_argument("--count", type=int, default=10)
    sp.set_defaults(fn=cmd_range)

    sp = add_parser("check", help="unitarity verdict for (nu, l0)")
    common(sp)
    sp.add_argument("--l0", help="lowest energy, exact p/q")
    sp.set_defaults(fn=cmd_check)

    sp = add_parser("scan-sign2", help="singular-weight bound scan")
    common(sp)
    sp.add_argument("--nmax", default="8")
    sp.add_argument("--mmax", default="8")
    sp.set_defaults(fn=cmd_scan_sign2)

    sp = add_parser("char", help="truncated character series")
    common(sp)
    sp.add_argument("--l0", help="lowest energy; defaults to A(k,nu)")
    sp.add_argument("--qmax", default="4")
    sp.add_argument("--depth", default="8")
    sp.add_argument("--massless", action="store_true")
    sp.add_argument("--massive", action="store_true")
    sp.set_defaults(fn=cmd_char)

    sp = add_parser("gram", help="free-boson lab checks")
    sp.add_argument("--emax", type=int, default=6)
    sp.set_defaults(fn=cmd_gram)
    return p


def run(argv: List[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    try:
        out = args.fn(args)
    except (WminError, ValueError) as e:
        msg = {"error": type(e).__name__, "message": str(e)}
        if args.format == "json":
            print(json.dumps(msg, sort_keys=True))
        else:
            print(f"error [{msg['error']}]: {msg['message']}", file=sys.stderr)
        # malformed input (e.g. floats) is a usage error; the rest is domain
        return 2 if isinstance(e, ValueError) else 1
    if args.format == "json":
        print(json.dumps(out, sort_keys=True))
    else:
        print(_render_table(out))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
