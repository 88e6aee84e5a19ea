#!/usr/bin/env python3
"""Survey the candidate unitary levels across all families: component levels,
central charges, and collapsing points, printed as a table."""
import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wmin import catalog
from wmin.levels import central_charge, enumerate_unitary_k, level_data
from wmin.rationals import format_rational as fr


def survey(count: int):
    families = ([catalog.psl22(), catalog.spo2m(3), catalog.spo2m(5),
                 catalog.spo2m(6), catalog.sl2m(3)]
                + [catalog.d21a(m, n) for m, n in ((1, 1), (2, 1), (3, 2))]
                + [catalog.f4(), catalog.g3()])
    for g in families:
        print(f"\n== {g.label()} ==")
        ks = enumerate_unitary_k(g, count)
        if not ks:
            print("  (no candidate levels)")
            continue
        for k in ks:
            lv = level_data(g, k)
            tag = f"  collapses -> {lv.collapse_target}" if lv.collapsing else ""
            ms = ", ".join(fr(m) for m in lv.M_simple)
            print(f"  k = {fr(k):>7}   M = [{ms:>10}]   c = {fr(central_charge(g, k)):>8}{tag}")


if __name__ == "__main__":
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=6)
    args = ap.parse_args()
    survey(args.count)
