"""Write ``golden.json``: every request pool of the benchmark, with the digest
of the package's output for each request and the oracle check of each.

Run from the repository root as ``python3 bench/make_golden.py``.  It takes a
few minutes.  Regenerate only at a commit whose outputs are known good: the
benchmark treats any output that differs from these digests as a failure.
"""
from __future__ import annotations

import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import workloads as W  # noqa: E402
from wmin import catalog, levels, weights  # noqa: E402
from wmin.rationals import format_rational as fmt  # noqa: E402


def coords_of(nu):
    return [fmt(c) for c in nu]


def verdict_points():
    points = []
    for fam in W.VERDICT_FAMILIES:
        g = catalog.AlgebraId(*fam)
        for k in levels.enumerate_unitary_k(g, W.VERDICT_LEVELS):
            collapsing = levels.level_data(g, k).collapsing
            for nu in weights.enumerate_P_plus_k(g, k):
                points.append([list(fam), fmt(k), coords_of(nu),
                               fmt(weights.A_bound(g, k, nu)),
                               weights.is_extremal(g, k, nu), collapsing])
    return points


def char_variants(kind, fam, window, depth, n_levels, deltas):
    """Strata of one character request type: one list of alternatives (the
    l0 offsets above the threshold) per (k, nu)."""
    g = catalog.AlgebraId(*fam)
    entry = catalog.lookup(g)
    window, strata = Fraction(window), []
    for k in levels.enumerate_unitary_k(g, n_levels):
        for nu in weights.enumerate_P_plus_k(g, k):
            a = weights.A_bound(g, k, nu)
            base = [kind, list(fam), fmt(k), coords_of(nu)]
            if kind == "massless":
                n4 = []
                if fam == W.PSL22:
                    n4 = [int(-k - 1), int(entry.coroot_pairing(nu, entry.components[0].theta))]
                strata.append([base + [fmt(a), fmt(a + window), depth,
                                       fmt(window), n4]])
            elif not weights.is_extremal(g, k, nu):
                strata.append([base + [fmt(a + Fraction(d)),
                                       fmt(a + Fraction(d) + window), depth,
                                       fmt(window), []] for d in deltas])
    return strata


def main():
    golden = {"verdicts": {"points": verdict_points()}}
    fam, k, coords, l0, q_max, depth = W.G3_CASE
    g3_case = ["massive", list(fam), k, list(coords), l0, q_max, depth,
               fmt(Fraction(q_max) - Fraction(l0)), []]
    # each char_cold slot keeps one (k, nu), taken in turn over the levels and
    # weights, and the seed picks only its l0; so every run pays the same
    # costs, and the median request does not change with the seed
    golden["char_cold"] = [[g3_case]] + [
        strata[i % len(strata)]
        for i, strata in enumerate(char_variants(*slot) for slot in W.COLD_SLOTS)]
    golden["char_warm"] = [char_variants(*spec[:-1]) for spec in W.WARM_TYPES]

    reqs = [W.verdict_request(golden["verdicts"]["points"], i, d)
            for i in range(len(golden["verdicts"]["points"]))
            for d in range(len(W.VERDICT_DELTAS))]
    reqs += [W.char_request(e) for slot in golden["char_cold"] for e in slot]
    reqs += [W.char_request(e) for strata in golden["char_warm"]
             for stratum in strata for e in stratum]
    reqs += [W.gram_request("virasoro", (s, mu) + nm)
             for s in W.GRAM_S for mu in W.GRAM_MU for nm in W.GRAM_NM]
    reqs += [W.gram_request("adjoint_L", (s, mu, n))
             for s in W.GRAM_S for mu in W.GRAM_MU for n in W.GRAM_N]
    reqs += [W.gram_request("adjoint_a", (mu, n)) for mu in W.GRAM_MU for n in W.GRAM_N]
    reqs += [W.gram_request("exp_factorization", (s,) + nm)
             for s in W.GRAM_S for nm in W.GRAM_EXP]
    reqs += [W.gram_request("norms", (mu, e)) for mu in W.GRAM_MU for e in W.GRAM_ENERGIES]

    golden["digests"] = {}
    runner = W.Runner()
    memo, bad = {}, []
    for i, req in enumerate(reqs):
        if req.key in golden["digests"]:
            continue
        out = runner.call(runner.prepare(req))
        golden["digests"][req.key] = runner.output_digest(req, out)
        if not runner.check(req, out, memo):
            bad.append(req.key)
        if i % 500 == 0:
            print(f"{i}/{len(reqs)}", file=sys.stderr, flush=True)
    if bad:
        sys.exit(f"oracle check failed for {len(bad)} requests, e.g. {bad[:3]}")
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                                text=True, cwd=BENCH_DIR.parent).stdout.strip()
    except OSError:
        commit = ""
    golden["commit"] = commit or "unknown"
    with open(W.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, separators=(",", ":"), sort_keys=True)
        fh.write("\n")
    print(f"{len(golden['digests'])} requests recorded in {W.GOLDEN_PATH.name}")


if __name__ == "__main__":
    main()
