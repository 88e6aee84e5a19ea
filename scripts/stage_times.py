#!/usr/bin/env python3
"""Per-stage times and sizes of one character request, printed as JSON.

Runs the request three times in this fresh interpreter: cold (the
denominator expansion is built), warm (it is cached, and the cache of
l0-free orbit sums, `characters._orbit_sum`, is emptied just before, so
the orbit sum is computed again) and hit (the orbit sum is read from that
cache and placed at l0); then once more at q_max - 1/2 and depth
max(depth - 1, 0), a window inside the cold call's, whose denominator
`characters._fns_cached` answers from the series the cold call built.  The
stages are timed by wrapping
`characters._orbit`, `characters._fns_cached`, `characters._sum_pieces`,
`characters._publish` and the precondition checks for the calls, with the
garbage collector off, so that no collection of earlier garbage lands in a
timed stage:

    import_s              import wmin.characters
    denominator_build_s   the cold call's `_fns_cached` build of the NS
                          denominator (its first call to return: a quotient
                          asks for the denominator first)
    denominator_window    the kernel window [T, cap] that call built, as
                          ints (`catalog._Lattice.window`): T =
                          floor(2 reach) and cap = floor(scale depth),
                          from which `characters._window` slopes the caps
                          (`characters._orbit_sum` sizes it)
    denominator_terms     terms of that series in its sloped window
    denominator_buckets   its distinct (q, depth) pairs, the buckets the
                          build's cap tests ran on, read off the rows of
                          the held series
    quotients             the isotropic quotients the cold call built
                          (`_fns_cached` misses with an image key; 0 for a
                          massive request)
    quotients_warm        those the warm call built: 0, as it reads them
                          from the cache
    checks_s              the warm call's preconditions: its calls of
                          `_P_plus_data` (the level record and the
                          per-request pass over nu), `_is_extremal`,
                          `_excess`, l0 - A as an int pair whose sign is
                          the test l0 <= A (massive only), and
                          `_threshold`, summed
    orbit_s               the warm call's `_orbit`
    orbit_elements        orbit elements within the window
    limit                 the q_shift the orbit is walked to, floor(T/2)
                          for the kernel window T of q_max - l0
    eta_pairings          the part of the orbit-sum cache key that stands
                          for k: the pairings <lam0, eta_i^vee> of the
                          start, each capped at limit + 1 when none is
                          negative (`characters._orbit_sum`), so levels
                          that agree on them share one orbit sum
    sum_warm_s            the warm call's `_sum_pieces`; a massless
                          request reads its isotropic quotients from the
                          cache, so no division is timed here
    kept_terms            denominator terms kept and merged by it
    publish_s             the warm call's `_publish`, the part of
                          `sum_warm_s` that turns the int sums into the
                          published `Vec` weights of the l0-free levels
    weights_built         per call (cold, warm, hit, contained), the new
                          `Vec` weights `_publish` built: those its table
                          of published weights (`characters._weights`) did
                          not hold yet
    weights_held          the size of that table after the four calls
    warm_s, cold_s        the whole warm and cold calls
    hit_s                 the whole third call, which runs the preconditions
                          and places the cached orbit sum at l0
    contained_s           the whole fourth call, at the window
    contained_window      [q_max, depth] of it, as strings
    windows_built         per call (cold, warm, contained), the windows
                          `_fns_cached` built, denominators and quotients
    windows_from_held     per call, the calls of `_fns_cached` answered
                          from a held series whose window contains the
                          asked one, an equal window included (its hits)
    out_terms             terms of the character
    frame_s               a fresh build of the entry's frame of h^nat
                          (`catalog._Lattice`, held as `CatalogEntry.lattice`),
                          timed on its own; the cold call builds it once
    caches                the stores `catalog.lookup`, the level record
                          `levels._level`, `characters._fns_cached` and
                          `characters._orbit_sum` after the warm call, by
                          name, as `wmin._stores.info()` lists them: hits,
                          misses, maxsize and currsize

The wrappers keep the wrapped stores' `cache_info` and `cache_clear`, so
`wmin._stores` sees every store while they are in place, and the wrapped
functions are put back when the four calls are done, or fail.

Times are in seconds, rounded to 1 microsecond.

The defaults are the G3 case: massive, k = -9/4, nu = (1, 1, 0), l0 = 1,
q_max = 3, depth 6.  The second example below is a cheap miss of the
bench's char_warm pass at seed 3: a massive spo2m(3) sum at window 2 and
depth 6, 4 orbit elements over a 51-term denominator.

With `--gram E_MAX` the script times the integer kernel of the boson lab
(`wmin.gram_lab`) instead, cold, stage by stage, at cutoff E_MAX:

    basis_s               `_basis`: the states by position, energies, int norms
    states                its size, len(states_up_to(E_MAX))
    modes_s               the (s, mu)-free int maps: `_a_map` for
                          0 < |n| <= E_MAX and `_p_map` for 0 < |n| <= 6
    tables_s              the (s, mu)-free Virasoro tables `_virasoro_rows`
                          that the pairs |n|, |m| <= 3 inside the window read,
                          one per pair with n <= m, with the paired parts
                          `_paired` they are built from
    tables, rows          their number and, in all, the rows they keep, the
                          rows whose residual is not identically zero in
                          (s, mu), which the checks read: 0 on the
                          free-field maps
    virasoro_s            `virasoro_check` on those pairs, on the warm
                          tables, at s = 3i/7 and mu = 5/3
    adjoint_tables_s      the (s, mu)-free adjointness tables `_adjoint_rows`
                          for |n| <= 3, operators 'L' and 'a'
    adjoint_rows          the rows they keep in all: 0 on the free-field maps
    identities            the tables that keep no row, each an identity for
                          every (s, mu): {"virasoro": ..., "adjoint": ...}
    adjoint_s             `adjointness_check` on those, on the warm tables,
                          at the same (s, mu)
    norms_s               the benchmark's norms contraction: every state of
                          energy 1..E_MAX contracted to the vacuum with the
                          `heisenberg_matrix` views of its annihilators, at
                          mu = 5/3
    warm_check_ns         a warm check on the warm tables: per kind, the
                          median over its calls above and WARM_ROUNDS rounds
                          of the time per call of WARM_LOOPS calls in a row,
                          in nanoseconds, with the garbage collector off:
                          {"virasoro": ..., "adjoint_L": ..., "adjoint_a": ...}.
                          On the free-field maps such a check reads an empty
                          table, so this is the cost of checking its arguments
    caches                the stores of `gram_lab` afterwards
                          (`wmin._stores.info()`), by name: hits, misses,
                          maxsize and currsize

With `--verdicts COUNT` it times `wmin.unitarity.decide` instead, warm,
on COUNT requests drawn with `random.Random(SEED)` from a pool: every
weight of P^+_k (`enumerate_P_plus_k`) at the first six unitary levels
of the eight verdict families, each at l0 = A + delta for delta in
(-1/2, 0, 1/3).  Each stage runs on its own over the requests, after one
warm pass, with the garbage collector off; every time is the median of
five passes, in seconds for the whole set of requests:

    pool                  pool size (weights times deltas)
    requests              COUNT
    outcomes              the verdict outcomes of the requests, counted
    lookup_s              the first builds of the requests' catalog entries,
                          `catalog.lookup.__wrapped__` alone: the entry's
                          fields, not the tables (`coroots`, the covectors
                          and the per-request program `_program`) that the
                          family's first `decide` builds, which first_use
                          counts
    levels_s              the first builds of the requests' level records,
                          `levels._level` past its cache, on built entries
    first_builds          how many entries and level records those are
    decide_s              `decide` on every request
    stages                the steps of `decide`, each over the requests
                          that reach it; what they leave of decide_s is
                          its entry: the cached `lookup` and `_level`, the
                          coercions of k and l0, and the gates' branches
      scalars_s           `CatalogEntry._scalars`, the pass over nu (all)
      p_plus_s            `weights._in_P_plus` on its int pairings and the
                          level record's (those at a non-collapsing level)
      threshold_s         `weights._threshold`, A as an int pair (those in
                          P^+_k)
      extremal_s          `weights._is_extremal`, both characterizations
      closed_form_s       `weights._A_explicit`, the second route to A
      tail_s              `unitarity._tail`: A's `Fraction`, l0 - A as an
                          int pair and its `Fraction`, the outcome test on
                          its numerator's sign and the verdict record
    reached               how many requests each stage ran on
    first_use             a fresh pass: `catalog.lookup` and `levels._level`
                          emptied, then `decide` on every request in order,
                          each timed on its own and counted as the first
                          request of its family (which builds the entry and
                          its tables, and its level record), the first of
                          its level (which builds the level record) or a
                          steady one (all cached): per kind the requests,
                          the seconds they took in all and the median
                          microseconds per request, medians of five passes

With `--hits SEED` it times the cached character request instead: the
bench's char_warm pool at SEED (`bench/workloads.py`, built and called
through its `Runner`, in this interpreter) is run once, so that every
orbit sum it asks for is cached (`characters._orbit_sum`), and then
HIT_PASSES more times with the garbage collector off, each request timed
on its own:

    requests              the pool's size
    passes                HIT_PASSES
    hit_us                the median over the requests of each one's
                          fastest call, in microseconds: what a request
                          answered from the cache costs, its preconditions,
                          its start and window, and `_placed`
    hit_us_quartiles      the lower and upper quartile of those fastest calls
    sums_computed         orbit sums computed in the timed passes: 0, so
                          that every timed call is a hit

With `--setup COUNT` it times what a process pays before its first
answer instead, in COUNT fresh interpreters run with `-X importtime` and
the environment of this one (so with or without a bytecode cache as it
has one); every time is the median over them, in seconds:

    import_s              `import wmin`, timed in the interpreter
    modules               each `wmin` module's own import time, as
                          `-X importtime` reports it ("self", without the
                          modules it imports)
    families              per verdict family, `catalog.lookup` and then
                          `catalog.validate` of its entry: lookup_s,
                          validate_s; then three first builds of the entry:
                          coroots_s, the coroot table (`coroots`) with the
                          `_xi_cov` and `_casimir_cov` covectors of the
                          per-request pass; frame_s, the frame (`lattice`);
                          levels_s, the level records (`levels._level`) of
                          the family's first six unitary levels
    lookup_validate_s     their sum over the eight families, the part of the
                          benchmark's setup_s after the import

    python3 scripts/stage_times.py --g G3 --k -9/4
    python3 scripts/stage_times.py --g spo2m --m 3 --k -3/2 --nu 0,1 --l0 1 --qmax 3 --depth 6
    python3 scripts/stage_times.py --g psl22 --k -3 --nu 0,0,1/2,-1/2 --massless --qmax 4 --depth 6
    python3 scripts/stage_times.py --gram 8
    python3 scripts/stage_times.py --verdicts 750 --seed 3
    python3 scripts/stage_times.py --hits 3
    python3 scripts/stage_times.py --setup 21
"""
import argparse
import gc
import json
import os
import random
import re
import statistics
import subprocess
import sys
import time
from functools import update_wrapper
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    # read "-9/4" as a value, not a flag, as `wmin.cli` does; importing that
    # here would import wmin.characters before `import_s` times it
    ap._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$")
    ap.add_argument("--g", default="G3", help="family, with --m or --a where it needs one")
    ap.add_argument("--m", type=int, default=0)
    ap.add_argument("--a", default="1", help="D21a parameter, a rational")
    ap.add_argument("--k", default="-9/4")
    ap.add_argument("--nu", default="1,1,0", help="coordinates of nu, comma separated")
    ap.add_argument("--l0", default="1", help="massive only; massless uses the threshold")
    ap.add_argument("--massless", action="store_true")
    ap.add_argument("--qmax", default="3")
    ap.add_argument("--depth", default="6")
    ap.add_argument("--gram", type=int, metavar="E_MAX",
                    help="time the boson lab's integer kernel at this cutoff instead")
    ap.add_argument("--verdicts", type=int, metavar="COUNT",
                    help="time the stages of decide on COUNT seeded verdict requests instead")
    ap.add_argument("--seed", type=int, default=3, help="--verdicts: the request draw's seed")
    ap.add_argument("--hits", type=int, metavar="SEED",
                    help="time cached character requests of the seeded char_warm pool instead")
    ap.add_argument("--setup", type=int, metavar="COUNT",
                    help="time import and per-family set-up in COUNT fresh interpreters instead")
    args = ap.parse_args(argv)
    if args.setup is not None:
        print(json.dumps(setup_stages(args.setup)))
        return
    if args.gram is not None:
        print(json.dumps(gram_stages(args.gram)))
        return
    if args.verdicts is not None:
        print(json.dumps(verdict_stages(args.verdicts, args.seed)))
        return
    if args.hits is not None:
        print(json.dumps(hit_stages(args.hits)))
        return
    print(json.dumps(character_stages(args)))


STORES = {"catalog.lookup", "levels._level", "characters._fns_cached", "characters._orbit_sum"}
FIELDS = ("hits", "misses", "maxsize", "currsize")  # of a store's `_stores.info()` item


def character_stages(args):
    """The figures of one character request, its four calls in this
    interpreter; every function wrapped to time it is put back on return."""
    t0 = time.perf_counter()
    from wmin import characters
    import_s = time.perf_counter() - t0

    from fractions import Fraction as Q
    from wmin import _stores, catalog
    if args.g == "D21a":
        a = Q(args.a)
        g = catalog.d21a(a.numerator, a.denominator)
    else:
        g = catalog.AlgebraId(args.g, m=args.m)
    k, nu = Q(args.k), catalog.Vec(Q(c) for c in args.nu.split(","))
    q_max, depth = Q(args.qmax), Q(args.depth)

    calls = []  # (name, seconds, result, positional arguments) of each wrapped call, in order
    built = []  # the image keys of the quotients `_fns_cached` built, in order
    vecs = [0]  # the weights `_publish` built in the current call
    fns_cache, sum_cache, vec = characters._fns_cached, characters._orbit_sum, characters._vec
    checks = ("_P_plus_data", "_is_extremal", "_excess", "_threshold")
    wrapped = ("_vec", "_orbit", "_fns_cached", "_orbit_sum", "_sum_pieces", "_publish") + checks
    originals = {name: getattr(characters, name) for name in wrapped}

    def counted_vec(fracs):
        vecs[0] += 1
        return vec(fracs)

    def timed(name, fn):
        def wrapper(*a, **kw):
            misses = fns_cache.cache_info().misses
            t = time.perf_counter()
            out = fn(*a, **kw)
            calls.append((name, time.perf_counter() - t, out, a))
            if len(a) == 4 and fn is fns_cache and fns_cache.cache_info().misses > misses:
                built.append(a[3])  # a quotient key's first call: a build
            return out
        update_wrapper(wrapper, fn)
        if hasattr(fn, "cache_info"):  # a store: `_stores` finds it by these
            wrapper.cache_info, wrapper.cache_clear = fn.cache_info, fn.cache_clear
        return wrapper

    windows = {}  # call -> (windows built, windows answered from a held one)
    weights_built = {}  # call -> weights built

    def request(name, q_max=q_max, depth=depth):
        del calls[:], built[:]
        vecs[0] = 0
        before = fns_cache.cache_info()
        gc.disable()
        try:
            t = time.perf_counter()
            if args.massless:
                out = characters.character_massless(g, k, nu, q_max, depth)
            else:
                out = characters.character_massive(g, k, nu, Q(args.l0), q_max, depth)
            wall = time.perf_counter() - t
        finally:
            gc.enable()
        after = fns_cache.cache_info()
        windows[name] = (after.misses - before.misses, after.hits - before.hits)
        weights_built[name] = vecs[0]
        # the first call of each name to return: `_fns_cached`'s is the denominator
        return (out, wall, {name: (s, res, a) for name, s, res, a in reversed(calls)},
                sum(s for name, s, _, _ in calls if name in checks), len(built))

    for name in wrapped:
        setattr(characters, name, counted_vec if name == "_vec" else timed(name, originals[name]))
    try:
        _, cold_s, cold, _, quotients = request("cold")
        sum_cache.cache_clear()
        out, warm_s, warm, checks_s, quotients_warm = request("warm")
        caches = {name.partition(".")[2]: dict(zip(FIELDS, info))
                  for name, info in _stores.info().items() if name in STORES}
        _, hit_s, _, _, _ = request("hit")
        inner = (q_max - Q(1, 2), max(depth - 1, Q(0)))
        _, contained_s, _, _, _ = request("contained", *inner)
    finally:
        for name, fn in originals.items():
            setattr(characters, name, fn)
    fns_s, fns, (_, top, cap) = cold["_fns_cached"]
    _, _, (_, _, _, start, sum_top, *_) = warm["_orbit_sum"]
    t = time.perf_counter()
    catalog._Lattice(catalog.lookup(g))
    frame_s = time.perf_counter() - t
    return {
        "import_s": round(import_s, 6),
        "denominator_build_s": round(fns_s, 6),
        "denominator_window": [top, cap],
        "denominator_terms": sum(ends[-1] for _, ends, _ in fns.rows),
        "denominator_buckets": sum(len(depths) for depths, _, _ in fns.rows),
        "quotients": quotients,
        "quotients_warm": quotients_warm,
        "checks_s": round(checks_s, 6),
        "orbit_s": round(warm["_orbit"][0], 6),
        "orbit_elements": len(warm["_orbit"][1]),
        "limit": sum_top // 2,
        "eta_pairings": list(start[len(start) - len(catalog.lookup(g).components):]),
        "sum_warm_s": round(warm["_sum_pieces"][0], 6),
        "kept_terms": warm["_sum_pieces"][1][1],
        "publish_s": round(warm["_publish"][0], 6),
        "weights_built": weights_built,
        "weights_held": len(characters._weights),
        "warm_s": round(warm_s, 6),
        "cold_s": round(cold_s, 6),
        "hit_s": round(hit_s, 6),
        "contained_s": round(contained_s, 6),
        "contained_window": [str(x) for x in inner],
        "windows_built": {name: windows[name][0] for name in ("cold", "warm", "contained")},
        "windows_from_held": {name: windows[name][1] for name in ("cold", "warm", "contained")},
        "out_terms": out.n_terms(),
        "frame_s": round(frame_s, 6),
        "caches": caches,
    }


def gram_stages(e_max):
    """The `--gram` stages, each timed cold in this interpreter."""
    from fractions import Fraction as Q
    from wmin import _stores, gram_lab
    from wmin.rationals import GaussianRational as GR

    def timed(fn):
        t = time.perf_counter()
        fn()
        return round(time.perf_counter() - t, 6)

    s, mu, ns = GR.imag(Q(3, 7)), Q(5, 3), range(-6, 7)
    window = [(n, m) for n in range(-3, 4) for m in range(-3, 4) if abs(n) + abs(m) < e_max]
    keys = [(n, m) for n, m in window if n <= m]
    adjoint = [(op, n) for op in ("L", "a") for n in range(-min(3, e_max), min(3, e_max) + 1)]
    one = GR(1)

    def norms():  # as the benchmark's norms requests contract
        for e in range(1, e_max + 1):
            for u in gram_lab.states_at_energy(e):
                col = {u: one}
                for j, mult in sorted(u.parts, reverse=True):
                    op = gram_lab.heisenberg_matrix(j, mu, e_max)
                    for _ in range(mult):
                        col = op.apply_column(col)
                assert col[gram_lab.VACUUM] == gram_lab.boson_norm(u)

    out = {
        "basis_s": timed(lambda: gram_lab._basis(e_max)),
        "states": len(gram_lab._basis(e_max).states),
        "modes_s": timed(lambda: ([gram_lab._a_map(n, e_max) for n in range(-e_max, e_max + 1) if n],
                                  [gram_lab._p_map(n, e_max) for n in ns if n])),
        "tables_s": timed(lambda: [gram_lab._virasoro_rows(n, m, e_max) for n, m in keys]),
        "tables": len(keys),
        "rows": sum(len(gram_lab._virasoro_rows(n, m, e_max)) for n, m in keys),
        "virasoro_s": timed(lambda: [gram_lab.virasoro_check(s, mu, n, m, e_max)
                                     for n, m in window]),
        "adjoint_tables_s": timed(lambda: [gram_lab._adjoint_rows(n, e_max, op)
                                           for op, n in adjoint]),
        "adjoint_rows": sum(len(gram_lab._adjoint_rows(n, e_max, op)) for op, n in adjoint),
        "adjoint_s": timed(lambda: [gram_lab.adjointness_check(s, mu, n, e_max, op)
                                    for op, n in adjoint]),
        "identities": {
            "virasoro": sum(not gram_lab._virasoro_rows(n, m, e_max) for n, m in keys),
            "adjoint": sum(not gram_lab._adjoint_rows(n, e_max, op) for op, n in adjoint)},
        "norms_s": timed(norms),
    }
    out["warm_check_ns"] = {
        "virasoro": warm_ns(gram_lab.virasoro_check, [(s, mu, n, m, e_max) for n, m in window]),
        "adjoint_L": warm_ns(gram_lab.adjointness_check,
                             [(s, mu, n, e_max, op) for op, n in adjoint if op == "L"]),
        "adjoint_a": warm_ns(gram_lab.adjointness_check,
                             [(s, mu, n, e_max, op) for op, n in adjoint if op == "a"])}
    out["caches"] = {name.partition(".")[2]: dict(zip(FIELDS, info))
                     for name, info in _stores.info().items() if name.startswith("gram_lab.")}
    return out


WARM_LOOPS = 200  # calls in a row per `warm_check_ns` sample
WARM_ROUNDS = 5  # samples per call of `warm_check_ns`


def warm_ns(fn, calls):
    """The median over `calls` and WARM_ROUNDS rounds of the nanoseconds
    per call of fn(*args) made WARM_LOOPS times in a row, gc off."""
    clock, loops, samples = time.perf_counter_ns, range(WARM_LOOPS), []
    gc.disable()
    try:
        for _ in range(WARM_ROUNDS):
            for args in calls:
                t = clock()
                for _ in loops:
                    fn(*args)
                samples.append((clock() - t) / WARM_LOOPS)
    finally:
        gc.enable()
    return round(statistics.median(samples), 1)


def verdict_families(catalog):
    """The eight families of the verdict pool (and of the bench's verdicts)."""
    return [catalog.psl22(), catalog.spo2m(3), catalog.spo2m(5), catalog.spo2m(6),
            catalog.d21a(2), catalog.d21a(2, 3), catalog.f4(), catalog.g3()]


# one `--setup` interpreter, given the families' `AlgebraId` fields as JSON:
# its timings as one JSON line
SETUP_CODE = """
import json, sys, time
t0 = time.perf_counter()
import wmin
from wmin import catalog
t1 = time.perf_counter()
from wmin import levels
out = {"import_s": t1 - t0, "families": {}}
for fields in json.loads(sys.argv[1]):
    g = catalog.AlgebraId(*fields)
    t = [time.perf_counter()]
    entry = catalog.lookup(g)
    t.append(time.perf_counter())
    catalog.validate(entry)
    t.append(time.perf_counter())
    entry.coroots, entry._xi_cov, entry._casimir_cov
    t.append(time.perf_counter())
    entry.lattice
    t.append(time.perf_counter())
    for k in levels.enumerate_unitary_k(g, 6):
        levels._level(g, k.numerator, k.denominator)
    t.append(time.perf_counter())
    out["families"][g.label()] = [b - a for a, b in zip(t, t[1:])]
print(json.dumps(out))
"""
# the times SETUP_CODE gives per family, in its order
FAMILY_KEYS = ("lookup_s", "validate_s", "coroots_s", "frame_s", "levels_s")
IMPORTTIME = re.compile(r"^import time:\s+(\d+) \|\s+\d+ \|\s+(wmin\S*)$")


def setup_stages(count):
    """The `--setup` figures: medians over `count` fresh interpreters."""
    from wmin import catalog
    families = json.dumps([[g.family, g.m, g.a_num, g.a_den] for g in verdict_families(catalog)])
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = []
    for _ in range(count):
        done = subprocess.run([sys.executable, "-X", "importtime", "-c", SETUP_CODE, families],
                              capture_output=True, text=True, env=env, check=True)
        run = json.loads(done.stdout)
        run["families"] = {label: dict(zip(FAMILY_KEYS, times))
                           for label, times in run["families"].items()}
        run["modules"] = {m.group(2): int(m.group(1)) / 1e6
                          for m in map(IMPORTTIME.match, done.stderr.splitlines()) if m}
        runs.append(run)

    def median(values):
        return round(statistics.median(values), 6)

    return {
        "interpreters": count,
        "import_s": median([r["import_s"] for r in runs]),
        "modules": {name: median([r["modules"][name] for r in runs])
                    for name in sorted(runs[0]["modules"])},
        "families": {label: {key: median([r["families"][label][key] for r in runs])
                             for key in FAMILY_KEYS}
                     for label in runs[0]["families"]},
        "lookup_validate_s": median([sum(f["lookup_s"] + f["validate_s"]
                                         for f in r["families"].values()) for r in runs]),
    }


LEVELS = 6  # unitary levels per family in the `--verdicts` pool
PASSES = 5  # timed passes per `--verdicts` stage


def verdict_stages(count, seed):
    """The `--verdicts` stages: each a loop over the requests that reach it."""
    from collections import Counter
    from fractions import Fraction as Q
    from wmin import catalog, levels as lv_mod, unitarity, weights

    families = verdict_families(catalog)
    deltas = (Q(-1, 2), Q(0), Q(1, 3))
    pool = [(g, k, nu, weights.A_bound(g, k, nu) + dl)
            for g in families for k in lv_mod.enumerate_unitary_k(g, LEVELS)
            for nu in weights.enumerate_P_plus_k(g, k) for dl in deltas]
    reqs = random.Random(seed).choices(pool, k=count)
    verdicts = [unitarity.decide(*r) for r in reqs]
    rows = []  # (entry, record, nu, scalars, l0) of each request, as decide reads them
    for g, k, nu, l0 in reqs:
        entry = catalog.lookup(g)
        rows.append((entry, lv_mod._level(g, k.numerator, k.denominator), nu,
                     entry._scalars(nu), l0))
    ranged = [r for r in rows if not r[1].data.collapsing]
    inside = [r for r in ranged if weights._in_P_plus(r[0], r[1].m_ints, r[3].d, r[3].ps)]
    # what `_tail` reads of each request past the gates
    tails = [(e, rec.data, l0, weights._threshold(rec, sc), weights._is_extremal(e, rec, sc),
              weights._A_explicit(e, rec.data.k, sc.d, sc.x, sc.ps))
             for e, rec, nu, sc, l0 in inside]
    keys = list(dict.fromkeys((g, k.numerator, k.denominator) for g, k, _, _ in reqs))
    entries = list(dict.fromkeys(g for g, _, _ in keys))

    def timed(fn, items):
        gc.disable()
        try:
            for item in items:  # one warm pass
                fn(*item)
            ts = []
            for _ in range(PASSES):
                t = time.perf_counter()
                for item in items:
                    fn(*item)
                ts.append(time.perf_counter() - t)
        finally:
            gc.enable()
        return round(statistics.median(ts), 6)

    stages = {
        "scalars_s": timed(lambda e, rec, nu, sc, l0: e._scalars(nu), rows),
        "p_plus_s": timed(lambda e, rec, nu, sc, l0: weights._in_P_plus(e, rec.m_ints, sc.d,
                                                                         sc.ps), ranged),
        "threshold_s": timed(lambda e, rec, nu, sc, l0: weights._threshold(rec, sc), inside),
        "extremal_s": timed(lambda e, rec, nu, sc, l0: weights._is_extremal(e, rec, sc), inside),
        "closed_form_s": timed(lambda e, rec, nu, sc, l0: weights._A_explicit(
            e, rec.data.k, sc.d, sc.x, sc.ps), inside),
        "tail_s": timed(unitarity._tail, tails),
    }
    first_use = [fresh_pass(reqs) for _ in range(PASSES)]
    return {
        "pool": len(pool),
        "requests": count,
        "outcomes": dict(sorted(Counter(v.outcome for v in verdicts).items())),
        "lookup_s": timed(lambda: [catalog.lookup.__wrapped__(g) for g in entries], [()]),
        "levels_s": timed(lambda: [lv_mod._level.__wrapped__(*key) for key in keys], [()]),
        "first_builds": {"entries": len(entries), "level_records": len(keys)},
        "decide_s": timed(unitarity.decide, reqs),
        "stages": stages,
        "reached": {"scalars_s": len(rows), "p_plus_s": len(ranged),
                    "threshold_s": len(inside), "extremal_s": len(inside),
                    "closed_form_s": len(inside), "tail_s": len(tails)},
        "first_use": {kind: {"requests": len(first_use[0][kind]),
                             "total_s": round(statistics.median(sum(p[kind]) for p in first_use), 6),
                             "median_us": round(statistics.median(
                                 statistics.median(p[kind]) for p in first_use) * 1e6, 2)}
                      for kind in FIRST_USE},
    }


FIRST_USE = ("first_per_family", "first_per_level", "steady")


def fresh_pass(reqs):
    """{kind: [seconds per request]} of one pass of `decide` over reqs from
    an emptied `catalog.lookup` and `levels._level`, with the garbage
    collector off; the kinds are `FIRST_USE`."""
    from wmin import catalog, levels, unitarity

    catalog.lookup.cache_clear()
    levels._level.cache_clear()
    seen, out = set(), {kind: [] for kind in FIRST_USE}
    gc.disable()
    try:
        for g, k, nu, l0 in reqs:
            kind = ("first_per_family" if g not in seen else
                    "first_per_level" if (g, k) not in seen else "steady")
            t = time.perf_counter()
            unitarity.decide(g, k, nu, l0)
            out[kind].append(time.perf_counter() - t)
            seen.update((g, (g, k)))
    finally:
        gc.enable()
    return out


HIT_PASSES = 300  # timed all-hit passes of `--hits`


def hit_stages(seed):
    """The `--hits` figures: each request's fastest of HIT_PASSES calls."""
    sys.path.insert(0, str(SRC.parent / "bench"))
    import workloads as W
    from wmin import characters

    runner = W.Runner()
    calls = [runner.prepare(r)
             for r in W.generate("char_warm", seed, W.NOMINAL_SECONDS, W.load_golden())]
    for call in calls:  # fills the orbit-sum cache
        runner.call(call)
    computed = characters._orbit_sum.cache_info().misses
    best = [float("inf")] * len(calls)
    clock = time.perf_counter
    gc.disable()
    try:
        for _ in range(HIT_PASSES):
            for i, call in enumerate(calls):
                t = clock()
                runner.call(call)
                t = clock() - t
                if t < best[i]:
                    best[i] = t
    finally:
        gc.enable()
    q1, q2, q3 = statistics.quantiles(best, n=4)
    return {
        "requests": len(calls),
        "passes": HIT_PASSES,
        "hit_us": round(q2 * 1e6, 2),
        "hit_us_quartiles": [round(q1 * 1e6, 2), round(q3 * 1e6, 2)],
        "sums_computed": characters._orbit_sum.cache_info().misses - computed,
    }


if __name__ == "__main__":
    main()
