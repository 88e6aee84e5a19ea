#!/usr/bin/env python3
"""The byte-identity grid: a fixed, deterministic set of public calls in
named sections, each call's record its canonical output or its refusal,
and one sha256 per section pinned in tests/grid_digests.json.

A record is the call's output as the CLI encodes it (`cli.verdict_to_dict`
for a verdict, `cli._jsonable` for scalars, weights and lists, the sorted
`records()` of a series, the fields of a `Sign2Report`), or, when the call
raises, the error's class and text.  A section's digest is the sha256 of
its lines "call<TAB>record", in order.  The sections:

    decide      `decide` over thirteen families (D21a(p/q), sl2m and osp4m
                included) at their first three unitary levels, two
                off-range levels, the collapsing levels and the critical
                level, on weights of P^+_k and off it, with l0 at A,
                A - 1/2, A + 1/3 and A + 1
    scalars     `A_bound`, `B_bound`, `A_explicit`, `in_P_plus_k`,
                `is_extremal`, `CatalogEntry.casimir`, `CatalogEntry.pairings`
                (at level 0 and at k), `j_g_ratio`, `h_even`, `h_odd` and
                `sign2_scan` on the same families, levels and weights
    characters  massive and massless characters at windows q_max - l0 up
                to 3/2 (sl2m's capped at 1) and depths 0, 1/3, 5/6, 2 and 3
    series      the series readers: `QWSeries.truncated`, `QWSeries.coeff`,
                `characters.depth_of` and `series_from_records`, on
                characters, plain sequences, wrong-length weights and
                malformed records
    builders    `fns_series`, `verma_character` and `n4_closed_form` (M1 = 1
                to 3, every r) at windows -1/2 to 3/2 and depths 0, 1/3, 2
                and 3, and their refusals, a bool M1 or r included
    gram        the boson lab: `virasoro_check` at e_max 1 to 8 on every
                (n, m) with |n| + |m| <= e_max - 1, `adjointness_check`
                ('L' and 'a') on every |n| <= e_max and
                `exp_factorization_check` with n_max, m_max in 1..4, each
                over fixed imaginary s and rational mu; `states_at_energy`,
                `states_up_to`, `heisenberg_matrix` and `fairlie_matrix` at
                small cutoffs; and every refusal of the seven int gates: a
                float, a bool, a `Fraction` and a str in each int position,
                a real s, an operator other than 'L' or 'a', and each window
                too small
    levels      `enumerate_unitary_k` at counts -1 to 4 and at True, 2.0 and
                Fraction(2), and `ell_of_h`, `h_pair` and `g_half_norm` at
                the decide section's levels, on the first weights there

    python3 scripts/grid.py                    # every section against its pin
    python3 scripts/grid.py --slice            # each section's pinned slice
    python3 scripts/grid.py --section decide --write
    python3 scripts/grid.py --dump OUT.jsonl   # every record, one per line
    python3 scripts/grid.py --diff OLD.jsonl   # the calls whose record changed

A run prints one JSON object: per section its call count, digest and
whether it equals the pin, and the run time.  A run of the whole
characters section also makes its calls twice more, last first over the
stores the first run filled and then in order after `_stores.clear()`,
and reports as `replay_equal` whether every record of the three runs is
the same: no answer depends on what the stores hold.  The exit code is 1
when a section differs from its pin or a replay from the first run (or,
with --diff, when a record changed).
`--write` re-pins the chosen sections, the whole section and its slice
(every `SLICE_EVERY[section]`-th call), and leaves the others as they are.
"""
import argparse
import hashlib
import json
import sys
import time
from fractions import Fraction as Q
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from wmin import _stores  # noqa: E402
from wmin import catalog, characters, cli, gram_lab, levels, unitarity, weights  # noqa: E402
from wmin.catalog import AlgebraId, CatalogEntry, Vec  # noqa: E402
from wmin.characters import QWSeries  # noqa: E402
from wmin.errors import WminError  # noqa: E402
from wmin.rationals import GaussianRational as GR  # noqa: E402
from wmin.rationals import format_rational  # noqa: E402

PINS = ROOT / "tests" / "grid_digests.json"
SECTIONS = ("decide", "scalars", "characters", "series", "builders", "gram", "levels")
SLICE_EVERY = {"decide": 3, "scalars": 7, "characters": 5, "series": 1, "builders": 11,
               "gram": 3, "levels": 5}
DEPTHS = (Q(0), Q(1, 3), Q(5, 6), Q(2), Q(3))  # of the characters section
BUILDER_WINDOWS = (Q(-1, 2), Q(0), Q(1, 2), Q(1), Q(3, 2))  # q_max above the lowest exponent
BUILDER_DEPTHS = (Q(0), Q(1, 3), Q(2), Q(3))
WEIGHTS_PER_LEVEL = 12  # weights of P^+_k per level: its first 8 and last 4

FAMILIES = (catalog.psl22(), catalog.sl2m(3), catalog.sl2m(4), catalog.spo2m(3),
            catalog.spo2m(5), catalog.spo2m(6), catalog.osp4m(4), catalog.osp4m(6),
            catalog.d21a(2), catalog.d21a(2, 3), catalog.d21a(5, 7), catalog.f4(), catalog.g3())


# -- canonical text ------------------------------------------------------------

def label(x) -> str:
    """An argument as call text."""
    if isinstance(x, AlgebraId):
        return x.label()
    if isinstance(x, CatalogEntry):
        return f"lookup({x.id.label()})"
    if isinstance(x, Q) or x.__class__ is int:
        return format_rational(x)
    if isinstance(x, (list, tuple)):
        inner = ",".join(map(label, x))
        return f"[{inner}]" if isinstance(x, list) else f"({inner})"
    return repr(x)


def record(out) -> str:
    """A call's output as its canonical JSON text."""
    if isinstance(out, unitarity.UnitarityVerdict):
        out = cli.verdict_to_dict(out)
    elif isinstance(out, unitarity.Sign2Report):
        out = {f: getattr(out, f) for f in out._fields}
    elif isinstance(out, QWSeries):
        out = {"q_max": out.q_max, "depth": out.depth, "ref": out.ref, "terms": out.records()}
    return json.dumps(cli._jsonable(out), separators=(",", ":"))


def run_call(fn, args) -> str:
    """fn(*args)'s record, or its refusal's class and text."""
    try:
        return record(fn(*args))
    except Exception as err:  # a refusal is a record, whatever its class
        return json.dumps({"raises": type(err).__name__, "text": str(err)})


# -- the calls -------------------------------------------------------------------

def _levels(g):
    """(kind, k) per level of g the grid visits."""
    entry = catalog.lookup(g)
    unitary = levels.enumerate_unitary_k(g, 3)
    first, step, _ = entry.unitary_range
    out = [("unitary", k) for k in unitary]
    out += [("off", first - step / 2), ("off", Q(1, 7))]
    c = entry._levels
    out += [("collapsing", Q(z, 2 * c.e)) for z in c.zeros]
    out.append(("critical", -entry.h_vee))
    return out


def _weights(g, k):
    """Weights of P^+_k at k (or, where P^+_k is infinite or empty, small
    label vectors), then four weights that may lie off it."""
    entry = catalog.lookup(g)
    try:
        plus = weights.enumerate_P_plus_k(g, k)
    except WminError:
        plus = []
    if len(plus) > WEIGHTS_PER_LEVEL:
        plus = plus[:8] + plus[-4:]
    if not plus:
        basis = entry.label_map[1]
        r = min(2, len(basis))
        plus = [entry.nu_from_labels(list(ls) + [0] * (len(basis) - r))
                for ls in product((0, 1), repeat=r)]
    return plus + [entry.xi, entry.rho_natural, -1 * entry.rho_natural, Q(1, 3) * entry.theta]


def _grid_points():
    """(g, kind, k, nu) over the families, their levels and the weights of
    their first unitary level (or of each unitary level at it)."""
    for g in FAMILIES:
        ks = _levels(g)
        base = next((k for kind, k in ks if kind == "unitary"), ks[0][1])
        for kind, k in ks:
            for nu in _weights(g, k if kind == "unitary" else base):
                yield g, kind, k, nu


def _threshold(g, k, nu):
    """A(k, nu), or None where it is not defined."""
    try:
        return weights.A_bound(g, k, nu)
    except WminError:
        return None


def decide_calls():
    for g, kind, k, nu in _grid_points():
        a = _threshold(g, k, nu)
        l0s = [Q(0), Q(1)] if a is None else [a - Q(1, 2), a, a + Q(1, 3), a + 1]
        for l0 in l0s:
            yield f"decide({label(g)},{label(k)},{label(nu)},{label(l0)})[{kind}]", \
                unitarity.decide, (g, k, nu, l0)


def scalar_calls():
    for g, kind, k, nu in _grid_points():
        entry = catalog.lookup(g)
        tag = f"({label(g)},{label(k)},{label(nu)}"
        for fn in (weights.A_bound, weights.B_bound, weights.A_explicit, weights.in_P_plus_k,
                   weights.is_extremal):
            yield f"{fn.__name__}{tag})", fn, (g, k, nu)
        yield f"casimir{tag})", entry.casimir, (nu,)
        yield f"pairings{tag},0)", entry.pairings, (0, nu)
        yield f"pairings{tag},k)", entry.pairings, (k, nu)
        for i in range(1, len(entry.components) + 1):
            yield f"j_g_ratio{tag},{i})", gram_lab.j_g_ratio, (g, k, nu, i)
        for n, m in ((1, 1), (1, 2), (Q(1, 2), Q(3, 2))):
            yield f"h_even{tag},{label(n)},{label(m)})", unitarity.h_even, (g, k, nu, n, m)
        for gamma in dict.fromkeys(w for w, _ in entry.delta_prime):
            for m in (Q(1, 2), Q(3, 2)):
                yield f"h_odd{tag},{label(m)},{label(gamma)})", unitarity.h_odd, \
                    (g, k, nu, m, gamma)
        yield f"sign2_scan{tag},2,3/2)", unitarity.sign2_scan, (g, k, nu, 2, Q(3, 2))


def character_calls():
    for g in FAMILIES:
        entry = catalog.lookup(g)
        unitary = [k for kind, k in _levels(g) if kind == "unitary"][:2]
        cap = 1 if g.family == "sl2m" else Q(3, 2)
        windows = [w for w in (Q(0), Q(1, 2), Q(1), Q(3, 2)) if w <= cap]
        for k in unitary or [_levels(g)[0][1]]:
            for nu in _weights(g, k)[:3] + [entry.xi]:
                a = _threshold(g, k, nu) or Q(0)
                tag = f"{label(g)},{label(k)},{label(nu)}"
                for w, depth in product(windows, DEPTHS):
                    for l0 in (a, a + Q(1, 2)):
                        yield (f"character_massive({tag},{label(l0)},{label(l0 + w)},"
                               f"{label(depth)})", characters.character_massive,
                               (g, k, nu, l0, l0 + w, depth))
                    yield (f"character_massless({tag},{label(a + w)},{label(depth)})",
                           characters.character_massless, (g, k, nu, a + w, depth))


def series_calls():
    psl, g3 = catalog.psl22(), catalog.g3()
    cases = [(psl, Q(-3), catalog.zero_vec(4), Q(1), Q(3), Q(4)),
             (psl, Q(-3), Vec([0, 0, Q(1, 2), Q(-1, 2)]), Q(3, 2), Q(3), Q(3)),
             (g3, Q(-9, 4), Vec([1, 1, 0]), Q(1), Q(5, 2), Q(2)),
             (catalog.spo2m(3), Q(-3, 2), Vec([0, 1]), Q(1), Q(5, 2), Q(3))]
    for g, k, nu, l0, q_max, depth in cases:
        entry, n = catalog.lookup(g), catalog.lookup(g).n
        s = characters.character_massive(g, k, nu, l0, q_max, depth)
        tag = f"massive({label(g)},{label(k)},{label(nu)},{label(l0)},{label(q_max)},{label(depth)})"
        keys = [(q, w) for q in sorted(s.terms) for w in sorted(s.terms[q], key=tuple)]
        for q, w in keys[::max(1, len(keys) // 6)] + [(l0, catalog.zero_vec(n))]:
            yield f"{tag}.coeff({label(q)},{label(w)})", s.coeff, (q, w)
            yield f"{tag}.coeff({label(q)},{label(list(w))})", s.coeff, (q, list(w))
        for w in ([0] * (n - 1), [0] * (n + 1), [0.5] + [0] * (n - 1), None):
            yield f"{tag}.coeff({label(l0)},{label(w)})", s.coeff, (l0, w)
        for qm, dp, ref in ((q_max, depth, None), (q_max - 1, depth - 1, None),
                            (q_max, depth - 1, entry.theta), (q_max, depth, list(nu)),
                            (q_max + 1, depth, None), (q_max, depth + 1, None),
                            (q_max, depth, [0] * (n - 1)), (q_max, depth, [0.5] * n)):
            yield f"{tag}.truncated({label(qm)},{label(dp)},{label(ref)})", s.truncated, \
                (qm, dp, ref)
        for a, b in ((nu, catalog.zero_vec(n)), (list(nu), entry.theta), (entry.xi, nu),
                     (nu, [0] * (n + 1)), ([0] * (n - 1), nu), (nu, [0.5] * n)):
            yield f"depth_of({label(entry)},{label(a)},{label(b)})", characters.depth_of, \
                (entry, a, b)
        recs = s.records()
        yield f"series_from_records({label(entry)},{tag}.records())", \
            characters.series_from_records, (entry, recs, q_max, depth, nu)
        yield f"series_from_records({label(g)},{tag}.records())", \
            characters.series_from_records, (g, recs, q_max, depth, nu)
        yield f"series_from_records({label(entry)},{tag}.records(),ref=list)", \
            characters.series_from_records, (entry, recs, q_max, depth, list(nu))
        zero = ["0"] * n
        for bad in ({"q": "x", "weight": zero, "coeff": 1}, {"q": "0", "weight": ["x"] + zero[1:],
                                                              "coeff": 1},
                    {"q": "0", "weight": zero}, {"weight": zero, "coeff": 1},
                    {"q": "0", "coeff": 1}, {"q": "0", "weight": zero[1:], "coeff": 1},
                    {"q": "1/0", "weight": zero, "coeff": 1}, {"q": 0.5, "weight": zero, "coeff": 1},
                    {"q": "0", "weight": zero, "coeff": "3"}, {"q": "0", "weight": zero, "coeff": 2.5},
                    {"q": "0", "weight": 0, "coeff": 1}, {"q": None, "weight": zero, "coeff": 1},
                    ["0", zero, 1], None):
            yield f"series_from_records({label(entry)},[{json.dumps(bad)}])", \
                characters.series_from_records, (entry, [bad], q_max, depth)
        yield f"series_from_records({label(entry)},None)", \
            characters.series_from_records, (entry, None, q_max, depth)
        yield f"series_from_records('{g.label()}',[])", \
            characters.series_from_records, (g.label(), [], q_max, depth)
        for ref in ([0] * (n - 1), 0):
            yield f"series_from_records({label(entry)},[],ref={label(ref)})", \
                characters.series_from_records, (entry, [], q_max, depth, ref)


def builder_calls():
    for g in FAMILIES:
        entry = catalog.lookup(g)
        for w, depth in product(BUILDER_WINDOWS, BUILDER_DEPTHS):
            yield f"fns_series({label(g)},{label(w)},{label(depth)})", characters.fns_series, \
                (g, w, depth)
            for nu, ell in product((entry.xi, Q(1, 3) * entry.theta), (Q(0), Q(1, 2))):
                yield (f"verma_character({label(g)},{label(nu)},{label(ell)},{label(ell + w)},"
                       f"{label(depth)})", characters.verma_character, (g, nu, ell, ell + w, depth))
        for nu in ([0] * (entry.n + 1), [Q(1, 2)] * entry.n, 0):
            yield f"verma_character({label(g)},{label(nu)},0,1,1)", characters.verma_character, \
                (g, nu, 0, 1, 1)
        yield f"fns_series({label(g)},1,-1)", characters.fns_series, (g, 1, -1)
    for M1 in (1, 2, 3):
        for r in range(M1 + 1):
            for w, depth in product(BUILDER_WINDOWS, BUILDER_DEPTHS):
                q_max = Q(r, 2) + w
                yield f"n4_closed_form({M1},{r},{label(q_max)},{label(depth)})", \
                    characters.n4_closed_form, (M1, r, q_max, depth)
    for M1, r in ((0, 0), (1, 2), (2, -1), (Q(2), 1), (2, 1.0), (True, 0), (1, True),
                  (2, False), (False, 0)):
        yield f"n4_closed_form({label(M1)},{label(r)},1,1)", characters.n4_closed_form, \
            (M1, r, 1, 1)


GRAM_S = (GR(0), GR.imag(Q(3, 7)), GR.imag(-2))  # the deformations s (and t) of the gram section
GRAM_MU = (Q(0), Q(5, 3), Q(-1, 2))
NON_INTS = (2.0, True, Q(2), "2")  # each in every int position of the gram gates


def gram_calls():
    sm = list(product(GRAM_S, GRAM_MU))
    for e_max in range(1, 9):
        reach = e_max - 1
        for n in range(-reach, reach + 1):
            for m in range(abs(n) - reach, reach - abs(n) + 1):
                for s, mu in sm:
                    yield f"virasoro_check({label(s)},{label(mu)},{n},{m},{e_max})", \
                        gram_lab.virasoro_check, (s, mu, n, m, e_max)
        for op, n in product("La", range(-e_max, e_max + 1)):
            for s, mu in sm:
                yield f"adjointness_check({label(s)},{label(mu)},{n},{e_max},{op})", \
                    gram_lab.adjointness_check, (s, mu, n, e_max, op)
    for t in GRAM_S + (GR(Q(1, 2), Q(-1, 3)),):
        for n_max, m_max in product(range(1, 5), repeat=2):
            yield f"exp_factorization_check({label(t)},{n_max},{m_max})", \
                gram_lab.exp_factorization_check, (t, n_max, m_max)
    for e in range(7):
        yield f"states_at_energy({e})", gram_lab.states_at_energy, (e,)
        yield f"states_up_to({e})", gram_lab.states_up_to, (e,)
    for e_max in range(4):
        for n in range(-e_max, e_max + 2):
            for mu in GRAM_MU:
                yield f"heisenberg_matrix({n},{label(mu)},{e_max})", \
                    gram_lab.heisenberg_matrix, (n, mu, e_max)
                for s in GRAM_S:
                    yield f"fairlie_matrix({label(s)},{label(mu)},{n},{e_max})", \
                        gram_lab.fairlie_matrix, (s, mu, n, e_max)
    s, mu, real = GRAM_S[1], GRAM_MU[1], GR(Q(1, 2))
    gates = [("virasoro_check", gram_lab.virasoro_check, (s, mu, 1, -1, 4)),
             ("adjointness_check", gram_lab.adjointness_check, (s, mu, 1, 4, "L")),
             ("adjointness_check", gram_lab.adjointness_check, (s, mu, 1, 4, "a")),
             ("exp_factorization_check", gram_lab.exp_factorization_check, (s, 2, 2)),
             ("states_at_energy", gram_lab.states_at_energy, (2,)),
             ("states_up_to", gram_lab.states_up_to, (2,)),
             ("heisenberg_matrix", gram_lab.heisenberg_matrix, (1, mu, 4)),
             ("fairlie_matrix", gram_lab.fairlie_matrix, (s, mu, 1, 4))]
    bad = [(name, fn, args[:i] + (x,) + args[i + 1:]) for name, fn, args in gates
           for i, arg in enumerate(args) if arg.__class__ is int for x in NON_INTS]
    bad += [(name, fn, args[:i] + (x, y) + args[i + 2:]) for name, fn, args in gates
            for i in range(len(args) - 1) if args[i].__class__ is args[i + 1].__class__ is int
            for x, y in ((2.0, True), ("2", 2.0))]  # the first bad argument is named
    bad += [("virasoro_check", gram_lab.virasoro_check, (real, mu, 1, -1, 4)),
            ("adjointness_check", gram_lab.adjointness_check, (real, mu, 1, 4, "L")),
            ("adjointness_check", gram_lab.adjointness_check, (real, mu, 1, 4, "a")),
            ("fairlie_matrix", gram_lab.fairlie_matrix, (real, mu, 1, 4)),
            ("adjointness_check", gram_lab.adjointness_check, (s, mu, 1, 4, "b")),
            ("adjointness_check", gram_lab.adjointness_check, (s, mu, 1, 4, "l")),
            ("virasoro_check", gram_lab.virasoro_check, (s, mu, 2, -2, 4)),
            ("virasoro_check", gram_lab.virasoro_check, (s, mu, 0, 0, 0)),
            ("adjointness_check", gram_lab.adjointness_check, (s, mu, -5, 4, "L")),
            ("adjointness_check", gram_lab.adjointness_check, (s, mu, 1, -1, "a")),
            ("heisenberg_matrix", gram_lab.heisenberg_matrix, (-3, mu, 2)),
            ("heisenberg_matrix", gram_lab.heisenberg_matrix, (0, mu, -1)),
            ("fairlie_matrix", gram_lab.fairlie_matrix, (s, mu, -3, 2)),
            ("fairlie_matrix", gram_lab.fairlie_matrix, (s, mu, 0, -1)),
            ("exp_factorization_check", gram_lab.exp_factorization_check, (s, 0, 2)),
            ("exp_factorization_check", gram_lab.exp_factorization_check, (s, 2, 0)),
            ("states_up_to", gram_lab.states_up_to, (-1,)),
            ("states_at_energy", gram_lab.states_at_energy, (-1,))]
    ints = {name: {i for i, a in enumerate(args) if a.__class__ is int} for name, _, args in gates}
    for name, fn, args in bad:  # a non-int in an int position as its repr: Fraction(2, 1), True
        text = ",".join(repr(a) if i in ints[name] and a.__class__ is not int else label(a)
                        for i, a in enumerate(args))
        yield f"{name}({text})", fn, args


def levels_calls():
    for g in FAMILIES:
        for count in (-1, 0, 1, 2, 3, 4, True, 2.0, Q(2)):
            text = label(count) if count.__class__ is int else repr(count)
            yield f"enumerate_unitary_k({label(g)},{text})", \
                levels.enumerate_unitary_k, (g, count)
    for g in FAMILIES:
        ks = _levels(g)
        base = next((k for kind, k in ks if kind == "unitary"), ks[0][1])
        for kind, k in ks:
            for nu in _weights(g, k if kind == "unitary" else base)[:3]:
                a = _threshold(g, k, nu)
                tag = f"({label(g)},{label(k)},{label(nu)}"
                for h in (Q(0), Q(1, 2), Q(-1), k + 1):
                    yield f"ell_of_h{tag},{label(h)})[{kind}]", characters.ell_of_h, (g, k, nu, h)
                for l0 in (Q(0), Q(1)) if a is None else (Q(0), a, a + Q(1, 2), a + 1):
                    yield f"h_pair{tag},{label(l0)})[{kind}]", characters.h_pair, (g, k, nu, l0)
                    yield f"g_half_norm{tag},{label(l0)})[{kind}]", gram_lab.g_half_norm, \
                        (g, k, nu, l0)


CALLS = {"decide": decide_calls, "scalars": scalar_calls, "characters": character_calls,
         "series": series_calls, "builders": builder_calls, "gram": gram_calls,
         "levels": levels_calls}


# -- running and pinning --------------------------------------------------------------

def section_lines(name, every=1, reverse=False, cold=False):
    """The "call<TAB>record" lines of every `every`-th call of a section,
    in section order.  With `reverse` the calls are made last first; with
    `cold` every store is emptied (`_stores.clear()`) once the calls are
    listed, before the first is made."""
    calls = [call for i, call in enumerate(CALLS[name]()) if i % every == 0]
    if cold:
        _stores.clear()
    order = range(len(calls))
    records = {i: run_call(*calls[i][1:]) for i in (reversed(order) if reverse else order)}
    return [f"{text}\t{records[i]}" for i, (text, _, _) in enumerate(calls)]


def replay_equal(lines) -> bool:
    """Whether the characters section, made again last call first over the
    stores its first run (`lines`) filled, and then in order from emptied
    stores, gives the first run's records."""
    return (section_lines("characters", reverse=True) == lines
            and section_lines("characters", cold=True) == lines)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def load_pins() -> dict:
    return json.loads(PINS.read_text()) if PINS.exists() else {}


def check_slices(names=SECTIONS) -> dict:
    """Each section's pinned slice: {section: (calls, digest, pinned digest)}."""
    pins = load_pins()
    out = {}
    for name in names:
        lines = section_lines(name, pins[name]["slice_every"])
        out[name] = (len(lines), digest(lines), pins[name]["slice_sha256"])
    return out


def _keyed(records) -> dict:
    """{(section, call, occurrence): record}: a call text that a section
    makes twice is told apart by its count."""
    seen, out = {}, {}
    for name, call, rec in records:
        i = seen[name, call] = seen.get((name, call), -1) + 1
        out[name, call, i] = rec
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--section", action="append", choices=SECTIONS,
                    help="run only this section (repeatable)")
    ap.add_argument("--slice", action="store_true", help="run each section's pinned slice")
    ap.add_argument("--write", action="store_true", help="re-pin the sections run")
    ap.add_argument("--dump", metavar="FILE", help="write every record, one JSON line each")
    ap.add_argument("--diff", metavar="OLD", help="name the calls whose record differs from a dump")
    args = ap.parse_args(argv)
    names = args.section or list(SECTIONS)
    if args.slice and (args.write or args.dump or args.diff):
        ap.error("--slice only checks")
    pins, report, records, bad = load_pins(), {}, [], False
    t0 = time.perf_counter()
    for name in names:
        if args.slice:
            count, got, want = check_slices([name])[name]
            report[name] = {"calls": count, "sha256": got, "same": got == want}
            bad |= got != want
            continue
        lines = section_lines(name)
        got = digest(lines)
        records += [(name, *line.split("\t", 1)) for line in lines]
        pinned = pins.get(name, {}).get("sha256")
        report[name] = {"calls": len(lines), "sha256": got, "same": got == pinned}
        if name == "characters":
            report["replay_equal"] = replay_equal(lines)
            bad |= not report["replay_equal"]
        if args.write:
            every = SLICE_EVERY[name]
            pins[name] = {"calls": len(lines), "sha256": got, "slice_every": every,
                          "slice_sha256": digest(lines[::every])}
        else:
            bad |= got != pinned
    report["run_s"] = round(time.perf_counter() - t0, 2)
    if args.write:
        PINS.write_text(json.dumps({n: pins[n] for n in SECTIONS if n in pins}, indent=1) + "\n")
    if args.dump:
        with open(args.dump, "w") as f:
            for name, call, rec in records:
                f.write(json.dumps({"section": name, "call": call, "record": rec}) + "\n")
    if args.diff:
        with open(args.diff) as f:
            old = _keyed([tuple(json.loads(line).values()) for line in f])
        new = _keyed(records)
        changed = [{"section": s, "call": c, "old": old.get((s, c, i)), "new": new.get((s, c, i))}
                   for s, c, i in list(old) + [key for key in new if key not in old]
                   if s in names and old.get((s, c, i)) != new.get((s, c, i))]
        report["changed"] = changed
        bad = bool(changed)
    print(json.dumps(report))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
