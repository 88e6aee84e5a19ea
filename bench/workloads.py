"""Workloads of the wmin benchmark: request pools, seeded generators, the
call each request makes, and the checks on each output.

The pools and the golden output digests live in ``golden.json``, written by
``make_golden.py`` from the package at the commit that defined the benchmark.
Generators read only that file and the seed, so the program under test sees
only the generated inputs, and a run under any seed is checked bit for bit.
A request carries everything its call and its oracle need, so the process
that runs it loads no golden data: it returns output digests, which
``golden_failures`` compares with the recorded ones.

Why each workload exists:

* ``verdicts``: ``decide`` on (family, k, nu, l0) over P^+_k at the first six
  unitary levels of eight families.  The catalog/levels/weights stack does
  nearly all the work; ``characters`` does none.
* ``char_cold``: about 50 character requests, no two sharing
  (family, q_max - l0, depth), so each builds its own NS denominator
  expansion, as independent ``wmin char`` calls do.  Always includes the G3
  case k=-9/4, labels [1,1], l0=1, q_max=3, depth 6.
* ``char_warm``: about 100 character requests over many levels and weights
  that share three (family, window, depth) keys, so after the first request
  per key the orbit summation dominates: the same layer used the other way.
* ``gram``: boson-lab checks at e_max 8 over seeded purely imaginary s and
  rational mu; the only workload that runs ``gram_lab`` and
  ``GaussianRational``.

F4 characters are left out: one request takes 10-66 s even at window 1.  The
``verdicts`` pool still covers F4.
"""
from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
GOLDEN_PATH = BENCH_DIR / "golden.json"
NOMINAL_SECONDS = 15       # run length the request counts below are sized for
E_MAX = 8

WORKLOADS = ("verdicts", "char_cold", "char_warm", "gram")
# fresh-interpreter passes over the same requests in one run, whose
# latencies are pooled (see run.py); about 15 s of requests in each run
PASSES = {"verdicts": 4, "char_cold": 1, "char_warm": 2, "gram": 4}

# -- pool specifications (materialized by make_golden.py) ---------------------

VERDICT_FAMILIES = (("psl22",), ("spo2m", 3), ("spo2m", 5), ("spo2m", 6),
                    ("D21a", 0, 2, 1), ("D21a", 0, 2, 3), ("F4",), ("G3",))
VERDICT_LEVELS = 6
VERDICT_DELTAS = ("-1/2", "0", "1/3")
VERDICT_COUNT = 750

PSL22, SPO3, G3 = ("psl22",), ("spo2m", 3), ("G3",)
# (family, k, coords of nu, l0, q_max, depth)
G3_CASE = (G3, "-9/4", ("1", "1", "0"), "1", "3", "6")

# char_cold slots: (kind, family, window, depth, levels, deltas); every slot
# has its own (family, window, depth), and massive and massless requests of
# one family share the denominator cache, so their keys differ too.
COLD_SLOTS = (
    ("massive", G3, "1/2", "4", 4, ("1/2", "1")),
    ("massive", G3, "1/2", "6", 4, ("1/2", "1")),
    ("massive", G3, "1", "2", 4, ("1/2", "1")),
    ("massive", PSL22, "1", "4", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "1", "6", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "3/2", "6", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "2", "4", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "2", "8", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "3", "6", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "1/2", "4", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "1/2", "8", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "3/2", "8", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "5/2", "4", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "2", "6", 5, ("1/3", "1/2", "1")),
    ("massless", PSL22, "1/2", "6", 5, ()),
    ("massless", PSL22, "1", "8", 5, ()),
    ("massless", PSL22, "3/2", "4", 5, ()),
    ("massless", PSL22, "5/2", "6", 5, ()),
    ("massive", SPO3, "1", "4", 5, ("1/3", "1/2", "1")),
    ("massive", SPO3, "3/2", "6", 5, ("1/3", "1/2", "1")),
    ("massive", SPO3, "2", "6", 5, ("1/3", "1/2", "1")),
    ("massive", SPO3, "5/2", "4", 5, ("1/3", "1/2", "1")),
    ("massive", SPO3, "3", "6", 5, ("1/3", "1/2", "1")),
    ("massive", SPO3, "1/2", "4", 5, ("1/3", "1/2", "1")),
    ("massive", SPO3, "1/2", "6", 5, ("1/3", "1/2", "1")),
    ("massive", SPO3, "1", "6", 5, ("1/3", "1/2", "1")),
    ("massive", SPO3, "3/2", "4", 5, ("1/3", "1/2", "1")),
    ("massive", SPO3, "2", "4", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "1", "5", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "3/2", "5", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "2", "5", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "5/2", "5", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "1", "3", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "3/2", "3", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "2", "3", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "5/2", "8", 5, ("1/3", "1/2", "1")),
    ("massive", PSL22, "3", "4", 5, ("1/3", "1/2", "1")),
    ("massive", SPO3, "1", "8", 5, ("1/3", "1/2", "1")),
    ("massive", SPO3, "3/2", "8", 5, ("1/3", "1/2", "1")),
    ("massive", SPO3, "2", "8", 5, ("1/3", "1/2", "1")),
    ("massive", SPO3, "5/2", "6", 5, ("1/3", "1/2", "1")),
    ("massive", SPO3, "1", "5", 5, ("1/3", "1/2", "1")),
    ("massive", SPO3, "3/2", "5", 5, ("1/3", "1/2", "1")),
    ("massive", SPO3, "2", "5", 5, ("1/3", "1/2", "1")),
    ("massive", SPO3, "1/2", "8", 5, ("1/3", "1/2", "1")),
    ("massive", SPO3, "3", "4", 5, ("1/3", "1/2", "1")),
    ("massless", PSL22, "1", "2", 5, ()),
    ("massless", PSL22, "2", "2", 5, ()),
    ("massless", PSL22, "3/2", "2", 5, ()),
    ("massless", PSL22, "1/2", "3", 5, ()),
)

# char_warm request types: (kind, family, window, depth, levels, deltas, count);
# each count is a whole number of passes over the type's (k, nu) strata, so
# the mix of costly and cheap weights is the same in every run.
WARM_TYPES = (
    ("massive", G3, "1", "4", 3, ("1/2", "1"), 7),
    ("massless", PSL22, "2", "6", 5, (), 20),
    ("massive", PSL22, "2", "6", 5, ("1/3", "1/2", "2/3", "1", "3/2"), 45),
    ("massive", SPO3, "2", "6", 5, ("1/3", "1/2", "2/3", "1", "3/2"), 30),
)

# gram: each run draws GRAM_S_PER_RUN of the s values and as many mu values;
# every request then uses one of those pairs, so the operator builds a run
# pays for are the same in number from seed to seed.
GRAM_S = ("0", "1/2", "3/7", "1", "2/5", "5/3")        # s = value * sqrt(-1)
GRAM_MU = ("0", "2", "5/3", "1/2", "-1", "3/4")
GRAM_S_PER_RUN = 3
GRAM_NM = tuple((n, m) for n in range(-3, 4) for m in range(-3, 4))
GRAM_N = tuple(range(-3, 4))
GRAM_EXP = ((4, 4), (5, 5), (3, 5), (5, 3))
GRAM_ENERGIES = tuple(range(1, E_MAX + 1))
GRAM_COUNTS = {"virasoro": 98, "adjoint_L": 35, "adjoint_a": 14,
               "exp_factorization": 8, "norms": 16}


# -- requests -----------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    kind: str
    params: tuple     # strings and ints only; the canonical form of the inputs
    share_key: tuple  # the key whose reuse the property share counts
    info: tuple = ()  # decide: the pool point's (A, extremal, collapsing)

    @property
    def key(self) -> str:
        return json.dumps([self.kind, self.params])


def digest(obj) -> str:
    # imported here, after a pass has read its peak RSS: hashlib loads
    # OpenSSL, some 3.5 MB that the package itself never needs
    import hashlib
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def _tuples(x):
    return tuple(_tuples(v) for v in x) if isinstance(x, list) else x


def to_wire(reqs: list) -> str:
    return json.dumps([[r.kind, r.params, r.share_key, r.info] for r in reqs])


def from_wire(text: str) -> list:
    return [Request(kind, *map(_tuples, rest)) for kind, *rest in json.loads(text)]


def golden_failures(reqs: list, digests: list, golden: dict) -> list:
    """Indices of the requests whose output digest is not the recorded one."""
    return [i for i, (r, d) in enumerate(zip(reqs, digests))
            if d != golden["digests"][r.key]]


def scaled_count(count: int, seconds: float) -> int:
    return max(1, round(count * seconds / NOMINAL_SECONDS))


def deal(rng: random.Random, strata: list, count: int) -> list:
    """``count`` draws that cycle through seeded shuffles of ``strata``, with
    one seeded alternative per draw, so every run has the same mix of costly
    and cheap strata while the exact requests change with the seed."""
    out, deck = [], []
    while len(out) < count:
        if not deck:
            deck = list(range(len(strata)))
            rng.shuffle(deck)
        out.append(rng.choice(strata[deck.pop()]))
    return out


def char_request(entry: list) -> Request:
    kind, fam, k, coords, l0, q_max, depth, window, n4 = entry
    fam = tuple(fam)
    return Request(kind, (fam, k, tuple(coords), l0, q_max, depth, tuple(n4)),
                   (fam, window, depth))


def verdict_request(points: list, i: int, d: int) -> Request:
    fam, k, coords, a, extremal, collapsing = points[i]
    return Request("decide", (tuple(fam), k, tuple(coords), i, d), (tuple(fam), k),
                   (a, extremal, collapsing))


def gram_request(kind: str, params: tuple) -> Request:
    """The share key is the (s, mu) pair whose operators a check builds."""
    share = params[:2] if kind in ("virasoro", "adjoint_L") else params[:1]
    return Request(kind, tuple(params), share)


def generate(workload: str, seed: int, seconds: float, golden: dict) -> list:
    """The seeded request sequence of one run."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "verdicts":
        pool = golden["verdicts"]["points"]
        strata = [[(i, d) for d in range(len(VERDICT_DELTAS))]
                  for i in range(len(pool))]
        return [verdict_request(pool, i, d)
                for i, d in deal(rng, strata, scaled_count(VERDICT_COUNT, seconds))]
    if workload == "char_cold":
        # slots run in their listed order, so the requests that pay for the
        # package's shared set-up are the same in every run
        return [char_request(rng.choice(variants)) for variants in golden["char_cold"]]
    if workload == "char_warm":
        reqs = []
        for strata, spec in zip(golden["char_warm"], WARM_TYPES):
            reqs += [char_request(e)
                     for e in deal(rng, strata, scaled_count(spec[-1], seconds))]
        rng.shuffle(reqs)
        return reqs
    if workload == "gram":
        s_vals = rng.sample(GRAM_S, GRAM_S_PER_RUN)
        mu_vals = rng.sample(GRAM_MU, GRAM_S_PER_RUN)
        pairs = [(s, mu) for s in s_vals for mu in mu_vals]
        kinds = {
            "virasoro": [[p + nm for p in pairs] for nm in GRAM_NM],
            "adjoint_L": [[p + (n,) for p in pairs] for n in GRAM_N],
            "adjoint_a": [[(mu, n) for mu in mu_vals] for n in GRAM_N],
            "exp_factorization": [[(s,) + nm for s in s_vals] for nm in GRAM_EXP],
            "norms": [[(mu, e) for mu in mu_vals] for e in GRAM_ENERGIES],
        }
        reqs = []
        for kind, strata in kinds.items():
            reqs += [gram_request(kind, params) for params in
                     deal(rng, strata, scaled_count(GRAM_COUNTS[kind], seconds))]
        rng.shuffle(reqs)
        return reqs
    raise ValueError(f"unknown workload {workload!r}")


def seen_share(reqs: list) -> float:
    """Share of requests whose share key already occurred earlier in the run."""
    seen, hits = set(), 0
    for r in reqs:
        hits += r.share_key in seen
        seen.add(r.share_key)
    return hits / len(reqs)


def verdict_shares(reqs: list) -> dict:
    """Shares of verdict requests at extremal weights, at collapsing levels
    and below the threshold (l0 < A)."""
    n = len(reqs)
    return {"extremal_share": sum(r.info[1] for r in reqs) / n,
            "collapsing_share": sum(r.info[2] for r in reqs) / n,
            "below_bound_share": sum(VERDICT_DELTAS[r.params[4]].startswith("-")
                                     for r in reqs) / n}


def families(workload: str) -> list:
    """AlgebraId fields of every family a workload's requests use."""
    if workload == "verdicts":
        return [list(f) for f in VERDICT_FAMILIES]
    if workload.startswith("char_"):
        return [list(PSL22), list(SPO3), list(G3)]
    return []


# -- executing requests ---------------------------------------------------------

class Runner:
    """Turns requests into calls on the ``wmin`` modules.

    Inputs are built before the timed region by ``prepare``; ``call`` looks
    each function up on its module at call time, so a traced run reaches the
    wrapped functions.
    """

    def __init__(self):
        from wmin import catalog, characters, cli, gram_lab, rationals, unitarity
        self.catalog, self.characters, self.cli = catalog, characters, cli
        self.gram_lab, self.unitarity, self.rationals = gram_lab, unitarity, rationals

    def algebra(self, fam):
        return self.catalog.AlgebraId(*fam)

    def vec(self, coords):
        return self.catalog.Vec(Fraction(c) for c in coords)

    def gr_imag(self, s):
        return self.rationals.GaussianRational(Fraction(0), Fraction(s))

    def prepare(self, req: Request):
        """(module, function name, args) of the request's call."""
        p = req.params
        if req.kind == "decide":
            fam, k, coords, i, d = p
            l0 = Fraction(req.info[0]) + Fraction(VERDICT_DELTAS[d])
            return (self.unitarity, "decide",
                    (self.algebra(fam), Fraction(k), self.vec(coords), l0))
        if req.kind == "massive":
            fam, k, coords, l0, q_max, depth, _ = p
            return (self.characters, "character_massive",
                    (self.algebra(fam), Fraction(k), self.vec(coords),
                     Fraction(l0), Fraction(q_max), Fraction(depth)))
        if req.kind == "massless":
            fam, k, coords, _, q_max, depth, _ = p
            return (self.characters, "character_massless",
                    (self.algebra(fam), Fraction(k), self.vec(coords),
                     Fraction(q_max), Fraction(depth)))
        if req.kind == "virasoro":
            s, mu, n, m = p
            return (self.gram_lab, "virasoro_check",
                    (self.gr_imag(s), Fraction(mu), n, m, E_MAX))
        if req.kind == "adjoint_L":
            s, mu, n = p
            return (self.gram_lab, "adjointness_check",
                    (self.gr_imag(s), Fraction(mu), n, E_MAX, "L"))
        if req.kind == "adjoint_a":
            mu, n = p
            return (self.gram_lab, "adjointness_check",
                    (self.gr_imag(0), Fraction(mu), n, E_MAX, "a"))
        if req.kind == "exp_factorization":
            t, n_max, m_max = p
            return (self.gram_lab, "exp_factorization_check",
                    (self.gr_imag(t), n_max, m_max))
        if req.kind == "norms":
            mu, e = p
            return (self, "norms_vs_operators", (Fraction(mu), e))
        raise ValueError(req.kind)

    @staticmethod
    def call(prepared):
        mod, name, args = prepared
        return getattr(mod, name)(*args)

    def norms_vs_operators(self, mu, e):
        """Norms of the energy-e states, each paired with the same norm
        computed by contracting the state with ``heisenberg_matrix``
        annihilators: [(closed form, operator contraction), ...]."""
        gl = self.gram_lab
        one = self.rationals.GaussianRational(Fraction(1))
        out = []
        for u in gl.states_at_energy(e):
            col = {u: one}
            for j, mult in sorted(u.parts, reverse=True):
                op = gl.heisenberg_matrix(j, mu, E_MAX)
                for _ in range(mult):
                    col = op.apply_column(col)
            out.append((gl.boson_norm(u), col.get(gl.VACUUM)))
        return out

    # -- output checks -----------------------------------------------------
    def output_digest(self, req: Request, out):
        """The canonical form of an output that golden.json records."""
        if req.kind == "decide":
            return digest(self.cli.verdict_to_dict(out))
        if req.kind in ("massive", "massless"):
            return digest(out.records())
        if req.kind == "norms":
            return digest([self.rationals.format_rational(n) for n, _ in out])
        return out is True

    def digests(self, reqs: list, outputs: list) -> list:
        """Each output's digest, or None where the request raised."""
        return [None if isinstance(out, Exception) else self.output_digest(req, out)
                for req, out in zip(reqs, outputs)]

    def oracle_failures(self, reqs: list, outputs: list, memo: dict) -> list:
        """Indices of the requests that raised or failed their kind's oracle."""
        return [i for i, (req, out) in enumerate(zip(reqs, outputs))
                if isinstance(out, Exception) or not self.check(req, out, memo)]

    def check(self, req: Request, out, memo: dict) -> bool:
        """The independent oracle of the request's kind; ``memo`` caches
        closed-form oracle results."""
        if req.kind == "decide":
            return self.check_verdict(req, out)
        if req.kind == "massive":
            return self.check_massive(req, out)
        if req.kind == "massless":
            return self.check_massless(req, out, memo)
        if req.kind == "norms":
            gr = self.rationals.GaussianRational
            return all(op == gr(Fraction(n)) for n, op in out)
        return out is True

    def check_verdict(self, req, v) -> bool:
        """A == A_explicit, and the outcome follows from the sign of l0 - A
        and from extremality (or from the level collapsing)."""
        d = req.params[4]
        a, extremal, collapsing = req.info
        if collapsing:
            return v.outcome == "Collapsing"
        q = v.quantities
        if q["A"] != Fraction(a) or q["A_explicit"] != q["A"] \
                or q["extremal"] is not extremal:
            return False
        sign = Fraction(VERDICT_DELTAS[d])
        if extremal:
            want = "ExtremalBoundary" if sign == 0 else "ExtremalOffBoundary"
        else:
            want = "UnitaryNonExtremal" if sign >= 0 else "BelowBound"
        return v.outcome == want

    def _terms(self, series):
        return {(Fraction(r["q"]), self.vec(r["weight"])): r["coeff"]
                for r in series.records()}

    def check_massive(self, req, series) -> bool:
        """Leading coefficient 1 at (l0, nu); coefficients non-negative
        integers; Weyl-symmetric inside the depth window."""
        fam, k, coords, l0, q_max, depth, _ = req.params
        entry = self.catalog.lookup(self.algebra(fam))
        nu, l0, depth = self.vec(coords), Fraction(l0), Fraction(depth)
        terms = self._terms(series)
        if not terms or min(q for q, _ in terms) != l0 or terms.get((l0, nu)) != 1:
            return False
        for (q, w), c in terms.items():
            if not isinstance(c, int) or c < 0:
                return False
            for alpha in entry.simple_roots_natural:
                w2 = entry.weyl_reflect(w, alpha)
                if (self.characters.depth_of(entry, nu, w2) <= depth
                        and terms.get((q, w2), 0) != c):
                    return False
        return True

    def check_massless(self, req, series, memo) -> bool:
        """psl22 threshold characters equal the bilateral closed form;
        ``memo`` keeps (records, seconds) per closed-form input."""
        fam, k, coords, _, q_max, depth, n4 = req.params
        if not n4:
            return True
        key = (n4, q_max, depth)
        if key not in memo:
            t0 = perf_counter()
            want = self.characters.n4_closed_form(
                n4[0], n4[1], Fraction(q_max), Fraction(depth)).records()
            memo[key] = (want, perf_counter() - t0)
        return series.records() == memo[key][0]
