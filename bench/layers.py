"""Per-layer metrics of a traced pass (see ``passproc.py``), computed in the
pass process after its timed region."""
from __future__ import annotations

import contextlib
import io
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads as W

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
CLI_SAMPLE_EVERY = 10

FORM = "catalog.CatalogEntry.form"
MUL = "characters.QWSeries.__mul__"
SUM = tuple(f"characters.QWSeries.{m}" for m in ("shifted", "truncated", "scaled", "__add__"))


def per_call_ms(tr, name):
    return 1e3 * tr.total[name] / tr.calls[name] if tr.calls[name] else 0.0


def layer_metrics(tr, n, extra):
    """name -> (value, unit, base) from the tracer and the untimed extras."""
    orbits = extra["orbits"].values()
    n_char = len(orbits)
    elements = sum(o[0] for o in orbits)
    sum_s = sum(tr.total[m] for m in SUM)
    shifted, kept = (tr.terms_out[SUM[0]], tr.terms_out[SUM[1]])
    gr_ops = sum(c for name, c in tr.calls.items()
                 if name.startswith("rationals.GaussianRational."))
    builds = tr.builds
    reqs = f"{n} requests"

    def calls(name):
        return (tr.calls[name] / n, "calls/req", f"{tr.calls[name]} calls, {reqs}")

    def ms(name):
        return (per_call_ms(tr, name), "ms", f"{tr.calls[name]} calls")

    def mean(xs, unit, what):
        return (1e3 * sum(xs) / len(xs) if xs else 0.0, unit, f"{len(xs)} {what}")

    return {
        "catalog.form.calls_per_req": calls(FORM),
        "catalog.form.ms_per_req": (1e3 * tr.total[FORM] / n, "ms/req", reqs),
        "catalog.restrict.calls_per_req": calls("catalog.CatalogEntry.restrict"),
        "levels.level_data.calls_per_req": calls("levels.level_data"),
        "levels.level_data.ms": ms("levels.level_data"),
        "weights.in_P_plus_k.calls_per_req": calls("weights.in_P_plus_k"),
        "weights.is_extremal.ms": ms("weights.is_extremal"),
        "weights.A_bound.ms": ms("weights.A_bound"),
        "weights.A_explicit.ms": ms("weights.A_explicit"),
        "unitarity.decide.self_ms": (
            1e3 * tr.self_time["unitarity.decide"] / tr.calls["unitarity.decide"]
            if tr.calls["unitarity.decide"] else 0.0, "ms",
            f"{tr.calls['unitarity.decide']} calls"),
        "characters.mul.calls_per_req": calls(MUL),
        "characters.mul.ms_per_req": (1e3 * tr.total[MUL] / n, "ms/req", reqs),
        "characters.sum.ms_per_element": (1e3 * sum_s / elements if elements else 0.0,
                                          "ms/element", f"{elements} elements"),
        "characters.sum.kept_frac": (kept / shifted if shifted else 0.0, "frac",
                                     f"{kept} of {shifted} terms"),
        "characters.add_term.calls_per_req": calls("characters.QWSeries.add_term"),
        "characters.weyl_orbit.ms": mean([o[1] for o in orbits], "ms", "weyl_orbit calls"),
        "characters.weyl_orbit.elements": (elements / n_char if n_char else 0.0, "count",
                                           f"{n_char} character requests"),
        "characters.out_terms": (sum(o[2] for o in orbits) / n_char if n_char else 0.0,
                                 "count", f"{n_char} character requests"),
        "characters.n4_closed_form.ms": mean(extra["n4_s"], "ms", "oracle calls"),
        "gram_lab.fairlie_matrix.builds": (len(builds), "count",
                                           f"{tr.calls['gram_lab.fairlie_matrix']} calls"),
        "gram_lab.fairlie_matrix.build_ms": mean(builds, "ms", "builds"),
        "gram_lab.virasoro_check.ms": ms("gram_lab.virasoro_check"),
        "gram_lab.adjointness_check.ms": ms("gram_lab.adjointness_check"),
        "gram_lab.exp_factorization_check.ms": ms("gram_lab.exp_factorization_check"),
        "gram_lab.states": (extra["states"], "count", f"e_max {W.E_MAX}"),
        "rationals.GaussianRational.ops_per_req": (gr_ops / n, "ops/req",
                                                   f"{gr_ops} ops, {reqs}"),
        "cli.check.overhead_ms": mean(extra["cli_overhead_s"], "ms", "check calls"),
    }


def cli_argv(req, l0):
    fam, k, coords = req.params[:3]
    argv = ["--format", "json", "check", "--g", fam[0]]
    if fam[0] == "spo2m":
        argv += ["--m", str(fam[1])]
    elif fam[0] == "D21a":
        argv += ["--a", f"{fam[2]}/{fam[3]}"]
    return argv + [f"--k={k}", "--nu-coords=" + ",".join(coords), f"--l0={l0}"]


def cli_overheads(runner, reqs, prepared):
    """cli.run(['check', ...]) less decide on the same input, untraced."""
    out = []
    for i in range(0, len(reqs), CLI_SAMPLE_EVERY):
        argv = cli_argv(reqs[i], prepared[i][2][3])
        t0 = perf_counter()
        runner.call(prepared[i])
        t1 = perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = runner.cli.run(argv)
        t2 = perf_counter()
        if code != 0:
            raise RuntimeError(f"wmin {' '.join(argv)} exited {code}")
        out.append((t2 - t1) - (t1 - t0))
    return out


def orbit_extras(runner, reqs, prepared, outputs):
    """A separate public weyl_orbit call per character request:
    request index -> (orbit elements, seconds, terms in the output)."""
    out = {}
    for i, (req, prep, series) in enumerate(zip(reqs, prepared, outputs)):
        if req.kind not in ("massive", "massless") or isinstance(series, Exception):
            continue
        g, k, nu = prep[2][:3]
        window = Fraction(req.params[4]) - Fraction(req.params[3])
        t0 = perf_counter()
        orbit = runner.characters.weyl_orbit(g, k, nu, 0, window)
        out[i] = (len(orbit), perf_counter() - t0, series.n_terms())
    return out


def g3_split(tr, reqs, durations, orbits):
    """Where the G3 case of char_cold spent its (traced) time."""
    for i, req in enumerate(reqs):
        if req.kind == "massive" and req.params[:6] == W.G3_CASE:
            spans = tr.spans_of(i)
            mul = sum(s[4] - s[3] for s in spans if s[2] == MUL)
            summ = sum(s[4] - s[3] for s in spans if s[2] in SUM)
            orbit, total = orbits[i][1], durations[i]
            return (f"G3 case (k=-9/4, [1,1], l0=1, q_max=3, depth 6): {total:.2f} s traced;"
                    f" mul {mul:.2f} s ({mul / total:.1%}), sum {summ:.2f} s"
                    f" ({summ / total:.1%}), weyl_orbit {1e3 * orbit:.1f} ms"
                    f" ({orbit / total:.2%})")
    return None


def traced_figures(tr, runner, reqs, prepared, outputs, memo, durations, name):
    """Per-layer metrics of a traced pass, after its timed region; writes the
    spans to ``bench/out/``."""
    kinds = {r.kind for r in reqs}
    extra = {"n4_s": [s for _, s in memo.values()],
             "states": len(runner.gram_lab.states_up_to(W.E_MAX))
             if "virasoro" in kinds else 0,
             "cli_overhead_s": cli_overheads(runner, reqs, prepared)
             if "decide" in kinds else [],
             "orbits": orbit_extras(runner, reqs, prepared, outputs)}
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{name}.jsonl.gz"
    tr.write_spans(spans_path)
    return {"layers": layer_metrics(tr, len(reqs), extra),
            "g3_split": g3_split(tr, reqs, durations, extra["orbits"]),
            "spans": len(tr.spans), "spans_path": str(spans_path.relative_to(ROOT))}
