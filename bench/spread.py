"""Run-to-run spread of the end-to-end metrics, and the recorded baseline.

    python3 bench/spread.py --seeds 10 [--workloads verdicts,gram] [--first-seed 1]
                            [--out FILE] [--baseline]

Runs ``run.py --trace 0`` once per seed and workload, in sequence, and prints
for every end-to-end metric of BENCHMARK.json the median, the quartiles and
the spread (q3 - q1) / median that the benchmark's bounds are checked
against, next to a third of the bound.  ``--out`` also writes every run's
record and the summary as JSON.  ``--baseline`` then makes one ``--trace 1``
run per workload, under the first seed, and writes the summary and the
per-layer figures to ``bench/baseline.json``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import stats  # noqa: E402

UNGATED = ("tail_ms", "failed_frac")   # printed by run.py, not in BENCHMARK.json


def run(spec, workload, seed, trace):
    """(last-line result, run record, wall seconds) of one benchmark run."""
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.splitlines()
    record = json.loads(next(line for line in lines if line.startswith("RECORD "))[7:])
    record["run_wall_s"] = wall
    return json.loads(lines[-1]), record, wall


def summarize(runs, name):
    values = [r["metrics"][name]["value"] for r in runs if name in r["metrics"]]
    if name in UNGATED:
        return {"median": statistics.median(values), "runs": len(values),
                "base": runs[0]["metrics"][name]["base"]} if values else None
    med, q1, q3, spread = stats.spread(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--out")
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs, summary, ok = [], {}, True
    for workload in args.workloads.split(","):
        mine = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result, record, wall = run(spec, workload, seed, 0)
            mine.append(record)
            ok = ok and result["correct"]
            print(f"{workload} seed {seed} ({wall:.1f} s): " + ", ".join(
                f"{n} {result['metrics'][n]['value']:.4g}" for n in bounds), flush=True)
        runs += mine
        summary[workload] = {name: s for name in list(bounds) + list(UNGATED)
                             if (s := summarize(mine, name)) is not None}
        for name in bounds:
            s = summary[workload][name]
            print(f"  {workload:10s} {name:12s} median {s['median']:10.4g}  q1 {s['q1']:10.4g}"
                  f"  q3 {s['q3']:10.4g}  spread {s['spread']:.3f}"
                  f"  (bound/3 {bounds[name] / 3:.3f})")
    if args.out:
        Path(args.out).write_text(json.dumps({"summary": summary, "runs": runs},
                                             indent=1, sort_keys=True) + "\n")
    if args.baseline:
        write_baseline(spec, args, summary, runs)
    return 0 if ok else 1


def write_baseline(spec, args, summary, runs):
    per_layer = {}
    for workload in summary:
        _, record, _ = run(spec, workload, args.first_seed, 1)
        per_layer[workload] = record["metrics"]
    first = runs[0]
    baseline = {
        "about": f"end_to_end: median and quartiles over seeds {args.first_seed}-"
                 f"{args.first_seed + args.seeds - 1} of 'python3 bench/spread.py', times at "
                 "reference speed (bench/refclock.py); tail_ms and failed_frac are printed "
                 "by run.py but not gated in BENCHMARK.json. per_layer: one --trace 1 run "
                 f"per workload under seed {args.first_seed}.",
        "run_seconds": spec["run_seconds"],
        "git_commit": first["git_commit"], "src_sha256": first["src_sha256"],
        "python": first["python"], "nproc": first["nproc"],
        "requests": {r["workload"]: r["requests"] for r in runs},
        "passes": {r["workload"]: r["passes"] for r in runs},
        "end_to_end": summary, "per_layer": per_layer}
    path = BENCH_DIR / "baseline.json"
    path.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"baseline written to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    sys.exit(main())
