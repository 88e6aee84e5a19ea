"""The wmin benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S --trace 0|1

Load is a closed loop: one process, one thread, each request issued after
the previous one returns.  This process draws the seeded requests and hands
them, on standard input, to pass processes: fresh interpreters, so every
pass starts with empty ``lru_cache``s as a ``wmin`` CLI call does, and none
of them loads the benchmark's golden data.  A pass is pinned to one CPU and
returns each request's duration and output digest.  Request counts are
sized for ``--seconds`` at the commit that defined the benchmark
(``char_cold`` is one fixed-size set).

Times are given at a reference CPU speed (see ``refclock.py``): a shared
virtual machine's CPUs run up to 2x slower for minutes at a time, and the
reference loop timed beside the requests takes that out.  The lines before
the last also give the raw figures.

With ``--trace 0`` a run makes ``workloads.PASSES[NAME]`` passes, on the CPUs
in turn, and reports the end-to-end metrics over the latencies of all passes
pooled.  With ``--trace 1`` it makes one untraced and one traced pass on the
same CPU; the traced pass wraps the package's public functions (see
``tracer.py``), writes its spans to ``bench/out/``, and gives the per-layer
metrics.  Every output is compared with its golden digest in this process,
and the first pass of a run also applies each request kind's independent
oracle; a request that raises or gives a wrong output counts as failed.

The last line is one JSON object with the metrics of BENCHMARK.json; the
lines before it give every figure with its base and sample counts, and the
run record.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_REPEATS = 21
CHILD_TIMEOUT_S = 170

sys.path.insert(0, str(BENCH_DIR))
import refclock  # noqa: E402
import stats  # noqa: E402
import workloads as W  # noqa: E402

# The reference loop runs after the timed set-up, since it imports
# ``fractions``, which ``import wmin`` pays for.
SETUP_CODE = """
import json, os, sys, time
os.sched_setaffinity(0, {int(sys.argv[2])})
t0 = time.perf_counter()
import wmin
from wmin import catalog
t1 = time.perf_counter()
for fam in json.loads(sys.argv[1]):
    catalog.validate(catalog.lookup(catalog.AlgebraId(*fam)))
t2 = time.perf_counter()
sys.path.insert(0, sys.argv[3])
import refclock
clock = refclock.RefClock()
for _ in range(15):
    clock.sample()
print(json.dumps([t1 - t0, t2 - t1, clock.speed()]))
"""


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=W.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def at_ref_speed(seconds, speed_s):
    return seconds * refclock.REF_NOMINAL_S / speed_s


def measure_setup(families):
    """Import plus lookup/validate of the workload's families, each in a
    fresh interpreter on the CPUs in turn: medians of (total s, lookup +
    validate s) at reference speed, and of the raw total s."""
    totals, lv, raw = [], [], []
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cpus = sorted(os.sched_getaffinity(0))
    for i in range(SETUP_REPEATS):
        cpu = str(cpus[i % len(cpus)])
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, json.dumps(families), cpu, str(BENCH_DIR)],
            capture_output=True, text=True, cwd=ROOT, env=env,
            timeout=CHILD_TIMEOUT_S, check=True)
        t_import, t_lv, speed = json.loads(proc.stdout)
        totals.append(at_ref_speed(t_import + t_lv, speed))
        lv.append(at_ref_speed(t_lv, speed))
        raw.append(t_import + t_lv)
    return statistics.median(totals), statistics.median(lv), statistics.median(raw)


def child_pass(reqs, cpu, oracles, trace=False, name=""):
    """Run one pass of ``reqs`` in a fresh interpreter pinned to ``cpu``
    (see ``passproc.py``)."""
    spec = {"requests": W.to_wire(reqs), "cpu": cpu, "oracles": oracles,
            "trace": trace, "name": name}
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "passproc.py")],
                          input=json.dumps(spec), capture_output=True, text=True,
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"pass process exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def pass_failures(reqs, result, golden):
    """One line per request of a pass that raised or gave a wrong output."""
    bad = sorted(set(W.golden_failures(reqs, result["digests"], golden))
                 | set(result["oracle_bad"]))
    return [f"{reqs[i].key}: {result['errors'].get(str(i), 'wrong output')}"[:300]
            for i in bad]


def run_record(args, n_requests):
    commit = "unknown"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT)
        commit = proc.stdout.strip() or commit
    h = hashlib.sha256()
    for path in sorted((SRC / "wmin").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_commit": commit,
            "src_sha256": h.hexdigest()[:16], "python": platform.python_version(),
            "nproc": os.cpu_count(), "requests": n_requests}


# -- one workload -------------------------------------------------------------------

def end_to_end(reqs, golden, setup, record):
    """Untraced passes on the CPUs in turn; all their latencies pooled."""
    cpus = sorted(os.sched_getaffinity(0))
    n_passes = W.PASSES[record["workload"]]
    passes = [child_pass(reqs, cpus[i % len(cpus)], oracles=i == 0)
              for i in range(n_passes)]
    bad = [line for p in passes for line in pass_failures(reqs, p, golden)]
    lat = [d for p in passes for d in p["norm"]]
    raw = [d for p in passes for d in p["raw"]]
    attempted, wall = len(lat), sum(lat)
    record.update(passes=n_passes, attempted=attempted, failed=len(bad),
                  request_wall_s=wall, raw_request_wall_s=sum(raw),
                  pass_ref_ms=[p["ref_ms"] for p in passes],
                  pass_ref_samples=[p["ref_samples"] for p in passes])
    samples = f"{attempted} latencies, {len(reqs)} requests x {n_passes} passes"
    setup_s, _, setup_raw_s = setup
    metrics = {"setup_s": (setup_s, "s", f"median of {SETUP_REPEATS} fresh interpreters;"
                           f" raw {setup_raw_s:.4f} s"),
               "req_per_s": (attempted / wall, "1/s", f"{samples}, {wall:.3f} s;"
                             f" raw {attempted / sum(raw):.4g} 1/s"),
               "p50_ms": (1e3 * statistics.median(lat), "ms",
                          f"{samples}; raw {1e3 * statistics.median(raw):.4g} ms")}
    tail = stats.tail(lat)
    if tail is not None:
        p, value, beyond = tail
        metrics["tail_ms"] = (1e3 * value, "ms", f"p{p}, {beyond} samples beyond, {samples}")
        record.update(tail_percentile=p, tail_samples_beyond=beyond)
    metrics["peak_rss_mb"] = (max(p["peak_rss_mb"] for p in passes), "MB",
                              "largest ru_maxrss of the passes")
    metrics["failed_frac"] = (len(bad) / attempted, "frac", f"{len(bad)} of {attempted}")
    return metrics, bad, attempted, []


def per_layer(reqs, golden, setup, record):
    """An untraced and a traced pass on the same CPU; the traced one gives
    the per-layer metrics, the pair the tracing overhead."""
    cpu = min(os.sched_getaffinity(0))
    name = f"{record['workload']}-seed{record['seed']}"
    untraced = child_pass(reqs, cpu, oracles=False)
    traced = child_pass(reqs, cpu, oracles=True, trace=True, name=name)
    bad = pass_failures(reqs, untraced, golden) + pass_failures(reqs, traced, golden)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    metrics["catalog.lookup_validate.ms"] = (
        1e3 * setup[1], "ms", f"median of {SETUP_REPEATS} fresh interpreters")
    on, off = sum(traced["norm"]), sum(untraced["norm"])
    metrics["tracing.overhead_frac"] = (
        on / off - 1, "frac", f"{on:.3f} s traced vs {off:.3f} s untraced, CPU {cpu}")
    record.update(attempted=2 * len(reqs), failed=len(bad), spans=traced["spans"])
    lines = [f"  {traced['spans']} spans written to {traced['spans_path']}"]
    if traced["g3_split"]:
        lines.insert(0, "  " + traced["g3_split"])
    return metrics, bad, 2 * len(reqs), lines


def run_workload(args):
    golden = W.load_golden()
    reqs = W.generate(args.workload, args.seed, args.seconds, golden)
    setup = measure_setup(W.families(args.workload))
    n = len(reqs)
    record = run_record(args, n)
    record.update(key_seen_share=W.seen_share(reqs), setup_samples=SETUP_REPEATS)
    if args.workload == "verdicts":
        record.update(W.verdict_shares(reqs))
    run = per_layer if args.trace else end_to_end
    metrics, bad, attempted, notes = run(reqs, golden, setup, record)
    lines = [f"wmin bench: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace} requests={n}"] + notes
    for name, (value, unit, base) in metrics.items():
        lines.append(f"  {name:40s} {value:14.6g} {unit:10s} ({base})")
    lines += [f"  FAILED {b}" for b in bad[:3]]
    lines.append("  shares: " + ", ".join(f"{k} {v:.3f}" for k, v in record.items()
                                           if k.endswith("_share")))
    record["metrics"] = {k: {"value": v, "unit": u, "base": b}
                         for k, (v, u, b) in metrics.items()}
    print("\n".join(lines))
    print("RECORD " + json.dumps(record, sort_keys=True))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reported = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    print(json.dumps({"correct": not bad, "attempted": attempted, "failed": len(bad),
                      "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]}
                                  for k in reported}}))


def run_all(args):
    """Every workload in its own interpreter, then one summary table."""
    rows, ok = [], True
    for workload in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        print(proc.stdout, end="")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        record = next(json.loads(line[7:]) for line in proc.stdout.splitlines()
                      if line.startswith("RECORD "))
        ok = ok and record["failed"] == 0
        rows.append((workload, record["metrics"]))
    print("\nsummary")
    for workload, metrics in rows:
        for name, m in metrics.items():
            print(f"  {workload:10s} {name:40s} {m['value']:14.6g} {m['unit']:10s} ({m['base']})")
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "wmin" / "__init__.py").is_file():
        sys.exit(f"error: the wmin package is not under {SRC}; run from a "
                 "checkout of the repository")
    if args.workload == "all":
        return run_all(args)
    run_workload(args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
