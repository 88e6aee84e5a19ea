"""One pass of the benchmark, in a fresh interpreter.

    python3 bench/passproc.py < SPEC

SPEC is a JSON object: ``requests`` (``workloads.to_wire``), ``cpu`` to pin
the pass to, ``oracles`` (apply each request kind's oracle), ``trace`` (wrap
the package's public surface and add the per-layer figures of ``layers.py``)
and ``name`` (of the spans file).  The last line of standard output is one
JSON object: each request's raw and reference-speed duration in seconds,
the peak RSS, each output's digest, the requests that raised or failed their
oracle.  The process imports no more than the pass needs and loads no golden
data, so its peak RSS is the package's and the requests'.
"""
from __future__ import annotations

import json
import os
import resource
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]
import refclock  # noqa: E402
import workloads as W  # noqa: E402


def timed_pass(runner, prepared, tracer=None):
    """Issue every request once; returns ((start, end) per request, outputs,
    the reference clock that ran beside them)."""
    intervals, outputs = [], []
    with refclock.RefClock() as clock:
        for i, prep in enumerate(prepared):
            if tracer:
                tracer.req, tracer.active = i, True
            t0 = perf_counter()
            try:
                out = runner.call(prep)
            except Exception as exc:  # a failed request is counted, not fatal
                out = exc
            t1 = perf_counter()
            if tracer:
                tracer.active = False
            intervals.append((t0, t1))
            outputs.append(out)
    return intervals, outputs, clock


def main():
    """Body of a pass process: the spec on standard input, one JSON line out."""
    spec = json.loads(sys.stdin.read())
    os.sched_setaffinity(0, {spec["cpu"]})
    reqs = W.from_wire(spec["requests"])
    tr = None
    if spec["trace"]:
        import tracer as T
        import wmin
        tr = T.Tracer()
        T.install(tr, wmin)
    runner = W.Runner()
    prepared = [runner.prepare(r) for r in reqs]
    intervals, outputs, clock = timed_pass(runner, prepared, tr)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    durations = clock.durations(intervals)
    memo = {}
    result = {"raw": [d[0] for d in durations], "norm": [d[1] for d in durations],
              "ref_ms": 1e3 * clock.speed(), "ref_samples": len(clock.samples),
              "peak_rss_mb": peak_rss_mb, "digests": runner.digests(reqs, outputs),
              "errors": {i: repr(out)[:300] for i, out in enumerate(outputs)
                         if isinstance(out, Exception)},
              "oracle_bad": runner.oracle_failures(reqs, outputs, memo)
              if spec["oracles"] else []}
    if tr:
        import layers
        # span times include the reference samples taken inside them, so the
        # G3 split is taken over whole request intervals
        walls = [t1 - t0 for t0, t1 in intervals]
        result.update(layers.traced_figures(tr, runner, reqs, prepared, outputs, memo,
                                            walls, spec["name"]))
    print(json.dumps(result))




if __name__ == "__main__":
    main()
