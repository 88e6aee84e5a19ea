"""Tests of the benchmark harness itself:

    python3 -m pytest bench/test_bench.py
"""
import dataclasses
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import refclock  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import workloads as W  # noqa: E402


@pytest.fixture(scope="module")
def golden():
    return W.load_golden()


@pytest.fixture(scope="module")
def runner():
    return W.Runner()


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_requests(golden, workload):
    assert W.generate(workload, 7, 15, golden) == W.generate(workload, 7, 15, golden)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_different_seeds_draw_different_requests_from_the_pool(golden, workload):
    a = W.generate(workload, 1, 15, golden)
    b = W.generate(workload, 2, 15, golden)
    assert a != b
    assert {r.key for r in a} != {r.key for r in b}
    assert all(r.key in golden["digests"] for r in a + b)


def test_request_counts_follow_seconds(golden):
    assert len(W.generate("verdicts", 1, 15, golden)) == W.VERDICT_COUNT
    assert len(W.generate("verdicts", 1, 5, golden)) == round(W.VERDICT_COUNT / 3)
    assert len(W.generate("char_cold", 1, 1, golden)) == len(golden["char_cold"])


def test_char_cold_keys_are_distinct_and_include_the_g3_case(golden):
    for seed in range(5):
        reqs = W.generate("char_cold", seed, 15, golden)
        assert W.seen_share(reqs) == 0
        assert any(r.params[:6] == W.G3_CASE for r in reqs)


def test_char_warm_reuses_keys(golden):
    assert W.seen_share(W.generate("char_warm", 3, 15, golden)) > 0.9


@pytest.mark.parametrize("n, expected", [
    (19, None),              # char_cold: no percentile has 10 samples beyond
    (99, None),
    (100, (90, 10)),
    (199, (90, 19)),
    (200, (95, 10)),
    (999, (95, 49)),
    (1000, (99, 10)),
])
def test_tail_percentile_selection(n, expected):
    got = stats.tail([float(i) for i in range(n)])
    if expected is None:
        assert got is None
    else:
        p, value, beyond = got
        assert (p, beyond) == expected
        assert value == n - 1 - beyond


def test_requests_survive_the_trip_to_a_pass_process(golden):
    for workload in W.WORKLOADS:
        reqs = W.generate(workload, 6, 15, golden)
        assert W.from_wire(W.to_wire(reqs)) == reqs


def test_failures_count_exceptions_and_wrong_outputs(golden, runner):
    reqs = [r for r in W.generate("gram", 5, 15, golden)
            if r.kind == "exp_factorization"][:4]
    outputs = [runner.call(runner.prepare(r)) for r in reqs]
    result = {"digests": runner.digests(reqs, outputs), "errors": {},
              "oracle_bad": runner.oracle_failures(reqs, outputs, {})}
    assert run.pass_failures(reqs, result, golden) == []
    outputs[1] = ZeroDivisionError("injected")
    outputs[3] = False
    result = {"digests": runner.digests(reqs, outputs), "errors": {"1": "injected"},
              "oracle_bad": runner.oracle_failures(reqs, outputs, {})}
    bad = run.pass_failures(reqs, result, golden)
    assert len(bad) == 2 and bad[0].endswith("injected")
    assert W.golden_failures(reqs, result["digests"], golden) == [1, 3]


def test_failed_frac_counts_failed_requests_of_every_pass(golden, runner, monkeypatch):
    reqs = [r for r in W.generate("gram", 5, 15, golden)
            if r.kind == "exp_factorization"][:4]
    outputs = [runner.call(runner.prepare(r)) for r in reqs]
    good = runner.digests(reqs, outputs)
    passes = iter([dict(pass_result(reqs), digests=good),
                   dict(pass_result(reqs), digests=[None] + good[1:]),
                   dict(pass_result(reqs), digests=good)])
    monkeypatch.setattr(run, "child_pass", lambda *a, **k: next(passes))
    monkeypatch.setitem(W.PASSES, "gram", 3)
    metrics, bad, attempted, _ = run.end_to_end(reqs, golden, (0.1, 0.01, 0.1),
                                                {"workload": "gram"})
    assert (attempted, len(bad)) == (12, 1)
    assert metrics["failed_frac"][0] == 1 / 12


def pass_result(reqs):
    return {"raw": [0.01] * len(reqs), "norm": [0.01] * len(reqs), "ref_ms": 1.0,
            "ref_samples": 10, "peak_rss_mb": 20.0, "errors": {}, "oracle_bad": []}


def test_golden_check_catches_corrupted_outputs(golden, runner):
    verdict = W.generate("verdicts", 4, 1, golden)[0]
    v = runner.call(runner.prepare(verdict))
    assert ok(golden, runner, verdict, v)
    wrong = "BelowBound" if v.outcome != "BelowBound" else "UnitaryNonExtremal"
    v2 = dataclasses.replace(v, outcome=wrong)
    assert not ok(golden, runner, verdict, v2)
    assert not runner.check(verdict, v2, {})

    char = next(r for r in W.generate("char_warm", 4, 15, golden)
                if r.kind == "massive" and r.params[0] == W.PSL22)
    series = runner.call(runner.prepare(char))
    assert ok(golden, runner, char, series)
    nu = runner.vec(char.params[2])
    series.add_term(Fraction(char.params[3]), nu, 1)    # leading coefficient 1 -> 2
    assert not ok(golden, runner, char, series)
    assert not runner.check(char, series, {})

    norms = next(r for r in W.generate("gram", 4, 15, golden) if r.kind == "norms")
    out = runner.call(runner.prepare(norms))
    assert ok(golden, runner, norms, out)
    assert not ok(golden, runner, norms, [(n + 1, op) for n, op in out])


def ok(golden, runner, req, out):
    """The golden digest check and the oracle, as a run applies them."""
    return (not W.golden_failures([req], runner.digests([req], [out]), golden)
            and runner.check(req, out, {}))


def test_refclock_scales_each_interval_by_the_local_reference_speed():
    clock = refclock.RefClock()
    # reference samples: 2 ms each up to t=10 s, 4 ms each (a CPU half as
    # fast) from t=20 s
    clock.samples = [(t / 10, 0.002) for t in range(100)] + \
                    [(20 + t / 10, 0.004) for t in range(100)]
    (raw_fast, fast), (raw_slow, slow) = clock.durations([(5.0, 5.25), (25.0, 25.25)])
    # each interval held three samples, which do not count as request time
    assert raw_fast == pytest.approx(0.25 - 3 * 0.002)
    assert raw_slow == pytest.approx(0.25 - 3 * 0.004)
    assert fast == pytest.approx(raw_fast * refclock.REF_NOMINAL_S / 0.002)
    assert slow == pytest.approx(raw_slow * refclock.REF_NOMINAL_S / 0.004)
