"""Work counts of the character store over the benchmark's seed-3 pools,
of a verdict pass, and of a family's first use: exact numbers, which move
only when the work does, where a timing is noise.  The pools are read
through `bench/workloads.py` (`generate` and `Runner`), in process, one
pass each, from empty character caches, or, for the hits and the
verdicts, from the caches a first pass fills."""
import fractions
import sys
from collections import Counter
from pathlib import Path

import pytest

from wmin import _stores, catalog, characters, levels

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads as W  # noqa: E402


def fraction_calls(fn) -> Counter:
    """The calls into `fractions` that fn() makes, by function name."""
    counts = Counter()

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == fractions.__file__:
            counts[frame.f_code.co_name] += 1

    old = sys.getprofile()
    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(old)
    return counts


@pytest.mark.parametrize("workload,builds,hits,sums,weights", [("char_cold", 23, 42, (51, 0), 68),
                                                                ("char_warm", 7, 82, (44, 58), 63)],
                         ids=["char_cold", "char_warm"])
def test_seed3_pool_work_counts(workload, builds, hits, sums, weights):
    """One pass over a seed-3 pool builds `builds` windows of the
    denominator store (`_fns_cached` misses: denominators and isotropic
    quotients) and answers `hits` of its callers' calls from a held series
    (a quotient build's own read of its denominator is not counted), computes
    and reads orbit sums as `sums` gives them, the (misses, hits) of
    `_orbit_sum`, and leaves one key per distinct published weight in the
    table of `_publish`.  A char_warm pass shares sums between levels at
    which no eta step fits the window (`_orbit_sum`), so it computes 44
    sums for its 102 requests."""
    reqs = W.generate(workload, 3, W.NOMINAL_SECONDS, W.load_golden())
    runner = W.Runner()
    _stores.clear()
    for req in reqs:
        runner.call(runner.prepare(req))
    info, cached = characters._fns_cached.cache_info(), characters._orbit_sum.cache_info()
    assert (info.misses, info.hits) == (builds, hits)
    assert (cached.misses, cached.hits) == sums
    assert len(characters._weights) == len(set(characters._weights.values())) == weights


def test_seed3_char_warm_hits_build_one_fraction_per_published_level():
    """One all-hit pass over the seed-3 char_warm pool, run again after a
    pass that fills the caches, calls into `fractions` only to build and
    hash the exponent of each published level (`characters._placed`) and
    to build A once per massless request: no `Fraction` difference or
    comparison remains on a hit, as the preconditions, the start and the
    window read ints.  The reads of `numerator` and `denominator` left
    (of k, nu's coordinates, l0, q_max, depth and the published exponent)
    are pinned at their count."""
    reqs = W.generate("char_warm", 3, W.NOMINAL_SECONDS, W.load_golden())
    runner = W.Runner()
    calls = [runner.prepare(req) for req in reqs]
    for call in calls:
        runner.call(call)
    misses, outs = characters._orbit_sum.cache_info().misses, []
    counts = fraction_calls(lambda: outs.extend([runner.call(call) for call in calls]))
    assert characters._orbit_sum.cache_info().misses == misses  # every request a hit
    levels = sum(len(out.terms) for out in outs)
    massless = sum(req.kind == "massless" for req in reqs)
    assert (levels, massless) == (491, 20)
    assert counts["__new__"] == levels + massless and counts["__hash__"] == levels
    assert not {"_sub", "_richcmp", "forward", "reverse"} & counts.keys(), counts
    assert (counts["numerator"], counts["denominator"]) == (933, 1035)


@pytest.mark.parametrize("g,built", [(catalog.psl22(), 6), (catalog.spo2m(3), 4),
                                     (catalog.g3(), 6)], ids=["psl22", "spo2m3", "G3"])
def test_first_use_builds_only_the_published_fractions(g, built):
    """A fresh entry (`lookup.__wrapped__`) that builds its coroot table,
    the covectors of the per-request pass and its frame builds a `Fraction`
    only for a published value: one level part per row of the coroot table
    and one coordinate per entry of the depth covector."""
    entry = catalog.lookup.__wrapped__(g)

    def first_use():
        entry.coroots, entry._xi_cov, entry._casimir_cov, entry._odd_covs, entry._xi_ints
        entry.lattice

    counts = fraction_calls(first_use)
    assert counts["__new__"] == built == len(entry.coroots) + entry.n


def test_seed3_warm_verdict_pass_builds_only_the_published_fractions():
    """A warm pass over the seed-3 verdicts pool (every level record and
    entry cached) calls into `fractions` only to build the three published
    values of each verdict past the P^+_k gate, A, A_explicit and l0 - A
    (`unitarity.decide`), to read the numerators and denominators of k, l0
    and nu's coordinates, and to read the collapsing gate's component
    levels (`not any`): no `Fraction` difference, comparison or equality
    remains, as the outcome is the sign of an int."""
    reqs = W.generate("verdicts", 3, W.NOMINAL_SECONDS, W.load_golden())
    runner = W.Runner()
    calls = [runner.prepare(req) for req in reqs]
    for call in calls:
        runner.call(call)
    outs = []
    counts = fraction_calls(lambda: outs.extend([runner.call(call) for call in calls]))
    past = sum("l0_minus_A" in out.quantities for out in outs)
    assert (len(calls), past) == (750, 746)
    assert counts == {"__new__": 3 * past, "numerator": 4695, "denominator": 4695,
                      "__bool__": 4}, counts


VERDICT_FAMILIES = [catalog.AlgebraId(*fam) for fam in W.VERDICT_FAMILIES]


def test_first_use_of_the_verdict_families_and_levels_builds_few_fractions():
    """Fresh entries of the eight verdict families (`lookup.__wrapped__`)
    build 324 `Fraction`s, their roots' arithmetic skipping zero
    coordinates (`catalog.Vec`), and the 48 level records of their first
    six unitary levels (`levels._level.__wrapped__`) build 216, one per
    published value: k, each M_i(k) and M_i(k) + chi_i, and p(k), with no
    `Fraction` arithmetic or comparison; k + h_vee, which no record
    publishes, is held as a reduced int pair only."""
    entries = fraction_calls(lambda: [catalog.lookup.__wrapped__(g) for g in VERDICT_FAMILIES])
    assert entries["__new__"] == 324, entries
    ks = [(g, k) for g in VERDICT_FAMILIES for k in levels.enumerate_unitary_k(g, 6)]
    records = []
    counts = fraction_calls(lambda: records.extend(
        [levels._level.__wrapped__(g, k.numerator, k.denominator) for g, k in ks]))
    published = sum(1 + len(rec.data.M) + len(rec.data.alpha_levels) + 1 for rec in records)
    assert (len(records), published) == (48, 216)
    assert counts.keys() <= {"__new__", "numerator", "denominator", "__bool__", "__str__"}, counts
    assert counts["__new__"] == published


def test_a_violation_free_scan_builds_the_same_few_fractions():
    """`sign2_scan` walks int indices and compares each singular weight
    with A by the sign of an int (`weights._excess`), building a `Fraction`
    only for a violation: a violation-free scan of G3 (eps = 2, seven odd
    weights gamma) at its first unitary level builds the same 10
    `Fraction`s at 8 x 8 as at 40 x 40, none per index (A, the coercions
    of n_max and m_max, and the window's bounds, `_scan_size` included)."""
    from wmin import unitarity, weights
    g = catalog.g3()
    k = levels.enumerate_unitary_k(g, 1)[0]
    nu = weights.enumerate_P_plus_k(g, k)[0]
    built = []
    for top in (8, 40):
        reps = []
        counts = fraction_calls(lambda: reps.append(unitarity.sign2_scan(g, k, nu, top, top)))
        assert reps[0].ok and reps[0].checked > top * top // 2
        built.append(counts["__new__"])
    assert built == [10, 10], built
