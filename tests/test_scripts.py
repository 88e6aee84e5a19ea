"""Smoke tests for the survey scripts named in the README: each runs as a
subprocess on a small input, exits 0 and prints its headline lines."""
import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *args):
    done = subprocess.run([sys.executable, str(SCRIPTS / name), *args],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_survey_ranges():
    lines = run_script("survey_ranges.py", "--count", "2")
    assert "== psl22 ==" in lines and "== G3 ==" in lines
    assert any("collapses -> V_1(sl2)" in line for line in lines)
    assert "  k =      -2   M = [         1]   c =        6" in lines


def test_scan_lemma_bounds():
    lines = run_script("scan_lemma_bounds.py", "--family", "G3", "--max-m1", "1",
                       "--window", "4")
    assert "G3: 60 bound evaluations, 0 violations" in lines


def test_stage_times():
    """The G3 case, a massless and a massive psl22 request: every stage is
    reported, with the sizes of the G3 case and the massless request's
    isotropic quotients pinned, the third request, which reads its
    orbit sum from the cache, is faster than the warm one, and the fourth,
    at a window inside the first's, builds no window."""
    import json
    (line,) = run_script("stage_times.py")
    got = json.loads(line)
    assert {k: got[k] for k in ("denominator_terms", "orbit_elements", "kept_terms",
                                "out_terms")} == {"denominator_terms": 875,
                                                  "orbit_elements": 36,
                                                  "kept_terms": 2942, "out_terms": 110}
    # the orbit is walked to q_shift 2 = floor(T/2), and the sum's key reads
    # k as the start's one eta pairing, 1, below limit + 1, so kept as it is
    assert (got["limit"], got["eta_pairings"]) == (2, [1])
    # the denominator is built in the window the orbit reads: the kernel
    # window (T, cap) of (q_max - l0, depth) = (2, 6), G3's scale being 1
    assert got["denominator_window"] == [4, 6]
    assert got["quotients"] == got["quotients_warm"] == 0  # massive: no quotient
    assert 0 < got["denominator_buckets"] <= got["denominator_terms"]
    assert all(got[k] >= 0 for k in ("import_s", "denominator_build_s", "checks_s", "orbit_s",
                                      "sum_warm_s", "warm_s", "cold_s", "frame_s"))
    # publishing is one stage of the warm sum
    assert 0 <= got["publish_s"] <= got["sum_warm_s"]
    # one entry looked up, one level record and one denominator built cold
    # and reused warm, and one orbit sum, computed again warm
    assert {name: (info["currsize"], info["maxsize"])
            for name, info in got["caches"].items()} == {"lookup": (1, 64),
                                                         "_level": (1, 128),
                                                         "_fns_cached": (1, 32),
                                                         "_orbit_sum": (1, 128)}
    assert got["caches"]["_fns_cached"]["hits"] == 1
    assert got["caches"]["_level"]["hits"] == 1
    # the third request places the cached orbit sum
    assert 0 < got["hit_s"] < got["warm_s"]
    # the cold call builds the one denominator; the warm call reads it, and
    # the fourth, at a window inside it, reads that series in place and
    # builds nothing
    assert got["contained_window"] == ["5/2", "5"] and got["contained_s"] > 0
    assert got["windows_built"] == {"cold": 1, "warm": 0, "contained": 0}
    assert got["windows_from_held"] == {"cold": 0, "warm": 1, "contained": 1}
    # the cold call builds the 38 distinct weights of its 110 terms; every
    # later call reads them from the table of published weights
    assert got["weights_built"] == {"cold": 38, "warm": 0, "hit": 0, "contained": 0}
    assert got["weights_held"] == 38
    (line,) = run_script("stage_times.py", "--g", "psl22", "--k", "-3",
                         "--nu", "0,0,1/2,-1/2", "--massless", "--qmax", "5/2",
                         "--depth", "4")
    got = json.loads(line)
    assert got["orbit_elements"] >= 2 and got["kept_terms"] >= got["out_terms"] > 0
    assert 0 <= got["checks_s"] <= got["warm_s"]
    # the cold call builds one isotropic quotient per image of its 4 orbit
    # elements; the warm call reads them from the cache and builds none
    assert (got["orbit_elements"], got["quotients"], got["quotients_warm"]) == (4, 4, 0)
    assert got["caches"]["_fns_cached"]["misses"] == 1 + 4
    # the cold call's quotients after the first read its denominator, a read
    # of the store's own that is no hit; the warm and the fourth call read
    # each element's quotient from the cold call's
    assert got["windows_built"] == {"cold": 1 + 4, "warm": 0, "contained": 0}
    assert got["windows_from_held"] == {"cold": 0, "warm": 4, "contained": 4}
    # a warm psl22 massive request: its preconditions are timed at 1 us
    # resolution, so the sub-millisecond checks do not round to 0
    (line,) = run_script("stage_times.py", "--g", "psl22", "--k", "-3",
                         "--nu", "0,0,1/2,-1/2", "--l0", "1", "--qmax", "3",
                         "--depth", "6")
    got = json.loads(line)
    assert 0 < got["checks_s"] <= got["warm_s"]
    assert all(got[k] == round(got[k], 6) for k in ("checks_s", "orbit_s", "warm_s"))


def test_stage_times_pinned_spo2m3_miss():
    """The cheap char_warm miss of the docstring's second example: its work
    counts are pinned, the denominator's distinct (q, depth) pairs among
    them, whatever form the held series takes, and the weights published:
    7 distinct ones among the 25 terms, built by the cold call alone."""
    import json
    (line,) = run_script("stage_times.py", "--g", "spo2m", "--m", "3", "--k", "-3/2",
                         "--nu", "0,1", "--l0", "1", "--qmax", "3", "--depth", "6")
    got = json.loads(line)
    assert {k: got[k] for k in ("orbit_elements", "kept_terms", "out_terms", "denominator_terms",
                                "denominator_buckets")} == {"orbit_elements": 4,
                                                            "kept_terms": 104,
                                                            "out_terms": 25,
                                                            "denominator_terms": 51,
                                                            "denominator_buckets": 51}
    assert got["weights_built"] == {"cold": 7, "warm": 0, "hit": 0, "contained": 0}
    assert got["weights_held"] == 7
    # window 2: walked to q_shift 2, and its eta pairing 1 is below
    # limit + 1 = 3, so it stays in the sum's key as it is
    assert (got["limit"], got["eta_pairings"]) == (2, [1])


def test_stage_times_takes_a_negative_rational_level():
    """`--k -9/4` is read as a level, not a flag, and `wmin` is not imported
    before the timed import."""
    import json
    (line,) = run_script("stage_times.py", "--g", "G3", "--k", "-9/4")
    got = json.loads(line)
    assert got["out_terms"] == 110 and got["import_s"] > 0


def test_stage_times_gram():
    """`--gram 8`: every stage of the boson lab's int kernel is timed, and
    the caches hold what the stages built, one basis, the mode maps, their
    11 paired maps (|n| <= 5: a table of n = m, empty on any maps, reads no
    map), the 28 (s, mu)-free Virasoro tables (one per
    pair n <= m of the 49 pairs |n|, |m| <= 3), the 14 adjointness tables
    (|n| <= 3, two operators) that the checks then read, which keep no
    row on the free-field maps, each an identity, and the 8
    `heisenberg_matrix` views (one per annihilator a_j, 1 <= j <= 8) of
    the norms contraction."""
    import json
    (line,) = run_script("stage_times.py", "--gram", "8")
    got = json.loads(line)
    assert got["states"] == 67
    assert got["tables"] == 28 and got["rows"] == 0 and got["adjoint_rows"] == 0
    assert got["identities"] == {"virasoro": 28, "adjoint": 14}
    assert all(got[k] >= 0 for k in ("basis_s", "modes_s", "tables_s", "virasoro_s",
                                     "adjoint_tables_s", "adjoint_s", "norms_s"))
    assert {name: info["currsize"] for name, info in got["caches"].items()} == {
        "states_at_energy": 9, "_basis": 1, "_a_map": 16, "_p_map": 12, "_paired": 11,
        "_virasoro_rows": 28, "_adjoint_rows": 14, "heisenberg_matrix": 8}
    for name, builds in (("_paired", 11), ("_virasoro_rows", 28), ("_adjoint_rows", 14)):
        assert got["caches"][name]["misses"] == builds, name
    assert all(info["currsize"] <= info["maxsize"] for info in got["caches"].values())
    # a warm check of each kind is timed, on the tables the stages built
    assert sorted(got["warm_check_ns"]) == ["adjoint_L", "adjoint_a", "virasoro"]
    assert all(ns > 0 for ns in got["warm_check_ns"].values())


def test_stage_times_puts_back_what_it_wraps(capsys):
    """Run in process, the character case times its stages through
    wrappers of `characters._fns_cached`, `_orbit_sum` and seven more, and
    puts the wrapped functions back, also when the request is refused; its
    `caches` are read from `wmin._stores.info()`, which finds the wrapped
    stores while the wrappers are in place and all 13 stores afterwards."""
    import importlib.util
    import json

    import pytest

    from wmin import _stores, characters
    from wmin.errors import WminError
    spec = importlib.util.spec_from_file_location("stage_times", SCRIPTS / "stage_times.py")
    stage_times = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(stage_times)
    names = ("_vec", "_orbit", "_fns_cached", "_orbit_sum", "_sum_pieces", "_publish",
             "_P_plus_data", "_is_extremal", "_excess", "_threshold")
    found = {name: getattr(characters, name) for name in names}
    case = ["--g", "spo2m", "--m", "3", "--k", "-3/2", "--nu", "0,1", "--qmax", "3",
            "--depth", "6"]
    stage_times.main(case + ["--l0", "1"])
    got = json.loads(capsys.readouterr().out)
    assert {name: getattr(characters, name) for name in names} == found
    assert got["caches"]["_orbit_sum"] == {"hits": 0, "misses": 1, "maxsize": 128, "currsize": 1}
    assert list(got["caches"]) == ["lookup", "_level", "_fns_cached", "_orbit_sum"]
    assert len(_stores.info()) == 13
    assert _stores.info()["characters._fns_cached"][3] >= 1
    with pytest.raises(WminError):  # l0 below the threshold: the cold call is refused
        stage_times.main(case + ["--l0", "-5"])
    assert {name: getattr(characters, name) for name in names} == found
    assert len(_stores.info()) == 13


def test_stage_times_verdicts():
    """`--verdicts`: a seeded draw from the verdict pool, the first builds
    of its entries and level records, and each stage of `decide` timed over
    the requests that reach it: all reach the pass over nu, those at a
    non-collapsing level the P^+_k test, and those in P^+_k (every pool
    weight is) the threshold, extremality, the closed form and the tail;
    and a fresh pass split into the first request per family, the first
    per level and the steady ones, which number the entries, the level
    records less the entries, and the rest."""
    import json
    (line,) = run_script("stage_times.py", "--verdicts", "60", "--seed", "5")
    got = json.loads(line)
    assert got["pool"] == 3756 and got["requests"] == 60
    assert got["outcomes"] == {"BelowBound": 16, "Collapsing": 1, "ExtremalBoundary": 7,
                               "ExtremalOffBoundary": 9, "UnitaryNonExtremal": 27}
    stages = ("scalars_s", "p_plus_s", "threshold_s", "extremal_s", "closed_form_s", "tail_s")
    assert sorted(got["stages"]) == sorted(stages) == sorted(got["reached"])
    assert all(0 < got["stages"][s] == round(got["stages"][s], 6) for s in stages)
    assert 0 < got["decide_s"]
    assert all(0 < got[s] == round(got[s], 6) for s in ("lookup_s", "levels_s"))
    assert got["first_builds"] == {"entries": 8, "level_records": 27}
    assert got["reached"] == {"scalars_s": 60, "p_plus_s": 59, "threshold_s": 59,
                              "extremal_s": 59, "closed_form_s": 59, "tail_s": 59}
    first = got["first_use"]
    assert {kind: first[kind]["requests"] for kind in first} == {
        "first_per_family": 8, "first_per_level": 19, "steady": 33}
    assert all(0 < first[kind]["total_s"] and 0 < first[kind]["median_us"] for kind in first)


def test_stage_times_hits():
    """`--hits`: the seed-3 char_warm pool, each request's fastest of the
    timed all-hit passes, with no orbit sum computed in them."""
    import json
    (line,) = run_script("stage_times.py", "--hits", "3")
    got = json.loads(line)
    assert (got["requests"], got["passes"], got["sums_computed"]) == (102, 300, 0)
    q1, q3 = got["hit_us_quartiles"]
    assert 0 < q1 <= got["hit_us"] <= q3


def test_fuzz_contract():
    """The long error-contract fuzz, run short: every drawn call and
    command line is made, and none escapes."""
    import json
    (line,) = run_script("fuzz_contract.py", "--seed", "1", "--rounds", "4")
    got = json.loads(line)
    assert (got["seed"], got["rounds"], got["command_lines"]) == (1, 4, 4)
    assert got["calls"] > 4 and got["escapes"] == []


def test_stage_times_setup():
    """`--setup`: `import wmin` and each of its modules, and lookup and
    validate of each verdict family with the first builds of its coroot
    table, frame and level records, as medians over fresh interpreters."""
    import json
    (line,) = run_script("stage_times.py", "--setup", "2")
    got = json.loads(line)
    assert got["interpreters"] == 2 and got["import_s"] > 0
    assert sorted(got["modules"]) == ["wmin", "wmin.catalog", "wmin.characters", "wmin.errors",
                                      "wmin.gram_lab", "wmin.levels", "wmin.rationals",
                                      "wmin.unitarity", "wmin.weights"]
    assert list(got["families"]) == ["psl22", "spo2m(m=3)", "spo2m(m=5)", "spo2m(m=6)",
                                     "D21a(a=2/1)", "D21a(a=2/3)", "F4", "G3"]
    assert all(list(f) == ["lookup_s", "validate_s", "coroots_s", "frame_s", "levels_s"]
               for f in got["families"].values())
    assert all(t > 0 for f in got["families"].values() for t in f.values())
    assert got["lookup_validate_s"] > 0


def test_loc_totals_are_the_sums_of_its_rows():
    """`scripts/loc.py` prints one row per module of `src/wmin`, lines and
    code lines, code never more than lines, and a row that sums them; then
    one row each for the Python files of tests/ and scripts/, whose lines
    are theirs summed."""
    header, *rows, total, tests, scripts = [line.split() for line in run_script("loc.py")]
    assert header == ["module", "lines", "code"] and total[0] == "total"
    table = {name: (int(lines), int(code)) for name, lines, code in rows}
    assert {"characters", "catalog", "__init__"} <= table.keys()
    assert all(0 < code <= lines for lines, code in table.values())
    assert [int(total[1]), int(total[2])] == [sum(c[0] for c in table.values()),
                                              sum(c[1] for c in table.values())]
    for (name, lines, code), tree in zip((tests, scripts), ("tests", "scripts")):
        assert name == f"{tree}/" and 0 < int(code) <= int(lines)
        assert int(lines) == sum(len(path.read_text().splitlines())
                                 for path in (SCRIPTS.parent / tree).glob("*.py"))


def test_grid_dump_and_diff(tmp_path):
    """`scripts/grid.py` on one section: the run equals its pin, a dump
    holds one record per call, and a diff against that dump names no call;
    a doctored record is named with its old and new text."""
    import json
    dump = tmp_path / "series.jsonl"
    (line,) = run_script("grid.py", "--section", "series", "--dump", str(dump))
    got = json.loads(line)
    assert got["series"]["same"] and got["series"]["calls"] == len(dump.read_text().splitlines())
    (line,) = run_script("grid.py", "--section", "series", "--diff", str(dump))
    assert json.loads(line)["changed"] == []
    rows = [json.loads(r) for r in dump.read_text().splitlines()]
    rows[0]["record"] = "0"
    dump.write_text("".join(json.dumps(r) + "\n" for r in rows))
    done = subprocess.run([sys.executable, str(SCRIPTS / "grid.py"), "--section", "series",
                           "--diff", str(dump)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    (changed,) = json.loads(done.stdout)["changed"]
    assert (changed["call"], changed["old"]) == (rows[0]["call"], "0")
