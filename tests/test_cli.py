import json
from fractions import Fraction as Q

import pytest

from wmin import unitarity
from wmin.cli import run, verdict_to_dict, build_parser
from wmin.rationals import parse_rational
from wmin.unitarity import decide
from wmin import catalog
from wmin.catalog import lookup


def run_json(capsys, argv):
    code = run(["--format", "json"] + argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_check_example(capsys):
    code, d = run_json(capsys, ["check", "--g", "psl22", "--k", "-3",
                                "--nu-r", "1", "--l0", "1/2"])
    assert code == 0
    assert d["outcome"] == "UnitaryNonExtremal"
    assert d["quantities"]["A"] == "1/2"


def test_range_example(capsys):
    code, d = run_json(capsys, ["range", "--g", "F4", "--count", "3"])
    assert code == 0
    assert d["k"] == ["-4/3", "-2", "-8/3"]


def test_char_example(capsys):
    code, d = run_json(capsys, ["char", "--g", "psl22", "--M1", "1", "--r", "1",
                                "--massless", "--qmax", "4", "--depth", "8"])
    assert code == 0
    assert d["kind"] == "massless" and d["l0"] == "1/2"
    first = d["series"][0]
    assert first["q"] == "1/2" and first["coeff"] == 1


def test_char_picks_kind_by_threshold(capsys):
    code, d = run_json(capsys, ["char", "--g", "psl22", "--k", "-3",
                                "--nu-r", "1", "--l0", "3/2",
                                "--qmax", "3", "--depth", "4"])
    assert code == 0 and d["kind"] == "massive"


def test_scan_and_gram(capsys):
    code, d = run_json(capsys, ["scan-sign2", "--g", "G3", "--k", "-3/2",
                                "--nmax", "4", "--mmax", "4"])
    assert code == 0 and d["ok"] and d["hypothesis_met"]
    code, d = run_json(capsys, ["gram", "--emax", "4"])
    assert code == 0 and d["ok"]


def test_info_includes_validation(capsys):
    code, d = run_json(capsys, ["info", "--g", "G3"])
    assert code == 0
    assert d["validation"]["ok"] and d["epsilon"] == 2
    assert d["components"][0]["u"] == "-3/2"
    code, d = run_json(capsys, ["info", "--g", "osp4m", "--m", "4"])
    assert code == 0 and d["validation"]["ok"]


def test_levels_table_format(capsys):
    code = run(["levels", "--g", "spo2m", "--m", "3", "--k", "-3/4"])
    out = capsys.readouterr().out
    assert code == 0 and "collapse_target: V_1(sl2)" in out


def test_exit_codes(capsys):
    assert run(["levels", "--g", "psl22", "--k", "0"]) == 1  # critical level
    capsys.readouterr()
    # floats are a parse error, not a domain error
    assert run(["check", "--g", "psl22", "--k", "0.5", "--l0", "0"]) == 2
    capsys.readouterr()
    assert run(["bogus-subcommand"]) == 2
    capsys.readouterr()
    assert run(["levels", "--g", "nope"]) == 2
    capsys.readouterr()


def test_zero_denominator_is_usage_error(capsys):
    for argv in (["char", "--g", "psl22", "--M1", "1", "--r", "1", "--massless",
                  "--qmax", "1/0", "--depth", "2"],
                 ["check", "--g", "psl22", "--k", "1/0", "--l0", "1"]):
        code, d = run_json(capsys, argv)
        assert code == 2 and d == {"error": "ValueError",
                                   "message": "zero denominator in '1/0'"}


def test_weight_label_gap_is_usage_error(capsys):
    base = ["check", "--g", "D21a", "--a", "2", "--k", "-2/3", "--l0", "1"]
    code, d = run_json(capsys, base + ["--nu-r2", "1"])
    assert code == 2 and d["message"].startswith("--nu-r2 needs --nu-r:")
    code, d = run_json(capsys, base + ["--nu-r", "1", "--nu-r3", "1"])
    assert code == 2 and d["message"].startswith("--nu-r3 needs --nu-r2:")
    code, d = run_json(capsys, base + ["--nu-r", "0", "--nu-r2", "1"])
    assert code == 0 and d["collapse"]["weight_integrable"] is False


def test_empty_weight_lists_are_usage_errors(capsys):
    """An empty list, or an empty entry in one, is not read as nu = 0 or as
    a shorter list."""
    base = ["check", "--g", "psl22", "--k", "-2", "--l0", "1"]
    for flags in (["--nu-coords", ""], ["--nu-labels", ""], ["--nu-labels", "1,,"]):
        code, d = run_json(capsys, base + flags)
        assert code == 2 and d == {"error": "ValueError",
                                   "message": "not an exact rational: '' (use p or p/q)"}, flags


def test_wrong_label_count_is_refused(capsys):
    """--nu-labels with a count the family does not take is refused as out
    of range, naming the family and the count it takes, before any weight
    of the wrong length is formed."""
    for argv, message in [
            (["--g", "psl22", "--k", "-2", "--nu-labels", "1,1", "--l0", "1"],
             "psl22 takes 1 weight label, got 2"),
            (["--g", "F4", "--k", "-1", "--nu-labels", "1,0", "--l0", "0"],
             "F4 takes 3 weight labels, got 2"),
            (["--g", "G3", "--k", "-9/4", "--nu-labels", "1", "--l0", "1"],
             "G3 takes 2 weight labels, got 1")]:
        code, d = run_json(capsys, ["check"] + argv)
        assert code == 1 and d == {"error": "ParameterOutOfRange", "message": message}, argv
    # the padded families still take short lists
    code, d = run_json(capsys, ["check", "--g", "spo2m", "--m", "5", "--k", "-3/2",
                                "--nu-labels", "1", "--l0", "1"])
    assert code == 0 and d["nu"] == ["0", "1", "0"]


def test_conflicting_inputs_are_usage_errors(capsys):
    base = ["check", "--g", "psl22", "--k", "-3", "--l0", "1"]
    code, d = run_json(capsys, base + ["--nu-labels", "0", "--nu-r", "2"])
    assert code == 2 and d["message"].startswith("--nu-labels conflicts with --nu-r:")
    code, d = run_json(capsys, base + ["--nu-coords", "0,0,0,0", "--nu-labels", "2"])
    assert code == 2 and d["message"].startswith("--nu-coords conflicts with --nu-labels:")
    code, d = run_json(capsys, ["levels", "--g", "psl22", "--k", "-3", "--M1", "5"])
    assert code == 2 and d["message"].startswith("--k conflicts with --M1:")
    code, d = run_json(capsys, ["char", "--g", "psl22", "--M1", "1", "--r", "1",
                                "--massless", "--massive", "--qmax", "2", "--depth", "2"])
    assert code == 2 and d["message"].startswith("--massless conflicts with --massive:")
    # one way each is still fine
    code, d = run_json(capsys, base + ["--nu-r", "2"])
    assert code == 0 and d["nu"] == ["0", "0", "1", "-1"]
    code, d = run_json(capsys, ["levels", "--g", "psl22", "--M1", "2"])
    assert code == 0


def test_m1_gives_the_level_of_that_component_level(capsys):
    """--M1 inverts M_1(k) on the one simple component of g^nat; with two
    components or a center it is refused, after M1 itself is parsed."""
    for fam in (["psl22"], ["spo2m", "--m", "3"], ["spo2m", "--m", "5"], ["F4"], ["G3"]):
        for m1 in ("1", "2", "5/2"):
            code, d = run_json(capsys, ["levels", "--g", *fam, "--M1", m1])
            assert code == 0 and d["M_simple"] == [m1], (fam, m1)
    for fam in (["D21a", "--a", "1"], ["sl2m", "--m", "3"], ["osp4m", "--m", "4"]):
        code, d = run_json(capsys, ["levels", "--g", *fam, "--M1", "1"])
        assert code == 1 and d["message"] == f"--M1 is not supported for {fam[0]}; use --k"
        code, d = run_json(capsys, ["levels", "--g", *fam, "--M1", "1.5"])
        assert code == 2


def test_gram_emax_bounds_and_witness(capsys):
    for e_max in ("-1", "0"):
        code, d = run_json(capsys, ["gram", "--emax", e_max])
        assert code == 2 and d["message"] == f"--emax must be at least 1, got {e_max}"
    # below E = 5 the window, not |n|,|m| <= 2, bounds the Virasoro cases,
    # and below E = 2 it bounds the adjointness cases
    witness = {1: ("|n|,|m| <= 2, |n|+|m| <= 0, E <= 1, 9 parameter pairs",
                   "same grid, |n| <= 1"),
               2: ("|n|,|m| <= 2, |n|+|m| <= 1, E <= 2, 9 parameter pairs", "same grid"),
               4: ("|n|,|m| <= 2, |n|+|m| <= 3, E <= 4, 9 parameter pairs", "same grid"),
               6: ("|n|,|m| <= 2, E <= 6, 9 parameter pairs", "same grid")}
    for e_max, (vir, adj) in witness.items():
        code, d = run_json(capsys, ["gram", "--emax", str(e_max)])
        checks = {c["name"]: c for c in d["checks"]}
        assert code == 0 and d["ok"] and checks["virasoro"]["witness"] == vir
        assert checks["adjointness_L"]["witness"] == adj
        assert checks["adjointness_a"]["witness"] == adj


def verdict_from_dict(d: dict) -> unitarity.UnitarityVerdict:
    """The inverse of `verdict_to_dict`: the test's reader of the JSON schema."""
    col = None
    if "collapse" in d:
        c = d["collapse"]
        col = unitarity.CollapseCheck(c["target"], c["weight_integrable"],
                                      parse_rational(c["l0"]), c["detail"])
    qs = {}
    for key, val in d["quantities"].items():
        if isinstance(val, list):
            qs[key] = [parse_rational(x) if isinstance(x, str) else x for x in val]
        elif isinstance(val, str):
            qs[key] = parse_rational(val)
        else:
            qs[key] = val
    return unitarity.UnitarityVerdict(d["outcome"], qs, tuple(d["reasons"]),
                                      d.get("proved"), col)


def test_verdict_json_round_trip():
    g = catalog.psl22()
    nu = Q(1, 2) * lookup(g).components[0].theta
    for l0 in (Q(1, 2), Q(2), Q(0)):
        v = decide(g, -3, nu, l0)
        assert verdict_from_dict(verdict_to_dict(v)) == v
    v = decide(catalog.spo2m(3), Q(-3, 4), nu and lookup(catalog.spo2m(3)).nu_from_labels([1]), Q(1, 4))
    assert verdict_from_dict(verdict_to_dict(v)) == v


def test_byte_identical_output(capsys):
    argv = ["--format", "json", "char", "--g", "psl22", "--k", "-3",
            "--nu-r", "0", "--l0", "1", "--qmax", "3", "--depth", "4"]
    run(argv)
    first = capsys.readouterr().out
    run(argv)
    second = capsys.readouterr().out
    assert first == second


#: `wmin --format json levels|range` as recorded before `LevelData` lost its c:
#: c comes from `central_charge`, the range from the catalog's table
LEVELS_GOLDEN = [
    (["--g", "psl22", "--k", "-2"],
     {"M": ["1"], "M_simple": ["1"], "algebra": "psl22", "alpha_levels": ["0"], "c": "6",
      "c_sqrt_form": "6", "c_sqrt_form_note": "sqrt = 0", "collapse_target": None,
      "collapsing": False, "in_unitarity_range": True, "k": "-2", "p_k": "2"}),
    (["--g", "spo2m", "--m", "3", "--k", "-3/4"],
     {"M": ["1"], "M_simple": ["1"], "algebra": "spo2m(m=3)", "alpha_levels": ["-1"],
      "c": "1", "c_sqrt_form": "1", "c_sqrt_form_note": "sqrt = 0",
      "collapse_target": "V_1(sl2)", "collapsing": True, "in_unitarity_range": True,
      "k": "-3/4", "p_k": "0"}),
    (["--g", "sl2m", "--m", "3", "--k", "-1"],
     {"M": ["-3/2", "0"], "M_simple": ["0"], "algebra": "sl2m(m=3)",
      "alpha_levels": ["-2", "-1"], "c": "1", "c_sqrt_form": "1",
      "c_sqrt_form_note": "sqrt = 0", "collapse_target": "free boson V_-3/2(center)",
      "collapsing": True, "in_unitarity_range": True, "k": "-1", "p_k": "0"}),
    (["--g", "osp4m", "--m", "4", "--k", "-2"],
     {"M": ["-4", "0"], "M_simple": ["-4", "0"], "algebra": "osp4m(m=4)",
      "alpha_levels": ["-6", "-1"], "c": "6", "c_sqrt_form": "6",
      "c_sqrt_form_note": "sqrt = 0", "collapse_target": "V_-4(sl2)", "collapsing": True,
      "in_unitarity_range": False, "k": "-2", "p_k": "0"}),
    (["--g", "D21a", "--a", "1", "--k", "-1/2"],
     {"M": ["0", "0"], "M_simple": ["0", "0"], "algebra": "D21a(a=1/1)",
      "alpha_levels": ["-1", "-1"], "c": "0", "c_sqrt_form": "0",
      "c_sqrt_form_note": "sqrt = 0", "collapse_target": "C", "collapsing": True,
      "in_unitarity_range": False, "k": "-1/2", "p_k": "0"}),
    (["--g", "D21a", "--a", "1", "--k", "-1"],
     {"M": ["1", "1"], "M_simple": ["1", "1"], "algebra": "D21a(a=1/1)",
      "alpha_levels": ["0", "0"], "c": "3", "c_sqrt_form": "3",
      "c_sqrt_form_note": "sqrt = 0", "collapse_target": None, "collapsing": False,
      "in_unitarity_range": True, "k": "-1", "p_k": "1/4"}),
    (["--g", "G3", "--k", "-9/4"],
     {"M": ["2"], "M_simple": ["2"], "algebra": "G3", "alpha_levels": ["1"], "c": "49/5",
      "c_sqrt_form": None, "c_sqrt_form_note": "sqrt(sdim*h_vee/6) is not rational",
      "collapse_target": None, "collapsing": False, "in_unitarity_range": True,
      "k": "-9/4", "p_k": "33/8"}),
]

RANGE_GOLDEN = [
    (["--g", "sl2m", "--m", "3"], {"algebra": "sl2m(m=3)", "k": ["-1"]}),
    (["--g", "osp4m", "--m", "4"], {"algebra": "osp4m(m=4)", "k": []}),
    (["--g", "D21a", "--a", "1"], {"algebra": "D21a(a=1/1)", "k": ["-1", "-3/2", "-2"]}),
]


@pytest.mark.parametrize("argv, want", LEVELS_GOLDEN,
                         ids=[" ".join(argv) for argv, _ in LEVELS_GOLDEN])
def test_levels_json_golden(capsys, argv, want):
    assert run_json(capsys, ["levels"] + argv) == (0, want)


@pytest.mark.parametrize("argv, want", RANGE_GOLDEN,
                         ids=[" ".join(argv) for argv, _ in RANGE_GOLDEN])
def test_range_json_golden(capsys, argv, want):
    assert run_json(capsys, ["range"] + argv + ["--count", "3"]) == (0, want)
