import json
from fractions import Fraction as Q

from wmin.cli import run, verdict_from_dict, verdict_to_dict, build_parser
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


def test_weight_label_gap_is_usage_error(capsys):
    base = ["check", "--g", "D21a", "--a", "2", "--k", "-2/3", "--l0", "1"]
    code, d = run_json(capsys, base + ["--nu-r2", "1"])
    assert code == 2 and d["message"].startswith("--nu-r2 needs --nu-r:")
    code, d = run_json(capsys, base + ["--nu-r", "1", "--nu-r3", "1"])
    assert code == 2 and d["message"].startswith("--nu-r3 needs --nu-r2:")
    code, d = run_json(capsys, base + ["--nu-r", "0", "--nu-r2", "1"])
    assert code == 0 and d["collapse"]["weight_integrable"] is False


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
