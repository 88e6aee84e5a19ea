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


def test_scan_lemma_bounds():
    lines = run_script("scan_lemma_bounds.py", "--family", "G3", "--max-m1", "1",
                       "--window", "4")
    assert "G3: 60 bound evaluations, 0 violations" in lines
