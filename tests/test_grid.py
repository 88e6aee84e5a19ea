"""The byte-identity grid's fixed slice (`scripts/grid.py`): every
`slice_every`-th call of each section, run in process, gives the digest
pinned in tests/grid_digests.json.  A change of any record in the slice,
an output or a refusal's class or text, fails here; the full grid is run
as `python3 scripts/grid.py`.  The characters slice, made last call first
from emptied stores, gives the same digest: no answer depends on the order
of the requests or on what the stores hold."""
import importlib.util
import json
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("grid", ROOT / "scripts" / "grid.py")
grid = importlib.util.module_from_spec(spec)
spec.loader.exec_module(grid)


def test_the_grid_slice_keeps_its_pinned_digests():
    pins = json.loads((ROOT / "tests" / "grid_digests.json").read_text())
    assert sorted(pins) == sorted(grid.SECTIONS)
    for name, (count, got, want) in grid.check_slices().items():
        assert count == math.ceil(pins[name]["calls"] / pins[name]["slice_every"]), name
        assert got == want, f"grid section {name!r} changed: run scripts/grid.py --diff"


def test_the_characters_slice_replayed_in_reverse_from_empty_stores_keeps_its_digest():
    pin = json.loads((ROOT / "tests" / "grid_digests.json").read_text())["characters"]
    lines = grid.section_lines("characters", pin["slice_every"], reverse=True, cold=True)
    assert grid.digest(lines) == pin["slice_sha256"]
