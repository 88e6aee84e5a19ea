"""Work counts of the character store over the benchmark's seed-3 pools:
exact numbers, which move only when the work does, where a timing is
noise.  The pools are read through `bench/workloads.py` (`generate` and
`Runner`), in process, one pass each, from empty character caches."""
import sys
from pathlib import Path

import pytest

from wmin import characters

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "bench"))
import workloads as W  # noqa: E402


@pytest.mark.parametrize("workload,builds,hits,weights", [("char_cold", 23, 52, 68),
                                                          ("char_warm", 7, 97, 63)])
def test_seed3_pool_work_counts(workload, builds, hits, weights):
    """One pass over a seed-3 pool builds `builds` windows of the
    denominator store (`_fns_cached` misses: denominators and isotropic
    quotients) and answers `hits` calls from a held series, and leaves one
    key per distinct published weight in the table of `_publish`."""
    reqs = W.generate(workload, 3, W.NOMINAL_SECONDS, W.load_golden())
    runner = W.Runner()
    characters._fns_cached.cache_clear()
    characters._orbit_cell.cache_clear()
    characters._weights.clear()
    for req in reqs:
        runner.call(runner.prepare(req))
    info = characters._fns_cached.cache_info()
    assert (info.misses, info.hits) == (builds, hits)
    assert len(characters._weights) == len(set(characters._weights.values())) == weights
