"""The registry of process-lifetime stores (`wmin._stores`): `info()` names
every store of the package, `clear()` empties each one, importing the
registry imports no store module, and no store hides where the walk of
`info()` cannot find it."""
import ast
import json
import subprocess
import sys
from fractions import Fraction as Q
from pathlib import Path

import wmin
from wmin import _stores, catalog, characters
from wmin.rationals import GaussianRational as GR

SRC = Path(wmin.__file__).parent
STORES = {"catalog.lookup", "levels._level", "characters._fns_cached", "characters._orbit_sum",
          "characters._weights", "gram_lab.states_at_energy", "gram_lab._basis",
          "gram_lab._a_map", "gram_lab._p_map", "gram_lab._paired", "gram_lab.heisenberg_matrix",
          "gram_lab._virasoro_rows", "gram_lab._adjoint_rows"}


def test_info_names_the_thirteen_stores():
    """Eleven `lru_cache`s, the held-window store and the table of
    published weights, each as (hits, misses, maxsize, currsize)."""
    info = _stores.info()
    assert info.keys() == STORES and len(STORES) == 13
    assert all(len(v) == 4 for v in info.values())
    assert info["characters._weights"][:3] == (None, None, characters.WEIGHT_CAP)


def test_clear_empties_every_store():
    """A massless character and four gram checks put one entry at least in
    each of the 13 stores; `clear()` leaves none."""
    g, nu = catalog.psl22(), catalog.zero_vec(4)
    wmin.character_massless(g, -3, nu, wmin.A_bound(g, -3, nu) + 1, 2)
    wmin.virasoro_check(GR.imag(Q(1, 2)), Q(2), 1, -1, 4)
    wmin.adjointness_check(GR.imag(Q(1, 2)), Q(2), 1, 4, "L")
    wmin.adjointness_check(GR.of(0), Q(2), 1, 4, "a")
    wmin.heisenberg_matrix(1, Q(2), 4)
    assert all(v[3] > 0 for v in _stores.info().values()), _stores.info()
    _stores.clear()
    assert {name: v[3] for name, v in _stores.info().items()} == dict.fromkeys(STORES, 0)
    assert len(characters._weights) == 0


def test_importing_the_registry_alone_imports_no_store_module():
    """With the package's `__init__` left out (it imports every module
    today, ROADMAP item 14), importing `wmin._stores` imports no other
    module of the package: the stores' modules are imported when `info()`
    or `clear()` is called."""
    code = ("import json, sys, types\n"
            "pkg = types.ModuleType('wmin'); pkg.__path__ = [sys.argv[1]]\n"
            "sys.modules['wmin'] = pkg\n"
            "import wmin._stores\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('wmin'))))")
    out = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                         text=True, check=True).stdout
    assert json.loads(out) == ["wmin", "wmin._stores"]


# the module-level containers that are no hidden store, with why
KNOWN_CONTAINERS = {("characters", "_weights"): "the table of published weights, in info()",
                    ("__init__", "__all__"): "the package's public names"}
CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
CONTAINER_CALLS = {"dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque"}


def _is_cache(node, names) -> bool:
    """Whether node names a cache decorator: one of `names` or
    `functools.lru_cache` / `functools.cache`."""
    if isinstance(node, ast.Name):
        return node.id in names
    return (isinstance(node, ast.Attribute) and node.attr in ("lru_cache", "cache")
            and getattr(node.value, "id", None) == "functools")


def _held_containers(tree):
    """(name, line) of each assignment of a mutable container outside every
    function body: at module level or in a class, living as long as the
    module."""
    local = {id(n) for f in ast.walk(tree) if isinstance(f, (ast.FunctionDef, ast.Lambda))
             for n in ast.walk(f) if n is not f}
    for node in ast.walk(tree):
        if id(node) in local or not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        f = getattr(node.value, "func", None)
        if isinstance(node.value, CONTAINERS) or getattr(f, "id", getattr(f, "attr", None)) \
                in CONTAINER_CALLS:
            for t in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield ast.unparse(t), node.lineno


def test_every_store_is_one_info_finds():
    """What the walk of `_stores.info()` cannot see: a cache (`lru_cache`,
    `functools.cache` or `_held_windows`) applied anywhere but as the
    decorator of a module-level def of a module `_stores` walks; and a
    module-level (or class-level) mutable container other than
    `characters._weights`, which `info()` names by hand."""
    walked = {mod.__name__.rpartition(".")[2] for mod in _stores._modules()}
    bad = []
    for path in sorted(SRC.glob("*.py")):
        tree, mod = ast.parse(path.read_text()), path.stem
        names = {"_held_windows"} | {a.asname or a.name for node in ast.walk(tree)
                                     if isinstance(node, ast.ImportFrom)
                                     and node.module == "functools"
                                     for a in node.names if a.name in ("lru_cache", "cache")}
        decorators = [(node.name, d.func if isinstance(d, ast.Call) else d)
                      for node in tree.body if isinstance(node, ast.FunctionDef)
                      for d in node.decorator_list]
        applied = {id(f) for name, f in decorators if _is_cache(f, names)}
        bad += [f"{mod}.{name}: a cache in a module _stores does not walk"
                for name, f in decorators if id(f) in applied and mod not in walked]
        bad += [f"{mod}:{node.lineno}: a cache applied but not to a module-level def"
                for node in ast.walk(tree) if _is_cache(node, names) and id(node) not in applied]
        bad += [f"{mod}:{line}: module-level container {name}" for name, line
                in _held_containers(tree) if (mod, name) not in KNOWN_CONTAINERS]
    assert not bad, bad
