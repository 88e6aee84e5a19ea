"""The record classes: value semantics written out (`rationals._Record`,
`_Frozen`) or as `typing.NamedTuple`s, pinned to what the dataclasses they
replaced did.  Only `UnitarityVerdict` is still a dataclass."""
import ast
import copy
import hashlib
import pickle
from fractions import Fraction as Q
from pathlib import Path

import pytest

from wmin import catalog, characters, gram_lab, levels, unitarity
from wmin.catalog import AlgebraId, Vec, lookup, validate
from wmin.errors import ParameterOutOfRange
from wmin.rationals import GaussianRational as GR

SRC = Path(__file__).resolve().parents[1] / "src" / "wmin"


def _pairs():
    """(a, b, repr, frozen): two equal instances built apart, the repr the
    dataclass printed, and whether assignment must raise."""
    e = lookup(catalog.psl22())
    return [
        (AlgebraId("D21a", a_num=2, a_den=3), catalog.d21a(4, 6),
         "AlgebraId(family='D21a', m=0, a_num=2, a_den=3)", True),
        (e.components[0], catalog.NaturalComponent(1, e.components[0].theta, Q(-2), Q(-2), Q(-1)),
         "NaturalComponent(index=1, theta=(Fraction(0, 1), Fraction(0, 1), Fraction(1, 1), "
         "Fraction(-1, 1)), u=Fraction(-2, 1), hbar_vee=Fraction(-2, 1), chi=Fraction(-1, 1))",
         True),
        (levels.level_data(catalog.psl22(), -3),
         levels.LevelData(Q(-3), (Q(2),), (Q(2),), (Q(1),), Q(6), False, None),
         "LevelData(k=Fraction(-3, 1), M=(Fraction(2, 1),), M_simple=(Fraction(2, 1),), "
         "alpha_levels=(Fraction(1, 1),), p_k=Fraction(6, 1), collapsing=False, "
         "collapse_target=None)", True),
        (unitarity.CollapseCheck("C", True, Q(1, 2), "d"),
         unitarity.CollapseCheck("C", True, Q(2, 4), "d"),
         "CollapseCheck(target='C', weight_integrable=True, l0=Fraction(1, 2), detail='d')",
         True),
        (characters.OrbitElement((0, 1), -1, 2, None),
         characters.OrbitElement((0, 1), -1, 2, None),
         "OrbitElement(key=(0, 1), det=-1, q_shift=2, image=None)", True),
        (gram_lab.BosonBasisState(((1, 2),)), gram_lab.BosonBasisState.of({1: 2, 3: 0}),
         "BosonBasisState(parts=((1, 2),))", True),
        (GR(Q(1, 2), 3), GR(Q(2, 4), Q(3)), "(1/2+3*i)", True),
        (catalog.ValidationCheck("x", True), catalog.ValidationCheck("x", True, ""),
         "ValidationCheck(name='x', passed=True, detail='')", True),
        (gram_lab.GradedSliceOperator("a", 1, Q(1, 2), GR(0), 2, {}),
         gram_lab.GradedSliceOperator("a", 1, Q(1, 2), GR(0), 2, {}),
         "GradedSliceOperator(name='a', n=1, mu=Fraction(1, 2), s=0, e_max=2, columns={})",
         True),
        (unitarity.Sign2Report(catalog.d21a(2, 3), Q(-1), Vec([0, 1, 0]), True, "scan"),
         unitarity.Sign2Report(catalog.d21a(2, 3), Q(-1), Vec([0, 1, 0]), True, "scan", 0, []),
         "Sign2Report(g=AlgebraId(family='D21a', m=0, a_num=2, a_den=3), k=Fraction(-1, 1), "
         "nu=(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1)), hypothesis_met=True, "
         "label='scan', checked=0, violations=[])", False),
    ]


@pytest.mark.parametrize("a, b, text, frozen", _pairs(), ids=lambda x: type(x).__name__)
def test_equal_values_compare_and_hash_equal_and_print_as_the_dataclass(a, b, text, frozen):
    assert a is not b and a == b and not a != b
    assert repr(a) == text
    assert copy.deepcopy(a) == a and pickle.loads(pickle.dumps(a)) == a
    if not frozen:  # a mutable record is unhashable, as the dataclass was
        with pytest.raises(TypeError):
            hash(a)
    elif not isinstance(a, gram_lab.GradedSliceOperator):  # its columns are a dict
        assert hash(a) == hash(b)


def _differ_in_one_field():
    e = lookup(catalog.psl22())
    g, k, nu = catalog.d21a(2, 3), Q(-1), Vec([0, 1, 0])
    fields = {f: getattr(e, f) for f in e._fields}
    return [
        (catalog.d21a(2, 3), catalog.d21a(2, 5)),
        (catalog.d21a(2, 3), catalog.d21a(1, 3)),
        (catalog.sl2m(3), catalog.sl2m(5)),
        (catalog.psl22(), catalog.f4()),
        (GR(1, 2), GR(1, 3)),
        (GR(1, 2), GR(2, 2)),
        (e, catalog.CatalogEntry(**{**fields, "extremal_proved": False})),
        (validate(e), catalog.ValidationReport(e, validate(e).checks[:-1])),
        (unitarity.Sign2Report(g, k, nu, True, "scan"),
         unitarity.Sign2Report(g, k, nu, True, "scan", 0, [None])),
    ]


@pytest.mark.parametrize("a, b", _differ_in_one_field(), ids=lambda x: type(x).__name__)
def test_values_that_differ_in_one_field_compare_unequal(a, b):
    assert a != b and not a == b and b != a


@pytest.mark.parametrize("obj, field", [
    (catalog.psl22(), "family"),
    (lookup(catalog.psl22()).components[0], "u"),
    (lookup(catalog.psl22()), "h_vee"),
    (levels.level_data(catalog.psl22(), -3), "k"),
    (unitarity.CollapseCheck("C", True, Q(1, 2), "d"), "l0"),
    (characters.OrbitElement((0, 1), -1, 2, ()), "det"),
    (gram_lab.VACUUM, "parts"),
    (GR(1, 2), "re"),
], ids=lambda x: x if isinstance(x, str) else type(x).__name__)
def test_assigning_a_field_of_a_frozen_record_raises(obj, field):
    with pytest.raises(AttributeError):
        setattr(obj, field, 0)
    with pytest.raises(AttributeError):
        delattr(obj, field)


def test_the_mutable_records_stay_mutable():
    rep = validate(lookup(catalog.psl22()))
    rep.add("extra", False)
    assert not rep.ok and rep.checks[-1] == ("extra", False, "")
    scan = unitarity.sign2_scan(catalog.psl22(), -3, Vec([0, 0, 0, 0]), 2, 2)
    scan.checked += 1
    scan.violations.append(None)
    assert not scan.ok


def test_catalog_entries_compare_and_print_by_value():
    """An entry rebuilt from its fields equals the cached one; its repr is
    the dataclass text (sha256 of the repr of every family's entry and
    report, taken of the dataclass versions)."""
    want = {
        "psl22": ("647f6a94290acb8e", "b4d2057e449d42f9"),
        "sl2m(m=3)": ("bc14c516902df706", "f6a6eaf8cc1b1ad4"),
        "spo2m(m=3)": ("cf9fab9bd276b532", "d135d74cc899db55"),
        "spo2m(m=6)": ("abc31e03f92553b0", "902f6b614640b51f"),
        "osp4m(m=4)": ("0d3358a5bf370dc5", "79d435cd38cbf363"),
        "D21a(a=2/3)": ("0cd804b5a8217f5b", "95f3208eaf060a02"),
        "F4": ("a4ef79a798ea4478", "3a3e55e960fa94d1"),
        "G3": ("ae3063b023530441", "f7e290ff67d468e3"),
    }
    ids = [catalog.psl22(), catalog.sl2m(3), catalog.spo2m(3), catalog.spo2m(6),
           catalog.osp4m(4), catalog.d21a(2, 3), catalog.f4(), catalog.g3()]
    for g in ids:
        e = lookup(g)
        twin = catalog.CatalogEntry(**{f: getattr(e, f) for f in e._fields})
        assert twin == e and hash(twin) == hash(e)
        assert validate(twin) == validate(e)
        got = tuple(hashlib.sha256(repr(x).encode()).hexdigest()[:16] for x in (e, validate(e)))
        assert got == want[g.label()], g.label()
    assert lookup(catalog.psl22()) != lookup(catalog.f4())
    with pytest.raises(TypeError):
        catalog.CatalogEntry(id=catalog.psl22())


@pytest.mark.parametrize("kw, message", [
    ({"family": "E8"}, "unknown family 'E8'"),
    ({"family": "sl2m", "m": 2}, r"sl\(2\|m\) needs m >= 3"),
    ({"family": "spo2m", "m": 2}, r"spo\(2\|m\) needs m >= 3"),
    ({"family": "spo2m", "m": 4},
     r"spo\(2\|4\) is isomorphic to D\(2,1;1\); use D21a with a = 1"),
    ({"family": "osp4m", "m": 5}, r"osp\(4\|m\) needs even m > 2"),
    ({"family": "D21a", "a_num": 0, "a_den": 1}, r"D\(2,1;a\) needs a positive rational a"),
    ({"family": "D21a", "a_num": 2, "a_den": 4}, "a_num/a_den must be reduced"),
    ({"family": "sl2m", "m": 3.0}, r"m must be an int, got 3\.0"),
    ({"family": "sl2m", "m": 3.5}, r"m must be an int, got 3\.5"),
    ({"family": "spo2m", "m": Q(5)}, r"m must be an int, got Fraction\(5, 1\)"),
    ({"family": "psl22", "m": True}, "m must be an int, got True"),
    ({"family": "D21a", "a_num": 2.0, "a_den": 3}, r"a_num must be an int, got 2\.0"),
    ({"family": "D21a", "a_num": 2, "a_den": 3.0}, r"a_den must be an int, got 3\.0"),
])
def test_algebra_id_validation_messages(kw, message):
    with pytest.raises(ParameterOutOfRange, match=f"^{message}$"):
        AlgebraId(**kw)


def test_a_non_int_parameter_is_refused_cold_and_warm():
    """`sl2m(3.0)` used to equal and hash as `sl2m(3)`, so `lookup` answered
    it from the cache once sl(2|3) was there and raised a bare TypeError
    before; now it is refused at construction, as are the other helpers'
    non-int parameters."""
    lookup.cache_clear()
    for _ in range(2):  # cold, then with sl(2|3) and D(2,1;2/3) cached
        for make in (lambda: catalog.sl2m(3.0), lambda: catalog.spo2m(5.0),
                     lambda: catalog.osp4m(6.0), lambda: catalog.d21a(2.0, 3),
                     lambda: catalog.d21a(2, 3.0), lambda: catalog.d21a(Q(5, 2)),
                     lambda: catalog.d21a(2, Q(3)), lambda: catalog.d21a(True, 3)):
            with pytest.raises(ParameterOutOfRange, match=" must be an int, got "):
                make()
        assert lookup(catalog.sl2m(3)).id == catalog.sl2m(3)
        assert lookup(catalog.d21a(4, 6)).id == catalog.d21a(2, 3)


def test_algebra_ids_and_gaussian_rationals_are_not_tuples():
    """Neither equals the tuple of its fields, iterates, or orders; an
    `AlgebraId` still hashes as that tuple (the value its cache keys had)."""
    g, z = catalog.d21a(2, 3), GR(Q(1, 2), 3)
    assert g != ("D21a", 0, 2, 3) and hash(g) == hash(("D21a", 0, 2, 3))
    assert z != (Q(1, 2), 3) and z == GR(Q(1, 2), 3) and GR(2) == 2
    for x in (g, z):
        with pytest.raises(TypeError):
            iter(x)
        with pytest.raises(TypeError):
            x < x  # noqa: B015


def test_one_dataclass_is_left():
    """No `@dataclass` in the package but `UnitarityVerdict`'s, whose comment
    names the reason: the benchmark's tests corrupt a verdict with
    `dataclasses.replace` (bench/test_bench.py:130)."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        text = path.read_text()
        for node in ast.walk(ast.parse(text)):
            if not isinstance(node, ast.ClassDef):
                continue
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else target.id
                if name == "dataclass":
                    above = text.splitlines()[dec.lineno - 3:dec.lineno - 1]
                    found.append((path.name, node.name, above))
    assert [(f, c) for f, c, _ in found] == [("unitarity.py", "UnitarityVerdict")]
    assert "bench/test_bench.py:130" in " ".join(found[0][2])
