"""The error contract, fuzzed: every public call refuses with a `WminError`
(apart from `parse_rational`'s documented bare `ValueError`) and returns
series with int coefficients only, and the `wmin` command line exits 0, 1
or 2 without a traceback.  The draws are derandomized, so the run is the
same every time, and every call is bounded: `ORBIT_CAP` and `P_PLUS_CAP`
are lowered, windows, depths and counts are small, and the adversarial
values (huge, tiny, float, str, bool, None) go only where they set no size
of the work, or where a cap refuses them before any work: a huge count of
unitary levels, past `RANGE_CAP`, and a huge index n or m, whose
`sign2_scan` window is past `SCAN_CAP`.  `scripts/fuzz_contract.py` runs the
same draws (`drawn_calls`, `argv`) as a long, seeded fuzz."""
import io
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from fractions import Fraction as Q

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

import wmin
from wmin import catalog, characters, gram_lab, weights
from wmin.characters import QWSeries
from wmin.cli import run
from wmin.errors import (IndexOutOfRange, IndexOutOfSet, InexactScalar, ParameterOutOfRange,
                         PreconditionViolated, WminError)
from wmin.rationals import GaussianRational as GR
from wmin.rationals import format_rational

FAMILIES = [catalog.psl22(), catalog.spo2m(3), catalog.spo2m(5), catalog.g3(), catalog.f4(),
            catalog.d21a(2), catalog.d21a(2, 3), catalog.sl2m(3), catalog.osp4m(4)]
NON_FRACTION = st.sampled_from([0.5, "1/2", True, None])  # a bool reads as an int
ODD = NON_FRACTION | st.sampled_from([Q(10 ** 30), Q(-1, 10 ** 30)])
SMALL = st.fractions(min_value=-1, max_value=2, max_denominator=4)
# the argument an example spoils, if any, and what it puts there: the huge
# and tiny rationals only where they set no size of the work
SPOILS = {"k": ODD, "nu": ODD, "l0": ODD, "x": ODD, "window": NON_FRACTION,
          "depth": NON_FRACTION, "n": st.sampled_from([2.0, "3", None, -1, 10 ** 9, True]),
          "m": st.sampled_from([10 ** 9, 2.0, None, True, False]),
          "count": st.sampled_from([10 ** 9, 2.0, None, True])}
S_IM = GR.imag(Q(1, 2))
# every public int argument, by name: (function, valid arguments, the
# argument's position); True equals 1 and hashes as 1, so each is tested by
# its class, not by isinstance.  REFUSALS holds the class and text (formatted
# with the value given) of a refusal other than the gram entry points'
INT_ARGUMENTS = {
    "virasoro_check.n": (gram_lab.virasoro_check, (S_IM, Q(2), 1, -1, 4), 2),
    "virasoro_check.m": (gram_lab.virasoro_check, (S_IM, Q(2), 1, -1, 4), 3),
    "virasoro_check.e_max": (gram_lab.virasoro_check, (S_IM, Q(2), 1, -1, 4), 4),
    "adjointness_check.n": (gram_lab.adjointness_check, (S_IM, Q(2), 1, 4, "L"), 2),
    "adjointness_check.e_max": (gram_lab.adjointness_check, (S_IM, Q(2), 1, 4, "a"), 3),
    "states_at_energy.e": (gram_lab.states_at_energy, (1,), 0),
    "states_up_to.e_max": (gram_lab.states_up_to, (1,), 0),
    "heisenberg_matrix.n": (gram_lab.heisenberg_matrix, (1, Q(2), 2), 0),
    "heisenberg_matrix.e_max": (gram_lab.heisenberg_matrix, (1, Q(2), 2), 2),
    "fairlie_matrix.n": (gram_lab.fairlie_matrix, (S_IM, Q(2), 1, 2), 2),
    "fairlie_matrix.e_max": (gram_lab.fairlie_matrix, (S_IM, Q(2), 1, 2), 3),
    "exp_factorization_check.n_max": (gram_lab.exp_factorization_check, (S_IM, 1, 2), 1),
    "exp_factorization_check.m_max": (gram_lab.exp_factorization_check, (S_IM, 2, 1), 2),
    "n4_closed_form.M1": (wmin.n4_closed_form, (1, 1, 1, 1), 0),
    "n4_closed_form.r": (wmin.n4_closed_form, (2, 1, 1, 1), 1),
    "enumerate_unitary_k.count": (wmin.enumerate_unitary_k, (catalog.psl22(), 1), 1),
    "AlgebraId.m": (catalog.AlgebraId, ("spo2m", 3), 1),
    "AlgebraId.a_num": (catalog.AlgebraId, ("D21a", 0, 1, 2), 2),
    "AlgebraId.a_den": (catalog.AlgebraId, ("D21a", 0, 2, 1), 3),
}
REFUSALS = {"n4_closed_form.M1": (IndexOutOfRange, "M1 must be a positive integer"),
            "n4_closed_form.r": (IndexOutOfRange, "need 0 <= r <= M1"),
            "enumerate_unitary_k.count": (PreconditionViolated, "count must be an int, got {!r}"),
            "AlgebraId": (ParameterOutOfRange, "{name} must be an int, got {!r}")}


def int_refusal(arg: str):
    """(class, text format) of the refusal of a value that is no int as
    `INT_ARGUMENTS[arg]`: `IndexOutOfRange` with the argument's name for
    the gram entry points."""
    fn, _, name = arg.partition(".")
    cls, text = REFUSALS.get(arg) or REFUSALS.get(fn) or (IndexOutOfRange,
                                                          "{name} must be an int, got {!r}")
    return cls, text.replace("{name}", name)


def with_int_argument(arg: str, x):
    """`INT_ARGUMENTS[arg]`'s call, (function, args), with x in its position."""
    fn, args, pos = INT_ARGUMENTS[arg]
    return fn, args[:pos] + (x,) + args[pos + 1:]


# no shrinking: a failure is reported as drawn, at once
SETTINGS = settings(max_examples=80, derandomize=True, database=None, deadline=None,
                    phases=(Phase.explicit, Phase.generate))


@st.composite
def weight(draw, g, k):
    """A weight of P^+_k at level k, when there is one, or a vector of n or
    n +- 1 small rational coordinates."""
    n = catalog.lookup(g).n
    if draw(st.integers(0, 3)):
        try:
            plus = weights.enumerate_P_plus_k(g, k)
        except WminError:
            plus = []
        if plus:
            return draw(st.sampled_from(plus[:12]))
    size = draw(st.sampled_from([n, n, n - 1, n + 1]))
    return catalog.Vec(draw(st.lists(SMALL, min_size=size, max_size=size)))


def _base(g, k, nu):
    """A(k, nu) where it is defined, so that windows are drawn around it."""
    try:
        return wmin.A_bound(g, k, nu)
    except WminError:
        return Q(0)


def _plus(base, offset):
    """base + offset, or offset when either is no `Fraction`."""
    return base + offset if isinstance(offset, Q) and isinstance(base, Q) else offset


def read_series(g, k, nu, l0, q_max, depth):
    """The massive character read back with nu as drawn, a `Vec` or a
    plain list: rebuilt from its records around nu (`series_from_records`),
    its coefficient at (l0, nu) (`QWSeries.coeff`), and cut to its window
    around its own reference and around nu (`QWSeries.truncated`)."""
    s = wmin.character_massive(g, k, nu, l0, q_max, depth)
    s = wmin.series_from_records(catalog.lookup(g), s.records(), q_max, depth, nu)
    s.coeff(l0, nu)
    return s.truncated(q_max, depth).truncated(q_max, depth, nu)


@st.composite
def malformed_records(draw, g):
    """`series_from_records`'s arguments but the window, one of them spoiled:
    the entry given as an `AlgebraId`, a `CatalogEntry` or a label string,
    and a list of records of which one has a field missing or of the wrong
    kind (a q or weight entry no exact rational, a weight of the wrong length
    or no sequence, a coefficient no int), or is no dict; or records that
    are no list at all."""
    n = catalog.lookup(g).n
    entry = draw(st.sampled_from([g, catalog.lookup(g), g.label()]))
    good = {"q": "0", "weight": ["0"] * n, "coeff": 1}
    field = draw(st.sampled_from(["q", "weight", "coeff", "missing", "record", None]))
    bad = dict(good)
    if field == "q":
        bad["q"] = draw(st.sampled_from(["x", "1/0", "0.5", 0.5, None, [], Q(1, 2)]))
    elif field == "weight":
        bad["weight"] = draw(st.sampled_from([["0"] * (n - 1), ["0"] * (n + 1), ["x"] * n,
                                              [0.5] * n, "0" * n, 0, None]))
    elif field == "coeff":
        bad["coeff"] = draw(st.sampled_from(["3", 2.5, None, True, Q(2)]))
    elif field == "missing":
        del bad[draw(st.sampled_from(sorted(good)))]
    elif field == "record":
        bad = draw(st.sampled_from([None, ["0", ["0"] * n, 1], "q", 1]))
    recs = draw(st.sampled_from([[good, bad], [bad], None, "records", bad]))
    return entry, recs


def wrong_weight(n):
    """A weight no series reader may read as one of n coordinates: one of
    the wrong length, or no sequence, or no sequence of rationals."""
    return st.sampled_from([[0] * (n - 1), [0] * (n + 1), (), None, 0, "0" * n, [0.5] * n])


def read_wrong_weight(reader, g, w):
    """The series reader `reader` (`QWSeries.coeff`, `QWSeries.truncated`,
    `characters.depth_of` on either side, `QWSeries.add_term`, the
    `QWSeries` constructor's reference weight) given the weight w, on a
    series of g's."""
    entry = catalog.lookup(g)
    s = QWSeries(entry, 1, 1)
    return {"coeff": lambda: s.coeff(0, w), "truncated": lambda: s.truncated(1, 1, w),
            "depth_of": lambda: characters.depth_of(entry, entry.xi, w),
            "depth_of_ref": lambda: characters.depth_of(entry, w, entry.xi),
            "add_term": lambda: s.add_term(0, w, 1),
            "QWSeries": lambda: QWSeries(entry, 1, 1, w)}[reader]()


READERS = ("coeff", "truncated", "depth_of", "depth_of_ref", "add_term", "QWSeries")


def _calls(g, k, nu, l0, q_max, window, depth, x, n, m, count, gamma):
    """Every public call the test makes at one level, as (function, args):
    l0 drawn around A(k, nu) and q_max around l0, window the small q_max -
    l0, also the q_max of the calls that read no A, x a rational or an odd
    value, n and m small ints, a huge one or odd values (h_odd reads m +
    1/2 for an int m), count a small int, a huge one or an odd value, gamma a weight
    of Delta' or nu, as a `Vec`, a tuple or a list; the series readers
    (`read_series`, `characters.depth_of`) take nu and gamma as drawn."""
    return [(wmin.decide, (g, k, nu, l0)),
            (wmin.character_massive, (g, k, nu, l0, q_max, depth)),
            (read_series, (g, k, nu, l0, q_max, depth)),
            (characters.depth_of, (catalog.lookup(g), nu, gamma)),
            (wmin.character_massless, (g, k, nu, q_max, depth)),
            (wmin.weyl_orbit, (g, k, nu, x, q_max)),
            (wmin.ell_of_h, (g, k, nu, x)),
            (wmin.h_pair, (g, k, nu, l0)),
            (wmin.h_even, (g, k, nu, n, m)),
            (wmin.h_odd, (g, k, nu, m + Q(1, 2) if m.__class__ is int else m, gamma)),
            (wmin.sign2_scan, (g, k, nu, n, m)),
            (wmin.verma_character, (g, nu, x, window, depth)),
            (wmin.fns_series, (g, window, depth)),
            (wmin.enumerate_unitary_k, (g, count)),
            (wmin.n4_closed_form, (n, m, window, depth))] + [
        (getattr(wmin, name), (g, k, nu)) for name in (
            "A_bound", "A_explicit", "B_bound", "in_P_plus_k", "is_extremal")] + [
        (getattr(wmin, name), (g, k)) for name in (
            "enumerate_P_plus_k", "level_data", "unitarity_range_contains", "central_charge",
            "central_charge_alt")]


@contextmanager
def bounded():
    """`ORBIT_CAP` and `P_PLUS_CAP` lowered, so that every drawn call is
    bounded."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(characters, "ORBIT_CAP", 400)
        mp.setattr(weights, "P_PLUS_CAP", 300)
        yield


def drawn_calls(data) -> list:
    """One example's public calls, (function, args) in the order they are
    made: a family, two levels and a weight, with the arguments of
    `_calls` drawn around A(k, nu) at each level; an example may spoil
    one argument.  Then one call of `INT_ARGUMENTS` with a bool, a float
    or the valid int in its int position, `series_from_records` on
    malformed records and every series reader on a wrong weight.  Draw it
    inside `bounded`, as the weights are enumerated under its cap."""
    g = data.draw(st.sampled_from(FAMILIES))
    unitary = wmin.enumerate_unitary_k(g, 4)
    ks = data.draw(st.lists(st.sampled_from(unitary) if unitary else SMALL.map(lambda x: x - 3),
                            min_size=2, max_size=2))
    spoil = data.draw(st.sampled_from([None, None] + sorted(SPOILS)))
    odd = data.draw(SPOILS[spoil]) if spoil else None
    nu = data.draw(weight(g, ks[0]))
    if spoil == "nu":
        nu = nu + catalog.Vec([odd] * len(nu)) if isinstance(odd, Q) else [odd] + list(nu)[1:]
    elif data.draw(st.booleans()):
        nu = list(nu)
    if spoil == "k":
        ks[1] = odd
    drawn = {"l0": data.draw(st.fractions(-Q(1, 2), 1, max_denominator=4)),  # l0 - A
             "window": data.draw(st.fractions(-Q(1, 2), 2, max_denominator=4)),  # q_max - l0
             "depth": data.draw(st.fractions(-Q(1, 2), 3, max_denominator=3)),
             "x": data.draw(SMALL), "n": data.draw(st.integers(-2, 5)),
             "count": data.draw(st.integers(-2, 5)),
             "m": data.draw(st.integers(-2, 5))}
    if spoil not in (None, "k", "nu"):
        drawn[spoil] = odd
    gamma = data.draw(st.sampled_from(
        [w for w, _ in catalog.lookup(g).delta_prime][:2] + [nu]))
    form = data.draw(st.sampled_from([None, tuple, list]))  # None: gamma as drawn
    gamma = form(gamma) if form else gamma
    out = []
    for k in ks:
        l0 = _plus(_base(g, k, nu), drawn["l0"])
        out += _calls(g, k, nu, l0, _plus(l0, drawn["window"]), drawn["window"],
                      drawn["depth"], drawn["x"], drawn["n"], drawn["m"], drawn["count"], gamma)
    arg = data.draw(st.sampled_from(sorted(INT_ARGUMENTS)))
    valid = INT_ARGUMENTS[arg][1][INT_ARGUMENTS[arg][2]]
    out.append(with_int_argument(arg, data.draw(st.sampled_from([True, False, float(valid),
                                                                   valid]))))
    entry, recs = data.draw(malformed_records(g))
    out.append((wmin.series_from_records, (entry, recs, 2, 2)))
    w = data.draw(wrong_weight(catalog.lookup(g).n))
    out += [(read_wrong_weight, (reader, g, w)) for reader in READERS]
    return out


def int_coefficients(out) -> bool:
    """A returned series holds int coefficients only; any other value passes."""
    return not isinstance(out, QWSeries) or all(
        c.__class__ is int for lvl in out.terms.values() for c in lvl.values())


PARSER_INPUTS = ["3", "-9/4", " 1/2 ", "", "1/0", "0x10", "0.5", "x", "--1"]


@SETTINGS
@given(st.data())
def test_public_calls_keep_the_error_contract(data):
    """Each of 24 public functions and the series readers, called over
    nine families with the weight given as a `Vec` or a plain list, gamma
    as a `Vec`, a tuple or a list, and windows drawn around
    A(k, nu), returns or raises a `WminError`; a returned series holds int
    coefficients.  An example may spoil one argument with a value that is
    no rational, or a huge or tiny one.  Each draw is called at two levels
    at one weight, so that a second character request may read an orbit
    sum cached at the first level (`characters._orbit_sum`).
    `parse_rational` refuses with its documented `ValueError` only."""
    with bounded():
        for fn, args in drawn_calls(data):
            try:
                out = fn(*args)
            except WminError:
                continue
            assert int_coefficients(out), (fn.__name__, args)
    try:
        wmin.parse_rational(data.draw(st.sampled_from(PARSER_INPUTS)))
    except ValueError:  # the parser's documented refusal
        pass


@pytest.mark.parametrize("bad", [True, False, float], ids=["True", "False", "float"])
@pytest.mark.parametrize("arg", sorted(INT_ARGUMENTS))
def test_every_public_int_argument_refuses_a_bool_and_a_float(arg, bad):
    """A bool, or a float equal to the valid int, in any public int
    argument is refused with the argument's own class and text; the valid
    call answers."""
    fn, args, pos = INT_ARGUMENTS[arg]
    fn(*args)
    x = float(args[pos]) if bad is float else bad
    cls, text = int_refusal(arg)
    with pytest.raises(cls) as err:
        fn(*with_int_argument(arg, x)[1])
    assert type(err.value) is cls and str(err.value) == text.format(x)


def test_huge_indices_keep_the_error_contract():
    """Every call of `_calls` with a huge index n or m, on every family at
    its first unitary level: the calls that read an index as a size
    (`sign2_scan`'s window, past `SCAN_CAP`) refuse before any work, the
    others answer or refuse, as the drawn examples that spoil n or m do."""
    with bounded():
        for g in FAMILIES:
            k = (wmin.enumerate_unitary_k(g, 1) or [Q(-3)])[0]
            nu = catalog.Vec([0] * catalog.lookup(g).n)
            l0 = _base(g, k, nu)
            for n, m in [(10 ** 9, 2), (2, 10 ** 9), (10 ** 9, 10 ** 9), (10 ** 9, 0)]:
                for fn, args in _calls(g, k, nu, l0, l0 + 1, Q(1), Q(2), Q(1, 2), n, m, 2, nu):
                    try:
                        out = fn(*args)
                    except WminError:
                        continue
                    assert int_coefficients(out), (fn.__name__, args)


def test_plain_sequences_read_as_the_weights_they_spell():
    """A weight given as a plain sequence reads as the `Vec` it spells: a
    character's reference weight is held as a `Vec`, not as the caller's
    list, so cutting, reading and rebuilding the series, and `depth_of`,
    answer as for a `Vec`, and h_odd takes gamma as a `Vec`, a tuple or a
    list; a float coordinate raises `InexactScalar`, and a gamma that is no
    weight of Delta' `IndexOutOfSet`."""
    g, k = catalog.psl22(), Q(-3)
    entry, nu, zero = catalog.lookup(g), [0, 0, 0, 0], catalog.zero_vec(4)
    for build in (lambda w: wmin.character_massive(g, k, w, 1, 3, 4),
                  lambda w: wmin.character_massless(g, k, w, 3, 4),
                  lambda w: wmin.verma_character(g, w, 0, 3, 4)):
        s, want = build(nu), build(zero)
        assert s.ref == zero and s.ref.__class__ is catalog.Vec and s.ref is not nu
        assert s.truncated(2, 3) == want.truncated(2, 3)
        assert s.truncated(2, 3).records() == want.truncated(2, 3).records()
        assert s.truncated(2, 3, nu).records() == want.truncated(2, 3).records()
        assert wmin.series_from_records(entry, want.records(), 3, 4, ref=nu) \
            .truncated(2, 3).records() == want.truncated(2, 3).records()
    s = wmin.character_massive(g, k, nu, 1, 3, 4)
    assert s.coeff(1, nu) == s.coeff(1, zero) == s.coeff(1, tuple(nu)) == 1
    w = [Q(1, 2), 0, Q(1, 2), 0]
    assert characters.depth_of(entry, nu, w) == characters.depth_of(entry, zero, catalog.Vec(w))
    for spoiled in (lambda: s.coeff(1, [0.0, 0, 0, 0]), lambda: s.truncated(2, 3, [0.5, 0, 0, 0]),
                    lambda: characters.depth_of(entry, [0.5, 0, 0, 0], nu),
                    lambda: wmin.series_from_records(entry, [], 3, 4, ref=[0.5, 0, 0, 0])):
        with pytest.raises(InexactScalar):
            spoiled()
    g3, k3 = catalog.g3(), Q(-3, 2)
    want = wmin.h_odd(g3, k3, catalog.zero_vec(3), Q(1, 2), catalog.zero_vec(3))
    for gamma in ([0, 0, 0], (0, 0, 0), catalog.Vec([0, 0, 0])):
        assert wmin.h_odd(g3, k3, catalog.zero_vec(3), Q(1, 2), gamma) == want
    with pytest.raises(InexactScalar):
        wmin.h_odd(g3, k3, catalog.zero_vec(3), Q(1, 2), [0.5, 0, 0])
    for gamma in ([1, 1, 1], [0, 0], None, 5):
        with pytest.raises(IndexOutOfSet, match="odd half-space"):
            wmin.h_odd(g3, k3, catalog.zero_vec(3), Q(1, 2), gamma)


def test_series_readers_refuse_malformed_input_in_the_contract():
    """`series_from_records` routes every field of a record through the
    contract's classes, and takes the family as an `AlgebraId` or as its
    entry; `QWSeries.coeff` refuses a weight of the wrong length, as
    `truncated` and `depth_of` do, where it used to answer 0; and the
    `QWSeries` constructor refuses a reference weight of the wrong length
    or one that is no sequence, where it raised a bare `TypeError` or held
    it."""
    g = catalog.psl22()
    entry, zero = catalog.lookup(g), ["0"] * 4
    s = wmin.character_massive(g, -3, catalog.zero_vec(4), 1, 3, 4)
    assert wmin.series_from_records(g, s.records(), 3, 4) == s
    assert wmin.series_from_records(entry, iter(s.records()), 3, 4) == s
    for w in ([0, 0], [0] * 5):
        with pytest.raises(ParameterOutOfRange, match="^psl22 weights have 4 coordinates$"):
            s.coeff(1, w)
    for w in (None, 0):
        with pytest.raises(PreconditionViolated, match="a weight is a sequence of rationals"):
            s.coeff(1, w)
    cases = [({"q": "x", "weight": zero, "coeff": 1}, InexactScalar,
              r"^not an exact rational: 'x' \(use p or p/q\)$"),
             ({"q": "0", "weight": ["1/0"] + zero[1:], "coeff": 1}, InexactScalar,
              r"^zero denominator in '1/0'$"),
             ({"q": "0", "weight": zero}, PreconditionViolated, "keys q, weight and coeff"),
             ({"weight": zero, "coeff": 1}, PreconditionViolated, "keys q, weight and coeff"),
             (["0", zero, 1], PreconditionViolated, "keys q, weight and coeff"),
             ({"q": "0", "weight": 0, "coeff": 1}, PreconditionViolated, "sequence of rationals"),
             ({"q": "0", "weight": "0000", "coeff": 1}, PreconditionViolated,
              "sequence of rationals"),
             ({"q": "0", "weight": zero[1:], "coeff": 1}, ParameterOutOfRange, "4 coordinates")]
    for rec, cls, text in cases:
        with pytest.raises(cls, match=text):
            wmin.series_from_records(entry, [rec], 3, 4)
    for bad_entry, recs in (("psl22", []), (None, []), (entry, None), (entry, "records")):
        with pytest.raises(PreconditionViolated):
            wmin.series_from_records(bad_entry, recs, 3, 4)
    with pytest.raises(ParameterOutOfRange, match="4 coordinates"):
        wmin.series_from_records(entry, [], 3, 4, ref=[0, 0])
    with pytest.raises(PreconditionViolated, match="sequence of rationals"):
        wmin.series_from_records(entry, [], 3, 4, ref=0)
    # the constructor checks ref before it reads q_max (a float q_max would
    # raise InexactScalar), for itself and for `series_from_records`
    for ref, cls in (([0, 0], ParameterOutOfRange), (0, PreconditionViolated)):
        for make in (lambda: QWSeries(entry, 3, 4, ref), lambda: QWSeries(entry, 0.5, 4, ref),
                     lambda: wmin.series_from_records(entry, [], 0.5, 4, ref)):
            with pytest.raises(cls, match="4 coordinates|a weight is a sequence of rationals"):
                make()


WINDOW_TOKENS = ["0", "1/2", "1", "3/2", "2", "-1", "x", "1/0"]
NOISE = {  # flags with small values and junk, added to a command line
    "--k": ["0", "-1", "1/2", "", "x", "1/0", "0.5", "1000000000000000000000000000000"],
    "--M1": ["1", "2", "1/2", "x"], "--m": ["3", "4", "2", "x"], "--a": ["1", "0", "x"],
    "--nu-r": ["0", "1", "1/2", "x"], "--nu-r2": ["1", "x"], "--nu-coords": ["0,0,0,0", "x"],
    "--l0": ["1", "-1", "x"], "--qmax": WINDOW_TOKENS, "--depth": WINDOW_TOKENS,
    "--count": ["3", "x", "1000000000"], "--emax": ["1", "x"], "--massless": [], "--massive": [],
    "--bogus": [],
}


@st.composite
def argv(draw):
    """A `wmin` command line: mostly a well-formed one, a subcommand with
    its family, a unitary level, weight labels and a small window, then up
    to two flags of junk or small values."""
    cmd = draw(st.sampled_from(["info", "levels", "range", "check", "scan-sign2", "char", "char",
                                "gram", "nope"]))
    out = ["--format", draw(st.sampled_from(["json", "table"])), cmd]
    if cmd == "gram":
        out += ["--emax", draw(st.sampled_from(["1", "2", "0", "x"]))]
    elif cmd != "nope":
        g = draw(st.sampled_from(FAMILIES))
        out += ["--g", g.family] + (["--m", str(g.m)] if g.m else []) + (
            ["--a", f"{g.a_num}/{g.a_den}"] if g.family == "D21a" else [])
        ks = [format_rational(k) for k in wmin.enumerate_unitary_k(g, 4)] or ["-1"]
        if cmd in ("levels", "check", "scan-sign2", "char"):
            out += ["--k", draw(st.sampled_from(ks))]
        if cmd in ("check", "scan-sign2", "char"):
            out += ["--nu-labels", draw(st.sampled_from(["0", "1", "2", "1,1", "0,1", "1,0,1"]))]
        out += {"range": ["--count", draw(st.sampled_from(["0", "3", "-1", "1000000000"]))],
                "check": ["--l0", draw(st.sampled_from(["0", "1/2", "1", "2", "7/2"]))],
                "scan-sign2": ["--nmax", draw(st.sampled_from(["0", "2", "x", "100000"])),
                               "--mmax", draw(st.sampled_from(["0", "2", "100000"]))],
                "char": ["--qmax", draw(st.sampled_from(WINDOW_TOKENS)),
                         "--depth", draw(st.sampled_from(WINDOW_TOKENS))]}.get(cmd, [])
    for flag in draw(st.lists(st.sampled_from(sorted(NOISE)), max_size=2, unique=True)):
        out += [flag] + ([draw(st.sampled_from(NOISE[flag]))] if NOISE[flag] else [])
    return out


@SETTINGS
@given(argv())
def test_the_command_line_exits_0_1_or_2(args):
    """Every drawn command line returns exit code 0, 1 (a refusal) or 2 (a
    usage error) from `cli.run`, and raises nothing out of it, so no
    traceback reaches the user."""
    err = io.StringIO()
    with bounded(), redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = run(args)
    assert code in (0, 1, 2), args
    assert "Traceback" not in err.getvalue(), args
