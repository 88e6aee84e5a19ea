"""Truncated q-series characters.

A QWSeries is a finite sum of integer multiples of q^e * exp(w) with exact
rational exponents e and weight vectors w in the coordinate basis of the
algebra.  Truncation keeps e <= q_max and keeps weights within a depth window
measured from a reference weight: the depth of w is the coefficient sum of
(ref - w) expanded on the simple roots of g^nat (projection thereon; any
component orthogonal to the root span does not count).  A QWSeries is the
published value of a character: it is read and cut, never added to.

The character sums run over the affine Weyl group generated by the
reflections in the simple roots of g^nat and in eta_i = delta - theta_i,
acting on nu_hat_h + rho_hat.  `_orbit` enumerates it breadth-first, pruned
exactly at the q_shift window (its docstring argues that nothing is missed),
with a hard cap of ORBIT_CAP elements, read at call time, that raises
TruncationIncomplete when hit.  Both characters are one l0-free
`_orbit_sum`, which reads l0 only through the window q_max - l0 and k only
through the pairings <lam0, eta_i^vee> of the walk's start (its docstring
argues this), placed at the exponents l0 + j/2 by the final step
`_placed`; `_orbit_sum` is itself the bounded cache of the sums, keyed
by the ints of nu, the start with its eta pairings capped at floor(T/2) + 1
when none is negative, so that levels at which no eta step fits the window
share one sum, and the kernel window, and asked after every precondition
check.

Both the kernel and the orbit read one per-algebra frame of h^nat,
`CatalogEntry.lattice` (`catalog._Lattice`, built once per catalog entry):
the restriction to h^nat, the depth covector, the int lattice of the kernel
keys and the int affine Cartan matrix.  A weight has one int coordinate
system from the orbit walk to the merge, its key (`_Lattice.key`): its
depth entry, then its coordinates scaled by the frame's common denominator
D.  The orbit walk runs on int coordinates from the request on: its start
(`_start`) is read once per request off nu's int pairings and the level
record's int pairs, each point is its tuple of pairings with the affine
simple coroots, its drop of x+d and the key of how far its restriction
has moved, and a reflection is one int row of the frame (`_Lattice.rows`: the
Cartan matrix row, the x+d pairing and the key of the root), skipped
where it fixes the point.  The NS
denominator is built by an integer kernel (`_LatticeSeries`): q is stored
as the int 2q, each level as depth buckets {int depth: {packed key:
coefficient}}, a key's coordinates packed into one int (`_Lattice.pack`:
linear, and one-to-one inside a bound the kernel proves and checks).  Every
factor is applied to the running series in place inside a sloped window
whose exactness argument is in the `_LatticeSeries` docstring, its cap test
once per bucket.  A request is snapped once to the flat ints of its
kernel window (T, C) (`_Lattice.window`), from the ints of q_max, l0 and
depth, and only they pass below: a series depends on nothing else
(`_window`).  A finished series is held in a read form: each level's
sorted depths, the running count of its terms up to each depth, and its
packed keys and coefficients flattened in increasing depth, of which a
reader takes the prefix under its cap.
Every factor (1 - sign q^c exp(w))^(-1), the denominator's own, the
isotropic corrections of the massless sum and the fermionic factors of
the N=4 closed form, is expanded by that kernel's one `divide`, c given
by the int 2c and w by its key.  A massless orbit element's piece, the denominator
divided by the factor of its image of the isotropic simple roots, depends
on the Weyl element and the denominator's window only: it is cached beside
the denominator, keyed by that image's ints (`OrbitElement.image`), and
every element and request with that key reads the prefix it needs of it.
That bounded store (`_fns_cached`) has one rule: a call is answered from a
held series of its (family, image) whose caps contain the asked kernel
window (T, C), T < len(caps) and C <= caps[T], read in place, and built
only when there is none; its docstring argues that every reader keeps
the same terms and refuses the same windows as a build of its own.

Every character is one `_sum_pieces` and one `_placed`: the orbit sum,
`verma_character` (`fns_series` is its nu = 0, ell = 0 case) and
`n4_closed_form` each give one base weight, one window q_max - ell, a list
of heads +-q^shift exp(base + key/D), shift an int (the orbit's q_shift,
the closed form's b_m, 0 for a Verma character), and kernel pieces.  The
piece terms that pass the cuts, int caps read off the request's kernel
window (T, C), are summed over ints: the index 2 shift + t of a level t
term, and packed keys at the kernel's scale.
`_publish` then walks the sums once, in increasing index: each nonzero
sum is unpacked to its weight's int coordinates over one denominator, the
base added there, and given the one `Vec` a module table holds for them,
built with its `Fraction`s the first time the process publishes that
weight; the table is emptied when it reaches WEIGHT_CAP weights, read at
call time.  Those levels {index j: {weight: coefficient}} do not read
ell; the final step `_placed` gives level j the exponent ell + j/2, one
`Fraction` per level, in a fresh dict.  `Fraction`s appear only at that
boundary and in `records()`/`coeff()`, which read the published series:
no orbit element and no head becomes a `Fraction`, and a request answered
from the orbit-sum cache builds no other `Fraction` than those exponents
and, when massless, A (its preconditions, start and window read ints).
Sums are sequential and deterministic; the merge is commutative exact addition, so a parallel
evaluation would have to reproduce these coefficients bit for bit.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache, update_wrapper
from heapq import heappop, heappush
from itertools import repeat
from operator import mul
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from .catalog import AlgebraId, CatalogEntry, Vec, _Lattice, _NuScalars, _vec, lookup, zero_vec
from .errors import (IndexOutOfRange, InexactScalar, NonDominant, PreconditionViolated,
                     TruncationIncomplete, UnsupportedD21a)
from .rationals import as_rational, format_rational, parse_rational, solve_quadratic_rational
from .levels import _Level, _record
from .weights import _ell_ints, _excess, _is_extremal, _P_plus_data, _threshold

Q = Fraction


# ---------------------------------------------------------------------------
# depth functional


def _as_vec(w: Sequence) -> Vec:
    """w as a `Vec`: w itself when it is one (a class check, so a `Vec`
    costs nothing more), else converted (`Vec`, whose coercion refuses a
    float with `InexactScalar`), so that a plain sequence reads as the
    weight it spells and is never held aliased."""
    return w if w.__class__ is Vec else Vec(w)


def depth_of(entry: CatalogEntry, ref: Sequence, w: Sequence) -> Fraction:
    """Depth of w relative to ref: the depth covector of the entry's frame
    dotted with ref - w.  Either weight may be any sequence of rationals
    (`_as_vec`).  Raises `ParameterOutOfRange` when either weight has the
    wrong length."""
    entry._check_length(ref)
    entry._check_length(w)
    return sum(map(mul, entry.lattice.depth_cov, _as_vec(ref) - _as_vec(w)), Q(0))


# ---------------------------------------------------------------------------
# the published series


class QWSeries:
    """Finite q-series with weight-vector coefficients, truncated at q_max and
    at a depth window around `ref`: the published form of every character,
    keyed by `Fraction` exponents and `Vec` weights.

    Every character is computed on the int kernel (`_LatticeSeries`) and
    converted at this boundary: `_sum_pieces`, the one series sum, adds the
    kernel terms that pass this series' cuts over int keys and gives a `Vec`
    key only to each nonzero sum.  The result is only read and cut
    (`truncated`); `add_term` places one term, for `series_from_records`.
    The reference weight and every weight a method takes may be any
    sequence of rationals: each is held or looked up as a `Vec`
    (`_as_vec`).  A reference weight of the wrong length, or one that is
    no sequence, is refused when the series is made, before q_max and
    depth are read (`CatalogEntry._check_length`).
    """

    __slots__ = ("entry", "q_max", "depth", "ref", "terms")

    def __init__(self, entry: CatalogEntry, q_max, depth, ref: Optional[Vec] = None):
        if ref is not None:
            entry._check_length(ref)
        self.entry = entry
        self.q_max = as_rational(q_max)
        self.depth = as_rational(depth)
        self.ref = zero_vec(entry.n) if ref is None else _as_vec(ref)
        self.terms: Dict[Fraction, Dict[Vec, int]] = {}

    # -- basic structure ----------------------------------------------------
    def add_term(self, q, w: Vec, c: int) -> None:
        """Add c q^q exp(w) if it lies in the window; c is an int (a float
        raises `InexactScalar`, any other class `PreconditionViolated`)."""
        if c.__class__ is not int:
            if isinstance(c, float):
                raise InexactScalar(f"not an exact rational: coefficient {c!r} (use an int)")
            raise PreconditionViolated(f"coefficient {c!r} is not an int")
        self.entry._check_length(w)
        q, w = as_rational(q), _as_vec(w)
        if not (c and q <= self.q_max and depth_of(self.entry, self.ref, w) <= self.depth):
            return
        lvl = self.terms.setdefault(q, {})
        nc = lvl.get(w, 0) + c
        if nc:
            lvl[w] = nc
        else:
            del lvl[w]
            if not lvl:
                del self.terms[q]

    def coeff(self, q, w: Vec) -> int:
        """The coefficient of q^q exp(w), 0 when the series holds no such
        term.  Raises `ParameterOutOfRange` on a weight of the wrong length,
        as `truncated` and `depth_of` do: no weight of another length is
        absent from the series, it is no weight of the family."""
        self.entry._check_length(w)
        return self.terms.get(as_rational(q), {}).get(_as_vec(w), 0)

    def n_terms(self) -> int:
        return sum(len(l) for l in self.terms.values())

    def truncated(self, q_max, depth, ref: Optional[Vec] = None) -> "QWSeries":
        """This series cut to (q_max, depth) around ref (default self.ref):
        the stored terms inside that window, each kept or dropped whole.
        Depth is linear, so the window lies inside this series' exactly when
        q_max <= self.q_max and depth + depth_of(self.ref, ref) <= self.depth;
        any other window raises PreconditionViolated rather than return
        terms this series never kept."""
        if ref is None:
            ref = self.ref
        else:
            self.entry._check_length(ref)
            ref = _as_vec(ref)
        q_max, depth = as_rational(q_max), as_rational(depth)
        if q_max > self.q_max or depth + depth_of(self.entry, self.ref, ref) > self.depth:
            raise PreconditionViolated(f"window ({q_max}, {depth}) around ref is not inside "
                                       f"the series' ({self.q_max}, {self.depth})")
        out = QWSeries(self.entry, q_max, depth, ref)
        for q, lvl in self.terms.items():
            if q > out.q_max:
                continue
            kept = {w: c for w, c in lvl.items() if depth_of(self.entry, ref, w) <= out.depth}
            if kept:
                out.terms[q] = kept
        return out

    # -- inspection -----------------------------------------------------------
    def records(self) -> List[dict]:
        out = []
        for q in sorted(self.terms):
            for w in sorted(self.terms[q], key=tuple):
                out.append({"q": format_rational(q),
                            "weight": [format_rational(c) for c in w],
                            "coeff": self.terms[q][w]})
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, QWSeries):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        return f"QWSeries({self.n_terms()} terms, q_max={self.q_max}, depth={self.depth})"


_RECORD_KEYS = frozenset(("q", "weight", "coeff"))  # of a `records` dict


def series_from_records(entry: CatalogEntry | AlgebraId, recs: Sequence[dict], q_max, depth,
                        ref: Optional[Vec] = None) -> QWSeries:
    """The series of `records`-style dicts, whose q and weight entries are
    p/q strings (`parse_rational`) or ints and `Fraction`s, and whose
    coefficients are ints (`QWSeries.add_term`).  `entry` is a
    `CatalogEntry` or, as every other public call takes it, an `AlgebraId`
    (`lookup`).  Every field keeps the error contract: records that are no
    iterable, a record that is no dict with the keys q, weight and coeff,
    or a weight that is no sequence raise `PreconditionViolated`; a q or
    weight entry that is no exact rational (a string `parse_rational`
    refuses, a float) `InexactScalar`; a weight of the wrong length
    `ParameterOutOfRange`.  The reference weight `ref` is checked as a
    record's weight is, by the `QWSeries` constructor."""
    if isinstance(entry, AlgebraId):
        entry = lookup(entry)
    elif not isinstance(entry, CatalogEntry):
        raise PreconditionViolated(f"series_from_records takes a CatalogEntry or an "
                                   f"AlgebraId, not {entry!r}")
    if isinstance(recs, (str, bytes, dict)) or not hasattr(recs, "__iter__"):
        raise PreconditionViolated(f"records must be an iterable of dicts, not {recs!r}")
    s = QWSeries(entry, q_max, depth, ref)
    for r in recs:
        if not isinstance(r, dict) or not r.keys() >= _RECORD_KEYS:
            raise PreconditionViolated(f"a series record is a dict with the keys q, weight "
                                       f"and coeff, not {r!r}")
        w = r["weight"]
        if isinstance(w, str):
            raise PreconditionViolated(f"a record's weight is a sequence of rationals, not {w!r}")
        entry._check_length(w)
        s.add_term(_read_rational(r["q"]), Vec([_read_rational(c) for c in w]), r["coeff"])
    return s


def _read_rational(x) -> Fraction:
    """A record's q or weight entry: a p/q string (`parse_rational`, whose
    refusal is re-raised as `InexactScalar` with its text) or an int or a
    `Fraction` (`as_rational`)."""
    if not isinstance(x, str):
        return as_rational(x)
    try:
        return parse_rational(x)
    except ValueError as err:
        raise InexactScalar(str(err)) from None


# ---------------------------------------------------------------------------
# the int kernel


class _LatticeSeries:
    """A q-series over int lattice keys in the sloped window of the
    denominator kernel, changed in place one factor at a time while it is
    built, then held in a read form.

    Layout.  While a series is built, `levels[t]` holds the terms at q = t/2
    as depth buckets {depth: {packed key: coefficient}}: the depth is the
    int depth entry of the term's key (`_Lattice.key`, at the frame's
    scale), and the packed key is its coordinates packed into one int
    (`_Lattice.pack`).  `caps[t]` is the int depth cap of that level,
    floor(scale * (depth + s * (q_max - t/2))), so a term is kept exactly
    when `add_term` with headroom s would keep it.  It is built in the
    window (T/2, C/scale) of a kernel window (T, C) of ints
    (`_Lattice.window`), so caps[t] = C + floor(dip (T - t)/2) for t <= T,
    dip = s * scale an int (`_window`): a series depends on nothing else.
    A step by q^c exp(w) adds the depth entry and the packed key of w, one
    int `+` each (packing is linear), and its cap test runs once per bucket:
    a whole bucket is kept or skipped.  No bucket is left empty.

    Held form.  A finished series is read, never changed: `hold` gives each
    level its rows (depths, ends, terms) in place of its buckets: its
    distinct depth entries in increasing order, ends[0] = 0 and ends[i + 1]
    the number of its terms of depth at most depths[i], and the packed keys
    and coefficients of its terms flattened in that order, p_0, c_0, p_1,
    c_1, ....  The terms a reader keeps under a depth cap are then a prefix
    of the level, the first ends[bisect_right(depths, cap)] of them: the
    depths are sorted, so every later term lies above the cap too
    (`_sum_pieces`).  The rows are laid out by sorting each level's depths,
    not its terms, and hold two ints per term and two per depth, no object
    per term: a (depth, key, coefficient) tuple per term costs 64 bytes
    more a term, and a reader testing each term's depth pays that test
    on every term of a large window.  A series holds one of the two forms:
    `levels` while it is built, `rows` once it is held, the other None.
    `copy` cuts a held series into the bucket form of a new one, for the
    in-place divisions of the quotients and of `n4_closed_form`.

    Exactness.  The margin of a term t = (q, w) is
    m(t) = depth + s(q_max - q) - depth(w), and t is kept iff q <= q_max and
    m(t) >= 0.  A step by x = q^c exp(w_x) changes the margin by
    -(s c + depth(w_x)).  Every denominator factor has s c >= |depth(w_x)|
    when c > 0 (by the definition of s) and depth(w_x) > 0 when c = 0, so no
    step raises the margin: a term that is cut once stays cut, and every
    predecessor t - j x of a kept term is kept.  Hence the in-place steps
    below, which read only kept terms, give the exact sloped-window
    truncation of the full product (Kac, Infinite-dimensional Lie algebras,
    Lemma 3.11 / Prop. 3.12 give the orbit side of the same window).  Each
    step checks this margin condition for its factor and raises
    PreconditionViolated when it fails.

    Packing.  `pack` is one-to-one on the coordinates with every
    |x_i| < R/2, R the frame's radix, so it suffices that every stored term
    lies in that box.  Give a step by q^c exp(w) the cost 2c when c > 0 and
    its int depth entry d(w) >= 1 when c = 0, and let `rate` be an int with
    |x_i(w)| <= rate * cost for every step taken so far (the frame's `rate`
    for its NS factors, whose costs are >= 1; `_factor` raises it for any
    other factor).  A stored term is the sum of the steps of its history.
    Its steps with c > 0 cost 2q <= T in all.  Its steps with c = 0 cost
    its depth entry minus that of the others; each c > 0 step has
    d(w) >= -dip * c by the margin check, so they cost at most
    caps[2q] + dip * q = caps[0].  So every stored term has |x_i| <= B =
    rate * span, span = T + max(caps[0], 0) (a `copy` takes the span of
    the window it is cut to).  The constructor and every
    step raise PreconditionViolated, before changing anything, when
    2B >= R: a window past the bound is refused, never aliased.
    `_sum_pieces` checks the same bound with its heads added.

    Order.  Both arguments hold for each step on its own, whatever steps
    came before it, so the factors of a product may be applied in any order
    (`_fns_cached` picks decreasing c, the cheapest).
    """

    __slots__ = ("lat", "levels", "rows", "caps", "span", "rate")

    def __init__(self, lat: _Lattice, top: int, cap: int):
        self.lat, self.rate, self.rows = lat, 0, None
        self.caps, self.span = _window(lat, top, cap)
        self._admit(lat.rate)
        self.levels: Optional[List[Dict[int, Dict[int, int]]]] = [{} for _ in self.caps]
        if self.caps and self.caps[0] >= 0:
            self.levels[0][0] = {0: 1}

    def hold(self) -> "_LatticeSeries":
        """This series, its buckets replaced by its rows: the read form of a
        finished series, which no step changes any more.  Each level's
        buckets are dropped as soon as its rows are built, so the series
        never holds both forms of more than one level."""
        levels, self.levels = self.levels, None
        for t, lvl in enumerate(levels):
            levels[t] = _flat(lvl)
        self.rows = levels
        return self

    def _admit(self, rate: int) -> None:
        """Raise `rate` to let in steps of that rate, or raise
        PreconditionViolated, before anything changes, when the packing bound
        B = rate * span would reach R/2."""
        if rate > self.rate:
            if 2 * rate * self.span >= self.lat.radix:
                raise PreconditionViolated(
                    f"window of q and depth budget {self.span} at rate {rate} is past the "
                    f"packing bound of the denominator kernel (radix {self.lat.radix})")
            self.rate = rate

    def copy(self, caps: List[int], span: int) -> "_LatticeSeries":
        """A copy of this held series cut to a window its window contains (see
        `_fns_cached`), given by that window's caps and span (`_window`), or
        to a prefix caps[:top + 1] of them: levels 0..top, each term of
        depth d <= caps[t], read off this series' rows into depth buckets,
        under those caps and that span.  Those are the terms of a build in
        that window, whatever the larger window it came from.  Every step
        (`_push_up`, `divide`) writes a level only from itself and the
        levels below it, so the steps applied to this prefix give the prefix
        of the steps applied to the whole series."""
        out = object.__new__(_LatticeSeries)
        out.lat, out.caps, out.span, out.rate, out.rows = self.lat, caps, span, self.rate, None
        out.levels = [_bucketed(rows, cap) for rows, cap in zip(self.rows, caps)]
        return out

    def _margin(self, d: int, c2: int) -> None:
        """Raise unless a step with depth entry d and 2c = c2 >= 0 keeps the
        window margin: d > 0 when c = 0, dip * 2c + 2d >= 0 when c > 0."""
        if (d <= 0) if c2 == 0 else (self.lat.dip * c2 + 2 * d < 0):
            raise PreconditionViolated(
                f"factor q^{format_rational(Q(c2, 2))} exp(w) with depth(w) = "
                f"{format_rational(Q(d, self.lat.scale))} raises the window margin")

    def _factor(self, key: tuple, c2: int) -> Tuple[int, int]:
        """(depth entry, packed key) for a step by q^c exp(w), 2c = c2 >= 0,
        w of int key `key` (`_Lattice.key`), after checking that the step
        never raises the margin and that the series stays inside the packing
        bound."""
        self._margin(key[0], c2)
        self._admit(-(-max(map(abs, key[1:])) // (c2 or key[0])))  # ceil(|x| / cost)
        return key[0], self.lat.pack(key[1:])

    def _push_up(self, dk: int, fp: int, c2: int, coef: int, keep: bool) -> None:
        """Add coef * x times each level t into level t + c2 (c2 > 0), in one
        pass from the top down, so each level is read before it is written:
        a multiplication by (1 + coef x), or by coef x when not `keep`."""
        lv, caps = self.levels, self.caps
        for t in range(len(lv) - 1, -1, -1):
            src = lv[t]
            if not keep:
                lv[t] = {}
            if t + c2 < len(lv):
                _step(lv[t + c2], src, caps[t + c2], dk, fp, coef)

    def divide(self, key: tuple, c2: int, sign: int) -> None:
        """Multiply by (1 - sign q^c exp(w))^(-1), sign = +-1, c given by the
        int c2 = 2c and w by its int key (`_Lattice.key`).

        For c > 0 this is the running sum new[t] = old[t] + sign new[t - x],
        taken in increasing q (the coin-change recurrence of Euler's partition
        product, Andrews, The Theory of Partitions, ch. 1).  For c = 0 it is
        the same running sum within each level, taken in increasing depth
        over the buckets, those the step creates included.

        For c < 0 the factor is expanded in the non-negative q powers the
        characters are read in, through the exact identity
        1 - sign x = (-sign x)(1 - sign x^(-1)) (sign^2 = 1): with
        y = x^(-1) = q^{-c} exp(-w),
        (1 - sign x)^(-1) = -sign y * (1 - sign y)^(-1),
        a shift by -sign y followed by the c > 0 division by y.  Both steps
        are by q^{-c} exp(-w), so the margin check of `_factor` covers the
        shift as well: a term it moves into the window comes from a kept one."""
        flip, c2 = c2 < 0, abs(c2)
        dk, fp = self._factor(tuple(-x for x in key) if flip else key, c2)
        if flip:
            self._push_up(dk, fp, c2, -sign, False)
        self._divide(dk, fp, c2, sign)

    def _divide(self, dk: int, fp: int, c2: int, sign: int) -> None:
        """`divide` by a checked step (depth entry dk, packed key fp, 2c = c2 >= 0)."""
        lv, caps = self.levels, self.caps
        if c2:
            for t in range(len(lv) - c2):
                _step(lv[t + c2], lv[t], caps[t + c2], dk, fp, sign)
            return
        for lvl, cap in zip(lv, caps):
            depths = sorted(lvl)  # a heap; dk > 0, so each new bucket lies ahead
            while depths:
                d = heappop(depths)
                if d + dk > cap:
                    break
                if d in lvl:
                    if d + dk not in lvl:
                        heappush(depths, d + dk)
                    _step(lvl, {d: lvl[d]}, cap, dk, fp, sign)


def _window(lat: _Lattice, top: int, cap: int) -> Tuple[List[int], int]:
    """The caps and the span of the kernel window (T, C) = (top, cap), the
    sloped window of (T/2, C/scale) (`_LatticeSeries`): caps[t] =
    C + floor(dip (T - t)/2) for t <= T, and span = T + max(caps[0], 0)."""
    return ([cap + lat.dip * (top - t) // 2 for t in range(top + 1)],
            top + max(cap + lat.dip * top // 2, 0))


def _flat(lvl: Dict[int, Dict[int, int]]) -> Tuple[tuple, tuple, tuple]:
    """The rows (depths, ends, terms) of a level's depth buckets
    (`_LatticeSeries`, Held form): its depths sorted, each bucket's terms in
    their order."""
    depths, ends, terms = sorted(lvl), [0], []
    for d in depths:
        for item in lvl[d].items():
            terms += item
        ends.append(len(terms) // 2)
    return tuple(depths), tuple(ends), tuple(terms)


def _bucketed(rows: Tuple[tuple, tuple, tuple], cap: int) -> Dict[int, Dict[int, int]]:
    """The depth buckets of a level's rows up to depth `cap`: the depths
    are sorted, so those up to the cap are a prefix of them."""
    depths, ends, terms = rows
    lvl: Dict[int, Dict[int, int]] = {}
    for i in range(bisect_right(depths, cap)):
        it = iter(terms[2 * ends[i]:2 * ends[i + 1]])
        lvl[depths[i]] = dict(zip(it, it))
    return lvl


def _step(dst: Dict[int, Dict[int, int]], src: Dict[int, Dict[int, int]], cap: int,
          dk: int, fp: int, coef: int) -> None:
    """Add coef * x times the buckets of `src` into the level `dst`, x the
    step (depth entry dk, packed key fp), skipping each whole bucket whose
    image lies above `cap`; drop the zero sums and the buckets they empty."""
    for d, bucket in src.items():
        nd = d + dk
        if nd > cap:
            continue
        out = dst.get(nd)
        if out is None:
            out = dst[nd] = {}
        for p, v in bucket.items():
            p += fp
            nv = out.get(p, 0) + coef * v
            if nv:
                out[p] = nv
            else:
                del out[p]
        if not out:
            del dst[nd]


def _sum_pieces(lat: _Lattice, base: Tuple[int, List[int]], top: int, dcap: int,
                heads: Sequence[Tuple[tuple, int, int]], pieces: Iterable[_LatticeSeries],
                span: int) -> Tuple[Dict[int, Dict[Vec, int]], int]:
    """The l0-free levels of the sum of sign * q^shift exp(base + x/D) *
    piece, for each head (key, shift, sign), key the int key
    (`_Lattice.key`) of x/D relative to the base weight and shift an int,
    and the kernel series of `pieces` in the same order, cut at q <= window
    and at depth <= depth around the base (its kernel window (top, dcap),
    `_Lattice.window`): the published levels (`_publish`) and the number of
    kernel terms kept.  The base weight is given as ints y over a
    denominator d, base = (d, y): y / d.  The final step (`_placed`) puts
    the levels at the exponents ell + j/2 of the character, ell its lowest
    exponent and window = q_max - ell.  `span` is the span (`_window`) of
    the kernel window the pieces were asked in: a piece may be a held
    series whose window contains it (`_fns_cached`).

    Index.  A term of level t (q = t/2) of a piece under a head of shift h
    sits at ell + h + t/2, so at the int index j = 2h + t over ell.  Its
    cut q <= q_max is j <= top = floor(2 window): 2h + t is an int, so
    j <= 2(q_max - ell) exactly when j <= top.  A piece is read at its
    levels t <= top - 2h, and no head needs `Fraction` arithmetic.  A piece
    without all of those levels raises PreconditionViolated: it would cut
    the character short.

    The kept terms are summed over (index, packed key): the coordinates
    relative to base at the kernel's scale D, packed (`_Lattice.pack`), so a
    head's packed key plus a kernel key is the packed key of the product
    term: packing is linear.  It stays one-to-one: a kernel term read here
    lies in the asked window, so it has |x_i| <= B = rate * span, the
    bound of a build in that window (`_LatticeSeries`, the piece's rate and
    the asked `span`), a product term has |x_i| <= H + B, H the
    largest |coordinate| of a head key, and a call with 2(H + B) >= R
    raises PreconditionViolated.  The bound is the asked window's, not the
    held piece's, so a piece read from a larger held window refuses
    exactly what its own build would.

    Depth.  Every base lies in ref + ker(depth), ref the published series'
    reference weight: the orbit sums pass base = restrict(nu) with ref = nu,
    and the projection of nu - restrict(nu) onto the root span of g^nat is 0
    (the projection is idempotent), so are its coefficients, whose sum is
    minus its depth; `verma_character` and `n4_closed_form` pass base = ref.
    Depth being linear, depth_of(ref, base + x/D) = depth_of(0, x/D), and
    the cut depth_of(ref, w) <= depth is the int bound
    dcap = floor(scale * depth) on the depth entry of the product key
    (`_Lattice.window`): each piece gets one int depth cap
    dcap - (depth entry of its head).

    Early stop.  A piece is read in its rows (`_LatticeSeries`, Held form),
    each level's terms in increasing depth, so the terms it keeps under a
    cap are a prefix of the level, the first ends[bisect_right(depths,
    cap)]: the walk reads that prefix and stops, every later term lying
    above the cap.  It keeps exactly the terms that a test of each depth
    against the cap keeps, so the Containment argument of `_fns_cached` is
    unchanged."""
    hmax = max([0] + [abs(x) for key, _, _ in heads for x in key[1:]])
    acc: Dict[int, Dict[int, int]] = {}
    kept = 0
    for (key, shift, sign), piece in zip(heads, pieces):
        if 2 * (hmax + piece.rate * span) >= lat.radix:
            raise PreconditionViolated(
                f"character terms are past the packing bound of the denominator kernel "
                f"(radix {lat.radix})")
        rows, wp, j0, cap = piece.rows, lat.pack(key[1:]), 2 * shift, dcap - key[0]
        if len(rows) <= top - j0:
            raise PreconditionViolated(
                f"a piece of {len(rows)} levels under a head at q^{shift} cannot fill "
                f"the {top + 1} levels of the window")
        for t in range(top - j0 + 1):
            dst = acc.get(j0 + t)
            if dst is None:
                dst = acc[j0 + t] = {}
            depths, ends, terms = rows[t]
            n = ends[bisect_right(depths, cap)]
            kept += n
            get, it = dst.get, iter(terms[:2 * n])
            for p, v in zip(it, it):
                p += wp
                dst[p] = get(p, 0) + sign * v
    return _publish(lat, base, acc), kept


# int coordinates over their least denominator -> the published `Vec` of that
# weight (`_publish`), emptied when it reaches WEIGHT_CAP entries.  A bench
# pass leaves fewer than 100 (68 char_cold, 63 char_warm), each held in about
# 550 bytes (G3): 4096 shares a long sweep's weights and bounds the table to
# a few MB.  `_stores` reports it and empties it with the other stores.
_weights: Dict[tuple, Vec] = {}
WEIGHT_CAP = 4096  # published weights held before `_weights` is emptied


def _publish(lat: _Lattice, base: Tuple[int, List[int]],
             acc: Dict[int, Dict[int, int]]) -> Dict[int, Dict[Vec, int]]:
    """The sums `acc` {index j: {packed key: coefficient}} of `_sum_pieces`
    as published levels {index j: {weight base + x/D: coefficient}},
    walking the indices once in increasing order and keeping only the
    nonzero sums and the levels that hold one.  The exponent of a level is
    left to the final step (`_placed`).

    Scale.  Each distinct packed key is unpacked once per call, inline: its
    balanced digits in the odd radix R (`_Lattice.unpack`).  Coordinate i
    of its weight is base_i + x_i/D = (b_i + f x_i) / wden over
    wden = lcm(D, d), base = (d, y) (`_sum_pieces`), b_i = wden base_i and
    f = wden / D, so no coordinate of the base becomes a `Fraction`.

    Table.  The weight's key is (wden, b_1 + f x_1, ...) divided by the gcd
    of its entries: its int coordinates over the least denominator L they
    share (over any common denominator c L they are c times those over L,
    which are coprime to L), so a weight has one key whatever base it was
    published under.  `_weights` holds one `Vec` per key, built with its
    `Fraction`s the first time the key is seen in the process and returned
    as it is after that; a `Vec`
    caches its hash on first use, so a published weight is built and
    hashed once, whatever number of levels, calls and series it enters.  A
    `Vec` is immutable, so sharing one between series changes no output.
    The table is emptied when it holds WEIGHT_CAP weights, read at call
    time as `ORBIT_CAP` is, before a new one goes in: emptying it only
    means that weights are built again, equal to the ones before."""
    d, y = base
    wden = math.lcm(lat.denom, d)
    f, m = wden // lat.denom, wden // d
    bs = [c * m for c in y]
    radix, half = lat.radix, lat.radix // 2
    vecs: Dict[int, Vec] = {}  # packed key -> its weight, in this call
    out: Dict[int, Dict[Vec, int]] = {}
    for j in sorted(acc):
        terms = {}
        for p, c in acc[j].items():
            if c:
                w = vecs.get(p)
                if w is None:
                    xs, rest = [wden], p
                    for b in bs:
                        x = (rest + half) % radix - half
                        rest = (rest - x) // radix
                        xs.append(b + f * x)
                    g = math.gcd(*xs)
                    key = tuple(xs) if g == 1 else tuple([x // g for x in xs])
                    w = _weights.get(key)
                    if w is None:
                        if len(_weights) >= WEIGHT_CAP:
                            _weights.clear()
                        w = _weights[key] = _vec([Q(x, key[0]) for x in key[1:]])
                    vecs[p] = w
                terms[w] = c
        if terms:
            out[j] = terms
    return out


def _placed(out: QWSeries, ell: Fraction, levels: Dict[int, Dict[Vec, int]]) -> QWSeries:
    """The final step of every character: `out` holding the published levels
    {index j: {weight: coefficient}} of `_sum_pieces` at the exponents
    ell + j/2, one `Fraction` and one fresh dict per level, so that changing
    the returned series changes no level a cache holds."""
    en, ed, el = 2 * ell.numerator, 2 * ell.denominator, ell.denominator
    out.terms = {Q(en + j * el, ed): dict(terms) for j, terms in levels.items()}
    return out


def _ns_steps(lat: _Lattice, top: int) -> List[Tuple[int, int, int, bool]]:
    """The factors of the NS denominator with 2c <= top = floor(2 q_max), n's
    blocks of the frame's table `_Lattice.ns` for n = 1, 2, ... in order, as
    int steps (depth entry, packed key, 2c, odd): (1 + q^c exp(w)) when odd,
    else (1 - q^c exp(w))^(-1), with no `Fraction` per factor.  Their costs (see
    `_LatticeSeries`) are >= 1 and their coordinates at most the frame's
    `rate`, so the bound a series starts with covers every one of them."""
    return [(dk, fp, 2 * n + off, odd) for n in range(1, top // 2 + 2)
            for dk, fp, off, odd in lat.ns if 2 * n + off <= top]


# `cache_info()` of `_fns_cached`: `functools.lru_cache`'s four fields, hits
# the callers' calls answered from a held series (a build's own read of the
# denominator is no answer to a caller) and misses the windows built (a
# namedtuple, as functools makes its own: a `typing.NamedTuple` class costs
# twice as much at import)
_HeldInfo = namedtuple("_HeldInfo", "hits misses maxsize currsize")


def _held_windows(maxsize: int):
    """`_fns_cached`'s store, a decorator in the manner of
    `functools.lru_cache` (`cache_info`, `cache_clear`, `__wrapped__`): at
    most `maxsize` built series, grouped by (family, image).  A call is
    answered by the first series of its group, in the order they were
    built, whose caps contain the asked kernel window (T, C), T < len(caps)
    and C <= caps[T] (see `_fns_cached`), an equal window included: that
    series is returned as it is held and marked used.  Only when none does
    is it built and held.  Past `maxsize` the least recently used series is
    dropped, and its group with its last series.  A group key holds the
    family and the image, ints or None (`OrbitElement.image`): no
    `Fraction` is read.
    `cache_info()` counts as hits only the answers to callers: a call made
    while a build runs (a quotient reading its denominator) is not one.
    `cache_info` and `cache_clear` are what `_stores.info()` and `clear()`
    find the store by, as they find every `lru_cache`."""
    def decorate(build):
        # (family, image) -> [entry, ...], each entry [last use, series] of
        # one held window, in the order they were built
        groups: Dict[tuple, list] = {}
        counts = [0, 0, 0, 0, 0]  # hits, misses, uses, series held, builds running

        def cached(aid: AlgebraId, top: int, cap: int,
                   image: Optional[tuple] = None) -> _LatticeSeries:
            group = groups.get((aid, image))
            if group is not None:
                for entry in group:
                    if top < len(entry[1].caps) and cap <= entry[1].caps[top]:
                        if not counts[4]:
                            counts[0] += 1
                        counts[2] += 1
                        entry[0] = counts[2]
                        return entry[1]
            counts[1] += 1
            counts[4] += 1
            try:
                series = build(aid, top, cap, image)
            finally:
                counts[4] -= 1
            # looked up after the build, which may hold and drop series itself
            counts[2] += 1
            groups.setdefault((aid, image), []).append([counts[2], series])
            counts[3] += 1
            if counts[3] > maxsize:
                _, key, i = min((entry[0], key, i) for key, group in groups.items()
                                for i, entry in enumerate(group))
                group = groups[key]
                del group[i]
                if not group:
                    del groups[key]
                counts[3] -= 1
            return series

        def cache_clear() -> None:
            groups.clear()
            counts[:] = [0, 0, 0, 0, 0]

        cached.cache_info = lambda: _HeldInfo(counts[0], counts[1], maxsize, counts[3])
        cached.cache_clear = cache_clear
        return update_wrapper(cached, build)
    return decorate


# A bench char_warm pass reads 3 denominators and 4 isotropic quotients (its
# 68 massless orbit elements share them).  A char_cold pass asks 51
# denominator and 22 quotient windows, one denominator window per request,
# and builds 13 and 10 of them (seeds 3, 11 and 500), which contain the
# rest.  32 keeps either pass whole while bounding what a long-lived process
# holds.
@_held_windows(maxsize=32)
def _fns_cached(aid: AlgebraId, top: int, cap: int,
                image: Optional[tuple] = None) -> _LatticeSeries:
    """The NS denominator in the sloped window (q_max, depth + s(q_max - q))
    of kernel window (T, C) = (top, cap), (q_max, depth) = (T/2, C/scale),
    built factor by factor in place over int keys (`_ns_steps`), each step
    margin-checked; with `image` (2 xd, *key of the restriction), a
    massless orbit element's image of the isotropic simple roots
    (`OrbitElement.image`), that denominator divided by the image's factor
    (1 + q^xd exp(-restriction))^(-1) once per isotropic simple root,
    flipped exactly when xd < 0 (`divide`).
    The answer may be a held series of a window that contains the asked one
    (Containment below): a caller reads only inside the window it asked.
    Every series is held in its read form (`_LatticeSeries.hold`) before
    the store holds it: its rows, which `_sum_pieces` reads up to its caps
    and `copy` reads back into buckets for a quotient's divisions.

    Order.  The factors are applied in decreasing exponent c, a stable sort
    of the table order.  Any order gives the same series: the product
    commutes, and the window's exactness and the packing bound
    (`_LatticeSeries`) are argued for each step on its own.  Decreasing c is
    the cheap one: a step by q^c reads the levels q <= q_max - c, and in this
    order the series it reads is the product of the factors of exponent
    >= c only, whose low levels hold few terms; in the table order the same
    step reads levels that every factor of smaller exponent has already
    filled.

    Quotients.  The quotient depends only on its key: the denominator is
    fixed by (family, T, C), and the factor by the image, which is
    the image of the isotropic simple roots under the Weyl element alone,
    whatever the (k, nu) of the orbit it came from, and its ints fix the
    factor (`_orbit`).  It is built from the
    denominator's answer cut to the key's window (`copy`), so it is one
    series for every orbit element and every request that reads it, and
    each reader takes the prefix it needs (`_orbit_sum`): `divide` writes
    each level only from itself and the levels below it, so levels 0..t of
    the whole quotient equal the quotient of the prefix copy of levels
    0..t.  The copy has the key's span and rate, so `_margin` and `_admit`
    refuse exactly the factors they refuse on a prefix copy.

    Containment.  Every call is answered by the one rule of the store
    (`_held_windows`): from a held series of the same family and the same
    image (None for the plain denominator) whose caps contain the asked
    kernel window (T', C'): T' < len(caps) and C' <= caps[T'], an equal
    window included.  That test at level T' is exact, dip even or odd:
    with caps'[t] = C' + floor(dip (T' - t)/2) (`_window`), a held (T, C)
    has caps[t] = C + floor(dip (T - t)/2) >= caps[T'] + floor(dip (T' -
    t)/2) >= caps'[t] at every t <= T' (floor(a) + floor(b) <= floor(a +
    b)).  Every term a series stores is the coefficient of the infinite
    product (`_LatticeSeries`, Exactness), the quotient's factor included,
    so the held terms of depth d <= caps'[t] in the levels t <= T' are those
    of the asked build, and the held series holds more only beyond them.  No reader reads
    beyond them: `_sum_pieces` reads levels t <= T - 2h <= T' and depth
    entries d <= dcap - key[0] <= caps'[t] under a head of shift h, by
    `_orbit_sum`'s Window argument (its asked window is (T - 2 s_min, dcap),
    extremal starts included; verma_character's head is 0 at (window,
    depth)), and a quotient or `n4_closed_form` piece is a `copy` cut to the
    asked window.  So every kept term is the one the asked build gives.
    Refusals are the same too: the held series was built, and the asked
    build, of the same factors in a window of no larger span (T' <= T and
    caps'[0] <= caps[0]), would pass every `_margin` and `_admit` it
    passed; `_sum_pieces` checks its packing bound with the asked window's
    span, the rate being fixed by the family and the image.  An answer is
    the held series itself, read in place."""
    entry = lookup(aid)
    lat = entry.lattice
    if image is not None:
        out = _fns_cached(aid, top, cap).copy(*_window(lat, top, cap))
        key = tuple([-x for x in image[1:]])
        for _ in range(entry.iso_simple_count):
            out.divide(key, image[0], -1)
        return out.hold()
    out = _LatticeSeries(lat, top, cap)
    for dk, fp, c2, odd in sorted(_ns_steps(lat, top), key=lambda step: -step[2]):
        out._margin(dk, c2)
        if odd:
            out._push_up(dk, fp, c2, 1, True)
        else:
            out._divide(dk, fp, c2, 1)
    return out.hold()


def fns_series(g: AlgebraId, q_max, depth) -> QWSeries:
    """Truncated expansion of the NS-sector denominator factor.

    The result is the exact window truncation of the infinite product: the
    kernel runs with sloped depth headroom (weights can re-ascend by at most
    the dip density per unit of q) and is cut flat by `verma_character` at
    nu = 0, ell = 0, where the int keys become `Fraction` ones.
    """
    if as_rational(q_max) < 0:
        raise PreconditionViolated("q_max must be non-negative")
    return verma_character(g, zero_vec(lookup(g).n), 0, q_max, depth)


def verma_character(g: AlgebraId, nu: Vec, ell, q_max, depth) -> QWSeries:
    """exp(nu) q^ell times the NS denominator series, truncated at q_max.
    Raises `ParameterOutOfRange` on a weight of the wrong length."""
    ell, entry = as_rational(ell), lookup(g)
    entry._check_length(nu)
    out = QWSeries(entry, q_max, depth, nu)
    window = out.q_max - ell
    if window < 0:
        return out
    lat, win = entry.lattice, entry.lattice.window(window, out.depth)
    levels, _ = _sum_pieces(lat, entry._scaled(nu), *win, [((0,) * (entry.n + 1), 0, 1)],
                            [_fns_cached(g, *win)], _window(lat, *win)[1])
    return _placed(out, ell, levels)


# ---------------------------------------------------------------------------
# conformal-weight bookkeeping


def ell_of_h(g: AlgebraId, k, nu: Vec, h) -> Fraction:
    """Lowest energy of the reduced module with highest weight nu_hat_h:
    ell(h) by `weights._ell_ints` at h's reduced pair and the level
    record's (`levels._level`, which raises CriticalLevel at k = -h_vee),
    divided once."""
    entry, rec = lookup(g), _record(g, k)
    h = as_rational(h)
    return Q(*_ell_ints((h.numerator, h.denominator), rec, entry._scalars(nu).cas))


def h_pair(g: AlgebraId, k, nu: Vec, l0) -> Optional[Tuple[Fraction, Fraction]]:
    """Rational solutions (h, h') of ell(h) = l0, with h' = k+1-h, or None
    when the discriminant is not a rational square: `weights._ell_ints`
    inverted, as h^2 - (k+1)h - (l0 - ell(0))(k+h) = 0, with ell(0) and
    k + h_vee read off the level record (`levels._level`) as int pairs and
    each divided once."""
    entry, rec = lookup(g), _record(g, k)
    k, l0 = rec.data.k, as_rational(l0)
    c0 = Q(*_ell_ints((0, 1), rec, entry._scalars(nu).cas))
    roots = solve_quadratic_rational(Q(1), -(k + 1), -(l0 - c0) * Q(*rec.kh_ints))
    return None if roots is None else (roots[0], k + 1 - roots[0])


# ---------------------------------------------------------------------------
# orbit enumeration


class OrbitElement(NamedTuple):
    key: tuple                  # key of restrict(w.nu_hat_h) - restrict(nu) (`_Lattice.key`)
    det: int
    q_shift: int
    image: Optional[tuple]      # (2(x+d), *key of the restriction to h^nat) of the image
                                # of the isotropic simple roots, all alike (massless); None
                                # for a massive element


ORBIT_CAP = 10 ** 6  # orbit elements seen before TruncationIncomplete is raised


def _start(entry: CatalogEntry, rec: _Level, sc: _NuScalars) -> tuple:
    """The pairings of lam0 = nu_hat_h + rho_hat with the affine simple
    coroots, as ints: those of the simple roots of g^nat, then those of the
    eta_i, for nu in P^+_k at the level of the record `rec`
    (`levels._level`), nu given by its scalars `sc`
    (`CatalogEntry._scalars`), of which only the int level-0 pairings ps
    over d are read, with no `Fraction` on the way.  Each pairing is nu's,
    p/d, plus the level part n/m the record holds (`start_ints`, m > 0):
    <lam0, alpha^vee> = nu(alpha^vee) + 1 for a simple root alpha of g^nat
    (rho^nat pairs to 1 with each simple coroot of g^nat), and
    <lam0, eta_i^vee> = (k + h_vee)(2/u_i) - (nu + rho^nat)(theta_i^vee) =
    M_i(k) + chi_i + 1 - nu(theta_i^vee), with p/d = -nu(theta_i^vee)
    (`catalog.validate` pins this identity as `eta_i_pairing`); so each is
    (n d + m p)/(m d).  These are ints for nu in P^+_k (d divides the
    simple-root p, `weights._in_P_plus`, which the caller has tested); each
    is divided out exactly by `_Lattice._quotients`, which refuses with
    PreconditionViolated when one does not divide, the one check of the
    start.  The eta_i pairings are all the orbit reads of the level
    (`_orbit`)."""
    d = sc.d
    return _Lattice._quotients(
        entry, "pairings of nu_hat + rho_hat with the affine simple coroots",
        [(n * d + m * p, m * d) for p, (n, m) in zip(sc.ps, rec.start_ints)])


def _orbit(entry: CatalogEntry, start: tuple, limit: int,
           track_iso: bool = False) -> List[OrbitElement]:
    """Breadth-first shifted-orbit enumeration: the elements with
    q_shift <= limit, an int, walked on int coordinates from `start`, the
    int pairings of lam0 = nu_hat_h + rho_hat with the affine simple
    coroots (`_start`), for nu in P^+_k.  The orbit reads nothing else of
    nu or of the level.

    No h.  theta pairs to 0 with every affine simple coroot of g^nat (g^nat
    centralizes the sl2 triple of theta, so theta is orthogonal to its roots
    and to each theta_i).  lam0 = nu_hat_h + rho_hat has finite part
    nu + rho^nat plus multiples of theta (h theta, and rho's theta-component
    (rho|theta) = h_vee - 1), so it pairs as (k + h_vee) Lambda_0 + nu +
    rho^nat for every h.  The `iso_simple_count` isotropic simple roots all
    pair as level 0 with finite part theta/2 - xi (they restrict to -xi),
    x+d = (theta/2 - xi|theta)/2: their images coincide, so one block is
    tracked and `_orbit_sum` divides by its factor that many times.

    Coordinates.  A point x, the image of lam0 or, when tracked, of the
    isotropic simple roots, is a block of ints: its pairings <x, beta_j^vee>
    with the affine simple coroots (`CatalogEntry.lattice`), the drop of x+d
    since the start, and the key (`_Lattice.key`) of the restriction of its
    finite part to h^nat.  The start of lam0 is `start` (`_start`), and
    that of theta/2 - xi the frame's ints (`_Lattice.iso_ps`).  As
    s_i(x) = x - <x, beta_i^vee> beta_i, a reflection is p_j -= p_i *
    cartan[i][j] on the pairings, adds p_i * xd[i] to the drop and
    subtracts p_i * rkeys[i] from the key (the finite part of beta_i is a
    root of g^nat, its own restriction), so every edge is the frame's int
    row `_Lattice.rows`[i] times p_i, subtracted from each tracked block.
    A reflection whose pairing p_i is 0 on every tracked block fixes the
    point, so its child is the point itself, already seen, and it is
    skipped; with track_iso the isotropic block's pairing counts too, as a
    reflection that fixes lam0 but moves the isotropic image is a step of
    the stabilizer walk (point 4 below).
    The q_shift of an element is the drop of its lam0 block, an int.  The
    lam0 key starts at 0: restrict(lam0) is restrict(nu) + rho^nat (theta
    restricts to 0, rho^nat lies in the root span), so an element's
    restriction minus rho^nat is restrict(nu) + key/D.  The isotropic key
    starts at `_Lattice.iso_key`, the key of restrict(theta/2 - xi), and an
    image is given by one int tuple, twice its x+d (`_Lattice.xd2` less
    twice the drop of the isotropic block), then its key: that is all the
    massless sum reads (`OrbitElement.image`).  No element becomes a
    `Fraction` here.

    Deduplication is on the int tuple, which is one-to-one on the tracked
    affine weights: the finite-root pairings fix the projection of the
    finite part on the root span of g^nat (and with it the key), the
    orthogonal part and the level never change, and the x+d drop then fixes
    the delta coefficient.  So the BFS visits the points its `Fraction` test
    oracle visits, in that order.  (At a noncritical level the drop adds no
    distinction: the pairings fix lam modulo delta and (lam|lam) fixes its
    delta part; for an isotropic image, u.b = b + m delta with u in the
    stabilizer of lam, a finite group, forces m = 0.)  Tracking the
    isotropic images separates group elements even when the orbit point
    sits on a wall.  The output is sorted on (q_shift, key coordinates,
    det), the order of (q_shift, restriction, det): every restriction is
    restrict(nu) plus its key coordinates over D > 0.

    Only points with shift <= max(limit, 0) are expanded; that misses
    nothing (Kac, Infinite-dimensional Lie algebras, Lemma 3.11, Prop. 3.12):

    1. x+d pairs to 0 with the finite roots of g^nat and to 1 with eta_i, so
       s_alpha keeps the shift and s_eta_i raises it by <lam, eta_i^vee>.
    2. From a dominant point the shift never decreases along a reduced word
       (lam - w lam lies in Q_+).  The negative u_i do not break this:
       rescaling a component's form does not change its Cartan matrix.
    3. lam0 need not be dominant: at extremal spo2m(3) weights (k = -1,
       r = 2; k = -5/4, r = 3) <lam0, eta_1^vee> = -1, and the first eta-edge
       lowers the shift from 0 to -1.  Folding lam0 into the dominant chamber
       crosses only walls of negative pairing, so by (1) its path stays at
       shift <= 0.
    4. With track_iso the BFS also walks the stabilizer of the folded point,
       generated by the simple reflections that fix it; these keep the shift.

    So fold, stabilizer, then a reduced word reach every element with
    shift <= limit through points with shift <= max(limit, 0).

    Capped eta pairings.  With limit >= 0 and no eta pairing
    N_j = <lam0, eta_j^vee> negative, the walk is the same, step by step,
    for every value N_i > limit of one eta pairing: component i gives only
    its finite orbit.  The affine Weyl groups W_j of the simple components
    commute and their shifts add, each >= 0 from the dominant lam0 (point
    2).  An element whose part in W_i is not finite has a reduced word with
    an eta_i step; the first leaves a point v lam0, v finite, and raises
    the shift by <lam0, v^-1 eta_i^vee> = N_i + <lam0, theta_i^vee -
    v^-1 theta_i^vee> >= N_i (theta_i^vee is dominant, so the difference is
    a sum of simple coroots of g^nat, each pairing to nu(alpha^vee) + 1 >= 1
    with lam0).  So such an element has shift >= N_i > limit: it is neither
    kept nor expanded.  The points kept and expanded are the same for every
    such N_i, with the same key, det, shift and image, their eta_i
    pairings N_i plus an int the point fixes, and their other pairings the
    same; each eta_i pairing is >= N_i > 0, so every such point has one
    child across that wall, past the limit, which no other seen point
    equals (lam0's part in W_i is regular, and a point's pairings with the
    coroots of component i fix its element of W_i).  So the seen count, and
    with it the cap test and its message, are the same too.  A negative
    N_j lets a W_j part lower the shift, so that an element across the
    eta_i wall can come back under the limit: then no pairing is capped.
    `_orbit_sum` is walked and cached from the start with these pairings capped.
    """
    lat = entry.lattice
    state = (*start, 0) + (0,) * (entry.n + 1)
    if track_iso:
        state += (*lat.iso_ps, 0, *lat.iso_key)
    r, width, rows = len(start), len(start) + entry.n + 2, lat.rows
    reach = max(limit, 0)
    seen = {state}
    frontier = [(state, 1)]
    out: List[OrbitElement] = []
    level = 0
    while frontier:
        nxt = []
        for state, det in frontier:
            drop = state[r]
            if drop <= limit:
                out.append(OrbitElement(
                    state[r + 1:width], det, drop,
                    (lat.xd2 - 2 * state[width + r], *state[width + r + 1:]) if track_iso
                    else None))
            if drop > reach:
                continue
            iso = state[width:]  # the isotropic block, empty unless tracked
            for i, row in enumerate(rows):
                p = state[i]  # zip(state, row) below reads the lam0 block only
                if track_iso:
                    q = iso[i]
                    if not (p or q):
                        continue
                    child = tuple([x - p * a for x, a in zip(state, row)]
                                  + [x - q * a for x, a in zip(iso, row)])
                elif p:
                    child = tuple([x - p * a for x, a in zip(state, row)])
                else:
                    continue
                if child not in seen:
                    seen.add(child)
                    nxt.append((child, -det))
            if len(seen) > ORBIT_CAP:
                raise TruncationIncomplete(
                    f"orbit cap {ORBIT_CAP} hit at q_shift limit {limit}: "
                    f"{len(seen)} elements seen, {len(out)} kept within the limit, "
                    f"BFS level {level}")
        frontier = nxt
        level += 1
    out.sort(key=lambda e: (e.q_shift, e.key[1:], e.det))
    return out


def weyl_orbit(g: AlgebraId, k, nu: Vec, h, q_max) -> List[Tuple[Vec, int, Fraction]]:
    """Distinct shifted-orbit elements with q_shift <= q_max.

    Returns (restriction of w.nu_hat_h to h^nat, det w, q_shift), the
    restriction being restrict(nu) + key/D (see `_orbit`).  h is read
    only as an exact scalar (`as_rational`): the orbit does not depend on it.
    """
    as_rational(h)
    entry = lookup(g)
    data = _P_plus_data(entry, k, nu)
    if data is None:
        raise NonDominant("weyl_orbit requires nu in P^+_k")
    base, denom = entry.restrict(nu), entry.lattice.denom
    return [(base + _vec([Q(x, denom) for x in e.key[1:]]), e.det, Q(e.q_shift))
            for e in _orbit(entry, _start(entry, *data), math.floor(as_rational(q_max)))]


# ---------------------------------------------------------------------------
# character formulas


# A bench char_warm pass reads 44 distinct keys, and each sum holds one
# character's levels (110 terms for the G3 case): 128 keeps such a sweep
# whole while bounding what a long-lived process holds.
@lru_cache(maxsize=128)
def _orbit_sum(aid: AlgebraId, nd: int, nx: tuple, start: tuple, top: int, dcap: int,
               track_iso: bool, cap: int) -> Dict[int, Dict[Vec, int]]:
    """The l0-free orbit sum: det * q^q_shift exp(restriction) * fns summed
    over the orbit of nu = nx/nd walked from `start` (`_start`, `_orbit`),
    cut at (window, depth) around nu, as published levels {index j:
    {weight: coefficient}} (`_sum_pieces`), empty when the window is
    negative, given as its kernel window (T, dcap) = (top, dcap); `cap` is
    ORBIT_CAP.  The int denominator series is read
    directly by `_sum_pieces`, each orbit element's head being its int key
    relative to restrict(nu) (`_orbit`) and its int q_shift: each element gets
    one int q ceiling and one int depth cap, the kept terms are merged over
    int keys, and only the output terms become `Fraction` keys.  With
    track_iso each piece is the denominator divided by its element's isotropic
    correction (1 + q^c exp(w))^(-1), once per isotropic simple root (their
    images coincide, see `_orbit`), negative exponents c flipped exactly: the
    quotient cached under the denominator's key and the element's image
    (`_fns_cached`), read as it is.

    The key.  The sum reads nothing but its arguments, the family's entry
    (`lookup`) and nu's restriction (`_Lattice.restricted` of nd and nx),
    so it is cached on them.  nu is keyed by its coordinates as ints over
    their least common denominator (`CatalogEntry._scaled`, read off its
    scalars): equal values key alike, and the key hashes ints, not
    `Fraction`s, each of whose hashes takes a modular inverse.  The start's
    eta pairings stand for k: `_character` caps each at floor(T/2) + 1 when
    none is negative, so that levels at which no eta step fits the window
    share one sum.  The cap is exact: an eta pairing above floor(T/2) gives
    the same walk, step by step, whatever its value (`_orbit`, Capped eta
    pairings), and T < 0 gives the empty sum whatever the start.  The orbit
    cap is in the key because `_orbit` reads ORBIT_CAP at call time: a sum
    found under one cap is never served under a lower one, where it has to
    raise.  A sum that raises is not cached, so the next request of the key
    computes it again.

    No l0.  The character at conformal weight l0, the sum over w of
    det(w) q^(l0 + q_shift(w)) exp(restriction) * fns cut at q <= q_max,
    reads l0 only through the window q_max - l0, in three places: the orbit
    is walked to q_shift <= floor(window) = floor(T/2) (`_orbit`, which
    reads neither l0 nor h); the denominator's window (below) is read off
    that orbit and (T, dcap); and `_sum_pieces` keeps a term of index j, at
    exponent l0 + j/2, exactly when j <= floor(2(q_max - l0)) = T.  The
    depth cut, dcap, is around nu.  So the character is this sum with
    level j placed at l0 + j/2 (`_placed`): two characters of one (family,
    start, nu, T, dcap, kind) are one sum at two exponents.  The sum reads
    k only through the start's eta pairings.  A massless character has l0
    = A(k, nu), which (k, nu) fixes, so q_max fixes its window.

    Quotients.  A massless piece depends only on its key (`_fns_cached`,
    Quotients): the denominator's family and reach window below and the
    element's image, which the Weyl element fixes whatever (k, nu) is, so
    elements of one orbit and of other requests with the same image and
    denominator window share one piece, of which `_sum_pieces` reads the
    levels 0..floor(2(window - q_shift)).  A piece, plain or quotient, may
    be a held series whose window contains the reach window
    (`_fns_cached`): every term an element reads lies in the reach window
    by the Window argument below, and `_sum_pieces` checks its packing
    bound in it.

    Window.  The denominator is built in the kernel window of exactly what
    the orbit reads, in ints: the reach window (T - 2 s_min, dcap), s_min =
    min(0, the least q_shift).  Element e is read at the levels
    t <= T - 2 q_shift, and there at the depth entries d <= dcap - key[0]
    (`_sum_pieces`).  The build's cap at such a t is dcap + floor(dip (T -
    2 s_min - t)/2) >= dcap + dip (q_shift - s_min) (`_window`), so every
    term an element reads is exact once -key[0] <= dip (q_shift - s_min);
    the isotropic divisions are margin-checked steps in the same window.
    -key[0] is scale times the height the restriction has risen above nu's
    (`_orbit`, Coordinates), and the inequality holds on every orbit (Kac,
    Infinite-dimensional Lie algebras, Lemma 3.11 / Prop. 3.12):
    1. From a dominant point x: x - w x = sum n_alpha alpha + sum m_i eta_i
       with n, m >= 0, so the restriction moves by -sum n_alpha alpha +
       sum m_i theta_i and q_shift by sum m_i; scale ht(theta_i) <= dip, a
       positive root's, so -key[0](w x) <= -key[0](x) + dip (q_shift(w x)
       - q_shift(x)).  With no eta pairing negative, x = lam0 (s_min = 0).
    2. Else x, the fold of lam0 (`_orbit`, point 3), is kept, with s_min <=
       q_shift(x) <= 0, and (1) from x suffices once key[0](x) >= 0, with
       dip (q_shift(x) - s_min) to spare: folding must not raise the height.
    3. It does not.  The components fold apart; take one, theta = theta_i,
       at level K = <lam0, eta_i^vee + theta^vee> = (k + h_vee)(2/u_i)
       (`_start`), lam0's finite part p dominant (nu + rho^nat).  K > 0: x
       pairs >= 0 with both coroots, and at K = 0 every finite part would
       stay in W^nat p, which misses 0.  While <p, theta^vee> > K, an eta_i
       step gives p - c theta, 0 < c < <p, theta^vee>, in the convex hull
       of W^nat p; its dominant image q has p - q a non-negative sum of
       simple roots (as p - w p has for every w in W^nat), so it is no
       higher than p.  Each round shortens p (the wall <v, theta^vee> = K
       parts p from 0), and the orbit's finite parts are discrete, so the
       rounds end, at the dominant x, no higher than nu + rho^nat.

    The denominator identity.  Let k_rho be a level at which lam0 =
    (k + h_vee) Lambda_0 + rho^nat pairs to 1 with every affine simple
    coroot of g^nat; then lam0 = rho_hat of affine g^nat, and at nu = 0,
    track_iso False this sum, placed at l0 = 0, is sum_w det(w) q^shift exp(w rho_hat -
    rho_hat) times the NS denominator.  By the Weyl-Kac denominator identity
    (Kac, Infinite-dimensional Lie algebras, ch. 10) the orbit part is
    prod_{beta > 0} (1 - e^{-beta})^{mult beta}, the inverse of the bosonic
    factors of the NS denominator, exp(-alpha) at q^{n-1}, exp(alpha) at
    q^n and (1 - q^n)^(-rank).  So the sum is the flat cut of
    prod_n prod_{gamma in Delta'} (1 + q^{n-1/2} exp(-gamma)), times
    prod_n (1 - q^n)^(-1) when g^nat has a center (rank counts it, the
    affine roots do not); the tests check this on seven families."""
    if top < 0:
        return {}
    entry = lookup(aid)
    orbit = _orbit(entry, start, top // 2, track_iso)
    lat, rt = entry.lattice, top - 2 * min(0, orbit[0].q_shift)  # sorted on q_shift first
    pieces = [_fns_cached(aid, rt, dcap, el.image) for el in orbit] if track_iso \
        else repeat(_fns_cached(aid, rt, dcap))
    return _sum_pieces(lat, lat.restricted(nd, nx), top, dcap,
                       [(el.key, el.q_shift, el.det) for el in orbit], pieces,
                       _window(lat, rt, dcap)[1])[0]


def _character(entry: CatalogEntry, rec: _Level, sc: _NuScalars, nu: Vec, l0: Fraction,
               q_max: Fraction, depth: Fraction, track_iso: bool) -> QWSeries:
    """The character at conformal weight l0, cut at (q_max, depth) around
    nu, once its preconditions hold (`rec` and `sc` the level record and
    nu's scalars they read): the cached orbit sum of its key (`_orbit_sum`,
    The key), placed at l0 (`_placed`).  The start (`_start`) is read on
    every request, a hit included, so its integrality check runs on each.
    The kernel window (T, C) of (q_max - l0, depth) is snapped from the
    ints of q_max, l0 and depth (`_Lattice.window`), with no `Fraction`
    difference."""
    out = QWSeries(entry, q_max, depth, nu)
    start = _start(entry, rec, sc)
    top, dcap = entry.lattice.window(q_max, depth, l0)
    s = len(start) - len(entry.components)
    if min(start[s:]) >= 0:
        lim = top // 2 + 1
        start = start[:s] + tuple([n if n < lim else lim for n in start[s:]])
    return _placed(out, l0, _orbit_sum(entry.id, sc.d, tuple(sc.x), start, top, dcap,
                                       track_iso, ORBIT_CAP))


def character_massive(g: AlgebraId, k, nu: Vec, l0, q_max, depth) -> QWSeries:
    """Alternating orbit sum of Verma characters; valid strictly above the
    threshold."""
    entry = lookup(g)
    l0, q_max, depth = as_rational(l0), as_rational(q_max), as_rational(depth)
    data = _P_plus_data(entry, k, nu)
    if data is None or _is_extremal(entry, *data):
        raise PreconditionViolated("massive character needs non-extremal nu in P^+_k")
    if _excess((l0.numerator, l0.denominator), _threshold(*data))[0] <= 0:  # l0 <= A
        raise PreconditionViolated("massive character needs l0 > A(k,nu)")
    rec, sc = data
    return _character(entry, rec, sc, nu, l0, q_max, depth, False)


def character_massless(g: AlgebraId, k, nu: Vec, q_max, depth) -> QWSeries:
    """Character at the threshold l0 = A(k,nu): orbit sum with the isotropic
    simple-root corrections resummed per orbit element."""
    entry = lookup(g)
    q_max, depth = as_rational(q_max), as_rational(depth)
    if g.family == "D21a" and any(map(as_rational, nu)):
        raise UnsupportedD21a("massless D(2,1;a) characters are only available at nu = 0")
    data = _P_plus_data(entry, k, nu)
    if data is None:
        raise PreconditionViolated("massless character needs nu in P^+_k")
    rec, sc = data
    return _character(entry, rec, sc, nu, Q(*_threshold(rec, sc)), q_max, depth, True)


def _n4_range(M1: int, window: Fraction) -> range:
    """The m of the summands that `n4_closed_form` tries (see its docstring)."""
    bound = 1 + math.isqrt(math.floor(window / (M1 + 1)))
    return range(-bound, bound + 1)


def n4_closed_form(M1: int, r: int, q_max, depth) -> QWSeries:
    """Bilateral closed form for the threshold characters of the N=4 family;
    an independent cross-check for character_massless: it shares the
    denominator kernel and `_sum_pieces` with the orbit sum, not its formula.

    The exponent symbol written eta_1 in the source is read as the finite
    root theta_1, the weight being nu = (r/2)*theta_1 for integer 0 <= r <= M1
    (extremal boundary included).  With l0 = r/2, b_m = m^2(M1+1) + (r+1)m,
    c_m = m + 1/2, w+ = (r/2 + m(M1+1)) theta_1 and
    w- = -(r/2 + m(M1+1) + 1) theta_1, summand m is
    q^(l0 + b_m) (exp(w+) (1 + q^c_m exp(theta_1/2))^(-2)
    - exp(w-) (1 + q^c_m exp(-theta_1/2))^(-2)) times the NS denominator,
    and each of its two terms is one kernel piece: the denominator divided
    twice by its fermionic factor, under the head (w+-, b_m, +-1) over the
    exponent l0, w+- given by its int key relative to nu = l0 theta_1
    (`_sum_pieces`):
    m(M1+1) theta_1 and -(r + m(M1+1) + 1) theta_1.

    Range of m.  The leading exponent of summand m over l0 is b_m for
    m >= 0, where b_m >= m^2(M1+1); for m = -j <= -1 the fermionic factors
    flip (c_m < 0) and each contributes q^{-c_m}, so it is b_m - (2m+1) =
    j^2(M1+1) - (r-1)j - 1, which exceeds j(j-1)(M1+1) by j(M1+2-r) - 1 >= 1
    (r <= M1), so it exceeds (j-1)^2(M1+1).  Let p = isqrt(floor(window /
    (M1+1))); then (p+1)^2 >= floor(window / (M1+1)) + 1, so (p+1)^2 (M1+1) >
    window.  For m >= p+1 the first bound and for j >= p+2 the second give a
    leading exponent above the window: no summand outside
    -(p+1) <= m <= p+1 (`_n4_range`) reaches the output.

    Window.  The pieces are cut in the kernel's sloped window of
    (window, depth) = (T/2, C/scale), the cuts of the request's kernel
    window (T, C) (`_Lattice.window`), where a term (q, w) is exact when
    depth_of(0, w) <= depth + s(window - q).  A term of summand m reaches the
    output only if q <= window - b_m, so, as b_m >= 0 (for m <= -1,
    m(M1+1) + r + 1 <= r - M1 <= 0), it is exact up to depth + s b_m.  The
    output keeps it when depth_of(nu, w+- + w) <= depth, that is
    depth_of(0, w) <= depth + t a with t = depth_of(0, -theta_1) <= s
    (theta_1 is a positive root of g^nat), a = m(M1+1) for w+ and
    a = -(m(M1+1) + r + 1) for w-.  Either a <= 0, or a <= b_m (m >= 1 for
    w+; m <= -1 for w-, where b_m = |m| a): no further headroom is needed."""
    if not (M1.__class__ is int and M1 >= 1):  # True equals 1: a bool is no int here
        raise IndexOutOfRange("M1 must be a positive integer")
    if not (r.__class__ is int and 0 <= r <= M1):
        raise IndexOutOfRange("need 0 <= r <= M1")
    g = AlgebraId("psl22")
    entry = lookup(g)
    q_max, depth = as_rational(q_max), as_rational(depth)
    th = entry.components[0].theta
    l0 = Q(r, 2)
    out = QWSeries(entry, q_max, depth, l0 * th)
    window = q_max - l0
    if window < 0:
        return out
    lat, win = entry.lattice, entry.lattice.window(window, depth)
    fns, (caps, span) = _fns_cached(g, *win), _window(lat, *win)
    tkey, hkey = lat.key(th), lat.key(Q(1, 2) * th)
    summands = []  # (head, key of the fermionic factor's weight, twice its exponent)
    for m in _n4_range(M1, window):
        b = m * m * (M1 + 1) + (r + 1) * m
        if (b if m >= 0 else b - (2 * m + 1)) > window:
            continue
        c2, a = 2 * m + 1, m * (M1 + 1)
        summands += [((tuple(a * x for x in tkey), b, 1), hkey, c2),
                     ((tuple(-(r + a + 1) * x for x in tkey), b, -1),
                      tuple(-x for x in hkey), c2)]

    def piece(key: tuple, c2: int, b: int) -> _LatticeSeries:
        div = fns.copy(caps[:len(caps) - 2 * b], span)  # the levels read, in (window, depth)
        div.divide(key, c2, -1)
        div.divide(key, c2, -1)
        return div.hold()

    levels, _ = _sum_pieces(lat, entry._scaled(out.ref), *win, [hd for hd, _, _ in summands],
                            (piece(key, c2, hd[1]) for hd, key, c2 in summands), span)
    return _placed(out, l0, levels)
