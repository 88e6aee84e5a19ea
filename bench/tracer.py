"""Spans and counters around the public surface of the ``wmin`` package.

``install`` replaces every public function of every ``wmin`` submodule with a
recording wrapper, in each module that binds it (so the copies bound by
``from .x import y`` are wrapped too), and wraps the public methods of
``CatalogEntry`` and ``QWSeries`` and the field operations of
``GaussianRational``.  Names that start with ``_`` are never wrapped, so the
harness does not depend on the package's private helpers.

A span records (id, parent id, name, start, end, request id).  Spans stay in
memory and are written by ``write_spans`` when the run ends.  Calls that run
once per series term (``QWSeries.add_term``, ``depth_of`` and the
``GaussianRational`` operations) are only counted, since a span for each would
swamp the run.  Nothing is recorded while ``Tracer.active`` is false, so the
harness's own set-up and output checks stay out of the figures.
"""
from __future__ import annotations

import functools
import gzip
import importlib
import json
import pkgutil
from collections import Counter
from time import perf_counter

CLASSES = (("catalog", "CatalogEntry"), ("characters", "QWSeries"),
           ("rationals", "GaussianRational"))
ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__truediv__")
# one call per series term or per scalar operation: counts only
COUNT_ONLY = {"characters.depth_of", "characters.QWSeries.add_term"}
# QWSeries results whose size feeds the kept-terms ratio
SIZED = {"characters.QWSeries.shifted", "characters.QWSeries.truncated"}
FAIRLIE = "gram_lab.fairlie_matrix"


class Tracer:
    def __init__(self):
        self.active = False
        self.req = None
        self.spans = []
        self.stack = []            # child-time accumulators of the open spans
        self.ids = []              # ids of the open spans
        self.next_id = 0
        self.calls = Counter()     # name -> calls
        self.total = Counter()     # name -> inclusive seconds
        self.self_time = Counter()  # name -> seconds less child spans
        self.terms_out = Counter()  # name -> terms in returned series
        self.builds = []           # durations of first fairlie_matrix calls per key
        self._fairlie_keys = set()
        self._in_scalar_op = False
        self._n_terms = None

    # -- recording --------------------------------------------------------
    def span(self, name, fn, args, kwargs):
        sid = self.next_id
        self.next_id += 1
        parent = self.ids[-1] if self.ids else None
        self.ids.append(sid)
        self.stack.append(0.0)
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = perf_counter()
            child = self.stack.pop()
            self.ids.pop()
            dur = t1 - t0
            if self.stack:
                self.stack[-1] += dur
            self.spans.append((sid, parent, name, t0, t1, self.req))
            self.calls[name] += 1
            self.total[name] += dur
            self.self_time[name] += dur - child
        if name in SIZED:
            self.terms_out[name] += self._n_terms(out)
        elif name == FAIRLIE:
            self._note_fairlie(args, kwargs, dur)
        return out

    def _note_fairlie(self, args, kwargs, dur):
        key = tuple(repr(a) for a in args) + tuple(sorted(
            (k, repr(v)) for k, v in kwargs.items()))
        if key not in self._fairlie_keys:
            self._fairlie_keys.add(key)
            self.builds.append(dur)

    # -- output -------------------------------------------------------------
    def spans_of(self, req):
        return [s for s in self.spans if s[5] == req]

    def write_spans(self, path):
        with gzip.open(path, "wt", compresslevel=1) as fh:
            for sid, parent, name, t0, t1, req in self.spans:
                fh.write(json.dumps([sid, parent, name, t0, t1, req]) + "\n")


def _span_wrapper(tracer, name, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        return tracer.span(name, fn, args, kwargs)
    return traced


def _count_wrapper(tracer, name, fn):
    calls = tracer.calls

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if tracer.active:
            calls[name] += 1
        return fn(*args, **kwargs)
    return counted


def _scalar_op_wrapper(tracer, name, fn):
    """Counts an operation once even when it is built on another one
    (a - b runs a + (-b)); only the outermost call is counted."""
    calls = tracer.calls

    @functools.wraps(fn)
    def counted(*args):
        if not tracer.active or tracer._in_scalar_op:
            return fn(*args)
        calls[name] += 1
        tracer._in_scalar_op = True
        try:
            return fn(*args)
        finally:
            tracer._in_scalar_op = False
    return counted


def _wrapper(tracer, name, fn):
    if name in COUNT_ONLY:
        return _count_wrapper(tracer, name, fn)
    return _span_wrapper(tracer, name, fn)


def install(tracer, package):
    """Wrap the public surface of ``package``; returns the wrapped names."""
    modules = [importlib.import_module(f"{package.__name__}.{m.name}")
               for m in pkgutil.iter_modules(package.__path__)]
    wrapped = {}   # id(original) -> (original, wrapper)
    names = []
    for mod in modules:
        short = mod.__name__.rpartition(".")[2]
        for attr, obj in vars(mod).items():
            if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            names.append(f"{short}.{attr}")
            wrapped[id(obj)] = (obj, _wrapper(tracer, names[-1], obj))
    for mod in modules + [package]:
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])
    for modname, clsname in CLASSES:
        cls = getattr(importlib.import_module(f"{package.__name__}.{modname}"),
                      clsname)
        if clsname == "QWSeries":
            tracer._n_terms = cls.n_terms
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in ARITHMETIC:
                continue
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            if not callable(fn) or isinstance(raw, (property, classmethod)):
                continue
            name = f"{modname}.{clsname}.{attr}"
            if clsname == "GaussianRational":
                if attr not in ARITHMETIC:
                    continue   # constructors and predicates run inside every op
                new = _scalar_op_wrapper(tracer, name, fn)
            else:
                new = _wrapper(tracer, name, fn)
            setattr(cls, attr, staticmethod(new) if static else new)
            names.append(name)
    return sorted(names)
