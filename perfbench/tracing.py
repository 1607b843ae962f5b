"""Span tracing of gspin's layers, installed from outside the package.

`Tracer.install()` replaces, by attribute, every public plain function of
each layer module (and every other gspin module's reference to it) with a
wrapper that records a span: name, start, end, parent span and thread.
A few methods carry the layer's hot work and are wrapped too:
`CliffordElement.__mul__` (the Clifford product), `GPinElement.__init__`
(membership check plus `pr_circ`), `Mat.__mul__`, and `GaussRat.__mul__`,
which is only counted because a span per scalar product would swamp the
run.  Nothing under `src/` is edited.

Spans are recorded only while `enabled` is true.  Self time (a span's
duration minus the time its child spans cover) is accumulated per thread
as spans close; the spans themselves are kept in memory, up to
`MAX_SPANS`, and written out by `write_spans`.
"""

import functools
import importlib
import inspect
import itertools
import json
import threading
from collections import Counter
from time import perf_counter

LAYERS = ("exact", "clifford", "rootdata", "spinrep", "conjugacy", "cocycle", "hodge", "cli")

# Spans kept for writing out; self times and counts cover every span.
MAX_SPANS = 100_000

# Span names of the (half-)spin matrix entry points; a call that ran no
# child `spinrep.act` was served from a cache.
_MATRIX_SPANS = ("spinrep.spin_matrix", "spinrep.half_spin_matrix")


class Tracer:
    def __init__(self):
        self.enabled = False
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads = []

    # -- per-thread state -------------------------------------------------

    def _state(self):
        st = getattr(self._local, "st", None)
        if st is None:
            st = {"tid": threading.get_ident(), "stack": [], "agg": {},
                  "counts": Counter(), "spans": []}
            with self._lock:
                self._threads.append(st)
            self._local.st = st
        return st

    def _enter(self, name):
        st = self._state()
        # name, id, start, time covered by children, names of children
        frame = [name, next(self._ids), perf_counter(), 0.0, set()]
        st["stack"].append(frame)
        return st, frame

    def _exit(self, st, frame):
        end = perf_counter()
        stack = st["stack"]
        stack.pop()
        name, sid, start, child, _ = frame
        dur = end - start
        parent = stack[-1] if stack else None
        if parent is not None:
            parent[3] += dur
            parent[4].add(name)
        agg = st["agg"].get(name)
        if agg is None:
            agg = st["agg"][name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += dur
        agg[2] += dur - child
        if name in _MATRIX_SPANS and "spinrep.act" not in frame[4]:
            st["counts"]["spinrep.matrix_cache_hits"] += 1
        if sid < MAX_SPANS:
            st["spans"].append((name, start, end, parent[1] if parent else None, st["tid"], sid))

    # -- wrappers ---------------------------------------------------------

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            st, frame = self._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(st, frame)
        return wrapper

    def _binary(self, name, fn, operand_type, count_terms=False):
        """Span a product method only when both operands are of its own type,
        not for a product with a scalar."""
        @functools.wraps(fn)
        def wrapper(a, b):
            if not (self.enabled and isinstance(b, operand_type)):
                return fn(a, b)
            st, frame = self._enter(name)
            if count_terms:
                st["counts"][name + "_term_pairs"] += len(a.terms) * len(b.terms)
            try:
                return fn(a, b)
            finally:
                self._exit(st, frame)
        return wrapper

    def _construct(self, fn):
        @functools.wraps(fn)
        def wrapper(obj, *args, **kwargs):
            if not self.enabled:
                return fn(obj, *args, **kwargs)
            st, frame = self._enter("clifford.gpin_construct")
            try:
                return fn(obj, *args, **kwargs)
            except ValueError:
                st["counts"]["clifford.gpin_rejected"] += 1
                raise
            finally:
                self._exit(st, frame)
        return wrapper

    def _counted(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            if self.enabled:
                self._state()["counts"][name] += 1
            return fn(*args)
        return wrapper

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the layers' public functions and hot methods, everywhere they are bound."""
        mods = {layer: importlib.import_module(f"gspin.{layer}") for layer in LAYERS}
        holders = [importlib.import_module("gspin")] + list(mods.values())
        for layer, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or inspect.isgeneratorfunction(obj)):
                    continue
                wrapper = self._spanned(f"{layer}.{attr}", obj)
                for holder in holders:
                    for name, value in list(vars(holder).items()):
                        if value is obj:
                            setattr(holder, name, wrapper)
        clifford, exact = mods["clifford"], mods["exact"]
        element = clifford.CliffordElement
        setattr(element, "__mul__",
                  self._binary("clifford.product", element.__mul__, element, count_terms=True))
        setattr(clifford.GPinElement, "__init__", self._construct(clifford.GPinElement.__init__))
        setattr(exact.Mat, "__mul__", self._binary("exact.mat_mul", exact.Mat.__mul__, exact.Mat))
        setattr(exact.GaussRat, "__mul__",
                  self._counted("exact.gaussrat_mul", exact.GaussRat.__mul__))


    # -- results ----------------------------------------------------------

    def totals(self):
        """Merged per-name [calls, total s, self s] and counters over all threads."""
        agg, counts = {}, Counter()
        with self._lock:
            threads = list(self._threads)
        for st in threads:
            counts.update(st["counts"])
            for name, (calls, total, self_s) in st["agg"].items():
                acc = agg.setdefault(name, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += total
                acc[2] += self_s
        return agg, counts

    def span_count(self):
        with self._lock:
            return sum(len(st["spans"]) for st in self._threads)

    def write_spans(self, path):
        """Write the kept spans as JSON lines: name, start, end, parent id, thread, id."""
        with self._lock:
            threads = list(self._threads)
        with open(path, "w", encoding="utf-8") as fh:
            for st in threads:
                for span in st["spans"]:
                    fh.write(json.dumps(span) + "\n")
