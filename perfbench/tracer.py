"""Run-time tracing of the library's layers, installed from outside ``src/``.

``Tracer.install`` replaces every public function, public method and
constructor of the layer modules with a wrapper that records a span (name,
start, end, parent span, op id), in every module namespace that refers to
it, so calls between modules are traced at the callee.  ``uninstall`` puts
the originals back.  Spans stay in memory until ``write_spans``.

Per span name the tracer aggregates:

* ``calls`` and ``total_s``: outermost invocations only, so a function that
  re-enters itself (``find_isomorphism`` swapping direction) counts once;
* ``self_s``: span time not covered by child spans, summed over all spans;
* named counters taken from outermost results or exceptions (``COUNTERS``).

A generator function is traced per resume: each ``next`` is a span, so the
time spent inside it is charged to it and not to its consumer; ``calls``
counts generators started.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from types import FunctionType

LAYERS = ("corpus", "morse", "isomorphism", "reconstruction", "complexes",
          "formats", "cli")

# Accessors called per element inside the layers' own loops.  Each does less
# work than a wrapper adds, so they stay unwrapped and their time is charged
# to the caller's self time.
LEAF = frozenset({
    "complexes.immediate_faces",
    "complexes.SimplicialComplex.to_ids",
    "complexes.SimplicialComplex.to_labels",
    "complexes.SimplicialComplex.has",
    "complexes.SimplicialComplex.has_labels",
    "complexes.SimplicialComplex.degree",
    "complexes.SimplicialComplex.edges",
    "complexes.SimplicialComplex.label_simplices",
    "complexes.SimplicialComplex.label_facets",
    "complexes.Multigraph.endpoints",
    "complexes.Multigraph.edges_between",
    "complexes.Multigraph.multiplicity",
    "complexes.Multigraph.degree",
    "complexes.VertexBijection.map_face",
    "complexes.VertexBijection.items",
    "complexes.VertexBijection.inverse",
    "morse.Budget.deadline",
    "morse.RegularPair.cells",
    "morse.MorseComplex.pair_of_id",
    "morse.MorseComplex.id_of_pair",
    "morse.MorseComplex.index_of_pair",
    "morse.MorseComplex.pair_table",
    "reconstruction.MorseIso.inverse_of",
    "reconstruction.MorseIso.as_pair_id_bijection",
})


# span name -> function of the outermost result giving counter increments
COUNTERS = {
    "morse.MorseComplex.minimal_nonfaces": lambda r: {"nonfaces": len(r)},
    "morse.MorseComplex.facet_count": lambda r: {"facets": r},
    "morse.MorseComplex.facets": lambda r: {"listed": len(r)},
    "morse.MorseComplex.faces": lambda r: {"faces": len(r)},
    "isomorphism.find_isomorphism":
        lambda r: {"negatives": 1} if r is None else {"positives": 1},
    "reconstruction.quotient": lambda r: {"classes": len(r.classes)},
    "formats.serialize_morse_complex": lambda r: {"bytes": len(r.encode())},
    "cli.main": lambda r: {"exit_2": 1} if r == 2 else {},
}

# span name -> (exception class name, counter) for outermost raises
ERROR_COUNTERS = {
    "morse.MorseComplex.dimension": ("EnumerationBudgetError", "budget_errors"),
}

class Stat:
    __slots__ = ("calls", "total_s", "self_s", "counters")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters: dict[str, int] = {}

    def count(self, name: str, by: int = 1):
        self.counters[name] = self.counters.get(name, 0) + by


class Tracer:
    def __init__(self):
        # finished spans as (id, parent id, op, name, start, end): tuples of
        # atomic values, which the garbage collector stops tracking, so a
        # large trace does not slow the collections of the code under test
        self.spans: list[tuple] = []
        self.stack: list[list] = []  # open spans: [id, parent, op, name, start, child time]
        self.op = -1  # -1 while setting up
        self.stats: dict[str, Stat] = {}
        self._ids = 0
        self._depth: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping ---------------------------------------------------

    def _stat(self, name: str) -> Stat:
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
            self._depth[name] = 0
        return st

    def _enter(self, name: str):
        self._depth[name] += 1
        parent = self.stack[-1][0] if self.stack else -1
        self.stack.append([self._ids, parent, self.op, name, time.perf_counter(), 0.0])
        self._ids += 1

    def _exit(self, name: str, result=None, error=None, resume=False):
        end = time.perf_counter()
        sid, parent, op, _, start, child = self.stack.pop()
        self.spans.append((sid, parent, op, name, start, end))
        dur = end - start
        if self.stack:
            self.stack[-1][5] += dur
        st = self.stats[name]
        st.self_s += dur - child
        self._depth[name] -= 1
        if self._depth[name]:
            return
        st.total_s += dur
        if resume:
            return
        st.calls += 1
        if error is not None:
            rule = ERROR_COUNTERS.get(name)
            if rule is not None and type(error).__name__ == rule[0]:
                st.count(rule[1])
        elif name in COUNTERS:
            for key, by in COUNTERS[name](result).items():
                st.count(key, by)

    def unwind(self):
        """Close every open span, after an op was cut off by its time limit."""
        while self.stack:
            self._exit(self.stack[-1][3], error=TimeoutError())
        for name in self._depth:
            self._depth[name] = 0

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn):
        self._stat(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException as e:
                tracer._exit(name, error=e)
                raise
            tracer._exit(name, result)
            return result

        return traced

    def _wrap_generator(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = fn(*args, **kwargs)
            st = tracer.stats[name]
            st.calls += 1
            while True:
                tracer._enter(name)
                try:
                    value = next(it)
                except StopIteration:
                    tracer._exit(name, resume=True)
                    return
                except BaseException as e:
                    tracer._exit(name, error=e, resume=True)
                    raise
                tracer._exit(name, resume=True)
                st.count("yields")
                yield value

        return traced

    # -- installation -------------------------------------------------------

    def install(self, package: str = "morsecomplex"):
        """Wrap the layer modules of an imported package."""
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if isinstance(obj, type):
                    if obj.__module__ == mod.__name__:
                        self._install_class(layer, mod, obj)
                    continue
                name = f"{layer}.{attr}"
                if (callable(obj) and getattr(obj, "__module__", None) == mod.__name__
                        and name not in LEAF):
                    replace[id(obj)] = (obj, self._wrap(name, obj))
        # rebind every reference, so imports between modules see the wrapper
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != package and not mod_name.startswith(package + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

    def _install_class(self, layer: str, mod, cls):
        for attr, raw in list(vars(cls).items()):
            if attr == "__init__":
                if (isinstance(raw, FunctionType)
                        and raw.__code__.co_filename == mod.__file__):
                    self._patch(cls, attr, self._wrap(f"{layer}.{cls.__name__}", raw))
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("_") or name in LEAF:
                continue
            if isinstance(raw, FunctionType):
                self._patch(cls, attr, self._wrap(name, raw))
            elif isinstance(raw, (classmethod, staticmethod)):
                self._patch(cls, attr, type(raw)(self._wrap(name, raw.__func__)))

    def _patch(self, owner, attr: str, new):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def uninstall(self):
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- output -------------------------------------------------------------

    def write_spans(self, path, t0: float):
        """One span per line: id, parent, op, name, start and end in seconds
        since ``t0``."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\top\tname\tstart_s\tend_s\n")
            for sid, parent, op, name, start, end in sorted(self.spans):
                fh.write(f"{sid}\t{parent}\t{op}\t{name}\t"
                         f"{start - t0:.9f}\t{end - t0:.9f}\n")
