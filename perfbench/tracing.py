"""Spans and counters around finitype's public functions, from outside.

The tracer replaces library callables with wrappers for the length of a
traced run and puts the originals back afterwards.  A function is
replaced wherever it can be looked up: on its module, on the package, and
on every finitype module that imported it with ``from .x import y``.
Registry invariants capture their function by reference, so they are
rebuilt around the wrapper.  Methods are replaced on their class.

Spans (id, parent id, name, start, end) stay in memory until the run
ends; a layer's self time is its spans' durations minus the part covered
by their child spans.  Hot methods get a call counter and no span.
"""

from __future__ import annotations

import dataclasses
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


def _finitype_modules() -> list:
    return [
        m for name, m in sorted(sys.modules.items())
        if m is not None and (name == "finitype" or name.startswith("finitype."))
    ]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counts: Counter = Counter()
        self.keys: set[str] = set()
        self._stack = [0]
        self._next_id = 1
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(sid)
        t0 = perf_counter()
        try:
            yield
        finally:
            t1 = perf_counter()
            self._stack.pop()
            self.spans.append((sid, parent, name, t0, t1))

    def _spanned(self, fn, name: str, after=None):
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace_function(self, original, wrapper) -> None:
        for mod in _finitype_modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._set(mod, attr, wrapper)

    def _replace_method(self, cls, attrs, make) -> None:
        """Wrap cls.<attr> for each attr; aliases of one function share a wrapper."""
        made: dict[int, object] = {}
        for attr in attrs:
            raw = cls.__dict__[attr]
            fn = raw.__func__ if isinstance(raw, classmethod) else raw
            if id(fn) not in made:
                made[id(fn)] = make(fn)
            wrapped = made[id(fn)]
            self._set(cls, attr, classmethod(wrapped) if isinstance(raw, classmethod) else wrapped)

    def install(self, ft) -> None:
        """Wrap every traced finitype callable; run.py names the metrics they feed."""
        d, inv, em, va, go, ca = (
            ft.diagram, ft.invariants, ft.exact_math, ft.vassiliev, ft.goussarov, ft.chord_algebra,
        )
        c = self.counts

        def add(metric, amount):
            c[metric] += amount

        def spanned_fn(module, attr, name, after=None):
            original = getattr(module, attr)
            self._replace_function(original, self._spanned(original, name, after))

        def spanned_method(cls, attrs, name, after=None):
            self._replace_method(cls, attrs, lambda f: self._spanned(f, name, after))

        def counted_method(cls, attrs, name):
            self._replace_method(cls, attrs, lambda f: self._counted(f, name))

        def on_key(args, key):
            self.keys.add(key)

        def formal_sum_init(fn):
            """FormalSum.__init__ spanned, counting the terms it is given."""
            inner = self._spanned(
                fn, "diagram.FormalSum", lambda a, r: add("diagram.FormalSum.terms_in", len(a[1]))
            )

            def init(self_, terms=()):
                return inner(self_, list(terms))

            init.__wrapped__ = fn
            return init

        def on_rank(args, result):
            add("exact_math.SparseMatrix.rank.rows", args[0].nrows)
            add("exact_math.SparseMatrix.rank.nnz", len(args[0].entries))

        def on_difference(args, result):
            add("vassiliev.difference_sum.terms_out", len(result))
            add("vassiliev.difference_sum.terms_max", 1 << len(args[1]))

        # diagram
        spanned_fn(d, "parse_pd", "diagram.parse_pd")
        spanned_method(d.Diagram, ["canonical_key"], "diagram.canonical_key", on_key)
        spanned_method(d.SingularDiagram, ["canonical_key"], "diagram.canonical_key", on_key)
        counted_method(d.Diagram, ["__init__"], "diagram.Diagram.builds")
        self._replace_method(d.FormalSum, ["__init__"], formal_sum_init)
        spanned_method(
            d.FormalSum, ["__add__", "__sub__", "scale", "map_terms", "terms"], "diagram.FormalSum"
        )
        original = d.switch_crossing
        self._replace_function(original, self._counted(original, "diagram.switch_crossing.calls"))

        # invariants
        spanned_fn(inv, "kauffman_bracket", "invariants.kauffman_bracket",
                   lambda a, r: add("invariants.kauffman_bracket.states", r[1]))
        spanned_fn(inv, "jones", "invariants.jones")
        spanned_fn(inv, "conway", "invariants.conway")
        spanned_fn(inv, "evaluate_on_sum", "invariants.evaluate_on_sum",
                   lambda a, r: add("invariants.evaluate_on_sum.terms", len(a[1])))
        self._wrap_registry(inv)

        # exact_math
        counted_method(em.LaurentPoly, ["__mul__", "__rmul__"], "exact_math.LaurentPoly.mul.calls")
        counted_method(em.LaurentPoly, ["__pow__"], "exact_math.LaurentPoly.pow.calls")
        spanned_method(em.SparseMatrix, ["rank"], "exact_math.SparseMatrix.rank", on_rank)

        # vassiliev
        spanned_fn(va, "difference_sum", "vassiliev.difference_sum", on_difference)
        spanned_fn(va, "resolve_all", "vassiliev.resolve_all")

        # goussarov
        spanned_method(go.DetourFamily, ["__init__"], "goussarov.DetourFamily",
                       lambda a, r: add("goussarov.DetourFamily.resolutions", 1 << a[0].m))
        spanned_fn(go, "goussarov_difference", "goussarov.goussarov_difference")
        for attr in ("encode_crossing_as_detours", "switch_family", "encode_singular_as_bracelet"):
            spanned_fn(go, attr, "goussarov.encode")

        # chord_algebra
        spanned_fn(ca, "enumerate_diagrams", "chord_algebra.enumerate_diagrams",
                   lambda a, r: add("chord_algebra.enumerate_diagrams.diagrams", len(r)))
        spanned_fn(ca, "generate_4t", "chord_algebra.generate_4t",
                   lambda a, r: add("chord_algebra.generate_4t.rows", len(r)))
        spanned_fn(ca, "generate_fi", "chord_algebra.generate_fi")
        spanned_fn(ca, "dim_a", "chord_algebra.dim_a")
        counted_method(ca.ChordDiagram, ["from_word"], "chord_algebra.ChordDiagram.from_word.calls")

    def _wrap_registry(self, inv) -> None:
        """Rebuild registry invariants whose function is now wrapped."""
        for name, entry in list(inv._REGISTRY.items()):
            wrapped = getattr(inv, entry.fn.__name__, entry.fn)
            if wrapped is entry.fn:
                continue
            replacement = dataclasses.replace(entry, fn=wrapped)
            self._patches.append((inv._REGISTRY, name, entry))
            inv._REGISTRY[name] = replacement
            self._replace_function(entry, replacement)

    def remove(self) -> None:
        """Put back every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- analysis -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus time covered by child spans."""
        child_time: dict[int, float] = defaultdict(float)
        for _, parent, _, t0, t1 in self.spans:
            child_time[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for sid, _, name, t0, t1 in self.spans:
            out[name] += (t1 - t0) - child_time[sid]
        return dict(out)

    def calls(self) -> Counter:
        return Counter(name for _, _, name, _, _ in self.spans)
