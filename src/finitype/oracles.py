"""Independent re-implementations used to cross-check the main code paths.

These deliberately take different algorithmic routes:

* jones_recursive resolves crossings one at a time (skein-tree over
  smoothings with delooping), instead of enumerating all 2^c states;
* count_diagrams_burnside counts chord-diagram rotation orbits by the
  orbit-counting lemma instead of canonical-form deduplication.

The selftest and the test suite require these to agree with the primary
implementations on the bundled tables.  Conway has no second route here:
it is checked against published polynomials instead.
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import Diagram
from .exact_math import LaurentPoly
from .invariants import InvariantError

__all__ = [
    "bracket_recursive",
    "jones_recursive",
    "count_diagrams_burnside",
]

_DELTA = LaurentPoly("A", {2: Fraction(-1), -2: Fraction(-1)})


def _smooth_raw(quads: list[tuple[int, int, int, int]], free: int, pairs):
    """Join the two arc pairs of a removed crossing in a raw quad list."""
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in pairs:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    rest = [tuple(find(s) for s in q) for q in quads]
    used = {s for q in rest for s in q}
    roots = {find(x) for x in parent}
    free += len(roots - used)
    return rest, free


def bracket_recursive(quads, free: int = 0) -> LaurentPoly:
    """Kauffman bracket of a raw (unoriented) crossing list."""
    if not quads:
        return _DELTA ** (free - 1) if free else LaurentPoly.constant("A", 1)
    a, b, c, d = quads[0]
    rest = quads[1:]
    qa, fa = _smooth_raw(rest, free, [(a, b), (c, d)])
    qb, fb = _smooth_raw(rest, free, [(a, d), (b, c)])
    return bracket_recursive(qa, fa).shift(1) + bracket_recursive(qb, fb).shift(-1)


def jones_recursive(d: Diagram) -> LaurentPoly:
    """Jones polynomial via the recursive bracket."""
    br = bracket_recursive([x.slots for x in d.crossings], d.free_loops)
    w = d.writhe
    f = LaurentPoly("A", {-3 * w: Fraction(-1) if w % 2 else Fraction(1)}) * br
    terms = {}
    for e, coeff in f.terms.items():
        if e % 4 != 0:
            raise InvariantError("fractional q-exponents in jones_recursive")
        terms[-e // 4] = coeff
    return LaurentPoly("q", terms)


def count_diagrams_burnside(n: int) -> int:
    """Rotation orbits of chord matchings on 2n points, by orbit counting.

    Averages, over all 2n rotations, the number of perfect matchings each
    rotation fixes.  Must equal len(enumerate_diagrams(n)).
    """
    from .chord_algebra import _matchings

    if n == 0:
        return 1
    size = 2 * n
    all_matchings = [
        frozenset(frozenset(p) for p in m)
        for m in _matchings(tuple(range(size)))
    ]
    total = 0
    for s in range(size):
        for m in all_matchings:
            shifted = frozenset(
                frozenset(((i + s) % size, (j + s) % size)) for i, j in m
            )
            if shifted == m:
                total += 1
    assert total % size == 0
    return total // size
