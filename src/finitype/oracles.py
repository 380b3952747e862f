"""Independent re-implementations used to cross-check the main code paths.

These deliberately take different algorithmic routes:

* bracket_state_sum enumerates all 2^c smoothings, with a fresh union-find
  over the arcs for each state, instead of contracting the planar tangle
  crossing by crossing as invariants.kauffman_bracket does;
* conway_skein expands the Conway skein relation down to descending and
  split diagrams, instead of taking an Alexander determinant for knots and
  layering link components as invariants.conway does;
* count_diagrams_burnside counts chord-diagram rotation orbits by the
  orbit-counting lemma instead of canonical-form deduplication.

The selftest and the test suite require these to agree with the primary
implementations on the bundled tables.  The skein tree is exponential in
the number of crossings, so it is only run on small diagrams.
"""

from __future__ import annotations

from fractions import Fraction

from .diagram import Diagram, _ArcUnion, switch_crossing
from .exact_math import LaurentPoly
from .invariants import _smooth_oriented

__all__ = [
    "bracket_state_sum",
    "conway_skein",
    "count_diagrams_burnside",
]


def bracket_state_sum(d: Diagram) -> tuple[LaurentPoly, int]:
    """Bracket polynomial in the variable A by full state enumeration.

    Returns (bracket, number of states visited); the state count is always
    exactly 2^c, which tests assert.
    """
    arcs = d.arcs()
    n = d.n_crossings
    delta = LaurentPoly("A", {2: Fraction(-1), -2: Fraction(-1)})
    total = LaurentPoly.zero("A")
    states = 0
    for mask in range(1 << n):
        states += 1
        uf = _ArcUnion(arcs)
        exp = 0
        for i, x in enumerate(d.crossings):
            a, b, c, dd = x.slots
            if mask >> i & 1:  # B-smoothing
                uf.union(a, dd)
                uf.union(b, c)
                exp -= 1
            else:  # A-smoothing
                uf.union(a, b)
                uf.union(c, dd)
                exp += 1
        loops = uf.count + d.free_loops
        total = total + (delta ** (loops - 1)).shift(exp)
    return total, states


def _passages(d: Diagram) -> list[tuple[int, bool]]:
    """Crossing passages in traversal order as (crossing index, is_over),
    every component starting at its minimal arc."""
    where: dict[int, tuple[int, bool]] = {}
    for i, x in enumerate(d.crossings):
        where[x.under_in] = (i, False)
        where[x.over_in] = (i, True)
    return [where[arc] for comp in d.components for arc in comp]


def _first_bad(d: Diagram) -> int | None:
    seen: set[int] = set()
    for i, over in _passages(d):
        if i not in seen:
            seen.add(i)
            if not over:
                return i
    return None


def conway_skein(d: Diagram) -> LaurentPoly:
    """Conway polynomial in z by the skein relation
    nabla(L+) - nabla(L-) = z * nabla(L0).

    Base cases: split diagrams give 0, descending diagrams give 1 for a
    knot and 0 for a multi-component link.  One skein step walks the whole
    switch chain toward the descending diagram iteratively and recurses
    only into smoothings; each smoothing removes a crossing, so the
    recursion is at most c deep.
    """
    z = LaurentPoly.monomial("z", 1)

    def nabla(cur: Diagram) -> LaurentPoly:
        acc = LaurentPoly.zero("z")
        while True:
            if not cur.is_connected():
                return acc
            bad = _first_bad(cur)
            if bad is None:
                if cur.n_components == 1:
                    return acc + LaurentPoly.constant("z", 1)
                return acc
            sign = cur.crossings[bad].sign
            smoothed = _smooth_oriented(cur, bad)
            acc = acc + z * nabla(smoothed).scale(sign)
            cur = switch_crossing(cur, bad)

    return nabla(d)


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
