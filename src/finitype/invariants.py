"""Exact polynomial invariants of oriented diagrams.

jones
    Kauffman bracket by planar tangle contraction (crossings added one at
    a time, one polynomial per boundary matching), writhe-corrected,
    returned as a Laurent polynomial in q with the unknot normalized to 1.
conway
    Conway polynomial in z by the skein relation
    nabla(L+) - nabla(L-) = z * nabla(L0), with descending diagrams and
    split diagrams as base cases.
c2, j3
    The degree-2 coefficient of conway and the x^3 coefficient of
    jones(e^x); the first two nontrivial perturbative coefficients.
linking_matrix
    Symmetric matrix of pairwise linking numbers of link components.

All computations are exact (Fractions / integer-exponent Laurent maps).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .diagram import Diagram, FormalSum, _ArcUnion, switch_crossing
from .exact_math import LaurentPoly

__all__ = [
    "InvariantError",
    "kauffman_bracket",
    "jones",
    "conway",
    "c2",
    "j3",
    "linking_matrix",
    "Invariant",
    "invariant_names",
    "get_invariant",
    "evaluate_on_sum",
]


class InvariantError(ValueError):
    """Raised when an invariant is evaluated outside its domain."""


# ---------------------------------------------------------------------------
# Kauffman bracket / Jones


# delta^k as (exponent, coefficient) pairs, for the 0, 1 or 2 loops that
# one crossing can close
_DELTA_POWERS = (((0, 1),), ((2, -1), (-2, -1)), ((4, 1), (0, 2), (-4, 1)))
_DELTA = LaurentPoly("A", {2: Fraction(-1), -2: Fraction(-1)})


def _join(ends: dict[int, int], x: int, y: int) -> int:
    """Join arcs x and y by a strand inside the tangle; 1 if a loop closes.

    ends maps each arc on the open boundary to the arc at the other end of
    its strand through the tangle; an arc not in ends is met for the first
    time and becomes a boundary end.
    """
    if x == y:  # both ends of one arc at this crossing
        return 1
    ex = ends.pop(x, x)
    if ex == y:
        del ends[y]
        return 1
    ey = ends.pop(y, y)
    ends[ex] = ey
    ends[ey] = ex
    return 0


def kauffman_bracket(d: Diagram) -> tuple[LaurentPoly, int]:
    """Bracket polynomial in the variable A by planar tangle contraction.

    Crossings join the tangle one at a time, each step taking the crossing
    with the most slots on the open boundary (ties to the lower index).
    The tangle is a map from each matching of its boundary arcs to an
    integer polynomial in A, and a crossing's A- and B-smoothing extend
    every matching.  Each loop that closes multiplies by
    delta = -A^2 - A^-2, except the loop that leaves the boundary empty,
    one per connected piece; free loops and pieces then enter as one
    power delta^(free loops + pieces - 1), the usual loops - 1
    normalisation.

    Returns (bracket, work), where work counts the (matching, smoothing)
    steps: twice the number of matchings summed over the crossings.
    """
    quads = [x.slots for x in d.crossings]
    left = list(range(len(quads)))
    boundary: set[int] = set()
    order: tuple[int, ...] = ()
    table: dict[tuple[int, ...], dict[int, int]] = {(): {0: 1}}
    pieces = work = 0
    while left:
        i = max(left, key=lambda j: sum(s in boundary for s in quads[j]))
        left.remove(i)
        a, b, c, dd = quads[i]
        for s in quads[i]:
            boundary ^= {s}
        new_order = tuple(sorted(boundary))
        closes_piece = not boundary
        pieces += closes_piece
        work += 2 * len(table)
        new: dict[tuple[int, ...], dict[int, int]] = {}
        for key, poly in table.items():
            for x1, y1, x2, y2, shift in ((a, b, c, dd, 1), (a, dd, b, c, -1)):
                ends = dict(zip(order, key))
                loops = _join(ends, x1, y1) + _join(ends, x2, y2) - closes_piece
                acc = new.setdefault(tuple([ends[s] for s in new_order]), {})
                for e, k in poly.items():
                    for f, g in _DELTA_POWERS[loops]:
                        acc[e + f + shift] = acc.get(e + f + shift, 0) + k * g
        table, order = new, new_order
    (poly,) = table.values()
    return LaurentPoly("A", poly) * _DELTA ** (d.free_loops + pieces - 1), work


def jones(d: Diagram) -> LaurentPoly:
    """Jones polynomial in q, unknot -> 1, via the writhe-corrected bracket.

    The substitution A = q^(-1/4) only lands in integer powers of q when the
    diagram has an odd number of components (in particular for knots); other
    inputs are rejected rather than returning fractional exponents.
    """
    bracket, _ = kauffman_bracket(d)
    w = d.writhe
    # (-A^3)^(-w) * bracket
    corr = LaurentPoly("A", {-3 * w: Fraction(-1) if w % 2 else Fraction(1)})
    f = corr * bracket
    terms = {}
    for e, c in f.terms.items():
        if e % 4 != 0:
            raise InvariantError(
                "jones value has fractional q-exponents "
                f"({d.n_components} components); only odd component counts supported"
            )
        terms[-e // 4] = c
    return LaurentPoly("q", terms)


# ---------------------------------------------------------------------------
# Conway polynomial


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


def _smooth_oriented(d: Diagram, i: int) -> Diagram:
    """Orientation-respecting smoothing of crossing i."""
    x = d.crossings[i]
    a, b, c, dd = x.slots
    arcs = d.arcs()
    uf = _ArcUnion(arcs)
    if x.sign > 0:
        uf.union(a, b)
        uf.union(dd, c)
    else:
        uf.union(a, dd)
        uf.union(b, c)
    rest = [y for j, y in enumerate(d.crossings) if j != i]
    used = {uf.find(s) for y in rest for s in y.slots}
    reps = {uf.find(arc) for arc in arcs}
    new_free = d.free_loops + len([r for r in reps if r not in used])
    relabel = {r: k + 1 for k, r in enumerate(sorted(used))}
    new_crossings = [y.relabel({s: relabel[uf.find(s)] for s in y.slots}) for y in rest]
    return Diagram(new_crossings, new_free)


def conway(d: Diagram) -> LaurentPoly:
    """Conway polynomial in z.

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


# ---------------------------------------------------------------------------
# coefficient extractions


def c2(d: Diagram) -> Fraction:
    """Coefficient of z^2 in the Conway polynomial (knots only)."""
    if d.n_components != 1:
        raise InvariantError("c2 is defined for knots (single component)")
    return conway(d).coefficient(2)


def j3(d: Diagram) -> Fraction:
    """Coefficient of x^3 in jones evaluated at q = e^x (knots only).

    Each term c*q^e contributes c*e^3/3! to that coefficient.
    """
    if d.n_components != 1:
        raise InvariantError("j3 is defined for knots (single component)")
    return sum(c * e**3 for e, c in jones(d).terms.items()) / 6


def linking_matrix(d: Diagram) -> list[list[int]]:
    """Pairwise linking numbers; entry (i,j) is half the signed sum of the
    crossings between components i and j.  Diagonal entries are 0."""
    if d.n_components < 2:
        raise InvariantError("linking matrix needs at least 2 components")
    n = len(d.components)
    if d.free_loops:
        n += d.free_loops  # free loops link nothing
    acc = [[0] * n for _ in range(n)]
    for i in range(d.n_crossings):
        cu, co = d.crossing_components(i)
        if cu != co:
            s = d.crossings[i].sign
            acc[cu][co] += s
            acc[co][cu] += s
    for i in range(n):
        for j in range(n):
            if acc[i][j] % 2:
                raise InvariantError("odd inter-component crossing sum")
            acc[i][j] //= 2
    return acc


# ---------------------------------------------------------------------------
# registry / linear extension


@dataclass(frozen=True)
class Invariant:
    """A named exact invariant with a zero element for linear extension."""

    name: str
    fn: Callable[[Diagram], object]
    zero: object

    def __call__(self, d: Diagram):
        return self.fn(d)


_REGISTRY: dict[str, Invariant] = {}


def _register(inv: Invariant) -> Invariant:
    _REGISTRY[inv.name] = inv
    return inv


JONES = _register(Invariant("jones", jones, LaurentPoly.zero("q")))
CONWAY = _register(Invariant("conway", conway, LaurentPoly.zero("z")))
C2 = _register(Invariant("c2", c2, Fraction(0)))
J3 = _register(Invariant("j3", j3, Fraction(0)))


def invariant_names() -> list[str]:
    return sorted(_REGISTRY)


def get_invariant(name: str) -> Invariant:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise InvariantError(
            f"unknown invariant {name!r}; choose from {', '.join(invariant_names())}"
        ) from None


def evaluate_on_sum(inv: Invariant, s: FormalSum):
    """Linear extension: evaluate the invariant on a formal sum of diagrams."""
    acc = inv.zero
    for dgm, coeff in s.terms():
        acc = acc + inv.fn(dgm) * coeff
    return acc
