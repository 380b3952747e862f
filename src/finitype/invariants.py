"""Exact polynomial invariants of oriented diagrams.

jones
    Kauffman bracket by planar tangle contraction (crossings added one at
    a time, one polynomial per boundary matching), writhe-corrected,
    returned as a Laurent polynomial in q with the unknot normalized to 1.
conway
    Conway polynomial in z.  Knots: the Alexander matrix of the Wirtinger
    arcs, one exact integer determinant at a large power of two, read
    back as the coefficients of Delta(t) and rewritten in z^2 = t - 2 +
    t^-1.  Links: the skein relation nabla(L+) - nabla(L-) = z * nabla(L0)
    layers the components until the diagram is split, and recurses on the
    smoothings, which have one component fewer.
c2, j3
    The degree-2 coefficient of conway and the x^3 coefficient of
    jones(e^x); the first two nontrivial perturbative coefficients.
linking_matrix
    Symmetric matrix of pairwise linking numbers of link components.

All computations are exact (integers, Fractions, integer-exponent Laurent
maps).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Callable

from .diagram import Crossing, Diagram, FormalSum, _glue, switch_crossing
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


def _smooth_oriented(d: Diagram, i: int) -> Diagram:
    """Orientation-respecting smoothing of crossing i."""
    x = d.crossings[i]
    a, b, c, dd = x.slots
    joins = ((a, b), (dd, c)) if x.sign > 0 else ((a, dd), (b, c))
    rest = d.crossings[:i] + d.crossings[i + 1 :]
    quads, loops = _glue(d.arcs(), joins, [y.slots for y in rest])
    return Diagram([Crossing(q, y.sign) for q, y in zip(quads, rest)], d.free_loops + loops)


def _det(m: list[list[int]]) -> int:
    """Exact integer determinant by fraction-free (Bareiss) elimination.

    A row with 0 in the pivot column would only be rescaled by
    pivot / previous pivot, so that step is deferred: base[i] is the pivot
    that row i's entries are currently over, and each division is exact.
    """
    n = len(m)
    sign, prev = 1, 1
    base = [1] * n
    for k in range(n - 1):
        if not m[k][k]:
            r = next((r for r in range(k + 1, n) if m[r][k]), None)
            if r is None:
                return 0
            m[k], m[r] = m[r], m[k]
            base[k], base[r] = base[r], base[k]
            sign = -sign
        top = m[k]
        if base[k] != prev:
            top = [a * prev // base[k] for a in top]
        pivot = top[k]
        for i in range(k + 1, n):
            rk = m[i][k]
            if rk:
                b = base[i]
                m[i] = [(pivot * x - rk * y) // b for x, y in zip(m[i], top)]
                base[i] = pivot
        prev = pivot
    return sign * m[-1][-1] * prev // base[-1] if n else 1


def _alexander(d: Diagram) -> list[int]:
    """Alexander polynomial of a knot diagram with c >= 1 crossings.

    Returns its coefficients from t^0 up, with the t^k factor stripped and
    the sign fixed so that Delta(1) = 1.  The minor of the Alexander matrix
    is one integer determinant at t = 2^B, B = 2c + 8: every row's entries
    have coefficient l1-norm at most 4, so each coefficient of the minor
    is below 4^(c-1) in absolute value and is one signed base-2^B digit.
    """
    # Wirtinger arcs 1..c: the PD arcs glued through each over-passage
    joins = [(x.over_in, x.over_out) for x in d.crossings]
    quads, _ = _glue(d.arcs(), joins, [x.slots for x in d.crossings])
    n = d.n_crossings
    bits = 2 * n + 8
    t = 1 << bits
    rows = []
    for x, (a, b, c, e) in zip(d.crossings[:-1], quads):  # drop the last row and column
        over, into, out = (e, a, c) if x.sign > 0 else (b, c, a)
        row = [0] * n
        row[over - 1] += 1 - t
        row[into - 1] += t
        row[out - 1] -= 1
        rows.append(row[:-1])
    det = _det(rows)
    coeffs = []
    while det:
        digit = det % t
        if digit >= t >> 1:
            digit -= t
        coeffs.append(digit)
        det = (det - digit) >> bits
    while not coeffs[0]:
        coeffs.pop(0)
    sign = sum(coeffs)
    return [sign * a for a in coeffs]


def _conway_knot(d: Diagram) -> LaurentPoly:
    """Conway polynomial of a knot from its symmetric Alexander polynomial.

    Delta(t) = a_0 + sum_j a_j (t^j + t^-j), and t^j + t^-j = T_j(u) with
    u = t + t^-1 follows T_{j+1} = u T_j - T_{j-1}; the recursion runs
    directly in w = z^2 = u - 2.
    """
    if not d.n_crossings:
        return LaurentPoly.constant("z", 1)
    coeffs = _alexander(d)
    m = len(coeffs) // 2
    acc = [coeffs[m]]
    prev, cur = [2], [2, 1]  # T_0 = 2 and T_1 = u = w + 2, as lists in w
    for a in coeffs[m + 1:]:
        acc = [x + a * y for x, y in zip_longest(acc, cur, fillvalue=0)]
        prev, cur = cur, [
            x + 2 * y - p for x, y, p in zip_longest([0] + cur, cur, prev, fillvalue=0)
        ]
    return LaurentPoly("z", {2 * k: c for k, c in enumerate(acc)})


def conway(d: Diagram) -> LaurentPoly:
    """Conway polynomial in z.

    Knots go through their Alexander polynomial in one exact integer
    determinant.  Links are layered down to knots by the skein relation
    nabla(L+) - nabla(L-) = z * nabla(L0): wherever a lower-index
    component passes under a higher-index one, the smoothing's term is
    added and the crossing is switched.  The layered diagram that remains
    is split and contributes 0, and each smoothing merges two components,
    so the recursion ends at knots after mu - 1 levels; its cost grows
    like c^(mu - 1).  Free loops next to other components give 0.
    """
    if d.n_components == 1:
        return _conway_knot(d)
    acc = LaurentPoly.zero("z")
    if d.free_loops:
        return acc
    z = LaurentPoly.monomial("z", 1)
    cur = d
    for i, x in enumerate(d.crossings):
        under, over = d.crossing_components(i)
        if under < over:
            acc = acc + z * conway(_smooth_oriented(cur, i)).scale(x.sign)
            cur = switch_crossing(cur, i)
    return acc


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
