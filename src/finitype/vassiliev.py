"""Iterated differences over crossing switches and the finite-type test.

A marked double point stands for (positive resolution) - (negative
resolution).  resolve_once peels one double point into that two-term sum;
resolve_all expands all of them at once into a 2^n-term signed sum of
ordinary diagrams; vassiliev_difference is the equivalent alternating sum
over switch subsets of a plain diagram.  An invariant is finite-type of
degree n on a corpus when every (n+1)-fold difference vanishes exactly;
vassiliev_type_check reports this with witnesses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .diagram import Diagram, FormalSum, SingularDiagram, switch_crossing
from .invariants import Invariant, evaluate_on_sum

__all__ = [
    "resolve_once",
    "resolve_all",
    "vassiliev_difference",
    "difference_sum",
    "TypeCheckCase",
    "TypeCheckReport",
    "vassiliev_type_check",
]


def resolve_once(k: SingularDiagram, d: int) -> FormalSum:
    """(k with double point d resolved +) - (k resolved -), one point only.

    Both terms are SingularDiagrams with the remaining double points still
    marked.  Raises ValueError if d is not a marked index of k.
    """
    if d not in k.marked:
        raise ValueError(f"crossing {d} is not a double point of this diagram")
    rest = k.marked - {d}
    flipped = switch_crossing(k.diagram, d)
    if k.diagram.crossings[d].sign > 0:
        plus, minus = k.diagram, flipped
    else:
        plus, minus = flipped, k.diagram
    return FormalSum([(SingularDiagram(plus, rest), 1), (SingularDiagram(minus, rest), -1)])


def resolve_all(k: SingularDiagram) -> FormalSum:
    """Full expansion: sum over sign patterns e of (prod e) * k_e.

    The result is a FormalSum of plain Diagrams with 2^n terms before
    cancellation; it equals any composition order of resolve_once, which is
    what makes the once-differenced classes well defined.  Switching the
    marked crossings of the stored diagram walks the same cube, so this is
    the switch difference_sum at the marked crossings times the product of
    their stored signs.
    """
    points = sorted(k.marked)
    sign = math.prod(k.diagram.crossings[i].sign for i in points)
    return difference_sum(k.diagram, points).scale(sign)


def difference_sum(k: Diagram, crossings: Sequence[int]) -> FormalSum:
    """Signed sum over subsets S of `crossings`: (-1)^|S| * (k switched at S).

    The cube is expanded one crossing at a time: every term so far gains a
    switched copy with the opposite sign, so 2^p - 1 switches build all 2^p
    terms.
    """
    idx = list(crossings)
    if len(set(idx)) != len(idx):
        raise ValueError("crossing indices must be distinct")
    for i in idx:
        if not 0 <= i < k.n_crossings:
            raise ValueError(f"crossing index {i} out of range")
    terms = [(k, 1)]
    for i in idx:
        terms += [(switch_crossing(d, i), -c) for d, c in terms]
    return FormalSum(terms)


def vassiliev_difference(k: Diagram, crossings: Sequence[int], inv: Invariant):
    """Alternating sum of inv over the 2^m switch subsets of `crossings`.

    Equal diagrams are merged before evaluation, so invariants run once per
    distinct canonical form.  m = 0 returns inv(k).
    """
    return evaluate_on_sum(inv, difference_sum(k, crossings))


@dataclass(frozen=True)
class TypeCheckCase:
    label: str
    crossings: tuple[int, ...] | None
    value: object
    ok: bool


@dataclass(frozen=True)
class TypeCheckReport:
    """Outcome of a corpus-based finite-type test.

    passed means every iterated difference was exactly zero; this certifies
    nothing beyond the supplied corpus ("no counterexample found").
    """

    invariant: str
    degree: int
    cases: tuple[TypeCheckCase, ...]

    @property
    def passed(self) -> bool:
        return all(c.ok for c in self.cases)

    def lines(self) -> list[str]:
        out = []
        for c in self.cases:
            where = (
                f" crossings={','.join(map(str, c.crossings))}"
                if c.crossings is not None
                else ""
            )
            out.append(f"{c.label}{where} value={c.value}")
        n_zero = sum(c.ok for c in self.cases)
        verdict = "PASS" if self.passed else "FAIL"
        out.append(f"{verdict} ({n_zero}/{len(self.cases)} sums vanish)")
        return out


def vassiliev_type_check(
    inv: Invariant,
    n: int,
    corpus: Sequence[tuple[Diagram, Sequence[int]]],
    labels: Sequence[str] | None = None,
) -> TypeCheckReport:
    """Test that all (n+1)-fold differences of inv vanish on the corpus."""
    cases = []
    for pos, (dgm, crossings) in enumerate(corpus):
        crossings = tuple(crossings)
        if len(crossings) != n + 1:
            raise ValueError(
                f"corpus entry {pos}: expected {n + 1} crossings, got {len(crossings)}"
            )
        value = vassiliev_difference(dgm, crossings, inv)
        label = labels[pos] if labels is not None else f"case{pos}"
        cases.append(TypeCheckCase(label, crossings, value, value == inv.zero))
    return TypeCheckReport(inv.name, n, tuple(cases))
