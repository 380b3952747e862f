"""Bracelet links: unknotted circles clasped in Hopf pairs along a cycle.

A bracelet on components 1..2d pairs the components by a perfect
matching; each matched pair forms a positive Hopf clasp (linking number
+1) and unmatched components never cross.  Reading the components in
cyclic order turns the matching into a degree-d chord diagram, and the
construction is reversible: realize a matching as a link, or detect the
matching back out of a link via its linking matrix.  Detection is purely
the matrix criterion — one ±1 per row in a perfect-matching pattern,
zeros elsewhere; the sign is deliberately ignored, since reversing one
ring's orientation flips it without changing the bracelet.

An odd number of components admits no perfect matching, so there are no
odd bracelets at all; odd_degree_empty records that fact as a checkable
statement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .chord_algebra import ChordDiagram
from .diagram import Diagram
from .invariants import InvariantError, linking_matrix

__all__ = [
    "BraceletError",
    "CyclicLink",
    "HopfPairBracelet",
    "realize_as_link",
    "detect_hopf_pairs",
    "odd_degree_empty",
]


class BraceletError(ValueError):
    """Raised when a matching or link is not a valid bracelet."""


@dataclass(frozen=True)
class CyclicLink:
    """A link plus a cyclic ordering of its components.

    The order is a permutation of the 0-based component indices, stored
    rotated so component 0 comes first; two orders differing by rotation
    describe the same cyclic link.
    """

    link: Diagram
    order: tuple[int, ...]

    @classmethod
    def of(cls, link: Diagram, order: Iterable[int] | None = None) -> "CyclicLink":
        k = link.n_components
        seq = tuple(order) if order is not None else tuple(range(k))
        if sorted(seq) != list(range(k)):
            raise BraceletError(
                f"cyclic order must be a permutation of 0..{k - 1}, got {seq}"
            )
        if k:
            lead = seq.index(0)
            seq = seq[lead:] + seq[:lead]
        return cls(link, seq)


def _normalize_matching(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    norm = tuple(sorted((min(i, j), max(i, j)) for i, j in pairs))
    if not norm:
        raise BraceletError("a bracelet needs at least one Hopf pair")
    seen = [p for pair in norm for p in pair]
    n = 2 * len(norm)
    if sorted(seen) != list(range(1, n + 1)):
        if len(set(seen)) != len(seen):
            raise BraceletError("matching repeats a component")
        raise BraceletError(
            f"matching must pair components 1..{max(seen)} exactly once; "
            "an odd component count has no perfect matching"
        )
    return norm


@dataclass(frozen=True)
class HopfPairBracelet:
    """A validated perfect matching on components 1..2d (1-based pairs)."""

    matching: tuple[tuple[int, int], ...]

    @classmethod
    def from_matching(cls, pairs: Iterable[tuple[int, int]]) -> "HopfPairBracelet":
        return cls(_normalize_matching(pairs))

    @property
    def n_components(self) -> int:
        return 2 * len(self.matching)

    def to_link(self) -> Diagram:
        """PD realization: component k owns arcs 2k-1, 2k; pairs clasp."""
        quads = []
        for i, j in self.matching:
            quads.append((2 * i - 1, 2 * j - 1, 2 * i, 2 * j))
            quads.append((2 * j - 1, 2 * i - 1, 2 * j, 2 * i))
        return Diagram.from_quads(quads)

    def to_chord_diagram(self) -> ChordDiagram:
        """Components in cyclic order become points 0..2d-1."""
        return ChordDiagram.from_pairs(
            [(i - 1, j - 1) for i, j in self.matching]
        )


def realize_as_link(pairs: Iterable[tuple[int, int]]) -> CyclicLink:
    """The bracelet link of a 1-based perfect matching, naturally ordered."""
    return CyclicLink.of(HopfPairBracelet.from_matching(pairs).to_link())


def detect_hopf_pairs(link: CyclicLink | Diagram) -> HopfPairBracelet:
    """Recover the matching from a bracelet link, or raise BraceletError.

    The criterion is the linking matrix alone: every cyclic position must
    be linked ±1 with exactly one partner and 0 with everything else.
    The recovered matching is over cyclic positions, so rotating the
    order rotates the matching.
    """
    if not isinstance(link, CyclicLink):
        link = CyclicLink.of(link)
    d, order = link.link, link.order
    n = d.n_components
    if n % 2:
        raise BraceletError(
            f"{n} components cannot form Hopf pairs; no odd bracelets exist"
        )
    try:
        lk = linking_matrix(d)
    except InvariantError as e:
        raise BraceletError(f"not a bracelet: {e}") from e
    pairs = []
    for p in range(n):
        i = order[p]
        partners = [q for q in range(n) if lk[i][order[q]] != 0]
        if len(partners) != 1 or abs(lk[i][order[partners[0]]]) != 1:
            raise BraceletError(
                f"not a bracelet: position {p + 1} is not Hopf-linked (lk ±1) "
                "to exactly one partner"
            )
        q = partners[0]
        if p < q:
            pairs.append((p + 1, q + 1))
    return HopfPairBracelet.from_matching(pairs)


def odd_degree_empty(n: int) -> tuple[()]:
    """The (empty) set of bracelets with an odd number n of components.

    Raises ValueError for even n, where bracelets do exist and the claim
    would be false.
    """
    if n % 2 == 0:
        raise ValueError(f"component count {n} is even; bracelets exist there")
    return ()
