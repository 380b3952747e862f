"""Chord diagrams on a circle and the weight spaces they span.

A degree-n chord diagram is n chords with endpoints on an oriented
circle, up to rotation; concretely a double-occurrence word of length 2n
canonicalized as the lexicographically smallest rotation (chord ids
renamed in order of first appearance).  Reflections are *not* quotiented
out.

The degree-n weight space is the span of diagrams modulo the four-term
relations (and, in the unframed case, the framing-independence relations
that kill diagrams with an isolated chord).  Dimensions come from an
exact sparse rank computation over the rationals.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .exact_math import SparseMatrix

__all__ = [
    "ChordDiagram",
    "enumerate_diagrams",
    "RelationSet",
    "generate_4t",
    "generate_fi",
    "WeightSpaceReport",
    "dim_a",
    "MAX_DEGREE",
]

MAX_DEGREE = 7


def _relabel(word: Sequence[int]) -> tuple[int, ...]:
    """The word with chord ids renamed 0, 1, ... in order of first appearance."""
    rename: dict[int, int] = {}
    return tuple([rename.setdefault(c, len(rename)) for c in word])


def _rotations(word: tuple[int, ...]) -> Iterator[tuple[int, ...]]:
    """Every rotation of the word, relabelled."""
    for s in range(len(word)):
        yield _relabel(word[s:] + word[:s])


def _pairs_word(pairs: Sequence[tuple[int, int]]) -> list[int]:
    """The word with chord id k at both endpoints of the k-th pair."""
    word = [0] * (2 * len(pairs))
    for cid, (i, j) in enumerate(pairs):
        word[i] = word[j] = cid
    return word


def _canonical_word(word: tuple[int, ...]) -> tuple[int, ...]:
    """Smallest rotation with ids renamed by first appearance."""
    return min(_rotations(word), default=())


@dataclass(frozen=True)
class ChordDiagram:
    """Canonical double-occurrence word; construct via from_word/from_pairs."""

    word: tuple[int, ...]

    @classmethod
    def from_word(cls, word: Iterable[int]) -> "ChordDiagram":
        word = tuple(word)
        seen: dict[int, int] = {}
        for c in word:
            seen[c] = seen.get(c, 0) + 1
        if any(v != 2 for v in seen.values()):
            raise ValueError("every chord id must occur exactly twice")
        return cls(_canonical_word(word))

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "ChordDiagram":
        pairs = list(pairs)
        positions = [p for pair in pairs for p in pair]
        if sorted(positions) != list(range(2 * len(pairs))):
            raise ValueError(
                f"endpoints must be exactly 0..{2 * len(pairs) - 1}, "
                f"got {sorted(positions)}"
            )
        return cls.from_word(_pairs_word(pairs))

    @property
    def n(self) -> int:
        return len(self.word) // 2

    def has_isolated_chord(self) -> bool:
        """True if some chord's endpoints are cyclically adjacent."""
        size = len(self.word)
        return any(
            self.word[k] == self.word[(k + 1) % size] for k in range(size)
        )

    def __str__(self) -> str:
        return "".join(string.ascii_uppercase[c] for c in self.word) or "(empty)"

    def __lt__(self, other: "ChordDiagram") -> bool:
        return (len(self.word), self.word) < (len(other.word), other.word)


def _matchings(points: tuple[int, ...]) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect matchings on the given points, as sorted pair tuples."""
    if not points:
        yield ()
        return
    first, rest = points[0], points[1:]
    for k, second in enumerate(rest):
        others = rest[:k] + rest[k + 1 :]
        for sub in _matchings(others):
            yield ((first, second),) + sub


def _check_degree(n: int) -> None:
    if n < 0:
        raise ValueError("degree must be nonnegative")
    if n > MAX_DEGREE:
        raise ValueError(f"degree {n} exceeds the limit of {MAX_DEGREE}")


@lru_cache(maxsize=None)
def enumerate_diagrams(n: int) -> tuple[ChordDiagram, ...]:
    """All degree-n chord diagrams, canonical and sorted; a matching whose
    relabelled word is a rotation of one already kept is skipped."""
    _check_degree(n)
    seen: set[bytes] = set()  # relabelled rotations, as bytes to keep the peak small
    out = []
    for m in _matchings(tuple(range(2 * n))):
        word = _relabel(_pairs_word(m))
        if bytes(word) not in seen:
            d = ChordDiagram.from_word(word)
            seen.update(map(bytes, _rotations(d.word)))
            out.append(d)
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# relations

Relation = dict[int, Fraction]


@dataclass(frozen=True)
class RelationSet:
    """Linear relations over a fixed diagram basis (rows of coefficients)."""

    kind: str
    basis: tuple[ChordDiagram, ...]
    rows: tuple[tuple[tuple[int, Fraction], ...], ...]

    def __len__(self) -> int:
        return len(self.rows)


def _normalize(row: Relation) -> tuple[tuple[int, Fraction], ...] | None:
    items = sorted((i, c) for i, c in row.items() if c)
    if not items:
        return None
    lead = items[0][1]
    return tuple((i, c / lead) for i, c in items)


def _insert_two(word: Sequence[int], a: int, b: int, cid: int) -> tuple[int, ...]:
    """Insert both endpoints of chord cid at linear gaps a <= b."""
    if a > b:
        a, b = b, a
    w = list(word)
    return tuple(w[:a] + [cid] + w[a:b] + [cid] + w[b:])


# Relative signs of the four placements of the moving chord's near end:
# just before / just after each endpoint of the fixed chord.
_4T_SIGNS = (1, -1, 1, -1)


@lru_cache(maxsize=None)
def generate_4t(n: int) -> RelationSet:
    """Four-term relations among degree-n diagrams, memoised per n.

    Each relation fixes a diagram of degree n-2, a fixed chord Y, and the
    far endpoint of a moving chord M; the four terms slide M's near
    endpoint across the four positions adjacent to Y's endpoints, with
    alternating signs.  Duplicate and vanishing relations are dropped.
    Each term's basis index is looked up by its relabelled word in a table
    of every relabelled rotation of every basis word.
    """
    _check_degree(n)
    basis = enumerate_diagrams(n)
    index = {w: i for i, d in enumerate(basis) for w in _rotations(d.word)}
    rows: dict[tuple[tuple[int, Fraction], ...], None] = {}
    if n >= 2:
        y, m = n - 2, n - 1  # chord ids above any base id
        for base in enumerate_diagrams(n - 2):
            length = len(base.word)
            for g1 in range(length + 1):
                for g2 in range(g1, length + 1):
                    v = _insert_two(base.word, g1, g2, y)
                    y1, y2 = g1, g2 + 1
                    near = (y1, y1 + 1, y2, y2 + 1)
                    for far in range(length + 3):
                        row: Relation = {}
                        for gap, sign in zip(near, _4T_SIGNS):
                            i = index[_relabel(_insert_two(v, far, gap, m))]
                            row[i] = row.get(i, Fraction(0)) + sign
                        norm = _normalize(row)
                        if norm is not None:
                            rows.setdefault(norm, None)
    return RelationSet("4T", basis, tuple(rows))


@lru_cache(maxsize=None)
def generate_fi(n: int) -> RelationSet:
    """Framing independence, memoised per n: each diagram with an isolated chord is zero."""
    _check_degree(n)
    basis = enumerate_diagrams(n)
    rows = tuple(
        ((i, Fraction(1)),)
        for i, d in enumerate(basis)
        if d.has_isolated_chord()
    )
    return RelationSet("FI", basis, rows)


@dataclass(frozen=True)
class WeightSpaceReport:
    n: int
    framed: bool
    n_diagrams: int
    n_relations: int
    rank: int
    dim: int


def dim_a(n: int, *, framed: bool = False, order_seed: int | None = None) -> WeightSpaceReport:
    """Dimension of the degree-n weight space (unframed by default).

    order_seed, if given, shuffles both the diagram basis and the relation
    rows before the rank computation; the answer must not depend on it.
    The relation rows are memoised per n, but every call builds and ranks
    its own matrix in its own order.
    """
    _check_degree(n)
    basis = enumerate_diagrams(n)
    rel_rows = list(generate_4t(n).rows)
    if not framed:
        rel_rows += list(generate_fi(n).rows)
    cols = len(basis)
    perm = list(range(cols))
    if order_seed is not None:
        rng = random.Random(order_seed)
        rng.shuffle(perm)
        rng.shuffle(rel_rows)
    mat = SparseMatrix.from_rows(
        [{perm[i]: c for i, c in row} for row in rel_rows], ncols=cols
    )
    rank = mat.rank()
    return WeightSpaceReport(
        n=n,
        framed=framed,
        n_diagrams=cols,
        n_relations=len(rel_rows),
        rank=rank,
        dim=cols - rank,
    )
