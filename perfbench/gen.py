"""Seeded braid-closure inputs as PD text, with everything the oracles need.

A braid on s strands is a word of letters +g / -g (g = 1..s-1) standing for
the generator sigma_g or its inverse.  Its closure is emitted as PD text in
finitype's convention (slots counterclockwise from the incoming under-arc),
and the generator keeps, without calling finitype, what the checks need:
the sign of every crossing and, for each component, the order in which it
passes over and under the crossings.  A braid closure is
planar by construction, so every emitted text is a genuine diagram.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class BraidClosure:
    strands: int
    word: tuple[int, ...]
    pd: str
    signs: tuple[int, ...]  # sign of crossing k (k-th letter, k-th PD token)
    # per component, its passages in traversal order as (crossing, is_over)
    passages: tuple[tuple[tuple[int, bool], ...], ...]

    @property
    def n_crossings(self) -> int:
        return len(self.word)

    @property
    def n_components(self) -> int:
        return len(self.passages)

    def crossing_components(self, k: int) -> tuple[int, int]:
        """Components of the two strands meeting at crossing k (sorted)."""
        found = [ci for ci, comp in enumerate(self.passages) for x, _ in comp if x == k]
        return (min(found), max(found))


def closure(strands: int, word: tuple[int, ...]) -> BraidClosure:
    """PD text and passage data of the closure of a braid word.

    Strands run upward.  At a crossing between positions i and i+1 the
    strand entering bottom-left (BL) leaves top-right (TR) and the one
    entering bottom-right (BR) leaves top-left (TL); counterclockwise the
    ends read BL, BR, TR, TL.  Letter +g puts the BL->TR strand over (a
    positive crossing, X[BR,TR,TL,BL]); letter -g puts it under (negative,
    X[BL,BR,TR,TL]).
    """
    pos_arc = list(range(1, strands + 1))
    nxt = strands + 1
    quads = []
    for letter in word:
        i = abs(letter) - 1
        bl, br = pos_arc[i], pos_arc[i + 1]
        tr, tl = nxt, nxt + 1
        nxt += 2
        quads.append((br, tr, tl, bl) if letter > 0 else (bl, br, tr, tl))
        pos_arc[i], pos_arc[i + 1] = tl, tr
    close = {pos_arc[p]: p + 1 for p in range(strands)}
    quads = [tuple(close.get(a, a) for a in q) for q in quads]
    pd = " ".join("X[%d,%d,%d,%d]" % q for q in quads)

    # Follow each strand up the braid, noting its passages, until it comes
    # back to the bottom position it started from.
    left = set(range(strands))
    passages = []
    while left:
        start = p = min(left)
        comp = []
        while True:
            left.discard(p)
            for k, letter in enumerate(word):
                i = abs(letter) - 1
                if p == i:  # BL -> TR strand, over iff the letter is positive
                    comp.append((k, letter > 0))
                    p = i + 1
                elif p == i + 1:
                    comp.append((k, letter < 0))
                    p = i
            if p == start:
                break
        passages.append(tuple(comp))
    signs = tuple(1 if letter > 0 else -1 for letter in word)
    return BraidClosure(strands, tuple(word), pd, signs, tuple(passages))


def _cycles(strands: int, word: tuple[int, ...]) -> int:
    perm = list(range(strands))
    for letter in word:
        i = abs(letter) - 1
        perm[i], perm[i + 1] = perm[i + 1], perm[i]
    seen, count = set(), 0
    for p in range(strands):
        if p not in seen:
            count += 1
            while p not in seen:
                seen.add(p)
                p = perm[p]
    return count


def random_closure(rng: random.Random, crossings: int, components: int) -> BraidClosure:
    """A braid closure with exactly these crossing and component counts.

    The strand count is the smallest one (at least 3, at most 5) whose
    permutation parity allows the request; the word uses every generator
    and never cancels a letter against its inverse, so the diagram is
    connected and has no removable Reidemeister II pair.  Every component
    passes under somewhere: PD text fixes the orientation of a component
    only through its under-passages, so an over-only component would be
    read back with an arbitrary direction.
    """
    for strands in (3, 4, 5):
        # a permutation with `components` cycles on `strands` points has the
        # parity of strands - components, and each letter is a transposition
        if (strands - components) % 2 == crossings % 2 and components <= strands:
            break
    else:
        raise ValueError(f"no strand count fits {crossings} crossings, {components} components")
    while True:
        word: list[int] = []
        for _ in range(crossings):
            while True:
                letter = rng.randint(1, strands - 1) * rng.choice((1, -1))
                if not word or letter != -word[-1]:
                    break
            word.append(letter)
        if (
            len({abs(x) for x in word}) == strands - 1
            and _cycles(strands, tuple(word)) == components
        ):
            b = closure(strands, tuple(word))
            if all(not all(over for _, over in comp) for comp in b.passages):
                return b
