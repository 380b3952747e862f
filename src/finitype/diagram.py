"""Oriented knot/link diagrams in PD form, with exact structural operations.

A diagram is a list of crossings.  Each crossing stores its four arc labels
counterclockwise starting from the incoming under-strand, plus a sign:

    X[a,b,c,d]   a = incoming under-arc, c = outgoing under-arc,
                 b,d = the over-strand; for a positive crossing the
                 over-strand runs d -> b, for a negative one b -> d.

Equivalently, a crossing is positive when the outgoing over-strand sees the
incoming under-strand on its right.  Arc labels are positive integers; every
label appears exactly twice (once incoming, once outgoing).  Crossingless
components ("free loops") are carried as a count, declared in PD text by a
``components=k arcs=m`` preamble.

One walk along each strand (``_walk``) checks the labels and the
orientation, checks the given crossing signs or infers missing ones, and
traces the components.  Every construction runs it once.

Nothing here checks planarity; diagrams are purely combinatorial and all
downstream invariants are computed from the combinatorics.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import Callable, Iterable, Sequence

__all__ = [
    "PDError",
    "PDSyntaxError",
    "PDArcError",
    "PDOrientationError",
    "GaussError",
    "Crossing",
    "Diagram",
    "SingularDiagram",
    "FormalSum",
    "parse_pd",
    "serialize_pd",
    "parse_gauss",
    "to_gauss",
    "switch_crossing",
    "mirror",
    "load_table",
]


class PDError(ValueError):
    """Base class for diagram parsing/validation failures."""


class PDSyntaxError(PDError):
    """Malformed PD text (bad token, bad preamble)."""


class PDArcError(PDError):
    """Arc labels do not form a valid diagram (label count wrong, etc.)."""


class PDOrientationError(PDError):
    """No consistent orientation of the arcs exists."""


class GaussError(PDError):
    """Malformed or inconsistent Gauss code."""


@dataclass(frozen=True)
class Crossing:
    """One crossing: slots counterclockwise from the incoming under-arc."""

    slots: tuple[int, int, int, int]
    sign: int  # +1 or -1

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise PDError(f"crossing sign must be +-1, got {self.sign}")
        if len(self.slots) != 4:
            raise PDError("crossing needs exactly 4 slots")

    @property
    def under_in(self) -> int:
        return self.slots[0]

    @property
    def over_in(self) -> int:
        return self.slots[3] if self.sign > 0 else self.slots[1]

    @property
    def over_out(self) -> int:
        return self.slots[1] if self.sign > 0 else self.slots[3]

    def token(self) -> str:
        a, b, c, d = self.slots
        return f"X[{a},{b},{c},{d}]"

    def switched(self) -> "Crossing":
        """Exchange over- and under-strand.

        The new incoming under-arc is the old incoming over-arc; slots stay
        counterclockwise, so the quad rotates and the sign flips.
        """
        a, b, c, d = self.slots
        if self.sign > 0:
            return Crossing((d, a, b, c), -1)
        return Crossing((b, c, d, a), +1)


class _ArcUnion:
    """Union-find over arc labels (or component indices); count is the
    number of classes."""

    def __init__(self, arcs: Iterable[int]):
        self.parent = {a: a for a in arcs}
        self.count = len(self.parent)

    def find(self, a: int) -> int:
        p = self.parent
        while p[a] != a:
            p[a] = p[p[a]]
            a = p[a]
        return a

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb
            self.count -= 1


def _glue(
    arcs: Iterable[int], joins: Iterable[tuple[int, int]], quads: Iterable[tuple[int, ...]]
) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Glue arcs into classes along joins and relabel quads by class.

    Each join (u, v) puts arcs u and v in one class.  The quads' arcs are
    relabelled 1, 2, ... by class, the classes numbered in order of their
    union-find representatives, least first.  Returns the relabelled quads
    and the number of classes that no quad uses.
    """
    uf = _ArcUnion(arcs)
    for u, v in joins:
        uf.union(u, v)
    root = {a: uf.find(a) for a in uf.parent}
    reps = [[root[a] for a in q] for q in quads]
    label = {r: i for i, r in enumerate(sorted({r for q in reps for r in q}), 1)}
    return tuple(tuple(map(label.__getitem__, q)) for q in reps), uf.count - len(label)


class Diagram:
    """An oriented link diagram: crossings plus crossingless free loops.

    Construction runs one strand walk over the crossings' own signs: every
    arc label must occur exactly twice, once as an incoming slot and once as
    an outgoing slot, and the same walk traces the components; there must
    be at least one component.  Writhe is precomputed too.  A diagram is
    never changed after construction, so its canonical key is computed once
    and kept.
    """

    __slots__ = ("crossings", "free_loops", "components", "arc_component", "writhe", "_key")

    def __init__(self, crossings: Sequence[Crossing], free_loops: int = 0):
        self.crossings: tuple[Crossing, ...] = tuple(crossings)
        if free_loops < 0:
            raise PDArcError("negative free loop count")
        self.free_loops = free_loops
        self.components: tuple[tuple[int, ...], ...] = _walk(
            [x.slots for x in self.crossings], [x.sign for x in self.crossings]
        )[1]
        if not self.components and not free_loops:
            raise PDArcError("a diagram needs at least one component")
        self.arc_component: dict[int, int] = {
            arc: ci for ci, comp in enumerate(self.components) for arc in comp
        }
        self.writhe = sum(x.sign for x in self.crossings)
        self._key: str | None = None

    @classmethod
    def from_quads(cls, quads: Sequence[tuple[int, int, int, int]]) -> "Diagram":
        """The diagram of PD slot quads, signs inferred from the orientation.

        Raises PDArcError or PDOrientationError as parse_pd does.
        """
        quads = [tuple(q) for q in quads]
        return cls([Crossing(q, s) for q, s in zip(quads, _walk(quads)[0])])

    # -- basic queries -------------------------------------------------

    @property
    def n_crossings(self) -> int:
        return len(self.crossings)

    @property
    def n_components(self) -> int:
        return len(self.components) + self.free_loops

    def arcs(self) -> list[int]:
        return sorted({s for x in self.crossings for s in x.slots})

    def is_knot(self) -> bool:
        return self.n_components == 1

    def crossing_components(self, i: int) -> tuple[int, int]:
        """(under-strand component, over-strand component) of crossing i."""
        x = self.crossings[i]
        return (self.arc_component[x.under_in], self.arc_component[x.over_in])

    def is_connected(self) -> bool:
        """Connectivity of the 4-valent diagram graph (free loops split)."""
        if self.free_loops:
            return self.n_crossings == 0 and self.free_loops == 1
        uf = _ArcUnion(range(len(self.components)))
        for i in range(self.n_crossings):
            uf.union(*self.crossing_components(i))
        return uf.count == 1

    # -- canonical form ------------------------------------------------

    def canonical_key(self) -> str:
        """The least serialization over cyclic arc relabelings (component
        order preserved), with crossings sorted by their relabeled slots.

        A relabeling picks one start arc per component and numbers the
        components' arcs in turn, each in walk order from its start.  Keys
        compare as strings, not as tuples ("X[10," < "X[2,", and in the last
        slot "45]" < "4]"); see _least_body for the search.
        """
        if self._key is None:
            self._key = self._with_head(self._least_body())
        return self._key

    def _with_head(self, body: str) -> str:
        return f"components={self.n_components} arcs={2 * self.n_crossings} {body}".rstrip()

    def _least_body(self, marked: frozenset[int] = frozenset()) -> str:
        """The crossing tokens of the key, built one token at a time.

        Marked crossings take their positive resolution and are written
        D[...].  Slot 0 is an incoming under-arc, so slot-0 labels are
        distinct and the tokens come in the order of their under-arcs:
        component by component, each in walk order from its start.  The
        search keeps partial start choices.  A component's start is branched
        over only when a token first needs it, as the under-component at the
        head of its group or as a token's over-component.  After each token
        only the choices whose token is the least string survive; no token
        is a prefix of another, so the least key extends the least tokens.
        """
        comps = self.components
        sizes = [len(comp) for comp in comps]
        base = [0, *accumulate(sizes)]
        where = {arc: (ci, j) for ci, comp in enumerate(comps) for j, arc in enumerate(comp)}
        # passes[u][j]: the crossing entered under from arc j of component u,
        # as its token format, over-component and over-arcs' positions there
        passes: list[dict[int, tuple[str, int, int, int]]] = [{} for _ in comps]
        for i, x in enumerate(self.crossings):
            fmt, slots = "X[%d,%d,%d,%d]", x.slots
            if i in marked:
                fmt, slots = "D[%d,%d,%d,%d]", (x if x.sign > 0 else x.switched()).slots
            (u, j), (v, p1), (_, p3) = where[slots[0]], where[slots[1]], where[slots[3]]
            passes[u][j] = (fmt, v, p1, p3)

        def branch(starts: list, c: int) -> list[list]:
            if starts[c] is not None:
                return [starts]
            return [starts[:c] + [t] + starts[c + 1 :] for t in range(sizes[c])]

        survivors, tokens = [[None] * len(comps)], []
        for u, under in enumerate(passes):
            if not under:
                continue
            ins, n, b = sorted(under), sizes[u], base[u] + 1
            survivors = [new for old in survivors for new in branch(old, u)]
            for k in range(len(ins)):
                best, kept = None, []
                for starts in survivors:
                    s = starts[u]
                    j = ins[(bisect_left(ins, s) + k) % len(ins)]
                    fmt, v, p1, p3 = under[j]
                    for chosen in branch(starts, v):
                        t, m, w = chosen[v], sizes[v], base[v] + 1
                        token = fmt % (
                            (j - s) % n + b, (p1 - t) % m + w, (j + 1 - s) % n + b, (p3 - t) % m + w
                        )
                        if best is None or token < best:
                            best, kept = token, [chosen]
                        elif token == best:
                            kept.append(chosen)
                tokens.append(best)
                survivors = kept
        return " ".join(tokens)

    def __eq__(self, other) -> bool:
        return isinstance(other, Diagram) and self.canonical_key() == other.canonical_key()

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self) -> str:
        return f"Diagram({serialize_pd(self)!r})"


# ---------------------------------------------------------------------------
# PD text format


_COMPONENTS_RE = re.compile(r"^components=(\d+)$")
_ARCS_RE = re.compile(r"^arcs=(\d+)$")
_X_TOKEN_RE = re.compile(r"^X\[(\d+),(\d+),(\d+),(\d+)\]$")


def _split_tokens(text: str) -> tuple[tuple[int, int] | None, list[str]]:
    """Separate the optional two leading preamble tokens from the body."""
    tokens: list[str] = []
    for ln in text.strip().splitlines():
        tokens.extend(ln.split("#", 1)[0].split())
    preamble: tuple[int, int] | None = None
    if tokens and tokens[0].startswith("components="):
        if len(tokens) < 2:
            raise PDSyntaxError("preamble must read 'components=k arcs=m'")
        mc, ma = _COMPONENTS_RE.match(tokens[0]), _ARCS_RE.match(tokens[1])
        if not mc or not ma:
            raise PDSyntaxError("preamble must read 'components=k arcs=m'")
        preamble = (int(mc.group(1)), int(ma.group(1)))
        tokens = tokens[2:]
    for tok in tokens:
        if tok.startswith(("components=", "arcs=")):
            raise PDSyntaxError("preamble tokens are only allowed at the start")
    return preamble, tokens


def _parse_quads(tokens: list[str]) -> list[tuple[int, int, int, int]]:
    quads: list[tuple[int, int, int, int]] = []
    for tok in tokens:
        m = _X_TOKEN_RE.match(tok)
        if not m:
            raise PDSyntaxError(f"malformed PD token {tok!r}")
        quads.append(tuple(int(g) for g in m.groups()))
    return quads


def _walk(
    quads: Sequence[tuple[int, int, int, int]], signs: Sequence[int] | None = None
) -> tuple[list[int], tuple[tuple[int, ...], ...]]:
    """Crossing signs and components, found by walking each strand once.

    Labels must be positive integers, each occurring exactly twice
    (PDArcError, raised before any orientation check).  A strand runs
    straight through each crossing, from slot k to slot k + 2, and along
    each arc to the arc's other slot.  An under-passage fixes the strand's
    direction (in at slot 0, out at slot 2), and a crossing is positive
    exactly when its over-strand comes in at slot 3.  Given signs fix the
    direction of every over-passage too, and are checked.  Without them
    the signs are inferred, and a strand that is never under has no forced
    direction: it is walked from the lowest-index crossing it passes,
    oriented so that this crossing is positive.  Components are arc
    cycles, each started at its least arc and sorted by it.
    """
    occ: dict[int, list[int]] = {}
    for ci, q in enumerate(quads):
        for si, arc in enumerate(q):
            if not isinstance(arc, int) or arc <= 0:
                raise PDArcError(f"arc labels must be positive integers, got {arc!r}")
            occ.setdefault(arc, []).append(4 * ci + si)
    # a slot is h = 4 * crossing + slot index, so h ^ 2 is the slot across
    mate = [0] * (4 * len(quads))
    for arc, hs in occ.items():
        if len(hs) != 2:
            raise PDArcError(f"arc {arc} occurs {len(hs)} times, expected exactly 2")
        mate[hs[0]], mate[hs[1]] = hs[1], hs[0]
    found = [0] * len(quads)
    under_seen = [False] * len(quads)
    components = []

    def walk(start: int) -> None:
        # follow the strand that comes in at slot `start` until it closes
        h, cycle = start, []
        while True:
            ci, si = h >> 2, h & 3
            if si == 0:
                under_seen[ci] = True
            elif si == 2:
                raise PDOrientationError(
                    f"arc {quads[ci][2]} runs into crossing {ci} at its outgoing under-slot"
                )
            else:
                found[ci] = 1 if si == 3 else -1
                if signs is not None and found[ci] != signs[ci]:
                    raise PDOrientationError(
                        f"arc {quads[ci][si]} runs into crossing {ci} at its outgoing over-slot"
                    )
            cycle.append(quads[ci][si])
            h = mate[h ^ 2]
            if h == start:
                k = cycle.index(min(cycle))
                components.append(tuple(cycle[k:] + cycle[:k]))
                return

    for ci in range(len(quads)):
        if not under_seen[ci]:
            walk(4 * ci)
    for ci in range(len(quads)):
        if not found[ci]:
            walk(4 * ci + (3 if signs is None else 2 + signs[ci]))
    components.sort()
    return found, tuple(components)


def parse_pd(text: str) -> Diagram:
    """Parse PD text into a validated diagram.

    Raises:
        PDSyntaxError: malformed token or preamble.
        PDArcError: arc labels that do not occur exactly twice, or no
            component at all.
        PDOrientationError: no consistent orientation assignment.
    """
    preamble, tokens = _split_tokens(text)
    quads = _parse_quads(tokens)
    if preamble is not None and preamble[1] != 2 * len(quads):
        raise PDSyntaxError(
            f"preamble declares {preamble[1]} arcs but tokens define {2 * len(quads)}"
        )
    signs, components = _walk(quads)
    free_loops = 0 if preamble is None else preamble[0] - len(components)
    if free_loops < 0:
        raise PDSyntaxError(
            f"preamble declares {preamble[0]} components but crossings trace {len(components)}"
        )
    return Diagram([Crossing(q, s) for q, s in zip(quads, signs)], free_loops)


def serialize_pd(d: Diagram) -> str:
    """Serialize a diagram; parse_pd(serialize_pd(d)) reproduces d exactly."""
    head = f"components={d.n_components} arcs={2 * d.n_crossings}"
    toks = " ".join(x.token() for x in d.crossings)
    return f"{head} {toks}".rstrip()


# ---------------------------------------------------------------------------
# Gauss code


_GAUSS_TOKEN_RE = re.compile(r"([OU])(\d+)([+-])")


def parse_gauss(text: str) -> Diagram:
    """Parse a signed Gauss code such as ``O1+U2+O3+U1+O2+U3+``.

    Tokens may also be whitespace separated.  Each crossing id must appear
    exactly once as O and once as U, with the same sign on both tokens.
    """
    body = "".join(text.split())
    pos = 0
    toks: list[tuple[str, int, int]] = []
    for m in _GAUSS_TOKEN_RE.finditer(body):
        if m.start() != pos:
            raise GaussError(f"malformed Gauss code near {body[pos:m.start()]!r}")
        toks.append((m.group(1), int(m.group(2)), +1 if m.group(3) == "+" else -1))
        pos = m.end()
    if pos != len(body):
        raise GaussError(f"malformed Gauss code near {body[pos:]!r}")
    if not toks:
        raise GaussError("empty Gauss code")

    byid: dict[int, dict[str, tuple[int, int]]] = {}
    for p, (kind, cid, sign) in enumerate(toks):
        slot = byid.setdefault(cid, {})
        if kind in slot:
            raise GaussError(f"crossing {cid} passed twice as {kind}")
        slot[kind] = (p, sign)
    for cid, slot in byid.items():
        if set(slot) != {"O", "U"}:
            raise GaussError(f"crossing {cid} lacks an O or U passage")
        if slot["O"][1] != slot["U"][1]:
            raise GaussError(f"crossing {cid} has mismatched signs on O and U")

    n = len(toks)

    def arc_in(p: int) -> int:
        return p if p >= 1 else n

    def arc_out(p: int) -> int:
        return p + 1 if p + 1 <= n else 1

    crossings = []
    for cid in sorted(byid):
        (po, sign), (pu, _) = byid[cid]["O"], byid[cid]["U"]
        a, c = arc_in(pu), arc_out(pu)
        oi, oo = arc_in(po), arc_out(po)
        if sign > 0:
            quad = (a, oo, c, oi)
        else:
            quad = (a, oi, c, oo)
        crossings.append(Crossing(quad, sign))
    return Diagram(crossings, 0)


def to_gauss(d: Diagram) -> str:
    """Write the Gauss code of a knot diagram (single component)."""
    if d.n_components != 1 or d.free_loops:
        raise PDError("Gauss codes are only emitted for knots")
    if not d.crossings:
        return ""
    passage: dict[int, tuple[str, int, int]] = {}
    for i, x in enumerate(d.crossings):
        passage[x.under_in] = ("U", i, x.sign)
        passage[x.over_in] = ("O", i, x.sign)
    out = []
    for arc in d.components[0]:
        kind, i, sign = passage[arc]
        out.append(f"{kind}{i + 1}{'+' if sign > 0 else '-'}")
    return "".join(out)


# ---------------------------------------------------------------------------
# crossing switch, mirror, singular marking


def switch_crossing(d: Diagram, i: int) -> Diagram:
    """Exchange over/under at crossing i (an involution)."""
    if not 0 <= i < d.n_crossings:
        raise IndexError(f"crossing index {i} out of range")
    xs = list(d.crossings)
    xs[i] = xs[i].switched()
    return Diagram(xs, d.free_loops)


def mirror(d: Diagram) -> Diagram:
    """Switch every crossing."""
    return Diagram([x.switched() for x in d.crossings], d.free_loops)


class SingularDiagram:
    """A diagram with a subset of crossings marked as double points.

    A marked crossing remembers the transversal strands and the orientation
    but, semantically, no over/under choice.  The stored crossing acts as a
    bookkeeping resolution.  The canonical key is the key of the positive
    resolution, with marked tokens written D[...]: the oriented strands fix
    that resolution, so the key erases over/under and keeps orientation.
    Like a diagram, it never changes after construction, so its key is
    computed once.
    """

    __slots__ = ("diagram", "marked", "_key")

    def __init__(self, diagram: Diagram, marked: Iterable[int]):
        marked = frozenset(marked)
        for i in marked:
            if not 0 <= i < diagram.n_crossings:
                raise IndexError(f"marked crossing {i} out of range")
        self.diagram = diagram
        self.marked = marked
        self._key: str | None = None

    def resolved(self, signs: dict[int, int]) -> Diagram:
        """Resolve every marked double point with the given sign (+1/-1)."""
        if set(signs) != set(self.marked):
            raise ValueError("resolution must cover exactly the marked set")
        xs = [
            x.switched() if i in signs and x.sign != signs[i] else x
            for i, x in enumerate(self.diagram.crossings)
        ]
        return Diagram(xs, self.diagram.free_loops)

    def canonical_key(self) -> str:
        """The key of the positive resolution, marked tokens written D[...]."""
        if self._key is None:
            d = self.diagram
            self._key = d._with_head(d._least_body(self.marked)) if self.marked else d.canonical_key()
        return self._key

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SingularDiagram)
            and self.canonical_key() == other.canonical_key()
        )

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"SingularDiagram({serialize_pd(self.diagram)!r}, marked={sorted(self.marked)})"


# ---------------------------------------------------------------------------
# formal sums


class FormalSum:
    """A finite formal linear combination with rational coefficients.

    Keys are objects exposing ``canonical_key()``; terms with equal keys are
    merged and zero coefficients dropped, so sums cancel exactly.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Iterable[tuple[object, Fraction]] = ()):
        merged: dict[str, tuple[object, Fraction]] = {}
        for obj, coeff in terms:
            coeff = Fraction(coeff)
            key = obj.canonical_key()
            if key in merged:
                coeff = merged[key][1] + coeff
            if coeff == 0:
                merged.pop(key, None)
            else:
                merged[key] = (obj, coeff)
        self._terms = merged

    @classmethod
    def single(cls, obj, coeff=1) -> "FormalSum":
        return cls([(obj, Fraction(coeff))])

    def terms(self) -> list[tuple[object, Fraction]]:
        return [self._terms[k] for k in sorted(self._terms)]

    def coefficient(self, obj) -> Fraction:
        entry = self._terms.get(obj.canonical_key())
        return entry[1] if entry else Fraction(0)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def __add__(self, other: "FormalSum") -> "FormalSum":
        return FormalSum(list(self._terms.values()) + list(other._terms.values()))

    def __sub__(self, other: "FormalSum") -> "FormalSum":
        return self + other.scale(-1)

    def scale(self, c) -> "FormalSum":
        c = Fraction(c)
        return FormalSum([(o, k * c) for o, k in self._terms.values()])

    def map_terms(self, fn: Callable[[object], "FormalSum"]) -> "FormalSum":
        """Linear extension of a generator-to-sum map."""
        return FormalSum(
            (obj, k * coeff)
            for src, coeff in self._terms.values()
            for obj, k in fn(src)._terms.values()
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, FormalSum):
            return NotImplemented
        return {k: v for k, (_, v) in self._terms.items()} == {
            k: v for k, (_, v) in other._terms.items()
        }

    def __repr__(self):
        inner = " ".join(f"{coeff}*[{key[:40]}...]" for key, (_, coeff) in sorted(self._terms.items()))
        return f"FormalSum({inner or '0'})"


# ---------------------------------------------------------------------------
# bundled table


def load_table(text: str) -> dict[str, Diagram]:
    """Parse a ``name<TAB>pdcode`` table file body into diagrams."""
    out: dict[str, Diagram] = {}
    for ln in text.splitlines():
        ln = ln.split("#", 1)[0].rstrip()
        if not ln.strip():
            continue
        if "\t" not in ln:
            raise PDSyntaxError(f"table line without tab separator: {ln!r}")
        name, code = ln.split("\t", 1)
        name = name.strip()
        if name in out:
            raise PDSyntaxError(f"duplicate table entry {name!r}")
        out[name] = parse_pd(code)
    return out
