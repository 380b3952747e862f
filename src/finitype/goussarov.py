"""Detour families: knots with switchable re-routing regions.

A DetourFamily is a knot diagram in superposition: a set of crossings over
a pool of arcs, where some arcs belong to the always-present host and the
rest to one of two alternative routes (route0 = main road, route1 =
detour) of a switch region.  Choosing a route per region selects which
arcs exist; a crossing materializes exactly when all four of its slot
arcs exist, and a crossing whose over-strand (or under-strand) is absent
degenerates to the surviving strand running straight through.  This makes
"take the detour / don't" a pure subset operation: resolve(S) depends
only on S, which is the well-definedness the iterated differences need.

All 2^m states are resolved and checked eagerly at construction.  States
whose relabelled slot quads agree share one Diagram, built once with
Diagram.from_quads: a switch family on p crossings builds 2^p diagrams
for its 2^(2p) states.  Every resolution must be a knot.

switch_family splices one switch-gadget pair per listed crossing; it is
the only gadget builder, and the two encodings that bridge crossing
switches and detours are cases of it.  encode_crossing_as_detours(K, i)
is switch_family(K, (i,)), a 2-region family whose resolutions are K, K,
K, switch(K, i); encode_singular_as_bracelet chains one pair per double
point of the all-negative resolution, so that the 2^(2n+2)-term detour
sum equals the 2^(n+1)-term resolution sum exactly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

from .diagram import Diagram, FormalSum, PDError, SingularDiagram, _ArcUnion
from .invariants import Invariant, evaluate_on_sum
from .vassiliev import TypeCheckCase, TypeCheckReport, resolve_all

__all__ = [
    "FamilyError",
    "MAX_REGIONS",
    "Route",
    "SwitchRegion",
    "DetourFamily",
    "parse_family",
    "serialize_family",
    "delta_g",
    "goussarov_difference",
    "goussarov_type_check",
    "encode_crossing_as_detours",
    "switch_family",
    "encode_singular_as_bracelet",
    "Theorem1Result",
    "theorem1_identity_check",
]

MAX_REGIONS = 10


class FamilyError(ValueError):
    """Raised when a detour family is structurally or semantically invalid."""


@dataclass(frozen=True)
class Route:
    """One of the two fillings of a switch region.

    arcs are owned by the route and exist only when it is selected; joins
    (u, v) glue the head of arc u to the tail of arc v unconditionally
    while the route is selected.  A plain pass-through route owns no arcs
    and only joins its region's stubs.
    """

    arcs: tuple[int, ...] = ()
    joins: tuple[tuple[int, int], ...] = ()


@dataclass(frozen=True)
class SwitchRegion:
    """A re-routable interval: stub arcs on the host plus two routes."""

    stubs: tuple[int, ...]
    route0: Route
    route1: Route


def _renumber(d: Diagram) -> Diagram:
    """Relabel arcs 1..2c in traversal order (components by minimal arc)."""
    order = [a for comp in d.components for a in comp]
    return d.relabeled({a: i + 1 for i, a in enumerate(order)})


class DetourFamily:
    """Host crossings plus m switch regions; immutable after construction.

    States with equal relabelled quads share one Diagram and its key."""

    __slots__ = ("quads", "host_joins", "regions", "host_arcs", "_resolutions", "_key")

    def __init__(
        self,
        quads: Iterable[tuple[int, int, int, int]],
        regions: Iterable[SwitchRegion] = (),
        host_joins: Iterable[tuple[int, int]] = (),
    ):
        self.quads = tuple(tuple(q) for q in quads)
        self.regions = tuple(regions)
        self.host_joins = tuple(tuple(j) for j in host_joins)
        if len(self.regions) > MAX_REGIONS:
            raise FamilyError(
                f"{len(self.regions)} regions exceed the limit of {MAX_REGIONS}"
            )
        owned_list: list[set[int]] = []
        for r in self.regions:
            for route in {r.route0, r.route1}:
                owned_list.append(set(route.arcs))
        for i, s in enumerate(owned_list):
            for t in owned_list[i + 1 :]:
                if s & t:
                    raise FamilyError(f"arcs {sorted(s & t)} owned by two routes")
        route_owned = set().union(*owned_list) if owned_list else set()
        mentioned = {a for q in self.quads for a in q}
        mentioned |= {a for j in self.host_joins for a in j}
        for r in self.regions:
            mentioned |= set(r.stubs)
            for route in (r.route0, r.route1):
                mentioned |= {a for j in route.joins for a in j}
        self.host_arcs = frozenset(mentioned - route_owned)
        for r in self.regions:
            bad = set(r.stubs) - self.host_arcs
            if bad:
                raise FamilyError(f"stub arcs {sorted(bad)} are not host arcs")
        self._resolutions: dict[int, Diagram] = {}
        self._key: str | None = None
        built: dict[tuple[tuple[int, ...], ...], Diagram] = {}
        for mask in range(1 << len(self.regions)):
            self._resolutions[mask] = self._build(mask, built)

    @property
    def m(self) -> int:
        return len(self.regions)

    def _build(self, mask: int, built: dict) -> Diagram:
        """The resolution of mask.  States are checked one by one, but
        states whose relabelled quads agree share the Diagram in built."""
        present = set(self.host_arcs)
        joins = list(self.host_joins)
        for i, r in enumerate(self.regions):
            route = r.route1 if mask >> i & 1 else r.route0
            present.update(route.arcs)
            joins += route.joins

        uf = _ArcUnion(present)
        for u, v in joins:
            # a join whose arc is absent glues nothing; genuine dangling ends
            # are caught below when some class fails to close up
            if u in present and v in present:
                uf.union(u, v)

        kept: list[tuple[int, int, int, int]] = []
        for q in self.quads:
            a, b, c, d = q
            pa, pb = a in present, b in present
            if pa != (c in present) or pb != (d in present):
                raise FamilyError(
                    f"crossing X[{a},{b},{c},{d}] is half-present in state "
                    f"{self._state_name(mask)}"
                )
            if pa and pb:
                kept.append(q)
            elif pa:
                uf.union(a, c)
            elif pb:
                uf.union(b, d)

        root = {a: uf.find(a) for a in present}
        used = {root[a] for q in kept for a in q}
        loops = set(root.values()) - used
        if loops and (kept or len(loops) > 1):
            raise FamilyError(
                f"state {self._state_name(mask)} leaves a closed loop with no crossings"
            )
        relabel = {rep: i + 1 for i, rep in enumerate(sorted(used))}
        quads = tuple(tuple(relabel[root[a]] for a in q) for q in kept)
        if quads not in built:
            built[quads] = self._diagram(mask, quads)
        return built[quads]

    def _diagram(self, mask: int, quads: tuple[tuple[int, ...], ...]) -> Diagram:
        """The renumbered knot of one state's relabelled quads."""
        if not quads:
            return Diagram((), 1)
        try:
            d = Diagram.from_quads(quads)
        except PDError as e:
            raise FamilyError(
                f"state {self._state_name(mask)} is not a valid diagram: {e}"
            ) from e
        if d.n_components != 1:
            raise FamilyError(
                f"state {self._state_name(mask)} has {d.n_components} components; "
                "hosts must resolve to knots"
            )
        return _renumber(d)

    def _state_name(self, mask: int) -> str:
        taken = [str(i + 1) for i in range(self.m) if mask >> i & 1]
        return "{" + ",".join(taken) + "}"

    def resolve(self, taken: Iterable[int]) -> Diagram:
        """The diagram with route1 at the given region indices, route0 elsewhere."""
        mask = 0
        for i in taken:
            if not 0 <= i < self.m:
                raise IndexError(f"region index {i} out of range")
            mask |= 1 << i
        return self._resolutions[mask]

    def frozen(self, r: int, take: bool) -> "DetourFamily":
        """Commit region r to one route, producing an (m-1)-region family."""
        if not 0 <= r < self.m:
            raise IndexError(f"region index {r} out of range")
        region = self.regions[r]
        chosen = region.route1 if take else region.route0
        rest = self.regions[:r] + self.regions[r + 1 :]
        declared = set(self.host_arcs) | set(chosen.arcs)
        for other in rest:
            declared |= set(other.route0.arcs) | set(other.route1.arcs)
        quads = []
        joins = [j for j in self.host_joins if all(a in declared for a in j)]
        for q in self.quads:
            a, b, c, d = q
            da, db, dc, dd = (x in declared for x in q)
            if da != dc or db != dd:
                raise FamilyError(
                    f"crossing X[{a},{b},{c},{d}] loses half a strand when "
                    f"region {r} is frozen"
                )
            if da and db:
                quads.append(q)
            elif da:  # over strand gone for good: under runs straight through
                joins.append((a, c))
            elif db:
                joins.append((b, d))
        return DetourFamily(quads, rest, tuple(joins) + chosen.joins)

    def canonical_key(self) -> str:
        if self._key is None:
            parts = [f"m={self.m}"]
            parts += [
                self._resolutions[mask].canonical_key()
                for mask in range(1 << self.m)
            ]
            self._key = "|".join(parts)
        return self._key

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DetourFamily)
            and self.canonical_key() == other.canonical_key()
        )

    def __hash__(self):
        return hash(self.canonical_key())

    def __repr__(self):
        return f"<DetourFamily m={self.m} host crossings={len(self.quads)}>"


# ---------------------------------------------------------------------------
# file format

_TOKEN_RE = re.compile(r"([XPSA])(\d*)\[([0-9,\s]*)\]$")


def _scan_tokens(chunk: str, where: str):
    for raw in chunk.split():
        m = _TOKEN_RE.match(raw)
        if not m:
            raise FamilyError(f"malformed token {raw!r} in {where}")
        kind, idx, body = m.groups()
        try:
            nums = tuple(int(p) for p in body.split(",")) if body.strip() else ()
        except ValueError:
            raise FamilyError(f"malformed token {raw!r} in {where}") from None
        yield kind, idx, nums, raw


def parse_family(text: str) -> DetourFamily:
    """Parse the detour-family text format.

    Layout::

        family regions=<m>
        host <X[a,b,c,d] | P[u,v] | S<k>[stub,...] tokens>
        region <k> route0 <A[arc,...] | X[...] | P[u,v] tokens>
        region <k> route1 <...>

    X tokens declare gated crossings wherever they appear; A tokens declare
    route-owned arcs; P tokens join arc ends; S tokens mark each region's
    stub arcs on the host.  '#' starts a comment.
    """
    m_count = None
    quads: list[tuple[int, int, int, int]] = []
    host_joins: list[tuple[int, int]] = []
    stubs: dict[int, tuple[int, ...]] = {}
    routes: dict[tuple[int, int], tuple[list[int], list[tuple[int, int]]]] = {}

    def collect(chunk: str, where: str, region_key: tuple[int, int] | None):
        for kind, idx, nums, raw in _scan_tokens(chunk, where):
            if kind == "X":
                if idx or len(nums) != 4:
                    raise FamilyError(f"bad crossing token {raw!r} in {where}")
                quads.append(nums)
            elif kind == "P":
                if idx or len(nums) != 2:
                    raise FamilyError(f"bad join token {raw!r} in {where}")
                if region_key is None:
                    host_joins.append(nums)
                else:
                    routes[region_key][1].append(nums)
            elif kind == "S":
                if region_key is not None:
                    raise FamilyError(f"socket token {raw!r} outside host in {where}")
                if not idx:
                    raise FamilyError(f"socket token {raw!r} lacks a region number")
                k = int(idx)
                if k in stubs:
                    raise FamilyError(f"duplicate socket S{k}")
                stubs[k] = nums
            else:  # A
                if region_key is None:
                    raise FamilyError(f"arc declaration {raw!r} outside a route")
                if idx:
                    raise FamilyError(f"bad arc token {raw!r} in {where}")
                routes[region_key][0].extend(nums)

    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"line {lineno}"
        head, _, rest = line.partition(" ")
        if head == "family":
            if m_count is not None:
                raise FamilyError(f"duplicate family header at {where}")
            m = re.fullmatch(r"regions=(\d+)", rest.strip())
            if not m:
                raise FamilyError(f"malformed family header at {where}")
            m_count = int(m.group(1))
        elif head == "host":
            if m_count is None:
                raise FamilyError(f"host before family header at {where}")
            collect(rest, where, None)
        elif head == "region":
            if m_count is None:
                raise FamilyError(f"region before family header at {where}")
            m = re.fullmatch(r"(\d+)\s+route([01])\s*(.*)", rest)
            if not m:
                raise FamilyError(f"malformed region line at {where}")
            k, which, chunk = int(m.group(1)), int(m.group(2)), m.group(3)
            if not 1 <= k <= m_count:
                raise FamilyError(f"region number {k} out of range at {where}")
            key = (k, which)
            if key in routes:
                raise FamilyError(f"duplicate route{which} for region {k} at {where}")
            routes[key] = ([], [])
            collect(chunk, where, key)
        else:
            raise FamilyError(f"unrecognized line {line!r} at {where}")

    if m_count is None:
        raise FamilyError("missing family header")
    regions = []
    for k in range(1, m_count + 1):
        if k not in stubs:
            raise FamilyError(f"missing socket S{k} in host")
        pair = []
        for which in (0, 1):
            if (k, which) not in routes:
                raise FamilyError(f"missing route{which} for region {k}")
            arcs, joins = routes[(k, which)]
            pair.append(Route(tuple(arcs), tuple(joins)))
        regions.append(SwitchRegion(stubs[k], pair[0], pair[1]))
    return DetourFamily(quads, regions, host_joins)


def serialize_family(f: DetourFamily) -> str:
    """Inverse of parse_family (stable token order)."""
    host = ["X[%d,%d,%d,%d]" % q for q in f.quads]
    host += ["P[%d,%d]" % j for j in f.host_joins]
    for k, r in enumerate(f.regions, 1):
        host.append("S%d[%s]" % (k, ",".join(map(str, r.stubs))))
    lines = [f"family regions={f.m}", "host " + " ".join(host)]
    for k, r in enumerate(f.regions, 1):
        for which, route in ((0, r.route0), (1, r.route1)):
            toks = []
            if route.arcs:
                toks.append("A[%s]" % ",".join(map(str, route.arcs)))
            toks += ["P[%d,%d]" % j for j in route.joins]
            lines.append(f"region {k} route{which} " + " ".join(toks))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# differences


def delta_g(f: DetourFamily, r: int) -> FormalSum:
    """(f frozen to the detour at r) - (f frozen to the main road at r)."""
    return FormalSum([(f.frozen(r, True), 1), (f.frozen(r, False), -1)])


def goussarov_difference(f: DetourFamily, inv: Invariant):
    """Alternating sum of inv over all 2^m route selections.

    Resolutions are merged by canonical form before evaluation, so shared
    values (the whole point of the encodings) are computed once.
    """
    total = FormalSum(
        (f._resolutions[mask], -1 if bin(mask).count("1") % 2 else 1)
        for mask in range(1 << f.m)
    )
    return evaluate_on_sum(inv, total)


def goussarov_type_check(
    inv: Invariant,
    n: int,
    corpus: Sequence[DetourFamily],
    labels: Sequence[str] | None = None,
) -> TypeCheckReport:
    """Test that the (n+1)-region detour sums of inv vanish on the corpus."""
    cases = []
    for pos, fam in enumerate(corpus):
        if fam.m != n + 1:
            raise ValueError(
                f"corpus entry {pos}: expected {n + 1} regions, got {fam.m}"
            )
        value = goussarov_difference(fam, inv)
        label = labels[pos] if labels is not None else f"family{pos}"
        cases.append(TypeCheckCase(label, None, value, value == inv.zero))
    return TypeCheckReport(inv.name, n, tuple(cases))


# ---------------------------------------------------------------------------
# encodings


def _insert_pair(
    quads: list[tuple[int, int, int, int]], i: int, sign: int, top: int
) -> tuple[SwitchRegion, SwitchRegion]:
    """Splice the two-region switch gadget around crossing i (in place).

    The under-in and over-in arcs of crossing i are cut at sockets; each
    region's detour leads its strand through two extra crossings shared
    with the partner detour.  With both detours taken, the extra pair is a
    full twist that cancels against crossing i by one R2 move, leaving the
    switched crossing; with at most one taken, the gated crossings vanish
    and the diagram is unchanged.  The new arcs are labelled top+1..top+8.
    """
    a2, o2, u0, u1, u2, v0, v1, v2 = range(top + 1, top + 9)
    over_slot = 3 if sign > 0 else 1
    q = list(quads[i])
    a, o = q[0], q[over_slot]
    q[0] = a2
    q[over_slot] = o2
    quads[i] = tuple(q)
    if sign > 0:
        quads.append((v0, u0, v1, u1))
        quads.append((u1, v1, u2, v2))
    else:
        quads.append((v0, u1, v1, u0))
        quads.append((u1, v2, u2, v1))
    r_under = SwitchRegion(
        (a, a2),
        Route((), ((a, a2),)),
        Route((u0, u1, u2), ((a, u0), (u2, a2))),
    )
    r_over = SwitchRegion(
        (o, o2),
        Route((), ((o, o2),)),
        Route((v0, v1, v2), ((o, v0), (v2, o2))),
    )
    return r_under, r_over


def encode_crossing_as_detours(k: Diagram, i: int) -> DetourFamily:
    """A 2-region family resolving to K, K, K, switch(K, i).

    Only the both-detours state braids; every other state is exactly K up
    to arc renumbering.  This is switch_family(k, (i,)).
    """
    return switch_family(k, (i,))


def switch_family(k: Diagram, crossings: Iterable[int]) -> DetourFamily:
    """One switch-gadget pair per listed crossing of k, in order.

    With p crossings this is a 2p-region family whose resolutions are the
    2^p switched versions of k: a crossing is switched exactly when both
    regions of its pair take the detour.  These are the stock examples for
    vanishing (and sharpness) of iterated detour differences, and both
    encodings are cases of it.
    """
    if not k.is_knot():
        raise FamilyError("detour hosts must be knots")
    idx = list(crossings)
    if len(set(idx)) != len(idx):
        raise FamilyError("crossing indices must be distinct")
    quads = [x.slots for x in k.crossings]
    top = max(k.arcs(), default=0)
    regions: list[SwitchRegion] = []
    for i in idx:
        if not 0 <= i < k.n_crossings:
            raise IndexError(f"crossing index {i} out of range")
        regions.extend(_insert_pair(quads, i, k.crossings[i].sign, top))
        top += 8
    return DetourFamily(quads, regions)


def encode_singular_as_bracelet(k: SingularDiagram) -> DetourFamily:
    """One switch-gadget pair per double point, 2(n+1) regions total.

    The no-detours state is the all-negative resolution; taking both
    detours of pair j flips double point j to its positive resolution, so
    the alternating detour sum telescopes to the full resolution sum.
    This is switch_family of the all-negative resolution at the double
    points, in increasing order.
    """
    return switch_family(k.resolved({i: -1 for i in k.marked}), sorted(k.marked))


@dataclass(frozen=True)
class Theorem1Result:
    lhs: object
    rhs: object

    @property
    def equal(self) -> bool:
        return self.lhs == self.rhs


def theorem1_identity_check(k: SingularDiagram, inv: Invariant) -> Theorem1Result:
    """Compare the resolution sum of k with the detour sum of its encoding.

    lhs = inv extended linearly over resolve_all(k); rhs = the alternating
    detour sum over encode_singular_as_bracelet(k).  The two are equal for
    every invariant; the check returns both values and the verdict.
    """
    lhs = evaluate_on_sum(inv, resolve_all(k))
    rhs = goussarov_difference(encode_singular_as_bracelet(k), inv)
    return Theorem1Result(lhs, rhs)
