"""The three workloads: seeded op lists, how each op runs, and its check.

A run executes batches.  A batch is a fixed op list drawn from
(workload, seed, batch index), so every batch of every run of one seed is
reproducible, and each batch brings fresh inputs: in-run caches fill as in
a user session but a batch never sees its own inputs twice.  Each batch
has the same mix of sizes (the stratification below), so its cost varies
little from seed to seed.

knot_invariants
    jones and conway on braid closures with 8..13 crossings, two inputs
    per crossing count, a 3-component link in the second slot of odd
    counts.  Bracket states and LaurentPoly arithmetic do nearly all the
    work; no canonical key is computed.
difference_sums
    crossing-switch and detour sums on 5..8-crossing knots and
    2-component links: canonical keys, FormalSum merges and DetourFamily
    resolutions do most of the work, the bracket little (j3 ops only).
chord_dims
    dim_a for n = 0..6, unframed and framed, each with its own order
    seed: only chord_algebra and SparseMatrix.rank run.  With 14 ops a
    batch, op_p50_ms lands inside the n = 3 ops and op_p90_ms inside the
    unframed n = 6 ops rather than on the edge between two sizes.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass

import checks
from gen import BraidClosure, random_closure


@dataclass(frozen=True)
class Op:
    kind: str
    braid: BraidClosure | None = None
    args: tuple = ()


def _knot_invariants(rng: random.Random) -> list[Op]:
    ops = []
    for c in range(8, 14):
        for slot in range(2):
            b = random_closure(rng, c, 3 if slot and c % 2 else 1)
            ops += [Op("jones", b), Op("conway", b)]
    return ops


def _picked(rng: random.Random, c: int, components: int, picks: int) -> tuple:
    """A fresh c-crossing closure and `picks` distinct crossings of it."""
    return random_closure(rng, c, components), tuple(rng.sample(range(c), picks))


def _difference_sums(rng: random.Random) -> list[Op]:
    ops = []
    for c in range(5, 9):
        for kind, picks in (
            ("c2_x2", 2),
            ("c2_x3", 3),
            ("detour6_c2", 3),
            ("dup_route_c2", 2),
            ("theorem1_c2", 2),
            ("theorem1_conway", 2),
        ):
            ops.append(Op(kind, *_picked(rng, c, 1, picks)))
        if c <= 6:
            ops.append(Op("j3_x4", *_picked(rng, c, 1, 4)))
        ops.append(Op("conway_link_x2", *_picked(rng, c, 2, 2)))
    return ops


def _chord_dims(rng: random.Random) -> list[Op]:
    return [
        Op("dim_a", None, (n, framed, rng.randrange(1 << 31)))
        for n in range(7)
        for framed in (False, True)
    ]


WORKLOADS = {
    "knot_invariants": _knot_invariants,
    "difference_sums": _difference_sums,
    "chord_dims": _chord_dims,
}


def make_batches(workload: str, seed: int, count: int) -> list[list[Op]]:
    build = WORKLOADS[workload]
    return [build(random.Random(f"{workload}:{seed}:{b}")) for b in range(count)]


_DIFFERENCE_INVARIANT = {
    "c2_x2": "c2",
    "c2_x3": "c2",
    "j3_x4": "j3",
    "conway_link_x2": "conway",
}


def _duplicated_route(ft, family):
    """The family with region 1 taking its detour on both routes.

    Region 1 then no longer switches anything, so resolutions cancel in
    pairs and every detour sum over the family is zero.
    """
    regions = list(family.regions)
    regions[1] = dataclasses.replace(regions[1], route0=regions[1].route1)
    return ft.DetourFamily(family.quads, regions, family.host_joins)


def run_op(ft, op: Op):
    """Execute one op through the public finitype API, from PD text."""
    if op.kind == "dim_a":
        n, framed, order_seed = op.args
        return ft.dim_a(n, framed=framed, order_seed=order_seed)
    k = ft.parse_pd(op.braid.pd)
    if op.kind == "jones":
        return ft.jones(k)
    if op.kind == "conway":
        return ft.conway(k)
    if op.kind in _DIFFERENCE_INVARIANT:
        inv = ft.get_invariant(_DIFFERENCE_INVARIANT[op.kind])
        return ft.vassiliev_difference(k, op.args, inv)
    c2 = ft.get_invariant("c2")
    if op.kind == "detour6_c2":
        return ft.goussarov_difference(ft.switch_family(k, op.args), c2)
    if op.kind == "dup_route_c2":
        return ft.goussarov_difference(_duplicated_route(ft, ft.switch_family(k, op.args)), c2)
    if op.kind == "theorem1_c2":
        return ft.theorem1_identity_check(ft.SingularDiagram(k, op.args), c2)
    if op.kind == "theorem1_conway":
        inv = ft.get_invariant("conway")
        return ft.theorem1_identity_check(ft.SingularDiagram(k, op.args), inv)
    raise ValueError(f"unknown op kind {op.kind!r}")


def check_op(op: Op, value) -> bool:
    """Compare an op's value with its independent oracle."""
    b = op.braid
    if op.kind == "jones":
        return checks.check_jones(b, value)
    if op.kind == "conway":
        return checks.check_conway(b, value)
    if op.kind == "c2_x2":
        return checks.check_c2_pair(b, *op.args, value)
    if op.kind in ("c2_x3", "j3_x4", "detour6_c2", "dup_route_c2"):
        return checks.check_zero(value)
    if op.kind == "conway_link_x2":
        return checks.check_conway_link_pair(value)
    if op.kind in ("theorem1_c2", "theorem1_conway"):
        return checks.check_theorem1(b, *op.args, value, op.kind == "theorem1_conway")
    if op.kind == "dim_a":
        n, framed, _ = op.args
        return checks.check_dim(n, framed, value)
    raise ValueError(f"unknown op kind {op.kind!r}")
