"""Built-in acceptance suite: nine numbered criteria, one verdict line each.

Every criterion is an independent zero-argument function returning a
CriterionResult; randomized criteria use fixed seeds, all comparisons are
exact, and the whole suite is deterministic.  ``run_selftest`` prints one
line per criterion and returns a process exit code (0 all pass, 1 any
fail); the test suite asserts the same functions one by one.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .bracelets import (
    BraceletError,
    HopfPairBracelet,
    detect_hopf_pairs,
    odd_degree_empty,
    realize_as_link,
)
from .chord_algebra import _matchings, dim_a, enumerate_diagrams
from .diagram import FormalSum, SingularDiagram
from .exact_math import LaurentPoly
from .goussarov import (
    DetourFamily,
    Route,
    SwitchRegion,
    goussarov_difference,
    goussarov_type_check,
    switch_family,
    theorem1_identity_check,
)
from .invariants import conway, get_invariant, invariant_names, jones, kauffman_bracket
from .oracles import bracket_state_sum, conway_skein, count_diagrams_burnside
from .tables import bundled_suite_path, bundled_table, load_suite
from .vassiliev import (
    resolve_all,
    resolve_once,
    vassiliev_difference,
    vassiliev_type_check,
)

__all__ = ["CriterionResult", "CRITERIA", "run_selftest"]


@dataclass(frozen=True)
class CriterionResult:
    """Verdict for one acceptance criterion, with witness lines on failure."""

    number: int
    title: str
    passed: bool
    details: tuple[str, ...] = ()

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return f"criterion {self.number}: {verdict} - {self.title}"


def _collect(checks: list[tuple[str, bool]]) -> tuple[bool, tuple[str, ...]]:
    bad = tuple(name for name, ok in checks if not ok)
    return not bad, bad


# ---------------------------------------------------------------------------
# 1. invariant engine against the state-sum bracket, the skein and published
#    values


# Conway polynomials from the knot tables (Chmutov-Duzhin-Mostovoy 2012).
# The Hopf link is the one whose odd z-power catches a sign slip in a
# skein step; knot polynomials are even in z and would not.
_CONWAY_PINS: dict[str, str] = {
    "3_1": "1 + z^2",
    "4_1": "1 - z^2",
    "6_1": "1 - 2*z^2",
    "8_3": "1 - 4*z^2",
    "hopf": "z",
}


def criterion_1() -> CriterionResult:
    table = bundled_table()
    one_q = LaurentPoly.constant("q", 1)
    one_z = LaurentPoly.constant("z", 1)
    checks = [
        ("jones(unknot) = 1", jones(table["0_1"]) == one_q),
        ("conway(unknot) = 1", conway(table["0_1"]) == one_z),
        ("conway(2-component unlink) = 0", conway(table["unlink2"]).is_zero()),
    ]
    for name in ("3_1", "4_1", "6_1", "8_3"):
        d = table[name]
        checks.append((
            f"bracket({name}) = full state-sum oracle",
            kauffman_bracket(d)[0] == bracket_state_sum(d)[0],
        ))
    for name, want in _CONWAY_PINS.items():
        checks.append((f"conway({name}) = {want} (published)", str(conway(table[name])) == want))
    for name, d in table.items():
        checks.append((f"conway({name}) = skein oracle", conway(d) == conway_skein(d)))
    ok, bad = _collect(checks)
    return CriterionResult(1, "jones/conway exact and equal to independent oracles", ok, bad)


# ---------------------------------------------------------------------------
# 2. resolving two double points commutes


def criterion_2() -> CriterionResult:
    rng = random.Random(20230202)
    table = bundled_table()
    hosts = [d for d in table.values() if d.n_crossings >= 2]
    bad: list[str] = []
    for trial in range(50):
        d = rng.choice(hosts)
        i, j = rng.sample(range(d.n_crossings), 2)
        k = SingularDiagram(d, (i, j))
        first_i = resolve_once(k, i).map_terms(lambda s: resolve_once(s, j))
        first_j = resolve_once(k, j).map_terms(lambda s: resolve_once(s, i))
        if first_i != first_j:
            bad.append(f"trial {trial}: orders ({i},{j}) and ({j},{i}) disagree")
            continue
        flat = first_i.map_terms(lambda s: FormalSum.single(s.diagram))
        if flat != resolve_all(k):
            bad.append(f"trial {trial}: iterated differs from full expansion")
    return CriterionResult(
        2, "both orders of resolving 2 double points give one formal sum (50 random)",
        not bad, tuple(bad),
    )


# ---------------------------------------------------------------------------
# 3. Vassiliev vanishing on the bundled suites, with sharpness witnesses


def criterion_3() -> CriterionResult:
    table = bundled_table()
    checks: list[tuple[str, bool]] = []
    for suite, inv_name, degree in (("vtype_c2.suite", "c2", 2), ("vtype_j3.suite", "j3", 3)):
        cases = load_suite(bundled_suite_path(suite))
        report = vassiliev_type_check(
            get_invariant(inv_name),
            degree,
            [(c.diagram, c.crossings) for c in cases],
            [c.label for c in cases],
        )
        checks.append((f"{suite}: all {len(cases)} sums vanish", report.passed))
    w_c2 = vassiliev_difference(table["3_1"], (0, 1), get_invariant("c2"))
    checks.append(("c2 2-crossing trefoil sum = 1", w_c2 == Fraction(1)))
    w_j3 = vassiliev_difference(table["3_1"], (0, 1, 2), get_invariant("j3"))
    checks.append(("j3 3-crossing trefoil sum != 0", w_j3 != Fraction(0)))
    ok, bad = _collect(checks)
    return CriterionResult(
        3, "c2 is type 2 and j3 is type 3 on the 20-case suites, sharply", ok, bad
    )


# ---------------------------------------------------------------------------
# 4. marked-diagram sum = detour sum of the encoded family


_THEOREM1_CASES: tuple[tuple[str, tuple[int, ...]], ...] = (
    ("3_1", (0,)),
    ("3_1m", (1,)),
    ("4_1", (2,)),
    ("5_1", (4,)),
    ("6_1", (0,)),
    ("3_1", (0, 1)),
    ("3_1", (0, 2)),
    ("3_1m", (1, 2)),
    ("4_1", (0, 1)),
    ("4_1", (2, 3)),
)


def criterion_4() -> CriterionResult:
    table = bundled_table()
    bad: list[str] = []
    for label, marks in _THEOREM1_CASES:
        k = SingularDiagram(table[label], marks)
        for inv_name in invariant_names():
            res = theorem1_identity_check(k, get_invariant(inv_name))
            if not res.equal:
                bad.append(
                    f"{label} marks={marks} {inv_name}: {res.lhs} != {res.rhs}"
                )
    return CriterionResult(
        4,
        "resolution sum equals encoded detour sum on 10 marked diagrams x 4 invariants",
        not bad,
        tuple(bad),
    )


# ---------------------------------------------------------------------------
# 5. c2 vanishes on 5- and 6-region families, not on a 4-region one


def criterion_5() -> CriterionResult:
    table = bundled_table()
    c2 = get_invariant("c2")
    six = [
        ("3_1 pairs 0,1,2", switch_family(table["3_1"], (0, 1, 2))),
        ("3_1m pairs 0,1,2", switch_family(table["3_1m"], (0, 1, 2))),
        ("4_1 pairs 0,1,2", switch_family(table["4_1"], (0, 1, 2))),
        ("4_1 pairs 0,1,3", switch_family(table["4_1"], (0, 1, 3))),
        ("4_1 pairs 1,2,3", switch_family(table["4_1"], (1, 2, 3))),
    ]
    five = [
        (lbl + f" frozen {r}:{int(take)}", fam.frozen(r, take))
        for (lbl, fam), (r, take) in zip(
            six, ((5, True), (5, False), (4, True), (3, False), (0, True))
        )
    ]
    report5 = goussarov_type_check(c2, 4, [f for _, f in five], [l for l, _ in five])
    report6 = goussarov_type_check(c2, 5, [f for _, f in six], [l for l, _ in six])
    sharp = goussarov_difference(switch_family(table["3_1"], (0, 1)), c2)
    checks = [
        ("five 5-region sums vanish", report5.passed),
        ("five 6-region sums vanish", report6.passed),
        ("a 4-region sum is nonzero (= 1 on trefoil pairs 0,1)", sharp == Fraction(1)),
    ]
    ok, bad = _collect(checks)
    return CriterionResult(
        5, "c2 detour sums vanish at 5 and 6 regions and not at 4", ok, bad
    )


# ---------------------------------------------------------------------------
# 6. the four-term alternating sum I(6_1) - I(8_3) - I(unknot) + I(unknot)


_SUM_PINS: dict[str, str] = {
    "c2": "2",
    "conway": "2*z^2",
    "j3": "-6",
    "jones": "-q^-2 + q^-1 - 1 + 2*q - q^2 + q^3 - q^4",
}


def criterion_6() -> CriterionResult:
    table = bundled_table()
    checks: list[tuple[str, bool]] = []
    for name in invariant_names():
        inv = get_invariant(name)
        val = (
            inv(table["6_1"])
            - inv(table["8_3"])
            - inv(table["0_1"])
            + inv(table["0_1"])
        )
        checks.append((f"{name}: {val} (pinned {_SUM_PINS[name]})", str(val) == _SUM_PINS[name]))
    zed = conway(table["6_1"]) - conway(table["8_3"])
    checks.append(("conway value is nonzero", not zed.is_zero()))
    ok, bad = _collect(checks)
    return CriterionResult(
        6, "I(6_1)-I(8_3)-I(unknot)+I(unknot) matches pinned exact values", ok, bad
    )


# ---------------------------------------------------------------------------
# 7. chord diagram counts and weight-space dimensions


# Bar-Natan, "On the Vassiliev knot invariants", Topology 34 (1995); the framed
# dims are the prefix sums of the unframed ones, since A^fr = A (x) Q[theta].
UNFRAMED_DIMS = (1, 0, 1, 1, 3, 4, 9)
FRAMED_DIMS = (1, 1, 2, 3, 6, 10, 19)


def criterion_7() -> CriterionResult:
    checks = [("enumerate(3) has 5 diagrams", len(enumerate_diagrams(3)) == 5)]
    for n in range(7):
        checks.append(
            (
                f"count({n}) = orbit-count oracle",
                len(enumerate_diagrams(n)) == count_diagrams_burnside(n),
            )
        )
    for n in range(7):
        base = dim_a(n).dim
        checks.append((f"dim_a({n}) = {UNFRAMED_DIMS[n]}", base == UNFRAMED_DIMS[n]))
        stable = all(dim_a(n, order_seed=seed).dim == base for seed in (1, 2))
        checks.append((f"dim_a({n}) shuffle-invariant", stable))
        framed = dim_a(n, framed=True).dim
        checks.append((f"dim_a({n}, framed) = {FRAMED_DIMS[n]}", framed == FRAMED_DIMS[n]))
    ok, bad = _collect(checks)
    return CriterionResult(
        7, "chord counts match the pairing oracle; dims pinned and order-independent",
        ok, bad,
    )


# ---------------------------------------------------------------------------
# 8. bracelets: odd degrees impossible, even degrees round-trip exactly


def _odd_attempt(n: int) -> tuple[tuple[int, int], ...]:
    pairs = [(i, i + 1) for i in range(1, n - 1, 2)]
    pairs.append((n, n))
    return tuple(pairs)


def criterion_8() -> CriterionResult:
    checks: list[tuple[str, bool]] = []
    for n in (1, 3, 5, 7):
        checks.append((f"odd_degree_empty({n}) = ()", odd_degree_empty(n) == ()))
        try:
            HopfPairBracelet.from_matching(_odd_attempt(n))
            checks.append((f"{n}-component construction rejected", False))
        except BraceletError:
            checks.append((f"{n}-component construction rejected", True))
    try:
        detect_hopf_pairs(bundled_table()["chain3"])
        checks.append(("odd link rejected by detector", False))
    except BraceletError:
        checks.append(("odd link rejected by detector", True))

    from .invariants import linking_matrix

    matrices: set[tuple[tuple[int, ...], ...]] = set()
    total = 0
    roundtrip = True
    for n in (2, 4, 6, 8):
        for pairs in _matchings(tuple(range(1, n + 1))):
            total += 1
            b = HopfPairBracelet.from_matching(pairs)
            link = realize_as_link(pairs)
            if detect_hopf_pairs(link).matching != b.matching:
                roundtrip = False
            matrices.add(tuple(map(tuple, linking_matrix(link.link))))
    checks.append((f"all {total} matchings round-trip", roundtrip))
    checks.append(("linking matrices pairwise distinct", len(matrices) == total))
    ok, bad = _collect(checks)
    return CriterionResult(
        8, "no odd bracelets; all 124 even matchings (n<=8) detected exactly", ok, bad
    )


# ---------------------------------------------------------------------------
# 9. a duplicated route annihilates the detour sum


def criterion_9() -> CriterionResult:
    rng = random.Random(20230909)
    table = bundled_table()
    hosts = ("3_1", "3_1m", "4_1", "5_1")
    bad: list[str] = []
    for trial in range(20):
        k = table[rng.choice(hosts)]
        n_pairs = rng.choice((1, 2))
        crossings = rng.sample(range(k.n_crossings), n_pairs)
        fam = switch_family(k, crossings)
        regions = list(fam.regions)
        if rng.random() < 0.5:
            # same detour on both sides of one gadget region
            r = rng.randrange(fam.m)
            regions[r] = SwitchRegion(
                regions[r].stubs, regions[r].route1, regions[r].route1
            )
        else:
            # a do-nothing region: both routes empty
            regions.insert(rng.randrange(fam.m + 1), SwitchRegion((), Route(), Route()))
        degenerate = DetourFamily(fam.quads, regions, fam.host_joins)
        for inv_name in invariant_names():
            inv = get_invariant(inv_name)
            val = goussarov_difference(degenerate, inv)
            if val != inv.zero:
                bad.append(f"trial {trial} {inv_name}: {val}")
    return CriterionResult(
        9, "20 random duplicated-route families sum to 0 for every invariant",
        not bad, tuple(bad),
    )


CRITERIA: tuple[Callable[[], CriterionResult], ...] = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
)


def run_selftest(writer: Callable[[str], None] = print) -> int:
    """Run all criteria; print one line each (witnesses on failure)."""
    all_ok = True
    for fn in CRITERIA:
        res = fn()
        writer(res.line())
        if not res.passed:
            all_ok = False
            for detail in res.details:
                writer(f"  witness: {detail}")
    writer("selftest PASS" if all_ok else "selftest FAIL")
    return 0 if all_ok else 1
