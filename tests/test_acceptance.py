"""Acceptance gate: every built-in verification criterion, one test each.

Each test evaluates one numbered criterion from :mod:`finitype.selftest`,
prints its single pass/fail line (run pytest with ``-s`` or look at the
captured output), and fails with the collected witnesses if the criterion
does not hold.  ``finitype selftest`` runs the same nine checks from the
command line.
"""

from finitype.selftest import CRITERIA

_cache: dict[int, object] = {}


def _check(number: int) -> None:
    if number not in _cache:
        _cache[number] = CRITERIA[number - 1]()
    res = _cache[number]
    print(res.line())
    assert res.passed, "\n".join([res.line(), *res.details])


def test_criterion_1_polynomial_invariants_match_oracles():
    """jones/conway agree with skein-independent recomputations, exactly."""
    _check(1)


def test_criterion_2_resolution_is_order_independent():
    """Resolving two double points in either order gives the same formal sum."""
    _check(2)


def test_criterion_3_vassiliev_types_on_bundled_suites():
    """c2 is type 2 and j3 is type 3 across both 20-case suites, sharply."""
    _check(3)


def test_criterion_4_resolution_sum_equals_detour_sum():
    """The two sides of the singular-encoding identity agree everywhere tested."""
    _check(4)


def test_criterion_5_detour_sums_vanish_beyond_the_type():
    """c2 detour sums vanish on 5- and 6-region families and not at 4."""
    _check(5)


def test_criterion_6_alternating_sum_values_are_pinned():
    """The 6_1/8_3 alternating sum reproduces frozen exact values."""
    _check(6)


def test_criterion_7_chord_counts_and_dimensions():
    """Chord enumeration matches the orbit-count oracle; dims are pinned."""
    _check(7)


def test_criterion_8_bracelets_exist_exactly_in_even_degrees():
    """No odd-degree bracelet exists; all 124 even matchings round-trip."""
    _check(8)


def test_criterion_9_degenerate_families_sum_to_zero():
    """Duplicated-route families have vanishing detour sums for every invariant."""
    _check(9)
