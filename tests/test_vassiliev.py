"""Crossing-switch difference calculus and finite-type checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitype import diagram, vassiliev
from finitype.diagram import Diagram, FormalSum, SingularDiagram, parse_pd, serialize_pd
from finitype.invariants import evaluate_on_sum, get_invariant
from finitype.tables import bundled_table
from finitype.vassiliev import (
    difference_sum,
    resolve_all,
    resolve_once,
    vassiliev_difference,
    vassiliev_type_check,
)
from test_diagram import _least_serialization

T = bundled_table()


class TestKeyWork:
    def test_one_relabeling_search_per_resolution(self, monkeypatch):
        # a fresh parse, so no key of the cached table diagram is reused
        k = parse_pd(serialize_pd(T["5_1"]))
        # every uncached Diagram key runs the search kernel once
        searches = []
        original = Diagram._least_body

        def counted(self):
            searches.append(self)
            return original(self)

        monkeypatch.setattr(Diagram, "_least_body", counted)
        vassiliev_difference(k, (0, 1, 2), get_invariant("c2"))
        assert len(searches) == 8

    def test_cube_expanded_once(self, monkeypatch):
        # 2^3 - 1 switches build the 3-crossing cube, for a plain diagram
        # and for three double points alike
        switches = []
        original = diagram.switch_crossing

        def counted(d, i):
            switches.append(i)
            return original(d, i)

        for module in (diagram, vassiliev):
            monkeypatch.setattr(module, "switch_crossing", counted)
        vassiliev_difference(T["5_1"], (0, 1, 2), get_invariant("c2"))
        assert len(switches) == 7
        switches.clear()
        resolve_all(SingularDiagram(T["4_1"], (0, 1, 3)))
        assert len(switches) == 7


class TestResolveOnce:
    def test_two_terms_with_opposite_signs(self):
        k = SingularDiagram(T["3_1"], (0,))
        s = resolve_once(k, 0)
        assert len(s) == 2
        coeffs = sorted(c for _, c in s.terms())
        assert coeffs == [Fraction(-1), Fraction(1)]

    def test_resolved_terms_carry_remaining_marks(self):
        k = SingularDiagram(T["4_1"], (0, 2))
        s = resolve_once(k, 0)
        for obj, _ in s.terms():
            assert obj.marked == frozenset({2})

    def test_unmarked_index_rejected(self):
        k = SingularDiagram(T["3_1"], (0,))
        with pytest.raises(ValueError):
            resolve_once(k, 1)

    def test_order_independence_random(self):
        rng = random.Random(4242)
        hosts = [d for d in T.values() if d.n_crossings >= 3]
        for _ in range(30):
            d = rng.choice(hosts)
            i, j = rng.sample(range(d.n_crossings), 2)
            k = SingularDiagram(d, (i, j))
            ij = resolve_once(k, i).map_terms(lambda s: resolve_once(s, j))
            ji = resolve_once(k, j).map_terms(lambda s: resolve_once(s, i))
            assert ij == ji

    def test_term_keys_match_their_definition(self):
        # the marked diagrams above; every resolve_once term keeps its
        # other double point, and its key is checked against the definition
        rng = random.Random(4242)
        hosts = [d for d in T.values() if d.n_crossings >= 3]
        cases = [(T["3_1"], (0,)), (T["4_1"], (0, 2)), (T["4_1"], (1, 3))]
        for _ in range(30):
            d = rng.choice(hosts)
            cases.append((d, tuple(rng.sample(range(d.n_crossings), 2))))
        for d, points in cases:
            k = SingularDiagram(d, points)
            for p in points:
                for term, _ in resolve_once(k, p).terms():
                    want = _least_serialization(term.diagram, term.marked)
                    assert term.canonical_key() == want, (serialize_pd(d), points, p)


class TestResolveAll:
    def test_term_count_before_cancellation(self):
        k = SingularDiagram(T["4_1"], (0, 1, 2))
        # 2^3 sign patterns; distinct diagrams may merge but never exceed 8
        assert len(resolve_all(k)) <= 8

    def test_agrees_with_iterated_resolve_once(self):
        k = SingularDiagram(T["4_1"], (1, 3))
        iterated = (
            resolve_once(k, 1)
            .map_terms(lambda s: resolve_once(s, 3))
            .map_terms(lambda s: FormalSum.single(s.diagram))
        )
        assert iterated == resolve_all(k)

    def test_no_marks_is_identity(self):
        k = SingularDiagram(T["3_1"], ())
        assert resolve_all(k) == FormalSum.single(T["3_1"])


class TestDifferenceSum:
    def test_subset_signs(self):
        d = T["3_1"]
        s = difference_sum(d, (0,))
        assert s.coefficient(d) == 1
        from finitype.diagram import switch_crossing

        assert s.coefficient(switch_crossing(d, 0)) == -1

    def test_duplicate_indices_rejected(self):
        with pytest.raises(ValueError):
            difference_sum(T["3_1"], (0, 0))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            difference_sum(T["3_1"], (0, 7))

    def test_empty_subset(self):
        assert difference_sum(T["3_1"], ()) == FormalSum.single(T["3_1"])


class TestVassilievDifference:
    def test_zero_crossings_evaluates_directly(self):
        c2 = get_invariant("c2")
        assert vassiliev_difference(T["3_1"], (), c2) == Fraction(1)

    def test_equals_signed_resolution_sum(self):
        # sum over switch subsets = (product of original signs) * resolution sum
        c2 = get_invariant("c2")
        for name, crossings in (("3_1", (0, 1)), ("4_1", (0, 2)), ("4_1", (1, 2, 3))):
            d = T[name]
            lhs = vassiliev_difference(d, crossings, c2)
            prod = 1
            for i in crossings:
                prod *= d.crossings[i].sign
            rhs = prod * evaluate_on_sum(c2, resolve_all(SingularDiagram(d, crossings)))
            assert lhs == rhs, (name, crossings)

    def test_c2_type_two_witnesses(self):
        c2 = get_invariant("c2")
        assert vassiliev_difference(T["3_1"], (0, 1), c2) == Fraction(1)
        assert vassiliev_difference(T["3_1"], (0, 1, 2), c2) == Fraction(0)

    def test_higher_order_sums_also_vanish(self):
        # type n implies all m-fold sums with m > n vanish too
        c2 = get_invariant("c2")
        assert vassiliev_difference(T["4_1"], (0, 1, 2, 3), c2) == Fraction(0)
        j3 = get_invariant("j3")
        assert vassiliev_difference(T["6_1"], (0, 1, 2, 3, 4), j3) == Fraction(0)

    def test_j3_type_three_witnesses(self):
        j3 = get_invariant("j3")
        assert vassiliev_difference(T["3_1"], (0, 1, 2), j3) == Fraction(12)
        assert vassiliev_difference(T["4_1"], (0, 1, 2, 3), j3) == Fraction(0)

    def test_jones_is_not_type_three(self):
        jones = get_invariant("jones")
        val = vassiliev_difference(T["4_1"], (0, 1, 2, 3), jones)
        assert not val.is_zero()


class TestTypeCheck:
    def test_report_structure_and_pass(self):
        c2 = get_invariant("c2")
        corpus = [(T["3_1"], (0, 1, 2)), (T["4_1"], (0, 1, 3))]
        report = vassiliev_type_check(c2, 2, corpus, ["tre", "fig8"])
        assert report.passed
        assert [c.label for c in report.cases] == ["tre", "fig8"]
        lines = report.lines()
        assert lines[-1].startswith("PASS (2/2")
        assert "crossings=0,1,2 value=0" in lines[0]

    def test_failing_case_reported(self):
        c2 = get_invariant("c2")
        report = vassiliev_type_check(c2, 1, [(T["3_1"], (0, 1))])
        assert not report.passed
        assert report.cases[0].value == Fraction(1)
        assert report.lines()[-1].startswith("FAIL (0/1")

    def test_wrong_subset_size_rejected(self):
        c2 = get_invariant("c2")
        with pytest.raises(ValueError):
            vassiliev_type_check(c2, 2, [(T["3_1"], (0, 1))])

    def test_default_labels(self):
        c2 = get_invariant("c2")
        report = vassiliev_type_check(c2, 2, [(T["3_1"], (0, 1, 2))])
        assert report.cases[0].label == "case0"


@st.composite
def knot_and_subset(draw):
    names = ["3_1", "3_1m", "4_1", "5_1", "6_1", "8_3"]
    d = T[draw(st.sampled_from(names))]
    size = draw(st.integers(1, min(3, d.n_crossings)))
    subset = draw(
        st.lists(
            st.integers(0, d.n_crossings - 1),
            min_size=size,
            max_size=size,
            unique=True,
        )
    )
    return d, tuple(subset)


class TestProperties:
    @given(knot_and_subset())
    @settings(max_examples=30, deadline=None)
    def test_difference_sum_term_count(self, dc):
        d, crossings = dc
        s = difference_sum(d, crossings)
        assert len(s) <= 2 ** len(crossings)
        total = sum(c for _, c in s.terms())
        # coefficients are +-1 summing to 0 for nonempty subsets
        if crossings:
            assert total == 0

    @given(knot_and_subset())
    @settings(max_examples=20, deadline=None)
    def test_subset_order_irrelevant(self, dc):
        d, crossings = dc
        c2 = get_invariant("c2")
        forward = vassiliev_difference(d, crossings, c2)
        backward = vassiliev_difference(d, tuple(reversed(crossings)), c2)
        assert forward == backward
