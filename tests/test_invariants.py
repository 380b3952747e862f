"""Frozen invariant values, oracle agreement, and structural properties."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finitype import invariants
from finitype.diagram import Crossing, Diagram, FormalSum, mirror, parse_pd, switch_crossing
from finitype.exact_math import LaurentPoly
from finitype.invariants import (
    InvariantError,
    _smooth_oriented,
    c2,
    conway,
    evaluate_on_sum,
    get_invariant,
    invariant_names,
    j3,
    jones,
    kauffman_bracket,
    linking_matrix,
)
from finitype.oracles import bracket_state_sum, conway_skein
from finitype.tables import bundled_table


def q(**terms):
    return LaurentPoly(
        "q",
        {
            (-int(k[2:]) if k.startswith("em") else int(k[1:])): Fraction(v)
            for k, v in terms.items()
        },
    )


def z(**terms):
    return LaurentPoly(
        "z",
        {
            (-int(k[2:]) if k.startswith("em") else int(k[1:])): Fraction(v)
            for k, v in terms.items()
        },
    )


T = bundled_table()


def braid_closure(strands: int, word) -> Diagram:
    """Closure of a braid word; letter +g / -g is sigma_g or its inverse.

    Strands run upward.  At a crossing of positions g and g+1 the ends read
    counterclockwise bottom-left, bottom-right, top-right, top-left; +g puts
    the bottom-left strand over (a positive crossing), -g puts it under.
    Strands that no letter touches close into free loops.
    """
    top = list(range(1, strands + 1))
    nxt = strands + 1
    quads = []
    for letter in word:
        i = abs(letter) - 1
        bl, br, tr, tl = top[i], top[i + 1], nxt, nxt + 1
        nxt += 2
        quads.append(((br, tr, tl, bl), 1) if letter > 0 else ((bl, br, tr, tl), -1))
        top[i], top[i + 1] = tl, tr
    close = {top[p]: p + 1 for p in range(strands)}
    crossings = [Crossing(tuple(close.get(a, a) for a in slots), sign) for slots, sign in quads]
    used = {a for x in crossings for a in x.slots}
    return Diagram(crossings, sum(p not in used for p in range(1, strands + 1)))


@st.composite
def braid_words(draw, max_strands=5, max_size=10):
    strands = draw(st.integers(2, max_strands))
    generators = st.integers(1, strands - 1)
    word = draw(st.lists(st.tuples(generators, st.sampled_from((1, -1))), max_size=max_size))
    return strands, tuple(g * e for g, e in word)


JONES_VALUES = {
    "0_1": q(e0=1),
    "3_1": q(em4=-1, em3=1, em1=1),
    "3_1m": q(e4=-1, e3=1, e1=1),
    "4_1": q(em2=1, em1=-1, e0=1, e1=-1, e2=1),
    "5_1": q(em7=-1, em6=1, em5=-1, em4=1, em2=1),
    "5_1m": q(e7=-1, e6=1, e5=-1, e4=1, e2=1),
    "6_1": q(em4=1, em3=-1, em2=1, em1=-2, e0=2, e1=-1, e2=1),
    "7_1": q(em10=-1, em9=1, em8=-1, em7=1, em6=-1, em5=1, em3=1),
    "7_1m": q(e10=-1, e9=1, e8=-1, e7=1, e6=-1, e5=1, e3=1),
    "8_3": q(em4=1, em3=-1, em2=2, em1=-3, e0=3, e1=-3, e2=2, e3=-1, e4=1),
}

# Conway polynomials of every bundled row.  Knot values are the published
# ones (Chmutov-Duzhin-Mostovoy 2012); reduced codes and mirrors share their
# knot's value, and link values carry the orientation their PD code fixes.
CONWAY_VALUES = {
    "0_1": z(e0=1),
    "0_1k": z(e0=1),
    "unlink2": LaurentPoly.zero("z"),
    "3_1": z(e0=1, e2=1),
    "3_1m": z(e0=1, e2=1),
    "3_1k": z(e0=1, e2=1),
    "3_1b": z(e0=1, e2=1),
    "4_1": z(e0=1, e2=-1),
    "4_1k": z(e0=1, e2=-1),
    "5_1": z(e0=1, e2=3, e4=1),
    "5_1m": z(e0=1, e2=3, e4=1),
    "6_1": z(e0=1, e2=-2),
    "6_1k": z(e0=1, e2=-2),
    "7_1": z(e0=1, e2=6, e4=5, e6=1),
    "7_1m": z(e0=1, e2=6, e4=5, e6=1),
    "8_3": z(e0=1, e2=-4),
    "hopf": z(e1=1),
    "hopf_m": z(e1=-1),
    "solomon": z(e1=-2, e3=-1),
    "chain3": z(e2=1),
}

C2_VALUES = {
    "0_1": 0,
    "3_1": 1,
    "3_1m": 1,
    "4_1": -1,
    "5_1": 3,
    "6_1": -2,
    "7_1": 6,
    "8_3": -4,
}

J3_VALUES = {
    "0_1": 0,
    "0_1k": 0,
    "3_1": 6,
    "3_1m": -6,
    "3_1k": 6,
    "3_1b": 6,
    "4_1": 0,
    "4_1k": 0,
    "5_1": 30,
    "5_1m": -30,
    "6_1": -6,
    "6_1k": -6,
    "7_1": 84,
    "7_1m": -84,
    "8_3": 0,
}


class TestKauffmanBracket:
    def test_trefoil_bracket_and_state_count(self):
        br, states = bracket_state_sum(T["3_1"])
        assert br == LaurentPoly("A", {-5: -1, 3: -1, 7: 1})
        assert states == 8
        assert kauffman_bracket(T["3_1"])[0] == br

    def test_state_count_is_two_to_the_crossings(self):
        for name in ("0_1", "4_1", "6_1", "hopf", "chain3"):
            d = T[name]
            assert bracket_state_sum(d)[1] == 2**d.n_crossings

    def test_unknot_bracket(self):
        assert kauffman_bracket(T["0_1"])[0] == LaurentPoly.constant("A", 1)

    def test_contraction_work_count(self):
        # twice the number of boundary matchings, summed over the crossings
        assert kauffman_bracket(T["8_3"])[1] == 30
        assert kauffman_bracket(braid_closure(2, (1,) * 15))[1] == 58

    @given(braid_words())
    @settings(max_examples=100, deadline=None)
    def test_contraction_matches_state_sum_on_braid_closures(self, braid):
        d = braid_closure(*braid)
        assert kauffman_bracket(d)[0] == bracket_state_sum(d)[0]


class TestJones:
    @pytest.mark.parametrize("name", sorted(JONES_VALUES))
    def test_frozen_values(self, name):
        assert jones(T[name]) == JONES_VALUES[name]

    def test_oracle_agreement_on_all_knots(self):
        # the bracket determines jones; compare it on every row, link or
        # knot, and on every crossing switch and oriented smoothing of it
        for name, d in T.items():
            children = [f(d, i) for f in (switch_crossing, _smooth_oriented)
                        for i in range(d.n_crossings)]
            for k in (d, *children):
                assert kauffman_bracket(k)[0] == bracket_state_sum(k)[0], name

    def test_torus_knots_closed_form(self):
        # V(T(2,n)) = t^((n-1)/2) (1 - t^3 - t^(n+1) + t^(n+2)) / (1 - t^2)
        for n in range(3, 52, 2):
            lhs = jones(braid_closure(2, (1,) * n)) * q(e0=1, e2=-1)
            rhs = LaurentPoly("q", {0: 1, 3: -1, n + 1: -1, n + 2: 1}).shift((n - 1) // 2)
            assert lhs == rhs, n

    def test_mirror_inverts_the_variable(self):
        for name in ("3_1", "4_1", "5_1", "6_1", "8_3"):
            assert jones(mirror(T[name])) == jones(T[name]).substitute_inverse()

    def test_even_component_links_rejected(self):
        for name in ("hopf", "hopf_m", "solomon", "unlink2"):
            with pytest.raises(InvariantError):
                jones(T[name])

    def test_odd_component_links_allowed(self):
        assert jones(T["chain3"]) == q(e1=1, e3=2, e5=1)

    def test_reduced_codes_of_the_same_knot(self):
        for a, b in (("3_1", "3_1k"), ("3_1", "3_1b"), ("4_1", "4_1k"),
                     ("6_1", "6_1k"), ("0_1", "0_1k")):
            assert jones(T[a]) == jones(T[b]), (a, b)


class TestConway:
    @pytest.mark.parametrize("name", sorted(CONWAY_VALUES))
    def test_frozen_values(self, name):
        assert conway(T[name]) == CONWAY_VALUES[name]

    def test_values_cover_every_table_row(self):
        assert set(CONWAY_VALUES) == set(T)

    def test_mirror_invariance_on_knots(self):
        # knot Conway polynomials are even in z, and mirroring flips z
        for name in ("3_1", "4_1", "5_1", "6_1", "7_1", "8_3"):
            assert conway(mirror(T[name])) == conway(T[name])

    def test_mirror_negates_odd_link_polynomials(self):
        assert conway(T["hopf_m"]) == conway(T["hopf"]).scale(-1)

    def test_reduced_codes_of_the_same_knot(self):
        for a, b in (("3_1", "3_1k"), ("3_1", "3_1b"), ("4_1", "4_1k"),
                     ("6_1", "6_1k"), ("0_1", "0_1k")):
            assert conway(T[a]) == conway(T[b]), (a, b)

    def test_split_links_vanish(self):
        assert conway(T["unlink2"]).is_zero()
        assert conway(parse_pd("components=3 arcs=0")).is_zero()

    def test_torus_skein_recursion(self):
        # all crossings of the closure T(2,n) of sigma_1^n are positive;
        # switching one gives T(2,n-2) and smoothing one gives T(2,n-1)
        vals = [conway(braid_closure(2, (1,) * n)) for n in range(52)]
        assert vals[0].is_zero() and vals[1] == z(e0=1)
        for n in range(2, 52):
            assert vals[n] == z(e1=1) * vals[n - 1] + vals[n - 2], n

    @settings(max_examples=120, deadline=None)
    @given(braid_words(max_strands=4, max_size=12))
    def test_matches_skein_oracle_on_braid_closures(self, braid):
        d = braid_closure(*braid)
        assume(d.n_components <= 3)
        assert conway(d) == conway_skein(d)

    def test_knots_take_no_skein_step(self, monkeypatch):
        calls = []

        def counting(d, i):
            calls.append(i)
            return switch_crossing(d, i)

        monkeypatch.setattr(invariants, "switch_crossing", counting)
        for d in T.values():
            if d.is_knot():
                conway(d)
        assert calls == []


class TestDerivedScalars:
    @pytest.mark.parametrize("name", sorted(C2_VALUES))
    def test_c2_frozen(self, name):
        assert c2(T[name]) == Fraction(C2_VALUES[name])

    @pytest.mark.parametrize("name", sorted(J3_VALUES))
    def test_j3_frozen(self, name):
        assert j3(T[name]) == Fraction(J3_VALUES[name])

    def test_j3_values_cover_every_knot_row(self):
        assert set(J3_VALUES) == {name for name, d in T.items() if d.is_knot()}

    def test_c2_is_the_z2_coefficient(self):
        for name in ("3_1", "4_1", "5_1", "6_1", "7_1", "8_3"):
            assert c2(T[name]) == conway(T[name]).coefficient(2)

    def test_j3_negates_under_mirror(self):
        for name in ("3_1", "5_1", "7_1"):
            assert j3(mirror(T[name])) == -j3(T[name])

    def test_c2_mirror_invariant(self):
        for name in ("3_1", "4_1", "5_1"):
            assert c2(mirror(T[name])) == c2(T[name])

    @pytest.mark.parametrize("name", ["hopf", "chain3"])
    def test_knot_scalars_reject_links(self, name):
        with pytest.raises(InvariantError):
            c2(T[name])
        with pytest.raises(InvariantError):
            j3(T[name])


class TestLinkingMatrix:
    def test_hopf(self):
        assert linking_matrix(T["hopf"]) == [[0, 1], [1, 0]]
        assert linking_matrix(T["hopf_m"]) == [[0, -1], [-1, 0]]

    def test_solomon(self):
        assert linking_matrix(T["solomon"]) == [[0, -2], [-2, 0]]

    def test_chain(self):
        assert linking_matrix(T["chain3"]) == [[0, 1, 0], [1, 0, 1], [0, 1, 0]]

    def test_unlink(self):
        assert linking_matrix(T["unlink2"]) == [[0, 0], [0, 0]]

    def test_single_component_rejected(self):
        with pytest.raises(InvariantError):
            linking_matrix(T["3_1"])

    def test_switch_changes_linking_by_one(self):
        d = T["hopf"]
        s = switch_crossing(d, 0)
        assert linking_matrix(s) == [[0, 0], [0, 0]]


class TestRegistry:
    def test_names(self):
        assert invariant_names() == ["c2", "conway", "j3", "jones"]

    def test_unknown_name(self):
        with pytest.raises(InvariantError):
            get_invariant("alexander")

    def test_zero_elements_match_value_types(self):
        for name in invariant_names():
            inv = get_invariant(name)
            val = inv(T["3_1"])
            assert type(inv.zero) is type(val)

    def test_evaluate_on_sum_is_linear(self):
        inv = get_invariant("conway")
        s = FormalSum([(T["3_1"], Fraction(2)), (T["4_1"], Fraction(-1))])
        expect = conway(T["3_1"]).scale(2) - conway(T["4_1"])
        assert evaluate_on_sum(inv, s) == expect
        assert evaluate_on_sum(inv, FormalSum()) == inv.zero

    def test_evaluate_on_sum_rational_invariant(self):
        inv = get_invariant("c2")
        s = FormalSum([(T["3_1"], Fraction(1, 2)), (T["4_1"], Fraction(3))])
        assert evaluate_on_sum(inv, s) == Fraction(1, 2) * 1 + 3 * (-1)
