"""Hopf-pair bracelets: matchings, realization, linking-matrix detection."""

import pytest

from finitype import bracelets, diagram
from finitype.bracelets import (
    BraceletError,
    CyclicLink,
    HopfPairBracelet,
    detect_hopf_pairs,
    odd_degree_empty,
    realize_as_link,
)
from finitype.chord_algebra import _matchings
from finitype.diagram import parse_pd, serialize_pd
from finitype.invariants import linking_matrix
from finitype.tables import bundled_table

T = bundled_table()


class TestCyclicLink:
    def test_default_order(self):
        cl = CyclicLink.of(T["hopf"])
        assert cl.order == (0, 1)

    def test_rotation_normalized(self):
        cl = CyclicLink.of(T["chain3"], order=(2, 0, 1))
        assert cl.order == (0, 1, 2)
        assert CyclicLink.of(T["chain3"], order=(1, 2, 0)).order == (0, 1, 2)

    def test_genuinely_different_orders_survive(self):
        four = realize_as_link([(1, 3), (2, 4)]).link
        assert CyclicLink.of(four, order=(0, 2, 1, 3)).order == (0, 2, 1, 3)

    def test_invalid_permutation_rejected(self):
        with pytest.raises(BraceletError):
            CyclicLink.of(T["hopf"], order=(0, 0))
        with pytest.raises(BraceletError):
            CyclicLink.of(T["hopf"], order=(0, 1, 2))


class TestMatchingValidation:
    def test_normalization(self):
        b = HopfPairBracelet.from_matching([(4, 2), (3, 1)])
        assert b.matching == ((1, 3), (2, 4))
        assert b.n_components == 4

    def test_empty_rejected(self):
        with pytest.raises(BraceletError):
            HopfPairBracelet.from_matching([])

    def test_repeats_rejected(self):
        with pytest.raises(BraceletError):
            HopfPairBracelet.from_matching([(1, 2), (2, 3)])
        with pytest.raises(BraceletError):
            HopfPairBracelet.from_matching([(1, 1)])

    def test_gap_means_odd_cover(self):
        with pytest.raises(BraceletError, match="odd component count"):
            HopfPairBracelet.from_matching([(1, 2), (3, 5)])


class TestChordDiagramBridge:
    def test_words(self):
        assert str(HopfPairBracelet.from_matching([(1, 3), (2, 4)]).to_chord_diagram()) == "ABAB"
        assert str(HopfPairBracelet.from_matching([(1, 2), (3, 4)]).to_chord_diagram()) == "AABB"


class TestRealization:
    def test_link_shape(self):
        b = HopfPairBracelet.from_matching([(1, 3), (2, 4)])
        link = b.to_link()
        assert link.n_components == 4
        assert link.n_crossings == 4  # two crossings per clasp
        assert linking_matrix(link) == [
            [0, 0, 1, 0],
            [0, 0, 0, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
        ]

    def test_clasps_are_positive_hopf_links(self):
        link = HopfPairBracelet.from_matching([(1, 2)]).to_link()
        assert linking_matrix(link) == [[0, 1], [1, 0]]
        assert serialize_pd(link) == "components=2 arcs=4 X[1,3,2,4] X[3,1,4,2]"

    def test_link_built_without_parsing(self, monkeypatch):
        calls = []
        original = diagram.parse_pd

        def counted(text):
            calls.append(text)
            return original(text)

        for module in (diagram, bracelets):
            monkeypatch.setattr(module, "parse_pd", counted, raising=False)
        link = HopfPairBracelet.from_matching([(1, 4), (2, 3)]).to_link()
        assert link.n_components == 4
        assert calls == []

    def test_realize_returns_natural_cyclic_order(self):
        cl = realize_as_link([(1, 2), (3, 4)])
        assert isinstance(cl, CyclicLink)
        assert cl.order == (0, 1, 2, 3)


class TestDetection:
    def test_exhaustive_roundtrip_small(self):
        for n in (2, 4, 6):
            for pairs in _matchings(tuple(range(1, n + 1))):
                b = HopfPairBracelet.from_matching(pairs)
                assert detect_hopf_pairs(realize_as_link(pairs)) == b

    def test_distinct_matchings_distinct_matrices(self):
        seen = set()
        for pairs in _matchings(tuple(range(1, 7))):
            link = realize_as_link(pairs).link
            seen.add(tuple(map(tuple, linking_matrix(link))))
        assert len(seen) == 15

    def test_negative_hopf_pair_accepted(self):
        # the criterion reads |lk| = 1, so a reversed ring still detects
        assert detect_hopf_pairs(T["hopf_m"]).matching == ((1, 2),)

    def test_plain_diagram_input_wrapped(self):
        assert detect_hopf_pairs(T["hopf"]).matching == ((1, 2),)

    def test_odd_component_count_rejected(self):
        with pytest.raises(BraceletError, match="odd"):
            detect_hopf_pairs(T["chain3"])

    def test_double_linking_rejected(self):
        with pytest.raises(BraceletError):
            detect_hopf_pairs(T["solomon"])

    def test_unlinked_components_rejected(self):
        with pytest.raises(BraceletError):
            detect_hopf_pairs(T["unlink2"])

    def test_component_with_two_partners_rejected(self):
        # a 3-chain plus a split unknot: 4 components, middle one linked twice
        quads = " ".join(x.token() for x in T["chain3"].crossings)
        four = parse_pd(f"components=4 arcs=8 {quads}")
        with pytest.raises(BraceletError):
            detect_hopf_pairs(four)

    def test_single_component_rejected(self):
        with pytest.raises(BraceletError):
            detect_hopf_pairs(T["3_1"])

    def test_matching_lives_on_cyclic_positions(self):
        # reordering components permutes the recovered matching
        link = realize_as_link([(1, 3), (2, 4)]).link
        natural = detect_hopf_pairs(CyclicLink.of(link))
        reordered = detect_hopf_pairs(CyclicLink.of(link, order=(0, 2, 1, 3)))
        assert natural.matching == ((1, 3), (2, 4))
        assert reordered.matching == ((1, 2), (3, 4))
        assert str(natural.to_chord_diagram()) == "ABAB"
        assert str(reordered.to_chord_diagram()) == "AABB"


class TestOddDegrees:
    @pytest.mark.parametrize("n", (1, 3, 5, 7))
    def test_empty_for_odd(self, n):
        assert odd_degree_empty(n) == ()

    @pytest.mark.parametrize("n", (0, 2, 4))
    def test_even_rejected(self, n):
        with pytest.raises(ValueError):
            odd_degree_empty(n)
