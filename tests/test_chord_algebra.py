"""Chord diagrams, canonical words, relations, weight-space dimensions."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitype.chord_algebra import (
    MAX_DEGREE,
    ChordDiagram,
    _matchings,
    dim_a,
    enumerate_diagrams,
    generate_4t,
    generate_fi,
)
from finitype.oracles import count_diagrams_burnside

# double factorials (2n-1)!! count raw matchings before rotation quotient
RAW_COUNTS = {0: 1, 1: 1, 2: 3, 3: 15, 4: 105, 5: 945}
ORBIT_COUNTS = {0: 1, 1: 1, 2: 2, 3: 5, 4: 18, 5: 105, 6: 902}
UNFRAMED_DIMS = {0: 1, 1: 0, 2: 1, 3: 1, 4: 3, 5: 4, 6: 9}
FRAMED_DIMS = {0: 1, 1: 1, 2: 2, 3: 3, 4: 6, 5: 10, 6: 19}
COUNT_4T = {0: 0, 1: 0, 2: 0, 3: 2, 4: 25, 5: 366, 6: 4477}
COUNT_FI = {0: 0, 1: 1, 2: 1, 3: 3, 4: 11, 5: 69, 6: 602}


class TestChordDiagram:
    def test_from_word_requires_double_occurrence(self):
        with pytest.raises(ValueError):
            ChordDiagram.from_word((0, 0, 1))
        with pytest.raises(ValueError):
            ChordDiagram.from_word((0, 0, 1, 1, 1, 1))

    def test_from_pairs_requires_exact_cover(self):
        with pytest.raises(ValueError):
            ChordDiagram.from_pairs([(0, 2)])
        with pytest.raises(ValueError):
            ChordDiagram.from_pairs([(0, 1), (1, 2)])
        assert ChordDiagram.from_pairs([(0, 2), (1, 3)]).word == (0, 1, 0, 1)

    def test_words_as_letters(self):
        assert str(ChordDiagram.from_word((0, 1, 0, 1))) == "ABAB"
        assert str(ChordDiagram.from_word(())) == "(empty)"

    def test_rotation_gives_same_canonical_form(self):
        word = (0, 1, 2, 0, 1, 2)
        for k in range(6):
            rotated = word[k:] + word[:k]
            assert ChordDiagram.from_word(rotated) == ChordDiagram.from_word(word)

    def test_renaming_gives_same_canonical_form(self):
        assert ChordDiagram.from_word((5, 3, 5, 3)) == ChordDiagram.from_word((0, 1, 0, 1))

    def test_reflection_is_not_quotiented(self):
        # AABCCB and its mirror AABCBC... rotations never mix chirality for
        # this word, so the two canonical forms stay distinct
        left = ChordDiagram.from_word((0, 0, 1, 2, 2, 1))
        right = ChordDiagram.from_word((0, 0, 1, 2, 1, 2))
        assert left != right

    def test_isolated_chord_detection(self):
        assert ChordDiagram.from_word((0, 0, 1, 2, 1, 2)).has_isolated_chord()
        assert not ChordDiagram.from_word((0, 1, 2, 0, 1, 2)).has_isolated_chord()
        # cyclic adjacency counts: first and last positions touch
        assert ChordDiagram.from_word((0, 1, 1, 0)).has_isolated_chord()

    def test_ordering_is_by_size_then_word(self):
        small = ChordDiagram.from_word((0, 0))
        big = ChordDiagram.from_word((0, 1, 0, 1))
        assert small < big
        assert ChordDiagram.from_word((0, 0, 1, 1)) < ChordDiagram.from_word((0, 1, 0, 1))


class TestEnumeration:
    @pytest.mark.parametrize("n,count", sorted(ORBIT_COUNTS.items()))
    def test_frozen_counts(self, n, count):
        assert len(enumerate_diagrams(n)) == count

    @pytest.mark.parametrize("n", range(6))
    def test_orbit_count_oracle(self, n):
        assert len(enumerate_diagrams(n)) == count_diagrams_burnside(n)

    def test_degree_three_basis_words(self):
        words = [str(d) for d in enumerate_diagrams(3)]
        assert words == ["AABBCC", "AABCBC", "AABCCB", "ABACBC", "ABCABC"]

    def test_degree_three_isolated_count(self):
        isolated = [d for d in enumerate_diagrams(3) if d.has_isolated_chord()]
        assert len(isolated) == 3

    def test_enumeration_is_sorted_and_unique(self):
        for n in range(5):
            ds = enumerate_diagrams(n)
            assert list(ds) == sorted(ds)
            assert len(set(ds)) == len(ds)

    @pytest.mark.parametrize("n", range(6))
    def test_one_canonicalization_per_rotation_class(self, n, monkeypatch):
        # every matching canonicalized on its own is the oracle
        oracle = sorted(
            {ChordDiagram.from_pairs(m) for m in _matchings(tuple(range(2 * n)))}
        )
        calls = []
        original = ChordDiagram.from_word

        def counted(cls, word):
            calls.append(word)
            return original(word)

        monkeypatch.setattr(ChordDiagram, "from_word", classmethod(counted))
        result = enumerate_diagrams.__wrapped__(n)
        assert list(result) == oracle
        assert len(calls) == len(oracle)

    def test_degree_cap(self):
        with pytest.raises(ValueError):
            enumerate_diagrams(MAX_DEGREE + 1)
        with pytest.raises(ValueError):
            enumerate_diagrams(-1)


class TestRelations:
    def test_4t_rows_reference_the_basis(self):
        for n in (2, 3, 4):
            rel = generate_4t(n)
            assert rel.kind == "4T"
            size = len(rel.basis)
            for row in rel.rows:
                assert all(0 <= i < size for i, _ in row)
                assert all(c != 0 for _, c in row)

    def test_4t_coefficients_sum_to_zero(self):
        # each relation is a difference of two differences: same number of
        # diagrams with +1 as with -1, after merging
        for n in (2, 3, 4, 5):
            for row in generate_4t(n).rows:
                assert sum(c for _, c in row) == 0, row

    def test_4t_rows_are_normalized_and_unique(self):
        for n in (3, 4, 5):
            rows = generate_4t(n).rows
            assert len(set(rows)) == len(rows)
            for row in rows:
                assert row[0][1] == Fraction(1)

    def test_4t_trivial_below_degree_two(self):
        assert len(generate_4t(0)) == 0
        assert len(generate_4t(1)) == 0

    def test_fi_rows_are_unit_vectors_on_isolated_diagrams(self):
        for n in (1, 2, 3, 4):
            rel = generate_fi(n)
            assert rel.kind == "FI"
            isolated = {i for i, d in enumerate(rel.basis) if d.has_isolated_chord()}
            hit = set()
            for row in rel.rows:
                assert len(row) == 1
                i, c = row[0]
                assert c == 1
                hit.add(i)
            assert hit == isolated

    def test_fi_count_at_degree_three(self):
        assert len(generate_fi(3)) == 3

    @pytest.mark.parametrize("n", range(7))
    def test_relation_counts(self, n):
        assert len(generate_4t(n)) == COUNT_4T[n]
        assert len(generate_fi(n)) == COUNT_FI[n]

    def test_relations_are_memoised_per_degree(self):
        assert generate_4t(5) is generate_4t(5)
        assert generate_fi(5) is generate_fi(5)

    def test_relation_terms_are_found_without_canonicalizing(self, monkeypatch):
        enumerate_diagrams(3)
        enumerate_diagrams(5)
        calls = []
        from_word = ChordDiagram.from_word.__func__

        def counted(cls, word):
            calls.append(word)
            return from_word(cls, word)

        monkeypatch.setattr(ChordDiagram, "from_word", classmethod(counted))
        rows = generate_4t.__wrapped__(5).rows
        generate_fi.__wrapped__(5)
        assert calls == []
        assert rows == generate_4t(5).rows

    def test_as_formal_sums(self):
        for row in generate_4t(3).rows:
            assert sum(c for _, c in row) == 0


class TestDimensions:
    @pytest.mark.parametrize("n", range(6))
    def test_unframed_dims(self, n):
        assert dim_a(n).dim == UNFRAMED_DIMS[n]

    @pytest.mark.parametrize("n", range(6))
    def test_framed_dims(self, n):
        assert dim_a(n, framed=True).dim == FRAMED_DIMS[n]

    def test_degree_six_dims(self):
        assert dim_a(6).dim == UNFRAMED_DIMS[6]
        assert dim_a(6, framed=True).dim == FRAMED_DIMS[6]

    def test_report_is_consistent(self):
        rep = dim_a(4)
        assert rep.dim == rep.n_diagrams - rep.rank
        assert rep.n_diagrams == 18
        assert not rep.framed
        assert dim_a(4, framed=True).n_relations < rep.n_relations

    def test_shuffle_invariance(self):
        for n in (3, 4, 5):
            base = dim_a(n).dim
            for seed in (1, 2, 3):
                assert dim_a(n, order_seed=seed).dim == base

    def test_framed_dim_at_least_unframed(self):
        for n in range(6):
            assert dim_a(n, framed=True).dim >= dim_a(n).dim


words = st.integers(0, 5).flatmap(
    lambda n: st.permutations(sorted(list(range(n)) * 2))
)


class TestProperties:
    @given(words)
    @settings(max_examples=80, deadline=None)
    def test_canonicalize_idempotent(self, word):
        d = ChordDiagram.from_word(word)
        assert ChordDiagram.from_word(d.word) == d

    @given(words, st.integers(0, 11))
    @settings(max_examples=80, deadline=None)
    def test_canonicalize_rotation_invariant(self, word, k):
        if word:
            k %= len(word)
            rotated = tuple(word[k:]) + tuple(word[:k])
            assert ChordDiagram.from_word(rotated) == ChordDiagram.from_word(word)

    @given(words)
    @settings(max_examples=60, deadline=None)
    def test_canonical_word_is_minimal_rotation_after_renaming(self, word):
        d = ChordDiagram.from_word(word)
        size = len(d.word)
        for k in range(size):
            rotated = d.word[k:] + d.word[:k]
            renamed: dict[int, int] = {}
            normalized = []
            for c in rotated:
                renamed.setdefault(c, len(renamed))
                normalized.append(renamed[c])
            assert tuple(normalized) >= d.word
