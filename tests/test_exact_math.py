"""Exact arithmetic building blocks: Laurent polynomials and rank."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finitype.exact_math import LaurentPoly, SparseMatrix


def P(**terms):
    """Shorthand: P(e2=1, em1=-3) -> q^2 - 3*q^-1 (em<k> is exponent -k)."""
    parsed = {}
    for k, v in terms.items():
        exp = -int(k[2:]) if k.startswith("em") else int(k[1:])
        parsed[exp] = Fraction(v)
    return LaurentPoly("q", parsed)


small_fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
polys = st.builds(
    lambda d: LaurentPoly("q", d),
    st.dictionaries(st.integers(-6, 6), small_fractions, max_size=6),
)


class TestLaurentPoly:
    def test_zero_coefficients_dropped(self):
        assert LaurentPoly("q", {2: 0, 1: 1}).terms == {1: Fraction(1)}
        assert LaurentPoly.zero("q").is_zero()

    def test_equality_is_structural(self):
        assert P(e1=1, e3=2) == P(e3=2, e1=1)
        assert P(e1=1) != P(e1=2)
        assert P(e0=1) != LaurentPoly("z", {0: 1})
        assert P(e0=1) != 1  # no cross-type equality

    def test_ring_identities_small(self):
        one = LaurentPoly.constant("q", 1)
        q = LaurentPoly.monomial("q", 1)
        assert (one + q) * (one - q) == one - q * q
        assert q * q.substitute_inverse() == one
        assert (one + q) ** 3 == one + q.scale(3) + (q * q).scale(3) + q**3

    def test_negative_exponents(self):
        p = P(em2=1, e1=-1)
        assert p.shift(2) == P(e0=1, e3=-1)
        assert p.substitute_inverse() == P(e2=1, em1=-1)
        assert p.coefficient(-2) == 1
        assert p.coefficient(5) == 0

    def test_variable_mismatch_rejected(self):
        with pytest.raises(ValueError):
            P(e1=1) + LaurentPoly("z", {1: 1})

    def test_str_is_canonical_ascending(self):
        assert str(LaurentPoly.zero("q")) == "0"
        assert str(P(e0=1)) == "1"
        assert str(P(e0=-1)) == "-1"
        assert str(P(e1=1)) == "q"
        assert str(P(e1=-1)) == "-q"
        assert str(P(em1=1, e2=-2, e0=3)) == "q^-1 + 3 - 2*q^2"
        assert str(P(e1=Fraction(1, 2))) == "1/2*q"

    @given(polys, polys, polys)
    @settings(max_examples=60, deadline=None)
    def test_ring_axioms(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero()
        assert (-a) + a == LaurentPoly.zero("q")

    @given(polys)
    @settings(max_examples=40, deadline=None)
    def test_inverse_substitution_involution(self, a):
        assert a.substitute_inverse().substitute_inverse() == a


def _dense_rank(rows, ncols):
    """Independent dense Gaussian elimination over Fraction."""
    mat = [[Fraction(row.get(j, 0)) for j in range(ncols)] for row in rows]
    rank = 0
    col = 0
    nrows = len(mat)
    while rank < nrows and col < ncols:
        sel = next((r for r in range(rank, nrows) if mat[r][col]), None)
        if sel is None:
            col += 1
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        for r in range(nrows):
            if r != rank and mat[r][col]:
                f = mat[r][col] / mat[rank][col]
                mat[r] = [x - f * y for x, y in zip(mat[r], mat[rank])]
        rank += 1
        col += 1
    return rank


RANK_COLS = 8
row_strategy = st.dictionaries(
    st.integers(0, RANK_COLS - 1),
    st.builds(Fraction, st.integers(-4, 4), st.integers(1, 6)),
    max_size=RANK_COLS,
)


class TestSparseMatrix:
    def test_identity_and_singular(self):
        eye = SparseMatrix(4, 4, {(i, i): Fraction(1) for i in range(4)})
        assert eye.rank() == 4
        m = SparseMatrix.from_rows(
            [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}], 2
        )
        assert m.rank() == 1

    def test_zero_assignment_removes_entry(self):
        m = SparseMatrix(2, 2)
        m[0, 1] = 5
        m[0, 1] = 0
        assert m.entries == {}
        with pytest.raises(IndexError):
            m[2, 0] = 1

    @given(st.lists(row_strategy, max_size=10))
    @settings(max_examples=80, deadline=None)
    def test_rank_matches_dense_oracle(self, rows):
        m = SparseMatrix.from_rows([dict(r) for r in rows], RANK_COLS)
        before = dict(m.entries)
        expect = _dense_rank(rows, RANK_COLS)
        assert m.rank() == expect
        assert m.entries == before
        transpose = SparseMatrix(m.ncols, m.nrows)
        for (r, c), v in m.entries.items():
            transpose[c, r] = v
        assert transpose.rank() == expect

    def test_rank_clears_denominators_and_content(self):
        # rows 2 and 3 are 3/2 and -1/6 times row 1; row 4 is independent only
        # through its last column, so each elimination step must stay exact
        rows = [
            {0: Fraction(2, 3), 1: Fraction(1, 2), 2: Fraction(5)},
            {0: Fraction(1), 1: Fraction(3, 4), 2: Fraction(15, 2)},
            {0: Fraction(-1, 9), 1: Fraction(-1, 12), 2: Fraction(-5, 6)},
            {0: Fraction(4), 1: Fraction(3), 2: Fraction(30), 3: Fraction(1, 5)},
        ]
        assert SparseMatrix.from_rows(rows, 4).rank() == 2
