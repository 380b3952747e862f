"""Exact arithmetic kernels: Laurent polynomials and sparse matrices over
the rationals.

Everything in this module is exact.  Rational numbers are represented by
:class:`fractions.Fraction` (always reduced, positive denominator), Laurent
polynomials store a map from integer exponents to nonzero rational
coefficients, and matrix ranks are computed by fraction-free elimination
on rows scaled to integers, with a deterministic pivot rule.  No floats
anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Mapping

__all__ = [
    "LaurentPoly",
    "SparseMatrix",
]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an integer or Fraction, got {type(x).__name__}")


def format_coeff(c: Fraction) -> str:
    """Render a rational coefficient exactly, as `n` or `n/d`."""
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


class LaurentPoly:
    """A Laurent polynomial in one variable with rational coefficients.

    Args:
        var: variable name used for printing (e.g. ``"q"`` or ``"z"``).
        terms: mapping exponent -> coefficient; zero coefficients are dropped.

    The terms map never stores a zero coefficient, so structural equality of
    the maps is equality of polynomials.
    """

    __slots__ = ("var", "terms")

    def __init__(self, var: str, terms: Mapping[int, Fraction] | None = None):
        self.var = var
        clean: dict[int, Fraction] = {}
        if terms:
            for e, c in terms.items():
                c = _as_fraction(c)
                if c != 0:
                    clean[int(e)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, var: str) -> "LaurentPoly":
        return cls(var, {})

    @classmethod
    def constant(cls, var: str, c) -> "LaurentPoly":
        return cls(var, {0: _as_fraction(c)})

    @classmethod
    def monomial(cls, var: str, exp: int, c=1) -> "LaurentPoly":
        return cls(var, {exp: _as_fraction(c)})

    # -- ring operations ----------------------------------------------

    def _check_var(self, other: "LaurentPoly") -> None:
        if self.var != other.var:
            raise ValueError(f"variable mismatch: {self.var!r} vs {other.var!r}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_var(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return LaurentPoly(self.var, terms)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_var(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            terms[e] = terms.get(e, Fraction(0)) - c
        return LaurentPoly(self.var, terms)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.var, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_var(other)
        terms: dict[int, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                terms[e] = terms.get(e, Fraction(0)) + c1 * c2
        return LaurentPoly(self.var, terms)

    __rmul__ = __mul__

    def scale(self, c) -> "LaurentPoly":
        c = _as_fraction(c)
        return LaurentPoly(self.var, {e: k * c for e, k in self.terms.items()})

    def shift(self, d: int) -> "LaurentPoly":
        """Multiply by var**d."""
        return LaurentPoly(self.var, {e + d: c for e, c in self.terms.items()})

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if len(self.terms) != 1:
                raise ValueError("negative powers only for monomials")
            ((e, c),) = self.terms.items()
            if abs(c) != 1:
                raise ValueError("negative powers only for unit monomials")
            return LaurentPoly(self.var, {e * n: Fraction(1) if c > 0 or n % 2 == 0 else Fraction(-1)})
        out = LaurentPoly.constant(self.var, 1)
        for _ in range(n):
            out = out * self
        return out

    # -- queries ------------------------------------------------------

    def coefficient(self, exp: int) -> Fraction:
        return self.terms.get(exp, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def substitute_inverse(self) -> "LaurentPoly":
        """Replace the variable by its inverse (exponent negation)."""
        return LaurentPoly(self.var, {-e: c for e, c in self.terms.items()})

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LaurentPoly)
            and self.var == other.var
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.var, frozenset(self.terms.items())))

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms):
            c = self.terms[e]
            if e == 0:
                body = format_coeff(abs(c))
            else:
                v = self.var if e == 1 else f"{self.var}^{e}"
                body = v if abs(c) == 1 else f"{format_coeff(abs(c))}*{v}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if c > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.var!r}, {dict(sorted(self.terms.items()))!r})"


class SparseMatrix:
    """A sparse matrix over the rationals, stored as {(row, col): coeff}.

    Only nonzero entries are stored.  The matrix knows its logical shape so
    that empty rows/columns still count for dimensions.
    """

    __slots__ = ("nrows", "ncols", "entries")

    def __init__(self, nrows: int, ncols: int, entries: Mapping | None = None):
        if nrows < 0 or ncols < 0:
            raise ValueError("negative matrix dimensions")
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], Fraction] = {}
        if entries:
            for (r, c), v in entries.items():
                self[r, c] = v

    def __setitem__(self, key: tuple[int, int], value) -> None:
        r, c = key
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise IndexError(f"entry {key} outside {self.nrows}x{self.ncols} matrix")
        v = _as_fraction(value)
        if v == 0:
            self.entries.pop((r, c), None)
        else:
            self.entries[r, c] = v

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        return self.entries.get(key, Fraction(0))

    @classmethod
    def from_rows(cls, rows: list[dict[int, Fraction]], ncols: int) -> "SparseMatrix":
        m = cls(len(rows), ncols)
        for i, row in enumerate(rows):
            for j, v in row.items():
                m[i, j] = v
        return m

    def row_dicts(self) -> list[dict[int, Fraction]]:
        rows: list[dict[int, Fraction]] = [dict() for _ in range(self.nrows)]
        for (r, c), v in self.entries.items():
            rows[r][c] = v
        return rows

    def rank(self) -> int:
        """Exact rank over Q by fraction-free elimination; ``entries`` is left as is.

        Each row is scaled to integers and filed in a bucket under its
        leading column.  Columns are walked left to right; every remaining
        row leads at or after the current column, so its bucket holds
        exactly the rows that contain it.  The pivot is the bucket's row
        with the fewest nonzeros, ties broken by original row order.  Every
        other row r of the bucket becomes (p_c*r - r_c*p) / content, which
        clears the column and keeps the entries small integers, and is filed
        again under its new leading column.
        """
        buckets: dict[int, list[tuple[int, dict[int, int]]]] = {}
        for i, row in enumerate(self.row_dicts()):
            if row:
                scale = 1
                for v in row.values():
                    scale = scale * v.denominator // gcd(scale, v.denominator)
                for c, v in row.items():
                    row[c] = v.numerator * (scale // v.denominator)
                buckets.setdefault(min(row), []).append((i, row))
        rank = 0
        for col in range(self.ncols):
            bucket = buckets.pop(col, None)
            if not bucket:
                continue
            pick = min(range(len(bucket)), key=lambda k: (len(bucket[k][1]), bucket[k][0]))
            _, prow = bucket.pop(pick)
            pval = prow[col]
            rank += 1
            for i, row in bucket:
                g = gcd(pval, row[col])
                a, b = pval // g, row[col] // g
                if a != 1:
                    for c in row:
                        row[c] *= a
                for c, v in prow.items():
                    nv = row.get(c, 0) - b * v
                    if nv:
                        row[c] = nv
                    else:
                        del row[c]
                if row:
                    content = gcd(*row.values())
                    if content != 1:
                        for c in row:
                            row[c] //= content
                    buckets.setdefault(min(row), []).append((i, row))
        return rank

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparseMatrix)
            and self.nrows == other.nrows
            and self.ncols == other.ncols
            and self.entries == other.entries
        )

    def __repr__(self) -> str:
        return f"SparseMatrix({self.nrows}, {self.ncols}, nnz={len(self.entries)})"
