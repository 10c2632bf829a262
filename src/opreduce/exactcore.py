"""Exact rational scalars and dense rational matrices.

Everything in the reduction pipeline is built on arbitrary-precision
rationals; no floating point is accepted anywhere.  Scalars are
``fractions.Fraction`` values, which are always kept in canonical form
(positive denominator, gcd 1, zero as 0/1).  Matrices are immutable and
dense and square, with exact determinants.  A `Matrix` carries its integer
form ``(D, rows)``, D the lcm of the entry denominators, fixed at birth and
read through `Matrix.int_form`; determinants, products (`matmul_int`,
`mat_vec`), equality, hashing and the scalars of every `lincomb` read that
form.  Only reports read `Matrix.rows` (the terms of a `reduce` report).  A
producer that has the form already (the adjugate coefficients, the anchored
minor tables) hands it to `_born_matrix`, and the `Fraction` rows are built
only when `Matrix.rows` is first read.  `Matrix` has no arithmetic
operators.

Row/column index arguments on the public surface are 1-based.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")
_ASCII_SPACE = " \t\n\r\v\f"


class DimensionError(ValueError):
    """Matrix/vector shapes do not conform."""


def conform(n: int, column, what: str):
    """``column`` itself if it has n entries; else `DimensionError` naming ``what``."""
    if len(column) != n:
        raise DimensionError(f"{what} has {len(column)} entries, expected {n}")
    return column


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: optional sign, integer, optional '/denominator'.

    Accepts e.g. ``"5"``, ``"-3/7"``, in ASCII digits only, trimmed of ASCII
    whitespace only.  Float syntax is rejected.
    """
    text = text.strip(_ASCII_SPACE)
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"invalid rational literal {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in rational literal {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction or rational literal string; a float, a bool or anything else is rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, float):
        raise TypeError(f"float {value!r} not accepted; use a rational literal string")
    raise TypeError(f"not an exact rational: {value!r}")


def as_column(values: Iterable) -> tuple[Fraction, ...]:
    """Coerce an iterable of scalars to a column (tuple of Fractions)."""
    return tuple(as_rational(v) for v in values)


class Matrix:
    """Immutable dense square matrix over the rationals, carrying its integer form.

    The form ``(D, rows)`` is canonical: D > 0 is the lcm of the entry
    denominators, so gcd(D, *entries) is 1, and two matrices are equal
    exactly when their forms are.  ``Matrix(rows)`` coerces and clears its
    input once; `_born_matrix` builds a matrix from a form it trusts.
    """

    __slots__ = ("_rows", "_form")

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(as_rational(x) for x in row) for row in rows)
        if not data or any(len(row) != len(data) for row in data):
            raise DimensionError("matrix must be n x n with n >= 1")
        self._rows = data
        self._form = clear_denominators(data)

    @property
    def n(self) -> int:
        return len(self._form[1])

    def int_form(self) -> tuple[int, list[list[int]]]:
        """``(D, rows)`` with ``Fraction(rows[r][c], D)`` equal to entry (r, c), fixed at birth."""
        return self._form

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The entries as `Fraction` rows, built from the integer form when first read."""
        if self._rows is None:
            den, ints = self._form
            self._rows = tuple(tuple(Fraction(x, den) for x in row) for row in ints)
        return self._rows

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._form == other._form

    def __hash__(self) -> int:
        den, ints = self._form
        return hash((den, tuple(map(tuple, ints))))

    def __repr__(self) -> str:
        body = ", ".join("[" + ", ".join(map(str, row)) + "]" for row in self.rows())
        return f"Matrix([{body}])"


def _born_matrix(den: int, rows: list[list[int]]) -> Matrix:
    """The matrix rows / den, its form reduced once by gcd(den, *entries).

    The trusted constructor: den > 0 and the square rows of ints (lists, as
    in every form) are taken unchecked, and the caller must not change them.
    """
    g = gcd(den, *chain.from_iterable(rows))
    if g > 1:
        den //= g
        rows = [[x // g for x in row] for row in rows]
    m = object.__new__(Matrix)
    m._rows, m._form = None, (den, rows)
    return m


def _born_fraction(numerator: int, denominator: int) -> Fraction:
    """The `Fraction` numerator / denominator, built without normalizing.

    The trusted constructor: the pair must be coprime ints with denominator
    > 0, which is what ``Fraction(numerator, denominator)`` would find again
    at the cost of a full gcd.  It sets the two slots as CPython's own
    ``Fraction._from_coprime_ints`` does.
    """
    f = object.__new__(Fraction)
    f._numerator, f._denominator = numerator, denominator
    return f


def identity(n: int) -> Matrix:
    if n < 1:
        raise DimensionError("matrix must be n x n with n >= 1")
    return _born_matrix(1, [[int(i == j) for j in range(n)] for i in range(n)])


def column_substitute(m: Matrix, i: int, v: Sequence) -> Matrix:
    """Replace column i (1-based) with the column v; all other entries unchanged."""
    if not 1 <= i <= m.n:
        raise IndexError(f"column {i} out of range")
    col = conform(m.n, as_column(v), "substituted column")
    den, rows = m.int_form()
    vden, (ints,) = clear_denominators([col])
    common = lcm(den, vden)
    f, g = common // den, common // vden
    substituted = [[x * f for x in row] for row in rows]
    for row, c in zip(substituted, ints):
        row[i - 1] = c * g
    return _born_matrix(common, substituted)


def mat_vec(m: Matrix, v: Sequence) -> tuple[Fraction, ...]:
    """Matrix times column vector: m's integer form and v, cleared once, give one integer dot product per row."""
    col = conform(m.n, as_column(v), "vector")
    den, rows = m.int_form()
    vden, (ints,) = clear_denominators([col])
    scale = den * vden
    return tuple(Fraction(sum(map(mul, row, ints)), scale) for row in rows)


def clear_denominators(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """``(D, D*rows)``: D is the lcm of all entry denominators, the rows become ints.

    Rows may differ in length; D is 1 when there are no entries.  The lcm
    and the factor D/d are taken once per distinct denominator d, so repeated
    denominators (shifted copies of one sequence, say) cost a lookup each.
    """
    dens = {x.denominator for row in rows for x in row}
    den = lcm(*dens)
    factors = {d: den // d for d in dens}
    return den, [[x.numerator * factors[x.denominator] for x in row] for row in rows]


def matmul_int(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    """Product of two square integer matrices of one order, given as rows."""
    n = len(a)
    if len(b) != n or any(len(row) != n for row in (*a, *b)):
        raise DimensionError("integer matrix product needs two square matrices of one order")
    cols = tuple(zip(*b))
    return [[sum(map(mul, row, col)) for col in cols] for row in a]


def det_int(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free (Bareiss) elimination.

    Each step replaces the active block by the order-2 minors through the
    pivot divided by the previous pivot, a division that is exact over the
    integers; a zero pivot is swapped for a later nonzero one.  The input is
    not modified, and the empty matrix has determinant 1.
    """
    a = rows
    sign = 1
    prev = 1
    while len(a) > 1:
        if not a[0][0]:
            r = next((r for r in range(1, len(a)) if a[r][0]), None)
            if r is None:
                return 0
            a = [a[r], *a[1:r], a[0], *a[r + 1 :]]
            sign = -sign
        pivot, *tail = a[0]
        a = [
            [(x * pivot - row[0] * y) // prev for x, y in zip(row[1:], tail)]
            for row in a[1:]
        ]
        prev = pivot
    return sign * a[0][0] if a else 1


def det(m: Matrix) -> Fraction:
    """Exact determinant: the integer kernel on m's integer form D*m, scaled back once by D^n."""
    den, rows = m.int_form()
    return Fraction(det_int(rows), den**m.n)
