"""Exact rational scalars and dense rational matrices.

Everything in the reduction pipeline is built on arbitrary-precision
rationals; no floating point is accepted anywhere.  Scalars are
``fractions.Fraction`` values, which are always kept in canonical form
(positive denominator, gcd 1, zero as 0/1).  Matrices are immutable and
dense and square, with exact determinants.

Row/column index arguments on the public surface are 1-based.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")


class DimensionError(ValueError):
    """Matrix/vector shapes do not conform."""


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal: optional sign, integer, optional '/denominator'.

    Accepts e.g. ``"5"``, ``"-3/7"``.  Float syntax is rejected.
    """
    text = text.strip()
    if not _RATIONAL_RE.match(text):
        raise ValueError(f"invalid rational literal {text!r}")
    if "/" in text:
        num, den = text.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in rational literal {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(text))


def format_rational(q: Fraction) -> str:
    """Canonical text form: ``"p"`` or ``"p/q"`` with q > 1."""
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def as_rational(value) -> Fraction:
    """Coerce an int, Fraction or rational literal string; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise TypeError("bool is not a rational scalar")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"not an exact rational: {value!r} (floats are not accepted)")


def as_column(values: Iterable) -> tuple[Fraction, ...]:
    """Coerce an iterable of scalars to a column (tuple of Fractions)."""
    return tuple(as_rational(v) for v in values)


class Matrix:
    """Immutable dense square matrix over the rationals."""

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable]):
        data = tuple(tuple(as_rational(x) for x in row) for row in rows)
        if not data or any(len(row) != len(data) for row in data):
            raise DimensionError("matrix must be n x n with n >= 1")
        self._rows = data

    @property
    def n(self) -> int:
        return len(self._rows)

    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        return self._rows

    def __eq__(self, other) -> bool:
        return isinstance(other, Matrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __add__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.n:
            raise DimensionError(f"cannot add {self.n}x{self.n} and {other.n}x{other.n}")
        return Matrix(
            tuple(a + b for a, b in zip(r1, r2))
            for r1, r2 in zip(self._rows, other._rows)
        )

    def __mul__(self, other: "Matrix") -> "Matrix":
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.n != other.n:
            raise DimensionError(f"cannot multiply {self.n}x{self.n} by {other.n}x{other.n}")
        cols = tuple(zip(*other._rows))
        return Matrix(
            tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols)
            for row in self._rows
        )

    def __rmul__(self, other):
        try:
            q = as_rational(other)
        except TypeError:
            return NotImplemented
        return Matrix(tuple(q * x for x in row) for row in self._rows)

    def __repr__(self) -> str:
        body = ", ".join(
            "[" + ", ".join(format_rational(x) for x in row) + "]" for row in self._rows
        )
        return f"Matrix([{body}])"


def identity(n: int) -> Matrix:
    return Matrix(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def zeros(n: int) -> Matrix:
    return Matrix(tuple(Fraction(0) for _ in range(n)) for _ in range(n))


def column_substitute(m: Matrix, i: int, v: Sequence) -> Matrix:
    """Replace column i (1-based) with the column v; all other entries unchanged."""
    if not 1 <= i <= m.n:
        raise IndexError(f"column {i} out of range")
    col = as_column(v)
    if len(col) != m.n:
        raise DimensionError(f"substituted column has {len(col)} entries, expected {m.n}")
    return Matrix(
        row[: i - 1] + (col[r],) + row[i:] for r, row in enumerate(m.rows())
    )


def mat_vec(m: Matrix, v: Sequence) -> tuple[Fraction, ...]:
    """Matrix times column vector."""
    col = as_column(v)
    if len(col) != m.n:
        raise DimensionError(f"vector of length {len(col)} does not conform to {m.n}x{m.n}")
    return tuple(sum((a * b for a, b in zip(row, col)), Fraction(0)) for row in m.rows())


def det_cofactor(m: Matrix) -> Fraction:
    """Determinant by cofactor expansion along the first row.

    Factorial cost; kept as an independent oracle for the fraction-free
    kernel in tests.
    """
    n = m.n
    rows = m.rows()

    def expand(idx_rows: tuple[int, ...], idx_cols: tuple[int, ...]) -> Fraction:
        k = len(idx_rows)
        if k == 1:
            return rows[idx_rows[0]][idx_cols[0]]
        r0 = idx_rows[0]
        total = Fraction(0)
        sign = 1
        for pos, c in enumerate(idx_cols):
            a = rows[r0][c]
            if a != 0:
                sub_cols = idx_cols[:pos] + idx_cols[pos + 1 :]
                total += sign * a * expand(idx_rows[1:], sub_cols)
            sign = -sign
        return total

    indices = tuple(range(n))
    return expand(indices, indices)


def clear_denominators(rows: Sequence[Sequence[Fraction]]) -> tuple[int, list[list[int]]]:
    """``(D, D*rows)``: D is the lcm of all entry denominators, the rows become ints.

    Rows may differ in length; D is 1 when there are no entries.
    """
    den = lcm(*(x.denominator for row in rows for x in row))
    return den, [[x.numerator * (den // x.denominator) for x in row] for row in rows]


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
    """Exact determinant: the integer kernel on D*m, scaled back once by D^n."""
    n = m.n
    den, rows = clear_denominators(m.rows())
    return Fraction(det_int(rows), den**n)
