"""Characteristic polynomial and adjugate matrix-polynomial coefficients.

The production route interleaves the trace formula d_k = -trace(B_{k-1} B)/k
with the recurrence B_k = B_{k-1} B + d_k I, giving all coefficients of
det(lambda*I - B) and of adj(lambda*I - B) in O(n^4) exact operations.  It
runs over Python ints: denominators are cleared once (B = M/D), the
recurrence works on the integer matrix M, where the division by k is exact,
and the results are scaled back by D^k.  The division by k makes this route
sensitive to the field characteristic, which is one reason the brute-force
minor route stays available as an oracle.

The oracle route builds the same `AdjugateCoeffs` from principal-minor
sums of `minors` (Lemma 2 of the paper): d_k = (-1)^k delta_k(B)
(`char_poly_minors`), and row i of B_{k-1} is (-1)^(k-1) times the
order-k linear functional anchored at column i (`adjugate_coeffs_minors`).
Lemma 1 of the paper, read through Lemma 2, is the recurrence
B_k = B_{k-1} B + d_k I on those coefficients.  `lemma1_check` tests it on
whole matrices, cleared to ints, for any `AdjugateCoeffs`; its case k = n,
where B_n = 0, is the Cayley-Hamilton theorem (`cayley_hamilton_check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactcore import DimensionError, Matrix, clear_denominators, identity, matmul_int
from .minors import delta_k, delta_k_i_coeffs


class RecurrenceError(ArithmeticError):
    """The integer trace recurrence hit an inexact division; a bug, never bad input."""


@dataclass(frozen=True)
class CharPoly:
    """Monic characteristic polynomial lambda^n + d[0] lambda^(n-1) + ... + d[n-1], n = len(d)."""

    d: tuple[Fraction, ...]

    def __post_init__(self):
        if not self.d:
            raise ValueError("characteristic polynomial needs n >= 1 trailing coefficients")

    @property
    def n(self) -> int:
        return len(self.d)

    def coefficient(self, k: int) -> Fraction:
        """d_k for 1 <= k <= n."""
        if not 1 <= k <= self.n:
            raise IndexError(f"coefficient index {k} out of range 1..{self.n}")
        return self.d[k - 1]


@dataclass(frozen=True)
class AdjugateCoeffs:
    """Coefficients B_0..B_{n-1} of adj(lambda*I - B) as a polynomial in lambda; n is the order of p."""

    coeffs: tuple[Matrix, ...]
    cp: CharPoly

    def __post_init__(self):
        if len(self.coeffs) != self.cp.n:
            raise ValueError("adjugate expansion needs exactly n matrix coefficients")

    @property
    def n(self) -> int:
        return self.cp.n


def char_poly(b: Matrix) -> CharPoly:
    """Characteristic polynomial via the trace-formula recurrence."""
    return adjugate_coeffs(b).cp


def char_poly_minors(b: Matrix) -> CharPoly:
    """Oracle route: d_k = (-1)^k * (sum of order-k principal minors)."""
    return CharPoly(tuple((-1) ** k * delta_k(b, k) for k in range(1, b.n + 1)))


def _signed(k: int, row: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """(-1)^(k-1) * row, by negation, which needs no gcd."""
    return tuple(row) if k % 2 else tuple(-c for c in row)


def adjugate_coeffs_minors(b: Matrix) -> AdjugateCoeffs:
    """Oracle route: row i of B_{k-1} is (-1)^(k-1) times the order-k functional anchored at i."""
    coeffs = tuple(Matrix(_signed(k, row) for row in delta_k_i_coeffs(b, k)) for k in range(1, b.n + 1))
    return AdjugateCoeffs(coeffs, char_poly_minors(b))


def adjugate_coeffs(b: Matrix) -> AdjugateCoeffs:
    """Matrix coefficients of adj(lambda*I - B), with the characteristic polynomial.

    With B = M/D, D the lcm of the entry denominators, the recurrence
    C_k = C_{k-1} M + c_k I, c_k = -trace(C_{k-1} M)/k runs over ints; then
    d_k = c_k/D^k and B_k = C_k/D^k.  For an integer matrix the trace is an
    exact multiple of k, so a nonzero remainder raises `RecurrenceError`.
    """
    n = b.n
    den, m = clear_denominators(b.rows())
    d: list[Fraction] = []
    coeffs: list[Matrix] = [identity(n)]
    c_rows = [[int(i == j) for j in range(n)] for i in range(n)]
    scale = 1
    for k in range(1, n + 1):
        prod = matmul_int(c_rows, m)
        ck, rem = divmod(-sum(prod[i][i] for i in range(n)), k)
        if rem:
            raise RecurrenceError(f"trace in step {k} of the integer recurrence is not divisible by {k}")
        scale *= den
        d.append(Fraction(ck, scale))
        if k < n:
            for i in range(n):
                prod[i][i] += ck
            c_rows = prod
            coeffs.append(Matrix(tuple(Fraction(x, scale) for x in row) for row in prod))
    return AdjugateCoeffs(tuple(coeffs), CharPoly(tuple(d)))


def lemma1_check(b: Matrix, ac: AdjugateCoeffs, k: int) -> bool:
    """Exact identity: B_k = B_{k-1} B + d_k I on the whole coefficient matrices of ``ac``.

    This is the paper's Lemma 1 multiplied by (-1)^k.  B_n is read as zero,
    so at k = n it is the Cayley-Hamilton theorem; beyond order n it holds
    trivially.  With B = M/D, B_{k-1} = C/E, and B_k and d_k cleared together
    to K/F and g/F, it holds exactly when D E (K - g I) = F (C M) over ints.
    """
    n = b.n
    if ac.n != n:
        raise DimensionError(f"adjugate coefficients of order {ac.n} do not belong to a {n}x{n} matrix")
    if k > n:
        return True
    dk = ac.cp.coefficient(k)
    bk = ac.coeffs[k].rows() if k < n else [[0] * n] * n
    f, cleared = clear_denominators([*bk, (dk,)])
    g = cleared.pop()[0]
    den, m = clear_denominators(b.rows())
    scale, c = clear_denominators(ac.coeffs[k - 1].rows())
    scale *= den
    return all(
        scale * (x - (g if r == col else 0)) == f * y
        for r, (row, prod_row) in enumerate(zip(cleared, matmul_int(c, m)))
        for col, (x, y) in enumerate(zip(row, prod_row))
    )


def cayley_hamilton_check(b: Matrix, ac: AdjugateCoeffs) -> bool:
    """True iff ``ac`` terminates the recurrence at zero, as the Cayley-Hamilton theorem demands."""
    return lemma1_check(b, ac, b.n)
