"""Characteristic polynomial and adjugate matrix-polynomial coefficients.

The production route interleaves the trace formula d_k = -trace(B_{k-1} B)/k
with the recurrence B_k = B_{k-1} B + d_k I, giving all coefficients of
det(lambda*I - B) and of adj(lambda*I - B) in O(n^4) exact operations.  It
runs over Python ints: each step reads the integer form of B (B = M/D) and
that of the coefficient B_{k-1} it stored last, and B_k is born from its
integer form, reduced by its gcd, with the division by k carried in its
denominator.  The division by k makes this route sensitive to the field
characteristic, which is one reason the brute-force minor route stays
available as an oracle.

The oracle route builds the same `AdjugateCoeffs` from principal-minor
sums of `minors` (Lemma 2 of the paper): d_k = (-1)^k delta_k(B)
(`char_poly_minors`), and row i of B_{k-1} is (-1)^(k-1) times the
order-k linear functional anchored at column i (`adjugate_coeffs_minors`).
Lemma 1 of the paper, read through Lemma 2, is the recurrence
B_k = B_{k-1} B + d_k I on those coefficients.  `lemma1_check` tests it on
the integer forms of the whole matrices, for any `AdjugateCoeffs`; its case
k = n, where B_n = 0, is the Cayley-Hamilton theorem (`cayley_hamilton_check`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .exactcore import DimensionError, Matrix, _born_matrix, identity, matmul_int
from .minors import delta_k, delta_k_i_coeffs


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
        if any(m.n != self.cp.n for m in self.coeffs):
            n = self.cp.n
            raise DimensionError(f"adjugate coefficients of order {n} must be {n}x{n}")

    @property
    def n(self) -> int:
        return self.cp.n


def char_poly(b: Matrix) -> CharPoly:
    """Characteristic polynomial via the trace-formula recurrence."""
    return adjugate_coeffs(b).cp


def char_poly_minors(b: Matrix) -> CharPoly:
    """Oracle route: d_k = (-1)^k * (sum of order-k principal minors)."""
    return CharPoly(tuple((-1) ** k * delta_k(b, k) for k in range(1, b.n + 1)))


def _signed(k: int, m: Matrix) -> Matrix:
    """(-1)^(k-1) * m, by negating its integer form, which keeps the form canonical."""
    if k % 2:
        return m
    den, rows = m.int_form()
    return _born_matrix(den, [[-c for c in row] for row in rows])


def adjugate_coeffs_minors(b: Matrix) -> AdjugateCoeffs:
    """Oracle route: row i of B_{k-1} is (-1)^(k-1) times the order-k functional anchored at i."""
    coeffs = tuple(_signed(k, delta_k_i_coeffs(b, k)) for k in range(1, b.n + 1))
    return AdjugateCoeffs(coeffs, char_poly_minors(b))


def adjugate_coeffs(b: Matrix) -> AdjugateCoeffs:
    """Matrix coefficients of adj(lambda*I - B), with the characteristic polynomial.

    Each step reads B = M/D and the coefficient it stored last,
    B_{k-1} = C/E, both in integer form.  With t = trace(C M), the step gives
    d_k = -t/(k E D) and B_k = (k C M - t I)/(k E D), and `_born_matrix`
    reduces that form by its gcd, so the next step starts from the reduced
    form again.  The division by k is carried in the denominator.
    """
    n = b.n
    den, m = b.int_form()
    d: list[Fraction] = []
    coeffs: list[Matrix] = [identity(n)]
    for k in range(1, n + 1):
        e, c = coeffs[-1].int_form()
        prod = matmul_int(c, m)
        t = sum(prod[i][i] for i in range(n))
        scale = k * e * den
        d.append(Fraction(-t, scale))
        if k < n:
            rows = [[k * x for x in row] for row in prod]
            for i in range(n):
                rows[i][i] -= t
            coeffs.append(_born_matrix(scale, rows))
    return AdjugateCoeffs(tuple(coeffs), CharPoly(tuple(d)))


def lemma1_check(b: Matrix, ac: AdjugateCoeffs, k: int) -> bool:
    """Exact identity: B_k = B_{k-1} B + d_k I on the whole coefficient matrices of ``ac``.

    This is the paper's Lemma 1 multiplied by (-1)^k.  B_n is read as zero,
    so at k = n it is the Cayley-Hamilton theorem; beyond order n it holds
    trivially.  It reads the integer forms B = M/D, B_{k-1} = C/E and
    B_k = K/F, with d_k = p/q, and holds exactly when
    D E (q K - F p I) = F q (C M) over ints.
    """
    n = b.n
    if ac.n != n:
        raise DimensionError(f"adjugate coefficients of order {ac.n} do not belong to a {n}x{n} matrix")
    if k > n:
        return True
    dk = ac.cp.coefficient(k)
    p, q = dk.numerator, dk.denominator
    den, m = b.int_form()
    e, c = ac.coeffs[k - 1].int_form()
    f, big_k = ac.coeffs[k].int_form() if k < n else (1, [[0] * n] * n)
    left, right, shift = den * e, f * q, f * p
    return all(
        left * (q * x - (shift if r == col else 0)) == right * y
        for r, (row, prod_row) in enumerate(zip(big_k, matmul_int(c, m)))
        for col, (x, y) in enumerate(zip(row, prod_row))
    )


def cayley_hamilton_check(b: Matrix, ac: AdjugateCoeffs) -> bool:
    """True iff ``ac`` terminates the recurrence at zero, as the Cayley-Hamilton theorem demands."""
    return lemma1_check(b, ac, b.n)
