"""Principal-minor sums by brute-force enumeration.

``delta_k(M)`` sums all order-k principal minors of M.  ``delta_k_i(M, i, v)``
substitutes v into column i first (`exactcore.column_substitute`) and then
sums the order-k principal minors whose index set contains i.  Enumeration
is exponential by design: this module is the specification-by-enumeration
that every polynomial-time route in the package is checked against.

Each function reads the integer form of its matrix (M = D*m, all entries
ints, `exactcore.Matrix.int_form`), works on the integer principal
submatrices of M and scales each order's result back once by a power of D.
No `Matrix` or `Fraction` is built per minor.  ``delta_k`` and
``delta_k_i`` evaluate every minor with the integer kernel
`exactcore.det_int`; the one order-n principal minor is the determinant, so
``delta_k(m, n)`` is `exactcore.det`, which reads the same form and runs the
same kernel.

``delta_k_i_coeffs(m, k)`` is the `Matrix` of the n anchored linear
functionals of order k, born from its integer table over D^(k-1);
`faddeev.adjugate_coeffs_minors` signs it by (-1)^(k-1) to get the adjugate
coefficient B_{k-1} (Lemma 2 of the paper).  ``delta_vec`` is that table
times a column, through `exactcore.mat_vec`.
The table takes one fraction-free Gauss-Jordan elimination per order-k
principal subset, whose adjugate serves all k anchors of the subset at once
(Bareiss 1968; Nakos, Turner & Williams 1997), with the cofactors of
`det_int` for a singular subset.  So building all orders still costs
2^n - 1 eliminations.

The enumeration shares only the matrix's integer form with the trace
recurrence of `faddeev`; that form is checked on its own (`det` against the
test suite's cofactor expansion, and its own tests), so the enumeration
stays an independent check of the recurrence.

Subsets are enumerated in lexicographic order; exact arithmetic makes the
summation order irrelevant, fixing it just keeps debugging deterministic.
"""

from __future__ import annotations

from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations

from .exactcore import Matrix, _born_matrix, column_substitute, det, det_int, mat_vec


def _principal_minor(rows: list[list[int]], subset: Sequence[int]) -> int:
    return det_int([[rows[r][c] for c in subset] for r in subset])


def delta_k(m: Matrix, k: int) -> Fraction:
    """Sum of all order-k principal minors; 1 for k = 0, 0 for k > n."""
    n = m.n
    if k < 0:
        raise ValueError("minor order must be >= 0")
    if k == 0:
        return Fraction(1)
    if k > n:
        return Fraction(0)
    if k == n:
        return det(m)
    den, rows = m.int_form()
    total = sum(_principal_minor(rows, subset) for subset in combinations(range(n), k))
    return Fraction(total, den**k)


def delta_k_i(m: Matrix, k: int, i: int, v: Sequence) -> Fraction:
    """Substitute v into column i, then sum order-k principal minors containing i.

    Column index i is 1-based.  Returns 0 for k > n.
    """
    if k < 1:
        raise ValueError("minor order must be >= 1")
    substituted = column_substitute(m, i, v)
    if k > m.n:
        return Fraction(0)
    den, rows = substituted.int_form()
    anchor = i - 1
    total = sum(
        _principal_minor(rows, subset) for subset in combinations(range(m.n), k) if anchor in subset
    )
    return Fraction(total, den**k)


def _adjugate_int(a: list[list[int]]) -> list[list[int]] | None:
    """adj(a) of a nonsingular square integer matrix; None when a is singular.

    Fraction-free Gauss-Jordan on [a | I]: at each step every row but the
    pivot row becomes (pivot * row - row[p] * pivot_row) // previous pivot,
    an exact division over the integers, and a zero pivot is swapped for a
    later nonzero one.  The rows L that end up beside a then satisfy
    L a = d I with d = det(P a) for the row permutation P, so L is
    sign(P) * adj(a).  Each eliminated column is dropped once it is done,
    so only the right-hand block is left at the end.
    """
    k = len(a)
    rows = [[*row, *(int(r == c) for c in range(k))] for r, row in enumerate(a)]
    sign = 1
    prev = 1
    for p in range(k):
        if not rows[p][0]:
            r = next((r for r in range(p + 1, k) if rows[r][0]), None)
            if r is None:
                return None
            rows[p], rows[r] = rows[r], rows[p]
            sign = -sign
        pivot, *tail = rows[p]
        rows = [
            tail if i == p else [(pivot * x - row[0] * y) // prev for x, y in zip(row[1:], tail)]
            for i, row in enumerate(rows)
        ]
        prev = pivot
    return rows if sign == 1 else [[-x for x in row] for row in rows]


def _cofactor_adjugate(a: list[list[int]]) -> list[list[int]]:
    """adj(a) entry by entry: adj[q][p] = (-1)^(p+q) * det(a without row p, column q)."""
    idx = range(len(a))
    return [
        [
            (-1) ** (p + q) * det_int([[a[r][c] for c in idx if c != q] for r in idx if r != p])
            for p in idx
        ]
        for q in idx
    ]


def _anchored_table(m: Matrix, k: int) -> tuple[int, list[list[int]]]:
    """``(S, rows)``: row i-1 of rows / S is the order-k functional anchored at i.

    One pass over the order-k principal subsets of M = D*m (k <= n).
    Expanding the minor on subset T along its anchored column T[q] gives
    the cofactors adj(M_T)[q][p] as the coefficients of v[T[p]], so the
    adjugate of M_T serves all k anchors of T at once.  The cofactors have
    order k-1, so S = D^(k-1).  A singular M_T, which the elimination
    cannot finish, takes its cofactors from `det_int` one by one.
    """
    n = m.n
    den, rows = m.int_form()
    table = [[0] * n for _ in range(n)]
    for subset in combinations(range(n), k):
        sub = [[rows[r][c] for c in subset] for r in subset]
        adj = _adjugate_int(sub)
        if adj is None:
            adj = _cofactor_adjugate(sub)
        for anchor, cofactors in zip(subset, adj):
            row = table[anchor]
            for r, c in zip(subset, cofactors):
                row[r] += c
    return den ** (k - 1), table


def delta_k_i_coeffs(m: Matrix, k: int) -> Matrix:
    """The n linear functionals v -> delta_k_i(m, k, i, v) as a matrix; row i-1 is anchor i.

    Expanding each anchored minor along the substituted column i leaves
    scalar cofactors of order k-1, so the substituted entries enter
    linearly: delta_k_i(m, k, i, v) = sum_s coeffs[i-1][s-1] * v[s-1].
    This is what lets the same minors act on operator-valued columns.
    The matrix is born from the integer table; beyond order n it is zero.
    """
    n = m.n
    if k < 1:
        raise ValueError("minor order must be >= 1")
    if k > n:
        return _born_matrix(1, [[0] * n for _ in range(n)])
    return _born_matrix(*_anchored_table(m, k))


def delta_vec(m: Matrix, k: int, v: Sequence) -> tuple[Fraction, ...]:
    """Column whose i-th component is delta_k_i(m, k, i, v): the order-k table times v."""
    return mat_vec(delta_k_i_coeffs(m, k), v)
