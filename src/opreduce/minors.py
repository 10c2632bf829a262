"""Principal-minor sums by brute-force enumeration.

``delta_k(M)`` sums all order-k principal minors of M.  ``delta_k_i(M, i, v)``
substitutes v into column i first and then sums the order-k principal minors
whose index set contains i.  Enumeration is exponential by design: this module
is the specification-by-enumeration that every polynomial-time route in the
package is checked against.

Each function clears denominators once per call (M = D*m, all entries
ints, `exactcore.clear_denominators`), evaluates every minor of M with the
integer kernel `exactcore.det_int`, sums the integer minors of one order k
and scales the sum back once by D^k.  No `Matrix` or `Fraction` is built
per minor.  The one order-n principal minor is the determinant, so
``delta_k(m, n)`` is `exactcore.det`, which runs the same helper and kernel.
The enumeration shares only `clear_denominators` with the trace recurrence
of `faddeev`; that helper is checked on its own (`det` against
`det_cofactor`, and its own tests), so the enumeration stays an
independent check of the recurrence.

``delta_k_i_coeffs(m, k, i)`` is the linear functional that the minor
route of `reduction` uses, signed by (-1)^(k-1), as row i of the adjugate
coefficient B_{k-1}.

Subsets are enumerated in lexicographic order; exact arithmetic makes the
summation order irrelevant, fixing it just keeps debugging deterministic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Sequence

from .exactcore import Matrix, as_column, clear_denominators, det, det_int


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
    den, rows = clear_denominators(m.rows())
    total = sum(_principal_minor(rows, subset) for subset in combinations(range(n), k))
    return Fraction(total, den**k)


def delta_k_i(m: Matrix, k: int, i: int, v: Sequence) -> Fraction:
    """Substitute v into column i, then sum order-k principal minors containing i.

    Column index i is 1-based.  Returns 0 for k > n.
    """
    n = m.n
    if k < 1:
        raise ValueError("minor order must be >= 1")
    if not 1 <= i <= n:
        raise IndexError(f"column {i} out of range for dimension {n}")
    col = as_column(v)
    if len(col) != n:
        raise ValueError(f"substituted column has {len(col)} entries, expected {n}")
    if k > n:
        return Fraction(0)
    den, rows = clear_denominators([row[: i - 1] + (c,) + row[i:] for row, c in zip(m.rows(), col)])
    anchor = i - 1
    total = sum(
        _principal_minor(rows, subset) for subset in combinations(range(n), k) if anchor in subset
    )
    return Fraction(total, den**k)


def delta_vec(m: Matrix, k: int, v: Sequence) -> tuple[Fraction, ...]:
    """Column whose i-th component is delta_k_i(m, k, i, v)."""
    return tuple(delta_k_i(m, k, i, v) for i in range(1, m.n + 1))


def delta_k_i_coeffs(m: Matrix, k: int, i: int) -> tuple[Fraction, ...]:
    """Coefficients of the linear functional v -> delta_k_i(m, k, i, v).

    Expanding each anchored minor along the substituted column i leaves
    scalar cofactors of order k-1, so the substituted entries enter
    linearly: delta_k_i(m, k, i, v) = sum_s coeffs[s-1] * v[s-1].  This is
    what lets the same minors act on operator-valued columns.
    """
    n = m.n
    if k < 1:
        raise ValueError("minor order must be >= 1")
    if not 1 <= i <= n:
        raise IndexError(f"column {i} out of range for dimension {n}")
    anchor = i - 1
    if k > n:
        return (Fraction(0),) * n
    den, rows = clear_denominators(m.rows())
    coeffs = [0] * n
    for subset in combinations(range(n), k):
        if anchor not in subset:
            continue
        q = subset.index(anchor)
        minor_cols = subset[:q] + subset[q + 1 :]
        for p, r in enumerate(subset):
            minor_rows = subset[:p] + subset[p + 1 :]
            cof = det_int([[rows[rr][cc] for cc in minor_cols] for rr in minor_rows])
            coeffs[r] += (-1) ** (p + q) * cof
    scale = den ** (k - 1)
    return tuple(Fraction(c, scale) for c in coeffs)
