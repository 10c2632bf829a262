"""Total reduction of a first-order operator system to decoupled scalar equations.

Given A(x) = B x + phi, every variable satisfies the n-th order scalar
equation p(A) x_i = sum_k (row i of B_{k-1}) . A^(n-k) phi, where p is the
characteristic polynomial of B and B_0..B_{n-1} are the coefficients of
adj(lambda*I - B).  A `ReducedSystem` is those coefficients (`AdjugateCoeffs`)
together with phi and the operator; its right-hand sides, a function of
them, are evaluated over the operator powers of phi once, when first read.
The two routes differ only in how they obtain the `AdjugateCoeffs`:

* the adjugate route takes them from the trace recurrence
  (`faddeev.adjugate_coeffs`, polynomial cost, the production path);
* the minor route takes row i of B_{k-1} as (-1)^(k-1) times the linear
  functional of the order-k principal-minor sum anchored at column i, with
  the free column substituted there and expanded along column i, and p from
  principal-minor sums (`faddeev.adjugate_coeffs_minors`).

Both routes first check that phi fits B and that the operator can be
applied to it n times (`operators.check_acts_on`), before any coefficient
is computed.
The scalars come from two independent computations, so the two reductions
must be equal, coefficient by coefficient; `ReducedSystem` equality is that
check, so the cross-check route evaluates no right-hand side, and the
package treats any disagreement as a bug, never as noise.  Taking the zero
operator collapses the machinery to Cramer's rule, which is exposed
directly as `cramer_solve` (Bareiss determinants) and cross-checked by
`cramer_via_zero_reduction` on the production route; only the oracle and
`cauchy.reduce_checked`, the cross-check of `reduce`, `verify` and `solve`,
enumerate minors.  The identity checks of the oracle live here too:
`lemma2_check` compares the two routes' coefficients, and `lemma1_check`,
re-exported from `faddeev`, tests their recurrence.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Sequence

from .exactcore import DimensionError, Matrix, as_column, column_substitute, conform, det
from .faddeev import AdjugateCoeffs, CharPoly, adjugate_coeffs, adjugate_coeffs_minors, lemma1_check
from .operators import (
    ElementColumn,
    OperatorKind,
    Polynomial,
    apply_vector,
    check_acts_on,
    lincomb,
)


class SingularMatrixError(ValueError):
    """The system matrix has determinant zero where a nonzero one is required."""


@dataclass(frozen=True)
class ReducedSystem:
    """The adjugate coefficients of B, the free column phi and the operator of a reduction.

    Two reductions of one system compare equal exactly when they agree on
    the polynomial and on every coefficient matrix, which is the
    route-agreement predicate: the right-hand sides are a function of the
    fields.
    """

    ac: AdjugateCoeffs
    phi: ElementColumn
    kind: OperatorKind

    @property
    def cp(self) -> CharPoly:
        return self.ac.cp

    @cached_property
    def rhs_evaluated(self) -> ElementColumn:
        """sum_k (row i of B_{k-1}) . A^(n-k) phi for every i, evaluated on first read."""
        n = self.ac.n
        powers = _operator_powers(self.kind, self.phi, n)
        # every right-hand side in one combination: n rows of scalars over the
        # n^2 entries of A^(n-1) phi, ..., A^0 phi, the B_k forms brought to their lcm
        forms = [coeff.int_form() for coeff in self.ac.coeffs]
        den = lcm(*(d for d, _ in forms))
        factors = [den // d for d, _ in forms]
        scalar_rows = [[c * f for (_, m), f in zip(forms, factors) for c in m[i]] for i in range(n)]
        elements = [e for k in range(1, n + 1) for e in powers[n - k].entries]
        return ElementColumn(lincomb((den, scalar_rows), elements))


def _check_system(b: Matrix, phi: ElementColumn, kind: OperatorKind) -> None:
    """phi fits B and the operator can be applied to it n times (`check_acts_on`)."""
    check_acts_on(kind, conform(b.n, phi, "free column")[0], b.n)


def _operator_powers(kind: OperatorKind, phi: ElementColumn, n: int) -> list[ElementColumn]:
    """A^j phi for j = 0..n-1, each one application from the one before."""
    powers = [phi]
    for _ in range(n - 1):
        powers.append(apply_vector(kind, powers[-1]))
    return powers


def total_reduce_minors(b: Matrix, phi: ElementColumn, kind: OperatorKind) -> ReducedSystem:
    """Reduce via anchored principal-minor sums of the substituted free column."""
    _check_system(b, phi, kind)
    return ReducedSystem(adjugate_coeffs_minors(b), phi, kind)


def total_reduce_adjugate(b: Matrix, phi: ElementColumn, kind: OperatorKind) -> ReducedSystem:
    """Reduce via the adjugate coefficient matrices (production route)."""
    _check_system(b, phi, kind)
    return ReducedSystem(adjugate_coeffs(b), phi, kind)


def cramer_solve(b: Matrix, phi: Sequence) -> tuple[Fraction, ...]:
    """Solve B x + phi = 0 by column substitution: x_i = -det(B with phi in column i)/det(B)."""
    n = b.n
    col = conform(n, as_column(phi), "free column")
    d = det(b)
    if d == 0:
        raise SingularMatrixError("system matrix is singular (determinant zero)")
    return tuple(-det(column_substitute(b, i, col)) / d for i in range(1, n + 1))


def cramer_via_zero_reduction(b: Matrix, phi: Sequence) -> tuple[Fraction, ...]:
    """Same solution through the zero-operator reduction on the production route.

    With the zero operator only the order-n term survives, so each reduced
    equation is d_n x_i = (row i of B_{n-1}) . phi, both from the trace
    recurrence: Cramer's rule in disguise, independent of `cramer_solve`.
    """
    column = ElementColumn(Polynomial([c]) for c in as_column(phi))
    reduced = total_reduce_adjugate(b, column, OperatorKind.ZERO)
    dn = reduced.cp.coefficient(b.n)
    if dn == 0:
        raise SingularMatrixError("system matrix is singular (determinant zero)")
    return tuple(element.evaluate(0) / dn for element in reduced.rhs_evaluated)


def lemma2_check(ac: AdjugateCoeffs, mc: AdjugateCoeffs, k: int) -> bool:
    """Exact identity: B_k from the trace recurrence ``ac`` equals B_k from the minors ``mc``."""
    if ac.n != mc.n:
        raise DimensionError(f"adjugate coefficients of orders {ac.n} and {mc.n} cannot be compared")
    if not 0 <= k <= ac.n - 1:
        raise IndexError(f"adjugate coefficient index {k} out of range 0..{ac.n - 1}")
    return ac.coeffs[k] == mc.coeffs[k]
