"""Total reduction of a first-order operator system to decoupled scalar equations.

Given A(x) = B x + phi, both routes produce the same system of n decoupled
n-th order scalar equations sharing the characteristic polynomial of B as
left-hand side:

* the adjugate route accumulates B_{k-1} acting on the (n-k)-th operator
  power of phi (polynomial cost, the production path);
* the minor route evaluates, for each variable i and order k, the sum of
  order-k principal minors anchored at column i with the operator column
  substituted there, expanded along column i so operator elements only ever
  enter through exact scalar cofactors.

The two right-hand sides must agree exactly, term by term and element by
element; the package treats any disagreement as a bug, never as noise.
Taking the zero operator collapses the machinery to Cramer's rule, which is
exposed directly as `cramer_solve` and cross-checkable through the pipeline
via `cramer_via_zero_reduction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactcore import Matrix, as_column, column_substitute, det, mat_vec
from .faddeev import AdjugateCoeffs, CharPoly, adjugate_coeffs, char_poly_minors
from .minors import MinorDescriptor, delta_k, delta_k_i_coeffs, delta_vec
from .operators import (
    ElementColumn,
    HorizonError,
    OperatorKind,
    Polynomial,
    apply_vector,
    lincomb,
)


class SingularMatrixError(ValueError):
    """The system matrix has determinant zero where a nonzero one is required."""


@dataclass(frozen=True)
class RhsTerm:
    """One summand of a reduced right-hand side.

    The term contributes sign * sum_s coeffs[s-1] * A^power(phi_s) to the
    equation of the anchored variable; coeffs are the (unsigned) linear
    functional of the anchored minor sum of the given order.
    """

    variable: int
    order: int
    sign: int
    power: int
    descriptor: MinorDescriptor
    coeffs: tuple[Fraction, ...]


@dataclass(frozen=True)
class ReducedSystem:
    """Characteristic polynomial plus per-variable right-hand sides."""

    cp: CharPoly
    rhs_symbolic: tuple[tuple[RhsTerm, ...], ...]
    rhs_evaluated: ElementColumn
    provenance: str


def _check_system(b: Matrix, phi: ElementColumn) -> int:
    n = b.n
    if len(phi) != n:
        raise ValueError(f"free column has {len(phi)} entries, expected {n}")
    if phi.variant == "sequence":
        horizon = phi.entries[0].horizon
        if horizon <= n:
            raise HorizonError(f"reduction of an order-{n} system needs horizon > {n}, got {horizon}")
    return n


def _rhs_terms_minors(b: Matrix) -> tuple[tuple[RhsTerm, ...], ...]:
    n = b.n
    per_variable = []
    for i in range(1, n + 1):
        terms = []
        for k in range(1, n + 1):
            terms.append(
                RhsTerm(
                    variable=i,
                    order=k,
                    sign=(-1) ** (k - 1),
                    power=n - k,
                    descriptor=MinorDescriptor(order=k, anchor=i, substituted=True),
                    coeffs=delta_k_i_coeffs(b, k, i),
                )
            )
        per_variable.append(tuple(terms))
    return tuple(per_variable)


def _rhs_terms_adjugate(b: Matrix, coeff_matrices: Sequence[Matrix]) -> tuple[tuple[RhsTerm, ...], ...]:
    # Row i of B_{k-1} equals (-1)^(k-1) times the order-k anchored minor
    # functional, so the adjugate route carries the same symbolic terms.
    n = b.n
    per_variable = []
    for i in range(1, n + 1):
        terms = []
        for k in range(1, n + 1):
            sign = (-1) ** (k - 1)
            row = coeff_matrices[k - 1].row(i)
            terms.append(
                RhsTerm(
                    variable=i,
                    order=k,
                    sign=sign,
                    power=n - k,
                    descriptor=MinorDescriptor(order=k, anchor=i, substituted=True),
                    coeffs=tuple(sign * entry for entry in row),
                )
            )
        per_variable.append(tuple(terms))
    return tuple(per_variable)


def _operator_powers(kind: OperatorKind, phi: ElementColumn, n: int) -> list[ElementColumn]:
    """A^j phi for j = 0..n-1, each one application from the one before."""
    powers = [phi]
    for _ in range(n - 1):
        powers.append(apply_vector(kind, powers[-1]))
    return powers


def total_reduce_minors(b: Matrix, phi: ElementColumn, kind: OperatorKind) -> ReducedSystem:
    """Reduce via anchored principal-minor sums of the substituted free column."""
    n = _check_system(b, phi)
    powers = _operator_powers(kind, phi, n)
    terms = _rhs_terms_minors(b)
    evaluated = []
    for i in range(1, n + 1):
        parts = [
            lincomb([t.sign * c for c in t.coeffs], powers[t.power].entries)
            for t in terms[i - 1]
        ]
        acc = parts[0]
        for p in parts[1:]:
            acc = acc + p
        evaluated.append(acc)
    return ReducedSystem(
        cp=char_poly_minors(b),
        rhs_symbolic=terms,
        rhs_evaluated=ElementColumn(evaluated),
        provenance="minors",
    )


def total_reduce_adjugate(b: Matrix, phi: ElementColumn, kind: OperatorKind) -> ReducedSystem:
    """Reduce via the adjugate coefficient matrices (production route)."""
    n = _check_system(b, phi)
    ac = adjugate_coeffs(b)
    powers = _operator_powers(kind, phi, n)
    psi = None
    for k in range(1, n + 1):
        term = ElementColumn(
            lincomb(row, powers[n - k].entries) for row in ac.coeffs[k - 1].rows()
        )
        psi = term if psi is None else psi + term
    return ReducedSystem(
        cp=ac.cp,
        rhs_symbolic=_rhs_terms_adjugate(b, ac.coeffs),
        rhs_evaluated=psi,
        provenance="adjugate",
    )


def cramer_solve(b: Matrix, phi: Sequence) -> tuple[Fraction, ...]:
    """Solve B x + phi = 0 by column substitution: x_i = -det(B with phi in column i)/det(B)."""
    n = b.n
    col = as_column(phi)
    if len(col) != n:
        raise ValueError(f"free column has {len(col)} entries, expected {n}")
    d = det(b)
    if d == 0:
        raise SingularMatrixError("system matrix is singular (determinant zero)")
    return tuple(-det(column_substitute(b, i, col)) / d for i in range(1, n + 1))


def cramer_via_zero_reduction(b: Matrix, phi: Sequence) -> tuple[Fraction, ...]:
    """Same solution through the zero-operator reduction pipeline.

    With the zero operator only the order-n term survives, so each reduced
    equation degenerates to d_n * x_i = psi_i with psi_i the anchored full
    determinant of the substituted matrix; this is Cramer's rule in disguise.
    """
    n = b.n
    col = as_column(phi)
    dn = (-1) ** n * delta_k(b, n)
    if dn == 0:
        raise SingularMatrixError("system matrix is singular (determinant zero)")
    column = ElementColumn(Polynomial([c]) for c in col)
    reduced = total_reduce_minors(b, column, OperatorKind.ZERO)
    solution = []
    for element in reduced.rhs_evaluated:
        constant = element.coeffs[0] if element.coeffs else Fraction(0)
        solution.append(constant / dn)
    return tuple(solution)


def lemma1_check(b: Matrix, k: int, v: Sequence) -> bool:
    """Exact identity: anchored sums of order k at B*v plus order k+1 at v equal delta_k(B)*v."""
    col = as_column(v)
    lhs1 = delta_vec(b, k, mat_vec(b, col))
    lhs2 = delta_vec(b, k + 1, col) if k + 1 <= b.n else (Fraction(0),) * b.n
    rhs_scale = delta_k(b, k)
    return all(a + c == rhs_scale * x for a, c, x in zip(lhs1, lhs2, col))


def lemma2_check(b: Matrix, ac: AdjugateCoeffs, k: int, v: Sequence) -> bool:
    """Exact identity: B_k * v = (-1)^k * (order k+1 anchored minor sums of v).

    ``ac`` holds the adjugate coefficients of b under test, so one
    computation serves every k.
    """
    if not 0 <= k <= b.n - 1:
        raise IndexError(f"adjugate coefficient index {k} out of range 0..{b.n - 1}")
    col = as_column(v)
    lhs = mat_vec(ac.coeffs[k], col)
    rhs = tuple((-1) ** k * c for c in delta_vec(b, k + 1, col))
    return lhs == rhs
