"""Total reduction of a first-order operator system to decoupled scalar equations.

Given A(x) = B x + phi, every variable satisfies the n-th order scalar
equation p(A) x_i = sum_k (row i of B_{k-1}) . A^(n-k) phi, where p is the
characteristic polynomial of B and B_0..B_{n-1} are the coefficients of
adj(lambda*I - B).  One skeleton builds the symbolic terms and evaluates
them over the operator powers of phi; the two routes differ only in how
they obtain the `AdjugateCoeffs` (p and B_0..B_{n-1}) that both hand to it:

* the adjugate route takes them from the trace recurrence
  (`faddeev.adjugate_coeffs`, polynomial cost, the production path);
* the minor route takes row i of B_{k-1} as (-1)^(k-1) times the linear
  functional of the order-k principal-minor sum anchored at column i, with
  the free column substituted there and expanded along column i, and p from
  principal-minor sums (`faddeev.adjugate_coeffs_minors`).

The scalars come from two independent computations, so the two reductions
must be equal, term by term and element by element; `ReducedSystem`
equality is that check, and the package treats any disagreement as a bug,
never as noise.  Taking the zero operator collapses the machinery to
Cramer's rule, which is exposed directly as `cramer_solve` and
cross-checkable through the pipeline via `cramer_via_zero_reduction`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .exactcore import Matrix, as_column, column_substitute, det, mat_vec
from .faddeev import AdjugateCoeffs, CharPoly, _signed, adjugate_coeffs, adjugate_coeffs_minors
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
    coeffs: tuple[Fraction, ...]


@dataclass(frozen=True)
class ReducedSystem:
    """Characteristic polynomial plus per-variable right-hand sides.

    Two reductions compare equal exactly when they agree on the polynomial,
    on every symbolic term and on every evaluated element, which is the
    route-agreement predicate.
    """

    cp: CharPoly
    rhs_symbolic: tuple[tuple[RhsTerm, ...], ...]
    rhs_evaluated: ElementColumn


def _check_system(b: Matrix, phi: ElementColumn) -> int:
    n = b.n
    if len(phi) != n:
        raise ValueError(f"free column has {len(phi)} entries, expected {n}")
    if phi.variant == "sequence":
        horizon = phi.entries[0].horizon
        if horizon <= n:
            raise HorizonError(f"reduction of an order-{n} system needs horizon > {n}, got {horizon}")
    return n


def _operator_powers(kind: OperatorKind, phi: ElementColumn, n: int) -> list[ElementColumn]:
    """A^j phi for j = 0..n-1, each one application from the one before."""
    powers = [phi]
    for _ in range(n - 1):
        powers.append(apply_vector(kind, powers[-1]))
    return powers


def _reduce(ac: AdjugateCoeffs, phi: ElementColumn, kind: OperatorKind) -> ReducedSystem:
    """p(A) x_i = sum_k (row i of B_{k-1}) . A^(n-k) phi, given p and B_0..B_{n-1}.

    Row i of B_{k-1} equals (-1)^(k-1) times the order-k anchored minor
    functional; each term records that unsigned functional together with
    its sign.
    """
    n = ac.n
    powers = _operator_powers(kind, phi, n)
    symbolic, scalar_rows = [], []
    for i in range(1, n + 1):
        terms, scalars = [], []
        for k in range(1, n + 1):
            sign = (-1) ** (k - 1)
            row = ac.coeffs[k - 1].rows()[i - 1]
            terms.append(RhsTerm(variable=i, order=k, sign=sign, power=n - k, coeffs=_signed(k, row)))
            scalars.extend(row)
        symbolic.append(tuple(terms))
        scalar_rows.append(scalars)
    # every right-hand side in one combination: n rows of scalars over the
    # n^2 entries of A^(n-1) phi, ..., A^0 phi, so each entry is cleared once
    elements = [e for k in range(1, n + 1) for e in powers[n - k].entries]
    evaluated = lincomb(scalar_rows, elements)
    return ReducedSystem(cp=ac.cp, rhs_symbolic=tuple(symbolic), rhs_evaluated=ElementColumn(evaluated))


def total_reduce_minors(b: Matrix, phi: ElementColumn, kind: OperatorKind) -> ReducedSystem:
    """Reduce via anchored principal-minor sums of the substituted free column."""
    _check_system(b, phi)
    return _reduce(adjugate_coeffs_minors(b), phi, kind)


def total_reduce_adjugate(b: Matrix, phi: ElementColumn, kind: OperatorKind) -> ReducedSystem:
    """Reduce via the adjugate coefficient matrices (production route)."""
    _check_system(b, phi)
    return _reduce(adjugate_coeffs(b), phi, kind)


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
    column = ElementColumn(Polynomial([c]) for c in as_column(phi))
    reduced = total_reduce_minors(b, column, OperatorKind.ZERO)
    dn = reduced.cp.coefficient(b.n)
    if dn == 0:
        raise SingularMatrixError("system matrix is singular (determinant zero)")
    solution = []
    for element in reduced.rhs_evaluated:
        constant = element.coeffs[0] if element.coeffs else Fraction(0)
        solution.append(constant / dn)
    return tuple(solution)


def lemma1_check(b: Matrix, mc: AdjugateCoeffs, k: int, v: Sequence) -> bool:
    """Exact identity: B_k v = B_{k-1}(B v) + d_k v on the minor-route coefficients ``mc``.

    This is the paper's Lemma 1 multiplied by (-1)^k, with B_n = 0; it holds
    trivially beyond order n.
    """
    n = b.n
    if k > n:
        return True
    dk = mc.cp.coefficient(k)
    col = as_column(v)
    lhs = mat_vec(mc.coeffs[k], col) if k < n else (Fraction(0),) * n
    rhs = mat_vec(mc.coeffs[k - 1], mat_vec(b, col))
    return lhs == tuple(x + dk * c for x, c in zip(rhs, col))


def lemma2_check(ac: AdjugateCoeffs, mc: AdjugateCoeffs, k: int, v: Sequence) -> bool:
    """Exact identity: B_k v from the trace recurrence ``ac`` equals B_k v from the minors ``mc``."""
    if not 0 <= k <= ac.n - 1:
        raise IndexError(f"adjugate coefficient index {k} out of range 0..{ac.n - 1}")
    return mat_vec(ac.coeffs[k], v) == mat_vec(mc.coeffs[k], v)
