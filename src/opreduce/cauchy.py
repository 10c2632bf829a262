"""Initial-value propagation and end-to-end verification of reductions.

For the shift instantiation the system is a linear difference system, so it
can be iterated directly; the iterated trajectory is the independent oracle
against which the reduced scalar equations and the derived initial
conditions are checked.  Verification of a candidate solution compares
residual elements to zero on the maximal window where every term is defined;
a sequence residual carries that window as its origin and horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .exactcore import Matrix, as_column, clear_denominators, matmul_int
from .operators import (
    ElementColumn,
    FiniteSequence,
    HeterogeneousColumnError,
    HorizonError,
    OperatorKind,
    OperatorElement,
    apply_vector,
    eval_scalar_equation,
    lincomb,
)
from .reduction import ReducedSystem, total_reduce_adjugate, total_reduce_minors


@dataclass(frozen=True)
class CauchyProblem:
    """A shift-kind system with initial data and an iteration horizon.

    The trajectory covers t0 .. t0 + horizon; residuals of the reduced
    scalar equations are then comparable on t0 .. t0 + horizon - n.
    """

    b: Matrix
    phi: ElementColumn
    t0: int
    x0: tuple[Fraction, ...]
    horizon: int

    def __post_init__(self):
        n = self.b.n
        if len(self.x0) != n:
            raise ValueError(f"initial column has {len(self.x0)} entries, expected {n}")
        if self.horizon < n + 1:
            raise ValueError(f"horizon must be >= n + 1 = {n + 1}, got {self.horizon}")
        if self.phi.variant != "sequence":
            raise ValueError("initial-value problems act on sequence columns")
        if self.phi.entries[0].origin != self.t0:
            raise ValueError("free column origin must match t0")
        if self.phi.entries[0].horizon < self.horizon:
            raise HorizonError(
                f"free column horizon {self.phi.entries[0].horizon} < iteration horizon {self.horizon}"
            )


@dataclass(frozen=True)
class VerificationReport:
    reduced: ReducedSystem
    route_agreement: bool
    residuals: tuple[OperatorElement, ...]

    def all_zero(self) -> bool:
        return self.route_agreement and all(r.is_zero() for r in self.residuals)


def iterate_difference(b: Matrix, phi: ElementColumn, x0, steps: int) -> ElementColumn:
    """Iterate x(t+1) = B x(t) + phi(t) exactly from x(t0) = x0.

    Returns the n trajectories as sequences over t0 .. t0 + steps.  With
    B = M/D, phi(t) = P/Q and the state x(t) = X/S (X ints, S > 0), one step
    is X' = Q (M X) + D S P over S' = D S Q, reduced by gcd(S', X').
    """
    n = b.n
    if phi.variant != "sequence":
        raise ValueError("difference iteration needs a sequence free column")
    if len(phi) != n:
        raise ValueError(f"free column has {len(phi)} entries, expected {n}")
    start = as_column(x0)
    if len(start) != n:
        raise ValueError(f"initial column has {len(start)} entries, expected {n}")
    if steps < 0:
        raise ValueError("steps must be >= 0")
    if phi.entries[0].horizon < steps:
        raise HorizonError(f"free column horizon {phi.entries[0].horizon} < steps {steps}")
    t0 = phi.entries[0].origin
    den, m = clear_denominators(b.rows())
    scale, (x,) = clear_denominators([start])
    states = [(x, scale)]
    for step in range(steps):
        q, (p,) = clear_denominators([[entry.values[step] for entry in phi.entries]])
        ds = den * scale
        x = [q * sum(map(mul, row, x)) + ds * c for row, c in zip(m, p)]
        scale = ds * q
        g = gcd(scale, *x)
        if g > 1:
            x = [a // g for a in x]
            scale //= g
        states.append((x, scale))
    return ElementColumn(
        FiniteSequence(t0, tuple(Fraction(nums[i], s) for nums, s in states)) for i in range(n)
    )


def derived_initial_conditions(b: Matrix, phi: ElementColumn, x0) -> tuple[tuple[Fraction, ...], ...]:
    """Initial values of the operator powers 1..n-1 of every variable.

    Entry [i-1][j-1] is [B^j x(t0)]_i + sum_{k=0}^{j-1} [B^(j-1-k) (A^k phi)(t0)]_i,
    which for the shift kind equals the trajectory value x_i(t0 + j).  With
    B = M/D and x(t0), phi(t0 + k) cleared together to X/S, P_k/S, column j
    is (M^j X + sum_k D^(k+1) M^(j-1-k) P_k) / (D^j S) over ints; each power
    M^j is computed once.
    """
    n = b.n
    if phi.variant != "sequence":
        raise ValueError("derived initial conditions need a sequence free column")
    if len(phi) != n:
        raise ValueError(f"free column has {len(phi)} entries, expected {n}")
    start = as_column(x0)
    if len(start) != n:
        raise ValueError(f"initial column has {len(start)} entries, expected {n}")
    if phi.entries[0].horizon <= n - 1:
        raise HorizonError(f"free column horizon {phi.entries[0].horizon} too short for power {n - 1}")
    den, m = clear_denominators(b.rows())
    phi_at_t0 = ([entry.values[k] for entry in phi.entries] for k in range(n - 1))
    scale, (x, *p) = clear_denominators([start, *phi_at_t0])
    powers = [[[int(r == c) for c in range(n)] for r in range(n)]]
    while len(powers) < n:
        powers.append(matmul_int(powers[-1], m))
    columns = []
    for j in range(1, n):
        total = [sum(map(mul, row, x)) for row in powers[j]]
        for k in range(j):
            weight = den ** (k + 1)
            total = [t + weight * sum(map(mul, row, p[k])) for t, row in zip(total, powers[j - 1 - k])]
        columns.append([Fraction(t, den**j * scale) for t in total])
    return tuple(tuple(column[i] for column in columns) for i in range(n))


def manufacture_solution(b: Matrix, x: ElementColumn, kind: OperatorKind) -> ElementColumn:
    """Free column that makes x a solution by construction: A(x) - B x, one `lincomb` call.

    Row i of the scalars is [e_i | -(row i of B)] over the elements (A(x), x).
    """
    n = b.n
    if len(x) != n:
        raise HeterogeneousColumnError(f"matrix of order {n} cannot act on a column of length {len(x)}")
    scalar_rows = [[int(i == j) for j in range(n)] + [-c for c in row] for i, row in enumerate(b.rows())]
    return ElementColumn(lincomb(scalar_rows, (*apply_vector(kind, x), *x)))


def verify_total_reduction(
    b: Matrix, x: ElementColumn, phi: ElementColumn, kind: OperatorKind
) -> VerificationReport:
    """Check that each component of x satisfies its reduced scalar equation.

    Runs both reduction routes, records whether they agree exactly, and
    evaluates the per-variable residuals against the adjugate-route
    right-hand side.
    """
    n = b.n
    if len(x) != n:
        raise ValueError(f"candidate column has {len(x)} entries, expected {n}")
    if x.variant != phi.variant:
        raise ValueError("candidate and free columns must share a variant")
    reduced = total_reduce_adjugate(b, phi, kind)
    agreement = reduced == total_reduce_minors(b, phi, kind)
    residuals = tuple(
        eval_scalar_equation(reduced.cp, kind, xi, psi) for xi, psi in zip(x, reduced.rhs_evaluated)
    )
    return VerificationReport(reduced=reduced, route_agreement=agreement, residuals=residuals)


def solve_cauchy(problem: CauchyProblem) -> tuple[ElementColumn, VerificationReport, tuple[tuple[Fraction, ...], ...]]:
    """Trajectories, reduction verification, and derived initial conditions.

    Returns (trajectories, verification, derived) where derived[i-1][j-1]
    is the initial value of the j-th operator power of variable i.
    """
    trajectories = iterate_difference(problem.b, problem.phi, problem.x0, problem.horizon)
    verification = verify_total_reduction(problem.b, trajectories, problem.phi, OperatorKind.SHIFT)
    derived = derived_initial_conditions(problem.b, problem.phi, problem.x0)
    return trajectories, verification, derived
