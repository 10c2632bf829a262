"""Initial-value propagation and end-to-end verification of reductions.

For the shift instantiation the system is a linear difference system, so it
can be iterated directly; the iterated trajectory is the independent oracle
against which the reduced scalar equations and the derived initial
conditions are checked.  Verification of a candidate solution compares
residual elements to zero on the maximal window where every term is defined
and reports that window explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from .exactcore import Matrix, as_column, clear_denominators, identity, mat_vec
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
class ResidualReport:
    """Residual of one reduced scalar equation, with its comparison window."""

    variable: int
    residual: OperatorElement
    window: tuple[int, int] | None
    is_zero: bool


@dataclass(frozen=True)
class VerificationReport:
    reduced: ReducedSystem
    route_agreement: bool
    residuals: tuple[ResidualReport, ...]

    def all_zero(self) -> bool:
        return self.route_agreement and all(r.is_zero for r in self.residuals)


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
    which for the shift kind equals the trajectory value x_i(t0 + j).  Each
    power B^j is computed once.
    """
    n = b.n
    if phi.variant != "sequence":
        raise ValueError("derived initial conditions need a sequence free column")
    if phi.entries[0].horizon <= n - 1:
        raise HorizonError(f"free column horizon {phi.entries[0].horizon} too short for power {n - 1}")
    start = as_column(x0)
    b_powers = [identity(n)]
    for _ in range(n - 1):
        b_powers.append(b_powers[-1] * b)
    phi_at_t0 = [tuple(entry.values[k] for entry in phi.entries) for k in range(n - 1)]
    columns = []
    for j in range(1, n):
        total = mat_vec(b_powers[j], start)
        for k in range(j):
            total = tuple(a + c for a, c in zip(total, mat_vec(b_powers[j - 1 - k], phi_at_t0[k])))
        columns.append(total)
    return tuple(tuple(column[i] for column in columns) for i in range(n))


def manufacture_solution(b: Matrix, x: ElementColumn, kind: OperatorKind) -> ElementColumn:
    """Free column that makes x a solution by construction: A(x) - B x, one `lincomb` per row."""
    if len(x) != b.n:
        raise HeterogeneousColumnError(f"matrix of order {b.n} cannot act on a column of length {len(x)}")
    return ElementColumn(
        lincomb((1, *(-c for c in row)), (ax, *x))
        for ax, row in zip(apply_vector(kind, x), b.rows())
    )


def _window(e: OperatorElement) -> tuple[int, int] | None:
    if isinstance(e, FiniteSequence):
        return (e.origin, e.horizon)
    return None


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
    residuals = []
    for idx in range(n):
        res = eval_scalar_equation(reduced.cp, kind, x[idx], reduced.rhs_evaluated[idx])
        residuals.append(
            ResidualReport(
                variable=idx + 1,
                residual=res,
                window=_window(res),
                is_zero=res.is_zero(),
            )
        )
    return VerificationReport(
        reduced=reduced,
        route_agreement=agreement,
        residuals=tuple(residuals),
    )


def solve_cauchy(problem: CauchyProblem) -> tuple[ElementColumn, VerificationReport, tuple[tuple[Fraction, ...], ...]]:
    """Trajectories, reduction verification, and derived initial conditions.

    Returns (trajectories, verification, derived) where derived[i-1][j-1]
    is the initial value of the j-th operator power of variable i.
    """
    trajectories = iterate_difference(problem.b, problem.phi, problem.x0, problem.horizon)
    verification = verify_total_reduction(problem.b, trajectories, problem.phi, OperatorKind.SHIFT)
    derived = derived_initial_conditions(problem.b, problem.phi, problem.x0)
    return trajectories, verification, derived
