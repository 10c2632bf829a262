"""Initial-value propagation and end-to-end verification of reductions.

For the shift instantiation the system is a linear difference system, so it
can be iterated directly from x(t0) = x0, t0 being the origin of the free
column phi; the iterated trajectory is the independent oracle against which
the reduced scalar equations and the derived initial conditions are checked
(`solve_cauchy`).  A candidate solution must fit B and share phi's element
class and origin; verifying it compares residual elements to zero on the
maximal window where every term is defined, and a sequence residual carries
that window as its origin and horizon.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .exactcore import Matrix, as_column, clear_denominators, conform, matmul_int
from .operators import (
    ElementColumn,
    FiniteSequence,
    HeterogeneousColumnError,
    HorizonError,
    OperatorKind,
    OperatorElement,
    _born,
    apply_vector,
    check_acts_on,
    eval_scalar_equation,
    lincomb,
)
from .reduction import ReducedSystem, total_reduce_adjugate, total_reduce_minors


@dataclass(frozen=True)
class VerificationReport:
    reduced: ReducedSystem
    route_agreement: bool
    residuals: tuple[OperatorElement, ...]

    def all_zero(self) -> bool:
        return self.route_agreement and all(r.is_zero() for r in self.residuals)


def _shift_problem(
    b: Matrix, phi: ElementColumn, x0, reads: int
) -> tuple[int, int, list[list[int]], tuple[Fraction, ...]]:
    """``(n, D, M, x0)``: phi and x0 fit B = M/D, and the shift acts ``reads`` times on phi (`check_acts_on`)."""
    n = b.n
    check_acts_on(OperatorKind.SHIFT, conform(n, phi, "free column")[0], reads)
    start = conform(n, as_column(x0), "initial column")
    den, m = b.int_form()
    return n, den, m, start


def iterate_difference(b: Matrix, phi: ElementColumn, x0, steps: int) -> ElementColumn:
    """Iterate x(t+1) = B x(t) + phi(t) exactly from x(t0) = x0.

    Returns the n trajectories as sequences over t0 .. t0 + steps, reading
    phi up to t0 + steps - 1 (`_shift_problem`).  With B = M/D, phi(t) =
    P(t)/Q (Q the lcm of the denominators of phi's integer forms, read once
    per call) and the state x(t) = X/S (X ints, S > 0), one step is
    X' = Q (M X) + D S P over S' = D S Q, reduced by gcd(S', X').  The
    step's values are the Fractions X'_i / S', and each one's gcd gives that
    reduction too: gcd(S', X') is the gcd of the S' / denominator.  Each
    trajectory is born with its integer form over L, the lcm of the S(t):
    value t is X(t) (L / S(t)) over L.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    n, den, m, start = _shift_problem(b, phi, x0, steps - 1)
    t0 = phi.entries[0].origin
    scale, (x,) = clear_denominators([start])
    forms = [entry.int_form() for entry in phi.entries]
    q = lcm(*(d for d, _ in forms))
    windows = [[a * (q // d) for a in ints[:steps]] for d, ints in forms]
    states, values = [(x, scale)], [start]
    for p in zip(*windows):
        ds = den * scale
        x = [q * sum(map(mul, row, x)) + ds * c for row, c in zip(m, p)]
        scale = ds * q
        now = tuple(Fraction(a, scale) for a in x)
        g = gcd(*(scale // v.denominator for v in now))
        if g > 1:
            x = [a // g for a in x]
            scale //= g
        states.append((x, scale))
        values.append(now)
    common = lcm(*(s for _, s in states))
    factors = [common // s for _, s in states]
    trajectories = []
    for i in range(n):
        form = (common, [nums[i] * f for (nums, _), f in zip(states, factors)])
        trajectories.append(_born(FiniteSequence, form, t0, tuple(v[i] for v in values)))
    return ElementColumn(trajectories)


def derived_initial_conditions(b: Matrix, phi: ElementColumn, x0) -> tuple[tuple[Fraction, ...], ...]:
    """Initial values of the operator powers 1..n-1 of every variable.

    Entry [i-1][j-1] is [B^j x(t0)]_i + sum_{k=0}^{j-1} [B^(j-1-k) (A^k phi)(t0)]_i,
    which for the shift kind equals the trajectory value x_i(t0 + j).  With
    B = M/D and x(t0), phi(t0 + k) cleared together to X/S, P_k/S, column j
    is (M^j X + sum_k D^(k+1) M^(j-1-k) P_k) / (D^j S) over ints; each power
    M^j is computed once.  phi is read up to t0 + n - 2 (`_shift_problem`).
    """
    n, den, m, start = _shift_problem(b, phi, x0, b.n - 2)
    forms = [entry.int_form() for entry in phi.entries]
    phi_at_t0 = ([Fraction(ints[k], d) for d, ints in forms] for k in range(n - 1))
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

    With B = M/D, row i of the scalars is [D e_i | -(row i of M)] over D,
    applied to the elements (A(x), x).
    """
    n = b.n
    conform(n, x, "solution column")
    den, m = b.int_form()
    scalar_rows = [[den * (i == j) for j in range(n)] + [-c for c in row] for i, row in enumerate(m)]
    return ElementColumn(lincomb((den, scalar_rows), (*apply_vector(kind, x), *x)))


def verify_total_reduction(
    b: Matrix, x: ElementColumn, phi: ElementColumn, kind: OperatorKind
) -> VerificationReport:
    """Check that each component of x satisfies its reduced scalar equation.

    Runs both reduction routes, records whether their coefficients agree
    exactly, and evaluates the per-variable residuals against the
    adjugate-route right-hand side, the only one evaluated.
    """
    candidate, free = conform(b.n, x, "candidate column")[0], phi[0]
    if type(candidate) is not type(free) or candidate.origin != free.origin:
        raise HeterogeneousColumnError("candidate and free columns must share a variant and an origin")
    reduced = total_reduce_adjugate(b, phi, kind)
    agreement = reduced == total_reduce_minors(b, phi, kind)
    residuals = tuple(
        eval_scalar_equation(reduced.cp, kind, xi, psi) for xi, psi in zip(x, reduced.rhs_evaluated)
    )
    return VerificationReport(reduced=reduced, route_agreement=agreement, residuals=residuals)


def solve_cauchy(
    b: Matrix, phi: ElementColumn, x0, horizon: int
) -> tuple[ElementColumn, VerificationReport, tuple[tuple[Fraction, ...], ...]]:
    """Trajectories from x(t0) = x0, reduction verification, and derived initial conditions.

    t0 is phi's origin, and the trajectories cover t0 .. t0 + horizon.
    Returns (trajectories, verification, derived) where derived[i-1][j-1]
    is the initial value of the j-th operator power of variable i.  The
    residuals of the reduced scalar equations are comparable on
    t0 .. t0 + horizon - n, so the horizon must exceed n (`HorizonError`).
    """
    if horizon < b.n + 1:
        raise HorizonError(f"horizon must be >= n + 1 = {b.n + 1}, got {horizon}")
    trajectories = iterate_difference(b, phi, x0, horizon)
    verification = verify_total_reduction(b, trajectories, phi, OperatorKind.SHIFT)
    return trajectories, verification, derived_initial_conditions(b, phi, x0)
