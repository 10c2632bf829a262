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

from .exactcore import Matrix, _born_fraction, as_column, clear_denominators, conform, matmul_int
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


def _smooth_gcd(a: int, s: int, r: int) -> int:
    """gcd(a, s) for s > 0 whose every prime factor divides r.

    c = gcd(a, r, s) holds each prime of the gcd at least once, and each
    round c <- gcd(a, c^2, s) doubles every exponent that is still short, so
    this stops after at most log2(max exponent) + 1 rounds.  It beats a full
    gcd of a and s, a Lehmer gcd of two numbers as long as s, when r is short
    (the denominators share a few small primes) and the gcd is short, so
    that c^2 stays short too; a long r makes the first gcd a long one.
    """
    if not a:
        return s
    c = gcd(a, r, s)
    while c > 1:
        wider = gcd(a, c * c, s)
        if wider == c:
            break
        c = wider
    return c


def iterate_difference(b: Matrix, phi: ElementColumn, x0, steps: int) -> ElementColumn:
    """Iterate x(t+1) = B x(t) + phi(t) exactly from x(t0) = x0.

    Returns the n trajectories as sequences over t0 .. t0 + steps, reading
    phi up to t0 + steps - 1 (`_shift_problem`).  With B = M/D and the state
    x(t) = X/S (X ints, S > 0), step t reads phi(t) over its own denominator:
    entry i is a_i/D_i in its integer form, reduced by gcd(a_i, D_i), and
    q_t is the lcm of the reduced denominators, so phi(t) = P/q_t.  The step
    is X' = q_t (M X) + D S P over S' = D S q_t.

    Each value X'_i / S' is born from the coprime pair its gcd leaves
    (`_born_fraction`), and the state is reduced by the gcd of those gcds.
    Every prime of S' divides the prime bound r = lcm(S(t0) D, q_t0, ..., q_t).
    r stays short only while the denominators of B, x0 and phi share a few
    small primes; wide denominators add their new primes to r at every
    step, and there the step denominators, not the squaring rounds, save
    the most.  A value whose last denominator took at least 3/4 of S's bits
    is expected to have a short gcd, which comes from `_smooth_gcd` over r.
    A shorter last denominator (an integer variable, or a block of B with
    denominators of its own) predicts a long gcd; Euclid's algorithm ends
    early on it, where the squaring rounds would grow to the size of S, so
    it takes `math.gcd`.  The 3/4 is measured, not derived: thresholds from
    3/4 to 7/8 keep both kinds of input fast, 5/8 and below send a block's
    long gcds to the squaring rounds, and 1 sends every value to Euclid; a
    block whose own denominators take over 3/4 of S's bits still meets the
    squaring rounds.
    Each trajectory is born with its integer form over L, the lcm of the
    S(t): value t is X(t) (L / S(t)) over L.
    """
    if steps < 0:
        raise ValueError("steps must be >= 0")
    n, den, m, start = _shift_problem(b, phi, x0, steps - 1)
    t0 = phi.entries[0].origin
    scale, (x,) = clear_denominators([start])
    forms = [entry.int_form() for entry in phi.entries]
    bound = lcm(scale, den)
    states, values = [(x, scale)], [start]
    for t in range(steps):
        p, dens = [], []
        for d, ints in forms:
            g = gcd(ints[t], d)
            p.append(ints[t] // g)
            dens.append(d // g)
        q = lcm(*dens)
        bound = lcm(bound, q)
        ds = den * scale
        long_bits = scale.bit_length() * 3 // 4
        scale = ds * q
        x_next, now, g = [], [], 0
        for row, c, e, last in zip(m, p, dens, values[-1]):
            a = q * sum(map(mul, row, x)) + ds * (c * (q // e))
            h = _smooth_gcd(a, scale, bound) if last.denominator.bit_length() >= long_bits else gcd(a, scale)
            x_next.append(a)
            now.append(_born_fraction(a // h, scale // h))
            g = gcd(g, h)
        x = x_next
        if g > 1:
            x = [a // g for a in x]
            scale //= g
        states.append((x, scale))
        values.append(tuple(now))
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


def reduce_checked(b: Matrix, phi: ElementColumn, kind: OperatorKind) -> tuple[ReducedSystem, bool]:
    """The production reduction, and whether the minor route's coefficients equal its own.

    The one route comparison of `reduce`, `verify` and `solve`; it evaluates no right-hand side.
    """
    reduced = total_reduce_adjugate(b, phi, kind)
    return reduced, reduced == total_reduce_minors(b, phi, kind)


def verify_total_reduction(
    b: Matrix, x: ElementColumn, phi: ElementColumn, kind: OperatorKind
) -> VerificationReport:
    """Check that each component of x satisfies its reduced scalar equation.

    Takes the reduction and its route agreement from `reduce_checked`, and evaluates
    the per-variable residuals against its right-hand side, the only one evaluated.
    """
    candidate, free = conform(b.n, x, "candidate column")[0], phi[0]
    if type(candidate) is not type(free) or candidate.origin != free.origin:
        raise HeterogeneousColumnError("candidate and free columns must share a variant and an origin")
    reduced, agreement = reduce_checked(b, phi, kind)
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
