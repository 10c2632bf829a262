from fractions import Fraction
from math import gcd

import pytest

from conftest import random_column, random_matrix, random_sequence_column
from opreduce.cauchy import (
    CauchyProblem,
    derived_initial_conditions,
    iterate_difference,
    manufacture_solution,
    solve_cauchy,
    verify_total_reduction,
)
from opreduce.exactcore import Matrix, identity, mat_vec, zeros
from opreduce.operators import (
    ElementColumn,
    FiniteSequence,
    HeterogeneousColumnError,
    HorizonError,
    OperatorKind,
    Polynomial,
    apply_vector,
)

SHIFT = OperatorKind.SHIFT
DERIV = OperatorKind.DERIVATIVE


def zero_phi(n, horizon, origin=0):
    return ElementColumn(FiniteSequence(origin, [0] * horizon) for _ in range(n))


def fraction_recurrence(b, phi, x0, steps):
    """x(t+1) = B x(t) + phi(t) on plain Fractions, one step at a time; trajectories per variable."""
    states = [tuple(Fraction(v) for v in x0)]
    for t in range(steps):
        x = states[-1]
        states.append(
            tuple(
                sum((a * c for a, c in zip(row, x)), Fraction(0)) + phi[i].values[t]
                for i, row in enumerate(b.rows())
            )
        )
    return [tuple(state[i] for state in states) for i in range(b.n)]


def assert_canonical(traj):
    for seq in traj:
        for v in seq.values:
            assert type(v) is Fraction
            assert v.denominator > 0 and gcd(v.numerator, v.denominator) == 1


def assert_matches_fraction_recurrence(b, phi, x0, steps):
    traj = iterate_difference(b, phi, x0, steps)
    assert [seq.values for seq in traj] == fraction_recurrence(b, phi, x0, steps)
    assert all(seq.origin == phi[0].origin for seq in traj)
    assert_canonical(traj)


class TestIterateDifference:
    def test_random_mixed_denominators(self, rng):
        for n in range(1, 7):
            for steps in (0, 1, rng.randint(2, 40), 40):
                b = random_matrix(rng, n)
                horizon = max(steps, 1) + rng.randint(0, 2)
                phi = random_sequence_column(rng, n, horizon, origin=rng.randint(-3, 3))
                assert_matches_fraction_recurrence(b, phi, random_column(rng, n), steps)

    def test_zero_identity_and_zero_start(self, rng):
        for n in (1, 3, 6):
            phi = random_sequence_column(rng, n, horizon=12)
            for b in (zeros(n), identity(n), random_matrix(rng, n)):
                assert_matches_fraction_recurrence(b, phi, random_column(rng, n), 12)
                assert_matches_fraction_recurrence(b, phi, (0,) * n, 12)
            assert_matches_fraction_recurrence(random_matrix(rng, n), zero_phi(n, 12), (0,) * n, 12)

    def test_cancelling_values_are_reduced(self):
        # x = 1/2 is a fixed point of x -> 2x - 1/2: every step's common factor must cancel
        b = Matrix([[2, 0], [0, 2]])
        phi = ElementColumn(FiniteSequence(0, ["-1/2"] * 30) for _ in range(2))
        traj = iterate_difference(b, phi, ("1/2", "1/2"), 30)
        assert traj[0].values == traj[1].values == (Fraction(1, 2),) * 31
        assert_canonical(traj)
        assert_matches_fraction_recurrence(b, phi, ("1/2", 3), 30)

    def test_zero_matrix_zero_phi_is_constant_after_first_step(self):
        traj = iterate_difference(zeros(2), zero_phi(2, 6), (3, -1), 4)
        assert traj[0].values == (3, 0, 0, 0, 0)
        assert traj[1].values == (-1, 0, 0, 0, 0)

    def test_identity_fixed_point(self):
        traj = iterate_difference(identity(2), zero_phi(2, 6), (3, -1), 4)
        assert traj[0].values == (3, 3, 3, 3, 3)
        assert traj[1].values == (-1, -1, -1, -1, -1)

    def test_hand_iteration(self):
        traj = iterate_difference(Matrix([[1, 2], [3, 4]]), zero_phi(2, 6), (1, 0), 2)
        assert traj[0].values == (1, 1, 7)
        assert traj[1].values == (0, 3, 15)

    def test_respects_origin_and_phi(self):
        phi = ElementColumn([FiniteSequence(5, [1, 2, 3]), FiniteSequence(5, [0, 0, 0])])
        traj = iterate_difference(identity(2), phi, (0, 0), 3)
        assert traj[0] == FiniteSequence(5, [0, 1, 3, 6])
        assert traj[1] == FiniteSequence(5, [0, 0, 0, 0])

    def test_horizon_shortfall(self):
        with pytest.raises(HorizonError):
            iterate_difference(identity(2), zero_phi(2, 3), (0, 0), 4)


class TestDerivedInitialConditions:
    def test_first_power_homogeneous(self, rng):
        b = random_matrix(rng, 3)
        x0 = random_column(rng, 3)
        phi = zero_phi(3, 5)
        derived = derived_initial_conditions(b, phi, x0)
        for i in range(1, 4):
            assert derived[i - 1][0] == mat_vec(b, x0)[i - 1]

    def test_fixture_value(self):
        b = Matrix([[1, 2], [3, 4]])
        assert derived_initial_conditions(b, zero_phi(2, 4), (1, 0))[0][0] == 1

    def test_matches_direct_iteration(self, rng):
        for n in (2, 3, 4, 5):
            for _ in range(5):
                b = random_matrix(rng, n)
                x0 = random_column(rng, n)
                phi = random_sequence_column(rng, n, horizon=n + 4)
                traj = iterate_difference(b, phi, x0, n + 2)
                derived = derived_initial_conditions(b, phi, x0)
                assert len(derived) == n
                for i in range(1, n + 1):
                    assert len(derived[i - 1]) == n - 1
                    for j in range(1, n):
                        assert derived[i - 1][j - 1] == traj[i - 1].value_at(j)

    def test_range_validation(self, rng):
        b = random_matrix(rng, 3)
        x0 = random_column(rng, 3)
        with pytest.raises(HorizonError):
            derived_initial_conditions(b, ElementColumn([FiniteSequence(0, [1])] * 3), x0)


class TestManufactureSolution:
    def test_homogeneous_solution_gives_zero_phi(self):
        b = Matrix([[1, 2], [3, 4]])
        traj = iterate_difference(b, zero_phi(2, 8), (1, 0), 6)
        phi = manufacture_solution(b, traj, SHIFT)
        assert all(entry.is_zero() for entry in phi)

    def test_zero_matrix_gives_operator_image(self, rng):
        x = random_sequence_column(rng, 2, horizon=5)
        phi = manufacture_solution(zeros(2), x, SHIFT)
        assert phi == apply_vector(SHIFT, x)

    def test_polynomial_example(self):
        x = ElementColumn([Polynomial([0, 1]), Polynomial([0, 0, 1])])  # (t, t^2)
        phi = manufacture_solution(identity(2), x, DERIV)
        assert phi == ElementColumn([Polynomial([1, -1]), Polynomial([0, 2, -1])])

    def test_column_longer_than_n_rejected(self, rng):
        # without the check, pairing rows of B with A(x) would drop x_3 silently
        x = random_sequence_column(rng, 3, horizon=5)
        with pytest.raises(HeterogeneousColumnError):
            manufacture_solution(identity(2), x, SHIFT)


class TestVerifyTotalReduction:
    def test_manufactured_passes(self, rng):
        b = random_matrix(rng, 3)
        x = random_sequence_column(rng, 3, horizon=9)
        phi = manufacture_solution(b, x, SHIFT)
        report = verify_total_reduction(b, x, phi, SHIFT)
        assert report.route_agreement
        assert report.all_zero()
        assert [r.variable for r in report.residuals] == [1, 2, 3]

    def test_single_perturbation_is_caught_anywhere(self, rng):
        n = 2
        horizon = 7
        b = random_matrix(rng, n)
        x = random_sequence_column(rng, n, horizon=horizon)
        phi = manufacture_solution(b, x, SHIFT)
        for var in range(n):
            for pos in range(horizon):
                bumped_values = list(x[var].values)
                bumped_values[pos] += 1
                entries = list(x.entries)
                entries[var] = FiniteSequence(x[var].origin, bumped_values)
                report = verify_total_reduction(b, ElementColumn(entries), phi, SHIFT)
                assert not report.all_zero(), f"perturbation at var {var} pos {pos} missed"

    def test_first_order_residual(self):
        b = Matrix([["2"]])
        x = ElementColumn([FiniteSequence(0, [1, 2, 4, 8])])
        phi = ElementColumn([FiniteSequence(0, [0, 0, 0, 0])])
        report = verify_total_reduction(b, x, phi, SHIFT)
        # A(x) - 2x - 0 = 0 for the geometric sequence
        assert report.all_zero()
        assert report.residuals[0].window == (0, 3)

    def test_variant_mismatch_rejected(self, rng):
        b = random_matrix(rng, 2)
        x = random_sequence_column(rng, 2, horizon=5)
        phi = ElementColumn([Polynomial([1]), Polynomial([2])])
        with pytest.raises(ValueError):
            verify_total_reduction(b, x, phi, SHIFT)


class TestSolveCauchy:
    def test_window_and_agreement(self, rng):
        for n in (2, 3):
            b = random_matrix(rng, n)
            phi = random_sequence_column(rng, n, horizon=n + 6, origin=2)
            x0 = random_column(rng, n)
            problem = CauchyProblem(b=b, phi=phi, t0=2, x0=x0, horizon=n + 5)
            trajectories, verification, derived = solve_cauchy(problem)
            assert trajectories[0].horizon == n + 6
            assert verification.all_zero()
            # residuals comparable exactly on [t0, t0 + horizon - n]
            for residual in verification.residuals:
                assert residual.window == (2, problem.horizon - n + 1)
            for i in range(1, n + 1):
                for j in range(1, n):
                    assert derived[i - 1][j - 1] == trajectories[i - 1].value_at(2 + j)

    def test_problem_validation(self, rng):
        b = random_matrix(rng, 2)
        phi = random_sequence_column(rng, 2, horizon=8)
        with pytest.raises(ValueError):
            CauchyProblem(b=b, phi=phi, t0=0, x0=(Fraction(1),), horizon=5)
        with pytest.raises(ValueError):
            CauchyProblem(b=b, phi=phi, t0=0, x0=(Fraction(1), Fraction(0)), horizon=2)
        with pytest.raises(ValueError):
            CauchyProblem(b=b, phi=phi, t0=1, x0=(Fraction(1), Fraction(0)), horizon=5)
        with pytest.raises(HorizonError):
            CauchyProblem(b=b, phi=phi, t0=0, x0=(Fraction(1), Fraction(0)), horizon=9)

    def test_polynomial_phi_rejected(self, rng):
        b = random_matrix(rng, 2)
        phi = ElementColumn([Polynomial([1]), Polynomial([2])])
        with pytest.raises(ValueError):
            CauchyProblem(b=b, phi=phi, t0=0, x0=(Fraction(1), Fraction(0)), horizon=5)
