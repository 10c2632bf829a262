from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LARGE_PRIMES,
    matmul,
    patch_everywhere,
    random_column,
    random_matrix,
    random_polynomial_column,
    random_sequence_column,
    zero_matrix,
)
from opreduce.cauchy import (
    CauchyProblem,
    derived_initial_conditions,
    iterate_difference,
    manufacture_solution,
    solve_cauchy,
    verify_total_reduction,
)
from opreduce.exactcore import Matrix, identity, mat_vec
from opreduce.operators import (
    ElementColumn,
    FiniteSequence,
    HeterogeneousColumnError,
    HorizonError,
    OperatorKind,
    Polynomial,
    apply_vector,
    eval_scalar_equation,
    lincomb,
)
from opreduce.specio import residual_to_json

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


def explicit_formula(b, phi, x0):
    """Column j is B^j x0 + sum_{k<j} B^(j-1-k) phi(t0+k), over Fractions with the reference product."""
    n = b.n
    powers = [identity(n)]
    for _ in range(n - 1):
        powers.append(matmul(powers[-1], b))
    columns = []
    for j in range(1, n):
        total = mat_vec(powers[j], x0)
        for k in range(j):
            term = mat_vec(powers[j - 1 - k], [entry.values[k] for entry in phi])
            total = tuple(a + c for a, c in zip(total, term))
        columns.append(total)
    return tuple(tuple(column[i] for column in columns) for i in range(n))


scalars = st.one_of(
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 20)),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from(LARGE_PRIMES)),
)


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
            for b in (zero_matrix(n), identity(n), random_matrix(rng, n)):
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
        traj = iterate_difference(zero_matrix(2), zero_phi(2, 6), (3, -1), 4)
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

    def test_rejects_columns_of_the_wrong_length(self, rng):
        # the products would otherwise stop at the shorter input and return a truncated answer
        for n in (1, 2, 4):
            b = random_matrix(rng, n)
            phi = random_sequence_column(rng, n, horizon=n + 2)
            for x0 in (random_column(rng, n + 2), random_column(rng, n + 1), random_column(rng, n - 1)):
                with pytest.raises(ValueError, match="initial column"):
                    derived_initial_conditions(b, phi, x0)
            for width in {n + 1, n - 1 or n + 2}:
                wrong = random_sequence_column(rng, width, horizon=n + 2)
                with pytest.raises(ValueError, match="free column"):
                    derived_initial_conditions(b, wrong, random_column(rng, n))
        with pytest.raises(ValueError):
            derived_initial_conditions(Matrix([[2]]), zero_phi(1, 3), (1, 2, 3))

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_the_explicit_formula(self, data):
        n = data.draw(st.integers(1, 5), label="n")
        column = st.lists(scalars, min_size=n, max_size=n)
        if data.draw(st.booleans(), label="zero matrix"):
            b = zero_matrix(n)
        else:
            b = Matrix(data.draw(st.lists(column, min_size=n, max_size=n), label="B"))
        x0 = tuple(data.draw(column, label="x0"))
        horizon = data.draw(st.integers(n, n + 2), label="horizon")
        values = st.lists(scalars, min_size=horizon, max_size=horizon)
        phi = ElementColumn(FiniteSequence(0, data.draw(values, label="phi values")) for _ in range(n))
        assert derived_initial_conditions(b, phi, x0) == explicit_formula(b, phi, x0)

    def test_explicit_formula_edge_cases(self):
        large = Matrix([[Fraction(r - c, p) for c, p in enumerate(LARGE_PRIMES[r : r + 4])] for r in range(4)])
        x0 = tuple(Fraction(1, p) for p in LARGE_PRIMES[:4])
        phi = ElementColumn(
            FiniteSequence(0, [Fraction(k + i, p) for k, p in enumerate(LARGE_PRIMES)]) for i in range(4)
        )
        for b in (large, zero_matrix(4)):
            assert derived_initial_conditions(b, phi, x0) == explicit_formula(b, phi, x0)
        assert derived_initial_conditions(Matrix([["7/3"]]), zero_phi(1, 1), ("1/7919",)) == ((),)
        assert derived_initial_conditions(zero_matrix(2), zero_phi(2, 2), (3, 5)) == ((0,), (0,))


class TestManufactureSolution:
    def test_homogeneous_solution_gives_zero_phi(self):
        b = Matrix([[1, 2], [3, 4]])
        traj = iterate_difference(b, zero_phi(2, 8), (1, 0), 6)
        phi = manufacture_solution(b, traj, SHIFT)
        assert all(entry.is_zero() for entry in phi)

    def test_zero_matrix_gives_operator_image(self, rng):
        x = random_sequence_column(rng, 2, horizon=5)
        phi = manufacture_solution(zero_matrix(2), x, SHIFT)
        assert phi == apply_vector(SHIFT, x)

    def test_polynomial_example(self):
        x = ElementColumn([Polynomial([0, 1]), Polynomial([0, 0, 1])])  # (t, t^2)
        phi = manufacture_solution(identity(2), x, DERIV)
        assert phi == ElementColumn([Polynomial([1, -1]), Polynomial([0, 2, -1])])

    @pytest.mark.parametrize("kind", [SHIFT, DERIV])
    def test_one_combination_for_all_rows(self, kind, rng, monkeypatch):
        calls = []
        original = lincomb

        def counting_lincomb(scalar_rows, elements):
            calls.append((len(scalar_rows), len(elements)))
            return original(scalar_rows, elements)

        patch_everywhere(monkeypatch, original, counting_lincomb)
        n = 3
        if kind is SHIFT:
            x = random_sequence_column(rng, n, horizon=5)
        else:
            x = random_polynomial_column(rng, n, max_degree=4)
        b = random_matrix(rng, n)
        phi = manufacture_solution(b, x, kind)
        assert calls == [(n, 2 * n)]
        ax = apply_vector(kind, x)
        for i, row in enumerate(b.rows()):
            expected = ax[i]
            for c, e in zip(row, x):
                expected = expected - c * e
            assert phi[i] == expected

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
        # residual i belongs to variable i: check it on a candidate that is not a solution
        other = random_sequence_column(rng, 3, horizon=9)
        report = verify_total_reduction(b, other, phi, SHIFT)
        reduced = report.reduced
        assert report.residuals == tuple(
            eval_scalar_equation(reduced.cp, SHIFT, other[i], reduced.rhs_evaluated[i]) for i in range(3)
        )
        assert len(set(report.residuals)) == 3

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
        (residual,) = report.residuals
        assert (residual.origin, residual.horizon) == (0, 3)
        assert residual_to_json(1, residual)["window"] == {"origin": 0, "length": 3}

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
            length = problem.horizon - n + 1
            for i, residual in enumerate(verification.residuals, start=1):
                assert (residual.origin, residual.horizon) == (2, length)
                assert residual_to_json(i, residual)["window"] == {"origin": 2, "length": length}
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
