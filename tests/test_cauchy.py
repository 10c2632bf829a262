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
    random_rational,
    random_sequence_column,
    zero_matrix,
)
from opreduce import cauchy as cauchy_module
from opreduce import operators as operators_module
from opreduce.cauchy import (
    _smooth_gcd,
    derived_initial_conditions,
    iterate_difference,
    manufacture_solution,
    solve_cauchy,
    verify_total_reduction,
)
from opreduce.exactcore import DimensionError, Matrix, clear_denominators, identity, mat_vec
from opreduce.operators import (
    ElementColumn,
    FiniteSequence,
    HeterogeneousColumnError,
    HorizonError,
    OperatorKind,
    Polynomial,
    apply,
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


def zero_variable_beside_growing_ones(rng):
    """Variable 0 has a zero row and column in B, a zero phi entry and a zero start."""
    n, horizon = 3, 200
    b = Matrix([[0] * n] + [[0, *random_column(rng, n - 1)] for _ in range(n - 1)])
    phi = ElementColumn([FiniteSequence(0, [0] * horizon), *random_sequence_column(rng, n - 1, horizon)])
    return b, phi, (0, *random_column(rng, n - 1)), horizon


def integer_variable_beside_fractional_ones(rng):
    """Variable 0 depends only on itself, through an integer, with integer phi and start."""
    n, horizon = 3, 60
    b = Matrix([[rng.choice([-3, -2, 2, 3]), 0, 0]] + [random_column(rng, n) for _ in range(n - 1)])
    integers = FiniteSequence(0, [rng.randint(-9, 9) for _ in range(horizon)])
    phi = ElementColumn([integers, *random_sequence_column(rng, n - 1, horizon)])
    return b, phi, (rng.randint(-9, 9), *random_column(rng, n - 1)), horizon


def ten_digit_entries(rng):
    n, horizon, bound = 4, 30, 10**10
    b = random_matrix(rng, n, bound)
    return b, random_sequence_column(rng, n, horizon, bound=bound), random_column(rng, n, bound), horizon


def prime_only_in_the_last_phi_step(rng):
    """phi_0's last value alone has the prime 1000003 as its denominator.

    x_1 carries most of S and takes no share of that prime, so the last
    step's gcd for x_1 holds 1000003, which only that step's q_t brings to
    the prime bound.
    """
    horizon = 12
    b = Matrix([[1, 0], [0, "1/3"]])
    first = FiniteSequence(0, [*(rng.randint(-9, 9) for _ in range(horizon - 1)), "1/1000003"])
    phi = ElementColumn([first, FiniteSequence(0, [random_rational(rng) for _ in range(horizon)])])
    return b, phi, (1, "1/3"), horizon


STRUCTURED_INPUTS = {
    f.__name__: f
    for f in (
        zero_variable_beside_growing_ones,
        integer_variable_beside_fractional_ones,
        ten_digit_entries,
        prime_only_in_the_last_phi_step,
    )
}


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

    @pytest.mark.parametrize("case", sorted(STRUCTURED_INPUTS))
    def test_structured_inputs(self, rng, case):
        assert_matches_fraction_recurrence(*STRUCTURED_INPUTS[case](rng))

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


class TestSmoothGcd:
    def test_equals_math_gcd(self):
        s = 2**600 * 3**300 * 5
        for k in (0, 1, 2, 299, 600, 601, 1500):
            for m in (1, 7, 3**150, 3**301 * 11, 5 * 3**299):
                for a in (m << k, -(m << k)):
                    assert _smooth_gcd(a, s, 30) == gcd(a, s)
        assert _smooth_gcd(0, s, 30) == s

    def test_squaring_rounds(self, monkeypatch):
        calls = []

        def counting_gcd(*args):
            calls.append(args)
            return gcd(*args)

        monkeypatch.setattr(cauchy_module, "gcd", counting_gcd)
        s = 2**1024
        assert _smooth_gcd(s, s, 2) == s
        # exponent 1, 2, 4, ..., 1024, and one round that finds no more; one factor at a time takes 1024
        assert len(calls) <= 2 * 10 + 3


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

    def test_horizon_n_minus_1_is_enough(self, rng):
        # power j reads phi(t0 + k) for k < j <= n - 1 only
        b = Matrix([[1, 2], [3, 4]])
        phi = ElementColumn([FiniteSequence(0, [5]), FiniteSequence(0, [7])])
        assert derived_initial_conditions(b, phi, (1, 1)) == ((8,), (14,))
        with pytest.raises(HorizonError):
            derived_initial_conditions(random_matrix(rng, 4), random_sequence_column(rng, 4, 2), random_column(rng, 4))

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
        horizon = data.draw(st.integers(max(n - 1, 1), n + 2), label="horizon")
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

    def test_reads_the_integer_forms_of_a_combined_phi(self, rng, monkeypatch):
        # a manufactured phi is a lincomb output, whose values are built only when read;
        # the first n - 1 of them come from its integer form, so no operator value is built
        b = random_matrix(rng, 3)
        x = random_sequence_column(rng, 3, horizon=201)
        phi = manufacture_solution(b, x, SHIFT)
        made = []

        def counting(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(operators_module, "Fraction", counting)
        derived = derived_initial_conditions(b, phi, [e.values[0] for e in x])
        assert made == []
        assert phi[0].horizon == 200
        # x solves the system from x(t0), so power j of variable i starts at x_i(t0 + j)
        assert derived == tuple(e.values[1:3] for e in x)


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

        def counting_lincomb(scalars, elements):
            _, scalar_rows = scalars
            calls.append((len(scalar_rows), len(elements)))
            return original(scalars, elements)

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
        with pytest.raises(DimensionError, match="solution column has 3 entries, expected 2"):
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

    def test_trajectory_is_cleared_once_not_once_per_shifted_copy(self, rng, monkeypatch):
        # matrix rows have length n and scalar rows n^2 or n + 2: a longer row holds element values
        n = 3
        b = random_matrix(rng, n)
        phi = random_sequence_column(rng, n, horizon=40)
        x = iterate_difference(b, phi, random_column(rng, n), 40)
        value_rows = []

        def recording_clear(rows):
            value_rows.extend(len(row) for row in rows if len(row) > n * n)
            return clear_denominators(rows)

        patch_everywhere(monkeypatch, clear_denominators, recording_clear)
        report = verify_total_reduction(b, x, phi, SHIFT)
        assert report.all_zero()
        # at most one clearing per phi entry; the trajectories and their shifts were born cleared
        assert len(value_rows) <= n

    def test_variant_mismatch_rejected(self, rng):
        b = random_matrix(rng, 2)
        x = random_sequence_column(rng, 2, horizon=5)
        phi = ElementColumn([Polynomial([1]), Polynomial([2])])
        with pytest.raises(ValueError):
            verify_total_reduction(b, x, phi, SHIFT)
        # a candidate at another origin is named as such, not found deep inside a combination
        phi = manufacture_solution(b, x, SHIFT)
        moved = ElementColumn(FiniteSequence(1, entry.values) for entry in x)
        with pytest.raises(HeterogeneousColumnError, match="must share a variant and an origin"):
            verify_total_reduction(b, moved, phi, SHIFT)


class TestSolveCauchy:
    def test_window_and_agreement(self, rng):
        for n in (2, 3):
            b = random_matrix(rng, n)
            phi = random_sequence_column(rng, n, horizon=n + 6, origin=2)
            x0 = random_column(rng, n)
            horizon = n + 5
            trajectories, verification, derived = solve_cauchy(b, phi, x0, horizon)
            assert trajectories[0].horizon == n + 6
            assert verification.all_zero()
            # residuals comparable exactly on [t0, t0 + horizon - n]
            length = horizon - n + 1
            for i, residual in enumerate(verification.residuals, start=1):
                assert (residual.origin, residual.horizon) == (2, length)
                assert residual_to_json(i, residual)["window"] == {"origin": 2, "length": length}
            for i in range(1, n + 1):
                for j in range(1, n):
                    assert derived[i - 1][j - 1] == trajectories[i - 1].value_at(2 + j)

    def test_problem_validation(self, rng):
        b = random_matrix(rng, 2)
        phi = random_sequence_column(rng, 2, horizon=8)
        with pytest.raises(ValueError, match="initial column has 1 entries"):
            solve_cauchy(b, phi, (Fraction(1),), 5)
        with pytest.raises(HorizonError) as short:
            solve_cauchy(b, phi, (Fraction(1), Fraction(0)), 2)
        assert str(short.value) == "horizon must be >= n + 1 = 3, got 2"
        with pytest.raises(HorizonError) as past:
            solve_cauchy(b, phi, (Fraction(1), Fraction(0)), 9)
        assert str(past.value) == "shift^8 needs horizon > 8, got 8"

    def test_polynomial_phi_rejected(self, rng):
        b = random_matrix(rng, 2)
        phi = ElementColumn([Polynomial([1]), Polynomial([2])])
        with pytest.raises(TypeError) as excinfo:
            solve_cauchy(b, phi, (Fraction(1), Fraction(0)), 5)
        assert str(excinfo.value) == "shift operator acts on sequences"


# every shortfall of the shift problem is a HorizonError; all but solve_cauchy's own
# rule (horizon > n) are check_acts_on's, naming the last shift of phi that is read
SHIFT_SHORTFALLS = {
    "solve_cauchy at horizon n": (
        lambda: solve_cauchy(zero_matrix(3), zero_phi(3, 8), (0, 0, 0), 3),
        "horizon must be >= n + 1 = 4, got 3",
    ),
    "iterate_difference one step past phi": (
        lambda: iterate_difference(identity(2), zero_phi(2, 3), (0, 0), 4),
        "shift^3 needs horizon > 3, got 3",
    ),
    "derived_initial_conditions with phi of horizon n - 2": (
        lambda: derived_initial_conditions(identity(4), zero_phi(4, 2), (0, 0, 0, 0)),
        "shift^2 needs horizon > 2, got 2",
    ),
    "shift of a horizon-1 sequence": (
        lambda: apply(SHIFT, FiniteSequence(0, [1])),
        "shift^1 needs horizon > 1, got 1",
    ),
}


@pytest.mark.parametrize("case", sorted(SHIFT_SHORTFALLS))
def test_every_shift_shortfall_is_a_horizon_error(case):
    call, message = SHIFT_SHORTFALLS[case]
    with pytest.raises(HorizonError) as excinfo:
        call()
    assert str(excinfo.value) == message
