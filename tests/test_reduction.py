import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    DATA_DIR,
    LARGE_PRIMES,
    random_matrix,
    random_nonsingular_matrix,
    random_polynomial_column,
    random_rational,
    random_sequence_column,
    serialized_terms,
)
from opreduce import reduction
from opreduce.cauchy import manufacture_solution, reduce_checked, verify_total_reduction
from opreduce.exactcore import DimensionError, Matrix, identity, mat_vec, parse_rational
from opreduce.faddeev import (
    AdjugateCoeffs,
    CharPoly,
    adjugate_coeffs,
    adjugate_coeffs_minors,
    cayley_hamilton_check,
)
from opreduce.minors import delta_k_i
from opreduce.specio import load_spec, reduced_to_json
from opreduce.operators import (
    ElementColumn,
    FiniteSequence,
    HorizonError,
    OperatorKind,
    Polynomial,
    apply,
    apply_vector,
)
from opreduce.reduction import (
    ReducedSystem,
    SingularMatrixError,
    cramer_solve,
    cramer_via_zero_reduction,
    lemma1_check,
    lemma2_check,
    total_reduce_adjugate,
    total_reduce_minors,
)

SHIFT = OperatorKind.SHIFT
DERIV = OperatorKind.DERIVATIVE
ZERO = OperatorKind.ZERO


def column_power(kind, col, j):
    """A^j applied to col entry by entry, one `apply` at a time, independent of `_operator_powers`."""
    entries = []
    for e in col:
        for _ in range(j):
            e = apply(kind, e)
        entries.append(e)
    return ElementColumn(entries)


def phi_column(kind, rng, n):
    if kind is SHIFT:
        return random_sequence_column(rng, n, horizon=n + 3)
    return random_polynomial_column(rng, n, max_degree=4)


class TestTwoByTwoExpansion:
    def test_term_structure_matches_framed_minors(self, rng):
        # for any 2x2 system the right-hand sides expand to
        #   A(phi_1) - b22 phi_1 + b12 phi_2
        #   A(phi_2) + b21 phi_1 - b11 phi_2
        for _ in range(10):
            b11, b12, b21, b22 = (random_rational(rng) for _ in range(4))
            b = Matrix([[b11, b12], [b21, b22]])
            phi = random_sequence_column(rng, 2, horizon=5)
            reduced = total_reduce_minors(b, phi, SHIFT)

            (t11, t12), (t21, t22) = serialized_terms(reduced)
            assert t11 == (1, 1, 1, (1, 0))
            assert t12 == (2, -1, 0, (b22, -b12))
            assert t21 == (1, 1, 1, (0, 1))
            assert t22 == (2, -1, 0, (-b21, b11))

            phi1, phi2 = phi.entries
            expected1 = apply(SHIFT, phi1) + (-b22) * phi1 + b12 * phi2
            expected2 = apply(SHIFT, phi2) + b21 * phi1 + (-b11) * phi2
            assert reduced.rhs_evaluated[0] == expected1
            assert reduced.rhs_evaluated[1] == expected2

    def test_fixture_evaluation(self):
        b = Matrix([[1, 2], [3, 4]])
        phi = ElementColumn([FiniteSequence(0, [1, 0, 0, 0]), FiniteSequence(0, [0, 0, 0, 0])])
        reduced = total_reduce_adjugate(b, phi, SHIFT)
        assert reduced.cp.d == (-5, -2)
        assert reduced.rhs_evaluated[0] == FiniteSequence(0, [-4, 0, 0])
        assert reduced.rhs_evaluated[1] == FiniteSequence(0, [3, 0, 0])


class TestFirstOrderIsIdentity:
    def test_reduction_returns_input_equation(self, rng):
        b = Matrix([["5/3"]])
        phi = ElementColumn([Polynomial([1, 2, 3])])
        for route in (total_reduce_adjugate, total_reduce_minors):
            reduced = route(b, phi, DERIV)
            assert reduced.cp.d == (Fraction(-5, 3),)
            assert reduced.rhs_evaluated[0] == phi[0]
            assert serialized_terms(reduced) == [[(1, 1, 0, (1,))]]


class TestThreeByThreeFixture:
    def frozen_fixture(self):
        spec = json.loads((DATA_DIR / "derivative_3x3.json").read_text())
        b = Matrix([[parse_rational(x) for x in row] for row in spec["matrix"]])
        phi = ElementColumn(
            Polynomial([parse_rational(c) for c in entry["coeffs"]]) for entry in spec["phi"]
        )
        return b, phi

    def test_first_variable_value_frozen(self):
        # hand-expanded framed minors for this fixture: psi_1 = 5 t^2 + 7/2 t - 21
        b, phi = self.frozen_fixture()
        reduced = total_reduce_minors(b, phi, DERIV)
        assert reduced.rhs_evaluated[0] == Polynomial([-21, Fraction(7, 2), 5])

    def test_pointwise_scalar_enumeration_oracle(self, rng):
        # evaluating each right-hand side at a point (a rational argument of a
        # polynomial, a time of a sequence) must match the scalar brute-force
        # minor sums of the pointwise-evaluated operator powers; both routes
        # share one evaluation loop, so route agreement cannot check it
        cases = [(*self.frozen_fixture(), DERIV)]
        for kind in (SHIFT, DERIV):
            for n in range(1, 6):
                for _ in range(2):
                    cases.append((random_matrix(rng, n), phi_column(kind, rng, n), kind))
        rational_points = [Fraction(p) for p in (-3, -1, 0, 1, 2)] + [Fraction(1, 2)]

        def value(e, point):
            return e.value_at(point) if isinstance(e, FiniteSequence) else e.evaluate(point)

        for b, phi, kind in cases:
            n = b.n
            powered = {k: column_power(kind, phi, n - k) for k in range(1, n + 1)}
            reductions = [route(b, phi, kind) for route in (total_reduce_adjugate, total_reduce_minors)]
            for i in range(1, n + 1):
                psi = reductions[0].rhs_evaluated[i - 1]
                if kind is SHIFT:
                    assert (psi.origin, psi.horizon) == (phi[0].origin, phi[0].horizon - (n - 1))
                    points = range(psi.origin, psi.origin + psi.horizon)
                else:
                    points = rational_points
                for point in points:
                    expected = Fraction(0)
                    for k in range(1, n + 1):
                        column_values = tuple(value(p, point) for p in powered[k])
                        expected += (-1) ** (k - 1) * delta_k_i(b, k, i, column_values)
                    for reduced in reductions:
                        assert value(reduced.rhs_evaluated[i - 1], point) == expected


class TestRouteEquality:
    @pytest.mark.parametrize("kind", [SHIFT, DERIV, ZERO])
    def test_routes_identical(self, rng, kind):
        for n in range(1, 6):
            for _ in range(4):
                b = random_matrix(rng, n)
                phi = phi_column(kind, rng, n)
                lhs = total_reduce_adjugate(b, phi, kind)
                rhs = total_reduce_minors(b, phi, kind)
                assert lhs.cp == rhs.cp
                assert lhs.ac == rhs.ac
                assert lhs.rhs_evaluated == rhs.rhs_evaluated
                assert lhs == rhs
                assert reduce_checked(b, phi, kind) == (lhs, True)
        fixture = {SHIFT: "shift_2x2.json", DERIV: "derivative_3x3.json", ZERO: "zero_3x3.json"}[kind]
        spec = load_spec(DATA_DIR / fixture)
        assert spec.operator is kind
        assert reduce_checked(spec.matrix, spec.phi, kind) == (total_reduce_adjugate(spec.matrix, spec.phi, kind), True)

    @pytest.mark.parametrize("kind", [SHIFT, DERIV])
    def test_agreement_and_checks_build_no_fraction_rows(self, rng, kind):
        # both routes' coefficient matrices are born from ints, and comparing or checking them reads only that form
        for n in range(1, 6):
            b = random_matrix(rng, n)
            phi = phi_column(kind, rng, n)
            lhs, rhs = total_reduce_adjugate(b, phi, kind), total_reduce_minors(b, phi, kind)
            assert lhs == rhs
            assert all(lemma2_check(lhs.ac, rhs.ac, k) for k in range(n))
            assert all(lemma1_check(b, ac, k) for ac in (lhs.ac, rhs.ac) for k in range(1, n + 1))
            assert cayley_hamilton_check(b, lhs.ac)
            assert all(m._rows is None for m in (*lhs.ac.coeffs, *rhs.ac.coeffs))

    def test_term_counts_and_sign_pattern(self, rng):
        b = random_matrix(rng, 4)
        phi = random_polynomial_column(rng, 4)
        reduced = total_reduce_adjugate(b, phi, DERIV)
        blocks = reduced_to_json(reduced)["rhs"]
        assert [block["variable"] for block in blocks] == [1, 2, 3, 4]
        for block in blocks:
            terms = block["terms"]
            assert len(terms) == 4
            assert [t["sign"] for t in terms] == [1, -1, 1, -1]
            assert [t["order"] for t in terms] == [1, 2, 3, 4]
            assert [t["power"] for t in terms] == [3, 2, 1, 0]

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_serialized_terms_are_signed_adjugate_rows(self, data):
        # term k of variable i reports (-1)^(k-1) times row i of B_{k-1}, applied to A^(n-k) phi
        kind = data.draw(st.sampled_from([SHIFT, DERIV, ZERO]), label="kind")
        n = data.draw(st.integers(1, 4), label="n")
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = random.Random(seed)
        reduced = total_reduce_adjugate(random_matrix(rng, n), phi_column(kind, rng, n), kind)
        for i, terms in enumerate(serialized_terms(reduced)):
            assert [order for order, *_ in terms] == list(range(1, n + 1))
            for order, sign, power, coeffs in terms:
                assert tuple(sign * c for c in coeffs) == reduced.ac.coeffs[order - 1].rows()[i]
                assert power == n - order

    @pytest.mark.parametrize("kind", [SHIFT, DERIV, ZERO])
    def test_agreement_sees_coefficients_the_evaluation_hides(self, rng, kind):
        # with phi_j = 0, column j of every B_k multiplies only zero elements, so a
        # perturbation there leaves the evaluated column alone; equality must still fail
        n, j, k = 3, 1, 1
        b = random_matrix(rng, n)
        entries = list(phi_column(kind, rng, n))
        entries[j] = 0 * entries[j]
        phi = ElementColumn(entries)
        assert phi[j].is_zero()
        reduced = total_reduce_adjugate(b, phi, kind)
        ac = reduced.ac
        rows = [list(row) for row in ac.coeffs[k].rows()]
        rows[0][j] += 1
        coeffs = ac.coeffs[:k] + (Matrix(rows),) + ac.coeffs[k + 1 :]
        perturbed = ReducedSystem(AdjugateCoeffs(coeffs, ac.cp), phi, kind)
        assert perturbed.rhs_evaluated == reduced.rhs_evaluated
        assert perturbed != reduced
        assert reduced_to_json(perturbed) != reduced_to_json(reduced)


class TestOperatorPowers:
    @pytest.mark.parametrize("kind", [SHIFT, DERIV, ZERO])
    def test_each_power_computed_once(self, rng, monkeypatch, kind):
        calls = []

        def counting_apply_vector(*args):
            calls.append(args)
            return apply_vector(*args)

        monkeypatch.setattr(reduction, "apply_vector", counting_apply_vector)
        for n in (1, 4, 6):
            b = random_matrix(rng, n)
            phi = phi_column(kind, rng, n)
            for route in (total_reduce_adjugate, total_reduce_minors):
                calls.clear()
                # the column is evaluated when first read
                route(b, phi, kind).rhs_evaluated
                assert len(calls) <= n
            powers = reduction._operator_powers(kind, phi, n)
            assert powers == [column_power(kind, phi, j) for j in range(n)]


class TestManufacturedSolutions:
    def test_shift(self, rng):
        for n in range(1, 6):
            x = random_sequence_column(rng, n, horizon=n + 6)
            b = random_matrix(rng, n)
            phi = manufacture_solution(b, x, SHIFT)
            report = verify_total_reduction(b, x, phi, SHIFT)
            assert report.route_agreement
            assert report.all_zero()

    def test_derivative(self, rng):
        for n in range(1, 6):
            x = random_polynomial_column(rng, n, max_degree=5)
            b = random_matrix(rng, n)
            phi = manufacture_solution(b, x, DERIV)
            report = verify_total_reduction(b, x, phi, DERIV)
            assert report.all_zero()


class TestValidation:
    def test_horizon_must_exceed_order(self, rng):
        b = random_matrix(rng, 3)
        phi = random_sequence_column(rng, 3, horizon=3)
        with pytest.raises(HorizonError):
            total_reduce_adjugate(b, phi, SHIFT)
        with pytest.raises(HorizonError):
            total_reduce_minors(b, phi, SHIFT)

    def test_column_length_checked(self, rng, monkeypatch):
        # the column's length and the operator's domain are checked on entry, before
        # either route computes a coefficient
        def no_coefficients(b):
            raise AssertionError("coefficients computed for a column the system rejects")

        monkeypatch.setattr(reduction, "adjugate_coeffs", no_coefficients)
        monkeypatch.setattr(reduction, "adjugate_coeffs_minors", no_coefficients)
        b = random_matrix(rng, 3)
        cases = (
            (random_polynomial_column(rng, 2), DERIV, DimensionError, "free column has 2 entries, expected 3"),
            (random_polynomial_column(rng, 3), SHIFT, TypeError, "shift operator acts on sequences"),
            (random_sequence_column(rng, 3, horizon=5), DERIV, TypeError, "derivative operator acts on polynomials"),
        )
        for phi, kind, error, message in cases:
            for route in (total_reduce_adjugate, total_reduce_minors):
                with pytest.raises(error, match=message):
                    route(b, phi, kind)


class TestCramer:
    def test_identity_matrix(self, rng):
        phi = [Fraction(2), Fraction(-3, 7), Fraction(5)]
        assert cramer_solve(identity(3), phi) == (-2, Fraction(3, 7), -5)

    def test_two_by_two_by_hand(self):
        # x1 = -det([[1,2],[1,4]])/(-2) = 1, x2 = -det([[1,1],[3,1]])/(-2) = -1
        solution = cramer_solve(Matrix([[1, 2], [3, 4]]), [1, 1])
        assert solution == (1, -1)
        assert mat_vec(Matrix([[1, 2], [3, 4]]), solution) == (-1, -1)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            cramer_solve(Matrix([[1, 1], [1, 1]]), [1, 2])
        with pytest.raises(SingularMatrixError):
            cramer_via_zero_reduction(Matrix([[1, 1], [1, 1]]), [1, 2])

    def test_pipeline_agreement(self, rng):
        for n in range(1, 6):
            for _ in range(4):
                b = random_nonsingular_matrix(rng, n)
                phi = [random_rational(rng) for _ in range(n)]
                direct = cramer_solve(b, phi)
                via_pipeline = cramer_via_zero_reduction(b, phi)
                assert direct == via_pipeline
                residual = tuple(a + c for a, c in zip(mat_vec(b, direct), phi))
                assert all(r == 0 for r in residual)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_zero_operator_reduces_any_sequence(self, rng, n):
        # the zero operator uses up no horizon: each reduced equation is
        # d_n x_i(t) = (B_{n-1} phi(t))_i, Cramer's rule at every t of the window
        b = random_nonsingular_matrix(rng, n)
        for horizon in (n, 1):
            phi = random_sequence_column(rng, n, horizon, origin=-2)
            reduced = total_reduce_adjugate(b, phi, ZERO)
            assert reduced == total_reduce_minors(b, phi, ZERO)
            dn = reduced.cp.coefficient(n)
            for t in range(-2, horizon - 2):
                x = cramer_solve(b, [e.value_at(t) for e in phi])
                assert tuple(e.value_at(t) / dn for e in reduced.rhs_evaluated) == x


class TestLemmaChecks:
    def test_always_true_on_randoms(self, rng):
        for n in range(1, 6):
            b = random_matrix(rng, n)
            ac, mc = adjugate_coeffs(b), adjugate_coeffs_minors(b)
            assert all(lemma1_check(b, mc, k) for k in range(1, n + 1))
            assert all(lemma2_check(ac, mc, k) for k in range(0, n))

    def test_identity_case_both_sides(self):
        from opreduce.minors import delta_k, delta_vec

        b = identity(2)
        v = (Fraction(1), Fraction(2))
        assert lemma1_check(b, adjugate_coeffs_minors(b), 1)
        lhs = tuple(
            a + c for a, c in zip(delta_vec(b, 1, mat_vec(b, v)), delta_vec(b, 2, v))
        )
        assert lhs == (2, 4)  # delta_1(I) * v = 2v
        assert delta_k(b, 1) == 2

    def test_boundary_uses_vanishing_convention(self, rng):
        b = random_matrix(rng, 3)
        mc = adjugate_coeffs_minors(b)
        assert lemma1_check(b, mc, 3)
        assert lemma1_check(b, mc, 5)

    def test_lemma2_range_checked(self, rng):
        b = random_matrix(rng, 2)
        with pytest.raises(IndexError):
            lemma2_check(adjugate_coeffs(b), adjugate_coeffs_minors(b), 2)

    @staticmethod
    def perturbation_cases(rng):
        """Nonsingular matrices, so that a change to B_j shows in B_j B too."""
        large = Matrix([[Fraction(1 + r * c, p) for c, p in enumerate(LARGE_PRIMES[r : r + 3])] for r in range(3)])
        return [*(random_nonsingular_matrix(rng, n) for n in range(1, 6)), large]

    def test_perturbed_coefficient_is_caught(self, rng):
        # 1/7 more in entry (r, c) of B_j changes B_j and row r of B_j B,
        # which Lemma 1 reads at k = j and k = j + 1, and Lemma 2 at k = j
        for b in self.perturbation_cases(rng):
            n = b.n
            ac, mc = adjugate_coeffs(b), adjugate_coeffs_minors(b)
            for j in range(n):
                for r, c in {(0, 0), (n - 1, 0), (0, n - 1)}:
                    rows = [list(row) for row in mc.coeffs[j].rows()]
                    rows[r][c] += Fraction(1, 7)
                    bad = AdjugateCoeffs((*mc.coeffs[:j], Matrix(rows), *mc.coeffs[j + 1 :]), mc.cp)
                    for k in range(1, n + 1):
                        assert lemma1_check(b, bad, k) is (k not in (j, j + 1))
                    for k in range(n):
                        assert lemma2_check(ac, bad, k) is (k != j)

    def test_perturbation_invisible_to_a_probe_column_is_caught(self):
        # w is orthogonal to v and to B v, so adding e_1 w^T to B_j leaves B_j v
        # and B_j (B v) alone and a check through the column v passes; the
        # whole matrices differ in B_j at k = j and in B_j B at k = j + 1
        b = Matrix([[2, 1, 0], [0, 1, 3], [1, 0, 1]])
        v, w = (1, 0, 0), (0, -1, 0)
        bv = mat_vec(b, v)
        mc = adjugate_coeffs_minors(b)
        for j in range(3):
            rows = [list(row) for row in mc.coeffs[j].rows()]
            rows[0] = [x + c for x, c in zip(rows[0], w)]
            bad = AdjugateCoeffs((*mc.coeffs[:j], Matrix(rows), *mc.coeffs[j + 1 :]), mc.cp)
            for column in (v, bv):
                assert mat_vec(bad.coeffs[j], column) == mat_vec(mc.coeffs[j], column)
            for k in range(1, 4):
                assert lemma1_check(b, bad, k) is (k not in (j, j + 1))

    def test_perturbed_char_poly_coefficient_is_caught(self, rng):
        # d_k enters Lemma 1 at order k only; Lemma 2 compares the B_k alone
        for b in self.perturbation_cases(rng):
            n = b.n
            ac, mc = adjugate_coeffs(b), adjugate_coeffs_minors(b)
            for j in range(1, n + 1):
                d = list(mc.cp.d)
                d[j - 1] += Fraction(1, 7)
                bad = AdjugateCoeffs(mc.coeffs, CharPoly(tuple(d)))
                for k in range(1, n + 1):
                    assert lemma1_check(b, bad, k) is (k != j)
                assert all(lemma2_check(ac, bad, k) for k in range(n))
