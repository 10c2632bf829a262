from fractions import Fraction
from math import comb

import pytest

from conftest import DATA_DIR, random_column, random_matrix, random_rational
from opreduce import faddeev
from opreduce.cli import main
from opreduce.exactcore import Matrix, identity, mat_vec, zeros
from opreduce.faddeev import (
    CharPoly,
    adjugate_at,
    adjugate_coeffs,
    cayley_hamilton_check,
    cayley_hamilton_residual,
    char_poly,
    char_poly_minors,
)
from opreduce.minors import delta_vec


class TestCharPoly:
    def test_two_by_two_signs(self, rng):
        # d_1 = -(b11 + b22), d_2 = b11 b22 - b12 b21
        for _ in range(10):
            b11, b12, b21, b22 = (random_rational(rng) for _ in range(4))
            cp = char_poly(Matrix([[b11, b12], [b21, b22]]))
            assert cp.coefficient(1) == -(b11 + b22)
            assert cp.coefficient(2) == b11 * b22 - b12 * b21

    def test_identity_matrix(self):
        for n in range(1, 6):
            cp = char_poly(identity(n))
            for k in range(1, n + 1):
                assert cp.coefficient(k) == (-1) ** k * comb(n, k)

    def test_fixture_matrix(self):
        assert char_poly(Matrix([[1, 2], [3, 4]])).d == (-5, -2)
        assert char_poly_minors(Matrix([[1, 2], [3, 4]])).d == (-5, -2)

    def test_routes_agree(self, rng):
        for n in range(1, 8):
            for _ in range(4):
                b = random_matrix(rng, n)
                assert char_poly(b) == char_poly_minors(b)

    def test_evaluate(self):
        cp = char_poly(Matrix([[1, 2], [3, 4]]))
        # lambda^2 - 5 lambda - 2 at lambda = 3
        assert cp.evaluate(3) == 9 - 15 - 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CharPoly(2, (Fraction(1),))
        cp = char_poly(identity(2))
        with pytest.raises(IndexError):
            cp.coefficient(0)
        with pytest.raises(IndexError):
            cp.coefficient(3)


class TestAdjugateCoeffs:
    def test_first_coefficient_is_identity(self, rng):
        for n in (1, 2, 4):
            ac = adjugate_coeffs(random_matrix(rng, n))
            assert ac.coeffs[0] == identity(n)

    def test_fixture_constant_term(self):
        ac = adjugate_coeffs(Matrix([[1, 2], [3, 4]]))
        assert ac.coeffs[1] == Matrix([[-4, 2], [3, -1]])

    def test_scalar_case(self):
        b = Matrix([["7/3"]])
        ac = adjugate_coeffs(b)
        assert ac.coeffs == (identity(1),)
        assert ac.cp.d == (Fraction(-7, 3),)
        assert cayley_hamilton_residual(b, ac) == zeros(1)

    def test_recurrence_invariant(self, rng):
        for n in (2, 3, 4, 5):
            b = random_matrix(rng, n)
            ac = adjugate_coeffs(b)
            for k in range(1, n):
                expected = ac.coeffs[k - 1] * b + ac.cp.coefficient(k) * identity(n)
                assert ac.coeffs[k] == expected

    def test_cayley_hamilton_termination(self, rng):
        for n in range(1, 7):
            for _ in range(5):
                b = random_matrix(rng, n)
                assert cayley_hamilton_check(b, adjugate_coeffs(b))


def fraction_recurrence(b):
    """The trace recurrence written directly over Fraction, as an oracle for the integer lift."""
    n = b.n
    d = []
    coeffs = [identity(n)]
    bk = coeffs[0]
    for k in range(1, n + 1):
        prod = bk * b
        dk = -sum(row[r] for r, row in enumerate(prod.rows())) / k
        d.append(dk)
        if k < n:
            bk = prod + dk * identity(n)
            coeffs.append(bk)
    return tuple(coeffs), tuple(d)


def assert_matches_fraction_recurrence(b):
    coeffs, d = fraction_recurrence(b)
    ac = adjugate_coeffs(b)
    assert ac.coeffs == coeffs
    assert ac.cp.d == d
    assert char_poly(b).d == d


class TestIntegerLift:
    def test_random_mixed_denominators(self, rng):
        for n in range(1, 9):
            for _ in range(3):
                assert_matches_fraction_recurrence(random_matrix(rng, n))

    def test_integer_matrix(self, rng):
        b = Matrix([[rng.randint(-9, 9) for _ in range(5)] for _ in range(5)])
        assert_matches_fraction_recurrence(b)

    def test_zero_and_identity(self):
        for n in (1, 3, 6):
            assert_matches_fraction_recurrence(zeros(n))
            assert_matches_fraction_recurrence(identity(n))
        assert adjugate_coeffs(zeros(3)).cp.d == (0, 0, 0)

    def test_large_coprime_denominators(self):
        b = Matrix(
            [
                ["1/7919", "3/7907", "-5/7901"],
                ["2/7883", "-1/7879", "4/7877"],
                ["-7/7873", "6/7867", "1/7853"],
            ]
        )
        assert_matches_fraction_recurrence(b)

    def test_inexact_division_is_an_internal_error(self, monkeypatch):
        # the remainder can only be nonzero through a bug, so fake one
        monkeypatch.setattr(faddeev, "divmod", lambda a, k: (0, 1), raising=False)
        with pytest.raises(faddeev.RecurrenceError) as info:
            adjugate_coeffs(Matrix([[1, 2], [3, 4]]))
        assert not isinstance(info.value, ValueError)
        # the CLI does not report it as an input error (exit 2)
        with pytest.raises(faddeev.RecurrenceError):
            main(["reduce", "--spec", str(DATA_DIR / "shift_2x2.json")])


class TestAdjugateAt:
    def test_degree_zero_polynomial(self, rng):
        ac = adjugate_coeffs(Matrix([["5/2"]]))
        assert adjugate_at(ac, 17) == identity(1)
        assert adjugate_at(ac, 0) == identity(1)

    def test_constant_term(self):
        ac = adjugate_coeffs(Matrix([[1, 2], [3, 4]]))
        assert adjugate_at(ac, 0) == Matrix([[-4, 2], [3, -1]])

    def test_identity_shifted(self):
        ac = adjugate_coeffs(identity(2))
        assert adjugate_at(ac, 2) == identity(2)

    def test_defining_identity_at_random_points(self, rng):
        # (lam*I - B) * adj(lam*I - B) = charpoly(lam) * I
        for n in (1, 2, 3, 4):
            b = random_matrix(rng, n)
            ac = adjugate_coeffs(b)
            for _ in range(5):
                lam = random_rational(rng)
                left = (lam * identity(n) + (-1) * b) * adjugate_at(ac, lam)
                assert left == ac.cp.evaluate(lam) * identity(n)


class TestAdjugateMinorCorrespondence:
    def test_coefficient_action_equals_signed_minor_sums(self, rng):
        # B_k v = (-1)^k * (anchored order k+1 minor sums of v)
        for n in range(1, 7):
            b = random_matrix(rng, n)
            ac = adjugate_coeffs(b)
            for _ in range(3):
                v = random_column(rng, n)
                for k in range(0, n):
                    lhs = mat_vec(ac.coeffs[k], v)
                    rhs = tuple((-1) ** k * c for c in delta_vec(b, k + 1, v))
                    assert lhs == rhs
