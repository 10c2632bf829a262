from fractions import Fraction
from itertools import permutations
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (
    LARGE_PRIMES,
    matmul,
    plus_identity,
    random_column,
    random_matrix,
    random_nonsingular_matrix,
    random_rational,
    zero_matrix,
)
from opreduce import faddeev
from opreduce.exactcore import DimensionError, Matrix, identity, mat_vec, matmul_int
from opreduce.faddeev import (
    AdjugateCoeffs,
    CharPoly,
    adjugate_coeffs,
    adjugate_coeffs_minors,
    cayley_hamilton_check,
    char_poly,
    char_poly_minors,
    lemma1_check,
)
from opreduce.minors import delta_vec
from opreduce.operators import Polynomial
from opreduce.reduction import lemma2_check


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
        assert Polynomial((1, *cp.d)[::-1]).evaluate(3) == 9 - 15 - 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CharPoly(())
        assert CharPoly((Fraction(1), Fraction(2))).n == 2
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
        assert plus_identity(matmul(ac.coeffs[0], b), ac.cp.coefficient(1)) == zero_matrix(1)
        assert cayley_hamilton_check(b, ac)

    def test_recurrence_invariant(self, rng):
        for n in (2, 3, 4, 5):
            b = random_matrix(rng, n)
            ac = adjugate_coeffs(b)
            for k in range(1, n):
                expected = plus_identity(matmul(ac.coeffs[k - 1], b), ac.cp.coefficient(k))
                assert ac.coeffs[k] == expected

    def test_cayley_hamilton_termination(self, rng):
        for n in range(1, 7):
            for _ in range(5):
                b = random_matrix(rng, n)
                assert cayley_hamilton_check(b, adjugate_coeffs(b))

    def test_cayley_hamilton_rejects_perturbed_coefficients(self, rng):
        # a wrong d_n leaves d I in the residual; a wrong entry (r, c) of B_{n-1}
        # leaves row c of B in row r, which is nonzero for a nonsingular B
        large = Matrix([[Fraction(1 + r * c, p) for c, p in enumerate(LARGE_PRIMES[r : r + 3])] for r in range(3)])
        matrices = [random_nonsingular_matrix(rng, n) for n in range(1, 7)] + [large]
        for b in (*matrices, zero_matrix(1), zero_matrix(3)):
            n = b.n
            ac = adjugate_coeffs(b)
            assert cayley_hamilton_check(b, ac)
            d = list(ac.cp.d)
            d[n - 1] += 1
            assert not cayley_hamilton_check(b, AdjugateCoeffs(ac.coeffs, CharPoly(tuple(d))))
        for b in matrices:
            n = b.n
            ac = adjugate_coeffs(b)
            for r, c in {(0, 0), (n - 1, 0), (0, n - 1)}:
                rows = [list(row) for row in ac.coeffs[n - 1].rows()]
                rows[r][c] += Fraction(1, 7)
                coeffs = (*ac.coeffs[: n - 1], Matrix(rows))
                assert not cayley_hamilton_check(b, AdjugateCoeffs(coeffs, ac.cp))

    def test_cayley_hamilton_rejects_coefficients_of_another_order(self, rng):
        for n, other in ((2, 3), (3, 2), (1, 2), (4, 1)):
            b, ac = random_matrix(rng, n), adjugate_coeffs(random_matrix(rng, other))
            with pytest.raises(DimensionError):
                cayley_hamilton_check(b, ac)
            for k in range(1, max(n, other) + 2):
                with pytest.raises(DimensionError):
                    lemma1_check(b, ac, k)
            for k in range(n):
                with pytest.raises(DimensionError, match=f"orders {n} and {other}"):
                    lemma2_check(adjugate_coeffs(b), ac, k)

    def test_coefficient_count_must_match_the_polynomial_order(self, rng):
        # n is read from the polynomial, so n matrices with a polynomial of
        # another order cannot form an adjugate expansion
        for n, other in ((2, 3), (3, 2), (1, 2), (4, 1)):
            ac = adjugate_coeffs(random_matrix(rng, n))
            cp = char_poly(random_matrix(rng, other))
            with pytest.raises(ValueError):
                AdjugateCoeffs(ac.coeffs, cp)
            assert AdjugateCoeffs(ac.coeffs, ac.cp).n == n

    def test_every_coefficient_must_have_the_polynomial_order(self, rng):
        # n coefficients, one of them of order n + 1, which a zip over rows would truncate
        for n in (1, 2, 4):
            ac = adjugate_coeffs(random_matrix(rng, n))
            for j in range(n):
                coeffs = (*ac.coeffs[:j], identity(n + 1), *ac.coeffs[j + 1 :])
                with pytest.raises(DimensionError, match=f"order {n} must be {n}x{n}"):
                    AdjugateCoeffs(coeffs, ac.cp)


def fraction_recurrence(b):
    """The trace recurrence written directly over Fraction, as an oracle for the integer lift."""
    n = b.n
    d = []
    coeffs = [identity(n)]
    bk = coeffs[0]
    for k in range(1, n + 1):
        prod = matmul(bk, b)
        dk = -sum(row[r] for r, row in enumerate(prod.rows())) / k
        d.append(dk)
        if k < n:
            bk = plus_identity(prod, dk)
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
            assert_matches_fraction_recurrence(zero_matrix(n))
            assert_matches_fraction_recurrence(identity(n))
        assert adjugate_coeffs(zero_matrix(3)).cp.d == (0, 0, 0)

    def test_large_coprime_denominators(self):
        b = Matrix(
            [
                ["1/7919", "3/7907", "-5/7901"],
                ["2/7883", "-1/7879", "4/7877"],
                ["-7/7873", "6/7867", "1/7853"],
            ]
        )
        assert_matches_fraction_recurrence(b)

    def test_ten_digit_entries_match_both_oracles(self, rng):
        for n in range(2, 7):
            b = random_matrix(rng, n, bound=10**10)
            assert_matches_fraction_recurrence(b)
            assert adjugate_coeffs(b) == adjugate_coeffs_minors(b)

    def test_each_step_starts_from_the_stored_coefficient(self, rng, monkeypatch):
        # the left operand of step k is the stored form of B_{k-1}, not a copy
        # carried unreduced from the steps before it
        lefts = []

        def recording(a, b):
            lefts.append(max(abs(x).bit_length() for row in a for x in row))
            return matmul_int(a, b)

        monkeypatch.setattr(faddeev, "matmul_int", recording)
        b = random_matrix(rng, 6, bound=10**10)
        ac = adjugate_coeffs(b)
        stored = [max(abs(x).bit_length() for row in bk.int_form()[1] for x in row) for bk in ac.coeffs]
        assert len(lefts) == 6
        assert all(left <= bits for left, bits in zip(lefts, stored))
        assert max(stored) > 1000


def adjugate_at(ac, lam):
    """adj(lam*I - B) by Horner on each entry of the coefficients B_0..B_{n-1}."""
    n = ac.n
    entries = [[Fraction(0)] * n for _ in range(n)]
    for bk in ac.coeffs:
        entries = [[lam * e + x for e, x in zip(erow, row)] for erow, row in zip(entries, bk.rows())]
    return Matrix(entries)


class TestAdjugateAt:
    def test_defining_identity_at_random_points(self, rng):
        # (lam*I - B) * adj(lam*I - B) = charpoly(lam) * I
        for n in (1, 2, 3, 4):
            b = random_matrix(rng, n)
            ac = adjugate_coeffs(b)
            minus_b = Matrix([-x for x in row] for row in b.rows())
            for _ in range(5):
                lam = random_rational(rng)
                left = matmul(plus_identity(minus_b, lam), adjugate_at(ac, lam))
                assert left == plus_identity(zero_matrix(n), Polynomial((1, *ac.cp.d)[::-1]).evaluate(lam))


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


# zeros dominate, so that singular principal subsets and row swaps occur
sparse_int_matrices = st.integers(1, 5).flatmap(
    lambda k: st.lists(
        st.lists(st.one_of(st.just(0), st.just(0), st.integers(-3, 3)), min_size=k, max_size=k),
        min_size=k,
        max_size=k,
    )
)
LARGE_PRIME_ROWS = [[Fraction(r - 2 * c + 1, p) for c, p in enumerate(LARGE_PRIMES[r : r + 4])] for r in range(4)]


class TestAdjugateCoeffsMinors:
    # Lemma 2: the enumeration gives the coefficients of the trace recurrence
    @given(rows=sparse_int_matrices)
    @example(rows=LARGE_PRIME_ROWS)
    @example(rows=zero_matrix(3).rows())
    @settings(max_examples=200, deadline=None)
    def test_equals_trace_recurrence(self, rows):
        b = Matrix(rows)
        mc = adjugate_coeffs_minors(b)
        assert mc == adjugate_coeffs(b)
        assert cayley_hamilton_check(b, mc)

    def test_permutation_matrices(self):
        for n in (2, 3, 4):
            for perm in permutations(range(n)):
                b = Matrix([[int(perm[r] == c) for c in range(n)] for r in range(n)])
                mc = adjugate_coeffs_minors(b)
                assert mc == adjugate_coeffs(b)
                assert cayley_hamilton_check(b, mc)
