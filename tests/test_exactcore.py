import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_column, random_matrix
from opreduce.exactcore import (
    DimensionError,
    Matrix,
    as_rational,
    column_substitute,
    det,
    det_cofactor,
    format_rational,
    identity,
    mat_vec,
    parse_rational,
    zeros,
)
from opreduce.exactcore import clear_denominators, det_int

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 20))


class TestRationalLiterals:
    def test_parse_plain_and_fraction(self):
        assert parse_rational("5") == Fraction(5)
        assert parse_rational("-3/7") == Fraction(-3, 7)
        assert parse_rational("+2/4") == Fraction(1, 2)
        assert parse_rational(" 9 ") == Fraction(9)

    @pytest.mark.parametrize("bad", ["", "1.5", "1/0", "3/-4", "1e3", "a", "1/2/3", "--1"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(q=rationals)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q

    def test_as_rational_rejects_floats(self):
        with pytest.raises(TypeError):
            as_rational(0.5)
        with pytest.raises(TypeError):
            as_rational(True)


class TestMatrixBasics:
    def test_shape_validation(self):
        with pytest.raises(DimensionError):
            Matrix([])
        with pytest.raises(DimensionError):
            Matrix([[1, 2], [3]])
        with pytest.raises(DimensionError):
            Matrix([[1, 2]])
        with pytest.raises(DimensionError):
            Matrix([[]])
        with pytest.raises(DimensionError):
            identity(0)

    def test_add_mul_scale(self):
        a = Matrix([[1, 2], [3, 4]])
        b = Matrix([[0, 1], [1, 0]])
        assert a + b == Matrix([[1, 3], [4, 4]])
        assert a + (-1) * a == zeros(2)
        assert a * b == Matrix([[2, 1], [4, 3]])
        assert 2 * a == Matrix([[2, 4], [6, 8]])
        assert Fraction(1, 2) * a == Matrix([["1/2", 1], ["3/2", 2]])
        with pytest.raises(DimensionError):
            a * identity(3)
        with pytest.raises(DimensionError):
            a + Matrix([[1]])

    def test_mat_vec_identity_action(self):
        v = (Fraction(3), Fraction(-1, 2), Fraction(7))
        assert mat_vec(identity(3), v) == v
        with pytest.raises(DimensionError):
            mat_vec(identity(3), (1, 2))


class TestColumnSubstitute:
    def test_direct_construction(self):
        assert column_substitute(identity(2), 1, [5, 7]) == Matrix([[5, 0], [7, 1]])
        assert column_substitute(Matrix([[1, 2], [3, 4]]), 2, [9, 8]) == Matrix([[1, 9], [3, 8]])

    def test_self_substitution_is_noop(self, rng):
        m = random_matrix(rng, 4)
        for i in range(1, 5):
            assert column_substitute(m, i, [row[i - 1] for row in m.rows()]) == m

    def test_index_and_length_errors(self):
        with pytest.raises(IndexError):
            column_substitute(identity(2), 0, [1, 2])
        with pytest.raises(DimensionError):
            column_substitute(identity(2), 1, [1, 2, 3])


class TestDeterminant:
    def test_identity(self):
        for n in range(1, 6):
            assert det(identity(n)) == 1

    def test_two_by_two_by_hand(self):
        # cofactor oracle: 1*4 - 2*3
        assert det(Matrix([[1, 2], [3, 4]])) == -2

    def test_equal_rows_vanish(self, rng):
        for n in (2, 3, 4, 5):
            m = random_matrix(rng, n)
            rows = list(m.rows())
            rows[n - 1] = rows[0]
            assert det(Matrix(rows)) == 0

    def test_bareiss_agrees_with_cofactor(self, rng):
        for n in range(1, 7):
            for _ in range(12):
                m = random_matrix(rng, n)
                assert det(m) == det_cofactor(m)

    def test_bareiss_zero_pivot_needs_swap(self):
        m = Matrix([[0, 1, 2, 3], [1, 0, 1, 1], [2, 1, 0, 5], [1, 1, 1, 0]])
        assert det(m) == det_cofactor(m)

    def test_singular_after_elimination(self):
        # first column forces the no-pivot branch midway
        m = Matrix([[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 1, 0], [0, 2, 2, 0]])
        assert det(m) == 0

    def test_product_rule(self, rng):
        for n in range(1, 6):
            for _ in range(8):
                a = random_matrix(rng, n)
                b = random_matrix(rng, n)
                assert det(a * b) == det(a) * det(b)

    def test_linear_in_substituted_column(self, rng):
        for n in (2, 3, 4):
            m = random_matrix(rng, n)
            u = random_column(rng, n)
            w = random_column(rng, n)
            alpha, beta = Fraction(3, 2), Fraction(-2, 5)
            for i in range(1, n + 1):
                mixed = tuple(alpha * a + beta * b for a, b in zip(u, w))
                left = det(column_substitute(m, i, mixed))
                right = alpha * det(column_substitute(m, i, u)) + beta * det(
                    column_substitute(m, i, w)
                )
                assert left == right

    def test_rejects_non_square(self):
        with pytest.raises(DimensionError):
            Matrix([[1, 2, 3], [4, 5, 6]])


class TestIntegerKernel:
    def test_clear_denominators(self):
        den, rows = clear_denominators(Matrix([["1/2", "-2/3"], [5, "3/4"]]).rows())
        assert den == 12
        assert rows == [[6, -8], [60, 9]]
        assert all(type(x) is int for row in rows for x in row)

    def test_pivot_vanishes_mid_elimination(self):
        # after the first step the active block starts with a zero pivot
        m = Matrix([[1, 2, 3, 4], [2, 4, 7, 1], [3, 7, 2, 5], [1, 3, 1, 1]])
        _, rows = clear_denominators(m.rows())
        assert (rows[1][1] * rows[0][0] - rows[1][0] * rows[0][1]) == 0
        assert det_int(rows) == det_cofactor(m) != 0

    def test_rank_deficient_and_zero(self, rng):
        for n in range(1, 7):
            assert det_int([[0] * n for _ in range(n)]) == 0
        for n in range(2, 7):
            rows = list(random_matrix(rng, n).rows())
            # last row a combination of two earlier rows: rank at most n - 1
            rows[-1] = tuple(Fraction(3, 2) * a - 2 * b for a, b in zip(rows[0], rows[n - 2]))
            singular = Matrix(rows)
            _, int_rows = clear_denominators(singular.rows())
            assert det_int(int_rows) == det_cofactor(singular) == 0

    def test_empty_matrix_and_input_untouched(self):
        assert det_int([]) == 1
        rows = [[0, 1], [1, 0]]
        assert det_int(rows) == -1
        assert rows == [[0, 1], [1, 0]]
