import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import LARGE_PRIMES, det_cofactor, matmul, random_column, random_matrix
from opreduce.exactcore import (
    DimensionError,
    Matrix,
    _born_fraction,
    _born_matrix,
    as_rational,
    column_substitute,
    det,
    identity,
    mat_vec,
    parse_rational,
)
from opreduce.exactcore import clear_denominators, det_int, matmul_int
from opreduce.faddeev import adjugate_coeffs, adjugate_coeffs_minors

rationals = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 20))


def square_matrices(entries, max_n=5):
    return st.integers(1, max_n).flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


rational_matrices = square_matrices(st.one_of(st.just(Fraction(0)), rationals))


def fraction_mat_vec(m, v):
    """Reference product over Fraction, one dot product per row."""
    return tuple(sum((a * Fraction(b) for a, b in zip(row, v)), Fraction(0)) for row in m.rows())


class TestRationalLiterals:
    def test_parse_plain_and_fraction(self):
        assert parse_rational("5") == Fraction(5)
        assert parse_rational("-3/7") == Fraction(-3, 7)
        assert parse_rational("+2/4") == Fraction(1, 2)
        assert parse_rational(" 9 ") == Fraction(9)
        assert parse_rational("\t-3/7\r\n") == Fraction(-3, 7)

    # Unicode digits, and Unicode spaces (no-break, em, ideographic), which are not trimmed
    @pytest.mark.parametrize(
        "bad",
        ["", "1.5", "1/0", "3/-4", "1e3", "a", "1/2/3", "--1", "\u0663", "\uff13/2", "1/\u0662",
         "\xa05", "5\u2003", "\u30003/7"],
    )
    def test_parse_rejects(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)

    @given(q=rationals)
    @settings(max_examples=80, deadline=None)
    def test_round_trip(self, q):
        assert parse_rational(str(q)) == q

    def test_as_rational_rejects_floats(self):
        with pytest.raises(TypeError):
            as_rational(0.5)
        with pytest.raises(TypeError):
            as_rational(True)

    def test_as_rational_names_each_rejected_kind(self):
        for value, message in [
            (0.5, "float 0.5 not accepted; use a rational literal string"),
            (True, "bool is not a rational scalar"),
            ([1], "not an exact rational: [1]"),
            (None, "not an exact rational: None"),
            ({}, "not an exact rational: {}"),
        ]:
            with pytest.raises(TypeError) as excinfo:
                as_rational(value)
            assert str(excinfo.value) == message


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

    def test_mat_vec_identity_action(self):
        v = (Fraction(3), Fraction(-1, 2), Fraction(7))
        assert mat_vec(identity(3), v) == v
        with pytest.raises(DimensionError):
            mat_vec(identity(3), (1, 2))

    @given(data=st.data(), n=st.integers(1, 5))
    @settings(max_examples=100, deadline=None)
    def test_mat_vec_matches_fraction_dot_products(self, data, n):
        entries = st.one_of(st.just(Fraction(0)), rationals)
        m = Matrix(data.draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)))
        v = data.draw(st.lists(entries, min_size=n, max_size=n))
        assert mat_vec(m, v) == fraction_mat_vec(m, v)

    def test_mat_vec_on_large_coprime_denominators(self):
        m = Matrix(
            [[Fraction((-1) ** (r + c) * (r - c), p) for c, p in enumerate(LARGE_PRIMES[r : r + 4])] for r in range(4)]
        )
        v = (Fraction(-3, LARGE_PRIMES[8]), Fraction(0), Fraction(5, LARGE_PRIMES[4]), Fraction(-1, LARGE_PRIMES[5]))
        result = mat_vec(m, v)
        assert result == fraction_mat_vec(m, v)
        assert all(type(x) is Fraction for x in result)
        for bad in (v[:3], (*v, Fraction(1))):
            with pytest.raises(DimensionError):
                mat_vec(m, bad)


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
                assert det(matmul(a, b)) == det(a) * det(b)

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


class TestIntegerForm:
    @given(rows=rational_matrices, c=st.integers(1, 10**6))
    @example(rows=[[Fraction(0)]], c=7)
    @example(rows=[[Fraction(0)] * 3] * 3, c=1)
    @example(rows=[[Fraction(1, p) for p in LARGE_PRIMES[:3]]] * 3, c=LARGE_PRIMES[8])
    @settings(max_examples=150, deadline=None)
    def test_born_from_a_scaled_form_matches_the_constructor(self, rows, c):
        m = Matrix(rows)
        den, ints = clear_denominators(rows)
        born = _born_matrix(c * den, [[c * x for x in row] for row in ints])
        assert born == m and m == born
        assert hash(born) == hash(m)
        assert born.int_form() == m.int_form() == (den, ints)
        assert born.rows() == m.rows() == tuple(map(tuple, rows))
        assert all(type(x) is Fraction for row in born.rows() for x in row)

    @given(rows=rational_matrices, c=st.integers(1, 50))
    @settings(max_examples=80, deadline=None)
    def test_orders_n_and_n_plus_one_differ(self, rows, c):
        # the order-n matrix is the leading block of the bordered one, which a zip would truncate to
        n = len(rows)
        m = Matrix(rows)
        bordered = Matrix([[*row, Fraction(0)] for row in rows] + [[Fraction(0)] * (n + 1)])
        den, ints = m.int_form()
        for small in (m, _born_matrix(c * den, [[c * x for x in row] for row in ints])):
            assert small != bordered and bordered != small

    @given(rows=rational_matrices, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_moving_one_entry_by_a_seventh_makes_them_unequal(self, rows, data):
        n = len(rows)
        r, c = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
        moved = [list(row) for row in rows]
        moved[r][c] += Fraction(1, 7)
        den, ints = clear_denominators(moved)
        for m in (Matrix(moved), _born_matrix(3 * den, [[3 * x for x in row] for row in ints])):
            assert m != Matrix(rows) and Matrix(rows) != m

    @given(rows=square_matrices(rationals, max_n=4))
    @settings(max_examples=40, deadline=None)
    def test_every_coefficient_matrix_is_born_canonical(self, rows):
        b = Matrix(rows)
        for ac in (adjugate_coeffs(b), adjugate_coeffs_minors(b)):
            for m in ac.coeffs:
                reference = Matrix(m.rows())
                assert m == reference
                assert m.int_form() == reference.int_form()
                assert hash(m) == hash(reference)


def reference_clear(rows):
    """lcm over every denominator, one entry at a time, then x * D as ints."""
    den = 1
    for row in rows:
        for x in row:
            den = lcm(den, x.denominator)
    return den, [[int(x * den) for x in row] for row in rows]


repeated_large = st.builds(Fraction, st.integers(-10**6, 10**6), st.sampled_from(LARGE_PRIMES))


class TestBornFraction:
    def test_equals_the_normalized_fraction(self):
        rng = random.Random(5)
        pairs = [(-7, 3), (-12, 1), (5, 1), (0, 1)]
        while len(pairs) < 12:
            n, d = rng.getrandbits(1000) - 2**999, rng.getrandbits(1000) | 1
            if gcd(n, d) == 1:
                pairs.append((n, d))
        for n, d in pairs:
            born, made = _born_fraction(n, d), Fraction(n, d)
            assert type(born) is Fraction
            assert (born.numerator, born.denominator) == (n, d)
            assert born == made and hash(born) == hash(made) and str(born) == str(made)
            assert born + Fraction(1, 3) == made + Fraction(1, 3)


class TestIntegerKernel:
    @given(rows=st.lists(st.lists(st.one_of(rationals, repeated_large), max_size=12), max_size=6))
    @example(rows=[])
    @example(rows=[[], []])
    @example(rows=[[Fraction(k, p) for p in LARGE_PRIMES] * 4 for k in (1, -3, 0)] + [[]])
    @settings(max_examples=200, deadline=None)
    def test_clear_denominators_matches_a_reference(self, rows):
        # ragged rows, empty rows, no rows at all (D = 1), and many repeats of large denominators
        den, int_rows = clear_denominators(rows)
        assert (den, int_rows) == reference_clear(rows)
        assert all(type(x) is int for row in int_rows for x in row)

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

    def test_matmul_int_matches_the_fraction_product(self, rng):
        for n in range(1, 7):
            for _ in range(4):
                _, a = clear_denominators(random_matrix(rng, n).rows())
                _, b = clear_denominators(random_matrix(rng, n, bound=10**6).rows())
                prod = matmul_int(a, b)
                assert all(type(x) is int for row in prod for x in row)
                assert Matrix(prod) == matmul(Matrix(a), Matrix(b))
        a = [[1, 2], [3, 4]]
        assert matmul_int(a, [[0, 1], [1, 0]]) == [[2, 1], [4, 3]]
        assert a == [[1, 2], [3, 4]]

    def test_matmul_int_rejects_shapes_it_would_truncate(self):
        a = [[1, 2], [3, 4]]
        for b in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1]], [[1, 2], [3]], [[1, 2, 3], [4, 5, 6]]):
            with pytest.raises(DimensionError):
                matmul_int(a, b)
            with pytest.raises(DimensionError):
                matmul_int(b, a)

    def test_empty_matrix_and_input_untouched(self):
        assert det_int([]) == 1
        rows = [[0, 1], [1, 0]]
        assert det_int(rows) == -1
        assert rows == [[0, 1], [1, 0]]
