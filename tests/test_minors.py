from fractions import Fraction
from itertools import combinations
from math import comb

import pytest

from conftest import patch_everywhere, random_column, random_matrix, random_sequence_column
from opreduce import exactcore
from opreduce.exactcore import Matrix, det_cofactor, identity, mat_vec
from opreduce.minors import delta_k, delta_k_i, delta_k_i_coeffs, delta_vec
from opreduce.operators import OperatorKind
from opreduce.reduction import total_reduce_minors


def anchored_minor_sum(m, k, i):
    """In-test enumeration: sum of order-k principal minors of m containing column i.

    Uses cofactor expansion, so it shares no code with the integer kernel it checks.
    """
    rows = m.rows()
    return sum(
        (
            det_cofactor(Matrix([[rows[r][c] for c in s] for r in s]))
            for s in combinations(range(m.n), k)
            if (i - 1) in s
        ),
        Fraction(0),
    )


class TestDeltaK:
    def test_order_one_is_trace(self, rng):
        for n in (1, 2, 3, 5):
            m = random_matrix(rng, n)
            assert delta_k(m, 1) == sum(row[r] for r, row in enumerate(m.rows()))

    def test_identity_counts_subsets(self):
        for n in range(1, 6):
            for k in range(0, n + 1):
                assert delta_k(identity(n), k) == comb(n, k)

    def test_two_by_two_full_order(self):
        assert delta_k(Matrix([[1, 2], [3, 4]]), 2) == -2

    def test_every_order_matches_cofactor_enumeration(self, rng):
        # order n is det(m) itself; lower orders sum the kernel over subsets
        for n in range(1, 6):
            m = random_matrix(rng, n)
            for k in range(1, n + 1):
                reference = sum(anchored_minor_sum(m, k, i) for i in range(1, n + 1)) / k
                assert delta_k(m, k) == reference

    def test_conventions(self, rng):
        m = random_matrix(rng, 3)
        assert delta_k(m, 0) == 1
        assert delta_k(m, 4) == 0
        with pytest.raises(ValueError):
            delta_k(m, -1)


class TestDeltaKI:
    def test_order_one_picks_entry(self, rng):
        for n in (1, 2, 4):
            m = random_matrix(rng, n)
            v = random_column(rng, n)
            for i in range(1, n + 1):
                assert delta_k_i(m, 1, i, v) == v[i - 1]

    def test_two_by_two_by_hand(self):
        # det([[1, 2], [0, 4]]) = 4
        assert delta_k_i(Matrix([[1, 2], [3, 4]]), 2, 1, [1, 0]) == 4

    def test_self_substitution_restricts_to_anchored_minors(self, rng):
        for n in (2, 3, 4):
            m = random_matrix(rng, n)
            for k in range(1, n + 1):
                for i in range(1, n + 1):
                    assert delta_k_i(m, k, i, [row[i - 1] for row in m.rows()]) == anchored_minor_sum(m, k, i)

    def test_above_order_n_vanishes(self, rng):
        m = random_matrix(rng, 3)
        assert delta_k_i(m, 4, 2, random_column(rng, 3)) == 0

    def test_linearity_in_column(self, rng):
        m = random_matrix(rng, 4)
        u = random_column(rng, 4)
        w = random_column(rng, 4)
        a, b = Fraction(2, 3), Fraction(-5)
        mixed = tuple(a * x + b * y for x, y in zip(u, w))
        for k in range(1, 5):
            for i in range(1, 5):
                assert delta_k_i(m, k, i, mixed) == a * delta_k_i(m, k, i, u) + b * delta_k_i(
                    m, k, i, w
                )

    def test_errors(self, rng):
        m = random_matrix(rng, 3)
        v = random_column(rng, 3)
        with pytest.raises(ValueError):
            delta_k_i(m, 0, 1, v)
        with pytest.raises(IndexError):
            delta_k_i(m, 1, 0, v)
        with pytest.raises(IndexError):
            delta_k_i(m, 1, 4, v)
        with pytest.raises(ValueError):
            delta_k_i(m, 1, 1, (1, 2))


class TestDeltaVec:
    def test_order_one_is_identity(self, rng):
        m = random_matrix(rng, 3)
        v = random_column(rng, 3)
        assert delta_vec(m, 1, v) == v

    def test_two_by_two_by_hand(self):
        # det([[1,2],[0,4]]) = 4 and det([[1,1],[3,0]]) = -3
        assert delta_vec(Matrix([[1, 2], [3, 4]]), 2, (1, 0)) == (4, -3)

    def test_beyond_order_n_is_zero_column(self, rng):
        m = random_matrix(rng, 3)
        v = random_column(rng, 3)
        assert delta_vec(m, 4, v) == (0, 0, 0)


class TestCouplingIdentity:
    def test_componentwise(self, rng):
        # delta_k^i(M; Mv) + delta_{k+1}^i(M; v) = delta_k(M) * v_i, k = 1..n
        for n in range(1, 7):
            m = random_matrix(rng, n)
            v = random_column(rng, n)
            mv = mat_vec(m, v)
            for k in range(1, n + 1):
                scale = delta_k(m, k)
                for i in range(1, n + 1):
                    left = delta_k_i(m, k, i, mv) + delta_k_i(m, k + 1, i, v)
                    assert left == scale * v[i - 1]

    def test_each_minor_counted_order_times(self, rng):
        # summing the self-substituted anchored sums over i counts every
        # order-k principal minor exactly k times
        for n in (2, 3, 4, 5):
            m = random_matrix(rng, n)
            for k in range(1, n + 1):
                total = sum(
                    (delta_k_i(m, k, i, [row[i - 1] for row in m.rows()]) for i in range(1, n + 1)),
                    Fraction(0),
                )
                assert total == k * delta_k(m, k)


class TestCoefficientFunctional:
    def test_matches_enumeration_on_basis_vectors(self, rng):
        for n in (1, 2, 3, 4):
            m = random_matrix(rng, n)
            for k in range(1, n + 1):
                for i in range(1, n + 1):
                    coeffs = delta_k_i_coeffs(m, k, i)
                    for s in range(n):
                        basis = tuple(Fraction(int(t == s)) for t in range(n))
                        assert coeffs[s] == delta_k_i(m, k, i, basis)

    def test_functional_reproduces_general_columns(self, rng):
        for n in (2, 3, 5):
            m = random_matrix(rng, n)
            v = random_column(rng, n)
            for k in range(1, n + 1):
                for i in range(1, n + 1):
                    coeffs = delta_k_i_coeffs(m, k, i)
                    value = sum((c * x for c, x in zip(coeffs, v)), Fraction(0))
                    assert value == delta_k_i(m, k, i, v)

    def test_beyond_order_n_is_zero(self, rng):
        m = random_matrix(rng, 2)
        assert delta_k_i_coeffs(m, 3, 1) == (0, 0)


class TestIntegerEnumeration:
    def test_enumeration_calls_public_det_only_for_the_full_matrix(self, rng, monkeypatch):
        # every minor below order n goes through the integer kernel on rows
        # cleared once per call, never through a Matrix handed to the public
        # det; only the one order-n principal minor, det(B) itself, does
        calls = []
        original = exactcore.det

        def counting_det(m):
            calls.append(m)
            return original(m)

        patch_everywhere(monkeypatch, original, counting_det)
        assert exactcore.det is counting_det
        for n in (1, 3, 5):
            b = random_matrix(rng, n)
            v = random_column(rng, n)
            total_reduce_minors(b, random_sequence_column(rng, n, horizon=n + 2), OperatorKind.SHIFT)
            assert calls == [b]
            calls.clear()
            for k in range(1, n + 1):
                delta_vec(b, k, v)
            assert calls == []
