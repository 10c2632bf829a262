from fractions import Fraction
from itertools import combinations, permutations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LARGE_PRIMES,
    det_cofactor,
    patch_everywhere,
    random_column,
    random_matrix,
    random_sequence_column,
    zero_matrix,
)
from opreduce import exactcore, minors
from opreduce.exactcore import Matrix, identity, mat_vec
from opreduce.minors import _adjugate_int, delta_k, delta_k_i, delta_k_i_coeffs, delta_vec
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


def cofactor_adjugate(rows):
    """In-test adjugate by cofactor expansion: adj[q][p] = (-1)^(p+q) * minor(p, q).

    Built on `det_cofactor`, so it shares no code with the elimination kernel.
    """
    k = len(rows)
    if k == 1:
        return [[Fraction(1)]]
    idx = range(k)
    return [
        [
            (-1) ** (p + q)
            * det_cofactor(Matrix([[rows[r][c] for c in idx if c != q] for r in idx if r != p]))
            for p in idx
        ]
        for q in idx
    ]


def anchored_table(m, k):
    """In-test table of the order-k anchored functionals from cofactor adjugates."""
    n = m.n
    rows = m.rows()
    table = [[Fraction(0)] * n for _ in range(n)]
    for s in combinations(range(n), k):
        adj = cofactor_adjugate([[rows[r][c] for c in s] for r in s])
        for q, anchor in enumerate(s):
            for p, r in enumerate(s):
                table[anchor][r] += adj[q][p]
    return tuple(tuple(row) for row in table)


def permutation_matrix(perm):
    return [[int(perm[r] == c) for c in range(len(perm))] for r in range(len(perm))]


# principal submatrices that need a row swap or are singular with a nonzero
# adjugate, so that the swap sign and the cofactor fallback both matter
SWAP_FIXTURES = [
    permutation_matrix((1, 2, 3, 0)),
    permutation_matrix((2, 0, 3, 1)),
    [[0, 1, 2], [3, 0, 1], [1, 1, 0]],
    [[0, 0, 5, 1], [0, 2, 0, 3], [4, 1, 0, 0], [1, 0, 2, 0]],
]
SINGULAR_FIXTURES = [
    [[1, 2, 3], [1, 2, 3], [4, 5, 7]],
    [[2, -1, 0, 3], [0, 0, 0, 0], [1, 4, 2, -2], [2, -1, 0, 3]],
    [[0, 3, 1], [0, 3, 1], [2, 0, 0]],
    zero_matrix(3).rows(),
]
LARGE_PRIME_MATRIX = [[Fraction(r - c + 1, p) for c, p in enumerate(LARGE_PRIMES[r : r + 4])] for r in range(4)]

small_int_matrices = st.integers(1, 5).flatmap(
    lambda k: st.lists(
        st.lists(st.one_of(st.just(0), st.integers(-4, 4)), min_size=k, max_size=k),
        min_size=k,
        max_size=k,
    )
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
                    coeffs = delta_k_i_coeffs(m, k).rows()[i - 1]
                    for s in range(n):
                        basis = tuple(Fraction(int(t == s)) for t in range(n))
                        assert coeffs[s] == delta_k_i(m, k, i, basis)

    def test_functional_reproduces_general_columns(self, rng):
        for n in (2, 3, 5):
            m = random_matrix(rng, n)
            v = random_column(rng, n)
            for k in range(1, n + 1):
                for i in range(1, n + 1):
                    coeffs = delta_k_i_coeffs(m, k).rows()[i - 1]
                    value = sum((c * x for c, x in zip(coeffs, v)), Fraction(0))
                    assert value == delta_k_i(m, k, i, v)

    def test_beyond_order_n_is_zero(self, rng):
        m = random_matrix(rng, 2)
        assert delta_k_i_coeffs(m, 3).rows()[0] == (0, 0)


class TestIntegerEnumeration:
    def test_substitution_builds_no_matrix(self, rng, monkeypatch):
        # delta_vec applies the anchored functionals to the column; it
        # builds no substituted Matrix
        calls = []
        original = exactcore.column_substitute

        def counting_substitute(m, i, v):
            calls.append((m, i))
            return original(m, i, v)

        patch_everywhere(monkeypatch, original, counting_substitute)
        assert exactcore.column_substitute is counting_substitute
        for n in (1, 3, 5):
            m = random_matrix(rng, n)
            v = random_column(rng, n)
            for k in range(1, n + 1):
                delta_vec(m, k, v)
        assert calls == []

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


class TestAdjugateKernel:
    @given(rows=small_int_matrices)
    @settings(max_examples=300, deadline=None)
    def test_matches_cofactor_adjugate(self, rows):
        adj = _adjugate_int(rows)
        if det_cofactor(Matrix(rows)) == 0:
            assert adj is None
        else:
            assert adj == cofactor_adjugate(rows)
            assert all(type(x) is int for row in adj for x in row)

    def test_every_permutation_needs_the_swap_sign(self):
        for n in (2, 3, 4):
            for perm in permutations(range(n)):
                rows = permutation_matrix(perm)
                assert _adjugate_int(rows) == cofactor_adjugate(rows)

    def test_zero_leading_diagonal(self):
        for rows in SWAP_FIXTURES:
            assert _adjugate_int(rows) == cofactor_adjugate(rows)

    def test_singular_gives_none(self):
        for rows in SINGULAR_FIXTURES:
            assert _adjugate_int([list(map(int, row)) for row in rows]) is None

    def test_one_by_one(self):
        assert _adjugate_int([[-7]]) == [[1]]
        assert _adjugate_int([[0]]) is None

    def test_input_is_not_modified(self):
        rows = [[0, 1], [2, 3]]
        _adjugate_int(rows)
        assert rows == [[0, 1], [2, 3]]


class TestAnchoredTable:
    @given(rows=small_int_matrices)
    @settings(max_examples=100, deadline=None)
    def test_matches_cofactor_table(self, rows):
        m = Matrix(rows)
        for k in range(1, m.n + 1):
            assert delta_k_i_coeffs(m, k).rows() == anchored_table(m, k)

    def test_swaps_singular_subsets_and_large_denominators(self, monkeypatch):
        # the singular fixtures reach the det_int fallback, the zero matrix included
        fallbacks = []
        original = minors._cofactor_adjugate

        def counting_fallback(rows):
            fallbacks.append(len(rows))
            return original(rows)

        monkeypatch.setattr(minors, "_cofactor_adjugate", counting_fallback)
        for rows in [*SWAP_FIXTURES, *SINGULAR_FIXTURES, LARGE_PRIME_MATRIX, [[Fraction(-3, 7919)]], [[0]]]:
            m = Matrix(rows)
            before = len(fallbacks)
            for k in range(1, m.n + 1):
                assert delta_k_i_coeffs(m, k).rows() == anchored_table(m, k)
            if rows in SINGULAR_FIXTURES:
                assert len(fallbacks) > before

    def test_singular_subsets_contribute_their_cofactors(self):
        # the repeated row makes every subset holding rows 1 and 2 singular,
        # yet their order-1 cofactors still enter the table
        m = Matrix(SINGULAR_FIXTURES[0])
        assert delta_k_i_coeffs(m, 2).rows()[0] == (2 + 7, -2, -3)
        assert delta_k_i_coeffs(m, 3).rows() == anchored_table(m, 3) != ((0, 0, 0),) * 3

    def test_delta_vec_on_large_denominators(self):
        m = Matrix(LARGE_PRIME_MATRIX)
        v = tuple(Fraction(i + 2, p) for i, p in enumerate(LARGE_PRIMES[4:8]))
        for k in range(1, 5):
            table = anchored_table(m, k)
            assert delta_vec(m, k, v) == tuple(sum((c * x for c, x in zip(row, v)), Fraction(0)) for row in table)


class TestOnePassPerOrder:
    def test_minor_route_builds_one_table_per_order(self, rng, monkeypatch):
        # the route asks once per order for all n anchored functionals
        calls = []
        original = minors.delta_k_i_coeffs

        def counting_coeffs(m, k):
            calls.append(k)
            return original(m, k)

        patch_everywhere(monkeypatch, original, counting_coeffs)
        for n in (1, 3, 5):
            b = random_matrix(rng, n)
            total_reduce_minors(b, random_sequence_column(rng, n, horizon=n + 2), OperatorKind.SHIFT)
            assert calls == list(range(1, n + 1))
            calls.clear()

    def test_delta_vec_substitutes_nothing(self, rng, monkeypatch):
        calls = []
        original = minors.delta_k_i

        def counting_delta_k_i(m, k, i, v):
            calls.append((k, i))
            return original(m, k, i, v)

        patch_everywhere(monkeypatch, original, counting_delta_k_i)
        for n in (1, 3, 5):
            m = random_matrix(rng, n)
            v = random_column(rng, n)
            for k in range(1, n + 2):
                delta_vec(m, k, v)
        assert calls == []

    def test_errors_and_orders_beyond_n(self, rng):
        m = random_matrix(rng, 3)
        v = random_column(rng, 3)
        for k in (0, -1):
            with pytest.raises(ValueError):
                delta_k_i_coeffs(m, k)
            with pytest.raises(ValueError):
                delta_vec(m, k, v)
        for k in (1, 4):
            with pytest.raises(ValueError):
                delta_vec(m, k, v[:2])
        assert delta_k_i_coeffs(m, 4).rows() == ((0, 0, 0),) * 3
        assert delta_vec(m, 5, v) == (0, 0, 0)
