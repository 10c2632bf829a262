from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    patch_everywhere,
    random_matrix,
    random_polynomial_column,
    random_sequence_column,
)
from opreduce.faddeev import CharPoly
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
from opreduce.reduction import total_reduce_adjugate

SHIFT = OperatorKind.SHIFT
DERIV = OperatorKind.DERIVATIVE
ZERO = OperatorKind.ZERO

poly_coeffs = st.lists(st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)), max_size=7)


def power(kind, e, j):
    """j-fold application of the operator, one `apply` at a time."""
    for _ in range(j):
        e = apply(kind, e)
    return e


class TestElements:
    def test_polynomial_normalizes_trailing_zeros(self):
        assert Polynomial([1, 2, 0, 0]).coeffs == (1, 2)
        assert Polynomial([0]).coeffs == ()
        assert Polynomial().is_zero()
        assert Polynomial([0, 0, 3]).degree() == 2

    def test_polynomial_evaluate(self):
        p = Polynomial([3, 2, 1])  # 3 + 2t + t^2
        assert p.evaluate(0) == 3
        assert p.evaluate(2) == 11
        assert p.evaluate(Fraction(1, 2)) == Fraction(17, 4)

    def test_sequence_window(self):
        s = FiniteSequence(3, [1, 2, 3])
        assert s.horizon == 3
        assert s.value_at(4) == 2
        with pytest.raises(HorizonError):
            s.value_at(6)
        with pytest.raises(HorizonError):
            FiniteSequence(0, [])

    def test_sequence_addition_truncates_to_common_window(self):
        a = FiniteSequence(0, [1, 2, 3, 4])
        b = FiniteSequence(0, [10, 20])
        assert a + b == FiniteSequence(0, [11, 22])
        with pytest.raises(HeterogeneousColumnError):
            a + FiniteSequence(1, [1, 2])

    def test_scalar_multiples(self):
        assert 2 * Polynomial([1, 1]) == Polynomial([2, 2])
        assert Fraction(1, 3) * FiniteSequence(0, [3, 6]) == FiniteSequence(0, [1, 2])


class TestApply:
    def test_derivative(self):
        assert apply(DERIV, Polynomial([3, 2, 1])) == Polynomial([2, 2])

    def test_shift(self):
        fib = FiniteSequence(0, [1, 1, 2, 3, 5])
        assert apply(SHIFT, fib) == FiniteSequence(0, [1, 2, 3, 5])

    def test_zero_operator(self):
        assert apply(ZERO, Polynomial([3, 1])) == Polynomial()
        assert apply(ZERO, FiniteSequence(2, [1, 2, 3])) == FiniteSequence(2, [0, 0, 0])

    def test_variant_mismatch(self):
        with pytest.raises(TypeError):
            apply(SHIFT, Polynomial([1]))
        with pytest.raises(TypeError):
            apply(DERIV, FiniteSequence(0, [1, 2]))

    def test_horizon_exhaustion(self):
        with pytest.raises(HorizonError):
            apply(SHIFT, FiniteSequence(0, [1]))


class TestApplyPower:
    def test_zero_power_is_identity(self):
        s = FiniteSequence(0, [1, 2])
        p = Polynomial([1, 2, 3])
        assert power(SHIFT, s, 0) == s
        assert power(ZERO, p, 0) == p

    def test_derivative_cube(self):
        assert power(DERIV, Polynomial([0, 0, 0, 1]), 3) == Polynomial([6])

    def test_shift_twice(self):
        assert power(SHIFT, FiniteSequence(0, [1, 2, 3, 4]), 2) == FiniteSequence(0, [3, 4])

    def test_horizon_precondition(self):
        with pytest.raises(HorizonError):
            power(SHIFT, FiniteSequence(0, [1, 2, 3]), 3)

    @given(coeffs=poly_coeffs, i=st.integers(0, 3), j=st.integers(0, 3))
    @settings(max_examples=60, deadline=None)
    def test_composition(self, coeffs, i, j):
        p = Polynomial(coeffs)
        assert power(DERIV, p, i + j) == power(DERIV, power(DERIV, p, j), i)

    @given(coeffs=poly_coeffs)
    @settings(max_examples=60, deadline=None)
    def test_derivative_nilpotent(self, coeffs):
        p = Polynomial(coeffs)
        assert power(DERIV, p, p.degree() + 1).is_zero()

    @given(
        u=st.lists(st.integers(-9, 9), min_size=5, max_size=5),
        w=st.lists(st.integers(-9, 9), min_size=5, max_size=5),
        alpha=st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
        beta=st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6)),
    )
    @settings(max_examples=60, deadline=None)
    def test_linearity_on_sequences(self, u, w, alpha, beta):
        su, sw = FiniteSequence(0, u), FiniteSequence(0, w)
        mixed = alpha * su + beta * sw
        for kind in (SHIFT, ZERO):
            assert apply(kind, mixed) == alpha * apply(kind, su) + beta * apply(kind, sw)


class TestColumns:
    def test_homogeneity_enforced(self):
        with pytest.raises(HeterogeneousColumnError):
            ElementColumn([Polynomial([1]), FiniteSequence(0, [1])])
        with pytest.raises(HeterogeneousColumnError):
            ElementColumn([FiniteSequence(0, [1, 2]), FiniteSequence(0, [1, 2, 3])])
        with pytest.raises(HeterogeneousColumnError):
            ElementColumn([FiniteSequence(0, [1, 2]), FiniteSequence(1, [1, 2])])
        with pytest.raises(HeterogeneousColumnError):
            ElementColumn([])

    def test_apply_vector_shift(self):
        col = ElementColumn([FiniteSequence(0, [0, 1, 2, 3]), FiniteSequence(0, [5, 5, 5, 5])])
        shifted = apply_vector(SHIFT, col)
        assert shifted == ElementColumn(
            [FiniteSequence(0, [1, 2, 3]), FiniteSequence(0, [5, 5, 5])]
        )

    def test_lincomb_cancellation(self):
        e = Polynomial([4, 5])
        assert lincomb([1, -1], [e, e]).is_zero()
        s = FiniteSequence(0, [1, 2, 3])
        assert lincomb([1, -1], [s, s]).is_zero()

    def test_lincomb_validation(self):
        with pytest.raises(ValueError):
            lincomb([1, 2], [Polynomial([1])])
        with pytest.raises(ValueError):
            lincomb([], [])
        with pytest.raises(HeterogeneousColumnError):
            lincomb([1, 1], [FiniteSequence(0, [1, 2]), FiniteSequence(1, [1, 2])])
        with pytest.raises(TypeError):
            lincomb([1, 1], [Polynomial([1]), FiniteSequence(0, [1])])
        with pytest.raises(TypeError):
            lincomb([1, 1], [FiniteSequence(0, [1]), Polynomial([1])])
        with pytest.raises(TypeError):
            Polynomial([1]) + FiniteSequence(0, [1])


class TestScalarEquation:
    def test_first_order_tautology(self):
        # n = 1 with d_1 = 0: the equation is A(x) = psi, so psi := A(x) gives zero
        cp = CharPoly(1, (Fraction(0),))
        x = FiniteSequence(0, [3, 1, 4, 1, 5])
        psi = apply(SHIFT, x)
        assert eval_scalar_equation(cp, SHIFT, x, psi).is_zero()

    def test_second_order_manufactured(self):
        cp = CharPoly(2, (Fraction(-5), Fraction(-2)))  # from [[1,2],[3,4]]
        x = FiniteSequence(0, [1, 0, 2, 5, -3, 7])
        psi = (
            power(SHIFT, x, 2)
            + (-5) * power(SHIFT, x, 1)
            + (-2) * x
        )
        residual = eval_scalar_equation(cp, SHIFT, x, psi)
        assert residual.is_zero()
        assert residual.horizon == 4

    def test_perturbation_localizes(self):
        cp = CharPoly(2, (Fraction(-5), Fraction(-2)))
        x = FiniteSequence(0, [1, 0, 2, 5, -3, 7])
        psi = (
            power(SHIFT, x, 2)
            + (-5) * power(SHIFT, x, 1)
            + (-2) * x
        )
        bumped = psi + FiniteSequence(0, [0, 1, 0, 0])
        residual = eval_scalar_equation(cp, SHIFT, x, bumped)
        assert residual.values == (0, -1, 0, 0)

    def test_horizon_precondition(self):
        cp = CharPoly(2, (Fraction(0), Fraction(0)))
        with pytest.raises(HorizonError):
            eval_scalar_equation(cp, SHIFT, FiniteSequence(0, [1, 2]), FiniteSequence(0, [0]))


def fold_polynomials(scalars, coeff_lists):
    """sum_k scalars[k] * coeff_lists[k], one term at a time, on plain tuples."""
    acc = ()
    for q, coeffs in zip(scalars, coeff_lists):
        term = tuple(q * c for c in coeffs)
        width = max(len(acc), len(term))
        acc = tuple(
            (acc[k] if k < len(acc) else 0) + (term[k] if k < len(term) else 0) for k in range(width)
        )
    while acc and acc[-1] == 0:
        acc = acc[:-1]
    return acc


def fold_sequences(scalars, value_lists):
    """The same fold for sequence windows: each sum keeps the shorter window."""
    acc = None
    for q, values in zip(scalars, value_lists):
        term = tuple(q * v for v in values)
        acc = term if acc is None else tuple(a + t for a, t in zip(acc, term))
    return acc


scalars_st = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 6))
values_st = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
# pairwise coprime denominators, so the common denominators grow large
large_primes = (7853, 7867, 7873, 7877, 7879, 7883, 7901, 7907, 7919)
large_st = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(large_primes))


class TestLincomb:
    @given(
        terms=st.lists(st.tuples(scalars_st, st.lists(values_st, max_size=6)), min_size=1, max_size=5),
        lower=st.lists(values_st, max_size=5),
        cancel=st.booleans(),
    )
    @settings(max_examples=150, deadline=None)
    def test_polynomials_match_a_term_by_term_fold(self, terms, lower, cancel):
        scalars = [q for q, _ in terms]
        coeff_lists = [list(cs) for _, cs in terms]
        width = max(len(cs) for cs in coeff_lists)
        if cancel and width:
            # one more term whose leading coefficient cancels the sum's
            top = sum(q * cs[-1] for q, cs in zip(scalars, coeff_lists) if len(cs) == width)
            scalars.append(Fraction(1))
            coeff_lists.append((lower + [0] * width)[: width - 1] + [-top])
        combined = lincomb(scalars, [Polynomial(cs) for cs in coeff_lists])
        expected = fold_polynomials(scalars, coeff_lists)
        assert combined == Polynomial(expected)
        assert combined.coeffs == expected
        if cancel and width:
            assert combined.degree() < width - 1

    @given(
        terms=st.lists(
            st.tuples(scalars_st, st.lists(values_st, min_size=1, max_size=6)), min_size=1, max_size=5
        ),
        origin=st.integers(-3, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_sequences_match_a_term_by_term_fold(self, terms, origin):
        scalars = [q for q, _ in terms]
        value_lists = [values for _, values in terms]
        combined = lincomb(scalars, [FiniteSequence(origin, values) for values in value_lists])
        assert combined.origin == origin
        assert combined.values == fold_sequences(scalars, value_lists)
        assert combined.horizon == min(len(values) for values in value_lists)

    @given(
        terms=st.lists(
            st.tuples(st.one_of(st.just(Fraction(0)), large_st), st.lists(large_st, min_size=1, max_size=6)),
            min_size=1,
            max_size=6,
        ),
        all_zero=st.booleans(),
        origin=st.integers(-3, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_large_coprime_denominators_and_zero_scalars(self, terms, all_zero, origin):
        scalars = [Fraction(0) if all_zero else q for q, _ in terms]
        value_lists = [values for _, values in terms]
        poly = lincomb(scalars, [Polynomial(values) for values in value_lists])
        seq = lincomb(scalars, [FiniteSequence(origin, values) for values in value_lists])
        assert poly.coeffs == fold_polynomials(scalars, value_lists)
        assert seq.values == fold_sequences(scalars, value_lists)
        assert seq.origin == origin
        assert all(type(v) is Fraction for v in (*poly.coeffs, *seq.values))
        if all_zero:
            assert poly == Polynomial()
            assert seq == FiniteSequence(origin, [0] * min(len(values) for values in value_lists))

    def test_all_zero_scalars(self):
        seqs = [FiniteSequence(2, ["1/7919", 5, 6]), FiniteSequence(2, [4, "3/7853"])]
        assert lincomb([0, 0], seqs) == FiniteSequence(2, [0, 0])
        assert lincomb([0, 0], [Polynomial([1, 2]), Polynomial([0, 0, 3])]) == Polynomial()
        assert lincomb([0], [Polynomial()]) == Polynomial()

    @pytest.mark.parametrize("kind", [SHIFT, DERIV])
    def test_adjugate_route_combines_once_per_variable(self, kind, rng, monkeypatch):
        # each right-hand side is one combination of all n^2 (scalar, power entry) pairs
        calls = []
        original = lincomb

        def counting_lincomb(scalars, elements):
            calls.append(len(elements))
            return original(scalars, elements)

        patch_everywhere(monkeypatch, original, counting_lincomb)
        for n in (1, 2, 4):
            if kind is SHIFT:
                phi = random_sequence_column(rng, n, horizon=n + 3)
            else:
                phi = random_polynomial_column(rng, n, max_degree=4)
            calls.clear()
            total_reduce_adjugate(random_matrix(rng, n), phi, kind)
            assert calls == [n * n] * n
