from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    LARGE_PRIMES,
    patch_everywhere,
    random_matrix,
    random_polynomial_column,
    random_sequence_column,
)
from opreduce import operators as operators_module
from opreduce.cauchy import iterate_difference
from opreduce.exactcore import Matrix, as_rational, clear_denominators
from opreduce.faddeev import CharPoly, adjugate_coeffs
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

    @pytest.mark.parametrize("origin", [1.5, "3", True])
    def test_sequence_origin_must_be_an_int(self, origin):
        with pytest.raises(TypeError):
            FiniteSequence(origin, [1])

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

    def test_every_entry_must_be_an_element(self):
        # an entry that is no element is named as such, not reported as a mix of variants
        with pytest.raises(TypeError, match="not an operator element: 5"):
            ElementColumn([Polynomial([1]), 5])
        with pytest.raises(TypeError, match="not an operator element: 5"):
            ElementColumn([5, Polynomial([1])])
        with pytest.raises(TypeError, match="not an operator element: 'x'"):
            ElementColumn([FiniteSequence(0, [1]), Polynomial([1]), "x"])

    def test_apply_vector_shift(self):
        col = ElementColumn([FiniteSequence(0, [0, 1, 2, 3]), FiniteSequence(0, [5, 5, 5, 5])])
        shifted = apply_vector(SHIFT, col)
        assert shifted == ElementColumn(
            [FiniteSequence(0, [1, 2, 3]), FiniteSequence(0, [5, 5, 5])]
        )

    def test_lincomb_cancellation(self):
        e = Polynomial([4, 5])
        assert lincomb(clear_denominators([[1, -1]]), [e, e])[0].is_zero()
        s = FiniteSequence(0, [1, 2, 3])
        assert lincomb(clear_denominators([[1, -1]]), [s, s])[0].is_zero()

    def test_lincomb_validation(self):
        with pytest.raises(ValueError):
            lincomb(clear_denominators([[1, 2]]), [Polynomial([1])])
        with pytest.raises(ValueError):
            lincomb(clear_denominators([[]]), [])
        with pytest.raises(HeterogeneousColumnError):
            lincomb(clear_denominators([[1, 1]]), [FiniteSequence(0, [1, 2]), FiniteSequence(1, [1, 2])])
        with pytest.raises(TypeError):
            lincomb(clear_denominators([[1, 1]]), [Polynomial([1]), FiniteSequence(0, [1])])
        with pytest.raises(TypeError):
            lincomb(clear_denominators([[1, 1]]), [FiniteSequence(0, [1]), Polynomial([1])])
        with pytest.raises(TypeError):
            Polynomial([1]) + FiniteSequence(0, [1])


class TestScalarEquation:
    def test_first_order_tautology(self):
        # n = 1 with d_1 = 0: the equation is A(x) = psi, so psi := A(x) gives zero
        cp = CharPoly((Fraction(0),))
        x = FiniteSequence(0, [3, 1, 4, 1, 5])
        psi = apply(SHIFT, x)
        assert eval_scalar_equation(cp, SHIFT, x, psi).is_zero()

    def test_second_order_manufactured(self):
        cp = CharPoly((Fraction(-5), Fraction(-2)))  # from [[1,2],[3,4]]
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
        cp = CharPoly((Fraction(-5), Fraction(-2)))
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
        cp = CharPoly((Fraction(0), Fraction(0)))
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
large_st = st.builds(Fraction, st.integers(-9, 9), st.sampled_from(LARGE_PRIMES))


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
        combined = lincomb(clear_denominators([scalars]), [Polynomial(cs) for cs in coeff_lists])[0]
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
        combined = lincomb(
            clear_denominators([scalars]), [FiniteSequence(origin, values) for values in value_lists]
        )[0]
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
        poly = lincomb(clear_denominators([scalars]), [Polynomial(values) for values in value_lists])[0]
        seq = lincomb(
            clear_denominators([scalars]), [FiniteSequence(origin, values) for values in value_lists]
        )[0]
        assert poly.coeffs == fold_polynomials(scalars, value_lists)
        assert seq.values == fold_sequences(scalars, value_lists)
        assert seq.origin == origin
        assert all(type(v) is Fraction for v in (*poly.coeffs, *seq.values))
        if all_zero:
            assert poly == Polynomial()
            assert seq == FiniteSequence(origin, [0] * min(len(values) for values in value_lists))

    @given(
        value_lists=st.lists(
            st.lists(st.one_of(values_st, large_st), min_size=1, max_size=6), min_size=1, max_size=5
        ),
        data=st.data(),
        origin=st.integers(-3, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_rows_match_single_row_folds(self, value_lists, data, origin):
        m = len(value_lists)
        rows = data.draw(
            st.lists(st.lists(st.one_of(scalars_st, large_st), min_size=m, max_size=m), min_size=1, max_size=4)
        )
        # an element whose scalar is zero in every row, and an all-zero row among the others
        dead = data.draw(st.integers(0, m - 1))
        rows = [[Fraction(0) if j == dead else q for j, q in enumerate(row)] for row in rows]
        rows.insert(data.draw(st.integers(0, len(rows))), [Fraction(0)] * m)
        polys = lincomb(clear_denominators(rows), [Polynomial(values) for values in value_lists])
        seqs = lincomb(clear_denominators(rows), [FiniteSequence(origin, values) for values in value_lists])
        assert len(polys) == len(seqs) == len(rows)
        for row, poly, seq in zip(rows, polys, seqs):
            assert poly.coeffs == fold_polynomials(row, value_lists)
            assert seq.values == fold_sequences(row, value_lists)
            assert seq.origin == origin
            assert all(type(v) is Fraction for v in (*poly.coeffs, *seq.values))

    @given(
        value_lists=st.lists(
            st.lists(st.one_of(values_st, large_st), min_size=1, max_size=6), min_size=1, max_size=4
        ),
        lower=st.lists(values_st, max_size=5),
        data=st.data(),
        origin=st.integers(-3, 3),
    )
    @settings(max_examples=100, deadline=None)
    def test_every_producer_carries_its_values_in_its_int_form(self, value_lists, lower, data, origin):
        def check(e, reduced=False):
            den, ints = e.int_form()
            values = e.values
            assert type(den) is int and den > 0 and len(ints) == len(values)
            assert all(Fraction(a, den) == v for a, v in zip(ints, values))
            # a combination divides out gcd(D, *ints), so a zero result has D = 1
            assert not reduced or gcd(den, *ints) == 1
            # the shared storage: one zero test, one equality and hash for both variants
            assert e.is_zero() == all(v == 0 for v in values)
            rebuilt = FiniteSequence(e.origin, values) if isinstance(e, FiniteSequence) else Polynomial(values)
            assert rebuilt == e and hash(rebuilt) == hash(e)
            if values:
                poly, seq = Polynomial(values), FiniteSequence(e.origin or 0, values)
                assert poly != seq and seq != poly

        def check_chain(e, reduced=False):
            # every operator power down to horizon 1 or the zero polynomial
            check(e, reduced)
            while e.horizon > 1 if isinstance(e, FiniteSequence) else not e.is_zero():
                e = apply(SHIFT if isinstance(e, FiniteSequence) else DERIV, e)
                check(e)

        m = len(value_lists)
        seqs = [FiniteSequence(origin, list(map(str, values))) for values in value_lists]
        polys = [Polynomial(map(str, values)) for values in value_lists]
        rows = data.draw(
            st.lists(
                st.lists(st.one_of(st.just(Fraction(0)), scalars_st, large_st), min_size=m, max_size=m),
                min_size=1,
                max_size=3,
            )
        )
        rows.append([Fraction(0)] * m)
        # same leading coefficient as polys[0], so their difference strips trailing zeros
        top = value_lists[0][-1]
        twin = Polynomial((lower + [0] * len(value_lists[0]))[: len(value_lists[0]) - 1] + [top])
        n = data.draw(st.integers(1, 3))
        scalar = st.one_of(values_st, large_st)
        column = st.lists(scalar, min_size=n, max_size=n)
        phi = ElementColumn(
            FiniteSequence(origin, data.draw(st.lists(scalar, min_size=5, max_size=5))) for _ in range(n)
        )
        b = Matrix(data.draw(st.lists(column, min_size=n, max_size=n)))
        trajectories = iterate_difference(b, phi, data.draw(column), 5)
        for e in (*seqs, *polys, *trajectories):
            check_chain(e)
        for e in (*seqs, *polys, *trajectories):
            check_chain(0 * e, reduced=True)
        for e in (
            *lincomb(clear_denominators(rows), seqs),
            *lincomb(clear_denominators(rows), polys),
            *lincomb(clear_denominators([[1, -1]]), [polys[0], twin]),
            *lincomb(clear_denominators([[1, -1]]), [seqs[0], seqs[0]]),
            *lincomb(clear_denominators([[2, as_rational("1/7919")]]), [trajectories[0], trajectories[-1]]),
        ):
            check_chain(e, reduced=True)

    def test_row_validation(self):
        with pytest.raises(ValueError):
            lincomb(clear_denominators([]), [Polynomial([1])])
        with pytest.raises(ValueError):
            lincomb(clear_denominators([[1], [1, 2]]), [Polynomial([1])])
        with pytest.raises(ValueError):
            lincomb(clear_denominators([[1, 2], [1]]), [Polynomial([1]), Polynomial([2])])

    def test_all_zero_scalars(self):
        seqs = [FiniteSequence(2, ["1/7919", 5, 6]), FiniteSequence(2, [4, "3/7853"])]
        assert lincomb(clear_denominators([[0, 0]]), seqs)[0] == FiniteSequence(2, [0, 0])
        assert lincomb(clear_denominators([[0, 0]]), [Polynomial([1, 2]), Polynomial([0, 0, 3])])[0] == Polynomial()
        assert lincomb(clear_denominators([[0]]), [Polynomial()])[0] == Polynomial()

    @pytest.mark.parametrize("kind", [SHIFT, DERIV])
    def test_adjugate_route_combines_once_per_variable(self, kind, rng, monkeypatch):
        # all n right-hand sides are one combination: n rows of scalars over the n^2 power entries
        calls = []
        original = lincomb

        def counting_lincomb(scalars, elements):
            _, scalar_rows = scalars
            calls.append((len(scalar_rows), {len(row) for row in scalar_rows}, len(elements)))
            return original(scalars, elements)

        patch_everywhere(monkeypatch, original, counting_lincomb)
        for n in (1, 2, 4):
            if kind is SHIFT:
                phi = random_sequence_column(rng, n, horizon=n + 3)
            else:
                phi = random_polynomial_column(rng, n, max_degree=4)
            calls.clear()
            # the column is evaluated when first read
            total_reduce_adjugate(random_matrix(rng, n), phi, kind).rhs_evaluated
            assert calls == [(n, {n * n}, n * n)]


class TestValuesOnFirstRead:
    """Shifts, derivatives and combinations are born from their integer forms alone."""

    @pytest.fixture
    def made(self, monkeypatch):
        # every Fraction that opreduce.operators builds, by its module-level name
        made = []

        def counting(*args):
            made.append(args)
            return Fraction(*args)

        monkeypatch.setattr(operators_module, "Fraction", counting)
        return made

    @staticmethod
    def power_values(kind, e, j):
        """Values of A^j e, one application at a time on plain `Fraction` tuples."""
        values = e.values
        for _ in range(j):
            if kind is SHIFT:
                values = values[1:]
            elif kind is DERIV:
                values = tuple(k * c for k, c in enumerate(values) if k >= 1)
            else:
                values = () if isinstance(e, Polynomial) else (Fraction(0),) * len(values)
        return values

    @pytest.mark.parametrize("kind", [SHIFT, DERIV, ZERO])
    def test_right_hand_sides(self, kind, rng, made):
        for n in (1, 2, 4):
            if kind is DERIV:
                phi = random_polynomial_column(rng, n, max_degree=5)
            else:
                phi = random_sequence_column(rng, n, horizon=n + 3, origin=-2)
            b = random_matrix(rng, n)
            made.clear()
            rhs = total_reduce_adjugate(b, phi, kind).rhs_evaluated
            assert made == []
            fold = fold_sequences if isinstance(phi[0], FiniteSequence) else fold_polynomials
            powers = [self.power_values(kind, e, n - k) for k in range(1, n + 1) for e in phi]
            for i, e in enumerate(rhs):
                scalars = [c for coeff in adjugate_coeffs(b).coeffs for c in coeff.rows()[i]]
                assert e.values == fold(scalars, powers)
            assert made

    def test_derivative_powers(self, made):
        p = Polynomial(["1/2", "-3/7", 5, "2/9", "1/7919"])
        made.clear()
        chain = [p]
        while not chain[-1].is_zero():
            chain.append(apply(DERIV, chain[-1]))
        assert made == []
        for j, e in enumerate(chain):
            assert e.coeffs == self.power_values(DERIV, p, j)
            assert e.degree() == len(e.coeffs) - 1

    def test_shifts(self, made):
        # the form (6, [3, 2, 12, 9]) of 1/2, 1/3, 2, 3/2 shifts to (6, [2, 12, 9]), not reduced
        s = FiniteSequence(5, ["1/2", "1/3", 2, "3/2"])
        combined = lincomb(clear_denominators([[Fraction(1, 7919), 2]]), [s, s])[0]
        made.clear()
        shifted = [apply(SHIFT, s), apply(SHIFT, apply(SHIFT, s)), apply(SHIFT, combined), apply(SHIFT, combined)]
        assert made == []
        assert shifted[0].int_form() == (6, [2, 12, 9])
        assert shifted[1].int_form() == (6, [12, 9])
        assert [e.horizon for e in shifted] == [3, 2, 3, 3]
        assert shifted[0].values == (Fraction(1, 3), 2, Fraction(3, 2))
        assert shifted[1].values == (2, Fraction(3, 2))
        expected = fold_sequences([Fraction(1, 7919), 2], [s.values, s.values])[1:]
        assert shifted[2].values == shifted[3].values == expected
        assert all(type(v) is Fraction for e in shifted for v in e.values)
        assert shifted[0] == FiniteSequence(5, ["1/3", 2, "3/2"])
