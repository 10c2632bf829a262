"""The contract of the package's records: construction, equality, hashing, the cached right-hand side."""

from fractions import Fraction

import pytest

from conftest import DATA_DIR, random_matrix, random_sequence_column
from opreduce import reduction
from opreduce.cauchy import VerificationReport
from opreduce.exactcore import DimensionError, Matrix, identity
from opreduce.faddeev import AdjugateCoeffs, CharPoly, adjugate_coeffs, adjugate_coeffs_minors, char_poly
from opreduce.operators import ElementColumn, OperatorKind, Polynomial
from opreduce.reduction import ReducedSystem, total_reduce_adjugate, total_reduce_minors
from opreduce.specio import SystemSpec, load_spec


def assert_equal_records(a, b) -> None:
    assert a is not b
    assert a == b and not a != b
    assert hash(a) == hash(b)


class TestEquality:
    def test_char_poly(self, rng):
        for n in range(1, 6):
            b = random_matrix(rng, n)
            cp = char_poly(b)
            assert_equal_records(cp, CharPoly(tuple(cp.d)))
            assert_equal_records(cp, adjugate_coeffs_minors(b).cp)
            assert cp != CharPoly((*cp.d[:-1], cp.d[-1] + 1))
            assert cp != cp.d and cp.d != cp
            assert cp.__eq__(cp.d) is NotImplemented
        assert len({CharPoly((Fraction(1),)), CharPoly((Fraction(1),)), CharPoly((Fraction(2),))}) == 2

    def test_adjugate_coeffs(self, rng):
        for n in range(1, 6):
            b = random_matrix(rng, n)
            ac = adjugate_coeffs(b)
            assert_equal_records(ac, AdjugateCoeffs(tuple(ac.coeffs), CharPoly(tuple(ac.cp.d))))
            assert_equal_records(ac, adjugate_coeffs_minors(b))
            other = adjugate_coeffs(Matrix([[x + 1 for x in row] for row in b.rows()]))
            assert ac != other
            assert ac != (ac.coeffs, ac.cp) and ac != ac.cp
            assert ac.__eq__((ac.coeffs, ac.cp)) is NotImplemented

    def test_reduced_system(self, rng):
        for n in range(1, 5):
            b = random_matrix(rng, n)
            phi = random_sequence_column(rng, n, n + 2)
            reduced = total_reduce_adjugate(b, phi, OperatorKind.SHIFT)
            assert_equal_records(reduced, total_reduce_minors(b, phi, OperatorKind.SHIFT))
            assert_equal_records(reduced, ReducedSystem(adjugate_coeffs(b), phi, OperatorKind.SHIFT))
            assert reduced != ReducedSystem(reduced.ac, phi, OperatorKind.ZERO)
            assert reduced != (reduced.ac, reduced.phi, reduced.kind) and reduced != reduced.ac
            assert reduced.__eq__(reduced.ac) is NotImplemented

    def test_records_are_slotted(self):
        spec = load_spec(str(DATA_DIR / "shift_2x2.json"))
        reduced = total_reduce_adjugate(spec.matrix, spec.phi, spec.operator)
        report = VerificationReport(reduced, True, ())
        for record in (reduced.cp, reduced.ac, reduced, report, spec):
            assert not hasattr(record, "__dict__")


class TestRhsEvaluated:
    def test_evaluated_once(self, rng, monkeypatch):
        calls = []
        original = reduction._operator_powers

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(reduction, "_operator_powers", counted)
        reduced = total_reduce_adjugate(random_matrix(rng, 3), random_sequence_column(rng, 3, 6), OperatorKind.SHIFT)
        assert calls == []
        first = reduced.rhs_evaluated
        assert reduced.rhs_evaluated is first
        assert len(calls) == 1

    def test_equality_ignores_the_evaluated_rhs(self, rng):
        b, phi = random_matrix(rng, 3), random_sequence_column(rng, 3, 6)
        read = total_reduce_adjugate(b, phi, OperatorKind.SHIFT)
        assert len(read.rhs_evaluated) == 3
        unread = total_reduce_adjugate(b, phi, OperatorKind.SHIFT)
        assert_equal_records(read, unread)


class TestConstruction:
    def test_system_spec_by_keyword(self):
        matrix, phi = identity(2), ElementColumn([Polynomial([1]), Polynomial([2])])
        spec = SystemSpec(matrix=matrix, operator=OperatorKind.ZERO, phi=phi)
        assert (spec.matrix, spec.operator, spec.phi) == (matrix, OperatorKind.ZERO, phi)
        assert (spec.initial, spec.horizon, spec.x) == (None, None, None)
        assert spec.n == 2
        full = SystemSpec(matrix, OperatorKind.ZERO, phi, (0, (Fraction(1), Fraction(2))), 4, phi)
        assert (full.initial, full.horizon, full.x) == ((0, (Fraction(1), Fraction(2))), 4, phi)

    def test_verification_report_by_keyword(self):
        spec = load_spec(str(DATA_DIR / "shift_2x2.json"))
        reduced = total_reduce_adjugate(spec.matrix, spec.phi, spec.operator)
        report = VerificationReport(reduced=reduced, route_agreement=False, residuals=())
        assert (report.reduced, report.route_agreement, report.residuals) == (reduced, False, ())
        assert not report.all_zero()

    def test_validation_messages(self, rng):
        with pytest.raises(ValueError, match=r"^characteristic polynomial needs n >= 1 trailing coefficients$"):
            CharPoly(())
        ac = adjugate_coeffs(random_matrix(rng, 2))
        with pytest.raises(ValueError, match=r"^adjugate expansion needs exactly n matrix coefficients$"):
            AdjugateCoeffs(ac.coeffs, char_poly(random_matrix(rng, 3)))
        with pytest.raises(DimensionError, match=r"^adjugate coefficients of order 2 must be 2x2$"):
            AdjugateCoeffs((ac.coeffs[0], identity(3)), ac.cp)
