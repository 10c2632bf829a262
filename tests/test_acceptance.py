"""Acceptance suite: one test per release criterion, exact equality throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Every check is zero-tolerance: the identities under test are
theorems over the rationals, so any mismatch is a bug, never noise.
"""

import json
import random
from fractions import Fraction

from conftest import (
    DATA_DIR,
    random_column,
    random_matrix,
    random_nonsingular_matrix,
    random_polynomial_column,
    random_rational,
    random_sequence_column,
)
from opreduce.cauchy import (
    derived_initial_conditions,
    iterate_difference,
    manufacture_solution,
    verify_total_reduction,
)
from opreduce.cli import main
from opreduce.exactcore import Matrix, mat_vec
from opreduce.faddeev import adjugate_coeffs, cayley_hamilton_check, char_poly
from opreduce.minors import delta_k, delta_vec
from opreduce.operators import OperatorKind
from opreduce.reduction import (
    cramer_via_zero_reduction,
    cramer_solve,
    total_reduce_adjugate,
    total_reduce_minors,
)

SHIFT = OperatorKind.SHIFT
DERIV = OperatorKind.DERIVATIVE
ZERO = OperatorKind.ZERO

MATRICES_PER_N = 34  # 34 * 6 dimensions >= 200 matrices
COLUMNS_PER_MATRIX = 5


def sampled_matrices(seed, nmax, per_n):
    rng = random.Random(seed)
    for n in range(1, nmax + 1):
        for _ in range(per_n):
            yield n, random_matrix(rng, n, bound=9), rng


def test_criterion_1_adjugate_coefficients_act_as_signed_minor_sums():
    matrices = 0
    comparisons = 0
    for n, b, rng in sampled_matrices(seed=101, nmax=6, per_n=MATRICES_PER_N):
        matrices += 1
        ac = adjugate_coeffs(b)
        for _ in range(COLUMNS_PER_MATRIX):
            v = random_column(rng, n, bound=9)
            for k in range(0, n):
                lhs = mat_vec(ac.coeffs[k], v)
                rhs = tuple((-1) ** k * c for c in delta_vec(b, k + 1, v))
                assert lhs == rhs
                comparisons += 1
    assert matrices >= 200
    print(f"ACCEPTANCE 1 PASS: B_k v = (-1)^k delta_(k+1)(B; v) exact on {matrices} matrices, {comparisons} comparisons")


def test_criterion_2_minor_sum_coupling_identity():
    matrices = 0
    comparisons = 0
    for n, b, rng in sampled_matrices(seed=202, nmax=6, per_n=MATRICES_PER_N):
        matrices += 1
        for _ in range(COLUMNS_PER_MATRIX):
            v = random_column(rng, n, bound=9)
            bv = mat_vec(b, v)
            for k in range(1, n + 1):
                lhs1 = delta_vec(b, k, bv)
                lhs2 = delta_vec(b, k + 1, v) if k + 1 <= n else (Fraction(0),) * n
                scale = delta_k(b, k)
                assert tuple(a + c for a, c in zip(lhs1, lhs2)) == tuple(scale * x for x in v)
                comparisons += 1
    assert matrices >= 200
    print(f"ACCEPTANCE 2 PASS: delta_k(B; Bv) + delta_(k+1)(B; v) = delta_k(B) v exact on {matrices} matrices, {comparisons} comparisons")


def test_criterion_3_characteristic_polynomial_route_agreement():
    matrices = 0
    for n, b, _ in sampled_matrices(seed=303, nmax=7, per_n=15):
        matrices += 1
        cp = char_poly(b)
        for k in range(1, n + 1):
            assert cp.coefficient(k) == (-1) ** k * delta_k(b, k)
    assert matrices >= 100
    print(f"ACCEPTANCE 3 PASS: trace-formula d_k = (-1)^k delta_k exact on {matrices} matrices up to n = 7")


def test_criterion_4_cayley_hamilton_termination():
    matrices = 0
    for _, b, _ in sampled_matrices(seed=303, nmax=7, per_n=15):
        matrices += 1
        assert cayley_hamilton_check(b, adjugate_coeffs(b))
    for _, b, _ in sampled_matrices(seed=101, nmax=6, per_n=MATRICES_PER_N):
        matrices += 1
        assert cayley_hamilton_check(b, adjugate_coeffs(b))
    print(f"ACCEPTANCE 4 PASS: B_(n-1) B + d_n I = 0 on all {matrices} sampled matrices")


def test_criterion_5_adjugate_and_minor_routes_identical():
    rng = random.Random(505)
    per_kind = {SHIFT: 0, DERIV: 0, ZERO: 0}
    for kind in (SHIFT, DERIV, ZERO):
        for n in range(1, 6):
            for _ in range(20):
                b = random_matrix(rng, n, bound=9)
                if kind is SHIFT:
                    phi = random_sequence_column(rng, n, horizon=n + 3)
                else:
                    phi = random_polynomial_column(rng, n, max_degree=6)
                left = total_reduce_adjugate(b, phi, kind)
                right = total_reduce_minors(b, phi, kind)
                assert left.cp == right.cp
                assert left.rhs_symbolic == right.rhs_symbolic
                assert left.rhs_evaluated == right.rhs_evaluated
                per_kind[kind] += 1
    assert all(count >= 100 for count in per_kind.values())
    counts = ", ".join(f"{kind.value}: {count}" for kind, count in per_kind.items())
    print(f"ACCEPTANCE 5 PASS: both reduction routes identical on {counts} systems")


def test_criterion_6_manufactured_solutions_shift():
    rng = random.Random(606)
    runs = 0
    for n in range(1, 6):
        for _ in range(5):
            b = random_matrix(rng, n, bound=9)
            x = random_sequence_column(rng, n, horizon=n + 20)
            phi = manufacture_solution(b, x, SHIFT)
            report = verify_total_reduction(b, x, phi, SHIFT)
            assert report.route_agreement
            for residual in report.residuals:
                assert residual.is_zero
                assert residual.window == (0, 20)  # the full comparable window
            runs += 1
    print(f"ACCEPTANCE 6 PASS: shift-kind manufactured solutions give zero residuals on {runs} systems (window length 20)")


def test_criterion_7_manufactured_solutions_derivative():
    rng = random.Random(707)
    runs = 0
    for n in range(1, 6):
        for _ in range(5):
            b = random_matrix(rng, n, bound=9)
            x = random_polynomial_column(rng, n, max_degree=6)
            phi = manufacture_solution(b, x, DERIV)
            report = verify_total_reduction(b, x, phi, DERIV)
            assert report.route_agreement
            assert all(r.is_zero for r in report.residuals)
            runs += 1
    print(f"ACCEPTANCE 7 PASS: derivative-kind manufactured solutions give identically zero residual polynomials on {runs} systems")


def gauss_solve(b: Matrix, rhs) -> tuple[Fraction, ...]:
    """Independent oracle: Gauss-Jordan elimination over exact rationals."""
    n = b.n
    rows = [list(row) + [r] for row, r in zip(b.rows(), rhs)]
    for col in range(n):
        pivot_row = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
        pivot = rows[col][col]
        rows[col] = [x / pivot for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != 0:
                factor = rows[r][col]
                rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return tuple(rows[r][n] for r in range(n))


def test_criterion_8_cramer_corollary():
    rng = random.Random(808)
    runs = 0
    for n in range(1, 7):
        for _ in range(17):
            b = random_nonsingular_matrix(rng, n, bound=9)
            phi = tuple(random_rational(rng, 9) for _ in range(n))
            x = cramer_solve(b, phi)
            assert tuple(a + c for a, c in zip(mat_vec(b, x), phi)) == (Fraction(0),) * n
            assert x == gauss_solve(b, tuple(-c for c in phi))
            assert x == cramer_via_zero_reduction(b, phi)
            runs += 1
    assert runs >= 100
    print(f"ACCEPTANCE 8 PASS: cramer solution, elimination oracle and zero-operator pipeline agree on {runs} nonsingular systems")


def test_criterion_9_derived_initial_conditions_match_iteration():
    rng = random.Random(909)
    problems = 0
    for n in range(2, 6):
        for _ in range(25):
            b = random_matrix(rng, n, bound=9)
            phi = random_sequence_column(rng, n, horizon=n + 2)
            x0 = random_column(rng, n, bound=9)
            trajectory = iterate_difference(b, phi, x0, n - 1)
            derived = derived_initial_conditions(b, phi, x0)
            for i in range(1, n + 1):
                for j in range(1, n):
                    assert derived[i - 1][j - 1] == trajectory[i - 1].value_at(j)
            problems += 1
    assert problems >= 100
    print(f"ACCEPTANCE 9 PASS: derived initial conditions equal direct iteration on {problems} problems")


def test_criterion_10_worked_example_regressions(capsys):
    # 2x2: right-hand sides expand term-for-term to
    #   A(phi_1) - b22 phi_1 + b12 phi_2   and   A(phi_2) + b21 phi_1 - b11 phi_2
    rng = random.Random(1010)
    for _ in range(20):
        b11, b12, b21, b22 = (random_rational(rng, 9) for _ in range(4))
        b = Matrix([[b11, b12], [b21, b22]])
        phi = random_sequence_column(rng, 2, horizon=5)
        reduced = total_reduce_minors(b, phi, SHIFT)
        expected = [
            [(1, 1, 1, (Fraction(1), Fraction(0))), (2, -1, 0, (b22, -b12))],
            [(1, 1, 1, (Fraction(0), Fraction(1))), (2, -1, 0, (-b21, b11))],
        ]
        for i in range(2):
            got = [(t.order, t.sign, t.power, t.coeffs) for t in reduced.rhs_symbolic[i]]
            assert got == expected[i]
    # the characteristic polynomial carries the alternating minor-sum signs
    b = Matrix([[1, 2], [3, 4]])
    cp = char_poly(b)
    assert cp.coefficient(1) == -delta_k(b, 1)
    assert cp.coefficient(2) == delta_k(b, 2)

    # 3x3 golden file: three determinant groups per variable, signs +, -, +
    golden = json.loads((DATA_DIR / "derivative_3x3_golden.json").read_text(encoding="utf-8"))
    assert len(golden["rhs"]) == 3
    for block in golden["rhs"]:
        assert [t["sign"] for t in block["terms"]] == [1, -1, 1]
        assert [t["order"] for t in block["terms"]] == [1, 2, 3]
        assert [t["power"] for t in block["terms"]] == [2, 1, 0]
    # and the CLI reproduces it byte for byte
    rc = main(["reduce", "--spec", str(DATA_DIR / "derivative_3x3.json"), "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out == (DATA_DIR / "derivative_3x3_golden.json").read_text(encoding="utf-8")
    print("ACCEPTANCE 10 PASS: worked-example expansions match term-for-term; 3x3 golden file reproduced byte-identically")
