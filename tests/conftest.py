import random
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

from opreduce.exactcore import Matrix, det, parse_rational
from opreduce.operators import ElementColumn, FiniteSequence, Polynomial
from opreduce.specio import reduced_to_json

# hypothesis imports its patch writer (which imports libcst, where installed) only
# when reporting a failed property; under -W error libcst's deprecated
# mypy_extensions.TypedDict import would then end the whole session
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated", category=DeprecationWarning
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

DATA_DIR = Path(__file__).parent / "data"

# pairwise coprime denominators, so common denominators grow large
LARGE_PRIMES = (7853, 7867, 7873, 7877, 7879, 7883, 7901, 7907, 7919)


def random_rational(rng: random.Random, bound: int = 9) -> Fraction:
    return Fraction(rng.randint(-bound, bound), rng.randint(1, bound))


def random_matrix(rng: random.Random, n: int, bound: int = 9) -> Matrix:
    return Matrix(
        tuple(random_rational(rng, bound) for _ in range(n)) for _ in range(n)
    )


def random_nonsingular_matrix(rng: random.Random, n: int, bound: int = 9) -> Matrix:
    while True:
        m = random_matrix(rng, n, bound)
        if det(m) != 0:
            return m


def random_column(rng: random.Random, n: int, bound: int = 9) -> tuple[Fraction, ...]:
    return tuple(random_rational(rng, bound) for _ in range(n))


def random_sequence_column(
    rng: random.Random, n: int, horizon: int, origin: int = 0, bound: int = 9
) -> ElementColumn:
    return ElementColumn(
        FiniteSequence(origin, tuple(random_rational(rng, bound) for _ in range(horizon)))
        for _ in range(n)
    )


def random_polynomial_column(
    rng: random.Random, n: int, max_degree: int = 6, bound: int = 9
) -> ElementColumn:
    return ElementColumn(
        Polynomial(tuple(random_rational(rng, bound) for _ in range(rng.randint(1, max_degree + 1))))
        for _ in range(n)
    )


def zero_matrix(n: int) -> Matrix:
    return Matrix([[0] * n for _ in range(n)])


def matmul(a: Matrix, b: Matrix) -> Matrix:
    """Reference product over Fraction, entry by entry."""
    assert a.n == b.n
    cols = tuple(zip(*b.rows()))
    return Matrix([sum((x * y for x, y in zip(row, col)), Fraction(0)) for col in cols] for row in a.rows())


def plus_identity(m: Matrix, c) -> Matrix:
    """m + c*I over Fraction."""
    return Matrix([x + c if r == col else x for col, x in enumerate(row)] for r, row in enumerate(m.rows()))


def serialized_terms(reduced) -> list[list[tuple]]:
    """(order, sign, power, coeffs) of every reported term, per variable, coeffs parsed back."""
    return [
        [(t["order"], t["sign"], t["power"], tuple(map(parse_rational, t["coeffs"]))) for t in block["terms"]]
        for block in reduced_to_json(reduced)["rhs"]
    ]


def patch_everywhere(monkeypatch, original, replacement) -> None:
    """Replace ``original`` at every attribute of every loaded opreduce module holding it."""
    for name, module in list(sys.modules.items()):
        if name == "opreduce" or name.startswith("opreduce."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240211)
