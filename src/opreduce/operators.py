"""Concrete linear operators and the vector-space elements they act on.

Three operator kinds are supported: the shift operator on finite rational
sequences, the formal derivative on rational-coefficient polynomials, and the
zero operator on either (which degenerates the whole reduction pipeline to
Cramer's rule).

Sequences are finite tables, not closed-form generators: a shift consumes one
step of horizon instead of inventing data, so callers must provision enough
horizon for the verification window they want.  Every combination of
elements goes through `lincomb`: sequences with the same origin combine on
the largest window where all are defined, polynomials on the longest
coefficient list.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence, Union

from .exactcore import as_column, as_rational, clear_denominators, format_rational


class HorizonError(ValueError):
    """A sequence operation ran out of horizon."""


class HeterogeneousColumnError(ValueError):
    """Column entries mix variants, origins or horizons."""


class OperatorKind(enum.Enum):
    SHIFT = "shift"
    DERIVATIVE = "derivative"
    ZERO = "zero"

    @classmethod
    def from_name(cls, name: str) -> "OperatorKind":
        for kind in cls:
            if kind.value == name:
                return kind
        raise ValueError(f"unknown operator kind {name!r}")


class _Element:
    """Element arithmetic, all of it through `lincomb`."""

    __slots__ = ()

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return lincomb((1, 1), (self, other))

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return lincomb((1, -1), (self, other))

    def __neg__(self):
        return lincomb((-1,), (self,))

    def __rmul__(self, scalar):
        return lincomb((scalar,), (self,))

    __mul__ = __rmul__


class Polynomial(_Element):
    """Rational-coefficient polynomial, ascending degree, trailing zeros stripped."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def derivative(self) -> "Polynomial":
        return Polynomial(k * c for k, c in enumerate(self.coeffs) if k >= 1)

    def evaluate(self, t) -> Fraction:
        point = as_rational(t)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * point + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(("Polynomial", self.coeffs))

    def __repr__(self) -> str:
        return f"Polynomial([{', '.join(format_rational(c) for c in self.coeffs)}])"


class FiniteSequence(_Element):
    """Finite window of a rational sequence: values e(t0), ..., e(t0 + H - 1)."""

    __slots__ = ("origin", "values")

    def __init__(self, origin: int, values: Iterable):
        vals = as_column(values)
        if not vals:
            raise HorizonError("sequence needs horizon >= 1")
        self.origin = int(origin)
        self.values: tuple[Fraction, ...] = vals

    @property
    def horizon(self) -> int:
        return len(self.values)

    def is_zero(self) -> bool:
        return all(v == 0 for v in self.values)

    def value_at(self, t: int) -> Fraction:
        k = t - self.origin
        if not 0 <= k < self.horizon:
            raise HorizonError(f"time {t} outside window [{self.origin}, {self.origin + self.horizon - 1}]")
        return self.values[k]

    def shift(self) -> "FiniteSequence":
        """New window with value e(t+1) at each t; horizon shrinks by one."""
        if self.horizon < 2:
            raise HorizonError("cannot shift a horizon-1 sequence")
        return FiniteSequence(self.origin, self.values[1:])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteSequence)
            and self.origin == other.origin
            and self.values == other.values
        )

    def __hash__(self) -> int:
        return hash(("FiniteSequence", self.origin, self.values))

    def __repr__(self) -> str:
        vals = ", ".join(format_rational(v) for v in self.values)
        return f"FiniteSequence(origin={self.origin}, values=[{vals}])"


OperatorElement = Union[Polynomial, FiniteSequence]


class ElementColumn:
    """Homogeneous column of operator elements.

    All entries must share a variant, and sequence entries must share origin
    and horizon.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[OperatorElement]):
        items = tuple(entries)
        if not items:
            raise HeterogeneousColumnError("column needs at least one entry")
        first = items[0]
        if isinstance(first, FiniteSequence):
            for e in items[1:]:
                if not isinstance(e, FiniteSequence):
                    raise HeterogeneousColumnError("column mixes sequences and polynomials")
                if e.origin != first.origin or e.horizon != first.horizon:
                    raise HeterogeneousColumnError("sequence column entries must share origin and horizon")
        elif isinstance(first, Polynomial):
            for e in items[1:]:
                if not isinstance(e, Polynomial):
                    raise HeterogeneousColumnError("column mixes sequences and polynomials")
        else:
            raise TypeError(f"not an operator element: {first!r}")
        self.entries = items

    @property
    def variant(self) -> str:
        return "sequence" if isinstance(self.entries[0], FiniteSequence) else "polynomial"

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, idx: int) -> OperatorElement:
        return self.entries[idx]

    def __eq__(self, other) -> bool:
        return isinstance(other, ElementColumn) and self.entries == other.entries

    def __hash__(self) -> int:
        return hash(self.entries)

    def __repr__(self) -> str:
        return f"ElementColumn({list(self.entries)!r})"


def apply(kind: OperatorKind, e: OperatorElement) -> OperatorElement:
    """One application of the operator to an element."""
    if kind is OperatorKind.ZERO:
        return 0 * e
    if kind is OperatorKind.SHIFT:
        if not isinstance(e, FiniteSequence):
            raise TypeError("shift operator acts on sequences")
        return e.shift()
    if kind is OperatorKind.DERIVATIVE:
        if not isinstance(e, Polynomial):
            raise TypeError("derivative operator acts on polynomials")
        return e.derivative()
    raise ValueError(f"unknown operator kind {kind!r}")


def apply_vector(kind: OperatorKind, col: ElementColumn) -> ElementColumn:
    """One application of the operator to every entry of a column."""
    return ElementColumn(apply(kind, e) for e in col)


def lincomb(scalars: Sequence, elements: Sequence[OperatorElement]) -> OperatorElement:
    """Exact rational linear combination of elements of one variant.

    Builds one element: sequences (one origin) are summed value by value on
    the shortest window, polynomials coefficient by coefficient up to the
    longest coefficient list.  The nonzero scalars are brought to one
    denominator and all element values to another, so each output value is
    one integer dot product, made a `Fraction` once.
    """
    if len(scalars) != len(elements):
        raise ValueError("lincomb needs matching lengths")
    if not elements:
        raise ValueError("lincomb needs at least one element")
    coeffs = as_column(scalars)
    first = elements[0]
    if not isinstance(first, (Polynomial, FiniteSequence)) or any(
        not isinstance(e, type(first)) for e in elements
    ):
        raise TypeError("lincomb needs elements of one variant")
    if isinstance(first, FiniteSequence):
        if any(e.origin != first.origin for e in elements):
            raise HeterogeneousColumnError("cannot combine sequences with different origins")
        rows = [e.values for e in elements]
        width = min(len(row) for row in rows)
    else:
        rows = [e.coeffs for e in elements]
        width = max(len(row) for row in rows)
    live = [(q, row[:width]) for q, row in zip(coeffs, rows) if q]
    q_den, (q_ints,) = clear_denominators([[q for q, _ in live]])
    v_den, v_ints = clear_denominators([row for _, row in live])
    den = q_den * v_den
    padded = (row + [0] * (width - len(row)) for row in v_ints)
    # with no nonzero scalar there are no columns, and the result is zero on the same width
    sums = [Fraction(sum(map(mul, q_ints, col)), den) for col in zip(*padded)] or [0] * width
    if isinstance(first, FiniteSequence):
        return FiniteSequence(first.origin, sums)
    return Polynomial(sums)


def eval_scalar_equation(cp, kind: OperatorKind, x: OperatorElement, psi: OperatorElement) -> OperatorElement:
    """Residual A^n(x) + d_1 A^(n-1)(x) + ... + d_n x - psi.

    The zero element iff x solves the reduced scalar equation with
    non-homogeneous term psi on the window where all terms are defined.
    """
    n = cp.n
    if kind is OperatorKind.SHIFT and isinstance(x, FiniteSequence) and x.horizon <= n:
        raise HorizonError(f"order-{n} equation needs horizon > {n}, got {x.horizon}")
    powers = [x]
    for _ in range(n):
        powers.append(apply(kind, powers[-1]))
    return lincomb((1, *cp.d, -1), (*powers[::-1], psi))
