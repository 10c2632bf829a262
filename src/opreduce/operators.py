"""Concrete linear operators and the vector-space elements they act on.

Three operator kinds are supported: the shift operator on finite rational
sequences, the formal derivative on rational-coefficient polynomials, and the
zero operator on either (which degenerates the whole reduction pipeline to
Cramer's rule).

Both kinds of element are one `OperatorElement`: an ``origin`` (a
sequence's first time, ``None`` for a polynomial) and its values (a
sequence's window or a polynomial's ascending coefficients) in one integer
form ``(D, ints)``, value t being ``Fraction(ints[t], D)``.  The tuple of
`Fraction` ``values`` is built from the form when first read; every
computation (combination, shift, derivative, the zero test, a sequence's
horizon, a polynomial's degree) reads the form.  Equality and hashing, on
the values, live on that base; the subclasses add only their operator and
window semantics.

Sequences are finite tables, not closed-form generators: a shift consumes one
step of horizon instead of inventing data, so callers must provision enough
horizon for the verification window they want.  Every combination of
elements goes through `lincomb`, whose scalars come in integer form too:
sequences with the same origin combine on the largest window where all are
defined, polynomials on the longest coefficient list.  It reads the
elements' integer forms and hands each output its own.

The public constructors coerce and check their input and clear it once,
keeping the `Fraction`s they were given; a producer that has the form (a
shift, a derivative, a `lincomb` output) hands it to `_born`, which trusts
it, so the shifted copies of one sequence share one clearing, and one that
has both values and form (an iterated trajectory) hands over both.
"""

from __future__ import annotations

import enum
from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .exactcore import as_column, as_rational, clear_denominators


class HorizonError(ValueError):
    """A sequence operation ran out of horizon."""


class HeterogeneousColumnError(ValueError):
    """Column entries mix variants, origins or horizons."""


class OperatorKind(enum.Enum):
    SHIFT = "shift"
    DERIVATIVE = "derivative"
    ZERO = "zero"


class OperatorElement:
    """An element of the operator's vector space; all of its arithmetic goes through `lincomb`."""

    __slots__ = ("origin", "_values", "_form")

    def int_form(self) -> tuple[int, list[int]]:
        """``(D, ints)`` with ``Fraction(ints[t], D)`` equal to value t, fixed at birth."""
        return self._form

    @property
    def values(self) -> tuple[Fraction, ...]:
        """The values as `Fraction`s, built from the integer form when first read."""
        if self._values is None:
            den, ints = self._form
            self._values = tuple(Fraction(a, den) for a in ints)
        return self._values

    def is_zero(self) -> bool:
        return not any(self._form[1])

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.origin == other.origin and self.values == other.values

    def __hash__(self) -> int:
        return hash((type(self).__name__, self.origin, self.values))

    def __add__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return lincomb((1, [[1, 1]]), (self, other))[0]

    def __sub__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return lincomb((1, [[1, -1]]), (self, other))[0]

    def __neg__(self):
        return lincomb((1, [[-1]]), (self,))[0]

    def __rmul__(self, scalar):
        q = as_rational(scalar)
        return lincomb((q.denominator, [[q.numerator]]), (self,))[0]

    __mul__ = __rmul__


def _born(cls, form: tuple[int, list[int]], origin=None, values=None) -> OperatorElement:
    """An element of ``cls`` holding ``form``, a sequence's ``origin`` and, if given, its ``values``.

    All are trusted unchecked: D > 0, a polynomial's ints have no trailing
    zero, and the values, if the producer has them, equal the form's.
    """
    element = object.__new__(cls)
    element.origin, element._values, element._form = origin, values, form
    return element


class Polynomial(OperatorElement):
    """Rational-coefficient polynomial, ascending degree, trailing zeros stripped."""

    __slots__ = ()

    def __init__(self, coeffs: Iterable = ()):
        cs = [as_rational(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        den, (ints,) = clear_denominators([cs])
        self.origin, self._values, self._form = None, tuple(cs), (den, ints)

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return self.values

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self._form[1]) - 1

    def evaluate(self, t) -> Fraction:
        point = as_rational(t)
        acc = Fraction(0)
        for c in reversed(self.values):
            acc = acc * point + c
        return acc

    def __repr__(self) -> str:
        return f"Polynomial([{', '.join(map(str, self.values))}])"


class FiniteSequence(OperatorElement):
    """Finite window of a rational sequence: values e(t0), ..., e(t0 + H - 1)."""

    __slots__ = ()

    def __init__(self, origin: int, values: Iterable):
        if isinstance(origin, bool):
            raise TypeError("bool is not a sequence origin")
        if not isinstance(origin, int):
            raise TypeError(f"not an integer origin: {origin!r}")
        vals = as_column(values)
        if not vals:
            raise HorizonError("sequence needs horizon >= 1")
        den, (ints,) = clear_denominators([vals])
        self.origin, self._values, self._form = origin, vals, (den, ints)

    @property
    def horizon(self) -> int:
        return len(self._form[1])

    def value_at(self, t: int) -> Fraction:
        k = t - self.origin
        if not 0 <= k < self.horizon:
            raise HorizonError(f"time {t} outside window [{self.origin}, {self.origin + self.horizon - 1}]")
        return self.values[k]

    def __repr__(self) -> str:
        return f"FiniteSequence(origin={self.origin}, values=[{', '.join(map(str, self.values))}])"


class ElementColumn:
    """Homogeneous column of operator elements.

    All entries must share an element class, and sequence entries must share
    origin and horizon.
    """

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable[OperatorElement]):
        items = tuple(entries)
        if not items:
            raise HeterogeneousColumnError("column needs at least one entry")
        for e in items:
            if not isinstance(e, OperatorElement):
                raise TypeError(f"not an operator element: {e!r}")
        first = items[0]
        for e in items[1:]:
            if type(e) is not type(first):
                raise HeterogeneousColumnError("column mixes sequences and polynomials")
            if e.origin != first.origin or (isinstance(e, FiniteSequence) and e.horizon != first.horizon):
                raise HeterogeneousColumnError("sequence column entries must share origin and horizon")
        self.entries = items

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


def check_acts_on(kind: OperatorKind, e: OperatorElement, times: int) -> None:
    """The operator can be applied ``times`` times to ``e``: its domain, and the horizon it uses up.

    The shift acts on sequences and uses one step per application, so it
    needs horizon > ``times``; the derivative acts on polynomials, and the
    zero operator on both, whatever their horizon.
    """
    if kind is OperatorKind.SHIFT and not isinstance(e, FiniteSequence):
        raise TypeError("shift operator acts on sequences")
    if kind is OperatorKind.DERIVATIVE and not isinstance(e, Polynomial):
        raise TypeError("derivative operator acts on polynomials")
    if not isinstance(kind, OperatorKind):
        raise ValueError(f"unknown operator kind {kind!r}")
    if kind is OperatorKind.SHIFT and e.horizon <= times:
        raise HorizonError(f"shift^{times} needs horizon > {times}, got {e.horizon}")


def apply(kind: OperatorKind, e: OperatorElement) -> OperatorElement:
    """One application of the operator to an element; a shift or a derivative is born from e's form.

    The shift gives value e(t+1) at each t, so its horizon shrinks by one.
    """
    check_acts_on(kind, e, 1)
    den, ints = e.int_form()
    if kind is OperatorKind.SHIFT:
        return _born(FiniteSequence, (den, ints[1:]), e.origin)
    if kind is OperatorKind.DERIVATIVE:
        # k c_k keeps the leading coefficient nonzero, so there is nothing to strip
        return _born(Polynomial, (den, [k * c for k, c in enumerate(ints) if k >= 1]))
    return 0 * e


def apply_vector(kind: OperatorKind, col: ElementColumn) -> ElementColumn:
    """One application of the operator to every entry of a column."""
    return ElementColumn(apply(kind, e) for e in col)


def lincomb(
    scalars: tuple[int, Sequence[Sequence[int]]], elements: Sequence[OperatorElement]
) -> tuple[OperatorElement, ...]:
    """Exact rational linear combinations of elements of one variant, one per row.

    ``scalars`` is in integer form ``(Q, rows)``, the shape that
    `clear_denominators` and `Matrix.int_form` return: Q > 0, and row r's
    scalar j is ``Fraction(rows[r][j], Q)``.  Every row is as long as
    ``elements`` and gives one element: sequences (one origin) are summed
    value by value on the shortest window, polynomials coefficient by
    coefficient up to the longest coefficient list.  The elements' integer
    forms are brought to their common denominator L by folding each factor
    L // D into the scalars, so each output value is one integer dot
    product over Q L.  Each output is born from its form alone, reduced by
    the gcd of its denominator and values; its `Fraction` values are built
    when first read.
    """
    q_den, q_ints = scalars
    if not elements:
        raise ValueError("lincomb needs at least one element")
    if not q_ints:
        raise ValueError("lincomb needs at least one row of scalars")
    if any(len(row) != len(elements) for row in q_ints):
        raise ValueError("lincomb needs rows as long as the element list")
    first = elements[0]
    if not isinstance(first, OperatorElement) or any(type(e) is not type(first) for e in elements):
        raise TypeError("lincomb needs elements of one variant")
    if any(e.origin != first.origin for e in elements):
        raise HeterogeneousColumnError("cannot combine sequences with different origins")
    is_sequence = isinstance(first, FiniteSequence)
    forms = [e.int_form() for e in elements]
    width = (min if is_sequence else max)(len(ints) for _, ints in forms)
    v_den = lcm(*(d for d, _ in forms))
    factors = [v_den // d for d, _ in forms]
    den = q_den * v_den
    columns = list(zip(*(ints[:width] + [0] * (width - len(ints)) for _, ints in forms)))
    results = []
    for q in q_ints:
        q = list(map(mul, q, factors))
        row = [sum(map(mul, q, col)) for col in columns]
        if not is_sequence:
            while row and not row[-1]:
                row.pop()
        g = gcd(den, *row)
        results.append(_born(type(first), (den // g, [a // g for a in row]), first.origin))
    return tuple(results)


def eval_scalar_equation(cp, kind: OperatorKind, x: OperatorElement, psi: OperatorElement) -> OperatorElement:
    """Residual A^n(x) + d_1 A^(n-1)(x) + ... + d_n x - psi.

    The zero element iff x solves the reduced scalar equation with
    non-homogeneous term psi on the window where all terms are defined.
    """
    check_acts_on(kind, x, cp.n)
    powers = [x]
    for _ in range(cp.n):
        powers.append(apply(kind, powers[-1]))
    return lincomb(clear_denominators([(1, *cp.d, -1)]), (*powers[::-1], psi))[0]
