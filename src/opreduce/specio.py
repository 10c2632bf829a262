"""System spec files and report serialization.

A spec file is JSON with every number carried as a rational literal string,
so exactness survives serialization; float literals are rejected.

    {
      "n": 2,
      "matrix": [["1", "2"], ["3", "4"]],
      "operator": "shift",                  # or "derivative", "zero"
      "phi": [
        {"origin": 0, "values": ["1", "0", "0", "0"]},
        {"origin": 0, "values": ["0", "0", "0", "0"]}
      ],
      "initial": {"t0": 0, "x0": ["1", "0"]},   # optional; needed by solve
      "horizon": 8,                             # optional; needed by solve
      "x": [ ... ]                              # optional; needed by verify
    }

Free-column entries are sequence literals ({"origin", "values"}) for the
shift operator and polynomial literals ({"coeffs"}, ascending degree) for
the derivative operator.  The zero operator takes polynomial literals or
bare rational strings (constants).
"""

from __future__ import annotations

import json
from fractions import Fraction

from .exactcore import Matrix, as_rational
from .operators import ElementColumn, FiniteSequence, OperatorElement, OperatorKind, Polynomial


class SpecError(ValueError):
    """A spec file failed validation; message names the offending field."""


class SystemSpec:
    """A validated spec; ``initial`` is ``(t0, x0)``, and ``initial``, ``horizon`` and ``x`` may be None."""

    __slots__ = ("matrix", "operator", "phi", "initial", "horizon", "x")

    def __init__(
        self, matrix: Matrix, operator: OperatorKind, phi: ElementColumn, initial=None, horizon=None, x=None
    ):
        self.matrix, self.operator, self.phi = matrix, operator, phi
        self.initial, self.horizon, self.x = initial, horizon, x

    @property
    def n(self) -> int:
        return self.matrix.n


def _fail(path: str, message: str) -> SpecError:
    return SpecError(f"spec field {path}: {message}")


def _parse_literal(value, path: str) -> Fraction:
    try:
        return as_rational(value)
    except (TypeError, ValueError) as exc:
        raise _fail(path, str(exc)) from None


def _parse_int(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise _fail(path, f"expected an integer, got {value!r}")
    return value


def _parse_literal_list(value, path: str) -> tuple[Fraction, ...]:
    if not isinstance(value, list):
        raise _fail(path, f"expected a list, got {value!r}")
    return tuple(_parse_literal(v, f"{path}[{k}]") for k, v in enumerate(value))


def _parse_element(value, kind: OperatorKind, path: str) -> OperatorElement:
    if isinstance(value, dict) and set(value) == {"origin", "values"}:
        if kind is not OperatorKind.SHIFT:
            raise _fail(path, f"sequence literal not valid for operator {kind.value!r}")
        origin = _parse_int(value["origin"], f"{path}.origin")
        values = _parse_literal_list(value["values"], f"{path}.values")
        if not values:
            raise _fail(path, "sequence needs at least one value")
        return FiniteSequence(origin, values)
    if isinstance(value, dict) and set(value) == {"coeffs"}:
        if kind is OperatorKind.SHIFT:
            raise _fail(path, "polynomial literal not valid for the shift operator")
        return Polynomial(_parse_literal_list(value["coeffs"], f"{path}.coeffs"))
    if isinstance(value, (str, int)) and kind is OperatorKind.ZERO:
        return Polynomial([_parse_literal(value, path)])
    expected = {
        OperatorKind.SHIFT: 'a sequence literal {"origin", "values"}',
        OperatorKind.DERIVATIVE: 'a polynomial literal {"coeffs"}',
        OperatorKind.ZERO: 'a polynomial literal {"coeffs"} or a bare rational string',
    }[kind]
    raise _fail(path, f"expected {expected}, got {value!r}")


def _parse_column(value, kind: OperatorKind, n: int, path: str) -> ElementColumn:
    if not isinstance(value, list):
        raise _fail(path, f"expected a list of {n} elements")
    if len(value) != n:
        raise _fail(path, f"has {len(value)} entries, expected n = {n}")
    entries = [_parse_element(v, kind, f"{path}[{k}]") for k, v in enumerate(value)]
    try:
        return ElementColumn(entries)
    except ValueError as exc:
        raise _fail(path, str(exc)) from None


def parse_spec_dict(data) -> SystemSpec:
    if not isinstance(data, dict):
        raise SpecError("spec must be a JSON object")
    unknown = set(data) - {"n", "matrix", "operator", "phi", "initial", "horizon", "x"}
    if unknown:
        raise SpecError(f"spec has unknown fields: {sorted(unknown)}")
    for field in ("n", "matrix", "operator", "phi"):
        if field not in data:
            raise SpecError(f"spec field {field}: missing")

    n = _parse_int(data["n"], "n")
    if n < 1:
        raise _fail("n", f"dimension must be >= 1, got {n}")

    if not isinstance(data["matrix"], list) or len(data["matrix"]) != n:
        raise _fail("matrix", f"expected {n} rows")
    rows = []
    for r, row in enumerate(data["matrix"]):
        if not isinstance(row, list) or len(row) != n:
            raise _fail(f"matrix[{r}]", f"expected {n} entries")
        rows.append(tuple(_parse_literal(x, f"matrix[{r}][{c}]") for c, x in enumerate(row)))
    matrix = Matrix(rows)

    if not isinstance(data["operator"], str):
        raise _fail("operator", f"expected a string, got {data['operator']!r}")
    try:
        kind = OperatorKind(data["operator"])
    except ValueError:
        raise _fail("operator", f"unknown operator kind {data['operator']!r}") from None

    phi = _parse_column(data["phi"], kind, n, "phi")

    initial = None
    if data.get("initial") is not None:
        block = data["initial"]
        if not isinstance(block, dict) or set(block) != {"t0", "x0"}:
            raise _fail("initial", 'expected an object {"t0", "x0"}')
        t0 = _parse_int(block["t0"], "initial.t0")
        x0 = _parse_literal_list(block["x0"], "initial.x0")
        if len(x0) != n:
            raise _fail("initial.x0", f"has {len(x0)} entries, expected n = {n}")
        initial = (t0, x0)

    horizon = None
    if data.get("horizon") is not None:
        horizon = _parse_int(data["horizon"], "horizon")
        if horizon < 1:
            raise _fail("horizon", f"must be >= 1, got {horizon}")

    x = None
    if data.get("x") is not None:
        x = _parse_column(data["x"], kind, n, "x")

    return SystemSpec(matrix=matrix, operator=kind, phi=phi, initial=initial, horizon=horizon, x=x)


def load_spec(path: str) -> SystemSpec:
    """Read and validate a spec file; raises SpecError with a field diagnostic."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise SpecError(f"cannot read spec file {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        raise SpecError(f"spec file {path} is not valid JSON: {exc}") from None
    return parse_spec_dict(data)


def element_to_json(e: OperatorElement) -> dict:
    if isinstance(e, FiniteSequence):
        return {
            "kind": "sequence",
            "origin": e.origin,
            "values": list(map(str, e.values)),
        }
    return {"kind": "polynomial", "coeffs": list(map(str, e.coeffs))}


def term_to_json(n: int, k: int, row) -> dict:
    """Term k of a right-hand side: (-1)^(k-1) times ``row`` applied to A^(n-k) phi."""
    return {
        "order": k,
        "sign": (-1) ** (k - 1),
        "power": n - k,
        "coeffs": [str(c if k % 2 else -c) for c in row],
    }


def reduced_to_json(reduced) -> dict:
    ac = reduced.ac
    return {
        "char_poly": list(map(str, ac.cp.d)),
        "rhs": [
            {
                "variable": i + 1,
                "terms": [
                    term_to_json(ac.n, k, coeff.rows()[i]) for k, coeff in enumerate(ac.coeffs, start=1)
                ],
                "evaluated": element_to_json(reduced.rhs_evaluated[i]),
            }
            for i in range(ac.n)
        ],
    }


def residual_to_json(variable: int, residual: OperatorElement) -> dict:
    payload = {
        "variable": variable,
        "is_zero": residual.is_zero(),
        "residual": element_to_json(residual),
    }
    if isinstance(residual, FiniteSequence):
        payload["window"] = {"origin": residual.origin, "length": residual.horizon}
    return payload
